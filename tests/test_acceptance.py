"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every comparison is exact; the stated runtime budgets
are asserted where a criterion carries one.
"""

import random
import time
from fractions import Fraction

from fubini import bfiles, identities, sequences, series

N_SWEEP = 200
EGF_ORDER = 64


def _criterion(label, check, budget_seconds=None):
    start = time.monotonic()
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"{label} took {elapsed:.2f}s, budget {budget_seconds}s"
        )


def test_criterion_1_cyclic_doubling_sweep():
    def check():
        assert sequences.cyclic_ordered_bell(1) == 1
        for n in range(2, N_SWEEP + 1):
            expected = 2 * sequences.ordered_bell(n - 1)
            assert sequences.cyclic_ordered_bell(n) == expected, n

    _criterion("1 cyclic-doubling n<=200", check, budget_seconds=10)


def test_criterion_2_bell_four_forms_sweep():
    def check():
        for n in range(1, N_SWEEP + 1):
            b = sequences.ordered_bell(n)
            sign = (-1) ** n
            assert b == -sign + 2 * sequences.ordered_bell_parity(n, "even"), n
            assert b == sign + 2 * sequences.ordered_bell_parity(n, "odd"), n
            assert b == sequences.cyclic_ordered_bell_even(n + 1), n
            assert b == sequences.cyclic_ordered_bell_odd(n + 1), n

    _criterion("2 bell-four-forms n<=200", check, budget_seconds=10)


def test_criterion_3_cyclic_parity_sweep():
    def check():
        for n in range(2, N_SWEEP + 1):
            b = sequences.ordered_bell(n - 1)
            assert sequences.cyclic_ordered_bell_even(n) == b, n
            assert sequences.cyclic_ordered_bell_odd(n) == b, n

    _criterion("3 cyclic-parity-equal n<=200", check, budget_seconds=10)


def test_criterion_4_alternating_sums_sweep():
    def check():
        assert sequences.alternating_cyclic_sum(1) == -1
        for n in range(1, N_SWEEP + 1):
            assert sequences.alternating_factorial_sum(n) == (-1) ** n, n
            if n >= 2:
                assert sequences.alternating_cyclic_sum(n) == 0, n

    _criterion("4 alternating-sums n<=200", check)


def test_criterion_5_egf_agreement_order_64():
    def check():
        reports = {
            r.identity_id: r for r in identities.verify_egf_agreement(EGF_ORDER)
        }
        assert set(reports) == {"egf.agreement", "egf.parity-split", "egf.derivative"}
        for report in reports.values():
            assert report.passed, report.format_line()

    _criterion("5 egf-agreement order 64", check, budget_seconds=30)


def test_criterion_6_oracle_equivalence():
    def check():
        for n in range(11):
            for k in range(n + 1):
                expected = sequences.count_partitions_exhaustive(n, k)
                assert sequences.stirling2(n, k) == expected, (n, k)
        for n in range(9):
            expected = sequences.count_ordered_partitions_exhaustive(n)
            assert sequences.ordered_bell(n) == expected, n

    _criterion("6 oracle-equivalence", check, budget_seconds=60)


def test_criterion_7_oeis_fixture_crosschecks():
    def check():
        minimums = {"A000670": 20, "A008277": 50, "A130850": 20}
        for sequence_id, minimum in minimums.items():
            reference = bfiles.load_fixture(sequence_id)
            assert len(reference.values) >= minimum, sequence_id
            table = bfiles.computed_table(sequence_id, reference.last_index)
            report = bfiles.crosscheck(table, reference)
            assert report.passed, report.format_line()

    _criterion("7 oeis-fixtures offline", check)


def test_criterion_8_series_roundtrips_200_cases():
    def random_series(rng, order, constant):
        coeffs = [constant] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)
        ]
        return series.TruncatedSeries(coeffs)

    def check():
        order = 32
        rng = random.Random(20250811)
        one = series.TruncatedSeries.constant(1, order)
        for _ in range(200):
            f = random_series(rng, order, 0)
            assert f.exp().log() == f
            g = random_series(rng, order, 1)
            assert g.log().exp() == g
        for _ in range(200):
            numerator = rng.choice([n for n in range(-9, 10) if n])
            h = random_series(rng, order, Fraction(numerator, rng.randint(1, 9)))
            assert h * h.inverse() == one

    _criterion("8 series-roundtrips 200x order 32", check)
