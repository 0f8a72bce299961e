"""Verifier behavior: passing sweeps, registry completeness, fault injection."""

import json
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from fubini import ArgumentError, identities, registry, sequences, series
from fubini.identities import (
    IDENTITY_IDS,
    VerificationReport,
    verify_all,
    verify_alternating_sums,
    verify_bell_forms,
    verify_cyclic_doubling,
    verify_egf_agreement,
    verify_parity_split,
)

ALL_VERIFIERS = [
    (verify_bell_forms, 40),
    (verify_cyclic_doubling, 40),
    (verify_alternating_sums, 40),
    (verify_parity_split, 40),
    (verify_egf_agreement, 12),
]


@pytest.mark.parametrize("verifier, bound", ALL_VERIFIERS)
def test_each_verifier_passes(verifier, bound):
    for report in verifier(bound):
        assert report.passed, report.format_line()
        assert report.first_failure is None


def test_degenerate_ranges_pass():
    for report in verify_all(1, 1):
        assert report.passed, report.format_line()


@pytest.mark.parametrize("verifier", [v for v, _ in ALL_VERIFIERS])
def test_empty_range_rejected(verifier):
    with pytest.raises(ValueError, match="empty range"):
        verifier(0)


def test_verify_all_checks_the_order_before_streaming_a_row(monkeypatch):
    calls, real_rows = [], sequences._stirling_rows

    def counted_rows():
        calls.append(1)
        return real_rows()

    monkeypatch.setattr(sequences, "_stirling_rows", counted_rows)
    with pytest.raises(ArgumentError, match="^empty range: order must be >= 1, got 0$"):
        verify_all(5, 0)
    assert calls == []
    # n_max is still checked first
    with pytest.raises(ArgumentError, match="^empty range: n_max must be >= 1, got 0$"):
        verify_all(0, 0)


def test_registry_matches_report_ids():
    reports = verify_all(5, 4)
    assert {r.identity_id for r in reports} == set(IDENTITY_IDS)
    assert len(reports) == len(IDENTITY_IDS)


def test_target_table_orders_every_integer_identity_once():
    # the integer targets sit between "all" and "egf", each taking only --max,
    # and their runs report every integer identity once, in report order
    targets = list(registry.VERIFY_TARGETS)
    assert targets[0] == "all" and targets[-1] == "egf"
    ids = []
    for target in targets[1:-1]:
        run, flags = registry.VERIFY_TARGETS[target]
        assert flags == ("n_max",)
        ids += [r.identity_id for r in run(3)]
    assert ids == list(identities._INTEGER_CHECKS)
    assert [r.identity_id for r in verify_all(3, 2)][: len(ids)] == ids


def test_a_sequence_takes_its_route_and_builder_by_name():
    # a function in place of its name is refused when the entry is built,
    # not on its first call
    with pytest.raises(TypeError, match="^a fubini.sequences function is named by a string"):
        registry.Sequence("bell", 0, sequences.ordered_bell)
    with pytest.raises(TypeError, match="^a fubini.series function is named by a string"):
        registry.Sequence("bell", 0, egf=series.ordered_bell_egf)
    assert registry.Sequence("bell", 0, "ordered_bell").route(3) == 13


def test_reports_are_deterministic():
    assert verify_all(12, 8) == verify_all(12, 8)


def test_report_rejects_inconsistent_state():
    with pytest.raises(ValueError, match="inconsistent"):
        VerificationReport("cyclic.doubling", (1, 5), "pass", (3, 6, 7))
    with pytest.raises(ValueError, match="inconsistent"):
        VerificationReport("cyclic.doubling", (1, 5), "fail")
    with pytest.raises(ValueError, match="status"):
        VerificationReport("cyclic.doubling", (1, 5), "maybe")


def test_report_serialization_roundtrip():
    report = VerificationReport("cyclic.doubling", (1, 5), "pass")
    assert report.format_line() == "cyclic.doubling n=1..5 pass"
    data = json.loads(report.to_json())
    assert data == {
        "identity_id": "cyclic.doubling",
        "range_checked": [1, 5],
        "status": "pass",
        "first_failure": None,
    }

    failed = VerificationReport("cyclic.doubling", (1, 5), "fail", (3, 6, 7))
    assert "first_failure: n=3 expected=6 actual=7" in failed.format_line()
    assert json.loads(failed.to_json())["first_failure"] == {
        "n": 3,
        "expected": "6",
        "actual": "7",
    }
    assert not failed.passed


# -- fault injection -------------------------------------------------------


def _corrupt_stirling_row(monkeypatch, target_n, target_k, delta):
    """Corrupt S(target_n, target_k) on both Stirling routes: the memo's seam
    ``_read_row`` and the stream ``_stirling_rows`` that the sweep reads."""
    real_read, real_rows = sequences._read_row, sequences._stirling_rows

    def corrupt(n, row):
        if n == target_n and target_k < len(row):
            row = list(row)  # a copy: the memo holds this row, and the stream steps from it
            row[target_k] += delta
        return row

    monkeypatch.setattr(
        sequences, "_read_row", lambda n: sequences._RowSums(corrupt(n, real_read(n).row))
    )
    monkeypatch.setattr(
        sequences, "_stirling_rows", lambda: (corrupt(n, row) for n, row in enumerate(real_rows()))
    )


def test_corrupted_row_fails_cyclic_doubling(monkeypatch):
    _corrupt_stirling_row(monkeypatch, target_n=7, target_k=2, delta=1)
    (report,) = verify_cyclic_doubling(20)
    assert not report.passed
    assert report.first_failure is not None
    n, expected, actual = report.first_failure
    assert n == 7
    assert expected != actual


def test_corrupted_row_fails_bell_forms(monkeypatch):
    _corrupt_stirling_row(monkeypatch, target_n=6, target_k=2, delta=1)
    reports = verify_bell_forms(20)
    assert any(not r.passed for r in reports)
    for report in reports:
        if not report.passed:
            assert report.first_failure is not None


def test_corrupted_row_fails_alternating_and_parity(monkeypatch):
    _corrupt_stirling_row(monkeypatch, target_n=5, target_k=3, delta=2)
    assert any(not r.passed for r in verify_alternating_sums(20))
    assert any(not r.passed for r in verify_parity_split(20))


def test_corrupted_direct_route_fails_egf_agreement(monkeypatch):
    _corrupt_stirling_row(monkeypatch, target_n=4, target_k=2, delta=1)
    reports = {r.identity_id: r for r in verify_egf_agreement(10)}
    assert not reports["egf.agreement"].passed
    failure = reports["egf.agreement"].first_failure
    assert failure is not None


def test_corrupted_stirling_entry_fails_worpitzky(monkeypatch):
    # S(7, 3) enters ordered_bell(7), the side of the Worpitzky row sums that
    # reads Stirling rows; the Worpitzky rows come from their own recurrence
    _corrupt_stirling_row(monkeypatch, target_n=7, target_k=3, delta=1)
    reports = {r.identity_id: r for r in verify_parity_split(20)}
    assert not reports["worpitzky.parity-rows"].passed
    assert reports["worpitzky.parity-rows"].first_failure[0] == 7


def _pulled_worpitzky_rows(patch, corrupt_at=None):
    """Count the Worpitzky rows the sweep pulls: the returned list gets each
    row's n as it is pulled. Row ``corrupt_at`` has W(n, 2) += 1."""
    pulled, real_rows = [], sequences._worpitzky_rows

    def counted():
        for n, row in enumerate(real_rows()):
            pulled.append(n)
            yield [*row[:2], row[2] + 1, *row[3:]] if n == corrupt_at else row

    patch.setattr(sequences, "_worpitzky_rows", counted)
    return pulled


def test_corrupted_worpitzky_row_fails_worpitzky(monkeypatch):
    pulled = _pulled_worpitzky_rows(monkeypatch, corrupt_at=7)
    reports = {r.identity_id: r for r in verify_parity_split(20)}
    bell = sequences.ordered_bell(7)
    assert reports["worpitzky.parity-rows"].first_failure == (7, bell, bell + 1)
    assert reports["cyclic.parity-equal"].passed
    # rows are pulled only while worpitzky.parity-rows is checked
    assert pulled == list(range(8))


def test_a_sweep_without_worpitzky_pulls_no_worpitzky_row(monkeypatch):
    pulled = _pulled_worpitzky_rows(monkeypatch)
    assert all(r.passed for r in verify_bell_forms(30))
    assert pulled == []


FROZEN_REPORTS = Path(__file__).parent / "data" / "corrupted_stirling_reports.json"


def test_corrupted_rows_give_the_frozen_reports(monkeypatch):
    """``verify_all(20, 8)`` under S(row, k) += 1, for rows 2..9 and every k,
    against the reports captured at commit bb992ed, before the one-pass
    sweep. Only ``worpitzky.parity-rows`` moved: its Worpitzky side no
    longer reads Stirling rows, so it now fails at n = row, through the
    corrupted ordered_bell(row) = B(row) + k!.
    """
    for case in json.loads(FROZEN_REPORTS.read_text()):
        row, k = case["row"], case["k"]
        with monkeypatch.context() as patch:
            _corrupt_stirling_row(patch, target_n=row, target_k=k, delta=1)
            reports = [r.to_dict() for r in verify_all(20, 8)]
        assert len(reports) == len(case["reports"])
        for report, frozen in zip(reports, case["reports"]):
            if report["identity_id"] == "worpitzky.parity-rows":
                bell = sequences.ordered_bell(row)
                assert report["first_failure"] == {
                    "n": row, "expected": str(bell + factorial(k)), "actual": str(bell)
                }, (row, k)
            else:
                assert report == frozen, (row, k)


def test_sweep_reads_each_stirling_row_once(monkeypatch):
    memo_reads, taken, summed = Counter(), Counter(), Counter()
    real_read, real_rows, real_sum = (
        sequences._read_row, sequences._stirling_rows, sequences._row_sum
    )

    def counted_read(n):
        memo_reads[n] += 1
        return real_read(n)

    def counted_rows():
        for n, row in enumerate(real_rows()):
            taken[n] += 1
            yield row

    def counted_sum(row, *weights):
        summed[len(row) - 1, weights] += 1
        return real_sum(row, *weights)

    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    monkeypatch.setattr(sequences, "_read_row", counted_read)
    monkeypatch.setattr(sequences, "_stirling_rows", counted_rows)
    monkeypatch.setattr(sequences, "_row_sum", counted_sum)
    identities._sweep_integers(30, identities._INTEGER_CHECKS)
    assert memo_reads == Counter()
    # bell.shifted-cyclic reads the cyclic sums at n_max + 1
    assert taken == Counter(range(32))
    # every sum read is computed once per row, though checks at n-1, n and
    # n+1 read it: every row's eight sums, and the cyclic parity sums of 31
    assert set(summed.values()) == {1}
    assert len(summed) == 30 * len(sequences._ROW_SUMS) + 2
    # the sweep ran past the memo's last row without extending it
    assert len(sequences._shared_triangle._checkpoints) == 1
    assert not sequences._shared_triangle._recent


#: Sum perturbed at row 9 -> the (identity, first failing n) pairs of the sweep to 12.
PERTURBED_SUM_FAILURES = {
    "ordered_bell": {
        ("bell.parity-split", 9), ("bell.shifted-cyclic", 9), ("cyclic.doubling", 10),
        ("cyclic.parity-equal", 10), ("worpitzky.parity-rows", 9),
    },
    "ordered_bell_even": {("bell.parity-split", 9)},
    "ordered_bell_odd": {("bell.parity-split", 9)},
    "cyclic_ordered_bell": {("cyclic.doubling", 9)},
    "cyclic_ordered_bell_even": {
        ("bell.shifted-cyclic", 8), ("alternating.cyclic", 9), ("cyclic.parity-equal", 9),
    },
    "cyclic_ordered_bell_odd": {
        ("bell.shifted-cyclic", 8), ("alternating.cyclic", 9), ("cyclic.parity-equal", 9),
    },
    "alternating_factorial_sum": {("alternating.factorial", 9)},
    "alternating_cyclic_sum": {("alternating.cyclic", 9)},
}


@pytest.mark.parametrize("name", sorted(PERTURBED_SUM_FAILURES))
def test_each_sum_perturbed_alone_is_caught(monkeypatch, name):
    # one sum is off by one at row 9, whichever route the sweep reads it by
    real_sum, weights = sequences._row_sum, sequences._ROW_SUMS[name]

    def perturbed(row, *given):
        return real_sum(row, *given) + (len(row) == 10 and given == weights)

    monkeypatch.setattr(sequences, "_row_sum", perturbed)
    reports = identities._sweep_integers(12, identities._INTEGER_CHECKS)
    failed = {(r.identity_id, r.first_failure[0]) for r in reports if not r.passed}
    assert failed == PERTURBED_SUM_FAILURES[name]


def test_chained_stirling_columns_match_powers():
    for order in (0, 1, 24):
        columns = list(identities._stirling_columns(order))
        assert columns == [series.stirling_column_egf(k, order) for k in range(11)], order


def test_verify_all_aggregates_failures(monkeypatch):
    _corrupt_stirling_row(monkeypatch, target_n=9, target_k=4, delta=1)
    reports = verify_all(15, 8)
    assert any(not r.passed for r in reports)


# -- the EGF checks --------------------------------------------------------------

#: The builders that ``verify_egf_agreement`` calls, directly or through the registry.
EGF_BUILDERS = (
    "ordered_bell_egf",
    "cyclic_ordered_bell_egf",
    "cyclic_ordered_bell_even_egf",
    "cyclic_ordered_bell_odd_egf",
    "double_shifted_bell_egf",
)


def _add_to_builder(patch, name, n, value):
    """Make ``series.<name>`` add ``value * x^n`` to what it builds."""
    real = getattr(series, name)

    def corrupted(order):
        return real(order) + series.TruncatedSeries([0] * n + [value], order=order)

    patch.setattr(series, name, corrupted)


def test_each_egf_is_built_once(monkeypatch):
    calls = Counter()
    for name in EGF_BUILDERS:
        real = getattr(series, name)
        monkeypatch.setattr(
            series, name, lambda order, real=real, name=name: calls.update([name]) or real(order)
        )
    assert all(r.passed for r in verify_egf_agreement(12))
    # the cyclic EGF is built once more inside double_shifted_bell_egf, the builder under test
    assert calls == {
        "ordered_bell_egf": 1,
        "cyclic_ordered_bell_egf": 2,
        "cyclic_ordered_bell_even_egf": 1,
        "cyclic_ordered_bell_odd_egf": 1,
        "double_shifted_bell_egf": 1,
    }


def test_egf_columns_read_each_stirling_row_once(monkeypatch):
    # count the reads made by the verifier itself, not by the direct routes' sums
    rows, entries = Counter(), Counter()
    real_read, real_entry = sequences._read_row, sequences.stirling2

    def counted_read(n):
        if sys._getframe(1).f_globals["__name__"] == identities.__name__:
            rows[n] += 1
        return real_read(n)

    def counted_entry(n, k):
        entries[n, k] += 1
        return real_entry(n, k)

    monkeypatch.setattr(sequences, "_read_row", counted_read)
    monkeypatch.setattr(sequences, "stirling2", counted_entry)
    assert all(r.passed for r in verify_egf_agreement(12))
    assert rows == Counter(range(13))
    assert entries == Counter()


def test_a_non_integral_egf_is_a_failed_report(monkeypatch):
    # 3! * (13/6 + 1/7) = 97/7: the EGF no longer extracts integers
    _add_to_builder(monkeypatch, "ordered_bell_egf", 3, Fraction(1, 7))
    reports = {r.identity_id: r for r in verify_egf_agreement(6)}
    assert reports["egf.agreement"].first_failure == (3, 13, Fraction(97, 7))
    assert reports["egf.agreement"].format_line() == (
        "egf.agreement n=0..6 fail first_failure: n=3 expected=13 actual=97/7"
    )
    assert reports["egf.parity-split"].passed
    assert not reports["egf.derivative"].passed


def test_a_non_integral_difference_is_a_failed_report(monkeypatch):
    # even + odd is unchanged, and even - odd has 2! * coefficient 2 = 0 + 4/7
    _add_to_builder(monkeypatch, "cyclic_ordered_bell_even_egf", 2, Fraction(1, 7))
    _add_to_builder(monkeypatch, "cyclic_ordered_bell_odd_egf", 2, Fraction(-1, 7))
    reports = {r.identity_id: r for r in verify_egf_agreement(6)}
    assert reports["egf.agreement"].first_failure == (2, 1, Fraction(9, 7))
    assert reports["egf.parity-split"].first_failure == (2, 0, Fraction(4, 7))
    assert reports["egf.derivative"].passed


def _off_by_one(patch, name, at):
    """Make ``sequences.<name>`` return one more at n = ``at``; the registry
    routes look it up at each call, so they take the fault."""
    real = getattr(sequences, name)
    patch.setattr(sequences, name, lambda n: real(n) + (n == at))


def test_egf_agreement_reports_its_smallest_failing_n(monkeypatch):
    # the cyclic route is checked after the bell route, but fails first in n
    _off_by_one(monkeypatch, "cyclic_ordered_bell", 3)
    _off_by_one(monkeypatch, "ordered_bell", 10)
    reports = {r.identity_id: r for r in verify_egf_agreement(12)}
    assert reports["egf.agreement"].first_failure == (3, 7, 6)


def test_egf_parity_split_reports_its_smallest_failing_n(monkeypatch):
    # even + odd differs from the cyclic EGF from n = 10, the difference from n = 3
    _add_to_builder(monkeypatch, "cyclic_ordered_bell_even_egf", 10, Fraction(1, factorial(10)))
    _off_by_one(monkeypatch, "alternating_cyclic_sum", 3)
    reports = {r.identity_id: r for r in verify_egf_agreement(12)}
    assert reports["egf.parity-split"].first_failure == (3, 1, 0)


FROZEN_EGF_REPORTS = Path(__file__).parent / "data" / "corrupted_egf_reports.json"


def test_corrupted_builders_give_the_frozen_reports(monkeypatch):
    """``verify_egf_agreement`` at orders 1, 5 and 12 with each builder adding
    ``x^n / n!`` (one term of its sequence shifted by 1), for n in 0, 3 and 7,
    against the reports captured at commit 2dccc35, before each EGF was built
    once per run."""
    cases = json.loads(FROZEN_EGF_REPORTS.read_text())
    assert len(cases) == len(EGF_BUILDERS) * 3 * 3
    for case in cases:
        with monkeypatch.context() as patch:
            n = case["n"]
            _add_to_builder(patch, case["builder"], n, Fraction(1, factorial(n)))
            reports = [r.to_dict() for r in verify_egf_agreement(case["order"])]
        assert reports == case["reports"], case
