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


def _with_fault(n, row, fault):
    """``row``, which is row ``n``, or a corrupted copy of it if ``fault``,
    ``(n, k, delta)``, names it: entry k is off by ``delta``.

    A Worpitzky pair ``(u, t)`` takes the fault on ``u``, and on ``t`` as
    ``T = k * U`` carries it: ``t[k]`` is off by ``(k + 1) * delta``."""
    if isinstance(row, tuple):
        u, t = row
        t_fault = fault and (fault[0], fault[1], (fault[1] + 1) * fault[2])
        return _with_fault(n, u, fault), _with_fault(n, t, t_fault)
    if fault is not None and n == fault[0] and fault[1] < len(row):
        row = list(row)  # a copy: the memo holds this row, and a stream steps from it
        row[fault[1]] += fault[2]
    return row


def _patch_stream(patch, name, fault=None):
    """Make the row stream ``sequences.<name>`` yield each row through
    ``_with_fault``; the returned list gets each row's n as it is pulled."""
    pulled, real_rows = [], getattr(sequences, name)

    def patched():
        for n, row in enumerate(real_rows()):
            pulled.append(n)
            yield _with_fault(n, row, fault)

    patch.setattr(sequences, name, patched)
    return pulled


def _corrupt_stirling_row(monkeypatch, target_n, target_k, delta):
    """Corrupt S(target_n, target_k) on every Stirling route: the memo's seam
    ``_read_row``, and the two streams that the sweep reads, ``_stirling_rows``
    and ``_worpitzky_rows``, whose row target_n - 1 holds
    U(target_n, k) = (k-1)! * S(target_n, k) for k >= 1 at index k - 1."""
    real_read, fault = sequences._read_row, (target_n, target_k, delta)
    monkeypatch.setattr(
        sequences, "_read_row", lambda n: sequences._RowSums(_with_fault(n, real_read(n).row, fault))
    )
    _patch_stream(monkeypatch, "_stirling_rows", fault)
    if target_k:
        u_fault = (target_n - 1, target_k - 1, delta * factorial(target_k - 1))
        _patch_stream(monkeypatch, "_worpitzky_rows", u_fault)


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
    # S(7, 3) on the Stirling stream alone enters ordered_bell(7), the side of
    # the Worpitzky row sums that reads Stirling rows; the Worpitzky rows come
    # from their own recurrence
    _patch_stream(monkeypatch, "_stirling_rows", (7, 3, 1))
    reports = {r.identity_id: r for r in verify_parity_split(20)}
    bell = sequences.ordered_bell(7)
    assert reports["worpitzky.parity-rows"].first_failure == (7, bell + factorial(3), bell)


def test_corrupted_worpitzky_row_fails_worpitzky(monkeypatch):
    # W(7, 2) = U(8, 3) += 1 on the Worpitzky stream alone: worpitzky.parity-rows
    # sums row 7 at n = 7, and the cyclic odd-block sum of row 8 takes it at n = 8
    pulled = _patch_stream(monkeypatch, "_worpitzky_rows", (7, 2, 1))
    reports = {r.identity_id: r for r in verify_parity_split(20)}
    bell = sequences.ordered_bell(7)
    assert reports["worpitzky.parity-rows"].first_failure == (7, bell, bell + 1)
    assert reports["cyclic.parity-equal"].first_failure == (8, bell, bell + 1)
    # once both have failed, no further row is pulled: row 8 is the U row of n + 1 = 9
    assert pulled == list(range(9))


def test_a_sweep_pulls_each_worpitzky_row_once(monkeypatch):
    # one Worpitzky stream feeds every sum and worpitzky.parity-rows, so its
    # recurrence steps once per n, whichever identities are checked
    for identity_ids in (("bell.parity-split", "bell.shifted-cyclic"), identities._INTEGER_CHECKS):
        with monkeypatch.context() as patch:
            pulled = _patch_stream(patch, "_worpitzky_rows")
            assert all(r.passed for r in identities._sweep_integers(30, identity_ids))
        assert pulled == list(range(31)), identity_ids


#: A fault on one stream alone -> the (identity, first failing n) pairs of the sweep to 20.
ONE_STREAM_FAILURES = {
    # S(7, 3) += 1 reaches ordered_bell(7) alone, which the alternating identities do not read
    ("_stirling_rows", (7, 3, 1)): {
        ("bell.parity-split", 7), ("bell.shifted-cyclic", 7), ("cyclic.doubling", 8),
        ("cyclic.parity-equal", 8), ("worpitzky.parity-rows", 7),
    },
    # W(7, 2) += 1 is U(8, 3): it reaches every odd-block sum of row 8, and
    # worpitzky.parity-rows through row 7 itself
    ("_worpitzky_rows", (7, 2, 1)): {
        ("bell.parity-split", 8), ("bell.shifted-cyclic", 7), ("cyclic.doubling", 8),
        ("alternating.factorial", 8), ("alternating.cyclic", 8), ("cyclic.parity-equal", 8),
        ("worpitzky.parity-rows", 7),
    },
}


@pytest.mark.parametrize("stream, fault", sorted(ONE_STREAM_FAILURES))
def test_a_fault_on_one_stream_fails_its_identities(monkeypatch, stream, fault):
    _patch_stream(monkeypatch, stream, fault)
    reports = identities._sweep_integers(20, identities._INTEGER_CHECKS)
    failed = {(r.identity_id, r.first_failure[0]) for r in reports if not r.passed}
    assert failed == ONE_STREAM_FAILURES[stream, fault]


FROZEN_REPORTS = Path(__file__).parent / "data" / "corrupted_stirling_reports.json"


def test_corrupted_rows_give_the_frozen_reports(monkeypatch):
    """``verify_all(20, 8)`` under S(row, k) += 1, for rows 2..9 and every k,
    against the reports captured at commit bb992ed, before the one-pass
    sweep, when the Worpitzky side read Stirling rows: ``_corrupt_stirling_row``
    carries the fault into the Worpitzky stream as U(row, k) += (k-1)!, so
    every report is as it was then.
    """
    for case in json.loads(FROZEN_REPORTS.read_text()):
        row, k = case["row"], case["k"]
        with monkeypatch.context() as patch:
            _corrupt_stirling_row(patch, target_n=row, target_k=k, delta=1)
            reports = [r.to_dict() for r in verify_all(20, 8)]
        assert reports == case["reports"], (row, k)


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
    # the only Horner walks are ordered_bell's two factorial classes per row,
    # each computed once though the checks at n and n+1 read it; row 31's are
    # never read
    assert summed == {(n, (0, parity)): 1 for n in range(1, 31) for parity in (0, 1)}
    # the sweep ran past the memo's last row without extending it
    assert sequences._shared_triangle._rows.keys() == {0}
    assert not sequences._shared_triangle._recent


def test_the_alternating_identities_walk_no_stirling_row(monkeypatch):
    # they read the U row's classes alone, so ordered_bell's walks stay unrun
    def no_walk(row, *key):
        raise AssertionError(f"_row_sum over row {len(row) - 1} at {key}")

    monkeypatch.setattr(sequences, "_row_sum", no_walk)
    assert all(r.passed for r in verify_alternating_sums(30))


#: What one class sum perturbed at row 9 fails: the (identity, first failing n)
#: pairs of the sweep to 12. A class of odd k enters the same sums as its even
#: partner, so it fails the same way. Every other sum of the sweep is two
#: classes added or subtracted, so it cannot be perturbed alone.
ORDERED_BELL_WALK_FAILURES = {
    ("bell.parity-split", 9), ("bell.shifted-cyclic", 9), ("cyclic.doubling", 10),
    ("cyclic.parity-equal", 10), ("worpitzky.parity-rows", 9),
}
FACTORIAL_CLASS_FAILURES = {("bell.parity-split", 9), ("alternating.factorial", 9)}
CYCLIC_CLASS_FAILURES = {
    ("bell.shifted-cyclic", 8), ("cyclic.doubling", 9), ("alternating.cyclic", 9),
    ("cyclic.parity-equal", 9), ("worpitzky.parity-rows", 8),
}
#: ``(stream, shift, parity)`` of each class the sweep computes: a U class is
#: named for the public sum it equals, a Stirling class is one of the two
#: walks that make up ordered_bell.
PERTURBED_CLASSES = [
    pytest.param("stirling", 0, 0, ORDERED_BELL_WALK_FAILURES, id="ordered_bell_even_walk"),
    pytest.param("stirling", 0, 1, ORDERED_BELL_WALK_FAILURES, id="ordered_bell_odd_walk"),
    pytest.param("u", 0, 0, FACTORIAL_CLASS_FAILURES, id="ordered_bell_even"),
    pytest.param("u", 0, 1, FACTORIAL_CLASS_FAILURES, id="ordered_bell_odd"),
    pytest.param("u", 1, 0, CYCLIC_CLASS_FAILURES, id="cyclic_ordered_bell_even"),
    pytest.param("u", 1, 1, CYCLIC_CLASS_FAILURES, id="cyclic_ordered_bell_odd"),
]


@pytest.mark.parametrize("stream, shift, parity, expected", PERTURBED_CLASSES)
def test_each_sum_perturbed_alone_is_caught(monkeypatch, stream, shift, parity, expected):
    # one class sum is off by one at row 9, where the sweep computes it: the
    # Stirling classes in their Horner walks, the U classes in _SweepRow
    if stream == "stirling":
        real_sum = sequences._row_sum

        def perturbed_sum(row, *key):
            return real_sum(row, *key) + (len(row) == 10 and key == (shift, parity))

        monkeypatch.setattr(sequences, "_row_sum", perturbed_sum)
    else:

        class PerturbedRow(identities._SweepRow):
            def __init__(self, stirling_row, worpitzky):
                super().__init__(stirling_row, worpitzky)
                self[shift, parity] += len(stirling_row) == 10

        monkeypatch.setattr(identities, "_SweepRow", PerturbedRow)
    reports = identities._sweep_integers(12, identities._INTEGER_CHECKS)
    failed = {(r.identity_id, r.first_failure[0]) for r in reports if not r.passed}
    assert failed == expected


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
