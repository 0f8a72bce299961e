"""Verifier behavior: passing sweeps, registry completeness, fault injection."""

import json
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


@pytest.mark.parametrize("route", ["alternating_factorial_sum", "alternating_cyclic_sum"])
def test_any_one_argument_sum_is_a_scalar_route(route):
    # an entry needs no more than the sum's name to read a range off the stream
    function = getattr(sequences, route)
    assert registry.Sequence("x", 1, route).terms(12) == [function(n) for n in range(1, 13)]


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

#: The four class sums of a row, as ``(shift, parity)``.
CLASSES = [(shift, parity) for shift in (0, 1) for parity in (0, 1)]


def _with_fault(n, row, fault):
    """``row``, which is row ``n``, or a corrupted copy of it if ``fault``,
    ``(n, k, delta)``, names it: entry k is off by ``delta``."""
    if fault is not None and n == fault[0] and fault[1] < len(row):
        row = list(row)  # a copy: the memo holds this row, and a stream steps from it
        row[fault[1]] += fault[2]
    return row


def _patch_stream(patch, fault=None):
    """Make the row stream ``sequences._stirling_rows`` yield each row through
    ``_with_fault``; the returned list gets each row's n as it is pulled."""
    pulled, real_rows = [], sequences._stirling_rows

    def patched():
        for n, row in enumerate(real_rows()):
            pulled.append(n)
            yield _with_fault(n, row, fault)

    patch.setattr(sequences, "_stirling_rows", patched)
    return pulled


def _corrupt_stirling_row(monkeypatch, target_n, target_k, delta):
    """Corrupt S(target_n, target_k) on the one Stirling stream,
    ``_stirling_rows``, which every verifier reads."""
    _patch_stream(monkeypatch, (target_n, target_k, delta))


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
    # S(7, 3) on the stream is W(6, 2) / 2!: worpitzky.parity-rows sums row 6
    # by its definition, the cyclic odd-block walk of Stirling row 7, so at
    # n = 6 that sum is ordered_bell(6) = 4683 plus 2!
    _patch_stream(monkeypatch, (7, 3, 1))
    reports = {r.identity_id: r for r in verify_parity_split(20)}
    assert reports["worpitzky.parity-rows"].first_failure == (6, 4683, 4685)


def test_a_sweep_pulls_each_stirling_row_once(monkeypatch):
    # one Stirling stream feeds every sum, so its recurrence steps once per
    # n, whichever identities are checked; bell.shifted-cyclic and
    # worpitzky.parity-rows read row n_max + 1, which every window holds
    for identity_ids in (("alternating.factorial",), identities._INTEGER_CHECKS):
        with monkeypatch.context() as patch:
            pulled = _patch_stream(patch)
            assert all(r.passed for r in identities._sweep_integers(30, identity_ids))
        assert pulled == list(range(32)), identity_ids


#: A fault ``(n, k, delta)`` on the one stream -> each identity's first
#: failing n in the sweep to 20, or None where it passes.
ONE_STREAM_FAILURES = [
    # S(7, 3) += 1 enters every class sum of row 7: the factorial classes at
    # n = 7, and the cyclic ones as row n + 1 of n = 6
    pytest.param((7, 3, 1), {
        "bell.parity-split": 7, "bell.shifted-cyclic": 6, "cyclic.doubling": 7,
        "alternating.factorial": 7, "alternating.cyclic": 7, "cyclic.parity-equal": 7,
        "worpitzky.parity-rows": 6,
    }, id="inner-entry"),
    # S(8, 0) += 1 enters only the even factorial class of row 8: the cyclic
    # walks start at k = 1, so alternating.cyclic, which reads them alone, passes
    pytest.param((8, 0, 1), {
        "bell.parity-split": 8, "bell.shifted-cyclic": 8, "cyclic.doubling": 9,
        "alternating.factorial": 8, "alternating.cyclic": None, "cyclic.parity-equal": 9,
        "worpitzky.parity-rows": 8,
    }, id="k0-entry"),
    # S(8, 8) += 1 is the top entry of row 8, where each class's Horner walk starts
    pytest.param((8, 8, 1), {
        "bell.parity-split": 8, "bell.shifted-cyclic": 7, "cyclic.doubling": 8,
        "alternating.factorial": 8, "alternating.cyclic": 8, "cyclic.parity-equal": 8,
        "worpitzky.parity-rows": 7,
    }, id="top-entry"),
]


@pytest.mark.parametrize("fault, expected", ONE_STREAM_FAILURES)
def test_a_fault_on_one_stream_fails_its_identities(monkeypatch, fault, expected):
    _patch_stream(monkeypatch, fault)
    reports = identities._sweep_integers(20, identities._INTEGER_CHECKS)
    assert {r.identity_id: r.first_failure and r.first_failure[0] for r in reports} == expected


FROZEN_REPORTS = Path(__file__).parent / "data" / "corrupted_stirling_reports.json"


def test_corrupted_rows_give_the_frozen_reports(monkeypatch):
    """``verify_all(20, 8)`` under S(row, k) += 1, for rows 2..9 and every k,
    against the reports captured at commit bb992ed, before the one-pass
    sweep, when every identity read Stirling rows, as the sweep's one stream
    does again.
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
    # each class of rows 1..30 is walked once, though the checks at n-1, n
    # and n+1 read it; of row 31 only the cyclic classes are read
    expected = {(n, key): 1 for n in range(1, 31) for key in CLASSES}
    expected.update({(31, (1, 0)): 1, (31, (1, 1)): 1})
    assert summed == expected and sum(summed.values()) == 122
    # the sweep ran past the memo's last row without extending it
    assert sequences._shared_triangle._rows.keys() == {0}
    assert not sequences._shared_triangle._recent


def test_the_alternating_identities_walk_each_class_once(monkeypatch):
    # they read all four classes of row n alone: row 31, which the window
    # holds as n + 1, is never walked
    summed, real_sum = Counter(), sequences._row_sum

    def counted_sum(row, *key):
        summed[len(row) - 1, key] += 1
        return real_sum(row, *key)

    monkeypatch.setattr(sequences, "_row_sum", counted_sum)
    assert all(r.passed for r in verify_alternating_sums(30))
    assert summed == {(n, key): 1 for n in range(1, 31) for key in CLASSES}
    assert sum(summed.values()) == 120


#: What one class sum perturbed at row 9 fails: the (identity, first failing n)
#: pairs of the sweep to 12. A class of odd k enters the same sums as its even
#: partner, so it fails the same way. Every other sum of the sweep is two
#: classes added or subtracted, so it cannot be perturbed alone.
FACTORIAL_CLASS_FAILURES = {
    ("bell.parity-split", 9), ("bell.shifted-cyclic", 9), ("cyclic.doubling", 10),
    ("alternating.factorial", 9), ("cyclic.parity-equal", 10), ("worpitzky.parity-rows", 9),
}
CYCLIC_CLASS_FAILURES = {
    ("bell.shifted-cyclic", 8), ("cyclic.doubling", 9), ("alternating.cyclic", 9),
    ("cyclic.parity-equal", 9), ("worpitzky.parity-rows", 8),
}
#: ``(shift, parity)`` of each class a ``_RowSums`` walks, named for the
#: public sum it equals.
PERTURBED_CLASSES = [
    pytest.param(0, 0, FACTORIAL_CLASS_FAILURES, id="ordered_bell_even"),
    pytest.param(0, 1, FACTORIAL_CLASS_FAILURES, id="ordered_bell_odd"),
    pytest.param(1, 0, CYCLIC_CLASS_FAILURES, id="cyclic_ordered_bell_even"),
    pytest.param(1, 1, CYCLIC_CLASS_FAILURES, id="cyclic_ordered_bell_odd"),
]


@pytest.mark.parametrize("shift, parity, expected", PERTURBED_CLASSES)
def test_each_sum_perturbed_alone_is_caught(monkeypatch, shift, parity, expected):
    # one class sum is off by one at row 9, in the Horner walk that computes it
    real_sum = sequences._row_sum

    def perturbed_sum(row, *key):
        return real_sum(row, *key) + (len(row) == 10 and key == (shift, parity))

    monkeypatch.setattr(sequences, "_row_sum", perturbed_sum)
    reports = identities._sweep_integers(12, identities._INTEGER_CHECKS)
    failed = {(r.identity_id, r.first_failure[0]) for r in reports if not r.passed}
    assert failed == expected


def _escaped_row_sum(row, shift, parity):
    """``sequences._row_sum`` with one fault in its step: the weight is off
    at k = 401 of the cyclic classes, above every ``--order``."""
    low = shift + (parity - shift) % 2
    total = 0
    for k in reversed(range(low, len(row), 2)):
        j = k - shift
        total *= (j + 1) * (j + 2) + (shift == 1 and k == 401)
        total += row[k]
    return total


def test_a_cyclic_walk_fault_past_the_order_fails_verify_all(monkeypatch):
    # the fault reaches the odd cyclic class from row 403 on, where k = 401 is
    # not the top kept k; the sweep checks that class as row n + 1 of n = 402
    # and as row n of n = 403, and no factorial class or EGF check reads it
    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    monkeypatch.setattr(sequences, "_row_sum", _escaped_row_sum)
    reports = verify_all(1000, 8)
    assert {r.identity_id: r.first_failure and r.first_failure[0] for r in reports} == {
        "bell.parity-split": None,
        "bell.shifted-cyclic": 402,
        "cyclic.doubling": 403,
        "alternating.factorial": None,
        "alternating.cyclic": 403,
        "cyclic.parity-equal": 403,
        "worpitzky.parity-rows": 402,
        "egf.agreement": None,
        "egf.parity-split": None,
        "egf.derivative": None,
    }


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
    # the routes and the columns read rows 0..order off one stream, each once,
    # and neither the memo nor a Stirling entry
    memo_reads, entries = Counter(), Counter()
    real_read, real_entry = sequences._read_row, sequences.stirling2

    def counted_read(n):
        memo_reads[n] += 1
        return real_read(n)

    def counted_entry(n, k):
        entries[n, k] += 1
        return real_entry(n, k)

    pulled = _patch_stream(monkeypatch)
    monkeypatch.setattr(sequences, "_read_row", counted_read)
    monkeypatch.setattr(sequences, "stirling2", counted_entry)
    assert all(r.passed for r in verify_egf_agreement(12))
    assert pulled == list(range(13))
    assert memo_reads == entries == Counter()


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
    patch.setattr(sequences, name, lambda n, sums=None: real(n, sums) + (n == at))


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
