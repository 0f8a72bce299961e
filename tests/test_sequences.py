"""Exact-sequence kernels against enumeration oracles and frozen values."""

import collections
import itertools
import math
import random
import sys
import threading
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fubini import identities, sequences
from fubini.sequences import (
    alternating_cyclic_sum,
    alternating_factorial_sum,
    count_ordered_partitions_exhaustive,
    count_partitions_exhaustive,
    cyclic_ordered_bell,
    cyclic_ordered_bell_even,
    cyclic_ordered_bell_odd,
    ordered_bell,
    ordered_bell_parity,
    ordered_set_partitions,
    set_partitions,
    stirling2,
    stirling2_row,
    worpitzky,
    worpitzky_row,
)


# -- stirling2 -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, k, expected",
    [(0, 0, 1), (4, 4, 1), (3, 2, 3), (5, 0, 0), (2, 5, 0), (4, 2, 7)],
)
def test_stirling2_frozen(n, k, expected):
    assert stirling2(n, k) == expected


@pytest.mark.parametrize(
    "n, expected",
    [(0, [1]), (1, [0, 1]), (3, [0, 1, 3, 1]), (4, [0, 1, 7, 6, 1])],
)
def test_stirling2_row_frozen(n, expected):
    assert stirling2_row(n) == expected


def test_stirling2_rejects_negative():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(3, -1)
    with pytest.raises(ValueError):
        stirling2_row(-2)


def test_row_matches_entrywise():
    for n in range(30):
        row = stirling2_row(n)
        assert len(row) == n + 1
        assert row == [stirling2(n, k) for k in range(n + 1)]


def test_triangle_recurrence_full_sweep():
    # S(n,k) = k*S(n-1,k) + S(n-1,k-1) for all 1 <= k <= n <= 200
    prev = stirling2_row(0)
    for n in range(1, 201):
        row = stirling2_row(n)
        for k in range(1, n + 1):
            left = prev[k] if k < len(prev) else 0
            assert row[k] == k * left + prev[k - 1], (n, k)
            assert row[k] > 0
        assert row[0] == 0
        assert row[n] == 1
        prev = row


def test_row_copies_are_independent(monkeypatch):
    # a fresh memo, so ordered_bell(6) is first summed after the change
    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    row = stirling2_row(6)
    row[2] = -999
    row.append(7)
    assert stirling2_row(6)[2] == stirling2(6, 2)
    assert stirling2_row(6) == [0, 1, 31, 90, 65, 15, 1]
    assert ordered_bell(6) == 4683


def test_triangle_concurrent_extension():
    expected = list(itertools.islice(sequences._stirling_rows(), 121))
    triangle = sequences._StirlingTriangle()
    failures = []

    def worker(indices):
        try:
            for n in indices:
                assert triangle.read(n).row == expected[n]
        except AssertionError as exc:  # pragma: no cover - only on bug
            failures.append(exc)

    ascending = range(0, 121, 7)
    # the descending worker extends to the top first, so the others recompute
    # rows below the highest one computed while it and they read
    orders = [ascending] * 4 + [ascending[::-1]]
    threads = [threading.Thread(target=worker, args=(indices,)) for indices in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert max(_held_entries(triangle)) >= 119


def _read_orders(top: int) -> dict[str, list[int]]:
    ascending = list(range(top + 1))
    shuffled = ascending[:]
    random.Random(10).shuffle(shuffled)
    return {
        "descending": ascending[::-1],
        "random": shuffled,
        "interleaved": [n for pair in zip(ascending, reversed(ascending)) for n in pair],
    }


@pytest.mark.parametrize("order", ["descending", "random", "interleaved"])
def test_triangle_recomputes_the_streamed_rows(monkeypatch, order):
    # rows 0..420 hold about 15 MB, so reading them all passes 26
    # checkpoints and evicts recent rows past the byte budget
    top = 420
    expected = list(itertools.islice(sequences._stirling_rows(), top + 1))
    triangle = sequences._StirlingTriangle()
    monkeypatch.setattr(sequences, "_shared_triangle", triangle)
    for n in _read_orders(top)[order]:
        assert stirling2_row(n) == expected[n], n
        assert stirling2(n, n // 3) == expected[n][n // 3], n
    # the walk reached the last checkpoint at or below top, and none above it
    assert len(triangle._checkpoints) == top // sequences._CHECKPOINT_EVERY + 1
    assert triangle._recent_bytes <= sequences._RECENT_BYTES
    assert len(triangle._recent) < top + 1 - len(triangle._checkpoints)


def test_triangle_memory_stays_within_checkpoints_and_budget():
    # keeping every row retains about 42 MB at row 600
    top, every = 600, sequences._CHECKPOINT_EVERY
    checkpoint_bytes = sum(
        sys.getsizeof(row) + sum(map(sys.getsizeof, row))
        for n, row in enumerate(itertools.islice(sequences._stirling_rows(), top + 1))
        if n % every == 0
    )
    tracemalloc.start()
    try:
        triangle = sequences._StirlingTriangle()
        triangle.read(top)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(_held_entries(triangle)) == top
    assert retained < checkpoint_bytes + sequences._RECENT_BYTES


# -- enumeration oracles -------------------------------------------------


def test_set_partition_enumeration_small():
    parts = list(set_partitions(3))
    assert len(parts) == 5
    assert ((0, 1, 2),) in parts
    assert ((0, 1), (2,)) in parts
    assert len(set(parts)) == 5


def test_count_partitions_exhaustive_frozen():
    assert count_partitions_exhaustive(0, 0) == 1
    assert count_partitions_exhaustive(0, 1) == 0
    assert count_partitions_exhaustive(3, 2) == 3
    assert count_partitions_exhaustive(4, 2) == 7
    assert count_partitions_exhaustive(5, 7) == 0


def test_oracle_caps():
    with pytest.raises(ValueError):
        count_partitions_exhaustive(13, 2)
    with pytest.raises(ValueError):
        count_ordered_partitions_exhaustive(10)


def test_stirling_matches_enumeration():
    for n in range(8):
        for k in range(n + 2):
            assert stirling2(n, k) == count_partitions_exhaustive(n, k), (n, k)


def test_ordered_partition_enumeration_small():
    arrangements = list(ordered_set_partitions(2))
    assert len(arrangements) == 3
    assert ((0, 1),) in arrangements
    assert ((0,), (1,)) in arrangements
    assert ((1,), (0,)) in arrangements


@pytest.mark.parametrize("n", range(8))
def test_ordered_set_partitions_yield_each_ordered_partition_once(n):
    arrangements = list(ordered_set_partitions(n))
    assert len(arrangements) == len(set(arrangements)) == ordered_bell(n)
    for blocks in arrangements:
        assert all(type(block) is tuple and block for block in blocks), blocks
        assert all(list(block) == sorted(block) for block in blocks), blocks
        # disjoint and covering: the elements are 0..n-1, each once
        assert sorted(itertools.chain.from_iterable(blocks)) == list(range(n)), blocks


def test_ordered_bell_matches_enumeration():
    for n in range(7):
        assert ordered_bell(n) == count_ordered_partitions_exhaustive(n), n


# -- ordered Bell family -------------------------------------------------


@pytest.mark.parametrize("n, expected", [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)])
def test_ordered_bell_frozen(n, expected):
    assert ordered_bell(n) == expected


def test_ordered_bell_strictly_increasing():
    values = [ordered_bell(n) for n in range(1, 201)]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "n, parity, expected",
    [(1, "even", 0), (1, "odd", 1), (3, "even", 6), (3, "odd", 7)],
)
def test_ordered_bell_parity_frozen(n, parity, expected):
    assert ordered_bell_parity(n, parity) == expected


def test_ordered_bell_parity_validation():
    with pytest.raises(ValueError):
        ordered_bell_parity(0, "even")
    with pytest.raises(ValueError):
        ordered_bell_parity(3, "both")


def test_parity_parts_recombine():
    for n in range(1, 60):
        total = ordered_bell_parity(n, "even") + ordered_bell_parity(n, "odd")
        assert total == ordered_bell(n)


# -- cyclic family -------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(1, 1), (2, 2), (3, 6), (4, 26)])
def test_cyclic_ordered_bell_frozen(n, expected):
    assert cyclic_ordered_bell(n) == expected


@pytest.mark.parametrize(
    "func, values",
    [
        (cyclic_ordered_bell_even, {1: 0, 2: 1, 3: 3, 4: 13}),
        (cyclic_ordered_bell_odd, {1: 1, 2: 1, 3: 3, 4: 13}),
    ],
)
def test_cyclic_parity_frozen(func, values):
    for n, expected in values.items():
        assert func(n) == expected


def test_cyclic_family_rejects_zero():
    for func in (cyclic_ordered_bell, cyclic_ordered_bell_even, cyclic_ordered_bell_odd):
        with pytest.raises(ValueError):
            func(0)


@given(st.integers(min_value=1, max_value=150))
@settings(max_examples=40)
def test_cyclic_parity_parts_recombine(n):
    total = cyclic_ordered_bell_even(n) + cyclic_ordered_bell_odd(n)
    assert total == cyclic_ordered_bell(n)


# -- worpitzky -----------------------------------------------------------


@pytest.mark.parametrize("n, k, expected", [(0, 0, 1), (2, 1, 3), (3, 5, 0), (3, 2, 12)])
def test_worpitzky_frozen(n, k, expected):
    assert worpitzky(n, k) == expected


def test_worpitzky_definition():
    for n in range(12):
        for k in range(n + 2):
            assert worpitzky(n, k) == math.factorial(k) * stirling2(n + 1, k + 1)


def test_worpitzky_past_the_row_is_zero_without_its_factorial(monkeypatch):
    def no_factorial(k):
        raise AssertionError(f"factorial({k}) was computed")

    monkeypatch.setattr(sequences, "factorial", no_factorial)
    assert worpitzky(3, 10**6) == 0
    assert worpitzky(3, 4) == 0


def test_worpitzky_rejects_negative():
    with pytest.raises(ValueError):
        worpitzky(-1, 0)
    with pytest.raises(ValueError):
        worpitzky(0, -1)


def test_worpitzky_row_matches_entries():
    for n in range(61):
        assert worpitzky_row(n) == [worpitzky(n, k) for k in range(n + 1)], n


def test_worpitzky_recurrence_rows_match_worpitzky_row():
    rows = sequences._worpitzky_rows()
    for n in range(61):
        assert next(rows) == worpitzky_row(n), n


def test_worpitzky_row_rejects_negative_like_worpitzky():
    with pytest.raises(ValueError) as point:
        worpitzky(-1, 0)
    with pytest.raises(ValueError) as row:
        worpitzky_row(-1)
    assert str(row.value) == str(point.value) == "n must be >= 0, got -1"


def test_worpitzky_row_reads_the_patched_row(monkeypatch):
    def fake_row(n):
        return [k + 1 for k in range(n + 1)]

    monkeypatch.setattr(sequences, "_read_row", lambda n: sequences._RowSums(fake_row(n)))
    for n in range(12):
        assert worpitzky_row(n) == [math.factorial(k) * (k + 2) for k in range(n + 1)], n


# -- alternating sums ----------------------------------------------------


@pytest.mark.parametrize("n, expected", [(1, -1), (2, 1), (3, -1), (8, 1)])
def test_alternating_factorial_sum_frozen(n, expected):
    assert alternating_factorial_sum(n) == expected


@pytest.mark.parametrize("n, expected", [(1, -1), (2, 0), (5, 0)])
def test_alternating_cyclic_sum_frozen(n, expected):
    assert alternating_cyclic_sum(n) == expected


def test_alternating_sums_reject_zero():
    with pytest.raises(ValueError):
        alternating_factorial_sum(0)
    with pytest.raises(ValueError):
        alternating_cyclic_sum(0)


@given(st.integers(min_value=1, max_value=150))
@settings(max_examples=40)
def test_alternating_cyclic_equals_parity_difference(n):
    expected = cyclic_ordered_bell_even(n) - cyclic_ordered_bell_odd(n)
    assert alternating_cyclic_sum(n) == expected


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=120))
@settings(max_examples=40)
def test_recurrence_random_entries(n, k):
    if k > n:
        assert stirling2(n, k) == 0
    else:
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_values_exceed_machine_words():
    # the n=200 row and its sums must be exact well past 2**64
    assert ordered_bell(200) > 10 ** 300
    assert cyclic_ordered_bell(200) == 2 * ordered_bell(199)


# -- the shared weighted-row reduction -------------------------------------

# (sum, shift of the factorial weight, kept parity of k, alternating sign)
WEIGHTED_SUMS = [
    pytest.param(ordered_bell, 0, None, False, id="ordered_bell"),
    pytest.param(partial(ordered_bell_parity, parity="even"), 0, 0, False, id="parity_even"),
    pytest.param(partial(ordered_bell_parity, parity="odd"), 0, 1, False, id="parity_odd"),
    pytest.param(cyclic_ordered_bell, 1, None, False, id="cyclic"),
    pytest.param(cyclic_ordered_bell_even, 1, 0, False, id="cyclic_even"),
    pytest.param(cyclic_ordered_bell_odd, 1, 1, False, id="cyclic_odd"),
    pytest.param(alternating_factorial_sum, 0, None, True, id="alternating_factorial"),
    pytest.param(alternating_cyclic_sum, 1, None, True, id="alternating_cyclic"),
]


def _reference_sum(row, shift, parity, alternating):
    total = 0
    for k in range(shift, len(row)):
        if parity is None or k % 2 == parity:
            sign = (-1) ** k if alternating else 1
            total += sign * math.factorial(k - shift) * row[k]
    return total


@pytest.mark.parametrize("func, shift, parity, alternating", WEIGHTED_SUMS)
def test_weighted_sums_match_factorial_reference(func, shift, parity, alternating):
    for n in range(1, 121):
        assert func(n) == _reference_sum(stirling2_row(n), shift, parity, alternating), n


@pytest.mark.parametrize("func, shift, parity, alternating", WEIGHTED_SUMS)
def test_weighted_sums_read_the_patched_row(monkeypatch, func, shift, parity, alternating):
    def fake_row(n):
        return [k + 1 for k in range(n + 1)]

    monkeypatch.setattr(sequences, "_read_row", lambda n: sequences._RowSums(fake_row(n)))
    for n in range(1, 12):
        assert func(n) == _reference_sum(fake_row(n), shift, parity, alternating), n


def test_a_patched_read_row_reaches_every_memo_value(monkeypatch):
    reader = sequences._read_row

    def corrupted(n):
        row = list(reader(n).row)  # a copy: the held row is never mutated
        if n == 6:
            row[2] += 1  # S(6,2) = 31
        return sequences._RowSums(row)

    monkeypatch.setattr(sequences, "_read_row", corrupted)
    assert stirling2(6, 2) == stirling2_row(6)[2] == 32
    assert worpitzky(5, 1) == worpitzky_row(5)[1] == 32  # 1! * S(6,2)


# -- the memoized row sums ---------------------------------------------------


def test_repeated_sums_sum_each_row_once(monkeypatch):
    calls = collections.Counter()  # (row index, weights) -> calls of _row_sum
    row_sum = sequences._row_sum

    def counting(row, *weights):
        calls[len(row) - 1, weights] += 1
        return row_sum(row, *weights)

    monkeypatch.setattr(sequences, "_row_sum", counting)
    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    ns = (1, 5, 16, 40, 200)
    for _ in range(3):
        for param in WEIGHTED_SUMS:
            func, *weights = param.values
            for n in ns:
                assert func(n) == _reference_sum(stirling2_row(n), *weights), (n, param.id)
    assert len(calls) == len(WEIGHTED_SUMS) * len(ns)
    assert set(calls.values()) == {1}


def test_a_memoized_sum_never_hides_a_changed_row(monkeypatch):
    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    genuine = ordered_bell(7)
    reader = sequences._read_row

    def corrupted(n):
        row = list(reader(n).row)  # a copy: the held row is never mutated
        if n == 7:
            row[3] += 1  # S(7,3) is weighted by 3!
        return sequences._RowSums(row)

    monkeypatch.setattr(sequences, "_read_row", corrupted)
    assert ordered_bell(7) == genuine + 6
    monkeypatch.setattr(sequences, "_read_row", reader)
    assert ordered_bell(7) == genuine == 47293


def test_no_sum_copies_a_row(monkeypatch):
    def no_copy(n):
        raise AssertionError(f"stirling2_row({n}) copied a row")

    rows = list(itertools.islice(sequences._stirling_rows(), 41))
    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    monkeypatch.setattr(sequences, "stirling2_row", no_copy)
    for param in WEIGHTED_SUMS:
        func, *weights = param.values
        for n in range(1, 40):
            assert func(n) == _reference_sum(rows[n], *weights), (n, param.id)
    for n in range(40):
        assert worpitzky_row(n) == [math.factorial(k) * rows[n + 1][k + 1] for k in range(n + 1)]
    assert all(r.passed for r in identities.verify_egf_agreement(12))


def _held_entries(triangle):
    """Row index -> the triangle's held entry (the row and its sums read so far)."""
    every = sequences._CHECKPOINT_EVERY
    checkpoints = {n * every: sums for n, sums in enumerate(triangle._checkpoints)}
    return checkpoints | dict(triangle._recent)


def test_sums_go_with_their_rows_and_stay_small(monkeypatch):
    # Each held row keeps at most 8 sums, none larger than ordered_bell(n),
    # plus their dict: under 10% of the row's own bytes from n = 140 on, and
    # under 10% of the checkpoints and the recent rows together here. Rows
    # 0..300 take 5 MB, so a 1 MiB budget evicts most of them; tracing
    # makes the sums 13 times slower, which rules out rows 0..600.
    top, every, budget = 300, sequences._CHECKPOINT_EVERY, 1 << 20
    checkpoint_bytes = sum(
        sys.getsizeof(row) + sum(map(sys.getsizeof, row))
        for n, row in enumerate(itertools.islice(sequences._stirling_rows(), top + 1))
        if n % every == 0
    )
    triangle = sequences._StirlingTriangle()
    monkeypatch.setattr(sequences, "_shared_triangle", triangle)
    monkeypatch.setattr(sequences, "_RECENT_BYTES", budget)
    tracemalloc.start()
    try:
        ordered_bell(0)
        for n in range(1, top + 1):
            for param in WEIGHTED_SUMS:
                param.values[0](n)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    held = _held_entries(triangle)
    assert len(held) < top // 3  # rows were evicted, and their sums with them
    assert all(len(sums) == len(WEIGHTED_SUMS) for n, sums in held.items() if n)
    assert retained < 1.1 * (checkpoint_bytes + budget)


def test_threaded_sums_match_the_reference(monkeypatch):
    # a small budget makes the readers evict rows, with their sums, while
    # other readers compute and store sums of the same rows
    top = 120
    rows = list(itertools.islice(sequences._stirling_rows(), top + 1))
    triangle = sequences._StirlingTriangle()
    monkeypatch.setattr(sequences, "_shared_triangle", triangle)
    monkeypatch.setattr(sequences, "_RECENT_BYTES", 16 << 10)
    failures = []

    def worker(indices):
        try:
            for n in indices:
                for param in WEIGHTED_SUMS:
                    func, *weights = param.values
                    assert func(n) == _reference_sum(rows[n], *weights), (n, param.id)
        except AssertionError as exc:  # pragma: no cover - only on bug
            failures.append(exc)

    # the sums other than ordered_bell start at n = 1
    orders = [[n for n in order if n] for order in _read_orders(top).values()] * 2
    threads = [threading.Thread(target=worker, args=(indices,)) for indices in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    for n, sums in _held_entries(triangle).items():
        assert sums.row == rows[n], n
        for name, total in sums.items():
            assert total == _reference_sum(rows[n], *sequences._ROW_SUMS[name]), (n, name)
