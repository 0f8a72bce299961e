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

from fubini import identities, registry, sequences
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
        except Exception as exc:  # pragma: no cover - only on bug
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
    assert max(triangle._rows) >= 119


def test_a_held_row_is_read_without_the_lock():
    expected = list(itertools.islice(sequences._stirling_rows(), 46))
    triangle = sequences._StirlingTriangle()
    triangle.read(37)  # holds checkpoint 32 and recent row 37, not row 45
    got = {}

    def reader(*indices):
        for n in indices:
            got[n] = triangle.read(n).row

    hits = threading.Thread(target=reader, args=(32, 37), daemon=True)
    miss = threading.Thread(target=reader, args=(45,), daemon=True)
    with triangle._lock:
        hits.start()
        hits.join(timeout=5)
        assert not hits.is_alive()  # neither hit waited for the lock
        miss.start()
        miss.join(timeout=0.5)
        assert miss.is_alive()  # a miss still waits for it
    miss.join(timeout=60)
    assert not miss.is_alive()
    assert got == {n: expected[n] for n in (32, 37, 45)}


def test_recent_rows_leave_in_the_order_they_came(monkeypatch):
    a, b, c = 33, 34, 35
    rows = list(itertools.islice(sequences._stirling_rows(), c + 1))
    triangle = sequences._StirlingTriangle()
    triangle.read(a)
    triangle.read(b)
    triangle.read(a)  # a hit: a still came first
    # room for b and c but not a as well, so reading c evicts exactly one row
    budget = sequences._row_bytes(rows[b]) + sequences._row_bytes(rows[c])
    monkeypatch.setattr(sequences, "_RECENT_BYTES", budget)
    triangle.read(c)
    assert list(triangle._recent) == [b, c]


def test_a_hit_writes_nothing():
    rows = list(itertools.islice(sequences._stirling_rows(), 39))
    triangle = sequences._StirlingTriangle()
    for n in (37, 38, 33):
        triangle.read(n)
    held, recent = dict(triangle._rows), dict(triangle._recent)
    recent_bytes = triangle._recent_bytes
    for n in (37, 32, 33, 16, 38, 0):  # recent rows and checkpoints, all held
        assert triangle.read(n) is held[n], n
        assert held[n].row == rows[n], n
    assert triangle._rows.keys() == held.keys()
    assert all(triangle._rows[n] is held[n] for n in held)
    assert list(triangle._recent.items()) == list(recent.items())
    assert list(recent) == [37, 38, 33]
    assert len(_checkpoints(triangle)) == 3
    assert triangle._recent_bytes == recent_bytes


def test_threaded_hits_race_evictions(monkeypatch):
    # four readers re-read small recent rows, hitting them without the lock,
    # while a scan through rows 0..200 evicts them past a 16 KiB budget
    top, every = 200, sequences._CHECKPOINT_EVERY
    rows = list(itertools.islice(sequences._stirling_rows(), top + 1))
    small = [n for n in range(1, 24) if n % every]
    triangle = sequences._StirlingTriangle()
    monkeypatch.setattr(sequences, "_shared_triangle", triangle)
    monkeypatch.setattr(sequences, "_RECENT_BYTES", 16 << 10)
    for n in small:
        triangle.read(n)
    assert set(small) <= set(triangle._recent)
    scanned = threading.Event()
    failures = []

    def scan():
        try:
            for n in range(top + 1):
                assert stirling2_row(n) == rows[n], n
                assert ordered_bell(n) == _reference_sum(rows[n], 0, None, False), n
        except Exception as exc:  # pragma: no cover - only on bug
            failures.append(exc)
        finally:
            scanned.set()

    def reread(seed):
        choose = random.Random(seed).choice
        try:
            while not scanned.is_set():
                n = choose(small)
                assert sequences._read_row(n).row == rows[n], n
                assert cyclic_ordered_bell(n) == _reference_sum(rows[n], 1, None, False), n
        except Exception as exc:  # pragma: no cover - only on bug
            failures.append(exc)

    threads = [threading.Thread(target=reread, args=(seed,)) for seed in range(4)]
    threads.append(threading.Thread(target=scan))
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
    _assert_bookkeeping(triangle)
    for n, sums in triangle._rows.items():
        assert sums.row == rows[n], n


def _checkpoints(triangle) -> list[int]:
    """The held rows whose index is a multiple of the spacing, ascending."""
    return sorted(n for n in triangle._rows if n % sequences._CHECKPOINT_EVERY == 0)


def _assert_bookkeeping(triangle):
    """The recent rows are held, their sizes add up, and the other held rows are checkpoints."""
    recent = triangle._recent
    sizes = [sequences._row_bytes(triangle._rows[n].row) for n in recent]
    assert list(recent.values()) == sizes
    assert triangle._recent_bytes == sum(sizes)
    assert all(n % sequences._CHECKPOINT_EVERY == 0 for n in triangle._rows.keys() - recent.keys())


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
    top, every = 420, sequences._CHECKPOINT_EVERY
    expected = list(itertools.islice(sequences._stirling_rows(), top + 1))
    triangle = sequences._StirlingTriangle()
    monkeypatch.setattr(sequences, "_shared_triangle", triangle)
    for n in _read_orders(top)[order]:
        assert stirling2_row(n) == expected[n], n
        assert stirling2(n, n // 3) == expected[n][n // 3], n
        # what the nearest-row search relies on: no checkpoint below the
        # highest held row is missing, so a downward walk passes none
        assert _checkpoints(triangle) == list(range(0, max(triangle._rows) + 1, every)), n
    # the walk reached the last checkpoint at or below top, and none above it
    assert len(_checkpoints(triangle)) == top // every + 1
    assert triangle._recent_bytes <= sequences._RECENT_BYTES
    assert len(triangle._recent) < top + 1 - len(_checkpoints(triangle))


def test_the_backward_step_inverts_the_forward_one():
    rows = list(itertools.islice(sequences._stirling_rows(), 202))
    for n in range(201):
        assert sequences._prev_stirling_row(rows[n + 1]) == rows[n], n


def _count_steps(monkeypatch) -> collections.Counter:
    """Wrap both recurrence steps in counters: step name -> calls."""
    steps = collections.Counter()
    for name in ("_next_stirling_row", "_prev_stirling_row"):

        def counting(row, step=getattr(sequences, name), name=name):
            steps[name] += 1
            return step(row)

        monkeypatch.setattr(sequences, name, counting)
    return steps


def test_a_miss_walks_from_the_nearest_held_row(monkeypatch):
    # with every checkpoint up to 320 held, no row below it is more than
    # half a block from a held row, above or below
    top, every = 320, sequences._CHECKPOINT_EVERY
    rows = list(itertools.islice(sequences._stirling_rows(), top + 1))
    triangle = sequences._StirlingTriangle()
    triangle.read(top)
    steps = _count_steps(monkeypatch)
    order = list(range(top))
    random.Random(4).shuffle(order)
    for n in order:
        before = steps.total()
        assert triangle.read(n).row == rows[n], n
        assert steps.total() - before <= every // 2, n
    assert _checkpoints(triangle) == list(range(0, top + 1, every))
    # walking up from the held row below only, the same reads take 727 steps
    assert (steps["_next_stirling_row"], steps["_prev_stirling_row"]) == (323, 158)


def test_ascending_reads_only_step_up(monkeypatch):
    rows = list(itertools.islice(sequences._stirling_rows(), 201))
    triangle = sequences._StirlingTriangle()
    steps = _count_steps(monkeypatch)
    for n in range(201):
        assert triangle.read(n).row == rows[n], n
    assert (steps["_next_stirling_row"], steps["_prev_stirling_row"]) == (200, 0)


def test_a_miss_above_the_top_checkpoint_walks_down_from_a_recent_row(monkeypatch):
    # rows 45 and 47 are recent rows above checkpoint 32; row 40 is nearer
    # to 45 than to 32, and row 48, the next checkpoint, is one step above 47
    rows = list(itertools.islice(sequences._stirling_rows(), 49))
    triangle = sequences._StirlingTriangle()
    steps = _count_steps(monkeypatch)
    walks = []
    for n in (45, 40, 47, 48):
        before = steps.copy()
        assert triangle.read(n).row == rows[n], n
        taken = steps - before
        walks.append((n, taken["_next_stirling_row"], taken["_prev_stirling_row"]))
    assert walks == [(45, 45, 0), (40, 0, 5), (47, 2, 0), (48, 1, 0)]
    assert 48 in triangle._rows and 48 not in triangle._recent
    assert _checkpoints(triangle) == [0, 16, 32, 48]


def test_threaded_misses_walk_down_concurrently(monkeypatch):
    # four readers miss rows below a warmed row 200 in shuffled orders, so
    # downward walks run while other misses walk and a 16 KiB budget evicts
    top = 200
    rows = list(itertools.islice(sequences._stirling_rows(), top + 1))
    triangle = sequences._StirlingTriangle()
    triangle.read(top)
    monkeypatch.setattr(sequences, "_RECENT_BYTES", 16 << 10)
    steps = _count_steps(monkeypatch)
    failures = []

    def worker(seed):
        order = list(range(top))
        random.Random(seed).shuffle(order)
        try:
            for n in order:
                assert triangle.read(n).row == rows[n], n
        except Exception as exc:  # pragma: no cover - only on bug
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
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
    assert steps["_prev_stirling_row"] > 0
    assert _checkpoints(triangle) == list(range(0, top + 1, sequences._CHECKPOINT_EVERY))
    _assert_bookkeeping(triangle)
    for n, sums in triangle._rows.items():
        assert sums.row == rows[n], n


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
    assert max(triangle._rows) == top
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
    # W(n, k) = (k+1) * W(n-1, k) + k * W(n-1, k-1) (Worpitzky 1883; OEIS
    # A028246/A130850), stepped here from W(0, 0) = 1, reads no Stirling row
    row = [1]
    for n in range(61):
        if n:
            padded = [0, *row, 0]
            row = [(k + 1) * padded[k + 1] + k * padded[k] for k in range(n + 1)]
        assert worpitzky_row(n) == row, n


def test_the_sweep_streams_its_rows():
    # the sweep holds three rows' sums and the last row of its stream: about
    # 4 Stirling rows at n = 300, where holding every row would take about 100
    row = sequences.stirling2_row(300)
    row_bytes = sys.getsizeof(row) + sum(map(sys.getsizeof, row))
    tracemalloc.start()
    try:
        reports = identities._sweep_integers(300, identities._INTEGER_CHECKS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 5 * row_bytes


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

#: The four class sums of a row, as ``(shift, parity)``.
CLASSES = [(shift, parity) for shift in (0, 1) for parity in (0, 1)]
#: Every key a row entry serves: the four classes, and the two of each shift added.
KEYS = {*CLASSES, (0, None), (1, None)}

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


def test_row_sum_walks_short_rows_of_either_parity():
    # rows shorter than the lowest kept k sum to 0, and the walk starts at
    # the top kept k whether the row's top index has the class's parity or not
    for length in range(7):
        row = [10**k + 1 for k in range(length)]
        for shift, parity in CLASSES:
            expected = _reference_sum(row, shift, parity, False)
            assert sequences._row_sum(row, shift, parity) == expected, (length, shift, parity)


@pytest.mark.parametrize("func, shift, parity, alternating", WEIGHTED_SUMS)
def test_weighted_sums_match_factorial_reference(func, shift, parity, alternating):
    for n in range(1, 121):
        assert func(n) == _reference_sum(stirling2_row(n), shift, parity, alternating), n


@pytest.mark.parametrize("delta", [0, 1])
def test_sweep_sums_match_factorial_reference(monkeypatch, delta):
    # the identity sweep sums row n from the _RowSums of Stirling row n on its
    # stream; S(n, 0) += delta, on the stream alone, is the one entry of the
    # row that only the even factorial class weighs, and it must reach that
    # class and the (0, None) sum, ordered_bell
    real_rows = sequences._stirling_rows
    monkeypatch.setattr(
        sequences, "_stirling_rows", lambda: ([row[0] + delta, *row[1:]] for row in real_rows())
    )
    windows = identities._row_windows()
    for n in range(1, 121):
        _, sums, _ = next(windows)
        row = stirling2_row(n)
        row[0] += delta
        assert sums.row == row, n
        for shift, parity in KEYS:
            assert sums[shift, parity] == _reference_sum(row, shift, parity, False), n
        assert set(sums) == KEYS, n


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


@pytest.mark.parametrize("n", [257, 1000])
def test_memo_sums_keep_the_identities_past_the_series_cap(n):
    # the memo's class sums satisfy the integer identities beyond n = 120,
    # where the reference tests stop, and beyond MAX_ORDER = 256, the last
    # order at which `verify egf` compares them with the EGFs
    assert alternating_factorial_sum(n) == (-1) ** n
    assert alternating_cyclic_sum(n) == 0
    assert cyclic_ordered_bell(n) == 2 * ordered_bell(n - 1)
    assert ordered_bell(n) == (-1) ** (n + 1) + 2 * ordered_bell_parity(n, "even")


# -- the memoized row sums ---------------------------------------------------


def test_repeated_sums_sum_each_row_once(monkeypatch):
    calls = collections.Counter()  # (row index, (shift, parity)) -> calls of _row_sum
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
    # the eight sums read the row's four class sums, each walked once
    assert set(calls) == {(n, key) for n in ns for key in CLASSES}
    assert set(calls.values()) == {1}


def test_a_held_row_walks_a_weights_two_classes_at_once(monkeypatch):
    # a class miss walks both parities of that weight, so the eight point
    # routes on one memo row walk each class once, in two reads ...
    calls = collections.Counter()  # (shift, parity) -> calls of _row_sum
    row_sum = sequences._row_sum

    def counting(row, *weights):
        calls[weights] += 1
        return row_sum(row, *weights)

    monkeypatch.setattr(sequences, "_row_sum", counting)
    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    n = 40
    row = stirling2_row(n)
    first = ["parity_even", "cyclic_even"]
    reads = sorted(WEIGHTED_SUMS, key=lambda p: first.index(p.id) if p.id in first else 2)
    walking = []
    for param in reads:
        func, *weights = param.values
        before = calls.total()
        assert func(n) == _reference_sum(row, *weights), param.id
        if calls.total() > before:
            walking.append(param.id)
    assert calls == dict.fromkeys(CLASSES, 1)
    assert walking == first
    # ... and a streamed entry, of the same type, walks the same pair
    calls.clear()
    sums = next(sequences._rows(n))
    assert type(sums) is sequences._RowSums
    assert sums[1, 0] == cyclic_ordered_bell_even(n)
    assert calls == {(1, 0): 1, (1, 1): 1}


def test_the_stream_walks_each_class_once_and_a_weights_pair_together(monkeypatch):
    # the sweep and a whole sum read both classes of every weight they read,
    # so walking the pair together costs them no walk; a reader of one
    # class alone, such as cyclic-even, walks its other class too
    calls = collections.Counter()  # (row index, (shift, parity)) -> calls of _row_sum
    row_sum = sequences._row_sum

    def counting(row, *weights):
        calls[len(row) - 1, weights] += 1
        return row_sum(row, *weights)

    monkeypatch.setattr(sequences, "_row_sum", counting)
    monkeypatch.setattr(sequences, "_shared_triangle", sequences._StirlingTriangle())
    assert all(report.passed for report in identities.verify_all(200, 16))
    # the sweep walks rows 1..200 and the cyclic pair of row 201; verify egf
    # walks rows 0..16 off its own stream, row 0 at shift 0 alone
    sweep = [(n, key) for n in range(1, 201) for key in CLASSES] + [(201, (1, 0)), (201, (1, 1))]
    egf = [(n, key) for n in range(17) for key in CLASSES if n or key[0] == 0]
    assert calls == collections.Counter(sweep + egf) and calls.total() == 868
    for name, first, shift in ("bell", 0, 0), ("cyclic-even", 1, 1), ("cyclic-odd", 1, 1):
        calls.clear()
        assert len(registry.SEQUENCES[name].terms(200)) == 201 - first
        assert calls == {(n, (shift, parity)): 1 for n in range(first, 201) for parity in (0, 1)}
    # no stream reader touched the memo
    assert sequences._shared_triangle._rows.keys() == {0}


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


def test_sums_go_with_their_rows_and_stay_small(monkeypatch):
    # Each held row keeps at most 6 sums, none larger than ordered_bell(n),
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
    held = dict(triangle._rows)
    assert len(held) < top // 3  # rows were evicted, and their sums with them
    assert all(set(sums) == KEYS for n, sums in held.items() if n)
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
        except Exception as exc:  # pragma: no cover - only on bug
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
    for n, sums in triangle._rows.items():
        assert sums.row == rows[n], n
        for (shift, parity), total in sums.items():
            assert total == _reference_sum(rows[n], shift, parity, False), (n, shift, parity)


def test_concurrent_class_reads_of_one_held_row():
    # threads read every key of one held row at once, both classes of each
    # weight among them: each gets its sum, and the entry ends holding each
    # key once, the one value that every reader of it got
    rows = list(itertools.islice(sequences._stirling_rows(), 201))
    triangle = sequences._StirlingTriangle()
    keys = sorted(KEYS, key=str) * 2
    failures = []

    def worker(entry, barrier, got, i):
        try:
            barrier.wait(timeout=60)
            got[i] = entry[keys[i]]
        except Exception as exc:  # pragma: no cover - only on bug
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n in range(150, 201, 5):
            entry, got = triangle.read(n), [None] * len(keys)
            barrier = threading.Barrier(len(keys))
            threads = [
                threading.Thread(target=worker, args=(entry, barrier, got, i))
                for i in range(len(keys))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not failures
            assert set(entry) == KEYS, n
            for key, value in zip(keys, got):
                assert value is entry[key], (n, key)
                assert value == _reference_sum(rows[n], *key, False), (n, key)
    finally:
        sys.setswitchinterval(interval)
