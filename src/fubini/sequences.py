"""Exact integer sequences built from set-partition counts.

Everything here is plain ``int`` arithmetic (Python integers are arbitrary
precision); no floating point is used anywhere. The central objects:

* ``stirling2(n, k)`` -- partitions of an n-element set into exactly k
  nonempty unlabeled blocks, memoized via the triangle recurrence
  ``S(n,k) = k*S(n-1,k) + S(n-1,k-1)``.
* ``ordered_bell(n)`` -- ordered set partitions (weak orderings) of an
  n-element set: ``sum(k! * S(n,k))``.
* the ``cyclic_*`` family -- set partitions whose blocks are arranged in a
  cycle, weighting by ``(k-1)!`` instead of ``k!``, with variants that keep
  only an even or only an odd number of blocks.
* ``worpitzky(n, k)`` -- ``k! * S(n+1, k+1)``; ``worpitzky_row(n)`` gives
  k = 0..n from one read of row n+1.
* alternating variants of the weighted sums, used as cross-checks.

The weighted sums differ only in the shift of the factorial weight, an
optional parity filter on k and an optional sign, so all seven share one
reduction over a row. It evaluates the sum in Horner form, from the top
of the row down, so each step multiplies the accumulator by a small
integer instead of multiplying a factorial by a row entry. ``_row_sum``
takes the row itself, and ``_RowSums`` pairs a row with its sums, each
computed when first read and then kept: the one memo of a row's sums.
``_next_stirling_row`` is the one Stirling recurrence step: the identity
sweep streams rows through ``_stirling_rows`` without holding the
triangle, each wrapped in a ``_RowSums`` of its own, and the memo,
``_StirlingTriangle``, steps with it too. The memo is bounded: it keeps
every 16th row (a checkpoint) and the other rows read most recently up to
a byte budget, and recomputes any other row from the nearest held row
below it. It holds each row as a ``_RowSums``, so a row's sums go when
the row goes. ``_read_row`` is the one reader of the memo, and it hands
out the held entry, uncopied: every public sum and every ``stirling2``
entry is one read of it, and ``stirling2_row`` is its copying reader. It
is the one seam for memo rows, so a patched ``_read_row`` returning a
``_RowSums`` of a corrupted row reaches every entry, every sum, the row
readers, the Worpitzky numbers and the EGF check's columns. The identity
sweep never touches this memo. ``_worpitzky_rows`` builds the Worpitzky
triangle from its own recurrence, for the sweep only.

One brute-force enumerator lives alongside, so the closed-form routines
can be tested against an independent route: ``set_partitions`` walks
restricted growth strings, and ``ordered_set_partitions`` yields each of
those partitions with its blocks in every order. The exhaustive counters
count what they yield.

The package's one argument rule, ``_require_at_least`` with its type half
``_require_int`` and the :class:`ArgumentError` they raise, lives in the
leaf module ``fubini._args``; this module binds all three names, so
``fubini.ArgumentError`` is ``sequences.ArgumentError``.
"""

import sys
import threading
from collections import OrderedDict
from functools import lru_cache
from itertools import permutations
from math import factorial

from fubini._args import ArgumentError, _require_at_least, _require_int

__all__ = [
    "MAX_ENUMERATION_N",
    "MAX_ORDERED_ENUMERATION_N",
    "ArgumentError",
    "SequenceTable",
    "alternating_cyclic_sum",
    "alternating_factorial_sum",
    "count_ordered_partitions_exhaustive",
    "count_partitions_exhaustive",
    "cyclic_ordered_bell",
    "cyclic_ordered_bell_even",
    "cyclic_ordered_bell_odd",
    "ordered_bell",
    "ordered_bell_parity",
    "ordered_set_partitions",
    "set_partitions",
    "stirling2",
    "stirling2_row",
    "worpitzky",
    "worpitzky_row",
]

#: Largest n accepted by the exhaustive set-partition counter.
MAX_ENUMERATION_N = 12
#: Largest n accepted by the exhaustive ordered-set-partition counter.
MAX_ORDERED_ENUMERATION_N = 9


class _FrozenRecord:
    """Base of the immutable record classes: frozen value objects with named fields.

    A subclass lists its fields in ``__slots__`` and sets them once, through
    :meth:`_set`, in its ``__init__``. Equality, ``hash`` and ``repr`` follow
    the fields in order; assigning or deleting a field raises
    ``AttributeError``; pickling and copying call the constructor again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class SequenceTable(_FrozenRecord):
    """A named run of exact integer values; index i holds a(offset + i)."""

    __slots__ = ("name", "offset", "values")

    def __init__(self, name: str, offset: int, values: tuple[int, ...]):
        values = tuple(_require_int(value, "value") for value in values)
        self._set(name, _require_int(offset, "offset"), values)


def _next_stirling_row(prev: list[int]) -> list[int]:
    """Row n+1 of the triangle from row n, by ``S(n,k) = k*S(n-1,k) + S(n-1,k-1)``.

    The one place the recurrence is computed: :func:`_stirling_rows` and
    :class:`_StirlingTriangle` both step with it.
    """
    m = len(prev)
    row = [0] * (m + 1)  # sized exactly: no list over-allocation in a held row
    row[m] = 1
    for k in range(1, m):
        row[k] = k * prev[k] + prev[k - 1]
    return row


def _stirling_rows():
    """Yield the rows ``[S(n,0), ..., S(n,n)]`` for n = 0, 1, 2, ...

    Only the previous row is held. Callers must not mutate a yielded row:
    the next one is built from it.
    """
    row = [1]
    while True:
        yield row
        row = _next_stirling_row(row)


def _row_bytes(row: list[int]) -> int:
    """Size of a row in bytes, from every 8th entry.

    Entry sizes vary slowly along a row, so the sample is within 0.1% from
    n = 400 on (4% at n = 50, where a row takes 2.5 kB); sizing every entry
    would cost 40% of a recurrence step at n = 1000.
    """
    return sys.getsizeof(row) + 8 * sum(map(sys.getsizeof, row[::8]))


class _RowSums(dict):
    """One Stirling row and its weighted sums, each computed when first read.

    ``sums[name]`` is the sum ``name`` of :data:`_ROW_SUMS` over ``sums.row``:
    a miss runs :func:`_row_sum` once and stores the result. The row is never
    mutated, so a stored sum stays right. The memo holds its rows this way,
    and the identity sweep wraps each streamed row in one.
    """

    __slots__ = ("row",)

    def __init__(self, row: list[int]):
        self.row = row

    def __missing__(self, name: str) -> int:
        total = self[name] = _row_sum(self.row, *_ROW_SUMS[name])
        return total


#: The triangle keeps row n for good when n is a multiple of
#: ``_CHECKPOINT_EVERY``, and the other rows read most recently up to
#: ``_RECENT_BYTES`` in all. Chosen on perfbench lookup's seed-3 job, run in
#: one process on a 2-vCPU host, where keeping every row peaks at 114 MB RSS
#: and answers the queries in 108-116 ms. Spacing 16 with 8 MiB peaks at
#: 26 MB and takes 127-129 ms, with 398 recurrence steps; spacing 8 peaks at
#: 32 MB (123-129 ms), and 32 at 23 MB (149-153 ms). Lookup's 63 rows, less
#: the checkpoints among them, take 4.5 MB, so a 4 MiB budget thrashes
#: (270 ms at spacing 16, 1,839 steps) and 2 MiB more so (810 ms). At
#: n = 1000 the checkpoints every 16 rows take 12 MB (every 8: 25 MB), and
#: all rows 198 MB.
_CHECKPOINT_EVERY = 16
_RECENT_BYTES = 8 << 20


class _StirlingTriangle:
    """Rows of second-kind partition counts, with a bounded memo.

    Row ``n`` is ``S(n, 0..n)``. The memo keeps two kinds of rows:

    * checkpoints: every row whose index is a multiple of
      ``_CHECKPOINT_EVERY``, up to the highest row computed;
    * recent rows: the other rows most recently read, least recently used
      first out once their total size passes ``_RECENT_BYTES`` bytes (the
      newest is always kept).

    A row that is not held is recomputed from the nearest held row below it
    with :func:`_next_stirling_row`, the step :func:`_stirling_rows` takes:
    at most ``_CHECKPOINT_EVERY - 1`` steps below the highest row computed,
    and above it the walk appends the checkpoints it passes. So the memo
    holds the checkpoints, a sixteenth of the triangle, plus about
    ``_RECENT_BYTES``, where keeping every row would hold the whole triangle.

    Each row is held as a :class:`_RowSums`, which also keeps the weighted
    sums of :data:`_ROW_SUMS` read so far, at most 8 ints, so a recent
    row's sums go when the row is evicted and a checkpoint keeps its sums.
    :meth:`read` is the one way in: :func:`_read_row` calls it on the shared
    instance and hands out the held entry.

    Lookups, extensions and recomputations are serialized with one lock, so
    an instance is safe to use from several threads; held rows are never
    mutated. A sum is computed outside the lock: two readers who miss the
    same sum at once both compute it and store the same value.
    """

    def __init__(self):
        self._checkpoints: list[_RowSums] = [_RowSums([1])]
        self._recent: OrderedDict[int, _RowSums] = OrderedDict()
        self._recent_bytes = 0
        self._lock = threading.Lock()

    def _held(self, n: int) -> _RowSums | None:
        # caller holds the lock
        checkpoint, offset = divmod(n, _CHECKPOINT_EVERY)
        if not offset:
            return self._checkpoints[checkpoint] if checkpoint < len(self._checkpoints) else None
        return self._recent.get(n)

    def _get(self, n: int) -> _RowSums:
        # caller holds the lock
        held = self._held(n)
        if held is not None:
            if n % _CHECKPOINT_EVERY:
                self._recent.move_to_end(n)
            return held
        start = min(n // _CHECKPOINT_EVERY, len(self._checkpoints) - 1) * _CHECKPOINT_EVERY
        row = self._checkpoints[start // _CHECKPOINT_EVERY].row
        for m in range(n - 1, start, -1):
            if m in self._recent:
                start, row = m, self._recent[m].row
                break
        for m in range(start + 1, n + 1):  # crosses a checkpoint only above the held ones
            row = _next_stirling_row(row)
            if m % _CHECKPOINT_EVERY == 0:
                self._checkpoints.append(_RowSums(row))
        if not n % _CHECKPOINT_EVERY:
            return self._checkpoints[-1]  # row n, appended last by the walk
        held = self._recent[n] = _RowSums(row)
        self._recent_bytes += _row_bytes(row)
        while self._recent_bytes > _RECENT_BYTES and len(self._recent) > 1:
            _, old = self._recent.popitem(last=False)
            self._recent_bytes -= _row_bytes(old.row)
        return held

    def read(self, n: int) -> _RowSums:
        """Row ``n >= 0`` as its held entry, under the lock; the caller has checked ``n``."""
        with self._lock:
            return self._get(n)


_shared_triangle = _StirlingTriangle()


def _read_row(n: int) -> _RowSums:
    """Row n of the shared memo as its held entry: the row and its weighted sums.

    The one reader of memo rows, and so the one seam where a test feeds in
    a corrupted row: a patched ``_read_row`` returns a :class:`_RowSums` of
    its own, whose sums are computed over that row, so the corrupted row
    reaches :func:`stirling2`, :func:`stirling2_row`, every weighted sum,
    :func:`worpitzky`, :func:`worpitzky_row` and the columns of
    ``identities.verify_egf_agreement``. The entry is handed out, not
    copied: callers have checked ``n`` and must not mutate ``.row``. The
    global ``_shared_triangle`` is looked up at call time.
    """
    return _shared_triangle.read(n)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-element set into exactly k nonempty blocks."""
    n, k = _require_at_least(n, 0), _require_at_least(k, 0, "k")
    return _read_row(n).row[k] if k <= n else 0


def stirling2_row(n: int) -> list[int]:
    """The full row ``[S(n,0), ..., S(n,n)]`` as a fresh list: the copying reader of the memo."""
    return list(_read_row(_require_at_least(n, 0, "row index")).row)


#: The weighted row sums by name, as ``(shift, parity, alternating)`` of
#: :func:`_row_sum`. The public sums and the identity sweep both take their
#: weights from here.
_ROW_SUMS = {
    "ordered_bell": (0, None, False),
    "ordered_bell_even": (0, 0, False),
    "ordered_bell_odd": (0, 1, False),
    "cyclic_ordered_bell": (1, None, False),
    "cyclic_ordered_bell_even": (1, 0, False),
    "cyclic_ordered_bell_odd": (1, 1, False),
    "alternating_factorial_sum": (0, None, True),
    "alternating_cyclic_sum": (1, None, True),
}


def _row_sum(row: list[int], shift: int, parity: int | None, alternating: bool) -> int:
    """``sum(sign(k) * (k-shift)! * row[k])`` over ``shift <= k < len(row)``.

    The sum is accumulated in Horner form, from the top of the row down to
    ``k = shift``: ``row[shift] + 1*(row[shift+1] + 2*(row[shift+2] + ...))``.
    At each k the accumulator is multiplied by the small integer
    ``k+1-shift`` and then takes ``sign(k) * row[k]``, so no step multiplies
    two big integers. ``parity`` (a residue mod 2) keeps only those k, and
    the loop steps over them alone: the accumulator is multiplied by
    ``(k+1-shift)*(k+2-shift)``, and the lowest kept k, ``shift`` or
    ``shift+1``, has weight 1. ``alternating`` makes ``sign(k) = (-1)^k``;
    otherwise it is 1.
    """
    step, low = (1, shift) if parity is None else (2, shift + (parity - shift) % 2)
    top = len(row) - 1
    total = 0
    for k in range(top - (top - low) % step, low - 1, -step):
        j = k - shift
        total *= j + 1 if step == 1 else (j + 1) * (j + 2)
        if alternating and k % 2:
            total -= row[k]
        else:
            total += row[k]
    return total


def ordered_bell(n: int) -> int:
    """Number of ordered set partitions of an n-element set: sum of k!*S(n,k)."""
    return _read_row(_require_at_least(n, 0))["ordered_bell"]


def ordered_bell_parity(n: int, parity: str) -> int:
    """Ordered set partitions of [n] whose block count has the given parity.

    ``sum(k! * S(n,k))`` restricted to even or odd ``k``; defined for n >= 1.
    """
    n = _require_at_least(n, 1)
    if parity not in ("even", "odd"):
        raise ArgumentError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _read_row(n)[f"ordered_bell_{parity}"]


def cyclic_ordered_bell(n: int) -> int:
    """Set partitions of [n] with blocks arranged in a cycle: sum of (k-1)!*S(n,k)."""
    return _read_row(_require_at_least(n, 1))["cyclic_ordered_bell"]


def cyclic_ordered_bell_even(n: int) -> int:
    """Cyclic arrangements with an even number of blocks: sum of (k-1)!*S(n,k), k even."""
    return _read_row(_require_at_least(n, 1))["cyclic_ordered_bell_even"]


def cyclic_ordered_bell_odd(n: int) -> int:
    """Cyclic arrangements with an odd number of blocks: sum of (k-1)!*S(n,k), k odd."""
    return _read_row(_require_at_least(n, 1))["cyclic_ordered_bell_odd"]


def worpitzky(n: int, k: int) -> int:
    """The Worpitzky number ``k! * S(n+1, k+1)``; zero for ``k > n``."""
    n, k = _require_at_least(n, 0), _require_at_least(k, 0, "k")
    return factorial(k) * stirling2(n + 1, k + 1) if k <= n else 0


def worpitzky_row(n: int) -> list[int]:
    """The row ``[worpitzky(n, 0), ..., worpitzky(n, n)]``, from one read of row n+1.

    ``k!`` is carried along the row as a running product.
    """
    n = _require_at_least(n, 0)
    row = _read_row(n + 1).row
    values = []
    weight = 1
    for k in range(n + 1):
        if k:
            weight *= k
        values.append(weight * row[k + 1])
    return values


def _worpitzky_rows():
    """Yield the Worpitzky rows n = 0, 1, 2, ... from their own recurrence.

    ``W(n,k) = (k+1)*W(n-1,k) + k*W(n-1,k-1)`` (Worpitzky 1883; OEIS
    A028246/A130850) follows from the Stirling recurrence; each step
    multiplies by small integers, only the previous row is held, and no
    Stirling row is read, so the identity sweep checks
    ``worpitzky.parity-rows`` against a triangle of its own. Callers must
    not mutate a yielded row: the next one is built from it.
    """
    row = [1]
    while True:
        yield row
        m = len(row)
        row = [1, *[(k + 1) * row[k] + k * row[k - 1] for k in range(1, m)], m * row[-1]]


def alternating_factorial_sum(n: int) -> int:
    """``sum((-1)^k * k! * S(n,k))``; equals (-1)^n for every n >= 1."""
    return _read_row(_require_at_least(n, 1))["alternating_factorial_sum"]


def alternating_cyclic_sum(n: int) -> int:
    """``sum((-1)^k * (k-1)! * S(n,k))`` over k >= 1.

    Equals the even-block cyclic count minus the odd-block one: -1 at n=1
    and 0 for all n >= 2.
    """
    return _read_row(_require_at_least(n, 1))["alternating_cyclic_sum"]


# ---------------------------------------------------------------------------
# Exhaustive enumeration (independent test oracles)
# ---------------------------------------------------------------------------


def set_partitions(n: int):
    """Yield every partition of {0,..,n-1} as a tuple of element tuples.

    Enumeration follows restricted growth strings: element i either joins
    an existing block or opens the next new one, so each partition is
    produced exactly once, blocks ordered by their smallest element.
    """
    n = _require_at_least(n, 0)
    if n == 0:
        yield ()
        return

    blocks: list[list[int]] = []

    def extend(i):
        if i == n:
            yield tuple(tuple(block) for block in blocks)
            return
        for block in blocks:
            block.append(i)
            yield from extend(i + 1)
            block.pop()
        blocks.append([i])
        yield from extend(i + 1)
        blocks.pop()

    yield from extend(0)


def count_partitions_exhaustive(n: int, k: int) -> int:
    """Count k-block partitions of an n-element set by explicit enumeration.

    Independent of :func:`stirling2`; capped at ``n <= MAX_ENUMERATION_N``
    to keep the enumeration at desk scale.
    """
    n, k = _require_at_least(n, 0), _require_at_least(k, 0, "k")
    if n > MAX_ENUMERATION_N:
        raise ArgumentError(
            f"exhaustive enumeration is capped at n <= {MAX_ENUMERATION_N}, got {n}"
        )
    return _block_count_histogram(n)[k] if k <= n else 0


@lru_cache(maxsize=MAX_ENUMERATION_N + 1)
def _block_count_histogram(n: int) -> tuple[int, ...]:
    # one enumeration counts every k, where a pass per k re-enumerated all Bell(n) partitions
    counts = [0] * (n + 1)
    for partition in set_partitions(n):
        counts[len(partition)] += 1
    return tuple(counts)


def ordered_set_partitions(n: int):
    """Yield every sequence of disjoint nonempty blocks covering {0,..,n-1}.

    Each partition of :func:`set_partitions` is yielded with its k blocks in
    all k! orders, so every ordered partition appears once. Blocks are
    sorted element tuples.
    """
    for blocks in set_partitions(n):
        yield from permutations(blocks)


def count_ordered_partitions_exhaustive(n: int) -> int:
    """Count ordered set partitions of an n-element set by explicit enumeration.

    Counts what :func:`ordered_set_partitions` yields, independent of
    :func:`ordered_bell`; capped at ``n <= MAX_ORDERED_ENUMERATION_N``.
    """
    n = _require_at_least(n, 0)
    if n > MAX_ORDERED_ENUMERATION_N:
        raise ArgumentError(
            "exhaustive enumeration is capped at "
            f"n <= {MAX_ORDERED_ENUMERATION_N}, got {n}"
        )
    return sum(1 for _ in ordered_set_partitions(n))
