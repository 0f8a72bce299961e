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
takes the row itself, so the identity sweep reads each row once for all
of its sums. ``_next_stirling_row`` is the one Stirling recurrence step:
the sweep streams rows through ``_stirling_rows`` without holding the
triangle, and the memo, ``StirlingTriangle``, steps with it too. The memo
is bounded: it keeps every 16th row (a checkpoint) and the other rows read
most recently up to a byte budget, and recomputes any other row from the
nearest held row below it. ``_worpitzky_rows`` builds the Worpitzky
triangle from its own recurrence, for the sweep only.

Brute-force enumeration counters (restricted growth strings and ordered
block sequences) live alongside so the closed-form routines can be tested
against an independent route.
"""

import sys
import threading
from collections import OrderedDict
from functools import lru_cache
from math import factorial

__all__ = [
    "MAX_ENUMERATION_N",
    "MAX_ORDERED_ENUMERATION_N",
    "SequenceTable",
    "StirlingTriangle",
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
        self._set(name, offset, tuple(values))


def _next_stirling_row(prev: list[int]) -> list[int]:
    """Row n+1 of the triangle from row n, by ``S(n,k) = k*S(n-1,k) + S(n-1,k-1)``.

    The one place the recurrence is computed: :func:`_stirling_rows` and
    :class:`StirlingTriangle` both step with it.
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


class StirlingTriangle:
    """Rows of second-kind partition counts, with a bounded memo.

    Row ``n`` is ``S(n, 0..n)``. The memo keeps two kinds of rows:

    * checkpoints: every row whose index is a multiple of
      ``_CHECKPOINT_EVERY``, up to the highest row computed;
    * recent rows: the other rows most recently read, least recently used
      first out once their total size passes ``_RECENT_BYTES`` bytes (the
      newest is always kept).

    A row that is not held is recomputed from the nearest held row below it
    with :func:`_next_stirling_row`, the step :func:`_stirling_rows` takes:
    at most ``_CHECKPOINT_EVERY - 1`` steps below :attr:`max_n`, and above it
    the walk appends the checkpoints it passes. So the memo holds the
    checkpoints, a sixteenth of the triangle, plus about ``_RECENT_BYTES``,
    where keeping every row would hold the whole triangle. Lookups,
    extensions and recomputations are serialized with one lock, so a
    shared instance is safe to use from several threads; held rows are
    never mutated, and accessors hand out copies.
    """

    def __init__(self):
        self._checkpoints: list[list[int]] = [[1]]
        self._recent: OrderedDict[int, list[int]] = OrderedDict()
        self._recent_bytes = 0
        self._max_n = 0
        self._lock = threading.Lock()

    @property
    def max_n(self) -> int:
        """Index of the highest row computed so far."""
        return self._max_n

    def _get(self, n: int) -> list[int]:
        # caller holds the lock
        checkpoint, offset = divmod(n, _CHECKPOINT_EVERY)
        if not offset and checkpoint < len(self._checkpoints):
            return self._checkpoints[checkpoint]
        row = self._recent.get(n)
        if row is not None:
            self._recent.move_to_end(n)
            return row
        start = min(checkpoint, len(self._checkpoints) - 1) * _CHECKPOINT_EVERY
        row = self._checkpoints[start // _CHECKPOINT_EVERY]
        for m in range(n - 1, start, -1):
            if m in self._recent:
                start, row = m, self._recent[m]
                break
        for m in range(start + 1, n + 1):  # crosses a checkpoint only above the held ones
            row = _next_stirling_row(row)
            if m % _CHECKPOINT_EVERY == 0:
                self._checkpoints.append(row)
        self._max_n = max(self._max_n, n)
        if n % _CHECKPOINT_EVERY:
            self._recent[n] = row
            self._recent_bytes += _row_bytes(row)
            while self._recent_bytes > _RECENT_BYTES and len(self._recent) > 1:
                self._recent_bytes -= _row_bytes(self._recent.popitem(last=False)[1])
        return row

    def row(self, n: int) -> list[int]:
        """Return ``[S(n,0), ..., S(n,n)]`` as a fresh list."""
        if n < 0:
            raise ValueError(f"row index must be >= 0, got {n}")
        with self._lock:
            return list(self._get(n))

    def entry(self, n: int, k: int) -> int:
        """Return ``S(n, k)``; zero for ``k > n``."""
        if n < 0 or k < 0:
            raise ValueError(f"indices must be >= 0, got ({n}, {k})")
        if k > n:
            return 0
        with self._lock:
            return self._get(n)[k]


_shared_triangle = StirlingTriangle()


def _require_at_least(n: int, minimum: int, name: str = "n") -> None:
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-element set into exactly k nonempty blocks."""
    return _shared_triangle.entry(n, k)


def stirling2_row(n: int) -> list[int]:
    """The full row ``[S(n,0), ..., S(n,n)]``."""
    return _shared_triangle.row(n)


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


def _weighted_row_sum(n: int, name: str) -> int:
    """The sum ``name`` of :data:`_ROW_SUMS` over row n.

    The row is looked up through the module global at call time, so a
    patched ``stirling2_row`` reaches every sum.
    """
    return _row_sum(stirling2_row(n), *_ROW_SUMS[name])


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
    _require_at_least(n, 0)
    return _weighted_row_sum(n, "ordered_bell")


def ordered_bell_parity(n: int, parity: str) -> int:
    """Ordered set partitions of [n] whose block count has the given parity.

    ``sum(k! * S(n,k))`` restricted to even or odd ``k``; defined for n >= 1.
    """
    _require_at_least(n, 1)
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _weighted_row_sum(n, f"ordered_bell_{parity}")


def cyclic_ordered_bell(n: int) -> int:
    """Set partitions of [n] with blocks arranged in a cycle: sum of (k-1)!*S(n,k)."""
    _require_at_least(n, 1)
    return _weighted_row_sum(n, "cyclic_ordered_bell")


def cyclic_ordered_bell_even(n: int) -> int:
    """Cyclic arrangements with an even number of blocks: sum of (k-1)!*S(n,k), k even."""
    _require_at_least(n, 1)
    return _weighted_row_sum(n, "cyclic_ordered_bell_even")


def cyclic_ordered_bell_odd(n: int) -> int:
    """Cyclic arrangements with an odd number of blocks: sum of (k-1)!*S(n,k), k odd."""
    _require_at_least(n, 1)
    return _weighted_row_sum(n, "cyclic_ordered_bell_odd")


def worpitzky(n: int, k: int) -> int:
    """The Worpitzky number ``k! * S(n+1, k+1)``."""
    _require_at_least(n, 0)
    _require_at_least(k, 0, "k")
    return factorial(k) * stirling2(n + 1, k + 1)


def worpitzky_row(n: int) -> list[int]:
    """The row ``[worpitzky(n, 0), ..., worpitzky(n, n)]``, from one read of row n+1.

    ``k!`` is carried along the row as a running product.
    """
    _require_at_least(n, 0)
    row = stirling2_row(n + 1)
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
    _require_at_least(n, 1)
    return _weighted_row_sum(n, "alternating_factorial_sum")


def alternating_cyclic_sum(n: int) -> int:
    """``sum((-1)^k * (k-1)! * S(n,k))`` over k >= 1.

    Equals the even-block cyclic count minus the odd-block one: -1 at n=1
    and 0 for all n >= 2.
    """
    _require_at_least(n, 1)
    return _weighted_row_sum(n, "alternating_cyclic_sum")


# ---------------------------------------------------------------------------
# Exhaustive enumeration (independent test oracles)
# ---------------------------------------------------------------------------


def set_partitions(n: int):
    """Yield every partition of {0,..,n-1} as a tuple of element tuples.

    Enumeration follows restricted growth strings: element i either joins
    an existing block or opens the next new one, so each partition is
    produced exactly once, blocks ordered by their smallest element.
    """
    _require_at_least(n, 0)
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
    _require_at_least(n, 0)
    _require_at_least(k, 0, "k")
    if n > MAX_ENUMERATION_N:
        raise ValueError(
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

    Blocks are element tuples; the first block ranges over all nonempty
    subsets (as bitmasks) of the remaining elements, then the rest is
    partitioned recursively, so every ordered partition appears once.
    """
    _require_at_least(n, 0)

    def elements(mask):
        return tuple(i for i in range(n) if mask >> i & 1)

    chosen: list[tuple[int, ...]] = []

    def extend(remaining):
        if not remaining:
            yield tuple(chosen)
            return
        submask = remaining
        while submask:
            chosen.append(elements(submask))
            yield from extend(remaining ^ submask)
            chosen.pop()
            submask = (submask - 1) & remaining

    yield from extend((1 << n) - 1)


def count_ordered_partitions_exhaustive(n: int) -> int:
    """Count ordered set partitions of an n-element set by explicit enumeration.

    Independent of :func:`ordered_bell`; capped at
    ``n <= MAX_ORDERED_ENUMERATION_N``.
    """
    _require_at_least(n, 0)
    if n > MAX_ORDERED_ENUMERATION_N:
        raise ValueError(
            "exhaustive enumeration is capped at "
            f"n <= {MAX_ORDERED_ENUMERATION_N}, got {n}"
        )
    return sum(1 for _ in ordered_set_partitions(n))
