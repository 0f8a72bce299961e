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

Each weighted sum is one parity class of row n, or two added or
subtracted: the class sum ``(shift, parity)`` is the sum of
``(k-shift)! * S(n,k)`` over the k of that parity, with shift 0 for the
ordered weight ``k!`` and 1 for the cyclic weight ``(k-1)!``. So a row
has four class sums; ``ordered_bell`` is the two of shift 0 added, and
``alternating_factorial_sum`` the odd one subtracted from the even one,
and likewise the cyclic total and ``alternating_cyclic_sum`` at shift 1.
``_row_sum`` computes one class sum in Horner form, from the top of the
row down over the k of its parity, so each step multiplies the accumulator
by a small integer instead of multiplying a factorial by a row entry. It
takes the row itself, and ``_RowSums`` pairs a row with its class sums,
each computed when first read and then kept: the one memo of a row's sums.
``_next_stirling_row`` is the one forward Stirling recurrence step: the
identity sweep streams rows through ``_stirling_rows`` without holding the
triangle, and the memo, ``_StirlingTriangle``, steps with it too; only the
memo also steps back, with its inverse ``_prev_stirling_row``. The
sweep wraps each streamed row in a ``_RowSums`` of its own for
``ordered_bell`` alone, its two factorial class walks; it takes the four
class sums of row n as slice sums of the pair that ``_worpitzky_rows``
yields from its own recurrence: Worpitzky row n-1, which holds the cyclic
weights ``U(n,k) = (k-1)! * S(n,k)``, and the factorial weights
``T(n,k) = k * U(n,k)``, each product computed once per row, since the
next U row is ``T(n,k) + T(n,k-1)``. The memo is bounded: one map holds
every 16th row (a checkpoint) and the other rows inserted most recently
up to a byte budget, first in first out, and any other row is recomputed
from the nearest held row, below or above, so at most
``_CHECKPOINT_EVERY // 2`` steps below the highest checkpoint. It holds
each row as a ``_RowSums``, so a row's sums go when the row goes; a hit
takes no lock and a miss takes one, as ``_StirlingTriangle`` sets out.
``_read_row`` is the one reader of the memo, and it hands out the held
entry, uncopied: every public sum and every ``stirling2`` entry is one
read of it, and ``stirling2_row`` is its copying reader. It is the one
seam for memo rows, so a patched ``_read_row`` returning a ``_RowSums`` of
a corrupted row reaches every entry, every sum, the row readers, the
Worpitzky numbers and the EGF check's columns. The identity sweep never
touches this memo.

One brute-force enumerator lives alongside, so the closed-form routines
can be tested against an independent route: ``set_partitions`` walks
restricted growth strings, and ``ordered_set_partitions`` yields each of
those partitions with its blocks in every order. The exhaustive counters
count what they yield.

The package's one argument rule, ``_require_at_least`` with its type half
``_require_int`` and the :class:`ArgumentError` they raise, lives in the
leaf module ``fubini._args``, next to ``_require_type``, which checks the
name and values of a :class:`SequenceTable`; this module binds all four
names, so ``fubini.ArgumentError`` is ``sequences.ArgumentError``.
"""

import sys
import threading
from collections import OrderedDict
from collections.abc import Iterable
from functools import cache
from itertools import permutations
from math import factorial
from operator import add, mul

from fubini import _EXPORTS
from fubini._args import ArgumentError, _require_at_least, _require_int, _require_type

# the enumeration caps are public here but not exported by the package
__all__ = ["MAX_ENUMERATION_N", "MAX_ORDERED_ENUMERATION_N", *_EXPORTS["sequences"]]

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
        _require_type(name, (str,), "name")
        _require_type(values, (Iterable,), "values")
        values = tuple(_require_int(value, "value") for value in values)
        self._set(name, _require_int(offset, "offset"), values)

    @property
    def last_index(self) -> int:
        """The index of the last value; ``offset - 1`` for an empty table."""
        return self.offset + len(self.values) - 1


def _next_stirling_row(prev: list[int]) -> list[int]:
    """Row n+1 of the triangle from row n, by ``S(n,k) = k*S(n-1,k) + S(n-1,k-1)``.

    The one place the recurrence is computed forward: :func:`_stirling_rows`
    and :class:`_StirlingTriangle` both step with it. Its inverse,
    :func:`_prev_stirling_row`, is used by the memo alone.
    """
    m = len(prev)
    row = [0] * (m + 1)  # sized exactly: no list over-allocation in a held row
    row[m] = 1
    for k in range(1, m):
        row[k] = k * prev[k] + prev[k - 1]
    return row


def _prev_stirling_row(nxt: list[int]) -> list[int]:
    """Row n of the triangle from row n+1, by ``S(n,k-1) = S(n+1,k) - k*S(n,k)``.

    The recurrence of :func:`_next_stirling_row` run backward, exactly: from
    ``S(n,n) = 1`` down to ``S(n,1)``, with ``S(n,0) = 0`` for n >= 1, so
    row 1 gives ``[1]``. Only :class:`_StirlingTriangle` steps with it, to
    fill a row from a held row above.
    """
    n = len(nxt) - 2
    row = [0] * (n + 1)  # sized exactly, as in _next_stirling_row
    row[n] = 1
    for k in range(n, 1, -1):
        row[k - 1] = nxt[k] - k * row[k]
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
    """One Stirling row and its class sums, each computed when first read.

    ``sums[shift, parity]`` is the class sum ``_row_sum(sums.row, shift,
    parity)``: a miss runs :func:`_row_sum` once and stores the result, so
    an entry holds at most four sums. The row is never mutated, so a stored
    sum stays right. The memo holds its rows this way, and the identity
    sweep wraps each streamed row in one for the two factorial classes
    that make up ``ordered_bell``.
    """

    __slots__ = ("row",)

    def __init__(self, row: list[int]):
        self.row = row

    def __missing__(self, key: tuple[int, int]) -> int:
        total = self[key] = _row_sum(self.row, *key)
        return total


#: The triangle's one map of held rows keeps row n for good when n is a
#: multiple of ``_CHECKPOINT_EVERY``, and the other rows inserted most
#: recently up to ``_RECENT_BYTES`` in all. A miss walks from the nearest held
#: row, bounded by distance, not by block: below the highest checkpoint every
#: row lies within ``_CHECKPOINT_EVERY // 2`` rows of a checkpoint, so no miss
#: there takes more steps. Chosen on perfbench lookup's seed-3 job, run in one
#: process on a 2-vCPU host (times are the best of 8 runs), where keeping
#: every row peaks at 114 MB RSS and answers the queries in 18 ms. Spacing 16
#: with 8 MiB peaks at 26 MB and takes 36 ms, with 244 recurrence steps after
#: the warm-up; spacing 8 peaks at 31 MB (28 ms, 125 steps), and 32 at 23 MB
#: (48 ms, 423 steps). Lookup's 63 rows, less the checkpoints among them, take
#: 4.5 MB, so a 4 MiB budget thrashes (136 ms at spacing 16, 1,232 steps) and
#: 2 MiB more so (524 ms, 6,717 steps). At n = 1000 the checkpoints every 16
#: rows take 12 MB (every 8: 25 MB), and all rows 198 MB.
_CHECKPOINT_EVERY = 16
_RECENT_BYTES = 8 << 20


class _StirlingTriangle:
    """Rows of second-kind partition counts, with a bounded memo.

    Row ``n`` is ``S(n, 0..n)``. The memo holds every row it keeps in one
    map, ``_rows``, from row index to entry, and keeps two kinds of rows:

    * checkpoints: row 0 and every row whose index is a multiple of
      ``_CHECKPOINT_EVERY``, up to the highest row computed;
    * recent rows: the other rows most recently inserted, first in first
      out once their total size passes ``_RECENT_BYTES`` bytes (the one
      inserted last is always kept). ``_recent`` maps each to its size,
      oldest first. A hit does not refresh a row, so a row leaves in the
      order it came.

    A row that is not held is recomputed from the nearest held row, below or
    above, on a tie from below: upward with :func:`_next_stirling_row`, the
    step :func:`_stirling_rows` takes, inserting the checkpoints it passes,
    or downward with its inverse :func:`_prev_stirling_row`. Only an upward
    walk raises the highest row computed, so every checkpoint below it is
    held; a downward walk thus starts no higher than the checkpoint that
    ends its row's block and passes none, and below the highest checkpoint
    a miss takes at most ``_CHECKPOINT_EVERY // 2`` steps. The memo holds
    the checkpoints, a sixteenth of the triangle, plus about
    ``_RECENT_BYTES``, where keeping every row would hold the whole triangle.

    Each row is held as a :class:`_RowSums`, which also keeps the class
    sums read so far, at most 4 ints, so a recent row's sums go when the
    row is evicted and a checkpoint keeps its sums.
    :meth:`read` is the one way in: :func:`_read_row` calls it on the shared
    instance and hands out the held entry.

    A hit takes no lock and writes nothing: it is one ``dict`` read, which
    the GIL makes atomic, as ``series._pascal`` reads rely on. That is safe
    because held rows are never mutated; a hit whose recent row is evicted
    just after its read still holds the right entry. A miss takes the one
    lock, checks again, since another reader may have walked to the row
    meanwhile, then walks and inserts; the lock serializes walks, inserts
    and evictions, and guards ``_recent``, so an instance is safe to use
    from several threads. A sum is computed outside the lock: two readers
    who miss the same sum at once both compute it and store the same value.
    """

    def __init__(self):
        self._rows: dict[int, _RowSums] = {0: _RowSums([1])}
        self._recent: OrderedDict[int, int] = OrderedDict()
        self._recent_bytes = 0
        self._lock = threading.Lock()

    def read(self, n: int) -> _RowSums:
        """Row ``n >= 0`` as its held entry; the caller has checked ``n``."""
        held = self._rows.get(n)
        if held is not None:
            return held
        with self._lock:
            held = self._rows.get(n)
            if held is not None:
                return held
            rows = self._rows
            below = next(m for m in range(n - 1, -1, -1) if m in rows)  # row 0 is always held
            # a held row above only if strictly nearer: upward on a tie
            above = next((m for m in range(n + 1, 2 * n - below) if m in rows), None)
            if above is not None:
                row = rows[above].row
                for _ in range(above - n):  # passes no checkpoint: all below the top are held
                    row = _prev_stirling_row(row)
            else:
                row = rows[below].row
                for m in range(below + 1, n + 1):
                    row = _next_stirling_row(row)
                    if m % _CHECKPOINT_EVERY == 0:
                        rows[m] = _RowSums(row)
                if not n % _CHECKPOINT_EVERY:
                    return rows[n]  # row n, inserted last by the walk
            held = rows[n] = _RowSums(row)
            self._recent[n] = size = _row_bytes(row)
            self._recent_bytes += size
            while self._recent_bytes > _RECENT_BYTES and len(self._recent) > 1:
                old, size = self._recent.popitem(last=False)
                del rows[old]
                self._recent_bytes -= size
            return held


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


def _row_sum(row: list[int], shift: int, parity: int) -> int:
    """The class sum ``sum((k-shift)! * row[k])`` over ``shift <= k < len(row)``
    with ``k % 2 == parity``.

    The sum is accumulated in Horner form, from the top of the row down to
    the lowest kept k, ``shift`` or ``shift+1``, whose weight is 1: at each
    kept k the accumulator is multiplied by the small integer
    ``(k+1-shift)*(k+2-shift)`` and then takes ``row[k]``, so no step
    multiplies two big integers.
    """
    low = shift + (parity - shift) % 2
    total = 0
    for k in reversed(range(low, len(row), 2)):
        j = k - shift
        total *= (j + 1) * (j + 2)
        total += row[k]
    return total


def ordered_bell(n: int) -> int:
    """Number of ordered set partitions of an n-element set: sum of k!*S(n,k)."""
    sums = _read_row(_require_at_least(n, 0))
    return sums[0, 0] + sums[0, 1]


def ordered_bell_parity(n: int, parity: str) -> int:
    """Ordered set partitions of [n] whose block count has the given parity.

    ``sum(k! * S(n,k))`` restricted to even or odd ``k``; defined for n >= 1.
    """
    n = _require_at_least(n, 1)
    if parity not in ("even", "odd"):
        raise ArgumentError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _read_row(n)[0, 0 if parity == "even" else 1]


def cyclic_ordered_bell(n: int) -> int:
    """Set partitions of [n] with blocks arranged in a cycle: sum of (k-1)!*S(n,k)."""
    sums = _read_row(_require_at_least(n, 1))
    return sums[1, 0] + sums[1, 1]


def cyclic_ordered_bell_even(n: int) -> int:
    """Cyclic arrangements with an even number of blocks: sum of (k-1)!*S(n,k), k even."""
    return _read_row(_require_at_least(n, 1))[1, 0]


def cyclic_ordered_bell_odd(n: int) -> int:
    """Cyclic arrangements with an odd number of blocks: sum of (k-1)!*S(n,k), k odd."""
    return _read_row(_require_at_least(n, 1))[1, 1]


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
    """Yield the Worpitzky rows n = 0, 1, 2, ..., each as a pair ``(u, t)``.

    ``u`` is row n, which is ``U(n+1, k) = (k-1)! * S(n+1, k)`` for
    k = 1..n+1, since ``W(n, k-1) = (k-1)! * S(n+1, k)``, and ``t[i]`` is
    ``T(n+1, i+1) = (i+1) * u[i]``, the weight ``k!`` in place of
    ``(k-1)!``. The Stirling recurrence times ``(k-1)!`` reads
    ``U(n+2, k) = T(n+1, k) + T(n+1, k-1)``, so each product is computed
    once, for ``t``, and the next row adds neighbours of ``t``: the
    recurrence ``W(n,k) = (k+1)*W(n-1,k) + k*W(n-1,k-1)`` (Worpitzky 1883;
    OEIS A028246/A130850) with its products shared: n+1 per step where
    it takes 2n+1. No Stirling row is read, and the old pair is dropped
    before the next ``t`` is built. Slices of ``u`` give the identity
    sweep's cyclic class sums of row n+1, and slices of ``t`` its factorial
    ones. Callers must not mutate a yielded row: the next one is built from
    it.
    """
    u = [1]
    while True:
        t = list(map(mul, range(1, len(u) + 1), u))
        yield u, t
        u, t = [*map(add, [0, *t], [*t, 0])], None


def alternating_factorial_sum(n: int) -> int:
    """``sum((-1)^k * k! * S(n,k))``; equals (-1)^n for every n >= 1."""
    sums = _read_row(_require_at_least(n, 1))
    return sums[0, 0] - sums[0, 1]


def alternating_cyclic_sum(n: int) -> int:
    """``sum((-1)^k * (k-1)! * S(n,k))`` over k >= 1.

    Equals the even-block cyclic count minus the odd-block one: -1 at n=1
    and 0 for all n >= 2.
    """
    sums = _read_row(_require_at_least(n, 1))
    return sums[1, 0] - sums[1, 1]


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


@cache  # n <= MAX_ENUMERATION_N, so at most 13 keys
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
