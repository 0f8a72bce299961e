"""Expected values for the benchmark, computed without the fubini package.

The routes are the ones ``scripts/generate_fixtures.py`` uses, which share
no kernel with the library (it extends the Stirling triangle row by row
with ``S(n,k) = k*S(n-1,k) + S(n-1,k-1)`` and sums weighted rows):

* ordered Bell numbers by the binomial convolution
  ``a(n) = sum_{j=1..n} C(n,j) a(n-j)``;
* ``S(n,k)`` by the alternating-binomial formula
  ``k! S(n,k) = sum_{j=0..k} (-1)^j C(k,j) (k-j)^n``; a whole row is the
  same formula evaluated for every k at once, as the forward differences
  of ``i^n`` at 0;
* the cyclic counts by their relations to the ordered Bell numbers:
  ``cyclic(n) = 2 a(n-1)`` and ``even(n) = odd(n) = a(n-1)`` for n >= 2,
  with ``cyclic(1) = 1`` and the n=1 pair ``(even, odd) = (0, 1)``;
* the ordered Bell parity split by ``a(n) = (-1)^(n+1) + 2 even(n)
  = (-1)^n + 2 odd(n)``.

Only ``math`` is used, so nothing here can drift with the library.
"""

from fractions import Fraction
from math import comb, factorial


def ordered_bell_numbers(count: int) -> list[int]:
    """``[a(0), ..., a(count-1)]`` by the binomial convolution.

    The binomial coefficients come from Pascal's rule, row by row.
    """
    values, binomials = [1], [1]
    for n in range(1, count):
        binomials = [1] + [a + b for a, b in zip(binomials, binomials[1:])] + [1]
        values.append(sum(binomials[j] * values[n - j] for j in range(1, n + 1)))
    return values[:count]


def stirling2(n: int, k: int) -> int:
    """``S(n, k)`` by the alternating-binomial explicit formula."""
    if k > n:
        return 0
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    quotient, remainder = divmod(total, factorial(k))
    if remainder:
        raise ArithmeticError(f"S({n},{k}) is not an integer: {total}/{k}!")
    return quotient


def stirling2_row(n: int) -> list[int]:
    """``[S(n,0), ..., S(n,n)]`` from the forward differences of ``i^n`` at 0."""
    diffs = [i**n for i in range(n + 1)]
    row = []
    for k in range(n + 1):
        row.append(diffs[0] // factorial(k))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return row


def worpitzky(n: int, k: int) -> int:
    """``k! * S(n+1, k+1)``."""
    return factorial(k) * stirling2(n + 1, k + 1)


def cyclic(bell: list[int], n: int, parity: str | None = None) -> int:
    """Cyclic ordered Bell count at n >= 1, all blocks or one block-count parity."""
    if n < 1:
        raise ValueError(f"cyclic counts start at n=1, got {n}")
    if parity is None:
        return 1 if n == 1 else 2 * bell[n - 1]
    if n == 1:
        return {"even": 0, "odd": 1}[parity]
    return bell[n - 1]


def ordered_bell_parity(bell: list[int], n: int, parity: str) -> int:
    """Ordered set partitions of [n], n >= 1, with an even or odd block count."""
    sign = (-1) ** n
    twice = bell[n] + sign if parity == "even" else bell[n] - sign
    return twice // 2


# -- named sequences, as the CLI spells them ----------------------------------

FIRST_INDEX = {"bell": 0, "cyclic": 1, "cyclic-even": 1, "cyclic-odd": 1}


def range_values(name: str, bell: list[int], first: int, last: int) -> list[int]:
    """Values of a range sequence (``compute NAME --max``) for n = first..last."""
    if name == "bell":
        return bell[first : last + 1]
    parity = {"cyclic": None, "cyclic-even": "even", "cyclic-odd": "odd"}[name]
    return [cyclic(bell, n, parity) for n in range(first, last + 1)]


def egf_values(name: str, bell: list[int], order: int, k: int | None = None) -> list[int]:
    """The integer sequence ``n! [x^n]`` of a generating function, n = 0..order."""
    if name == "stirling-col":
        return [stirling2(n, k) for n in range(order + 1)]
    if name == "double-shifted-bell":
        return [0] + [2 * bell[n - 1] for n in range(1, order + 1)]
    if name == "bell":
        return bell[: order + 1]
    return [0] + range_values(name, bell, 1, order)


def egf_lines(values: list[int]) -> str:
    """CLI ``egf`` output: index, exact coefficient, and the n!-scaled value."""
    return "".join(
        f"{n} {Fraction(a, factorial(n))} {a}\n" for n, a in enumerate(values)
    )


def row_values(name: str, n: int) -> list[int]:
    """A triangle row (``compute NAME --n``) for k = 0..n."""
    if name == "stirling-row":
        return stirling2_row(n)
    return [worpitzky(n, k) for k in range(n + 1)]


# OEIS id -> (first index, function of the row number giving that row's entries)
TRIANGLES = {
    "A008277": (1, lambda r: stirling2_row(r + 1)[1:]),
    "A130850": (0, lambda r: [worpitzky(r, k) for k in range(r + 1)]),
}


def oeis_values(sequence_id: str, bell: list[int], limit: int) -> tuple[int, list[int]]:
    """``(first index, values up to index limit)`` of a bundled OEIS sequence."""
    if sequence_id == "A000670":
        return 0, bell[: limit + 1]
    first, row = TRIANGLES[sequence_id]
    values: list[int] = []
    r = 0
    while first + len(values) <= limit:
        values.extend(row(r))
        r += 1
    return first, values[: limit - first + 1]


def index_lines(first: int, values: list[int]) -> str:
    """``index value`` lines, the shape of ``compute`` and b-file output."""
    return "".join(f"{first + i} {v}\n" for i, v in enumerate(values))
