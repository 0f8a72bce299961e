"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` is a fixed-length coefficient vector kept up
to a truncation order N: ``coeffs[i]`` is the coefficient of ``x**i``.
All arithmetic is exact, and a binary operation truncates its result to
the smaller operand order, matching the usual formal-series semantics --
callers control precision by choosing orders.

Storage is in the exponential basis over one common denominator: a
series holds integer numerators ``a[0..N]`` and one integer ``d > 0``,
and coefficient n is ``a[n] / (d * n!)``.  The form is canonical
(``gcd(d, *a) == 1``), so equal series have equal storage and ``==`` is
structural.  ``a[n] / d`` is the n-th term of the sequence the series
generates as an EGF, and a product is the binomial convolution
``c[m] = sum_i C(m, i) a[i] b[m-i]`` over ``d * e``, so every inner loop
is integer-only; each operation ends with one content gcd.  ``coeffs``
and indexing build reduced ``Fraction``s only on the way out.

The transcendental operations are computed through their defining
differential relations, which therefore hold exactly at the truncation
order:

* ``g = f.exp()``      satisfies ``g' = f' * g`` and ``g(0) = 1``
  (requires a zero constant term: e itself is not rational);
* ``g = f.log()``      satisfies ``g' = f' / f`` and ``g(0) = 0``
  (requires constant term 1);
* ``f.atanh()``        is ``(log(1+f) - log(1-f)) / 2``
  (requires a zero constant term).

``inverse``, ``exp`` and ``log`` run these recurrences multiplied through
by powers of ``d`` and of the constant term's numerator, so they stay in
integers.  Every recurrence is O(N^2) multiply-adds; no attempt is made
at asymptotically fast multiplication (orders stay small here).

The binomial coefficients of those recurrences come from one Pascal table
per process (``_pascal``), grown on demand and shared by every operation,
so a run of series operations builds each row once. It keeps rows up to
order 256, ``_args.MAX_ORDER``: 0.54 MiB at order 160 and 1.6 MiB at 256. A
larger order builds its rows for the one call, since at order 1024 the
table would hold 50 MiB while the rows are only 11% of an ``inverse`` at
order 512.

The module also builds the exponential generating functions of the
package's sequences.  Under the EGF convention a series encodes the
integer sequence ``a(n) = n! * coeffs[n]``, recovered by
:meth:`TruncatedSeries.to_sequence`:

* ``ordered_bell_egf``             -> ``1 / (2 - e^x)``
* ``stirling_column_egf(k, ...)``  -> ``(e^x - 1)^k / k!``
* ``cyclic_ordered_bell_egf``      -> ``-log(2 - e^x)``
* ``double_shifted_bell_egf``      -> ``x - log(2 - e^x)``; its derivative
  is ``2 / (2 - e^x)``, i.e. exactly twice the ordered-Bell EGF, and its
  extracted sequence is ``2 * ordered_bell(n-1)`` for every n >= 1
* ``cyclic_ordered_bell_even_egf`` -> ``-log(e^x * (2 - e^x)) / 2``
* ``cyclic_ordered_bell_odd_egf``  -> ``atanh(e^x - 1)``
"""

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm
from numbers import Rational
from operator import add, mul

from fubini import _EXPORTS
from fubini._args import MAX_ORDER, _require_at_least, _require_int

__all__ = list(_EXPORTS["series"])

Coefficient = int | Fraction


def _exact(value) -> Coefficient:
    """``value`` as an ``int`` or a ``Fraction``; any other type raises ``TypeError``."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(
        f"series coefficients must be exact (int or Rational), "
        f"got {type(value).__name__} {value!r}"
    )


#: Largest order whose Pascal rows are kept in :data:`_pascal`: the CLI's
#: order cap.
_PASCAL_CAP = MAX_ORDER
#: Pascal's rows ``(C(m, 0), ..., C(m, m))`` for m = 0..len - 1, shared by
#: every operation in the process. It is replaced by a longer tuple when it
#: grows and never mutated, so threads read it without a lock.
_pascal = ((1,),)


def _next_pascal_row(row, _=None):
    """The row after ``row`` in Pascal's triangle; the step of ``accumulate``."""
    return (1, *map(add, row, row[1:]), 1)


def _binomial_rows(n: int):
    """The rows ``(C(m, 0), ..., C(m, m))`` for m = 0..n.

    Up to :data:`_PASCAL_CAP` they are a prefix of :data:`_pascal`, grown on
    demand; past it they are built for the call and dropped after it.
    """
    global _pascal
    if n > _PASCAL_CAP:
        return accumulate(range(n), _next_pascal_row, initial=(1,))
    table = _pascal
    if n >= len(table):
        grown = accumulate(range(n + 1 - len(table)), _next_pascal_row, initial=table[-1])
        _pascal = table = table[:-1] + tuple(grown)
    return table[: n + 1]


def _convolve(row, a, b_reversed) -> int:
    """``sum_i row[i] * a[i] * b_reversed[i]``, over the shortest of the three."""
    return sum(map(mul, map(mul, row, a), b_reversed))


def _times_powers(values, x: int) -> list[int]:
    """``[values[j] * x^j for each j]``, by a running power."""
    out, power = [], 1
    for value in values:
        out.append(value * power)
        power *= x
    return out


def _over_power(r, d: int) -> list[int]:
    """Numerators of ``r[j] / d^j`` (j = 0..n) over the common denominator ``d^n``."""
    return _times_powers(r[::-1], d)[::-1]


def _reduced(num, den: int) -> tuple[tuple[int, ...], int]:
    """``num`` and ``den != 0`` divided by their content, so that ``den > 0``."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


def _series(num, den: int) -> "TruncatedSeries":
    """The series with numerators ``num`` over ``den``, in canonical form."""
    s = object.__new__(TruncatedSeries)
    s._num, s._den = _reduced(num, den)
    return s


class TruncatedSeries:
    """Formal power series kept up to a fixed order, with exact coefficients.

    Coefficient n is ``_num[n] / (_den * n!)``, in canonical form.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs, order: int | None = None):
        if isinstance(coeffs, (str, bytes, bytearray)):
            _exact(coeffs)  # raises, naming the type
        cs = [_exact(c) for c in coeffs]
        if order is not None:
            order = _require_at_least(order, 0, "order")
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        scaled, weight = [], 1  # weight = n!
        for n, c in enumerate(cs):
            weight *= n or 1
            scaled.append(c * weight)
        den = lcm(*(s.denominator for s in scaled))
        num = [s.numerator * (den // s.denominator) for s in scaled]
        self._num, self._den = _reduced(num, den)

    # -- construction -------------------------------------------------

    # These and ``truncate`` check ``order`` themselves: the constructor reads
    # ``order=None`` as "keep the coefficients given", which would make
    # ``x(None)`` order 1.

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order=_require_at_least(order, 0, "order"))

    @classmethod
    def constant(cls, value: Coefficient, order: int) -> "TruncatedSeries":
        return cls([value], order=_require_at_least(order, 0, "order"))

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        """The identity series ``x`` (truncated to ``[0]`` at order 0)."""
        return cls([0, 1], order=_require_at_least(order, 0, "order"))

    # -- basic protocol ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        out, weight = [], self._den  # weight = d * n!
        for n, c in enumerate(self._num):
            weight *= n or 1
            out.append(Fraction(c, weight))
        return tuple(out)

    def __getitem__(self, i: int) -> Fraction:
        i, size = _require_int(i, "index"), len(self._num)
        if not -size <= i < size:
            raise IndexError(f"index {i} is out of range {-size}..{size - 1}")
        n = i % size  # a negative index counts from the end
        return Fraction(self._num[n], self._den * factorial(n))

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"TruncatedSeries([{body}])"

    def truncate(self, order: int) -> "TruncatedSeries":
        """Copy of this series cut (or zero-padded) to the given order."""
        size = _require_at_least(order, 0, "order") + 1
        num = self._num[:size]
        return _series(num + (0,) * (size - len(num)), self._den)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        d = self._den
        if isinstance(other, TruncatedSeries):
            e = other._den
            den = lcm(d, e)
            u, v = den // d, den // e
            return _series([u * a + v * b for a, b in zip(self._num, other._num)], den)
        c = _exact(other)
        den = lcm(d, c.denominator)
        u = den // d
        num = [u * a for a in self._num]
        num[0] += c.numerator * (den // c.denominator)
        return _series(num, den)

    __radd__ = __add__

    def __neg__(self):
        return _series([-a for a in self._num], self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -_exact(other))

    def __rsub__(self, other):
        return -self + _exact(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            a, b = self._num, other._num
            num = [
                _convolve(row, a, b[m::-1])
                for m, row in enumerate(_binomial_rows(n))
            ]
            return _series(num, self._den * other._den)
        c = _exact(other)
        p = c.numerator
        return _series([p * a for a in self._num], self._den * c.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        exponent = _require_at_least(exponent, 0, "exponent")
        # binary powering: one squaring per bit and one product per set bit
        result, base = TruncatedSeries.constant(1, self.order), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; the order drops by one (order 0 maps to zero)."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        # coefficient n of f' is (n+1) a[n+1] / (d (n+1)!) = a[n+1] / (d n!)
        return _series(self._num[1:], self._den)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse: f * f.inverse() == 1 up to the order.

        With ``b[m] / e = m! g[m]`` and ``a0 = a[0]``, the recurrence
        ``sum_i C(m, i) a[i] b[m-i] = 0`` (m >= 1) gives
        ``m! g[m] = d * r[m] / a0^(m+1)``, where ``r[0] = 1`` and
        ``r[m] = -sum_{i=1..m} C(m, i) a[i] a0^(i-1) r[m-i]``.
        """
        a, d, n = self._num, self._den, self.order
        a0 = a[0]
        if a0 == 0:
            raise ZeroDivisionError(
                "not invertible as power series: zero constant term"
            )
        p = _times_powers(a[1:], a0)
        r = [1]
        for m, row in enumerate(_binomial_rows(n)):
            if m:
                r.append(-_convolve(row[1:], p, r[::-1]))
        return _series(_over_power([d * c for c in r], a0), a0 ** (n + 1))

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term.

        Built coefficient by coefficient from ``g' = f' * g``.  With
        ``b[j] = j! g[j]`` this reads
        ``b[m+1] = sum_{i=0..m} C(m, i) (a[i+1] / d) b[m-i]``; putting
        ``b[j] = r[j] / d^j`` gives the integer recurrence
        ``r[m+1] = sum_{i=0..m} C(m, i) a[i+1] d^i r[m-i]``, ``r[0] = 1``.
        """
        a, d, n = self._num, self._den, self.order
        if a[0] != 0:
            raise ValueError(
                "series exp needs a zero constant term (e is not rational)"
            )
        p = _times_powers(a[1:], d)
        r = [1]
        for m, row in enumerate(_binomial_rows(n - 1)):
            r.append(_convolve(row, p, r[::-1]))
        return _series(_over_power(r, d), d ** n)

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term 1.

        Built from ``f * g' = f'``.  With ``b[j] = j! g[j]`` this reads
        ``sum_{i=0..m} C(m, i) (a[i] / d) b[m+1-i] = a[m+1] / d``, where
        ``a[0] = d``; putting ``b[j] = r[j] / d^j`` gives the integer
        recurrence ``r[m+1] = a[m+1] d^m - sum_{i=1..m} C(m, i) a[i] d^(i-1)
        r[m+1-i]``, ``r[0] = 0``.
        """
        a, d, n = self._num, self._den, self.order
        if a[0] != d:
            raise ValueError("series log needs constant term 1")
        p = _times_powers(a[1:], d)
        r = [0]
        for m, row in enumerate(_binomial_rows(n - 1)):
            r.append(p[m] - _convolve(row[1:], p, r[:0:-1]))
        return _series(_over_power(r, d), d ** n)

    def atanh(self) -> "TruncatedSeries":
        """Inverse hyperbolic tangent of a series with zero constant term."""
        if self._num[0] != 0:
            raise ValueError("series atanh needs a zero constant term")
        one = TruncatedSeries.constant(1, self.order)
        return ((one + self).log() - (one - self).log()) * Fraction(1, 2)

    # -- EGF extraction --------------------------------------------------

    def to_sequence(self) -> list[int]:
        """Integer sequence under the EGF convention: ``a(n) = n! * coeffs[n]``.

        Raises if any scaled coefficient is not an integer, which signals
        a series construction bug rather than bad input. The storage is
        canonical, so the sequence is integral exactly when ``d == 1``.
        """
        d = self._den
        if d != 1:
            n, c = next((n, c) for n, c in enumerate(self._num) if c % d)
            raise ValueError(f"not an integer EGF: {n}! * coefficient {n} = {Fraction(c, d)}")
        return list(self._num)


def _egf_terms(s: TruncatedSeries) -> list:
    """``n! * s.coeffs[n]`` for each n, an ``int`` where it is integral and a
    ``Fraction`` elsewhere; unlike ``to_sequence`` it never raises, so a
    verifier can report a non-integral term as a failed comparison."""
    d = s._den
    if d == 1:
        return list(s._num)
    return [c // d if c % d == 0 else Fraction(c, d) for c in s._num]


# ---------------------------------------------------------------------------
# Generating-function builders
# ---------------------------------------------------------------------------


def exp_series(order: int) -> TruncatedSeries:
    """``e^x``: coefficients ``1/n!`` (the EGF of the all-ones sequence)."""
    return _series([1] * (_require_at_least(order, 0, "order") + 1), 1)


def ordered_bell_egf(order: int) -> TruncatedSeries:
    """``1 / (2 - e^x)``; extracts the ordered Bell numbers."""
    return (2 - exp_series(order)).inverse()


def stirling_column_egf(k: int, order: int) -> TruncatedSeries:
    """``(e^x - 1)^k / k!``; extracts the k-block partition counts S(n, k).

    It has no term below ``x^k``, so a column past the order is zero.
    """
    k, order = _require_at_least(k, 0, "k"), _require_at_least(order, 0, "order")
    if k > order:
        return TruncatedSeries.zero(order)
    return (exp_series(order) - 1) ** k * Fraction(1, factorial(k))


def cyclic_ordered_bell_egf(order: int) -> TruncatedSeries:
    """``-log(2 - e^x)``; extracts the cyclic ordered Bell numbers."""
    return -((2 - exp_series(order)).log())


def double_shifted_bell_egf(order: int) -> TruncatedSeries:
    """``x - log(2 - e^x)``; extracts ``2 * ordered_bell(n-1)`` for n >= 1.

    Differentiating gives ``1 + e^x/(2-e^x) = 2/(2-e^x)``, twice the
    ordered-Bell EGF -- the identity the verification suite checks
    coefficientwise.
    """
    return TruncatedSeries.x(order) + cyclic_ordered_bell_egf(order)


def cyclic_ordered_bell_even_egf(order: int) -> TruncatedSeries:
    """``-log(e^x * (2 - e^x)) / 2``; extracts the even-block cyclic counts.

    With ``z = e^x - 1`` this is ``-log(1 - z^2)/2 = sum z^(2k)/(2k)``,
    the even-k half of ``-log(1 - z) = sum z^k/k``.
    """
    e = exp_series(order)
    return (e * (2 - e)).log() * Fraction(-1, 2)


def cyclic_ordered_bell_odd_egf(order: int) -> TruncatedSeries:
    """``atanh(e^x - 1)``; extracts the odd-block cyclic counts.

    With ``z = e^x - 1`` this is ``sum z^(2k+1)/(2k+1)``, the odd-k half
    of ``-log(1 - z)``; adding the even half gives ``-log(2 - e^x)``.
    """
    return (exp_series(order) - 1).atanh()
