"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` is a fixed-length coefficient vector:
``coeffs[i]`` is the coefficient of ``x**i``, kept up to a truncation
order N.  All arithmetic is exact (``fractions.Fraction``, so every
coefficient stays in lowest terms with a positive denominator), and a
binary operation truncates its result to the smaller operand order,
matching the usual formal-series semantics -- callers control precision
by choosing orders.

The transcendental operations are computed through their defining
differential relations, which therefore hold exactly at the truncation
order:

* ``g = f.exp()``      satisfies ``g' = f' * g`` and ``g(0) = 1``
  (requires a zero constant term: e itself is not rational);
* ``g = f.log()``      satisfies ``g' = f' / f`` and ``g(0) = 0``
  (requires constant term 1);
* ``f.atanh()``        is ``(log(1+f) - log(1-f)) / 2``
  (requires a zero constant term).

Both recurrences are plain O(N^2) rational loops; no attempt is made at
asymptotically fast multiplication (orders stay small here).

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
from math import factorial

__all__ = [
    "TruncatedSeries",
    "cyclic_ordered_bell_egf",
    "cyclic_ordered_bell_even_egf",
    "cyclic_ordered_bell_odd_egf",
    "double_shifted_bell_egf",
    "exp_series",
    "ordered_bell_egf",
    "stirling_column_egf",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

Coefficient = int | Fraction


def _exact(value) -> Fraction:
    """``value`` as a ``Fraction``; floats and complex numbers raise ``TypeError``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, complex)):
        raise TypeError(
            f"series coefficients must be exact, got {type(value).__name__} {value!r}"
        )
    return Fraction(value)


class TruncatedSeries:
    """Formal power series kept up to a fixed order, with exact coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [_exact(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"order must be >= 0, got {order}")
            cs = cs[: order + 1] + [_ZERO] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(cs)

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order=order)

    @classmethod
    def constant(cls, value: Coefficient, order: int) -> "TruncatedSeries":
        return cls([value], order=order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        """The identity series ``x`` (truncated to ``[0]`` at order 0)."""
        return cls([0, 1], order=order)

    # -- basic protocol ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, i: int) -> Fraction:
        return self._coeffs[i]

    def __iter__(self):
        return iter(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self._coeffs)
        return f"TruncatedSeries([{body}])"

    def truncate(self, order: int) -> "TruncatedSeries":
        """Copy of this series cut (or zero-padded) to the given order."""
        return TruncatedSeries(self._coeffs, order=order)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(
                [a + b for a, b in zip(self._coeffs, other._coeffs)], order=n
            )
        cs = list(self._coeffs)
        cs[0] += _exact(other)
        return TruncatedSeries(cs)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -_exact(other))

    def __rsub__(self, other):
        return -self + _exact(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            f, g = self._coeffs, other._coeffs
            return TruncatedSeries(
                [sum(f[i] * g[m - i] for i in range(m + 1)) for m in range(n + 1)]
            )
        scale = _exact(other)
        return TruncatedSeries([scale * c for c in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"series power needs a nonnegative integer, got {exponent}")
        result = TruncatedSeries.constant(1, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; the order drops by one (order 0 maps to zero)."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries([i * c for i, c in enumerate(self._coeffs)][1:])

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse: f * f.inverse() == 1 up to the order."""
        f = self._coeffs
        if f[0] == 0:
            raise ZeroDivisionError(
                "not invertible as power series: zero constant term"
            )
        g = [_ONE / f[0]]
        for m in range(1, self.order + 1):
            g.append(-sum(f[i] * g[m - i] for i in range(1, m + 1)) / f[0])
        return TruncatedSeries(g)

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term.

        Built coefficient by coefficient from ``g' = f' * g``:
        ``(m+1) g[m+1] = sum_{i=0..m} (i+1) f[i+1] g[m-i]``.
        """
        f = self._coeffs
        if f[0] != 0:
            raise ValueError(
                "series exp needs a zero constant term (e is not rational)"
            )
        g = [_ONE]
        for m in range(self.order):
            total = sum((i + 1) * f[i + 1] * g[m - i] for i in range(m + 1))
            g.append(total / (m + 1))
        return TruncatedSeries(g)

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term 1.

        Built from ``f * g' = f'``:
        ``(m+1) g[m+1] = (m+1) f[m+1] - sum_{j=1..m} j g[j] f[m+1-j]``.
        """
        f = self._coeffs
        if f[0] != 1:
            raise ValueError("series log needs constant term 1")
        g = [_ZERO]
        for m in range(self.order):
            total = (m + 1) * f[m + 1] - sum(
                j * g[j] * f[m + 1 - j] for j in range(1, m + 1)
            )
            g.append(total / (m + 1))
        return TruncatedSeries(g)

    def atanh(self) -> "TruncatedSeries":
        """Inverse hyperbolic tangent of a series with zero constant term."""
        if self._coeffs[0] != 0:
            raise ValueError("series atanh needs a zero constant term")
        one = TruncatedSeries.constant(1, self.order)
        return ((one + self).log() - (one - self).log()) * Fraction(1, 2)

    # -- EGF extraction --------------------------------------------------

    def to_sequence(self) -> list[int]:
        """Integer sequence under the EGF convention: ``a(n) = n! * coeffs[n]``.

        Raises if any scaled coefficient is not an integer, which signals
        a series construction bug rather than bad input.
        """
        out = []
        for n, c in enumerate(self._coeffs):
            scaled = factorial(n) * c
            if scaled.denominator != 1:
                raise ValueError(
                    f"not an integer EGF: {n}! * coefficient {n} = {scaled}"
                )
            out.append(int(scaled))
        return out


# ---------------------------------------------------------------------------
# Generating-function builders
# ---------------------------------------------------------------------------


def exp_series(order: int) -> TruncatedSeries:
    """``e^x``: coefficients ``1/n!`` (the EGF of the all-ones sequence)."""
    return TruncatedSeries([Fraction(1, factorial(n)) for n in range(order + 1)])


def ordered_bell_egf(order: int) -> TruncatedSeries:
    """``1 / (2 - e^x)``; extracts the ordered Bell numbers."""
    return (2 - exp_series(order)).inverse()


def stirling_column_egf(k: int, order: int) -> TruncatedSeries:
    """``(e^x - 1)^k / k!``; extracts the k-block partition counts S(n, k)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
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
