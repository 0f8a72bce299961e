"""One record per named sequence, read by the CLI, the b-file tools and the EGF checks.

Adding a sequence is one :class:`Sequence` entry. Each route looks up its
``sequences`` or ``series`` function when called, so a patched or wrapped
one is used; the registry holds no arithmetic, so the routes stay independent.
The memo-row routes read through ``sequences._read_row``, the seam for memo
rows (``stirling-row`` through its copying reader ``stirling2_row``), so a
row fed in there reaches them all.
``series`` is imported by the first EGF built, not with the registry.
"""

from fubini import sequences

__all__ = ["BY_OEIS_ID", "SEQUENCES", "Sequence"]


class Sequence:
    """A named sequence: ``route(n)`` is the direct integer route, a(n) for
    ``n >= first`` or, if ``row``, the triangle row k = 0..n; ``egf(order)``
    builds the exponential generating function.
    """

    __slots__ = ("name", "first", "route", "egf", "oeis_id", "row")

    def __init__(self, name, first, route=None, egf=None, oeis_id=None, row=False):
        self.name, self.first, self.route = name, first, route
        self.egf, self.oeis_id, self.row = egf, oeis_id, row

    def terms(self, n_max: int, name: str = "n_max") -> list[int]:
        """a(first..n_max); a triangle is read by rows n >= first, each from k = first."""
        last = sequences._require_at_least(n_max, self.first, name)
        if not self.row:
            return [self.route(n) for n in range(self.first, last + 1)]
        values, n = [], self.first
        while self.first + len(values) <= last:
            values += self.route(n)[self.first:]
            n += 1
        return values[: last - self.first + 1]


def _egf(builder: str):
    """The route ``order -> series.<builder>(order)``, importing ``series`` when called."""

    def egf(order):
        from fubini import series

        return getattr(series, builder)(order)

    return egf


#: Every named sequence by CLI name, in the order the CLI lists them.
SEQUENCES = {s.name: s for s in (
    Sequence("bell", 0, lambda n: sequences.ordered_bell(n),
             _egf("ordered_bell_egf"), "A000670"),
    Sequence("cyclic", 1, lambda n: sequences.cyclic_ordered_bell(n),
             _egf("cyclic_ordered_bell_egf")),
    Sequence("cyclic-even", 1, lambda n: sequences.cyclic_ordered_bell_even(n),
             _egf("cyclic_ordered_bell_even_egf")),
    Sequence("cyclic-odd", 1, lambda n: sequences.cyclic_ordered_bell_odd(n),
             _egf("cyclic_ordered_bell_odd_egf")),
    Sequence("double-shifted-bell", 1, egf=_egf("double_shifted_bell_egf")),
    Sequence("stirling-row", 1, lambda n: sequences.stirling2_row(n),
             oeis_id="A008277", row=True),
    Sequence("worpitzky-row", 0, lambda n: sequences.worpitzky_row(n),
             oeis_id="A130850", row=True),
)}

#: The sequences with an OEIS id; each ships the b-file ``data/b<id digits>.txt``.
BY_OEIS_ID = {s.oeis_id: s for s in SEQUENCES.values() if s.oeis_id}
