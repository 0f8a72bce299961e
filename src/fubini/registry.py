"""One record per named sequence, read by the CLI, the b-file tools and the EGF checks.

Adding a sequence is one :class:`Sequence` entry. Each route looks up its
``sequences`` or ``series`` function when called, so a patched or wrapped
one is used; the registry holds no arithmetic, so the routes stay independent.
The memo-row routes read through ``sequences._read_row``, the seam for memo
rows (``stirling-row`` through its copying reader ``stirling2_row``), so a
row fed in there reaches them all. :data:`VERIFY_TARGETS` names the
``identities`` verifier of each ``fubini verify TARGET``, looked up the same
way.

Loading the registry loads no arithmetic: ``sequences`` is imported by the
first direct route called, ``series`` by the first EGF built and
``identities`` by the first verify target run. So ``fubini egf`` never
loads ``sequences`` or ``identities``, and ``fubini compute`` never loads
``series`` or ``identities``.
"""

from fubini._args import _require_at_least

__all__ = ["BY_OEIS_ID", "SEQUENCES", "VERIFY_TARGETS", "Sequence"]


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
        last = _require_at_least(n_max, self.first, name)
        if not self.row:
            return [self.route(n) for n in range(self.first, last + 1)]
        values, n = [], self.first
        while self.first + len(values) <= last:
            values += self.route(n)[self.first:]
            n += 1
        return values[: last - self.first + 1]


def _route(function: str):
    """The route ``n -> sequences.<function>(n)``, importing ``sequences`` when called."""

    def route(n):
        from fubini import sequences

        return getattr(sequences, function)(n)

    return route


def _egf(builder: str):
    """The route ``order -> series.<builder>(order)``, importing ``series`` when called."""

    def egf(order):
        from fubini import series

        return getattr(series, builder)(order)

    return egf


def _target(verifier: str, by_order: bool = False):
    """The verify target ``(n_max, order) -> identities.<verifier>(n_max)``, or
    ``(order)`` if ``by_order``, importing ``identities`` when called."""

    def target(n_max, order):
        from fubini import identities

        return getattr(identities, verifier)(order if by_order else n_max)

    return target


#: Every named sequence by CLI name, in the order the CLI lists them.
SEQUENCES = {s.name: s for s in (
    Sequence("bell", 0, _route("ordered_bell"),
             _egf("ordered_bell_egf"), "A000670"),
    Sequence("cyclic", 1, _route("cyclic_ordered_bell"),
             _egf("cyclic_ordered_bell_egf")),
    Sequence("cyclic-even", 1, _route("cyclic_ordered_bell_even"),
             _egf("cyclic_ordered_bell_even_egf")),
    Sequence("cyclic-odd", 1, _route("cyclic_ordered_bell_odd"),
             _egf("cyclic_ordered_bell_odd_egf")),
    Sequence("double-shifted-bell", 1, egf=_egf("double_shifted_bell_egf")),
    Sequence("stirling-row", 1, _route("stirling2_row"),
             oeis_id="A008277", row=True),
    Sequence("worpitzky-row", 0, _route("worpitzky_row"),
             oeis_id="A130850", row=True),
)}

#: The sequences with an OEIS id; each ships the b-file ``data/b<id digits>.txt``.
BY_OEIS_ID = {s.oeis_id: s for s in SEQUENCES.values() if s.oeis_id}

#: Verify target -> its sweeps, as a function of ``(n_max, order)``, in the
#: order the CLI lists them. ``verify_all`` sweeps the integer identities
#: itself, in one pass.
VERIFY_TARGETS = {
    "bell": _target("verify_bell_forms"),
    "cyclic": _target("verify_cyclic_doubling"),
    "alternating": _target("verify_alternating_sums"),
    "parity": _target("verify_parity_split"),
    "egf": _target("verify_egf_agreement", by_order=True),
}
