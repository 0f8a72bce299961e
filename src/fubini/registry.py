"""One record per named sequence, read by the CLI, the b-file tools and the EGF checks.

Adding a sequence is one :class:`Sequence` entry. Every route, EGF builder
and verifier in the tables is a ``_late(module, name)`` call: it imports
``fubini.<module>`` and looks ``name`` up each time it is called, so a
patched or traced function runs. The registry holds no arithmetic, so the
routes stay independent. The memo-row routes read through
``sequences._read_row``, the seam for memo rows (``stirling-row`` through
its copying reader ``stirling2_row``), so a row fed in there reaches them
all. :data:`VERIFY_TARGETS` maps each ``fubini verify`` choice, ``"all"``
first, to ``(verifier, flags)``, where ``flags`` names the parsed
arguments the verifier takes, which are also the only flags ``fubini
verify`` accepts for that target.

Loading the registry loads no arithmetic: ``sequences`` is imported by the
first direct route called, ``series`` by the first EGF built and
``identities`` by the first verify target run. So ``fubini egf`` never
loads ``sequences`` or ``identities``, and ``fubini compute`` never loads
``series`` or ``identities``.
"""

from importlib import import_module

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


def _late(module: str, name: str):
    """A call of ``fubini.<module>.<name>`` that imports the module and looks
    ``name`` up each time it is called, so a patched or traced function runs."""

    def call(*args):
        return getattr(import_module(f"fubini.{module}"), name)(*args)

    return call


#: Every named sequence by CLI name, in the order the CLI lists them.
SEQUENCES = {s.name: s for s in (
    Sequence("bell", 0, _late("sequences", "ordered_bell"),
             _late("series", "ordered_bell_egf"), "A000670"),
    Sequence("cyclic", 1, _late("sequences", "cyclic_ordered_bell"),
             _late("series", "cyclic_ordered_bell_egf")),
    Sequence("cyclic-even", 1, _late("sequences", "cyclic_ordered_bell_even"),
             _late("series", "cyclic_ordered_bell_even_egf")),
    Sequence("cyclic-odd", 1, _late("sequences", "cyclic_ordered_bell_odd"),
             _late("series", "cyclic_ordered_bell_odd_egf")),
    Sequence("double-shifted-bell", 1, egf=_late("series", "double_shifted_bell_egf")),
    Sequence("stirling-row", 1, _late("sequences", "stirling2_row"),
             oeis_id="A008277", row=True),
    Sequence("worpitzky-row", 0, _late("sequences", "worpitzky_row"),
             oeis_id="A130850", row=True),
)}

#: The sequences with an OEIS id; each ships the b-file ``data/b<id digits>.txt``.
BY_OEIS_ID = {s.oeis_id: s for s in SEQUENCES.values() if s.oeis_id}

#: ``fubini verify`` choice -> ``(verifier, flags)``, in the order the CLI
#: lists them: ``flags`` names the parsed arguments the verifier takes, in
#: order, and the CLI refuses any other. ``verify_all`` sweeps the integer
#: identities itself, in one pass.
VERIFY_TARGETS = {
    "all": (_late("identities", "verify_all"), ("n_max", "order")),
    "bell": (_late("identities", "verify_bell_forms"), ("n_max",)),
    "cyclic": (_late("identities", "verify_cyclic_doubling"), ("n_max",)),
    "alternating": (_late("identities", "verify_alternating_sums"), ("n_max",)),
    "parity": (_late("identities", "verify_parity_split"), ("n_max",)),
    "egf": (_late("identities", "verify_egf_agreement"), ("order",)),
}
