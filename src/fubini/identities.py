"""Sweeping verifiers for the weighted-sum identities.

Each verifier checks one or more identities over a configurable range,
computing both sides by independent routes (direct integer sums on one
side, rational series coefficient extraction on the other where that
applies) and reporting the smallest failing index instead of raising: a
violated identity means a code bug, and the report carries the evidence.

Every report comes from one loop, ``_sweep(lo, hi, checks, states)``. Each
check yields an identity's ``(expected, actual)`` pairs at one n, and the
loop is n-major: for each n = lo..hi it runs every identity that has not
failed yet. So a report's failure is at its smallest failing n, and an
identity is not checked past it. The b-file crosscheck
(``bfiles.crosscheck``) runs through the same loop.

The seven integer identities are checks on a window of three rows' sums,
for n-1, n and n+1, that slides forward over n in one pass. Row n's sums
come from one stream, ``sequences._rows``, the stream reader: Stirling row
n of ``sequences._stirling_rows``, built by its own recurrence, not read
from the shared memo, and wrapped in a ``sequences._RowSums``. Every sum
is read by its ``_RowSums`` key: ``(shift, parity)`` is one parity class
of the row, and ``(shift, None)`` the two classes added, so
``ordered_bell`` is ``(0, None)`` and the cyclic total ``(1, None)``; the
alternating sums subtract the two classes. Each class sum is the Horner
walk ``sequences._row_sum``, run once per row: the first read of either
class of a weight walks both classes of that weight. So the paper's
identity checks the cyclic walks of row n+1 against the factorial walks
of row n at every n of the sweep, past ``--order``, where no EGF checks
them. A row is dropped when the window leaves it. ``compute`` and the
b-file tools print from the same stream reader, so the values they print
are these sums, read by the same keys off the same stream.

On one stream, two groups of ids read the same sums: ``bell.parity-split``
and ``alternating.factorial`` both compare the two factorial classes of
row n; ``bell.shifted-cyclic``, ``cyclic.parity-equal`` and
``worpitzky.parity-rows`` all compare the ``(0, None)`` sum of row m with
the cyclic classes of row m+1, and only the ends of their ranges differ.
Each of the four integer verifiers names its own identities and runs them
through the same pass, walking only the weights they read, and
``verify_all`` runs all seven in one. Reports follow ``_INTEGER_CHECKS``
order, which the integer targets of ``registry.VERIFY_TARGETS`` follow in
turn.

The three EGF identities are checked by ``verify_egf_agreement``, which
builds each registry EGF once, up front, and shares it between the checks;
at each n it takes Stirling row n's entry once off its own
``sequences._rows`` stream, hands it to each registry route and to the
alternating cyclic sum, as their ``sums``, and reads the columns' direct
side from its row, so no EGF check reads the shared memo. Two whole
series are compared with ``==`` once (exact, since their storage is
canonical), and only two that differ are compared coefficient by
coefficient.

The full registry of identity ids:

* ``bell.parity-split``     ordered_bell(n) == (-1)^(n+1) + 2 * (even-block
  ordered count) == (-1)^n + 2 * (odd-block ordered count)
* ``bell.shifted-cyclic``   ordered_bell(n) == cyclic even-block count at
  n+1 == cyclic odd-block count at n+1
* ``cyclic.doubling``       cyclic_ordered_bell(1) == 1 and
  cyclic_ordered_bell(n) == 2 * ordered_bell(n-1) for n >= 2
* ``cyclic.parity-equal``   even-block == odd-block == ordered_bell(n-1)
  for n >= 2 (at n=1 the pair is (0, 1))
* ``alternating.factorial`` sum((-1)^k k! S(n,k)) == (-1)^n
* ``alternating.cyclic``    sum((-1)^k (k-1)! S(n,k)) == -1 at n=1, else 0
* ``worpitzky.parity-rows`` even- and odd-index Worpitzky row sums both
  equal ordered_bell(n); Worpitzky row n is k! S(n+1,k+1), so its sums are
  the cyclic classes of Stirling row n+1, the pairs ``bell.shifted-cyclic``
  compares, odd-block first
* ``egf.agreement``         every generating function extracts the matching
  directly computed sequence
* ``egf.parity-split``      even-egf + odd-egf == cyclic-egf
  coefficientwise, and (even-egf - odd-egf) extracts the alternating
  cyclic sums
* ``egf.derivative``        derivative of (x - log(2 - e^x)) == twice the
  ordered-Bell EGF, coefficientwise
"""

import itertools

from fubini import _EXPORTS, registry, sequences

__all__ = list(_EXPORTS["identities"])

class VerificationReport(sequences._FrozenRecord):
    """Outcome of sweeping one identity over a range of indices.

    ``status`` is "pass" exactly when no counterexample was found;
    otherwise ``first_failure`` holds ``(n, expected, actual)`` for the
    smallest index checked that failed.
    """

    __slots__ = ("identity_id", "range_checked", "status", "first_failure")

    def __init__(
        self,
        identity_id: str,
        range_checked: tuple[int, int],
        status: str,
        first_failure: tuple[int, object, object] | None = None,
    ):
        if status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {status!r}")
        if (status == "pass") != (first_failure is None):
            raise ValueError("status and first_failure are inconsistent")
        self._set(identity_id, range_checked, status, first_failure)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def format_line(self) -> str:
        lo, hi = self.range_checked
        line = f"{self.identity_id} n={lo}..{hi} {self.status}"
        if self.first_failure is not None:
            n, expected, actual = self.first_failure
            line += f" first_failure: n={n} expected={expected} actual={actual}"
        return line

    def to_dict(self) -> dict:
        failure = None
        if self.first_failure is not None:
            n, expected, actual = self.first_failure
            failure = {"n": n, "expected": str(expected), "actual": str(actual)}
        return {
            "identity_id": self.identity_id,
            "range_checked": list(self.range_checked),
            "status": self.status,
            "first_failure": failure,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)


def _report(identity_id, lo, hi, failure=None) -> VerificationReport:
    status = "pass" if failure is None else "fail"
    return VerificationReport(identity_id, (lo, hi), status, failure)


def _sweep(lo, hi, checks, states=None) -> list[VerificationReport]:
    """One report per identity of ``checks``, in its order, over n = lo..hi.

    ``checks`` maps an identity id to ``check(n, *state)``, which yields the
    identity's ``(expected, actual)`` pairs at n; ``states`` yields one
    ``state`` tuple per n (none given: the empty tuple). The loop is n-major:
    at each n it runs every identity not yet failed, so a report's failure
    is at its smallest failing n. Once every identity has failed, no further
    state is pulled.
    """
    failures = {}
    for n, state in zip(range(lo, hi + 1), states or itertools.repeat(())):
        for identity_id, check in checks.items():
            if identity_id not in failures:
                for expected, actual in check(n, *state):
                    if expected != actual:
                        failures[identity_id] = (n, expected, actual)
                        break
        if len(failures) == len(checks):
            break
    return [_report(i, lo, hi, failures.get(i)) for i in checks]


def _require_range(n_max, name: str = "n_max") -> int:
    try:
        return sequences._require_at_least(n_max, 1, name)
    except sequences.ArgumentError as exc:
        raise sequences.ArgumentError(f"empty range: {exc}") from None


# Each integer identity's checks at one n: ``check(n, prev, cur, nxt)`` yields
# ``(expected, actual)`` pairs in order, from the ``_RowSums`` of Stirling rows
# n-1, n and n+1 (``prev`` is None at n = 1).


def _bell_parity_split(n, prev, cur, nxt):
    b, sign = cur[0, None], (-1) ** n
    yield b, -sign + 2 * cur[0, 0]
    yield b, sign + 2 * cur[0, 1]


def _bell_shifted_cyclic(n, prev, cur, nxt):
    yield cur[0, None], nxt[1, 0]
    yield cur[0, None], nxt[1, 1]


def _cyclic_doubling(n, prev, cur, nxt):
    yield 1 if n == 1 else 2 * prev[0, None], cur[1, None]


def _alternating_factorial(n, prev, cur, nxt):
    yield (-1) ** n, cur[0, 0] - cur[0, 1]


def _alternating_cyclic(n, prev, cur, nxt):
    yield -1 if n == 1 else 0, cur[1, 0] - cur[1, 1]


def _cyclic_parity_equal(n, prev, cur, nxt):
    even, odd = (0, 1) if n == 1 else (prev[0, None],) * 2
    yield even, cur[1, 0]
    yield odd, cur[1, 1]


def _worpitzky_parity_rows(n, prev, cur, nxt):
    # W(n, k) = k! S(n+1, k+1), so Worpitzky row n's even-index sum is the odd
    # cyclic class of row n+1, and its odd-index sum the even one
    yield cur[0, None], nxt[1, 1]
    yield cur[0, None], nxt[1, 0]


#: Integer identity id -> its checks at one n, in report order.
_INTEGER_CHECKS = {
    "bell.parity-split": _bell_parity_split,
    "bell.shifted-cyclic": _bell_shifted_cyclic,
    "cyclic.doubling": _cyclic_doubling,
    "alternating.factorial": _alternating_factorial,
    "alternating.cyclic": _alternating_cyclic,
    "cyclic.parity-equal": _cyclic_parity_equal,
    "worpitzky.parity-rows": _worpitzky_parity_rows,
}

IDENTITY_IDS = frozenset(_INTEGER_CHECKS) | {"egf.agreement", "egf.parity-split", "egf.derivative"}


def _row_windows():
    """Yield the integer checks' rows after n, ``(prev, cur, nxt)``, for
    n = 1, 2, ...

    The ``_RowSums`` of Stirling rows 1, 2, ... come from
    ``sequences._rows``, the stream reader, looked up here, not from the
    shared memo; each walks both classes of a weight when a check first
    reads either. Only rows n-1, n and n+1 are live, and the recurrence
    steps once per row, when the window for the n before it is pulled.
    """
    rows = sequences._rows(1)
    prev, cur = None, next(rows)
    for nxt in rows:
        yield prev, cur, nxt
        prev, cur = cur, nxt


def _sweep_integers(n_max: int, identity_ids) -> list[VerificationReport]:
    """Check the given integer identities over n = 1..n_max in one forward
    pass of ``_row_windows``."""
    n_max = _require_range(n_max)
    checks = {i: _INTEGER_CHECKS[i] for i in identity_ids}
    return _sweep(1, n_max, checks, _row_windows())


def verify_bell_forms(n_max: int) -> list[VerificationReport]:
    """Both four-way decompositions of the ordered Bell numbers."""
    return _sweep_integers(n_max, ("bell.parity-split", "bell.shifted-cyclic"))


def verify_cyclic_doubling(n_max: int) -> list[VerificationReport]:
    """Cyclic ordered Bell numbers are twice the shifted ordered Bell numbers."""
    return _sweep_integers(n_max, ("cyclic.doubling",))


def verify_alternating_sums(n_max: int) -> list[VerificationReport]:
    """The two alternating weighted sums collapse to signs."""
    return _sweep_integers(n_max, ("alternating.factorial", "alternating.cyclic"))


def verify_parity_split(n_max: int) -> list[VerificationReport]:
    """Even- and odd-block cyclic counts coincide, in both weight notations."""
    return _sweep_integers(n_max, ("cyclic.parity-equal", "worpitzky.parity-rows"))


#: The Stirling columns k = 0.._STIRLING_COLUMNS - 1 that ``egf.agreement`` checks.
_STIRLING_COLUMNS = 11


def _stirling_columns(order: int):
    """Yield the Stirling column EGFs ``(e^x - 1)^k / k!`` for k = 0..10.

    Column k is column k-1 times ``(e^x - 1) / k``: one series product per
    column, where ``series.stirling_column_egf`` raises to the k-th power.
    """
    from fractions import Fraction

    from fubini import series

    z = series.exp_series(order) - 1
    column = series.TruncatedSeries.constant(1, order)
    for k in range(_STIRLING_COLUMNS):
        if k:
            column = column * z * Fraction(1, k)
        yield column


def verify_egf_agreement(order: int) -> list[VerificationReport]:
    """Every generating function agrees with the direct integer route.

    The registry EGFs are built once, in registry order, then the Stirling
    columns, then the derivative's two sides; its right side is the
    ordered-Bell EGF cut to ``order - 1``. The checks run n-major over one
    ``sequences._rows`` stream, each n's state the entry of Stirling row
    n, pulled once: every registry route and the alternating cyclic sum
    take it as their ``sums``, and its row is the columns' direct side.
    The derivative's two sides, and the cyclic EGF and the sum of its even
    and odd parts, are compared with ``==`` once, and compared at each n
    only if they differ. An EGF's terms ``n! * coefficient`` are compared
    as they are, so a non-integral term is a failed report rather than an
    error.
    """
    from fubini import series

    order = _require_range(order, "order")
    routes = [s for s in registry.SEQUENCES.values() if s.route and s.egf]
    egfs = {s.name: s.egf(order) for s in routes}
    terms = [series._egf_terms(egfs[s.name]) for s in routes]
    columns = [series._egf_terms(column) for column in _stirling_columns(order)]
    lhs = series.double_shifted_bell_egf(order).derivative()
    rhs = 2 * egfs["bell"].truncate(order - 1)
    total, even, odd = egfs["cyclic"], egfs["cyclic-even"], egfs["cyclic-odd"]
    parts, difference = even + odd, series._egf_terms(even - odd)
    parts_differ, sides_differ = total != parts, rhs != lhs

    def agreement(n, sums):
        for s, values in zip(routes, terms):  # the EGF's coefficients below first are 0
            yield s.route(n, sums) if n >= s.first else 0, values[n]
        for k, values in enumerate(columns):
            yield sums.row[k] if k <= n else 0, values[n]

    def parity_split(n, sums):
        if parts_differ:
            yield total[n], parts[n]
        yield sequences.alternating_cyclic_sum(n, sums) if n else 0, difference[n]

    def derivative(n):
        if sides_differ:
            yield rhs[n], lhs[n]

    checks = {"egf.agreement": agreement, "egf.parity-split": parity_split}
    rows = zip(sequences._rows(0))  # one-tuples: each n's state is row n's entry
    return _sweep(0, order, checks, rows) + _sweep(0, order - 1, {"egf.derivative": derivative})


def verify_all(n_max: int, order: int) -> list[VerificationReport]:
    """Every identity: the seven integer ones in one pass over n = 1..n_max,
    then the EGF checks at ``order``. The integer reports come in
    ``_INTEGER_CHECKS`` order, which the integer targets of
    ``registry.VERIFY_TARGETS`` follow in turn, each verifier naming its own
    identities; the aggregate passes only if each report passes. Both
    arguments are checked before any row is streamed."""
    n_max, order = _require_range(n_max), _require_range(order, "order")
    return _sweep_integers(n_max, _INTEGER_CHECKS) + verify_egf_agreement(order)
