"""Sweeping verifiers for the weighted-sum identities.

Each verifier checks one or more identities over a configurable range,
computing both sides by independent routes (direct integer sums on one
side, rational series coefficient extraction on the other where that
applies) and reporting the first counterexample instead of raising: a
violated identity means a code bug, and the report carries the evidence.

The seven integer identities are checks on a window of three Stirling
rows with their weighted sums (``sequences._RowSums``), for n-1, n and
n+1, that slides forward over n in one pass. The Stirling rows are
streamed from the triangle recurrence (``sequences._stirling_rows``), not
read from the shared memo: a sum is computed when an identity first reads
it, once per row, and a row is dropped when the window leaves it. The
Worpitzky side of ``worpitzky.parity-rows`` comes from the Worpitzky
recurrence (``sequences._worpitzky_rows``), not from the Stirling rows,
so its two sides are built independently. The four integer verifiers run
their own identities through the same pass, and ``verify_all`` runs all
seven in one. ``ordered_bell`` keeps its own accumulator: it is never
rebuilt as even plus odd, which would reduce ``bell.parity-split`` to
``alternating.factorial``.

The three EGF identities are checked by ``verify_egf_agreement``, which
builds each registry EGF once, on first use, and shares it between the
checks; reads each Stirling row once from the shared memo, through
``sequences._read_row`` (the seam for memo rows; ``stirling2_row`` is its
copying reader), for the columns' direct side; and
compares two series with ``==`` (exact, since their storage is canonical)
before walking their coefficients to name the first failure.

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
* ``alternating.cyclic``    sum((-1)^k (k-1)! S(n,k)) == -1 at n=1, else 0,
  and equals even-block minus odd-block cyclic counts termwise
* ``worpitzky.parity-rows`` even- and odd-index Worpitzky row sums both
  equal ordered_bell(n)
* ``egf.agreement``         every generating function extracts the matching
  directly computed sequence
* ``egf.parity-split``      even-egf + odd-egf == cyclic-egf
  coefficientwise, and (even-egf - odd-egf) extracts the alternating
  cyclic sums
* ``egf.derivative``        derivative of (x - log(2 - e^x)) == twice the
  ordered-Bell EGF, coefficientwise
"""

from fubini import registry, sequences

__all__ = [
    "IDENTITY_IDS",
    "VerificationReport",
    "verify_all",
    "verify_alternating_sums",
    "verify_bell_forms",
    "verify_cyclic_doubling",
    "verify_egf_agreement",
    "verify_parity_split",
]

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


def _sweep(identity_id, lo, hi, checks) -> VerificationReport:
    for n, expected, actual in checks:
        if expected != actual:
            return _report(identity_id, lo, hi, (n, expected, actual))
    return _report(identity_id, lo, hi)


def _require_range(n_max, name: str = "n_max") -> int:
    try:
        return sequences._require_at_least(n_max, 1, name)
    except sequences.ArgumentError as exc:
        raise sequences.ArgumentError(f"empty range: {exc}") from None


# Each integer identity's checks at one n: ``check(n, prev, cur, nxt, worpitzky)``
# yields ``(expected, actual)`` pairs in order, from the row sums of n-1, n and
# n+1 (``_RowSums``, each sum computed when first read; ``prev`` is None at
# n = 1) and Worpitzky row n.


def _bell_parity_split(n, prev, cur, nxt, worpitzky):
    b, sign = cur["ordered_bell"], (-1) ** n
    yield b, -sign + 2 * cur["ordered_bell_even"]
    yield b, sign + 2 * cur["ordered_bell_odd"]


def _bell_shifted_cyclic(n, prev, cur, nxt, worpitzky):
    yield cur["ordered_bell"], nxt["cyclic_ordered_bell_even"]
    yield cur["ordered_bell"], nxt["cyclic_ordered_bell_odd"]


def _cyclic_doubling(n, prev, cur, nxt, worpitzky):
    yield 1 if n == 1 else 2 * prev["ordered_bell"], cur["cyclic_ordered_bell"]


def _alternating_factorial(n, prev, cur, nxt, worpitzky):
    yield (-1) ** n, cur["alternating_factorial_sum"]


def _alternating_cyclic(n, prev, cur, nxt, worpitzky):
    value = cur["alternating_cyclic_sum"]
    yield -1 if n == 1 else 0, value
    yield cur["cyclic_ordered_bell_even"] - cur["cyclic_ordered_bell_odd"], value


def _cyclic_parity_equal(n, prev, cur, nxt, worpitzky):
    even, odd = (0, 1) if n == 1 else (prev["ordered_bell"],) * 2
    yield even, cur["cyclic_ordered_bell_even"]
    yield odd, cur["cyclic_ordered_bell_odd"]


def _worpitzky_parity_rows(n, prev, cur, nxt, worpitzky):
    yield cur["ordered_bell"], sum(worpitzky[0::2])
    yield cur["ordered_bell"], sum(worpitzky[1::2])


#: Integer identity id -> its checks at one n.
_INTEGER_CHECKS = {
    "bell.parity-split": _bell_parity_split,
    "bell.shifted-cyclic": _bell_shifted_cyclic,
    "cyclic.doubling": _cyclic_doubling,
    "alternating.factorial": _alternating_factorial,
    "alternating.cyclic": _alternating_cyclic,
    "cyclic.parity-equal": _cyclic_parity_equal,
    "worpitzky.parity-rows": _worpitzky_parity_rows,
}

#: Verify target -> the integer identities its verifier sweeps, in report order.
_TARGET_IDS = {
    "bell": ("bell.parity-split", "bell.shifted-cyclic"),
    "cyclic": ("cyclic.doubling",),
    "alternating": ("alternating.factorial", "alternating.cyclic"),
    "parity": ("cyclic.parity-equal", "worpitzky.parity-rows"),
}

IDENTITY_IDS = frozenset(_INTEGER_CHECKS) | {"egf.agreement", "egf.parity-split", "egf.derivative"}


def _sweep_integers(n_max: int, identity_ids) -> list[VerificationReport]:
    """Check the given integer identities over n = 1..n_max in one forward pass.

    Stirling rows come from ``sequences._stirling_rows`` and Worpitzky rows
    from ``sequences._worpitzky_rows``, both looked up here, not from the
    shared memo. Only rows n-1, n and n+1 are live, each with the sums read
    from it so far: a sum is computed when an identity first reads it, once
    per row. An identity stops being checked at its first failure.
    Worpitzky rows are built only while ``worpitzky.parity-rows`` is still
    being checked.
    """
    n_max = _require_range(n_max)
    pending = {i: _INTEGER_CHECKS[i] for i in identity_ids}
    failures = {}
    stirling_rows, worpitzky_rows = sequences._stirling_rows(), sequences._worpitzky_rows()
    next(stirling_rows), next(worpitzky_rows)  # row 0
    prev, cur = None, sequences._RowSums(next(stirling_rows))
    for n in range(1, n_max + 1):
        if not pending:
            break
        nxt = sequences._RowSums(next(stirling_rows))
        worpitzky = next(worpitzky_rows) if "worpitzky.parity-rows" in pending else None
        for identity_id, check in list(pending.items()):
            for expected, actual in check(n, prev, cur, nxt, worpitzky):
                if expected != actual:
                    failures[identity_id] = (n, expected, actual)
                    del pending[identity_id]
                    break
        prev, cur = cur, nxt
    return [_report(i, 1, n_max, failures.get(i)) for i in identity_ids]


def verify_bell_forms(n_max: int) -> list[VerificationReport]:
    """Both four-way decompositions of the ordered Bell numbers."""
    return _sweep_integers(n_max, _TARGET_IDS["bell"])


def verify_cyclic_doubling(n_max: int) -> list[VerificationReport]:
    """Cyclic ordered Bell numbers are twice the shifted ordered Bell numbers."""
    return _sweep_integers(n_max, _TARGET_IDS["cyclic"])


def verify_alternating_sums(n_max: int) -> list[VerificationReport]:
    """The two alternating weighted sums collapse to signs."""
    return _sweep_integers(n_max, _TARGET_IDS["alternating"])


def verify_parity_split(n_max: int) -> list[VerificationReport]:
    """Even- and odd-block cyclic counts coincide, in both weight notations."""
    return _sweep_integers(n_max, _TARGET_IDS["parity"])


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


def _unless_equal(expected, actual, size: int):
    """``(n, expected[n], actual[n])`` for n < size, or nothing when the two
    series are equal. The storage is canonical, so ``==`` is exact, and the
    walk only finds the first failure of series that differ."""
    if expected == actual:
        return ()
    return ((n, expected[n], actual[n]) for n in range(size))


def verify_egf_agreement(order: int) -> list[VerificationReport]:
    """Every generating function agrees with the direct integer route.

    Each registry EGF is built once, on first use, and shared by the three
    checks; building on first use keeps a broken builder's error the first
    one raised. The derivative's right side is the ordered-Bell EGF cut to
    ``order - 1``. Each Stirling row is read once, through
    ``sequences._read_row``, the seam for memo rows, for the columns' direct
    side; only its first 11 entries are copied, where ``stirling2_row`` would
    copy the whole row. Two series are
    compared with ``==`` before their coefficients are walked, and an EGF's
    terms ``n! * coefficient`` are compared as they are, so a non-integral
    term is a failed report rather than an error.
    """
    from fubini import series

    order = _require_range(order, "order")
    built = {}

    def egf(name):
        if name not in built:
            built[name] = registry.SEQUENCES[name].egf(order)
        return built[name]

    def agreement():
        for s in registry.SEQUENCES.values():
            if s.route and s.egf:
                extracted = series._egf_terms(egf(s.name))
                for n in range(order + 1):  # the EGF's coefficients below first are 0
                    yield n, s.route(n) if n >= s.first else 0, extracted[n]
        rows = [sequences._read_row(n).row[:_STIRLING_COLUMNS] for n in range(order + 1)]
        for k, column in enumerate(_stirling_columns(order)):
            values = series._egf_terms(column)
            for n in range(order + 1):
                yield n, rows[n][k] if k <= n else 0, values[n]

    def parity_split():
        total, even, odd = egf("cyclic"), egf("cyclic-even"), egf("cyclic-odd")
        yield from _unless_equal(total, even + odd, order + 1)
        difference = series._egf_terms(even - odd)
        yield 0, 0, difference[0]
        for n in range(1, order + 1):
            yield n, sequences.alternating_cyclic_sum(n), difference[n]

    def derivative():
        lhs = series.double_shifted_bell_egf(order).derivative()
        yield from _unless_equal(2 * egf("bell").truncate(order - 1), lhs, lhs.order + 1)

    return [
        _sweep("egf.agreement", 0, order, agreement()),
        _sweep("egf.parity-split", 0, order, parity_split()),
        _sweep("egf.derivative", 0, order - 1, derivative()),
    ]


def verify_all(n_max: int, order: int) -> list[VerificationReport]:
    """Every identity: the seven integer ones in one pass over n = 1..n_max,
    then the EGF checks at ``order``. The reports come in the order of the
    other targets of ``registry.VERIFY_TARGETS``; the aggregate passes only
    if each report passes. Both arguments are checked before any row is
    streamed."""
    n_max, order = _require_range(n_max), _require_range(order, "order")
    return _sweep_integers(n_max, sum(_TARGET_IDS.values(), ())) + verify_egf_agreement(order)
