"""Sweeping verifiers for the weighted-sum identities.

Each verifier checks one or more identities over a configurable range,
computing both sides by independent routes (direct integer sums on one
side, rational series coefficient extraction on the other where that
applies) and reporting the first counterexample instead of raising: a
violated identity means a code bug, and the report carries the evidence.

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

import json
from dataclasses import dataclass

from fubini import registry, sequences, series

__all__ = [
    "IDENTITY_IDS",
    "VERIFY_TARGETS",
    "VerificationReport",
    "verify_all",
    "verify_alternating_sums",
    "verify_bell_forms",
    "verify_cyclic_doubling",
    "verify_egf_agreement",
    "verify_parity_split",
]

IDENTITY_IDS = frozenset(
    {
        "bell.parity-split",
        "bell.shifted-cyclic",
        "cyclic.doubling",
        "cyclic.parity-equal",
        "alternating.factorial",
        "alternating.cyclic",
        "worpitzky.parity-rows",
        "egf.agreement",
        "egf.parity-split",
        "egf.derivative",
    }
)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sweeping one identity over a range of indices.

    ``status`` is "pass" exactly when no counterexample was found;
    otherwise ``first_failure`` holds ``(n, expected, actual)`` for the
    smallest index checked that failed.
    """

    identity_id: str
    range_checked: tuple[int, int]
    status: str
    first_failure: tuple[int, object, object] | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {self.status!r}")
        if (self.status == "pass") != (self.first_failure is None):
            raise ValueError("status and first_failure are inconsistent")

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
        return json.dumps(self.to_dict(), sort_keys=True)


def _sweep(identity_id, lo, hi, checks) -> VerificationReport:
    for n, expected, actual in checks:
        if expected != actual:
            return VerificationReport(identity_id, (lo, hi), "fail", (n, expected, actual))
    return VerificationReport(identity_id, (lo, hi), "pass")


def _require_range(n_max: int, name: str = "n_max") -> None:
    if n_max < 1:
        raise ValueError(f"empty range: {name} must be >= 1, got {n_max}")


def verify_bell_forms(n_max: int) -> list[VerificationReport]:
    """Both four-way decompositions of the ordered Bell numbers."""
    _require_range(n_max)

    def parity_split():
        for n in range(1, n_max + 1):
            b = sequences.ordered_bell(n)
            sign = (-1) ** n
            yield n, b, -sign + 2 * sequences.ordered_bell_parity(n, "even")
            yield n, b, sign + 2 * sequences.ordered_bell_parity(n, "odd")

    def shifted_cyclic():
        for n in range(1, n_max + 1):
            b = sequences.ordered_bell(n)
            yield n, b, sequences.cyclic_ordered_bell_even(n + 1)
            yield n, b, sequences.cyclic_ordered_bell_odd(n + 1)

    return [
        _sweep("bell.parity-split", 1, n_max, parity_split()),
        _sweep("bell.shifted-cyclic", 1, n_max, shifted_cyclic()),
    ]


def verify_cyclic_doubling(n_max: int) -> list[VerificationReport]:
    """Cyclic ordered Bell numbers are twice the shifted ordered Bell numbers."""
    _require_range(n_max)

    def checks():
        yield 1, 1, sequences.cyclic_ordered_bell(1)
        for n in range(2, n_max + 1):
            yield n, 2 * sequences.ordered_bell(n - 1), sequences.cyclic_ordered_bell(n)

    return [_sweep("cyclic.doubling", 1, n_max, checks())]


def verify_alternating_sums(n_max: int) -> list[VerificationReport]:
    """The two alternating weighted sums collapse to signs."""
    _require_range(n_max)

    def factorial_sum():
        for n in range(1, n_max + 1):
            yield n, (-1) ** n, sequences.alternating_factorial_sum(n)

    def cyclic_sum():
        for n in range(1, n_max + 1):
            value = sequences.alternating_cyclic_sum(n)
            yield n, -1 if n == 1 else 0, value
            split = sequences.cyclic_ordered_bell_even(n) - sequences.cyclic_ordered_bell_odd(n)
            yield n, split, value

    return [
        _sweep("alternating.factorial", 1, n_max, factorial_sum()),
        _sweep("alternating.cyclic", 1, n_max, cyclic_sum()),
    ]


def verify_parity_split(n_max: int) -> list[VerificationReport]:
    """Even- and odd-block cyclic counts coincide, in both weight notations."""
    _require_range(n_max)

    def cyclic_parity():
        yield 1, 0, sequences.cyclic_ordered_bell_even(1)
        yield 1, 1, sequences.cyclic_ordered_bell_odd(1)
        for n in range(2, n_max + 1):
            b = sequences.ordered_bell(n - 1)
            yield n, b, sequences.cyclic_ordered_bell_even(n)
            yield n, b, sequences.cyclic_ordered_bell_odd(n)

    def worpitzky_rows():
        for n in range(1, n_max + 1):
            b = sequences.ordered_bell(n)
            row = sequences.worpitzky_row(n)
            yield n, b, sum(row[0::2])
            yield n, b, sum(row[1::2])

    return [
        _sweep("cyclic.parity-equal", 1, n_max, cyclic_parity()),
        _sweep("worpitzky.parity-rows", 1, n_max, worpitzky_rows()),
    ]


def verify_egf_agreement(order: int) -> list[VerificationReport]:
    """Every generating function agrees with the direct integer route."""
    _require_range(order, "order")

    def agreement():
        for s in registry.SEQUENCES.values():
            if s.route and s.egf:
                extracted = s.egf(order).to_sequence()
                for n in range(order + 1):  # the EGF's coefficients below first are 0
                    yield n, s.route(n) if n >= s.first else 0, extracted[n]
        for k in range(11):
            column = series.stirling_column_egf(k, order).to_sequence()
            for n in range(order + 1):
                yield n, sequences.stirling2(n, k), column[n]

    def parity_split():
        total = series.cyclic_ordered_bell_egf(order)
        even = series.cyclic_ordered_bell_even_egf(order)
        odd = series.cyclic_ordered_bell_odd_egf(order)
        recombined = even + odd
        for n in range(order + 1):
            yield n, total[n], recombined[n]
        difference = (even - odd).to_sequence()
        yield 0, 0, difference[0]
        for n in range(1, order + 1):
            yield n, sequences.alternating_cyclic_sum(n), difference[n]

    def derivative():
        lhs = series.double_shifted_bell_egf(order).derivative()
        rhs = 2 * series.ordered_bell_egf(max(order - 1, 0))
        for n in range(lhs.order + 1):
            yield n, rhs[n], lhs[n]

    return [
        _sweep("egf.agreement", 0, order, agreement()),
        _sweep("egf.parity-split", 0, order, parity_split()),
        _sweep("egf.derivative", 0, max(order - 1, 0), derivative()),
    ]


#: Verify target -> its sweeps, as a function of ``(n_max, order)``. The
#: verifiers are looked up when called, so a patched or wrapped one is run.
VERIFY_TARGETS = {
    "bell": lambda n_max, order: verify_bell_forms(n_max),
    "cyclic": lambda n_max, order: verify_cyclic_doubling(n_max),
    "alternating": lambda n_max, order: verify_alternating_sums(n_max),
    "parity": lambda n_max, order: verify_parity_split(n_max),
    "egf": lambda n_max, order: verify_egf_agreement(order),
}


def verify_all(n_max: int, order: int) -> list[VerificationReport]:
    """Run every verifier; the aggregate passes only if each report passes."""
    return [r for run in VERIFY_TARGETS.values() for r in run(n_max, order)]
