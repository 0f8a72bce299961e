"""Exact combinatorics of ordered set partitions and their weighted sums.

The package computes partition-count (Stirling second kind) numbers,
ordered Bell numbers, cyclic ordered Bell numbers and their parity
splits, and Worpitzky numbers in exact integer arithmetic; builds their
exponential generating functions over exact rationals; verifies the
identities tying the two routes together; and reads/writes OEIS b-files
for cross-checking against reference data.

Names load on first use: ``import fubini`` imports no submodule, and
``fubini.ordered_bell`` (or ``fubini.sequences``) imports its module the
first time it is read (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: Submodule -> the names the package exports from it.
_EXPORTS = {
    "bfiles": (
        "BFile",
        "BFileParseError",
        "OfflineError",
        "computed_table",
        "crosscheck",
        "emit_bfile",
        "fetch_bfile",
        "fixture_ids",
        "load_fixture",
        "parse_bfile",
    ),
    "identities": (
        "IDENTITY_IDS",
        "VerificationReport",
        "verify_all",
        "verify_alternating_sums",
        "verify_bell_forms",
        "verify_cyclic_doubling",
        "verify_egf_agreement",
        "verify_parity_split",
    ),
    "sequences": (
        "ArgumentError",
        "SequenceTable",
        "alternating_cyclic_sum",
        "alternating_factorial_sum",
        "count_ordered_partitions_exhaustive",
        "count_partitions_exhaustive",
        "cyclic_ordered_bell",
        "cyclic_ordered_bell_even",
        "cyclic_ordered_bell_odd",
        "ordered_bell",
        "ordered_bell_parity",
        "ordered_set_partitions",
        "set_partitions",
        "stirling2",
        "stirling2_row",
        "worpitzky",
        "worpitzky_row",
    ),
    "series": (
        "TruncatedSeries",
        "cyclic_ordered_bell_egf",
        "cyclic_ordered_bell_even_egf",
        "cyclic_ordered_bell_odd_egf",
        "double_shifted_bell_egf",
        "exp_series",
        "ordered_bell_egf",
        "stirling_column_egf",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "registry"}

__all__ = sorted([*_OWNER, "__version__"])


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
