"""Exact combinatorics of ordered set partitions and their weighted sums.

The package computes partition-count (Stirling second kind) numbers,
ordered Bell numbers, cyclic ordered Bell numbers and their parity
splits, and Worpitzky numbers in exact integer arithmetic; builds their
exponential generating functions over exact rationals; verifies the
identities tying the two routes together; and reads/writes OEIS b-files
for cross-checking against reference data.
"""

from fubini.bfiles import (
    BFile,
    BFileParseError,
    OfflineError,
    computed_table,
    crosscheck,
    emit_bfile,
    fetch_bfile,
    fixture_ids,
    load_fixture,
    parse_bfile,
)
from fubini.identities import (
    IDENTITY_IDS,
    VerificationReport,
    verify_all,
    verify_alternating_sums,
    verify_bell_forms,
    verify_cyclic_doubling,
    verify_egf_agreement,
    verify_parity_split,
)
from fubini.sequences import (
    SequenceTable,
    StirlingTriangle,
    alternating_cyclic_sum,
    alternating_factorial_sum,
    count_ordered_partitions_exhaustive,
    count_partitions_exhaustive,
    cyclic_ordered_bell,
    cyclic_ordered_bell_even,
    cyclic_ordered_bell_odd,
    ordered_bell,
    ordered_bell_parity,
    ordered_set_partitions,
    set_partitions,
    stirling2,
    stirling2_row,
    worpitzky,
    worpitzky_row,
)
from fubini.series import (
    TruncatedSeries,
    cyclic_ordered_bell_egf,
    cyclic_ordered_bell_even_egf,
    cyclic_ordered_bell_odd_egf,
    double_shifted_bell_egf,
    exp_series,
    ordered_bell_egf,
    stirling_column_egf,
)

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "BFileParseError",
    "IDENTITY_IDS",
    "OfflineError",
    "SequenceTable",
    "StirlingTriangle",
    "TruncatedSeries",
    "VerificationReport",
    "__version__",
    "alternating_cyclic_sum",
    "alternating_factorial_sum",
    "computed_table",
    "count_ordered_partitions_exhaustive",
    "count_partitions_exhaustive",
    "crosscheck",
    "cyclic_ordered_bell",
    "cyclic_ordered_bell_egf",
    "cyclic_ordered_bell_even",
    "cyclic_ordered_bell_even_egf",
    "cyclic_ordered_bell_odd",
    "cyclic_ordered_bell_odd_egf",
    "double_shifted_bell_egf",
    "emit_bfile",
    "exp_series",
    "fetch_bfile",
    "fixture_ids",
    "load_fixture",
    "ordered_bell",
    "ordered_bell_egf",
    "ordered_bell_parity",
    "ordered_set_partitions",
    "parse_bfile",
    "set_partitions",
    "stirling2",
    "stirling2_row",
    "stirling_column_egf",
    "verify_all",
    "verify_alternating_sums",
    "verify_bell_forms",
    "verify_cyclic_doubling",
    "verify_egf_agreement",
    "verify_parity_split",
    "worpitzky",
    "worpitzky_row",
]
