"""Per-layer metrics from the spans that traced processes write out.

The layers are fubini's modules. A span's self time is its duration
minus the part of that interval its child spans cover; a layer's time
is the self time of its spans, so nested calls are never counted twice.
"""

from collections import defaultdict
from statistics import median

SUMS = (
    "ordered_bell",
    "ordered_bell_parity",
    "cyclic_ordered_bell",
    "cyclic_ordered_bell_even",
    "cyclic_ordered_bell_odd",
    "alternating_factorial_sum",
    "alternating_cyclic_sum",
)
SERIES_OPS = ("mul", "pow", "inverse", "exp", "log", "atanh", "derivative", "to_sequence")
BUILDERS = (
    "exp_series",
    "ordered_bell_egf",
    "stirling_column_egf",
    "cyclic_ordered_bell_egf",
    "double_shifted_bell_egf",
    "cyclic_ordered_bell_even_egf",
    "cyclic_ordered_bell_odd_egf",
)
VERIFIERS = (
    "verify_bell_forms",
    "verify_cyclic_doubling",
    "verify_alternating_sums",
    "verify_parity_split",
    "verify_egf_agreement",
)
BFILE_FUNCTIONS = ("parse_bfile", "load_fixture", "emit_bfile", "computed_table", "crosscheck")
LIBRARY_LAYERS = ("sequences", "series", "identities", "bfiles")


def _units() -> dict[str, str]:
    units = {}
    for fn in ("stirling2_row", "stirling2"):
        units[f"sequences.{fn}.calls"] = "count"
        units[f"sequences.{fn}.self_s"] = "s"
    for fn in SUMS + ("worpitzky",):
        units[f"sequences.{fn}.self_s"] = "s"
    units.update({
        "sequences.sums.calls": "count",
        "sequences.sums.terms": "count",
        "sequences.row_requests_per_row": "ratio",
        "sequences.max_row": "n",
    })
    for op in SERIES_OPS:
        units[f"series.{op}.calls"] = "count"
        units[f"series.{op}.self_s"] = "s"
    for fn in BUILDERS:
        units[f"series.{fn}.s"] = "s"
    units["series.mul_adds"] = "count"
    units["series.result_bits"] = "bit"
    for fn in VERIFIERS:
        units[f"identities.{fn}.calls"] = "count"
        units[f"identities.{fn}.s"] = "s"
    for fn in BFILE_FUNCTIONS:
        units[f"bfiles.{fn}.calls"] = "count"
        units[f"bfiles.{fn}.self_s"] = "s"
    for layer in LIBRARY_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "cli.interpreter_s": "s",
        "cli.import_s": "s",
        "cli.main.self_s": "s",
        "cli.main.s": "s",
        "cli.stdout_bytes": "B",
        "trace.overhead_s": "s",
        "trace.job_s": "s",
    })
    return units


#: Every per-layer metric, in report order, with its unit.
UNITS = _units()


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals, clipped to it.

    ``spans`` are ``(name, parent index, start, end, ...)`` sequences; a
    parent index of -1 marks a root span.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append((span[2], span[3]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[2], span[3]
        covered, reach = 0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def process_summary(record: dict, spawned: float, stdout_bytes: int) -> dict:
    """Totals of one traced process, from the record its tracer wrote."""
    names, spans = record["names"], record["spans"]
    own = self_times(spans)
    calls, self_ns, total_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    rows = set()
    row_calls = max_row = sum_terms = mul_adds = bits = 0
    for span, self_time in zip(spans, own):
        name = names[span[0]]
        calls[name] += 1
        self_ns[name] += self_time
        total_ns[name] += span[3] - span[2]
        n = span[4]
        if name == "sequences.stirling2_row":
            row_calls += 1
            rows.add(n)
        if name in ("sequences.stirling2_row", "sequences.stirling2"):
            max_row = max(max_row, n)
        if name.rpartition(".")[2] in SUMS:
            sum_terms += n + 1
        mul_adds += span[5]
        bits += span[6]
    return {
        "calls": calls,
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "total_s": {k: v / 1e9 for k, v in total_ns.items()},
        "row_calls": row_calls,
        "distinct_rows": len(rows),
        "max_row": max_row,
        "sum_terms": sum_terms,
        "mul_adds": mul_adds,
        "result_bits": bits,
        "interpreter_s": record["started"] - spawned,
        "import_s": record["import_s"],
        "overhead_s": record["overhead_ns"] / 1e9 + record["install_s"],
        "job_s": record["ended"] - spawned,
        "stdout_bytes": stdout_bytes,
    }


def job_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one job: totals over its processes.

    ``cli.interpreter_s`` and ``cli.import_s`` are the median per process,
    so that they compare with the per-command latency. A job whose
    processes all failed before writing spans reports zeros.
    """
    if not processes:
        return dict.fromkeys(UNITS, 0)
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for p in processes:
        for name, value in p["calls"].items():
            calls[name] += value
        for name, value in p["self_s"].items():
            self_s[name] += value
        for name, value in p["total_s"].items():
            total_s[name] += value

    def total(key):
        return sum(p[key] for p in processes)

    metrics = {}
    for name in UNITS:
        layer, _, rest = name.partition(".")
        fn, _, kind = rest.rpartition(".")
        key = f"{layer}.{fn}"
        if kind == "calls":
            metrics[name] = calls[key]
        elif kind == "self_s" and fn:
            metrics[name] = self_s[key]
        elif kind == "s" and fn:
            metrics[name] = total_s[key]
    for layer in LIBRARY_LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    metrics["sequences.sums.calls"] = sum(calls[f"sequences.{fn}"] for fn in SUMS)
    metrics["sequences.sums.terms"] = total("sum_terms")
    distinct = total("distinct_rows")
    metrics["sequences.row_requests_per_row"] = total("row_calls") / distinct if distinct else 0.0
    metrics["sequences.max_row"] = max(p["max_row"] for p in processes)
    metrics["series.mul_adds"] = total("mul_adds")
    metrics["series.result_bits"] = total("result_bits")
    metrics["cli.interpreter_s"] = median(p["interpreter_s"] for p in processes)
    metrics["cli.import_s"] = median(p["import_s"] for p in processes)
    metrics["cli.stdout_bytes"] = total("stdout_bytes")
    metrics["trace.overhead_s"] = total("overhead_s")
    metrics["trace.job_s"] = total("job_s")
    return {name: metrics[name] for name in UNITS}
