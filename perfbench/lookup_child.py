"""One library process answering point queries, for the lookup workload.

Usage: python3 perfbench/lookup_child.py JOB_JSON [SPANS_JSON]

JOB_JSON holds ``{"warm": n, "queries": [[function name, args...], ...]}``.
The process imports fubini, warms the Stirling cache up to row ``warm``,
then calls each query's ``fubini.sequences`` function in turn, timing
each call alone. Before every ``REFERENCE_EVERY`` queries, and after the
last, it times the in-process reference task (``reference.row_sums``),
which tells the benchmark how fast the host ran meanwhile. It
prints one JSON object: its timestamps, the latency of each query, the
reference times, and a digest of each answer, computed outside the
timed calls; the benchmark digests the expected answers with the same
:func:`digest`. With SPANS_JSON it installs the span tracer first and
writes the spans there at the end.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402

REFERENCE_EVERY = 250  # queries between two timings of the reference task


def digest(value) -> str:
    """Digest of an int or a list of ints, in time linear in their size."""
    h = hashlib.blake2b(b"list" if isinstance(value, list) else b"int", digest_size=12)
    for v in value if isinstance(value, list) else (value,):
        data = v.to_bytes(v.bit_length() // 8 + 1, "little", signed=True)
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def time_reference(rows: list[list[int]]) -> int:
    start = time.perf_counter_ns()
    reference.row_sums(rows)
    return time.perf_counter_ns() - start


def main() -> int:
    with open(sys.argv[1]) as handle:
        job = json.load(handle)
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None

    t0 = time.perf_counter()
    from fubini import sequences

    t1 = time.perf_counter()
    trace = None
    if spans_path:
        import tracer

        trace = tracer.Tracer()
        tracer.install(trace)
    t2 = time.perf_counter()
    sequences.stirling2_row(job["warm"])
    t3 = time.perf_counter()
    warmed = time.clock_gettime(time.CLOCK_MONOTONIC)

    rows = [oracle.stirling2_row(n) for n in reference.ROW_SUM_NS]  # not timed
    clock = time.perf_counter_ns
    latency_ns, digests, reference_ns = [], [], []
    for i, (name, *args) in enumerate(job["queries"]):
        if i % REFERENCE_EVERY == 0:
            reference_ns.append(time_reference(rows))
        fn = getattr(sequences, name)
        start = clock()
        value = fn(*args)
        latency_ns.append(clock() - start)
        digests.append(digest(value))
    reference_ns.append(time_reference(rows))

    reply = {
        "started": STARTED,
        "warmed": warmed,
        "import_s": t1 - t0,
        "warm_s": t3 - t2,
        "latency_ns": latency_ns,
        "digests": digests,
        "reference_ns": reference_ns,
    }
    if trace is not None:
        trace.dump(spans_path, started=STARTED, ended=warmed + sum(latency_ns) / 1e9,
                   import_s=t1 - t0, install_s=t2 - t1)
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
