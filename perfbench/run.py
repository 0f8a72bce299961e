#!/usr/bin/env python3
"""Benchmark of the fubini library and CLI; see perfbench/README.md.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each workload is run by one closed-loop client: one fresh process at a
time, each awaited before the next starts. The fixed job of the workload
is repeated while the next repetition still fits in ``--seconds``. With
``--trace 0`` the reference task (``reference.py``) is timed next to the
operations, and every timing is reported scaled to a host on which the
reference task takes ``REFERENCE_S`` (see :class:`HostSpeed`); the last
stdout line holds these end-to-end metrics. With
``--trace 1`` every process runs under the span tracer and the line holds
the per-layer metrics instead. The line before it records the environment.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable

CLIENTS = 1  # closed-loop clients, each with at most one fubini process running
SETUP_REPEATS = 11  # fresh interpreters timed for setup_s in a run
CHILD_CPU_LIMIT_S = 150  # a fubini process that computes longer is killed
REFERENCE_S = 0.1  # reported timings are scaled to a host where reference.py takes this long
INPROCESS_REFERENCE_S = 0.004  # ... and where reference.row_sums() takes this long in process
REFERENCE_EVERY_S = 0.5  # the reference task runs about once per this much run time
REFERENCE_BURST = 6  # most reference runs in a row, after a long operation
REFERENCE_WINDOW_S = 3.0  # an operation is scaled by the reference runs this close to it

WORKLOADS = {
    "verify-sweep": workloads.verify_sweep,
    "egf-build": workloads.egf_build,
    "cli-short": workloads.cli_short,
    "lookup": workloads.lookup,
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fubini; "
    "print(time.perf_counter() - t, fubini.__file__)"
)


@dataclass
class Exit:
    """A reaped child process."""

    code: int
    stdout: bytes
    stderr: bytes
    spawned: float  # CLOCK_MONOTONIC seconds, just before the spawn
    seconds: float  # spawn to reap
    rss_mb: float  # peak resident set size, from wait4


@dataclass
class Job:
    """One repetition of a workload's fixed job."""

    wall_s: float
    latencies_s: list[float]
    rss_mb: float
    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: float | None = None
    layers: dict | None = None
    starts: list[float] = field(default_factory=list)  # CLOCK_MONOTONIC spawn time of each operation
    reference_s: float | None = None  # median of the reference task timed inside the job's process


def spawn(argv: list[str], work: Path) -> Exit:
    """Run one process from the repository root with ``src`` on its path, and reap it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stderr", "w+b") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env
        )
        try:
            resource.prlimit(proc.pid, resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S,) * 2)
        except ProcessLookupError:  # already exited
            pass
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Exit(proc.returncode, stdout, stderr, spawned, seconds, usage.ru_maxrss / 1024)


def _describe(what: str, done: Exit, expected_code: int) -> str:
    tail = done.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
    return f"{what}: exit {done.code} (expected {expected_code}) {tail[0]}".strip()


class HostSpeed:
    """Tracks how fast the host runs, by timing the reference task between operations.

    The host shares its cores with other tenants, and its speed swings by
    a quarter or more for a minute or two at a time. Calling the object
    runs ``reference.py`` in a fresh interpreter once per
    ``REFERENCE_EVERY_S`` that has passed since its last run, at most
    ``REFERENCE_BURST`` times in a row, and not at all if less has
    passed. :meth:`factor` then scales an operation's time
    to a host on which that takes ``REFERENCE_S``, using the reference
    runs within ``REFERENCE_WINDOW_S`` of the operation.
    """

    def __init__(self, work: Path):
        self.work = work
        self.samples: list[tuple[float, float]] = []  # (CLOCK_MONOTONIC midpoint, seconds)
        self.last: float | None = None  # CLOCK_MONOTONIC end of the last reference run

    def __call__(self, force: bool = False) -> None:
        due = 1
        if self.last is not None:
            elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - self.last
            due = min(REFERENCE_BURST, int(elapsed / REFERENCE_EVERY_S))
        for _ in range(max(due, int(force))):
            done = spawn([PYTHON, "-E", "-s", str(HERE / "reference.py")], self.work)
            if done.code != 0 or done.stdout.split() != [str(reference_checksum()).encode()]:
                raise SystemExit(_describe("reference task", done, 0))
            self.samples.append((done.spawned + done.seconds / 2, done.seconds))
            self.last = done.spawned + done.seconds

    def factor(self, start: float, seconds: float) -> float:
        """The scale for an operation that started at ``start`` and took ``seconds``."""
        near = [s for at, s in self.samples
                if start - REFERENCE_WINDOW_S <= at <= start + seconds + REFERENCE_WINDOW_S]
        if not near:
            middle = start + seconds / 2
            near = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return REFERENCE_S / statistics.median(near)


@functools.cache
def reference_checksum() -> int:
    return reference.task()


def run_commands(
    commands: list[workloads.Command], work: Path, traced: bool, between=lambda: None
) -> Job:
    """Run each command as a fresh process, in order, and check its output.

    ``between`` is called before each command.
    """
    spans = work / "spans.json"
    job = Job(0.0, [], 0.0, len(commands))
    processes = []
    for command in commands:
        between()
        if traced:
            spans.unlink(missing_ok=True)
            argv = [PYTHON, str(HERE / "cli_child.py"), str(spans), *command.argv]
        else:
            argv = [PYTHON, "-m", "fubini", *command.argv]
        done = spawn(argv, work)
        job.starts.append(done.spawned)
        job.latencies_s.append(done.seconds)
        job.rss_mb = max(job.rss_mb, done.rss_mb)
        if not command.check(done.code, done.stdout):
            job.failed += 1
            job.failures.append(_describe(" ".join(command.argv), done, command.code))
        if traced and spans.exists():
            record = json.loads(spans.read_text())
            processes.append(layers.process_summary(record, done.spawned, len(done.stdout)))
    job.wall_s = sum(job.latencies_s)
    if traced:
        job.layers = layers.job_metrics(processes)
    return job


def run_lookup(lookup: workloads.Lookup, work: Path, traced: bool, between=lambda: None) -> Job:
    """One library process: warm the cache, answer every query, check each answer.

    Its latencies are per request of ``workloads.LOOKUP_REQUEST`` queries.

    The process times the reference task itself, so ``between`` is not called.
    """
    job_file, spans = work / "lookup.json", work / "spans.json"
    if not job_file.exists():
        job_file.write_text(json.dumps({"warm": lookup.warm, "queries": lookup.queries}))
    argv = [PYTHON, str(HERE / "lookup_child.py"), str(job_file)]
    if traced:
        argv.append(str(spans))
    done = spawn(argv, work)
    attempted = len(lookup.queries)
    try:
        reply = json.loads(done.stdout) if done.code == 0 else None
    except ValueError:
        reply = None
    if reply is None or len(reply["digests"]) != attempted:
        return Job(done.seconds, [done.seconds], done.rss_mb, attempted, attempted,
                   [_describe("lookup process", done, 0)], done.seconds, layers.job_metrics([]),
                   [done.spawned], INPROCESS_REFERENCE_S)  # no timing of its own: left unscaled
    per_query = reply["latency_ns"]
    size = workloads.LOOKUP_REQUEST
    latencies = [sum(per_query[i:i + size]) / 1e9 for i in range(0, len(per_query), size)]
    job = Job(reply["warmed"] - done.spawned + sum(latencies), latencies, done.rss_mb, attempted,
              setup_s=reply["import_s"] + reply["warm_s"], starts=[done.spawned],
              reference_s=statistics.median(reply["reference_ns"]) / 1e9)
    for query, got, want in zip(lookup.queries, reply["digests"], lookup.digests):
        if got != want:
            job.failed += 1
            job.failures.append(f"lookup {query}: wrong value")
    if traced:
        record = json.loads(spans.read_text())
        job.layers = layers.job_metrics([layers.process_summary(record, done.spawned, 0)])
    return job


def import_seconds(work: Path) -> float:
    """Time a fresh interpreter takes to run ``import fubini``, measured inside it."""
    done = spawn([PYTHON, "-c", IMPORT_PROBE], work)
    words = done.stdout.split()
    if done.code != 0 or len(words) != 2:
        raise SystemExit(_describe("import fubini", done, 0))
    if Path(os.fsdecode(words[1])) != SRC / "fubini" / "__init__.py":
        raise SystemExit(f"error: imported fubini from {os.fsdecode(words[1])}, not from {SRC}")
    return float(words[0])


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` of the values at or below it.

    It never mixes two operations, so egf-build's p90 is its slowest
    command, whatever the seed's column costs.
    """
    return sorted(values)[math.ceil(share * len(values)) - 1]


def check_clients(clients: int, nproc: int) -> None:
    """Refuse to run more fubini processes at once than there are processors."""
    if clients > nproc:
        raise SystemExit(f"error: {clients} client processes would exceed nproc={nproc}")


def measure(
    name: str, seed: int, seconds: float, traced: bool
) -> tuple[list[Job], list[tuple[float, float]], HostSpeed]:
    """Repeat the workload's job while the next repetition still fits in ``seconds``.

    Returns the jobs and the set-up times of the CLI workloads as
    (CLOCK_MONOTONIC start, seconds), both unscaled, and the reference runs.
    """
    job_input = WORKLOADS[name](ROOT, seed)  # expected outputs: computed before timing
    reference_checksum()
    runner = run_lookup if name == "lookup" else run_commands
    # Every process of the run shares one CPU, so the reference task and
    # fubini meet the same neighbours on the host.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        speed = HostSpeed(work)
        between = (lambda: None) if traced else speed
        import_seconds(work)  # checks which fubini is imported, and writes its bytecode
        start = time.perf_counter()
        setups = []
        if not traced and name != "lookup":
            for _ in range(SETUP_REPEATS):
                between()
                setups.append((time.clock_gettime(time.CLOCK_MONOTONIC), import_seconds(work)))
        jobs = []
        while True:
            began = time.perf_counter()
            jobs.append(runner(job_input, work, traced, between))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        if not traced and name != "lookup":
            speed(force=True)  # so the last operation lies between two references
    return jobs, setups, speed


def scaled(job: Job, speed: HostSpeed) -> Job:
    """The job with every timing scaled to the reference host.

    A lookup job is timed inside one process, so it is scaled by the
    reference task timed in that process; a command by the reference
    runs next to it.
    """
    if job.reference_s is not None:
        factor = INPROCESS_REFERENCE_S / job.reference_s
        return replace(job, wall_s=factor * job.wall_s, setup_s=factor * job.setup_s,
                       latencies_s=[factor * s for s in job.latencies_s])
    latencies = [s * speed.factor(at, s) for at, s in zip(job.starts, job.latencies_s)]
    return replace(job, wall_s=sum(latencies), latencies_s=latencies)


def end_to_end(
    jobs: list[Job], setups: list[tuple[float, float]], speed: HostSpeed | None = None
) -> dict[str, dict]:
    """The end-to-end metrics, scaled to the reference host when ``speed`` is given."""
    if speed is not None:
        jobs = [scaled(job, speed) for job in jobs]
        setups = [(at, s * speed.factor(at, s)) for at, s in setups]
    values = {
        "wall_s": statistics.median(job.wall_s for job in jobs),
        "latency_p50_ms": 1000 * statistics.median(percentile(j.latencies_s, 0.5) for j in jobs),
        "latency_p90_ms": 1000 * statistics.median(percentile(j.latencies_s, 0.9) for j in jobs),
        "peak_rss_mb": max(job.rss_mb for job in jobs),
        "setup_s": statistics.median([s for _, s in setups] or [job.setup_s for job in jobs]),
    }
    return {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END_UNITS.items()}


def per_layer(jobs: list[Job]) -> dict[str, dict]:
    return {n: {"value": statistics.median(j.layers[n] for j in jobs), "unit": unit}
            for n, unit in layers.UNITS.items()}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_one(name: str, seed: int, seconds: int, traced: bool) -> None:
    env = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "clients": CLIENTS,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    jobs, setups, speed = measure(name, seed, seconds, traced)
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    if traced:
        metrics = per_layer(jobs)
    else:
        metrics = end_to_end(jobs, setups, speed)
        env["unscaled"] = {n: entry["value"] for n, entry in end_to_end(jobs, setups).items()}
        env["reference_s"] = statistics.median(s for _, s in speed.samples) if speed.samples else None
        env["reference_runs"] = len(speed.samples)
        in_process = [job.reference_s for job in jobs if job.reference_s is not None]
        env["in_process_reference_s"] = statistics.median(in_process) if in_process else None

    print(f"{name}: {len(jobs)} jobs, seed {seed}, trace {int(traced)}", file=sys.stderr)
    if not traced:
        print(f"  timings scaled to a host where the reference task takes {REFERENCE_S} s",
              file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(f"  {'fail_ratio':<40} {failed / attempted:.6g} ({failed}/{attempted})", file=sys.stderr)
    for failure in [f for job in jobs for f in job.failures][:5]:
        print(f"  FAILED {failure}", file=sys.stderr)

    print(json.dumps({"env": env}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fubini" / "__init__.py").is_file():
        print(f"error: no fubini package under {SRC}", file=sys.stderr)
        return 2
    check_clients(CLIENTS, nproc())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_one(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
