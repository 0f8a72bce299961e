"""Self-tests of the benchmark: its oracle, its checks, its scaling and its span arithmetic.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import tempfile
from math import factorial
from pathlib import Path

import pytest

import layers
import oracle
import run
import workloads


def read_bfile(name: str) -> list[tuple[int, int]]:
    text = (run.SRC / "fubini" / "data" / name).read_text("ascii")
    return [tuple(map(int, line.split())) for line in text.splitlines() if line.strip()]


@pytest.fixture
def work():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-test-") as tmp:
        yield Path(tmp)


# -- oracle -------------------------------------------------------------------


@pytest.mark.parametrize("sequence_id, filename", workloads.FIXTURE_FILES.items())
def test_oracle_reproduces_bundled_fixtures(sequence_id, filename):
    entries = read_bfile(filename)
    bell = oracle.ordered_bell_numbers(40)
    first, values = oracle.oeis_values(sequence_id, bell, entries[-1][0])
    assert entries == [(first + i, v) for i, v in enumerate(values)]


def test_oracle_relations_match_weighted_row_sums():
    bell = oracle.ordered_bell_numbers(30)
    for n in range(1, 30):
        row = oracle.stirling2_row(n)
        assert row == [oracle.stirling2(n, k) for k in range(n + 1)]
        assert bell[n] == sum(factorial(k) * s for k, s in enumerate(row))
        cyclic = [factorial(k - 1) * row[k] for k in range(1, n + 1)]
        assert oracle.cyclic(bell, n) == sum(cyclic)
        assert oracle.cyclic(bell, n, "odd") == sum(cyclic[0::2])
        assert oracle.cyclic(bell, n, "even") == sum(cyclic[1::2])
        for parity, residue in (("even", 0), ("odd", 1)):
            direct = sum(factorial(k) * s for k, s in enumerate(row) if k % 2 == residue)
            assert oracle.ordered_bell_parity(bell, n, parity) == direct


# -- span arithmetic ------------------------------------------------------------


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        ("root", -1, 0, 100),
        ("a", 0, 10, 40),
        ("a.inner", 1, 15, 20),
        ("b", 0, 30, 60),  # overlaps a: the overlap is subtracted once
        ("c", 0, 90, 120),  # runs past its parent: clipped to the parent
        ("d", 0, 50, 55),  # inside b's interval: adds nothing
    ]
    assert layers.self_times(spans) == [100 - 50 - 10, 30 - 5, 5, 30, 30, 5]


def test_job_metrics_total_processes_and_take_per_process_medians():
    record = {
        "names": ["sequences.ordered_bell", "sequences.stirling2_row", "cli.main"],
        "spans": [[2, -1, 0, 900, 0, 0, 0], [0, 0, 100, 500, 7, 0, 0], [1, 1, 200, 300, 7, 0, 0]],
        "overhead_ns": 50, "started": 10.0, "ended": 11.0, "import_s": 0.25, "install_s": 0.0,
    }
    one = layers.process_summary(record, 9.5, 12)
    metrics = layers.job_metrics([one, one])
    assert metrics["sequences.ordered_bell.self_s"] == pytest.approx(2 * 300e-9)
    assert metrics["sequences.sums.terms"] == 16
    assert metrics["sequences.row_requests_per_row"] == 1.0
    assert metrics["sequences.max_row"] == 7
    assert metrics["cli.main.self_s"] == pytest.approx(2 * 500e-9)
    assert metrics["cli.interpreter_s"] == 0.5
    assert metrics["cli.stdout_bytes"] == 24
    assert list(metrics) == list(layers.UNITS)


# -- the checks catch wrong output -------------------------------------------


def test_wrong_expected_values_count_as_failures(work):
    bell = oracle.ordered_bell_numbers(10)
    good = workloads.compute_command("bell", bell, 5)
    wrong = workloads.Command(good.argv, stdout=good.stdout.replace("541", "542"))
    fetch = workloads.bfile_command(run.ROOT, "fetch", "A000670", bell)
    fetch_exit_0 = workloads.Command(fetch.argv, code=0)
    job = run.run_commands([good, wrong, fetch, fetch_exit_0], work, traced=False)
    assert (job.attempted, job.failed) == (4, 2)
    assert job.failed / job.attempted > 0


def test_wrong_lookup_answer_counts_as_failure(work):
    queries = (("ordered_bell", 6), ("stirling2", 6, 3), ("stirling2_row", 4))
    answers = [4683, 90, [0, 1, 7, 6, 1]]
    digests = [workloads.digest(a) for a in answers]
    job = run.run_lookup(workloads.Lookup(8, queries, tuple(digests)), work, traced=False)
    assert (job.attempted, job.failed) == (3, 0)
    digests[1] = workloads.digest(91)
    (work / "lookup.json").unlink()
    job = run.run_lookup(workloads.Lookup(8, queries, tuple(digests)), work, traced=False)
    assert (job.attempted, job.failed) == (3, 1)


def test_crashed_lookup_process_fails_every_query(work):
    queries = (("ordered_bell", 6), ("no_such_function", 3))
    lookup = workloads.Lookup(8, queries, (workloads.digest(4683), workloads.digest(0)))
    job = run.run_lookup(lookup, work, traced=False)
    assert (job.attempted, job.failed) == (2, 2)
    assert run.end_to_end([job], [], run.HostSpeed(work))["wall_s"]["value"] > 0


def test_traced_command_has_same_output_and_counts_calls_through_cli_tables(work):
    bell = oracle.ordered_bell_numbers(10)
    commands = [workloads.compute_command("bell", bell, 5), workloads.egf_command("bell", bell, 6)]
    job = run.run_commands(commands, work, traced=True)
    assert job.failed == 0
    # cli's name table holds ordered_bell: counted only if wrapped before cli was imported
    assert job.layers["sequences.sums.calls"] == 6
    assert job.layers["series.inverse.calls"] == 1
    assert job.layers["cli.stdout_bytes"] == len(commands[0].stdout) + len(commands[1].stdout)
    assert job.layers["trace.overhead_s"] > 0


# -- the harness ---------------------------------------------------------------


def test_reference_task_runs_once_per_second_passed_and_is_checked(work):
    speed = run.HostSpeed(work)
    speed()
    speed()
    assert len(speed.samples) == 1
    speed(force=True)
    assert len(speed.samples) == 2 and min(s for _, s in speed.samples) > 0
    speed.last -= 2.5 * run.REFERENCE_EVERY_S
    speed()
    assert len(speed.samples) == 4
    speed.last -= 100 * run.REFERENCE_EVERY_S
    speed()
    assert len(speed.samples) == 4 + run.REFERENCE_BURST


def test_operations_are_scaled_by_the_reference_runs_near_them(work):
    speed = run.HostSpeed(work)
    speed.samples = [(0.0, 0.2), (1.0, 0.2), (100.0, 0.05), (101.0, 0.05)]
    assert speed.factor(0.5, 0.3) == pytest.approx(run.REFERENCE_S / 0.2)
    assert speed.factor(99.0, 1.5) == pytest.approx(run.REFERENCE_S / 0.05)
    assert speed.factor(50.0, 1.0) == pytest.approx(run.REFERENCE_S / 0.2)  # none near: the nearest
    job = run.Job(0.8, [0.5, 0.3], 50.0, 2, starts=[0.0, 100.0])
    setups = [(1.0, 0.06)]
    plain = run.end_to_end([job], setups)
    scaled = run.end_to_end([job], setups, speed)
    assert plain["peak_rss_mb"] == scaled["peak_rss_mb"]
    assert scaled["wall_s"]["value"] == pytest.approx(0.5 * 0.5 + 0.3 * 2)
    assert scaled["setup_s"]["value"] == pytest.approx(0.06 * 0.5)


def test_lookup_job_is_scaled_by_its_own_reference_timing(work):
    job = run.Job(2.0, [0.001, 0.003], 50.0, 2, setup_s=1.0, starts=[0.0],
                  reference_s=2 * run.INPROCESS_REFERENCE_S)
    scaled = run.end_to_end([job], [], run.HostSpeed(work))
    assert scaled["wall_s"]["value"] == pytest.approx(1.0)
    assert scaled["setup_s"]["value"] == pytest.approx(0.5)
    assert scaled["latency_p90_ms"]["value"] == pytest.approx(0.5 * 1000 * 0.003)


def test_percentile_is_nearest_rank():
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.percentile([5.0, 1.0, 4.0, 2.0, 3.0, 7.0, 6.0], 0.5) == 4.0
    assert run.percentile([5.0, 1.0, 4.0, 2.0, 3.0, 7.0, 6.0], 0.9) == 7.0
    assert run.percentile([float(i) for i in range(1, 121)], 0.9) == 108.0


def test_refuses_more_clients_than_processors():
    run.check_clients(2, 2)
    with pytest.raises(SystemExit):
        run.check_clients(3, 2)


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
