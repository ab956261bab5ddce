"""Smoke tests for the ``python -m repro`` launcher."""

import functools
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__ as launcher
from repro.__main__ import cmd_examples, cmd_list, main
from repro.gates import SCENARIOS, Scenario, tenants_run

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
BENCHMARK_FILES = sorted(BENCHMARKS.glob("test_*.py"))


def test_list_enumerates_experiments(capsys):
    assert cmd_list() == 0
    out = capsys.readouterr().out
    assert "fig03" in out
    assert "fig18a" in out
    assert "abl_" in out


def test_list_shows_every_benchmark_file_once(capsys):
    assert cmd_list() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == [
        path.stem.removeprefix("test_") for path in BENCHMARK_FILES]


def test_run_executes_every_benchmark_file_in_full(monkeypatch):
    """``run <id>`` hands pytest exactly that file, with no filter that
    skips tests not using the ``benchmark`` fixture; each file collects
    at least one test."""
    calls = []

    def call(argv):
        calls.append(argv)
        junit = next(arg for arg in argv if arg.startswith("--junitxml="))
        Path(junit.split("=", 1)[1]).write_text(
            '<testsuites><testsuite tests="1" skipped="0"/></testsuites>')
        return 0

    monkeypatch.setattr(subprocess, "call", call)
    for path in BENCHMARK_FILES:
        assert main(["run", path.stem.removeprefix("test_")]) == 0
    targets = [[arg for arg in argv[3:] if not arg.startswith("-")]
               for argv in calls]
    assert targets == [[str(path)] for path in BENCHMARK_FILES]
    assert not any("--benchmark-only" in argv for argv in calls)
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *map(str, BENCHMARK_FILES)],
        capture_output=True, text=True, cwd=BENCHMARKS.parent, check=True)
    counts = dict(re.findall(r"^benchmarks/(test_\w+\.py): (\d+)$",
                             collected.stdout, flags=re.MULTILINE))
    assert sorted(counts) == [path.name for path in BENCHMARK_FILES]
    assert all(int(count) >= 1 for count in counts.values())


@pytest.mark.parametrize("body,code,nothing_ran", [
    ("def test_ok():\n    assert True\n", 0, False),
    ("import pytest\n\n\ndef test_skip():\n    pytest.skip('no')\n", 1,
     True),
    ("def test_broken():\n    assert False\n", 1, False),
], ids=["ran", "nothing-ran", "failed"])
def test_run_exits_non_zero_unless_a_test_ran_and_passed(
        monkeypatch, tmp_path, capsys, body, code, nothing_ran):
    (tmp_path / "test_x_demo.py").write_text(body)
    monkeypatch.setattr(launcher, "_BENCHMARKS", tmp_path)
    assert main(["run", "x_demo"]) == code
    assert ("no test ran for 'x_demo'"
            in capsys.readouterr().out) == nothing_ran


def test_examples_enumerates_examples(capsys):
    assert cmd_examples() == 0
    out = capsys.readouterr().out
    assert "quickstart.py" in out
    assert "spot_eviction.py" in out


def test_unknown_experiment_is_an_error(capsys):
    assert main(["run", "fig99"]) == 1
    assert "unknown experiment" in capsys.readouterr().out


def test_metrics_live_run_dumps_registry(capsys):
    assert main(["metrics", "--batches", "30"]) == 0
    out = capsys.readouterr().out
    assert "bench.op_latency" in out
    assert "qp.wire_latency" in out
    assert "p99" in out


def test_metrics_json_output_is_parseable(capsys):
    import json

    assert main(["metrics", "--json", "--batches", "30"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["schema"] == "repro.obs/v1"
    assert blob["metrics"]["bench.ops"]["value"] > 0


def test_metrics_for_missing_bench_blob_is_an_error(capsys):
    assert main(["metrics", "fig99"]) == 1
    assert "no metrics blob" in capsys.readouterr().out


def test_metrics_shows_a_committed_bench_blob(capsys):
    assert main(["metrics", "fig07"]) == 0
    assert "bench.op_latency" in capsys.readouterr().out


def test_every_bench_blob_is_named_after_its_benchmark():
    """``bench_metrics`` names a blob after its test file's full stem,
    and ``repro metrics <id>`` reads it there: a blob named otherwise
    is one nothing reads."""
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    blobs = sorted((benchmarks / "_results").glob("BENCH_*.json"))
    assert blobs
    orphans = [blob.name for blob in blobs if not (
        benchmarks / f"test_{blob.stem.removeprefix('BENCH_')}.py"
    ).is_file()]
    assert not orphans


def test_missing_command_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


def test_sweep_json_runs_print_the_same_grid(capsys):
    import json

    argv = ["sweep", "--max-client-threads", "1", "--max-queue-depth", "2",
            "--batches", "6", "--warmup", "2", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["schema"] == "repro.exec/v1"
    assert first["exec"]["tasks"] == len(first["grid"]) > 0
    assert first["exec"]["wall_seconds"] > 0
    assert all(row["throughput"] > 0 for row in first["grid"])

    # Every run measures, and the same arguments measure the same grid.
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["grid"] == first["grid"]


def test_sweep_table_output_without_cache(capsys):
    assert main(["sweep", "--max-client-threads", "1",
                 "--max-queue-depth", "2", "--batches", "6",
                 "--warmup", "2"]) == 0
    out = capsys.readouterr().out
    assert "tput" in out
    assert "tasks, " in out and "mode, " in out


def test_chaos_lists_scenarios(capsys):
    # Without a name, `gate` lists the registry: chaos scenarios included.
    assert main(["gate"]) == 0
    out = capsys.readouterr().out
    assert "spot-churn" in out
    assert "evict-primary" in out


def test_chaos_unknown_scenario_is_an_error(capsys):
    assert main(["gate", "nope"]) == 2
    assert "unknown gate entry 'nope'" in capsys.readouterr().out


def test_chaos_runs_scenario_and_dumps_fault_log(capsys):
    import json

    assert main(["gate", "slow-node", "--seed", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "repro.gate/v1"
    assert report["ok"] and report["seed"] == 5
    [entry] = report["entries"]
    assert entry["name"] == "slow-node"
    assert entry["divergence"] is None and entry["failures"] == []
    blob = entry["blob"]
    assert blob["schema"] == "repro.faults/v1"
    assert blob["seed"] == 5
    assert blob["summary"]["probes"] > 0
    kinds = {event["kind"] for event in blob["events"]}
    assert {"slow-node", "slow-node-cleared",
            "latency-spike", "latency-spike-cleared"} <= kinds

    # Same seed => the same report, fault-log digest and all.
    assert main(["gate", "slow-node", "--seed", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == report


def test_shard_smoke_passes_and_reports(capsys):
    assert main(["gate", "shard"]) == 0
    out = capsys.readouterr().out
    assert "PASS shard" in out
    assert "in order, replayed" in out
    assert "gate: 1/1 passed at seed 0" in out


def test_shard_json_blob_is_deterministic():
    import json

    run = SCENARIOS["shard"].run
    blob = run(4)
    assert json.loads(json.dumps(blob)) == blob  # JSON-able as is
    assert blob["schema"] == "repro.shard/v1"
    assert blob["failed"] == 0
    assert blob["throughput_ops_s"] > 0
    assert any(name.startswith("shard.reads{")
               for name in blob["metrics"])
    assert run(4) == blob


def test_gate_reports_lost_acked_writes_when_writes_drop_payloads(
        monkeypatch, capsys):
    import json

    from repro.core.client import RedyCache

    write = RedyCache.write

    def dropping_write(self, addr, data, *args, **kwargs):
        # Acknowledge the write but store zeros: a payload-dropping bug.
        return write(self, addr, bytes(len(data)), *args, **kwargs)

    monkeypatch.setattr(RedyCache, "write", dropping_write)
    assert main(["gate", "shard", "--json"]) == 1
    [entry] = json.loads(capsys.readouterr().out)["entries"]
    assert entry["divergence"] is None  # deterministic, just wrong
    # The op history names the key, the read and the zeroes it returned.
    assert any(re.fullmatch(r"key \d+: read \[[\d.]+, [\d.]+\] returned "
                            r"0{16}\.\.\(64 B\), .*", line)
               for line in entry["failures"]), entry["failures"]


def test_sanitize_cli_lists_workloads(capsys):
    assert main(["gate"]) == 0
    out = capsys.readouterr().out
    for name, scenario in SCENARIOS.items():
        assert f"{name}  {scenario.doc}" in out


def test_sanitize_cli_unknown_workload_is_an_error(capsys):
    assert main(["gate", "measure", "--all"]) == 2
    assert "not both" in capsys.readouterr().out


def test_sanitize_cli_demo_nondet_diverges(monkeypatch, capsys):
    import json

    from tests.analysis.nondet_demo import DEMO, LEAK

    monkeypatch.setitem(SCENARIOS, "demo-nondet", DEMO)
    LEAK["runs"] = 0
    assert main(["gate", "demo-nondet", "--json"]) == 1
    [entry] = json.loads(capsys.readouterr().out)["entries"]
    divergence = entry["divergence"]
    # The replay leaks: it disagrees with the first run although both
    # dispatched in order, so this is a replay bug, not an ordering bug.
    assert divergence["kind"] == "replay"
    assert divergence["runs"] == "demo-nondet[run-vs-replay]"
    assert LEAK["runs"] == 2  # the run and its replay
    assert divergence["index"] == 7
    assert divergence["rng_divergence"] == {"demo": [3, 6]}
    assert "demo" in divergence["attribution"]

    LEAK["runs"] = 0
    assert main(["gate", "demo-nondet"]) == 1
    out = capsys.readouterr().out
    assert "FAIL demo-nondet" in out
    assert "replay bug" in out


def test_verbs_smoke_passes_and_reports(capsys):
    assert main(["gate", "verbs"]) == 0
    out = capsys.readouterr().out
    assert "PASS verbs" in out
    assert "in order, replayed" in out


def test_verbs_json_blob_carries_both_transports():
    blob = SCENARIOS["verbs"].run(0)
    assert blob["two_hop"]["digest"] == blob["program"]["digest"]
    assert blob["program"]["programs"] == blob["program"]["ops"] == 48
    assert blob["two_hop"]["two_hop_reads"] == 48
    assert (blob["program"]["read_latency_mean_us"]
            < blob["two_hop"]["read_latency_mean_us"])


def test_tenants_smoke_passes_and_reports(monkeypatch, capsys):
    # The tier under abuse and a member kill, at a sixth of the `tenants`
    # entry's size (whose full run `gate --all` covers), must dispatch in
    # order and trace and report identically on replay.
    monkeypatch.setitem(SCENARIOS, "tenants-small", Scenario(
        functools.partial(tenants_run, ops=400, abusive=True, kill=True),
        lambda blob: blob["history"]["failures"]))
    assert main(["gate", "tenants-small"]) == 0
    out = capsys.readouterr().out
    assert "PASS tenants-small" in out
    assert "in order, replayed" in out
    assert re.search(r"[1-9][\d,]* reads checked", out), out


def test_tenants_json_blob_carries_per_tenant_stats():
    import json

    blob = tenants_run(0, 400, abusive=True, kill=False)
    assert json.loads(json.dumps(blob)) == blob
    assert blob["schema"] == "repro.tenants/v1"
    assert sorted(blob["tenants"]) == ["prem", "scav", "std"]
    assert blob["tenants"]["scav"]["shed"] > 0
    assert blob["tenants"]["prem"]["shed"] == 0
    assert blob["failed_reads"] == {"prem": 0, "std": 0}
    assert blob["premium_read_p99_s"] > 0
