"""Command-line entry point: ``python -m repro``.

Convenience launcher for a repository checkout:

* ``python -m repro list`` -- enumerate the reproduction experiments;
* ``python -m repro run fig03`` -- regenerate one table/figure;
* ``python -m repro run all`` -- regenerate everything;
* ``python -m repro metrics`` -- run an instrumented measurement and dump
  its ``repro.obs`` registry (``--json`` for the raw blob);
* ``python -m repro metrics fig07`` -- show a saved ``BENCH_fig07.json``;
* ``python -m repro sweep`` -- measure a configuration grid through the
  parallel sweep executor and its on-disk result cache (``repro.exec``);
* ``python -m repro lint`` -- run the determinism AST linter
  (``repro.analysis``) over source paths; exit 0 clean, 1 findings,
  2 internal error;
* ``python -m repro gate spot-churn`` -- run one registered scenario
  (``repro.gates``) twice, demand in-order dispatch and identical
  traces and blobs, and check its invariants; ``--all`` gates every
  entry, no name lists them; exit 0 pass, 1 failures, 2 internal error;
* ``python -m repro examples`` -- list the example applications.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
from xml.etree import ElementTree

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_BENCHMARKS = _REPO_ROOT / "benchmarks"
_EXAMPLES = _REPO_ROOT / "examples"


def _experiment_ids() -> dict[str, pathlib.Path]:
    """Every ``benchmarks/test_<id>.py`` by its full id, and by the
    short id before the id's first ``_`` (``fig03``) where no other
    file shares it."""
    if not _BENCHMARKS.is_dir():
        return {}
    experiments = {}
    shared: dict[str, list[pathlib.Path]] = {}
    for path in sorted(_BENCHMARKS.glob("test_*.py")):
        identifier = path.stem.removeprefix("test_")
        experiments[identifier] = path
        shared.setdefault(identifier.split("_")[0], []).append(path)
    for short, paths in shared.items():
        if len(paths) == 1:
            experiments.setdefault(short, paths[0])
    return experiments


def _first_doc_line(path: pathlib.Path) -> str:
    for line in path.read_text().splitlines():
        stripped = line.strip().strip('"')
        if stripped and not stripped.startswith("#"):
            return stripped
    return ""


def cmd_list() -> int:
    experiments = _experiment_ids()
    if not experiments:
        print("no benchmarks/ directory found -- run from a repository "
              "checkout")
        return 1
    print(f"{'id':>26}  experiment")
    for path in sorted(set(experiments.values())):
        print(f"{path.stem.removeprefix('test_'):>26}  "
              f"{_first_doc_line(path)}")
    return 0


def _tests_run(junit: pathlib.Path) -> int:
    """Tests a pytest JUnit XML report says ran (not skipped)."""
    return sum(int(suite.get("tests", 0)) - int(suite.get("skipped", 0))
               for suite in ElementTree.parse(junit).iter("testsuite"))


def cmd_run(identifier: str) -> int:
    """Run one experiment's benchmark file (or every one) under pytest:
    every test in it, whether or not it uses the ``benchmark`` fixture.
    Exits non-zero when pytest fails or no test ran."""
    experiments = _experiment_ids()
    if identifier == "all":
        targets = sorted(set(experiments.values()))
    else:
        path = experiments.get(identifier)
        if path is None:
            print(f"unknown experiment {identifier!r}; "
                  f"try `python -m repro list`")
            return 1
        targets = [path]
    with tempfile.TemporaryDirectory() as scratch:
        junit = pathlib.Path(scratch) / "junit.xml"
        code = subprocess.call(
            [sys.executable, "-m", "pytest", *map(str, targets), "-q", "-s",
             f"--junitxml={junit}"])
        if code == 0 and _tests_run(junit) == 0:
            print(f"no test ran for {identifier!r}")
            return 1
    return code


def cmd_metrics(identifier: str | None, as_json: bool,
                queue_depth: int, threads: int, batches: int) -> int:
    """Dump a run's ``repro.obs`` metrics registry.

    With an experiment id, pretty-print the ``BENCH_<id>.json`` blob a
    previous benchmark run persisted.  Without one, stand up the
    measurement testbed (§5.1), run it instrumented, and dump the live
    registry -- the quickest way to see what the data path measures.
    """
    from repro.obs.export import format_table, snapshot

    if identifier is not None:
        # Short ids (fig07) resolve through the experiment table to the
        # full blob name the bench_metrics fixture writes.
        path = _experiment_ids().get(identifier)
        if path is not None:
            identifier = path.stem.removeprefix("test_")
        blob_path = _BENCHMARKS / "_results" / f"BENCH_{identifier}.json"
        if not blob_path.is_file():
            print(f"no metrics blob at {blob_path}; run the benchmark "
                  f"first: python -m repro run {identifier}")
            return 1
        blob = json.loads(blob_path.read_text())
        print(json.dumps(blob, indent=2, sort_keys=True) if as_json
              else format_table(blob))
        return 0

    from repro.core.config import RdmaConfig
    from repro.core.measurement import measure_config
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    config = RdmaConfig(threads, 0, 1, queue_depth)
    result = measure_config(config, 8, seed=7, metrics=registry,
                            batches_per_connection=batches)
    blob = snapshot(registry, name="metrics-demo",
                    extra={"config": repr(config),
                           "throughput_ops": result.throughput,
                           "latency_p50": result.latency_p50,
                           "latency_p99": result.latency_p99})
    print(json.dumps(blob, indent=2, sort_keys=True) if as_json
          else format_table(blob))
    return 0


def cmd_sweep(record_size: int, max_client_threads: int,
              max_queue_depth: int, workers: int | None, batches: int,
              warmup: int, seed: int, cache_dir: str | None,
              as_json: bool) -> int:
    """Measure a configuration grid through the sweep executor.

    Walks the powers-of-two grid of the requested configuration space,
    fans the measurements across the worker pool, and prints one row per
    grid point plus the executor's own counters.  Re-running the same
    sweep is near-instant: results come back from the content-addressed
    cache (``--cache-dir ''`` disables it).
    """
    from repro.core.space import ConfigSpace
    from repro.exec import ResultCache, SweepRunner, tasks_for
    from repro.obs.metrics import MetricsRegistry

    space = ConfigSpace(max_client_threads=max_client_threads,
                        record_size=record_size,
                        max_queue_depth=max_queue_depth,
                        min_queue_depth=min(4, max_queue_depth))
    configs = list(space.iter_grid())
    cache = None
    if cache_dir != "":
        root = (pathlib.Path(cache_dir) if cache_dir
                else _BENCHMARKS / "_results" / ".cache")
        cache = ResultCache(root)
    registry = MetricsRegistry()
    runner = SweepRunner(max_workers=workers, cache=cache, metrics=registry)
    tasks = tasks_for(configs, record_size=record_size, base_seed=seed,
                      seed_stride=0, batches_per_connection=batches,
                      warmup_batches=warmup)
    results = runner.run(tasks)

    rows = [{
        "config": {"s": c.server_threads, "c": c.client_threads,
                   "b": c.batch_size, "q": c.queue_depth},
        "latency_mean": r.latency_mean,
        "latency_p99": r.latency_p99,
        "throughput": r.throughput,
    } for c, r in zip(configs, results)]
    summary = {
        "mode": runner.last_mode,
        "tasks": len(tasks),
        "cache_hits": registry.counter("exec.cache_hits").value,
        "wall_seconds": registry.gauge("exec.wall_seconds").value,
    }
    if as_json:
        print(json.dumps({"schema": "repro.exec/v1", "grid": rows,
                          "exec": summary}, indent=2, sort_keys=True))
        return 0
    print(f"{'s':>4} {'c':>4} {'b':>5} {'q':>4} {'mean-lat':>11} "
          f"{'p99-lat':>11} {'tput':>10}")
    for row in rows:
        cfg = row["config"]
        print(f"{cfg['s']:>4} {cfg['c']:>4} {cfg['b']:>5} {cfg['q']:>4} "
              f"{row['latency_mean'] * 1e6:>9.1f}us "
              f"{row['latency_p99'] * 1e6:>9.1f}us "
              f"{row['throughput'] / 1e6:>8.2f}M")
    print(f"{summary['tasks']} tasks, "
          f"{summary['cache_hits']:.0f} cache hits, "
          f"{summary['mode']} mode, "
          f"{summary['wall_seconds']:.2f}s wall")
    return 0


def cmd_lint(paths: list[str], fmt: str, rules: str | None) -> int:
    """Run the determinism AST linter (``repro.analysis``) over paths.

    Defaults to the ``src/repro`` tree.  Exit codes follow the analysis
    contract: 0 clean, 1 findings, 2 internal error (the latter raised
    out of here and mapped in :func:`main`).
    """
    from repro.analysis import format_findings, lint_paths

    targets = paths or [str(_REPO_ROOT / "src" / "repro")]
    rule_ids = ([part.strip() for part in rules.split(",") if part.strip()]
                if rules else None)
    findings, files = lint_paths(targets, rules=rule_ids)
    print(format_findings(findings, fmt=fmt, tool="repro-lint"))
    if fmt == "text":
        print(f"scanned {len(files)} file(s)")
    return 1 if findings else 0


def cmd_gate(name: str | None, run_all: bool, seed: int,
             as_json: bool) -> int:
    """Run registered scenarios through the gate harness (``repro.gates``).

    Each entry runs twice: every dispatch must follow the reference
    ``(when, insertion)`` order, both traces and both blobs must match,
    and the blob must pass the entry's invariants.  Without a name (and without ``--all``) lists the
    registry.  Exit codes follow the analysis contract: 0 every entry
    passed, 1 failures, 2 internal error (mapped in :func:`main`).
    """
    from repro.gates import SCENARIOS, format_report, gate

    if name is None and not run_all:
        for entry, scenario in SCENARIOS.items():
            print(f"{entry:>21}  {scenario.doc}")
        return 0
    if name is not None and run_all:
        raise ValueError("name an entry or pass --all, not both")
    if name is not None and name not in SCENARIOS:
        raise ValueError(f"unknown gate entry {name!r}; run `python -m "
                         "repro gate` to list them")
    report = gate(list(SCENARIOS) if run_all else [name], seed)
    print(json.dumps(report, indent=2, sort_keys=True) if as_json
          else format_report(report))
    return 0 if report["ok"] else 1


def cmd_examples() -> int:
    if not _EXAMPLES.is_dir():
        print("no examples/ directory found")
        return 1
    for path in sorted(_EXAMPLES.glob("*.py")):
        print(f"python examples/{path.name:<28} {_first_doc_line(path)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Redy (VLDB 2021) reproduction launcher")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproduction experiments")
    run = sub.add_parser("run", help="regenerate one experiment (or all)")
    run.add_argument("experiment", help="experiment id, e.g. fig03, or all")
    metrics = sub.add_parser(
        "metrics",
        help="dump a run's repro.obs metrics registry")
    metrics.add_argument(
        "experiment", nargs="?", default=None,
        help="saved bench blob to show (e.g. fig07); omit to run a live "
             "instrumented measurement")
    metrics.add_argument("--json", action="store_true", dest="as_json",
                         help="raw JSON instead of the table view")
    metrics.add_argument("--queue-depth", type=int, default=4)
    metrics.add_argument("--threads", type=int, default=1)
    metrics.add_argument("--batches", type=int, default=120,
                         help="measured batches per connection")
    sweep = sub.add_parser(
        "sweep",
        help="measure a configuration grid via the parallel sweep executor")
    sweep.add_argument("--record-size", type=int, default=64)
    sweep.add_argument("--max-client-threads", type=int, default=4)
    sweep.add_argument("--max-queue-depth", type=int, default=8)
    sweep.add_argument("--workers", type=int, default=None,
                       help="pool size (default: cpu count; 1 = serial)")
    sweep.add_argument("--batches", type=int, default=30,
                       help="measured batches per connection")
    sweep.add_argument("--warmup", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: "
                            "benchmarks/_results/.cache; '' disables)")
    sweep.add_argument("--json", action="store_true", dest="as_json")
    lint = sub.add_parser(
        "lint",
        help="run the determinism AST linter (repro.analysis)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      dest="fmt")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to enable "
                           "(default: all, e.g. D001,D003)")
    gate = sub.add_parser(
        "gate",
        help="run registered scenarios twice, check dispatch order, "
             "replay and their invariants")
    gate.add_argument("name", nargs="?", default=None,
                      help="entry to gate (omit to list the registry)")
    gate.add_argument("--all", action="store_true", dest="run_all",
                      help="gate every registered entry")
    gate.add_argument("--seed", type=int, default=0)
    gate.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the repro.gate/v1 report as JSON")
    sub.add_parser("examples", help="list example applications")
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "run":
            return cmd_run(args.experiment)
        if args.command == "metrics":
            return cmd_metrics(args.experiment, args.as_json,
                               args.queue_depth, args.threads, args.batches)
        if args.command == "sweep":
            return cmd_sweep(args.record_size, args.max_client_threads,
                             args.max_queue_depth, args.workers,
                             args.batches, args.warmup, args.seed,
                             args.cache_dir, args.as_json)
        if args.command == "lint":
            return cmd_lint(args.paths, args.fmt, args.rules)
        if args.command == "gate":
            return cmd_gate(args.name, args.run_all, args.seed,
                            args.as_json)
        return cmd_examples()
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except Exception as exc:  # noqa: BLE001 - analysis exit-code contract
        if args.command in ("lint", "gate"):
            print(f"internal error: {type(exc).__name__}: {exc}")
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
