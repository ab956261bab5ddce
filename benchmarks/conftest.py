"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the experiment on the simulated testbed, prints the
paper-style rows (with the paper's own numbers alongside), writes them
to ``benchmarks/_results/``, and asserts the qualitative shape -- who
wins, by roughly what factor, where the knees fall.  Absolute numbers
come from a simulator, so EXPERIMENTS.md records paper-vs-measured for
each artifact.

Run with ``python -m repro run all`` (every ``test_*.py`` here, under
pytest with ``-s``) to see the tables.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.core.modeling import OfflineModeler, make_analytic_measurer
from repro.core.space import ConfigSpace
from repro.cluster.traces import TraceConfig, generate_trace
from repro.exec import SweepRunner, SweepTask
from repro.obs import MetricsRegistry
from repro.obs.export import write_json
from repro.workloads import run_kv_workload
from repro.workloads.scenarios import build_faster_store

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


@pytest.fixture()
def report():
    """Print one experiment's table and persist it for EXPERIMENTS.md."""

    def _report(name: str, title: str, lines) -> None:
        text = f"== {title} ==\n" + "\n".join(lines) + "\n"
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text)

    return _report


@pytest.fixture()
def bench_metrics(request):
    """A :class:`repro.obs.MetricsRegistry` for the experiment's runs.

    Pass it to ``measure_config(..., metrics=bench_metrics)`` (or install
    it on an Environment directly); at teardown any collected metrics are
    persisted to ``benchmarks/_results/BENCH_<id>.json`` so every bench
    run leaves a machine-readable latency/throughput blob next to its
    table, seeding the perf trajectory.
    """
    registry = MetricsRegistry()
    yield registry
    if len(registry) == 0:
        return
    # Full stem, not the first "_" token: test_abl_fault_availability
    # must land in BENCH_abl_fault_availability.json, not clobber every
    # other ablation's blob at BENCH_abl.json.
    identifier = pathlib.Path(str(request.node.fspath)).stem
    identifier = identifier.removeprefix("test_")
    write_json(RESULTS_DIR / f"BENCH_{identifier}.json", registry,
               name=identifier, extra={"test": request.node.name})


@pytest.fixture(scope="session")
def paper_trace():
    """The §2.1 synthetic cluster trace, shared by Figures 1 and 2."""
    return generate_trace(TraceConfig(clusters=8, duration_hours=24, seed=0))


@pytest.fixture(scope="session")
def model_8b():
    """The 8-byte-record performance model at one switch hop (§5.2),
    shared by the Figure 13/14 and §5.2 benchmarks."""
    space = ConfigSpace(max_client_threads=30, record_size=8,
                        max_queue_depth=16)
    measurer = make_analytic_measurer(record_size=8, switch_hops=1,
                                      noise=0.03, seed=17)
    model, stats = OfflineModeler(space, measurer, switch_hops=1).build()
    return space, model, stats


@pytest.fixture(scope="session")
def slo_experiment(model_8b):
    """The §7.3 experiment shared by Figures 13 and 14.

    Draw 100 SLOs uniformly "between the lowest and highest latency and
    throughput values in the model", search a configuration for each,
    then *actually configure and measure* each returned configuration on
    the simulated testbed.
    """
    from repro.core.config import Slo
    from repro.core.search import SloSearcher

    space, model, _stats = model_8b
    best, worst = model.bounds()
    searcher = SloSearcher.for_model(model)
    rng = np.random.default_rng(99)

    searched = []
    for index in range(100):
        slo = Slo(
            max_latency=rng.uniform(best.latency, worst.latency),
            min_throughput=rng.uniform(worst.throughput, best.throughput),
            record_size=8)
        config = searcher.search(slo)
        if config is None:
            continue
        searched.append((index, slo, config, model.predict(config)))

    # The per-SLO seed is tied to the SLO's index (not the position in
    # the surviving list), so dropping an unsatisfiable SLO never shifts
    # another measurement's seed.
    reals = SweepRunner().run([
        SweepTask(config=config, record_size=8, seed=1000 + index,
                  batches_per_connection=30, warmup_batches=10)
        for index, _slo, config, _predicted in searched])

    return [
        {"slo": slo, "config": config, "predicted": predicted, "real": real}
        for (_index, slo, config, predicted), real in zip(searched, reals)
    ]


def faster_point(device_kind: str, n_threads: int, *,
                 distribution: str = "uniform",
                 n_records: int = 100_000,
                 n_ops: int = 25_000,
                 value_bytes: int = 8,
                 seed: int = 1,
                 workload_seed: int = 42,
                 **scenario_kwargs):
    """One FASTER datapoint: build, load, run, return a KvRunResult."""
    scenario = build_faster_store(
        device_kind, n_records=n_records, value_bytes=value_bytes,
        distribution=distribution, seed=seed, **scenario_kwargs)
    keys, is_read = scenario.workload.sample_ops(
        n_ops, np.random.default_rng(workload_seed))
    return run_kv_workload(scenario.env, scenario.store,
                           n_threads=n_threads, keys=keys, is_read=is_read)
