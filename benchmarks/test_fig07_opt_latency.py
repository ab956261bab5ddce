"""Figure 7: Redy optimizations effectively decrease latency.

One application / client / server thread, 8-byte records, batch size
one, measured under load (the batch ring holds a backlog, as in the
paper's test).  The ladder applies the §4.3 static optimizations one at
a time: lock-free rings -> one-sided fast path -> fully-loaded queue
pairs -> NUMA-aware affinitized threads.

Paper medians: 19 us (lock-free) -> 12 us (one-sided) -> 7.1 us (QD 4)
-> 5 us (NUMA), with the lock-free step cutting the p99 tail ~7x, and a
2.9 us network component throughout.
"""

from repro.core import RdmaConfig
from repro.core.latency import DataPathModel
from repro.exec import SweepRunner, tasks_for
from repro.hardware import AZURE_HPC

STAGES = [
    ("baseline (locks)", RdmaConfig(1, 1, 1, 1, lock_free=False,
                                    one_sided_fast_path=False,
                                    numa_affinity=False)),
    ("lock-free rings", RdmaConfig(1, 1, 1, 1, one_sided_fast_path=False,
                                   numa_affinity=False)),
    ("one-sided ops", RdmaConfig(1, 1, 1, 1, numa_affinity=False)),
    ("fully-loaded QPs", RdmaConfig(1, 1, 1, 4, numa_affinity=False)),
    ("NUMA affinity", RdmaConfig(1, 1, 1, 4)),
]

PAPER_MEDIAN_US = {"lock-free rings": 19.0, "one-sided ops": 12.0,
                   "fully-loaded QPs": 7.1, "NUMA affinity": 5.0}


def stage_tasks():
    """The ladder as one sweep batch (shared with Figure 8, which reads
    the throughput of the same measurements)."""
    return tasks_for([config for _label, config in STAGES], record_size=8,
                     base_seed=5, seed_stride=0, read_fraction=0.0,
                     extra_outstanding=2, batches_per_connection=400,
                     warmup_batches=100)


def run_experiment(metrics=None):
    model = DataPathModel(AZURE_HPC, switch_hops=1)
    results = SweepRunner(metrics=metrics).run(stage_tasks())
    rows = []
    for (label, config), result in zip(STAGES, results):
        network = model.network_round_trip(config, 8, is_read=False)
        rows.append((label, result.latency_p50 * 1e6,
                     result.latency_p99 * 1e6, network * 1e6))
    return rows


def test_fig07_optimization_latency(benchmark, report, bench_metrics):
    rows = benchmark.pedantic(
        run_experiment, kwargs={"metrics": bench_metrics},
        rounds=1, iterations=1)
    lines = [f"{'stage':>18} {'median':>9} {'p99':>9} {'network':>9} "
             f"{'paper-median':>13}"]
    for label, p50, p99, network in rows:
        paper = PAPER_MEDIAN_US.get(label)
        paper_text = f"{paper:>11.1f}us" if paper else f"{'-':>13}"
        lines.append(f"{label:>18} {p50:>7.1f}us {p99:>7.1f}us "
                     f"{network:>7.1f}us {paper_text}")
    report("fig07", "Figure 7: per-optimization latency ladder", lines)

    by_label = {label: (p50, p99, network) for label, p50, p99, network
                in rows}
    # Every optimization step lowers median latency.
    medians = [p50 for _label, p50, _p99, _net in rows]
    assert medians == sorted(medians, reverse=True)
    # Lock-free slashes the tail (paper: ~7x).
    assert by_label["baseline (locks)"][1] > 2.5 * by_label[
        "lock-free rings"][1]
    # The network component stays ~2.9us for one-sided stages.
    assert abs(by_label["NUMA affinity"][2] - 2.9) < 0.1
    # Final tuned median lands in the paper's 5-7us neighbourhood.
    assert 4.0 < by_label["NUMA affinity"][0] < 8.0
