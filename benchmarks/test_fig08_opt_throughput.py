"""Figure 8: effectiveness of the optimizations on throughput.

Same ladder as Figure 7, throughput view.  Paper gains per step:
lock-free +68.7%, one-sided +45.3%, fully-loaded QPs 3.4x, NUMA
affinitization +52% (reaching 1.1 MOPS on one connection).
"""

from repro.core import RdmaConfig
from repro.exec import SweepRunner

from benchmarks.test_fig07_opt_latency import STAGES, stage_tasks

PAPER_GAIN = {"lock-free rings": 0.687, "one-sided ops": 0.453,
              "fully-loaded QPs": 2.4, "NUMA affinity": 0.52}


def run_experiment(metrics=None):
    results = SweepRunner(metrics=metrics).run(stage_tasks())
    rows = []
    previous = None
    for (label, _config), result in zip(STAGES, results):
        gain = (result.throughput / previous - 1.0) if previous else None
        previous = result.throughput
        rows.append((label, result.throughput / 1e6, gain))
    return rows


def test_fig08_optimization_throughput(benchmark, report, bench_metrics):
    rows = benchmark.pedantic(
        run_experiment, kwargs={"metrics": bench_metrics},
        rounds=1, iterations=1)
    lines = [f"{'stage':>18} {'tput':>9} {'gain':>8} {'paper-gain':>11}"]
    for label, mops, gain in rows:
        gain_text = f"{gain * 100:>+6.1f}%" if gain is not None else "      -"
        paper = PAPER_GAIN.get(label)
        paper_text = f"{paper * 100:>+9.1f}%" if paper is not None else (
            f"{'-':>11}")
        lines.append(f"{label:>18} {mops:>7.3f}M {gain_text} {paper_text}")
    report("fig08", "Figure 8: per-optimization throughput ladder", lines)

    gains = {label: gain for label, _mops, gain in rows if gain is not None}
    # Every optimization increases throughput ...
    assert all(gain > 0 for gain in gains.values())
    # ... by roughly the paper's factors.
    assert 0.45 < gains["lock-free rings"] < 0.95       # paper +68.7%
    assert 0.25 < gains["one-sided ops"] < 0.70         # paper +45.3%
    assert 1.8 < gains["fully-loaded QPs"] < 3.2        # paper 3.4x total
    assert 0.35 < gains["NUMA affinity"] < 0.95         # paper +52%
    # Fully tuned single connection approaches the paper's 1.1 MOPS.
    final = rows[-1][1]
    assert 0.7 < final < 1.5
