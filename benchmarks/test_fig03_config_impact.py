"""Figure 3: the impact of the RDMA configuration.

Writing 8-byte payloads under three configurations.  Paper: the
latency-optimal configuration reaches 4.1 us but only 1.2 MOPS; the
throughput-optimal one reaches 205 MOPS at 538 us; balanced sits at
14 us / 77 MOPS.
"""

from repro.core import RdmaConfig
from repro.exec import SweepRunner, tasks_for

#: Representative configurations for the three regimes (the paper does
#: not publish its exact tuples; these are this testbed's equivalents).
CONFIGS = {
    "latency-optimal": RdmaConfig(5, 0, 1, 1),
    "balanced": RdmaConfig(24, 24, 16, 4),
    "throughput-optimal": RdmaConfig(30, 30, 512, 16),
}

PAPER = {
    "latency-optimal": (4.1, 1.2),
    "balanced": (14.0, 77.0),
    "throughput-optimal": (538.0, 205.0),
}


def run_experiment():
    tasks = tasks_for(CONFIGS.values(), record_size=8, base_seed=3,
                      seed_stride=0, read_fraction=0.0)
    results = SweepRunner().run(tasks)
    return {label: (result.latency_mean * 1e6, result.throughput / 1e6)
            for label, result in zip(CONFIGS, results)}


def test_fig03_config_impact(benchmark, report):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = [f"{'configuration':>20} {'latency':>10} {'tput':>9} "
             f"  paper: latency / tput"]
    for label, (latency, tput) in rows.items():
        paper_lat, paper_tput = PAPER[label]
        lines.append(f"{label:>20} {latency:>8.1f}us {tput:>7.1f}M   "
                     f"{paper_lat:.1f}us / {paper_tput:.0f}M")
    report("fig03", "Figure 3: latency/throughput across configurations",
           lines)

    lat_opt = rows["latency-optimal"]
    balanced = rows["balanced"]
    tput_opt = rows["throughput-optimal"]
    # Anchors: 4.1us within 10%; ~200 MOPS within 35%.
    assert abs(lat_opt[0] - 4.1) / 4.1 < 0.10
    assert abs(lat_opt[1] - 1.2) / 1.2 < 0.20
    assert 130 < tput_opt[1] < 280
    assert tput_opt[0] > 300  # high-latency regime
    # Orderings: ~130x latency spread, ~170x throughput spread.
    assert lat_opt[0] < balanced[0] < tput_opt[0]
    assert lat_opt[1] < balanced[1] < tput_opt[1]
    assert tput_opt[1] / lat_opt[1] > 50
