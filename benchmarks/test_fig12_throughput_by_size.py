"""Figure 12: throughput of throughput-optimal caches across record sizes.

Paper observations reproduced here:

* reading and writing 16-byte records reaches ~200 MOPS, "an order of
  magnitude higher than raw network throughput" (the per-QP message
  rate that nd_read_bw/nd_write_bw hit);
* Redy beats the raw network up to ~256 B thanks to batching;
* throughput falls as records grow, converging to line rate for large
  records ("fewer operations/second are needed to saturate the
  network").
"""

from repro.core import RdmaConfig, max_batch_size
from repro.exec import SweepRunner, SweepTask
from repro.hardware import AZURE_HPC

SIZES = (4, 16, 64, 256, 1024, 4096, 16384)

#: Dependent-GET ablation: pointer chases on a one-sided deep-queue
#: configuration, two-hop vs one-RTT verb programs.  Halving the round
#: trips nearly doubles the closed-loop chase rate until the wire binds.
DEP_SIZES = (16, 256, 4096)
DEP_CONFIG = RdmaConfig(8, 0, 1, 16)


def throughput_config(size: int) -> RdmaConfig:
    return RdmaConfig(30, 30, max_batch_size(size), 16)


def raw_network_mops(size: int) -> float:
    """What the Mellanox bandwidth tools reach: one QP, no batching --
    message-rate-bound for small records, line-rate-bound for large."""
    nic = AZURE_HPC.nic
    by_message_rate = nic.message_rate_mops_per_qp * 1e6
    by_line_rate = nic.bytes_per_second / size
    return min(by_message_rate, by_line_rate) / 1e6


def run_experiment(metrics=None):
    tasks = [
        SweepTask(config=throughput_config(size), record_size=size,
                  read_fraction=read_fraction, seed=6,
                  batches_per_connection=60, warmup_batches=15)
        for size in SIZES for read_fraction in (0.0, 1.0)
    ]
    dep_tasks = [
        SweepTask(config=DEP_CONFIG.with_ablation(use_verb_programs=programs),
                  record_size=size, read_fraction=1.0, seed=6,
                  batches_per_connection=60, warmup_batches=15,
                  dependent_reads=True)
        for size in DEP_SIZES for programs in (False, True)
    ]
    results = SweepRunner(metrics=metrics).run(tasks + dep_tasks)
    rows = []
    for index, size in enumerate(SIZES):
        write, read = results[2 * index], results[2 * index + 1]
        rows.append((size, throughput_config(size).batch_size,
                     write.throughput / 1e6, read.throughput / 1e6,
                     raw_network_mops(size)))
    dep_rows = []
    dep_results = results[len(tasks):]
    for index, size in enumerate(DEP_SIZES):
        two_hop = dep_results[2 * index]
        program = dep_results[2 * index + 1]
        dep_rows.append((size, two_hop.throughput / 1e6,
                         program.throughput / 1e6,
                         program.throughput / two_hop.throughput))
    return rows, dep_rows


def test_fig12_throughput_by_record_size(benchmark, report, bench_metrics):
    rows, dep_rows = benchmark.pedantic(
        run_experiment, kwargs={"metrics": bench_metrics},
        rounds=1, iterations=1)
    lines = [f"{'size':>7} {'batch':>6} {'write':>9} {'read':>9} "
             f"{'raw-net':>9}   (paper: ~200M at 16B, 10x raw)"]
    for size, batch, write, read, raw in rows:
        lines.append(f"{size:>6}B {batch:>6} {write:>8.2f}M {read:>8.2f}M "
                     f"{raw:>8.2f}M")
    report("fig12",
           "Figure 12: throughput vs record size (throughput-optimal)",
           lines)

    by_size = {row[0]: row for row in rows}
    # ~200 MOPS for 16-byte records, reads ~ writes.
    assert 150 < by_size[16][2] < 300
    assert abs(by_size[16][2] - by_size[16][3]) / by_size[16][2] < 0.15
    # An order of magnitude over the raw network for small records.
    assert by_size[16][2] > 8 * by_size[16][4]
    assert by_size[4][2] > 8 * by_size[4][4]
    # Batching stops paying above the 4 KB transfer knee: large records
    # converge to the raw network's line-rate bound.
    assert by_size[256][2] > 1.5 * by_size[256][4]
    assert abs(by_size[16384][2] - by_size[16384][4]) / by_size[16384][4] \
        < 0.35
    # Monotone decline with record size.
    writes = [row[2] for row in rows]
    assert writes == sorted(writes, reverse=True)

    dep_lines = [f"{'size':>7} {'two-hop':>9} {'program':>9} {'ratio':>6}"
                 f"   (dependent GETs, c=8 s=0 q=16)"]
    for size, two_hop, program, ratio in dep_rows:
        dep_lines.append(f"{size:>6}B {two_hop:>8.2f}M {program:>8.2f}M "
                         f"{ratio:>5.2f}x")
    report("fig12_dependent",
           "Figure 12 ablation: dependent-GET throughput, "
           "one-RTT programs vs two-hop", dep_lines)

    dep_by_size = {row[0]: row for row in dep_rows}
    # Half the round trips per chase: programs win everywhere, by ~1.6x
    # while message-rate/latency-bound (small records) ...
    for size, two_hop, program, _ratio in dep_rows:
        assert program > two_hop, size
    assert dep_by_size[16][3] > 1.4
    assert dep_by_size[256][3] > 1.4
    # ... converging once the 4 KB payload makes the wire the bottleneck.
    assert dep_by_size[4096][3] < 1.3
