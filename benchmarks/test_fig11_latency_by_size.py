"""Figure 11: latency of latency-optimal caches across record sizes.

4 B to 16 KB records on a one-sided, queue-depth-1 configuration.
Paper observations reproduced here:

* average latency close to the raw network's 3-4 us;
* writes beat reads below ~256 B because small writes *inline* in the
  work request (the testbed's threshold is 172 B), dodging the PCIe
  fetch;
* latency stays flat up to 4 KB and grows significantly after.
"""

from repro.core import RdmaConfig
from repro.core.measurement import measure_config
from repro.hardware import AZURE_HPC

SIZES = (4, 16, 64, 172, 256, 1024, 4096, 16384)
CONFIG = RdmaConfig(1, 0, 1, 1)


def raw_network_latency(size: int, is_read: bool) -> float:
    """What nd_read_lat / nd_write_lat would report: pure verb latency."""
    nic, fabric = AZURE_HPC.nic, AZURE_HPC.fabric
    latency = (fabric.round_trip_base(1) + nic.wire_time(size)
               + nic.per_message_processing + nic.rx_dma)
    if is_read or not nic.can_inline(size):
        latency += nic.dma_fetch(size)
    return latency


def run_experiment(metrics=None):
    rows = []
    for size in SIZES:
        write = measure_config(CONFIG, size, read_fraction=0.0, seed=6,
                               metrics=metrics)
        read = measure_config(CONFIG, size, read_fraction=1.0, seed=6,
                              metrics=metrics)
        rows.append((size, write.latency_mean * 1e6,
                     read.latency_mean * 1e6,
                     raw_network_latency(size, False) * 1e6,
                     raw_network_latency(size, True) * 1e6))
    return rows


def test_fig11_latency_by_record_size(benchmark, report, bench_metrics):
    rows = benchmark.pedantic(run_experiment, args=(bench_metrics,),
                              rounds=1, iterations=1)
    lines = [f"{'size':>7} {'write':>8} {'read':>8} {'raw-wr':>8} "
             f"{'raw-rd':>8}   (paper: 3-4us raw, Redy close)"]
    for size, write, read, raw_write, raw_read in rows:
        lines.append(f"{size:>6}B {write:>6.2f}us {read:>6.2f}us "
                     f"{raw_write:>6.2f}us {raw_read:>6.2f}us")
    report("fig11", "Figure 11: latency vs record size (latency-optimal)",
           lines)

    by_size = {row[0]: row for row in rows}
    # Writes inline below the threshold, so they beat reads there ...
    for size in (4, 16, 64, 172):
        assert by_size[size][1] < by_size[size][2], size
    # ... and the advantage disappears above it (paper: "Inlining no
    # longer works when the data exceeds a threshold (172 bytes)").
    assert by_size[256][1] >= by_size[172][1] + 0.3
    assert abs(by_size[256][1] - by_size[256][2]) < 0.2
    # Latency stays within ~25% of the small-record value up to 4 KB,
    # then grows significantly (paper's knee).
    assert by_size[4096][1] / by_size[4][1] < 1.35
    assert by_size[16384][1] / by_size[4096][1] > 1.3
    # Redy adds ~1us of client software on top of the raw verb.
    for size, write, _read, raw_write, _raw_read in rows:
        assert write - raw_write < 1.5, size
