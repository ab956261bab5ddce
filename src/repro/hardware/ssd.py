"""SSD service-time model (Azure premium SSD class).

The paper's Section 1.1 framing: SSD access time is ~100 us but "highly
variable and often higher, due to garbage collection and concurrent
writes", with bandwidth 16-24 Gbit/s versus RDMA's 48-200 Gbit/s.  This
model reproduces exactly those properties: a ~100 us-class base latency, a
log-normal service distribution, occasional garbage-collection stalls, and
bounded internal parallelism that saturates near 20 Gbit/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.clock import US

__all__ = ["SsdSpec"]


@dataclass(frozen=True)
class SsdSpec:
    """Timing/capacity parameters of one server-attached SSD."""

    name: str = "azure-premium-ssd"

    #: Median 4K read service time.
    read_latency_median: float = 90.0 * US

    #: Median 4K write (program) service time.
    write_latency_median: float = 110.0 * US

    #: Sigma of the log-normal service-time distribution (unitless).
    latency_sigma: float = 0.35

    #: Probability that a request lands behind a garbage-collection stall.
    gc_probability: float = 0.01

    #: Mean added delay when it does.
    gc_stall_mean: float = 2_000.0 * US

    #: Sequential bandwidth, Gbit/s (paper: SSDs are 16-24 Gbit/s).
    bandwidth_gbps: float = 20.0

    #: Internal parallelism: concurrent requests the device can service.
    internal_parallelism: int = 8

    def transfer_time(self, size_bytes: int) -> float:
        """Bandwidth-limited component for a transfer of ``size_bytes``."""
        return size_bytes * 8 / (self.bandwidth_gbps * 1e9)

    def sample_latency(self, size_bytes: int, is_write: bool,
                       rng: np.random.Generator) -> float:
        """Draw one end-to-end service time for a request.

        Combines the log-normal base latency, the size-dependent transfer
        time, and (with probability :attr:`gc_probability`) an exponential
        garbage-collection stall.
        """
        median = self.write_latency_median if is_write else self.read_latency_median
        # Log-normal parameterized so exp(mu) is the median.
        base = median * float(np.exp(rng.normal(0.0, self.latency_sigma)))
        latency = base + self.transfer_time(size_bytes)
        if rng.random() < self.gc_probability:
            latency += float(rng.exponential(self.gc_stall_mean))
        return latency
