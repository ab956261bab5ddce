"""RDMA configurations, SLOs, and the Table 2 parameter bounds.

An :class:`RdmaConfig` is the paper's tuple ``(c, s, b, q)``:

* ``client_threads`` (c) -- client threads, one RDMA connection each;
* ``server_threads`` (s) -- cache-server threads, 0 meaning pure
  one-sided access with no batching;
* ``batch_size`` (b) -- requests per RDMA transfer, capped at
  ``ceil(4 KB / record size)`` because bandwidth utilization stops
  improving beyond 4 KB transfers;
* ``queue_depth`` (q) -- in-flight operations per connection, bounded by
  the NIC (16 on the paper's testbed).

The ablation switches (``lock_free``, ``one_sided_fast_path``,
``numa_affinity``) default to on; the Figure 7/8 benchmarks flip them to
rebuild the paper's optimization ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "ConfigurationError",
    "MIN_QUEUE_DEPTH_OPTIMIZED",
    "PerfPoint",
    "RdmaConfig",
    "Slo",
    "config_space_size",
    "max_batch_size",
]

#: Transfers stop improving bandwidth utilization beyond this size (§5.1),
#: which caps the batch size at ``ceil(4 KB / record_size)``.
BATCH_BYTES_CAP = 4096

#: The fully-loaded-QP optimization (§4.3) fixes the *minimum* queue depth:
#: "We measure the performance impact of queue depth, starting from one,
#: and choose the maximum value that improves both latency and
#: throughput."  On the paper's testbed that is 4, making the searchable
#: depths {4..16} -- the "(Q - opt.)" term of the §5.2 space-size formula
#: with opt. = 3.
MIN_QUEUE_DEPTH_OPTIMIZED = 4


class ConfigurationError(ValueError):
    """An RDMA configuration or SLO violates the Table 2 constraints."""


class PerfPoint(NamedTuple):
    """One performance observation: seconds per I/O and I/Os per second."""

    latency: float
    throughput: float

    @property
    def latency_us(self) -> float:
        return self.latency * 1e6

    @property
    def throughput_mops(self) -> float:
        return self.throughput / 1e6


def max_batch_size(record_size: int) -> int:
    """Upper bound for b: ``ceil(4 KB / record_size)`` (Table 2)."""
    if record_size < 1:
        raise ConfigurationError(f"record size must be >= 1, got {record_size}")
    return max(1, math.ceil(BATCH_BYTES_CAP / record_size))


@dataclass(frozen=True)
class RdmaConfig:
    """One point in the Redy configuration space."""

    client_threads: int
    server_threads: int
    batch_size: int
    queue_depth: int
    #: Static-optimization switches (§4.3); off only in ablation baselines.
    lock_free: bool = True
    one_sided_fast_path: bool = True
    numa_affinity: bool = True

    def __post_init__(self) -> None:
        if self.client_threads < 1:
            raise ConfigurationError(
                f"client_threads must be >= 1, got {self.client_threads}")
        if self.server_threads < 0:
            raise ConfigurationError(
                f"server_threads must be >= 0, got {self.server_threads}")
        if self.server_threads > self.client_threads:
            # Table 2: each client thread has one connection and the server
            # runs at most one thread per connection, so s <= c.
            raise ConfigurationError(
                f"server_threads ({self.server_threads}) may not exceed "
                f"client_threads ({self.client_threads})")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.server_threads == 0 and self.batch_size != 1:
            # No server threads -> nobody to unpack a batch: batching off.
            raise ConfigurationError(
                "batching requires server threads (s=0 forces b=1)")
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}")

    @property
    def uses_one_sided(self) -> bool:
        """True when requests bypass the server CPU entirely."""
        return self.server_threads == 0 or (
            self.batch_size == 1 and self.one_sided_fast_path)

    @property
    def total_cores(self) -> int:
        """Client + server cores the configuration consumes (its cost)."""
        return self.client_threads + self.server_threads

    def describe(self) -> str:
        return (f"c={self.client_threads} s={self.server_threads} "
                f"b={self.batch_size} q={self.queue_depth}")


@dataclass(frozen=True)
class Slo:
    """A cache performance service-level objective.

    The SLO "specifies a maximum average latency and minimum average
    throughput of reads and of writes" (§3.3).  Like the paper's model we
    mix reads and writes into one target by taking the lower-performance
    operation, so one latency bound and one throughput floor suffice.
    """

    #: Maximum acceptable average I/O latency, seconds.
    max_latency: float
    #: Minimum acceptable aggregate throughput, I/Os per second.
    min_throughput: float
    #: Record size the application reads/writes, bytes.
    record_size: int

    def __post_init__(self) -> None:
        if self.max_latency <= 0:
            raise ConfigurationError(
                f"max_latency must be positive, got {self.max_latency}")
        if self.min_throughput < 0:
            raise ConfigurationError(
                f"min_throughput must be >= 0, got {self.min_throughput}")
        if self.record_size < 1:
            raise ConfigurationError(
                f"record_size must be >= 1, got {self.record_size}")

    def is_satisfied_by(self, perf: PerfPoint) -> bool:
        return (perf.latency <= self.max_latency
                and perf.throughput >= self.min_throughput)


def config_space_size(max_client_threads: int, max_batch: int,
                      max_queue_depth: int,
                      min_queue_depth: int = MIN_QUEUE_DEPTH_OPTIMIZED) -> int:
    """Size of the configuration space (§5.2 formula).

    With C client cores, B the largest batch size, Q the NIC queue-depth
    limit, and ``opt. = min_queue_depth - 1`` optimized away by the
    fully-loaded-QP technique::

        (sum_{c=1}^{C} (c+1)) * B * (Q - opt.)  -  C * (B-1) * (Q - opt.)

    The subtracted term removes the invalid (s=0, b>1) combinations.
    For the paper's 8-byte-record example (C=30, B=512, Q=16, opt.=3)
    this is 3,095,430 -- the "~3M configurations" of §5.2.
    """
    if max_client_threads < 1 or max_batch < 1:
        raise ConfigurationError("C and B must be >= 1")
    if not 1 <= min_queue_depth <= max_queue_depth:
        raise ConfigurationError(
            f"need 1 <= min_queue_depth <= Q, got {min_queue_depth}, "
            f"{max_queue_depth}")
    c_s_pairs = sum(c + 1 for c in range(1, max_client_threads + 1))
    depth_options = max_queue_depth - (min_queue_depth - 1)
    total = c_s_pairs * max_batch * depth_options
    invalid = max_client_threads * (max_batch - 1) * depth_options
    return total - invalid
