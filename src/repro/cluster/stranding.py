"""Stranded-memory analysis: the numbers behind §2.1 and Figures 1-2.

All functions operate on a :class:`~repro.cluster.traces.TraceResult`
and would work unchanged on a real cluster trace with the same schema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.traces import TraceResult

__all__ = [
    "UtilizationSummary",
    "reachable_stranded_memory",
    "stranding_duration_percentiles",
    "utilization_summary",
]


@dataclass(frozen=True)
class UtilizationSummary:
    """Fleet-wide memory statistics across clusters and time (§2.1)."""

    #: Unallocated-memory fraction: median / 10th / 1st percentile.
    unallocated_median: float
    unallocated_p10: float
    unallocated_p1: float
    #: Stranded-memory fraction: median / 90th / 99th percentile.
    stranded_median: float
    stranded_p90: float
    stranded_p99: float
    #: Diurnal peak-to-trough ratio of allocated memory.
    peak_to_trough: float


def utilization_summary(trace: TraceResult) -> UtilizationSummary:
    """Summarize unallocated and stranded memory across clusters x time.

    Paper targets: median 46% unallocated (p10 37%, p1 28%); median 8%
    stranded, 16% at p90, 23% at p99; peak-to-trough ~2.
    """
    unalloc = trace.unallocated_fraction.ravel()
    stranded = trace.stranded_fraction.ravel()

    # Peak-to-trough of *allocated* memory over the daily cycle,
    # fleet-wide (the diurnal signal §2.1 reports).
    allocated = 1.0 - trace.unallocated_fraction.mean(axis=1)
    smoothed = np.convolve(allocated, np.ones(7) / 7.0, mode="valid")
    trough = max(float(smoothed.min()), 1e-9)
    peak = float(smoothed.max())

    return UtilizationSummary(
        unallocated_median=float(np.percentile(unalloc, 50)),
        unallocated_p10=float(np.percentile(unalloc, 10)),
        unallocated_p1=float(np.percentile(unalloc, 1)),
        stranded_median=float(np.percentile(stranded, 50)),
        stranded_p90=float(np.percentile(stranded, 90)),
        stranded_p99=float(np.percentile(stranded, 99)),
        peak_to_trough=peak / trough,
    )


def stranding_duration_percentiles(trace: TraceResult) -> np.ndarray:
    """Stranding-event duration quartiles (p25, p50, p75) in minutes.

    Paper (Figure 2): 6 / 13 / 22 minutes at the quartiles.
    """
    if trace.stranding_durations_s.size == 0:
        raise ValueError("trace produced no stranding events; "
                         "raise target_core_utilization")
    return np.percentile(trace.stranding_durations_s / 60.0, [25, 50, 75])


def reachable_stranded_memory(trace: TraceResult,
                              switch_hops: int) -> np.ndarray:
    """Per-server stranded memory (GB) reachable within ``switch_hops``.

    Figure 1 plots the CDF of this quantity across servers: one switch
    reaches the server's own rack, three its cluster, five the whole
    data center.  Uses the time-averaged stranded memory per server.
    """
    stranded = trace.mean_stranded_gb_per_server
    cluster = trace.server_cluster
    rack = trace.server_rack
    if switch_hops >= 5:
        return np.full(stranded.shape, stranded.sum())
    if switch_hops >= 3:
        per_cluster = np.bincount(cluster, weights=stranded)
        return per_cluster[cluster]
    if switch_hops >= 1:
        # (cluster, rack) composite key.
        n_racks = rack.max() + 1
        key = cluster * n_racks + rack
        per_rack = np.bincount(key, weights=stranded)
        return per_rack[key]
    raise ValueError("switch_hops must be >= 1")


def reachability_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative fraction) pairs for CDF plotting."""
    ordered = np.sort(values)
    fractions = np.arange(1, len(ordered) + 1) / len(ordered)
    return ordered, fractions
