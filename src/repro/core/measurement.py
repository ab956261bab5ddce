"""The measurement application (Figure 9).

:func:`measure_config` stands up a complete simulated testbed -- client
VM, cache-server VM at a chosen switch distance, fabric, cache server,
and client data path -- drives it with a closed-loop load at the
configuration's operating point (queue pairs kept fully loaded), and
reports measured latency percentiles and throughput.

It is used three ways:

* by the offline-modeling loop (:mod:`repro.core.modeling`) to fill in
  the configuration tree's leaves,
* by the Figure 3/7/8/11/12 benchmarks directly, and
* by the Figure 13/14 experiments to check configurations the online
  search returned against their SLOs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import PerfPoint, RdmaConfig
from repro.core.engine import CacheDataPath
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.hardware.profiles import AZURE_HPC, TestbedProfile
from repro.net.fabric import Fabric, Placement
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

__all__ = ["MeasurementResult", "measure_config", "placements_for_hops"]

#: Size of the (unbacked) data region measurement traffic targets.
_MEASUREMENT_REGION_BYTES = 1 << 30


@dataclass(frozen=True)
class MeasurementResult:
    """Measured performance of one configuration."""

    latency_mean: float
    latency_p50: float
    latency_p99: float
    throughput: float
    ops_measured: int
    duration: float

    @property
    def perf(self) -> PerfPoint:
        """The (mean latency, throughput) pair the SLO machinery uses."""
        return PerfPoint(latency=self.latency_mean,
                         throughput=self.throughput)


def placements_for_hops(switch_hops: int) -> tuple[Placement, Placement]:
    """Client/server placements realizing a given switch distance.

    The fabric knows the three canonical distances of §5.2; anything else
    is a caller bug.
    """
    if switch_hops == 1:
        return Placement(cluster=0, rack=0), Placement(cluster=0, rack=0)
    if switch_hops == 3:
        return Placement(cluster=0, rack=0), Placement(cluster=0, rack=1)
    if switch_hops == 5:
        return Placement(cluster=0, rack=0), Placement(cluster=1, rack=0)
    raise ValueError(
        f"switch_hops must be 1, 3, or 5 (got {switch_hops})")


def measure_config(config: RdmaConfig, record_size: int, *,
                   profile: TestbedProfile = AZURE_HPC,
                   switch_hops: int = 1,
                   read_fraction: float = 0.5,
                   batches_per_connection: int = 120,
                   warmup_batches: int = 30,
                   extra_outstanding: int = 0,
                   seed: int = 0,
                   metrics: Optional[MetricsRegistry] = None,
                   dependent_reads: bool = False
                   ) -> MeasurementResult:
    """Measure one RDMA configuration on the simulated testbed.

    The load is closed-loop: every connection keeps ``q`` (plus
    ``extra_outstanding``) request batches in flight, the fully-loaded-QP
    operating point of §4.3.  Batches are issued as weighted ops (one
    op standing for ``b`` application requests) so that simulating
    hundred-MOPS configurations stays tractable; the half-batch fill wait
    an average request would see is added back to each sample.

    ``dependent_reads=True`` switches the workload to pointer-chasing
    GETs (index word -> record), the FASTER-through-Redy access pattern:
    each op names a pointer offset to chase and the record offset as its
    size-only fallback.  ``config.use_verb_programs`` then selects the
    one-round-trip program path versus the classic two-hop baseline --
    the fig11/fig12 A/B toggle.
    """
    rngs = RngRegistry(seed=seed)
    env = Environment()
    if metrics is not None:
        # Install before the testbed is built so the queue pairs, fabric,
        # and data path instrument themselves (see repro.obs).
        metrics.install(env)
    fabric = Fabric(env, profile)
    client_place, server_place = placements_for_hops(switch_hops)
    client_endpoint = fabric.add_endpoint("measure-client", client_place)
    server_endpoint = fabric.add_endpoint("measure-server", server_place)

    server = CacheServer(env, profile, server_endpoint, rngs.stream("server"))
    path = CacheDataPath(env, profile, config, client_endpoint,
                         rngs.stream("client"))
    tokens = path.attach_server(server, n_regions=1,
                                region_size=_MEASUREMENT_REGION_BYTES,
                                backed=False)
    token = tokens[0]

    weight = config.batch_size if not config.uses_one_sided else 1
    if dependent_reads:
        # Dependent GETs are weight-1 ops posted on their own doorbell
        # (they bypass the message-ring batching protocol entirely).
        weight = 1
    outstanding = config.queue_depth + extra_outstanding
    total_connections = config.client_threads
    warmup_target = warmup_batches * total_connections
    measure_target = warmup_target + (
        batches_per_connection * total_connections)

    workload_rng = rngs.stream("workload")
    # Python ints, converted once and shared by every generator (a copy
    # per generator costs memory; indexing the array costs time).
    offsets = workload_rng.integers(
        0, _MEASUREMENT_REGION_BYTES - record_size, size=4096).tolist()
    # Pointer-word offsets for the dependent-read workload.  Drawn only
    # when needed so the classic workload's RNG stream (and therefore
    # every existing benchmark result) is untouched.
    lookup_offsets = None
    if dependent_reads:
        lookup_offsets = workload_rng.integers(
            0, _MEASUREMENT_REGION_BYTES - 8, size=4096).tolist()

    state = {
        "completed": 0,
        "measuring": False,
        "stop": False,
        "t0": 0.0,
        "w0": 0,
        "t1": 0.0,
        "w1": 0,
    }
    latencies: list[float] = []
    cpu = profile.cpu

    def generator(thread_index: int, generator_index: int):
        offset_cursor = generator_index
        # Hot loop (once per simulated op): hoist the bound methods.
        draw = workload_rng.random
        overhead = path.submission_overhead
        timeout = env.timeout
        io = path.io
        n_offsets = len(offsets)
        append_latency = latencies.append
        while not state["stop"]:
            is_read = dependent_reads or draw() < read_fraction
            # The application thread hands each request through the batch
            # ring; a full batch costs `weight` handoffs.
            handoff = weight * overhead()
            yield timeout(handoff)
            if dependent_reads:
                op = EngineOp(
                    is_read=True, size=record_size, token=token,
                    offset=offsets[offset_cursor % n_offsets],
                    lookup_offset=lookup_offsets[offset_cursor % n_offsets],
                    weight=1)
            else:
                op = EngineOp(
                    is_read=is_read, size=record_size, token=token,
                    offset=offsets[offset_cursor % n_offsets],
                    weight=weight)
            offset_cursor += 1
            result = yield from io(op, thread_index=thread_index)
            if not result.ok:
                raise RuntimeError(f"measurement op failed: {result.error}")
            state["completed"] += 1
            if state["measuring"]:
                # Half the batch-fill span approximates the wait of the
                # average request inside this batch.
                append_latency(result.latency + handoff / 2.0)
            _update_phase()

    def _update_phase() -> None:
        if not state["measuring"] and state["completed"] >= warmup_target:
            state["measuring"] = True
            state["t0"] = env.now
            state["w0"] = path.completed_weight
        if state["measuring"] and state["completed"] >= measure_target:
            state["stop"] = True
            state["t1"] = env.now
            state["w1"] = path.completed_weight

    for thread_index in range(config.client_threads):
        for generator_index in range(outstanding):
            env.process(generator(thread_index, generator_index),
                        name=f"loadgen:t{thread_index}:g{generator_index}")

    env.run()

    duration = max(state["t1"] - state["t0"], 1e-12)
    measured_weight = state["w1"] - state["w0"]
    samples = np.asarray(latencies)
    if samples.size == 0:
        raise RuntimeError("measurement produced no samples; "
                           "increase batches_per_connection")
    if metrics is not None:
        # Bench-blob contract: the measured window's per-request latency
        # distribution plus a throughput counter/gauge pair, independent
        # of the engine's own (warmup-inclusive) hot-path metrics.
        metrics.histogram("bench.op_latency").observe_many(latencies)
        metrics.counter("bench.ops").inc(measured_weight)
        metrics.gauge("bench.throughput_ops").set(measured_weight / duration)
        metrics.gauge("bench.measured_duration").set(duration)
        for key, value in env.event_loop_stats().items():
            metrics.gauge(f"kernel.{key}").set(value)
        metrics.gauge("kernel.sim_now").set(env.now)
    return MeasurementResult(
        latency_mean=float(samples.mean()),
        latency_p50=float(np.percentile(samples, 50)),
        latency_p99=float(np.percentile(samples, 99)),
        throughput=measured_weight / duration,
        ops_measured=int(measured_weight),
        duration=duration,
    )
