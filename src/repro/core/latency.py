"""Analytic performance model of the Redy data path.

:class:`DataPathModel` maps an :class:`~repro.core.config.RdmaConfig` plus
a record size to ``(latency, throughput)`` -- the function *f* of §5.2.
It mirrors, component by component, the costs the simulated engine
charges (see :mod:`repro.core.engine`), which is why model predictions
and engine "measurements" agree to within measurement noise in the
Figure 13/14 experiments.

The model is a pipeline/queueing abstraction of Figure 6:

* a *round trip* ``T_rtt`` -- everything one request batch experiences
  end to end; and
* a *cycle* ``T_cycle`` -- the per-batch occupancy of the slowest pipeline
  stage (client CPU, app handoff, shared wire, server CPU, NIC message
  rate, or the pipelining bound ``T_rtt / q``).

With the queue pair kept fully loaded (q batches in flight), Little's law
gives per-connection throughput ``b / T_cycle`` and latency
``q * T_cycle`` (which degenerates to ``T_rtt`` when the connection is
propagation-bound), plus the time spent filling a batch.
"""

from __future__ import annotations

from repro.core.config import PerfPoint, RdmaConfig
from repro.hardware.profiles import TestbedProfile

__all__ = ["DataPathModel", "OP_HEADER_BYTES", "RESP_HEADER_BYTES"]

#: Per-request framing inside a request batch (opcode, address, length).
OP_HEADER_BYTES = 16

#: Per-request framing inside a response batch (status, length).
RESP_HEADER_BYTES = 8


class DataPathModel:
    """Analytic model of one Redy cache's data path.

    One instance models one network distance (``switch_hops``), matching
    the paper's per-distance performance models (§5.2).
    """

    def __init__(self, profile: TestbedProfile, switch_hops: int = 1):
        if switch_hops < 0:
            raise ValueError(f"switch_hops must be >= 0, got {switch_hops}")
        self.profile = profile
        self.switch_hops = switch_hops

    # ------------------------------------------------------------------
    # Component helpers
    # ------------------------------------------------------------------

    def _handoff(self, config: RdmaConfig) -> float:
        cpu = self.profile.cpu
        if config.lock_free:
            return cpu.handoff_lockfree
        return cpu.handoff_locked + cpu.lock_contention_mean

    def _numa_latency(self, config: RdmaConfig) -> float:
        """Observed-latency penalty per direction without affinitization."""
        return 0.0 if config.numa_affinity else self.profile.cpu.numa_penalty_mean

    def _numa_cpu(self, config: RdmaConfig) -> float:
        """Client-thread per-op cost penalty without affinitization."""
        return 0.0 if config.numa_affinity else self.profile.cpu.numa_cpu_per_op

    def _batch_wire_bytes(self, config: RdmaConfig, record_size: int,
                          is_read: bool) -> tuple[int, int]:
        """(request, response) wire payload bytes for one batch."""
        b = config.batch_size
        if is_read:
            request = b * OP_HEADER_BYTES
            response = b * (RESP_HEADER_BYTES + record_size)
        else:
            request = b * (OP_HEADER_BYTES + record_size)
            response = b * RESP_HEADER_BYTES
        return request, response

    # ------------------------------------------------------------------
    # Round trip
    # ------------------------------------------------------------------

    def round_trip(self, config: RdmaConfig, record_size: int,
                   is_read: bool) -> float:
        """End-to-end time for one batch (one op on the one-sided path)."""
        if config.uses_one_sided:
            return self._one_sided_round_trip(config, record_size, is_read)
        return self._two_sided_round_trip(config, record_size, is_read)

    def network_round_trip(self, config: RdmaConfig, record_size: int,
                           is_read: bool) -> float:
        """The pure network component (Figure 7's light-blue bar)."""
        nic = self.profile.nic
        base = self.profile.fabric.round_trip_base(self.switch_hops)
        if config.uses_one_sided:
            return base + nic.wire_time(record_size)
        request, response = self._batch_wire_bytes(config, record_size, is_read)
        return base + nic.wire_time(request) + nic.wire_time(response)

    def _one_sided_round_trip(self, config: RdmaConfig, record_size: int,
                              is_read: bool) -> float:
        nic, cpu = self.profile.nic, self.profile.cpu
        numa = self._numa_latency(config)
        total = (self._handoff(config) + numa + cpu.batch_prepare
                 + nic.doorbell + nic.per_message_processing)
        if is_read:
            # Responder NIC fetches the payload; requester delivers it.
            total += nic.dma_fetch(record_size) + nic.rx_dma
        else:
            if not nic.can_inline(record_size):
                total += nic.dma_fetch(record_size)
            total += nic.rx_dma
        total += self.profile.fabric.round_trip_base(self.switch_hops)
        total += nic.wire_time(record_size)
        total += nic.completion_poll + cpu.callback + numa
        return total

    def _two_sided_round_trip(self, config: RdmaConfig, record_size: int,
                              is_read: bool) -> float:
        nic, cpu = self.profile.nic, self.profile.cpu
        b, s = config.batch_size, config.server_threads
        numa = self._numa_latency(config)
        request_bytes, response_bytes = self._batch_wire_bytes(
            config, record_size, is_read)

        client_out = (self._handoff(config) + numa + cpu.batch_prepare
                      + b * cpu.client_per_op + nic.doorbell
                      + nic.per_message_processing)
        if not nic.can_inline(request_bytes):
            client_out += nic.dma_fetch(request_bytes)

        wire_out = nic.wire_time(request_bytes)
        one_way = self.profile.fabric.one_way_base(self.switch_hops)

        server = (nic.rx_dma + cpu.server_poll_cycle / 2
                  + cpu.server_batch_overhead
                  + b * cpu.server_op_cost(record_size, s)
                  + nic.doorbell + nic.per_message_processing)
        if not nic.can_inline(response_bytes):
            server += nic.dma_fetch(response_bytes)

        wire_back = nic.wire_time(response_bytes)
        client_in = (nic.rx_dma + nic.completion_poll
                     + b * cpu.client_per_op + cpu.callback + numa)

        return (client_out + wire_out + one_way + server
                + wire_back + one_way + client_in)

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------

    def _stage_cycle(self, config: RdmaConfig, record_size: int,
                     is_read: bool) -> float:
        """Per-batch occupancy of the slowest pipeline stage.

        Excludes the pipelining bound ``T_rtt / q`` -- that is applied in
        :meth:`evaluate_op` -- so this quantity is monotone non-decreasing
        in every configuration parameter, the invariant the Figure 10
        search's pruning rule relies on.
        """
        nic, cpu = self.profile.nic, self.profile.cpu
        c, s, b = (config.client_threads, config.server_threads,
                   config.batch_size)
        request_bytes, response_bytes = self._batch_wire_bytes(
            config, record_size, is_read)

        # Client thread: build the batch, reap the response, run callbacks.
        per_op_cpu = 2 * cpu.client_per_op + cpu.callback + self._numa_cpu(config)
        if not config.lock_free:
            # Consumer side of the contended queue (the engine charges
            # it per request in `CacheDataPath._issue`).
            per_op_cpu += cpu.handoff_locked + cpu.lock_contention_mean
        client = (cpu.batch_prepare + nic.doorbell + nic.completion_poll
                  + b * per_op_cpu)

        # Application thread feeding the batch ring (paired 1:1).
        app = b * self._handoff(config)

        stages = [client, app]

        # Wire serialization: each direction is a distinct link, shared by
        # all c connections of this cache.
        stages.append(c * nic.wire_time(request_bytes))
        stages.append(c * nic.wire_time(response_bytes))

        # NIC message rate: per-QP and aggregate (one message per batch
        # per direction; the aggregate NIC processes c connections).
        stages.append(1.0 / (nic.message_rate_mops_per_qp * 1e6))
        stages.append(c / (nic.message_rate_mops_total * 1e6))

        if not config.uses_one_sided and s > 0:
            # Each server thread multiplexes c/s connections.
            per_batch = (cpu.server_poll_cycle + cpu.server_batch_overhead
                         + b * cpu.server_op_cost(record_size, s))
            stages.append(per_batch * c / s)

        return max(stages)

    def evaluate_op(self, config: RdmaConfig, record_size: int,
                    is_read: bool) -> PerfPoint:
        """Latency/throughput for a pure-read or pure-write workload."""
        b, c, q = config.batch_size, config.client_threads, config.queue_depth
        rtt = self.round_trip(config, record_size, is_read)
        stage = self._stage_cycle(config, record_size, is_read)
        cycle = max(stage, rtt / q)
        throughput = c * b / cycle
        # An op waits ~half a batch-fill time before its batch departs.
        fill_wait = (b - 1) / (2.0 * b) * stage if b > 1 else 0.0
        latency = max(rtt, q * stage) + fill_wait
        return PerfPoint(latency=latency, throughput=throughput)

    def evaluate(self, config: RdmaConfig, record_size: int) -> PerfPoint:
        """Mixed-workload performance.

        As in the paper (§5.2), reads and writes share one model "by
        taking the lower-performance operation".
        """
        read = self.evaluate_op(config, record_size, is_read=True)
        write = self.evaluate_op(config, record_size, is_read=False)
        return PerfPoint(latency=max(read.latency, write.latency),
                         throughput=min(read.throughput, write.throughput))
