"""RDMA NIC cost model (ConnectX-5 class).

The NIC is the heart of the latency model.  An RDMA verb's end-to-end cost
decomposes into: doorbell (MMIO post), payload acquisition (inlined in the
work request, or fetched from host memory over PCIe), wire serialization,
per-hop switch latency (owned by the fabric model, not the NIC), remote
delivery DMA, and completion-queue reaping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.clock import US

__all__ = ["NicSpec", "QpContextCache"]

#: Transport-layer header bytes per RDMA message (RoCE/IB headers + CRC).
MESSAGE_HEADER_BYTES = 60


@dataclass(frozen=True)
class NicSpec:
    """Timing/capacity parameters of one RDMA NIC.

    Calibration anchors (paper section in parentheses):

    * ``inline_threshold_bytes = 172`` -- measured inline cutoff on the
      paper's testbed (§7.2): writes up to this size avoid the PCIe fetch,
      which is why small writes beat small reads in Figure 11.
    * ``max_queue_depth = 16`` -- NIC-specific in-flight operation bound
      (Table 2) on Azure HPC.
    * ``line_rate_gbps = 100`` -- ConnectX-5 port speed.
    """

    name: str = "ConnectX-5"

    #: Port speed in Gbit/s.  100 Gbit/s = 12.5 GB/s.
    line_rate_gbps: float = 100.0

    #: Largest write payload that can ride inside the work request itself.
    inline_threshold_bytes: int = 172

    #: NIC-enforced bound on in-flight operations per QP (Table 2 upper
    #: bound for q).
    max_queue_depth: int = 16

    #: Cost of posting one work request (doorbell MMIO + WQE build), seconds.
    doorbell: float = 0.20 * US

    #: Base PCIe round trip to fetch a non-inline payload from host memory.
    dma_fetch_base: float = 0.40 * US

    #: PCIe payload bandwidth in Gbit/s (PCIe 3.0 x16 effective).
    pcie_gbps: float = 120.0

    #: Cost of delivering an inbound payload into host memory (DMA write).
    rx_dma: float = 0.15 * US

    #: Cost for software to reap one completion-queue entry.
    completion_poll: float = 0.15 * US

    #: Fixed NIC processing per message on the sending side (WQE
    #: scheduling, transport state).
    per_message_processing: float = 0.25 * US

    #: Max messages/second one QP can sustain (millions).  This is what the
    #: raw nd_read_bw/nd_write_bw baseline hits for small records, and what
    #: Redy's batching side-steps (Figure 12: 10x over raw at 16 B).
    message_rate_mops_per_qp: float = 16.0

    #: Aggregate message rate of the whole NIC (millions/second).
    message_rate_mops_total: float = 165.0

    # -- Control-plane costs (Swift: the connect path is *not* free) ---
    #
    # These parameters only bite when control-plane modeling is enabled
    # (``Fabric(model_control_plane=True)`` or an installed
    # ``repro.cplane.ControlPlane``); the paper's long-lived-client
    # benchmarks keep the historical zero-cost setup path.

    #: Software + firmware cost to allocate one QP and write its initial
    #: context through the NIC command interface (``CREATE_QP``).
    qp_create_latency: float = 14.0 * US

    #: One ``MODIFY_QP`` state transition through the command interface.
    #: A reliable connection walks RESET -> INIT -> RTR -> RTS, i.e.
    #: ``qp_state_transitions`` of these.
    qp_modify_latency: float = 9.0 * US

    #: State transitions per connection establishment (RESET->INIT->
    #: RTR->RTS).
    qp_state_transitions: int = 3

    #: Out-of-band connection-manager handshake round trips (REQ/REP +
    #: RTU) before the first data verb may be posted.
    connect_handshake_rtts: int = 2

    #: Wire bytes of one connection-manager handshake message (CM MAD).
    connect_message_bytes: int = 256

    #: Fraction of the QP create + modify command cost a follower pays
    #: when several establishments are driven through one command-queue
    #: doorbell (Swift-style batched connect).  The handshake RTTs are
    #: per-connection and never discounted.
    connect_batch_discount: float = 0.35

    #: Fixed cost to register one memory region (ibv_reg_mr syscall,
    #: pinning setup, NIC translation-table entry).
    mr_register_base: float = 30.0 * US

    #: Additional registration cost per GiB of region size (page pinning
    #: + MTT upload scale linearly with the mapped range).
    mr_register_per_gb: float = 0.25

    #: On-NIC QP-context (ICM) cache capacity, in QP contexts.  Each
    #: *active* QP needs its context resident to process a verb; with
    #: more live QPs than entries, ops thrash the cache.
    qp_context_cache_entries: int = 128

    #: Extra per-op service time when a verb's QP context is not
    #: resident and must be fetched from host memory over PCIe.
    qp_context_miss_penalty: float = 0.55 * US

    def wire_time(self, payload_bytes: int) -> float:
        """Serialization delay of one message of ``payload_bytes`` on the wire."""
        bits = (payload_bytes + MESSAGE_HEADER_BYTES) * 8
        return bits / (self.line_rate_gbps * 1e9)

    def dma_fetch(self, payload_bytes: int) -> float:
        """PCIe fetch cost for a non-inline payload of ``payload_bytes``."""
        bits = payload_bytes * 8
        return self.dma_fetch_base + bits / (self.pcie_gbps * 1e9)

    def can_inline(self, payload_bytes: int) -> bool:
        """Whether a write payload rides inline in the work request."""
        return payload_bytes <= self.inline_threshold_bytes

    def mr_register_latency(self, region_bytes: int) -> float:
        """Registration latency of one region: base + size-proportional
        pinning/translation-upload cost."""
        return (self.mr_register_base
                + self.mr_register_per_gb * region_bytes / (1 << 30))

    def qp_setup_cpu_latency(self, batched: bool = False) -> float:
        """Command-interface cost to create + connect one QP (create
        plus the RESET->INIT->RTR->RTS transitions), before the
        out-of-band handshake RTTs.  ``batched`` applies the shared-
        doorbell discount for establishments driven as one command
        batch."""
        cost = (self.qp_create_latency
                + self.qp_state_transitions * self.qp_modify_latency)
        return cost * self.connect_batch_discount if batched else cost

    @property
    def bytes_per_second(self) -> float:
        return self.line_rate_gbps * 1e9 / 8


class QpContextCache:
    """Per-NIC LRU cache of resident QP contexts (the ICM cache).

    Every verb processed by a NIC -- as requester or responder --
    touches its QP's context.  The cache holds ``entries`` contexts;
    touching a resident QP is free, touching a non-resident one costs
    :attr:`NicSpec.qp_context_miss_penalty` of extra service time (the
    PCIe fetch that brings the context back) and evicts the least
    recently used entry.  This is the per-QP NIC state pressure that
    makes 10^5 naive per-client QPs melt a cache VM even after all of
    them are established.

    Deterministic by construction: plain insertion-ordered dict, no
    wall-clock, no randomness; eviction order is a pure function of the
    touch sequence.
    """

    __slots__ = ("entries", "hits", "misses", "evictions", "_resident")

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError(f"cache needs >= 1 entry, got {entries}")
        self.entries = entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: qp_id -> None, in LRU order (oldest first).
        self._resident: Dict[int, None] = {}

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, qp_id: int) -> bool:
        return qp_id in self._resident

    def touch(self, qp_id: int) -> bool:
        """Reference ``qp_id``'s context; returns True on a hit.

        A miss installs the context, evicting the LRU entry when full.
        """
        resident = self._resident
        if qp_id in resident:
            self.hits += 1
            del resident[qp_id]      # move to most-recently-used
            resident[qp_id] = None
            return True
        self.misses += 1
        if len(resident) >= self.entries:
            oldest = next(iter(resident))
            del resident[oldest]
            self.evictions += 1
        resident[qp_id] = None
        return False

    def evict(self, qp_id: int) -> None:
        """Drop one QP's context (QP destroyed/reclaimed)."""
        self._resident.pop(qp_id, None)

    def resident_ids(self) -> tuple:
        """Resident QP ids in LRU order (oldest first) -- test hook."""
        return tuple(self._resident)

    def stats(self) -> Dict[str, int]:
        return {"entries": self.entries, "resident": len(self._resident),
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}
