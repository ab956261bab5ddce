"""The cluster VM allocator.

This is the platform service Redy's cache manager talks to (Figure 4).
It places VMs on physical servers, supports *spot* instances on
otherwise-idle capacity, and -- crucially for Redy's robustness story --
reclaims spot VMs with an early warning: "Today's cloud providers give
an early warning of 30-120 seconds" (§3.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.server import PhysicalServer
from repro.cluster.vmtypes import VmType, harvest_vm_type
from repro.sim.kernel import Environment

__all__ = ["AllocationError", "ReclaimNotice", "Vm", "VmAllocator"]

#: Default reclamation warning, middle of the paper's 30-120 s range.
DEFAULT_RECLAIM_NOTICE_S = 30.0


class AllocationError(Exception):
    """The request cannot be satisfied (no effect, §3.2)."""


@dataclass(frozen=True)
class ReclaimNotice:
    """Early warning that a spot VM will be taken away."""

    vm_id: int
    deadline: float


@dataclass
class Vm:
    """A running VM hosting (part of) a cache."""

    vm_id: int
    vm_type: VmType
    server: PhysicalServer
    spot: bool
    created_at: float
    alive: bool = True
    reclaim_deadline: Optional[float] = None
    #: Fired with a ReclaimNotice when the allocator decides to reclaim.
    on_reclaim_notice: List[Callable[[ReclaimNotice], None]] = field(
        default_factory=list)
    #: Fired when the VM actually dies (reclaim finalized, or failure).
    on_terminated: List[Callable[["Vm"], None]] = field(default_factory=list)

    @property
    def placement(self) -> tuple[int, int]:
        return (self.server.cluster, self.server.rack)

    def hourly_cost(self) -> float:
        return self.vm_type.price(self.spot)


class VmAllocator:
    """Places VMs on a fixed fleet of physical servers."""

    def __init__(self, env: Environment, servers: Sequence[PhysicalServer]):
        if not servers:
            raise AllocationError("allocator needs at least one server")
        self.env = env
        self.servers = list(servers)
        #: Warning a reclaimed spot VM gets before it dies; an
        #: experiment may shorten it before the first reclaim.
        self.reclaim_notice_s = DEFAULT_RECLAIM_NOTICE_S
        self.vms: Dict[int, Vm] = {}
        # Per-allocator, not module-global: VM ids seed endpoint names
        # and RNG stream names downstream, so they must be a function of
        # this run alone for same-seed runs to be bit-identical
        # (the repro.faults determinism contract).
        self._vm_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _candidate_servers(self, vm_type: VmType,
                           near: Optional[object],
                           max_switch_hops: Optional[int],
                           exclude_servers: Optional[frozenset] = None
                           ) -> List[PhysicalServer]:
        if near is not None and not isinstance(near, tuple):
            near = (near.cluster, near.rack)

        def hops(server: PhysicalServer) -> int:
            if near is None:
                return 0
            if server.cluster != near[0]:
                return 5
            if server.rack != near[1]:
                return 3
            return 1

        candidates = [
            s for s in self.servers
            if s.can_host(vm_type.cores, vm_type.memory_gb)
            and (max_switch_hops is None or hops(s) <= max_switch_hops)
            and (exclude_servers is None
                 or s.server_id not in exclude_servers)
        ]
        # Best fit on cores, then prefer network proximity: tight packing
        # keeps large holes (and stranding-friendly headroom) intact.
        candidates.sort(key=lambda s: (hops(s), s.free_cores))
        return candidates

    def allocate(self, vm_type: VmType, *, spot: bool = False,
                 near: Optional[object] = None,
                 max_switch_hops: Optional[int] = None,
                 exclude_servers: Optional[frozenset] = None) -> Vm:
        """Place one VM; raises :class:`AllocationError` when impossible.

        ``near`` (a :class:`PhysicalServer` or a ``(cluster, rack)``
        tuple) and ``max_switch_hops`` express the cache manager's
        network-distance requirement ("available within the required
        network distance", §6.1).  ``exclude_servers`` keeps replicas off
        each other's fault domains.
        """
        candidates = self._candidate_servers(vm_type, near, max_switch_hops,
                                             exclude_servers)
        if not candidates:
            # Harvested memory yields to paying allocations: start
            # reclaiming harvest VMs that block this placement, so a
            # retry after their notice period succeeds.
            evicting = self._evict_blocking_harvest(vm_type)
            raise AllocationError(
                f"no server can host {vm_type.name} "
                f"({vm_type.cores}c/{vm_type.memory_gb}GB)"
                + (f"; reclaiming {evicting} harvest VM(s)"
                   if evicting else ""))
        server = candidates[0]
        vm = Vm(vm_id=next(self._vm_ids), vm_type=vm_type, server=server,
                spot=spot, created_at=self.env.now)
        server.place(vm.vm_id, vm_type.cores, vm_type.memory_gb)
        self.vms[vm.vm_id] = vm
        return vm

    def allocate_harvest(self, memory_gb: float, *,
                         near: Optional[object] = None,
                         max_switch_hops: Optional[int] = None,
                         exclude_servers: Optional[frozenset] = None) -> Vm:
        """Carve ``memory_gb`` of stranded memory into a harvest VM.

        Only servers that are currently *stranded* (all cores allocated,
        >= 1 GB memory free) qualify -- this is the resource §2.1 showed
        is abundant and §8.3 calls essentially free.  Harvest VMs are
        always reclaimable (spot semantics).
        """
        vm_type = harvest_vm_type(memory_gb)
        candidates = self._candidate_servers(vm_type, near, max_switch_hops,
                                             exclude_servers)
        candidates = [s for s in candidates
                      if s.is_stranded and s.free_memory_gb >= memory_gb]
        if not candidates:
            raise AllocationError(
                f"no stranded server offers {memory_gb} GB")
        server = candidates[0]
        vm = Vm(vm_id=next(self._vm_ids), vm_type=vm_type, server=server,
                spot=True, created_at=self.env.now)
        server.place(vm.vm_id, 0, memory_gb)
        self.vms[vm.vm_id] = vm
        return vm

    def _evict_blocking_harvest(self, vm_type: VmType) -> int:
        """Reclaim harvest VMs whose memory would unblock ``vm_type``."""
        evicting = 0
        for server in self.servers:
            if server.free_cores < vm_type.cores:
                continue
            harvested = [
                self.vms[vm_id] for vm_id in server.vm_footprints
                if vm_id in self.vms
                and self.vms[vm_id].vm_type.cores == 0
                and self.vms[vm_id].reclaim_deadline is None
            ]
            reclaimable_gb = sum(vm.vm_type.memory_gb for vm in harvested)
            if server.free_memory_gb + reclaimable_gb < vm_type.memory_gb:
                continue
            for vm in harvested:
                self.reclaim(vm)
                evicting += 1
            if evicting:
                break
        return evicting

    def release(self, vm: Vm) -> None:
        """Voluntary deallocation by the owner."""
        if not vm.alive:
            return
        vm.alive = False
        vm.server.evict(vm.vm_id)
        self.vms.pop(vm.vm_id, None)

    # ------------------------------------------------------------------
    # Reclamation and failures
    # ------------------------------------------------------------------

    def reclaim(self, vm: Vm,
                notice_s: Optional[float] = None) -> ReclaimNotice:
        """Start reclaiming a spot VM.

        The owner gets a :class:`ReclaimNotice` now; after the notice
        period the VM is terminated whether or not it migrated away.
        """
        if not vm.spot:
            raise AllocationError(f"vm {vm.vm_id} is not a spot instance")
        if not vm.alive or vm.reclaim_deadline is not None:
            raise AllocationError(f"vm {vm.vm_id} is already being reclaimed")
        notice = ReclaimNotice(
            vm_id=vm.vm_id,
            deadline=self.env.now + (self.reclaim_notice_s
                                     if notice_s is None else notice_s))
        vm.reclaim_deadline = notice.deadline
        for callback in list(vm.on_reclaim_notice):
            callback(notice)
        self.env.process(self._finalize_reclaim(vm, notice),
                         name=f"reclaim-vm-{vm.vm_id}")
        return notice

    def _finalize_reclaim(self, vm: Vm, notice: ReclaimNotice):
        yield self.env.timeout(max(0.0, notice.deadline - self.env.now))
        if vm.alive:
            self._terminate(vm)

    def fail(self, vm: Vm) -> None:
        """Hard failure: no warning, the VM is gone now."""
        if vm.alive:
            self._terminate(vm)

    def _terminate(self, vm: Vm) -> None:
        vm.alive = False
        vm.server.evict(vm.vm_id)
        self.vms.pop(vm.vm_id, None)
        for callback in list(vm.on_terminated):
            callback(vm)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_stranded_memory_gb(self) -> float:
        return sum(s.stranded_memory_gb for s in self.servers)

    def utilization(self) -> tuple[float, float]:
        """(core, memory) allocation fractions across the fleet."""
        total_cores = sum(s.cores for s in self.servers)
        total_memory = sum(s.memory_gb for s in self.servers)
        used_cores = sum(s.allocated_cores for s in self.servers)
        used_memory = sum(s.allocated_memory_gb for s in self.servers)
        return used_cores / total_cores, used_memory / total_memory
