"""The global cache manager (Figure 4).

The cache manager sits between Redy clients and the cluster's VM
allocator.  It offers the three back-end operations of §3.2 --
*Allocate*, *Reallocate*, *Deallocate* -- and implements the §6.1
resource-allocation strategy:

1. translate the capacity + SLO into an RDMA configuration per network
   distance (via the per-distance performance models and the Figure 10
   search);
2. pick VM types from the provider menu that cover the configuration's
   cores and memory, keeping each VM's core-to-memory ratio at least the
   configuration's;
3. choose the least expensive feasible (distance, VM type) combination,
   using spot instances for finite-duration caches;
4. stand up a cache server on every allocated VM and wire reclamation
   notices back to the owning client.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.cluster.allocator import AllocationError, Vm, VmAllocator
from repro.cluster.vmtypes import AZURE_MENU, VmType
from repro.core.config import RdmaConfig, Slo
from repro.core.modeling import PerfModel, analytic_model
from repro.core.search import SloSearcher
from repro.core.server import CacheServer
from repro.core.space import ConfigSpace
from repro.hardware.profiles import TestbedProfile
from repro.net.fabric import Fabric, Placement
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

__all__ = ["CacheAllocation", "CacheManager", "SloUnsatisfiableError"]

#: Network distances a cache may be provisioned at, nearest first.
_DISTANCES = (1, 3, 5)

#: Memory overhead per VM for the cache server agent and rings, GB.
_SERVER_OVERHEAD_GB = 0.5


class SloUnsatisfiableError(AllocationError):
    """No configuration/VM combination can satisfy the request (§3.2:
    "the *Allocate* request fails.  The request has no effect")."""


@dataclass
class CacheAllocation:
    """Everything a client gets back from a successful *Allocate*."""

    allocation_id: int
    config: RdmaConfig
    switch_hops: int
    vms: List[Vm]
    servers: List[CacheServer]
    #: Physical regions each server should provide, by endpoint name.
    regions_per_server: Dict[str, int]
    region_bytes: int
    hourly_cost: float
    spot: bool

    @property
    def total_regions(self) -> int:
        return sum(self.regions_per_server.values())


class CacheManager:
    """The global cache manager of one cluster deployment."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 fabric: Fabric, allocator: VmAllocator,
                 rngs: RngRegistry, provisioning_delay_s: float = 0.0):
        self.env = env
        self.profile = profile
        self.fabric = fabric
        self.allocator = allocator
        self.rngs = rngs
        self.menu = list(AZURE_MENU)
        #: Time to stand a replacement VM up (§6.2: "The migration period
        #: depends in part on the time to provision a new VM").  Zero
        #: models the pre-provisioned-VM strategy the paper suggests;
        #: tens of seconds models on-demand provisioning.
        self.provisioning_delay_s = provisioning_delay_s
        self.allocations: Dict[int, CacheAllocation] = {}
        # Per-manager, not module-global: allocation ids name RNG streams
        # (cache-path-<id>), so they must restart with each run for
        # same-seed runs to be bit-identical (repro.faults contract).
        self._allocation_ids = itertools.count(1)
        #: allocation_id -> callback(vm, deadline) for reclaim notices.
        self._reclaim_handlers: Dict[int, Callable] = {}

    # ------------------------------------------------------------------
    # Performance models
    # ------------------------------------------------------------------

    def model_for(self, record_size: int, switch_hops: int) -> PerfModel:
        """The per-distance performance model (§5.2), built once per
        process and shared with every manager on the same profile."""
        space = ConfigSpace(
            max_client_threads=self.profile.modeling_cores,
            record_size=record_size,
            max_queue_depth=self.profile.nic.max_queue_depth)
        return analytic_model(space, profile=self.profile,
                              switch_hops=switch_hops,
                              noise=0.0, seed=0)

    def find_configuration(self, slo: Slo, switch_hops: int,
                           max_server_threads: Optional[int] = None
                           ) -> Optional[RdmaConfig]:
        """Search the (possibly server-thread-capped) space for ``slo``.

        ``max_server_threads=0`` restricts to one-sided configurations:
        all a core-less harvest VM can serve.
        """
        model = self.model_for(slo.record_size, switch_hops)
        space = model.space
        if max_server_threads is not None:
            space = replace(space, max_server_threads=max_server_threads)
        searcher = SloSearcher(space=space, predictor=model.predict,
                               plane_source=model)
        return searcher.search(slo)

    # ------------------------------------------------------------------
    # Allocate / Reallocate / Deallocate
    # ------------------------------------------------------------------

    def _vm_plan(self, config: RdmaConfig, amount_bytes: int,
                 region_bytes: int,
                 spot: bool) -> Optional[tuple[VmType, int, float]]:
        """Cheapest (vm type, count, hourly cost) covering the request.

        Every VM must keep a core-to-memory ratio at least the
        configuration's, "to satisfy the SLO" (§6.1).
        """
        n_regions = max(1, math.ceil(amount_bytes / region_bytes))
        cores_needed = config.server_threads

        best: Optional[tuple[VmType, int, float]] = None
        for vm_type in self.menu:
            usable_gb = vm_type.memory_gb - _SERVER_OVERHEAD_GB
            if usable_gb <= 0 or vm_type.cores < 1:
                continue
            regions_per_vm = int(usable_gb * (1 << 30) // region_bytes)
            if regions_per_vm < 1:
                continue
            # Enough VMs to hold the regions AND to supply the
            # configuration's server threads -- each VM's share of both
            # must fit its shape, the per-VM core-to-memory condition of
            # §6.1 expressed as a count.
            count = max(math.ceil(n_regions / regions_per_vm),
                        math.ceil(cores_needed / vm_type.cores))
            cost = count * vm_type.price(spot)
            if best is None or cost < best[2]:
                best = (vm_type, count, cost)
        return best

    def allocate(self, amount_bytes: int, slo: Slo,
                 duration_s: float = math.inf, *,
                 client_placement: Placement = Placement(),
                 region_bytes: int = 1 << 30,
                 exclude_servers: Optional[frozenset] = None,
                 harvest: bool = False) -> CacheAllocation:
        """Process an *Allocate* request (§3.2).

        Finite durations opt into spot instances for their §6.1 cost
        savings; ``duration_s=inf`` buys full-price VMs.  ``harvest=True``
        carves the cache out of *stranded* memory instead -- essentially
        free (§8.3), always reclaimable, and accessible only one-sided
        (the SLO search is restricted to s=0 configurations).
        """
        if harvest:
            return self._allocate_harvest(
                amount_bytes, slo, client_placement=client_placement,
                region_bytes=region_bytes, exclude_servers=exclude_servers)
        spot = math.isfinite(duration_s)
        plans: list[tuple[float, int, RdmaConfig, VmType, int]] = []
        for hops in _DISTANCES:
            config = self.find_configuration(slo, hops)
            if config is None:
                continue
            plan = self._vm_plan(config, amount_bytes, region_bytes, spot)
            if plan is None:
                continue
            vm_type, count, cost = plan
            plans.append((cost, hops, config, vm_type, count))
        if not plans:
            raise SloUnsatisfiableError(
                f"no configuration satisfies {slo} at any distance")

        # Try plans cheapest-first; a nearer distance may have no
        # capacity left, in which case a farther one still can serve
        # (its SLO search already accounted for the extra hops).
        near = (client_placement.cluster, client_placement.rack)
        plans.sort(key=lambda plan: (plan[0], plan[1]))
        vms: List[Vm] = []
        placed = None
        for cost, hops, config, vm_type, count in plans:
            try:
                for _ in range(count):
                    vms.append(self.allocator.allocate(
                        vm_type, spot=spot, near=near, max_switch_hops=hops,
                        exclude_servers=exclude_servers))
                placed = (cost, hops, config, vm_type, count)
                break
            except AllocationError:
                for vm in vms:
                    self.allocator.release(vm)
                vms = []
        if placed is None:
            raise SloUnsatisfiableError(
                f"insufficient capacity for any feasible plan "
                f"({len(plans)} candidates)")
        cost, hops, config, vm_type, count = placed

        n_regions = max(1, math.ceil(amount_bytes / region_bytes))
        servers, regions_per_server = self._start_servers(
            vms, n_regions, region_bytes)

        allocation = CacheAllocation(
            allocation_id=next(self._allocation_ids),
            config=config, switch_hops=hops, vms=vms, servers=servers,
            regions_per_server=regions_per_server,
            region_bytes=region_bytes, hourly_cost=cost, spot=spot)
        self.allocations[allocation.allocation_id] = allocation
        self._wire_reclaim_notices(allocation)
        return allocation

    #: Largest harvest VM: §7.4's rule of thumb -- what a 30 s notice can
    #: migrate at ~1.09 s/GB.
    HARVEST_VM_MAX_GB = 27.0

    def _allocate_harvest(self, amount_bytes: int, slo: Slo, *,
                          client_placement: Placement,
                          region_bytes: int,
                          exclude_servers: Optional[frozenset]
                          ) -> CacheAllocation:
        """Provision a cache entirely from stranded memory."""
        near = (client_placement.cluster, client_placement.rack)
        n_regions = max(1, math.ceil(amount_bytes / region_bytes))
        regions_per_vm = max(1, int(
            (self.HARVEST_VM_MAX_GB - _SERVER_OVERHEAD_GB) * (1 << 30)
            // region_bytes))
        for hops in _DISTANCES:
            config = self.find_configuration(slo, hops,
                                             max_server_threads=0)
            if config is None:
                continue
            vms: List[Vm] = []
            try:
                remaining = n_regions
                while remaining > 0:
                    share = min(remaining, regions_per_vm)
                    memory_gb = (share * region_bytes / (1 << 30)
                                 + _SERVER_OVERHEAD_GB)
                    vms.append(self.allocator.allocate_harvest(
                        memory_gb, near=near, max_switch_hops=hops,
                        exclude_servers=exclude_servers))
                    remaining -= share
            except AllocationError:
                for vm in vms:
                    self.allocator.release(vm)
                continue
            servers, regions_per_server = self._start_servers(
                vms, n_regions, region_bytes)
            allocation = CacheAllocation(
                allocation_id=next(self._allocation_ids),
                config=config, switch_hops=hops, vms=vms, servers=servers,
                regions_per_server=regions_per_server,
                region_bytes=region_bytes,
                hourly_cost=sum(vm.hourly_cost() for vm in vms),
                spot=True)
            self.allocations[allocation.allocation_id] = allocation
            self._wire_reclaim_notices(allocation)
            return allocation
        raise SloUnsatisfiableError(
            f"no one-sided configuration + stranded capacity satisfies "
            f"{slo} at any distance")

    def _start_servers(self, vms: List[Vm], n_regions: int,
                       region_bytes: int
                       ) -> tuple[List[CacheServer], Dict[str, int]]:
        servers: List[CacheServer] = []
        regions_per_server: Dict[str, int] = {}
        remaining = n_regions
        for vm in vms:
            endpoint = self.fabric.add_endpoint(
                f"cache-vm-{vm.vm_id}",
                Placement(cluster=vm.server.cluster, rack=vm.server.rack))
            server = CacheServer(
                self.env, self.profile, endpoint,
                self.rngs.stream(f"cache-server-{vm.vm_id}"))
            servers.append(server)
            usable_gb = vm.vm_type.memory_gb - _SERVER_OVERHEAD_GB
            fit = max(1, int(usable_gb * (1 << 30) // region_bytes))
            share = min(remaining, fit)
            regions_per_server[endpoint.name] = share
            remaining -= share
        if remaining > 0:
            raise SloUnsatisfiableError(
                f"VM plan left {remaining} regions unplaced (bug in sizing)")
        return servers, regions_per_server

    def _wire_reclaim_notices(self, allocation: CacheAllocation) -> None:
        for vm, server in zip(allocation.vms, allocation.servers):
            vm.on_reclaim_notice.append(
                lambda notice, vm=vm, allocation=allocation:
                    self._on_reclaim(allocation, vm, notice))
            vm.on_terminated.append(
                lambda dead_vm, server=server: server.fail())

    def _on_reclaim(self, allocation: CacheAllocation, vm: Vm,
                    notice) -> None:
        handler = self._reclaim_handlers.get(allocation.allocation_id)
        if handler is not None:
            handler(vm, notice.deadline)

    def on_reclaim_notice(self, allocation: CacheAllocation,
                          handler: Callable) -> None:
        """Register the client's reclaim handler ("the cache manager ...
        alerts the Redy client, which must be able to cope", §3.2)."""
        self._reclaim_handlers[allocation.allocation_id] = handler

    def allocate_replacement(self, allocation: CacheAllocation,
                             n_regions: int,
                             exclude_vm: Optional[Vm] = None,
                             vm_type: Optional[VmType] = None
                             ) -> tuple[Vm, CacheServer]:
        """Provision one replacement VM for migrating ``n_regions``.

        ``vm_type`` overrides the allocation's current type (used by the
        cost optimizer to move onto a cheaper shape).
        """
        if vm_type is None:
            vm_type = allocation.vms[0].vm_type
        exclude_server = exclude_vm.server if exclude_vm is not None else None
        exclude = (frozenset({exclude_server.server_id})
                   if exclude_server is not None else None)
        if vm_type.cores == 0:
            # Harvest caches migrate onto other stranded servers.
            vm = self.allocator.allocate_harvest(
                vm_type.memory_gb, exclude_servers=exclude)
        else:
            vm = self.allocator.allocate(vm_type, spot=allocation.spot,
                                         exclude_servers=exclude)
        endpoint = self.fabric.add_endpoint(
            f"cache-vm-{vm.vm_id}",
            Placement(cluster=vm.server.cluster, rack=vm.server.rack))
        server = CacheServer(self.env, self.profile, endpoint,
                             self.rngs.stream(f"cache-server-{vm.vm_id}"))
        allocation.vms.append(vm)
        allocation.servers.append(server)
        allocation.regions_per_server[endpoint.name] = n_regions
        vm.on_terminated.append(lambda dead, server=server: server.fail())
        # Replacements are as reclaimable as the VMs they replace: the
        # owning client must hear about their notices too.
        vm.on_reclaim_notice.append(
            lambda notice, vm=vm, allocation=allocation:
                self._on_reclaim(allocation, vm, notice))
        return vm, server

    def release_vm(self, allocation: CacheAllocation, vm: Vm) -> None:
        """Drop one VM from an allocation (post-migration cleanup)."""
        index = allocation.vms.index(vm)
        server = allocation.servers[index]
        server.shutdown()
        allocation.vms.pop(index)
        allocation.servers.pop(index)
        allocation.regions_per_server.pop(server.endpoint.name, None)
        self.allocator.release(vm)

    def deallocate(self, allocation: CacheAllocation) -> None:
        """Release every VM of a cache (*Deallocate*, §3.2)."""
        for vm, server in zip(allocation.vms, allocation.servers):
            server.shutdown()
            self.allocator.release(vm)
        self.allocations.pop(allocation.allocation_id, None)
        self._reclaim_handlers.pop(allocation.allocation_id, None)
