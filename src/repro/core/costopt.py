"""Spot-market cost optimization (§6.1).

:class:`CostOptimizer` watches the :class:`~repro.cluster.pricing.
SpotMarket` and, whenever a different VM type would host one of the
cache's VMs materially cheaper, provisions the cheaper VM and live-
migrates the regions onto it (the same §6.2 machinery that handles
reclamations -- "Depending on the price of spot VMs, it could be
cheaper (although more disruptive) to allocate a larger VM and migrate
the content of the old VM to the new one").

A hysteresis threshold (``min_saving_fraction``) keeps it from chasing
noise, and one migration runs at a time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.cluster.pricing import SpotMarket
from repro.cluster.vmtypes import VmType
from repro.core.migration import migrate_regions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.client import RedyCache

__all__ = ["CostOptimizer"]

#: Memory overhead per VM (matches the manager's sizing).
_SERVER_OVERHEAD_GB = 0.5


class CostOptimizer:
    """Keeps one cache on the cheapest adequate spot VMs."""

    def __init__(self, cache: "RedyCache", market: SpotMarket, *,
                 check_interval_s: float = 120.0,
                 min_saving_fraction: float = 0.25):
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if not 0.0 < min_saving_fraction < 1.0:
            raise ValueError("min_saving_fraction must be in (0, 1)")
        self.cache = cache
        self.env = cache.env
        self.market = market
        self.check_interval_s = check_interval_s
        self.min_saving_fraction = min_saving_fraction
        #: Completed cost-driven migrations and their summed hourly
        #: savings at decision time.
        self.migrations = 0
        self.hourly_savings = 0.0
        self._busy = False
        self.env.process(self._watch(), name="cost-optimizer")

    # ------------------------------------------------------------------

    def _vm_requirements(self, vm) -> tuple[int, float]:
        """(cores, memory_gb) one replacement VM must provide."""
        allocation = self.cache.allocation
        index = allocation.vms.index(vm)
        server = allocation.servers[index]
        n_regions = len(self.cache.table.regions_on(server.endpoint.name))
        memory_gb = (n_regions * self.cache.region_bytes / (1 << 30)
                     + _SERVER_OVERHEAD_GB)
        threads = math.ceil(allocation.config.server_threads
                            / max(len(allocation.vms), 1))
        return threads, memory_gb

    def _best_alternative(self, vm) -> Optional[VmType]:
        """A cheaper adequate VM type, if the saving clears the bar."""
        cores, memory_gb = self._vm_requirements(vm)
        candidates = self.market.cheapest_covering(cores, memory_gb)
        if not candidates:
            return None
        best = candidates[0]
        current_price = self.market.price(vm.vm_type, vm.spot)
        best_price = self.market.spot_price(best)
        if best_price <= current_price * (1.0 - self.min_saving_fraction):
            return best
        return None

    def _watch(self):
        while not self.cache.deleted:
            yield self.env.timeout(self.check_interval_s)
            if self._busy or self.cache.deleted:
                continue
            for vm in list(self.cache.allocation.vms):
                if not (vm.spot and vm.alive
                        and vm.reclaim_deadline is None):
                    continue
                alternative = self._best_alternative(vm)
                if alternative is None:
                    continue
                if not self.cache.claim_migration(vm):
                    continue  # the guard or a notice is already moving it
                saving = (self.market.price(vm.vm_type, vm.spot)
                          - self.market.spot_price(alternative))
                self._busy = True
                try:
                    yield from self._move(vm, alternative, saving)
                finally:
                    self.cache.release_migration_claim(vm)
                    self._busy = False
                break  # at most one move per tick

    def _move(self, vm, vm_type: VmType, saving: float):
        cache = self.cache
        allocation = cache.allocation
        index = allocation.vms.index(vm)
        old_server = allocation.servers[index]
        affected = [m.index for m in
                    cache.table.regions_on(old_server.endpoint.name)]
        if not affected:
            return
        if cache.manager.provisioning_delay_s > 0:
            yield self.env.timeout(cache.manager.provisioning_delay_s)
        _new_vm, new_server = cache.manager.allocate_replacement(
            allocation, len(affected), exclude_vm=vm, vm_type=vm_type)
        try:
            report = yield from migrate_regions(
                cache, old_server, new_server, affected,
                policy=cache.migration_policy)
        except RuntimeError:
            # The source VM died mid-move (a reclamation raced us);
            # standard recovery takes over.
            cache.migration_failures += 1
            yield cache.recover_from_failure(old_server.endpoint.name)
            return
        cache.migrations.append(report)
        if vm in allocation.vms:
            cache.manager.release_vm(allocation, vm)
        self.migrations += 1
        self.hourly_savings += saving
