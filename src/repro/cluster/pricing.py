"""A dynamic spot market (§6.1).

"At any given time, different VM types might have spot instances
available.  The cache manager can exploit such cost-saving opportunities
by periodically issuing an allocation request for a cheap VM and
migrating the cache to it when it becomes available."

:class:`SpotMarket` evolves each VM type's spot price as a clamped
geometric random walk between a floor and the on-demand price, updating
on a fixed interval.  Subscribers (the cost optimizer) are notified on
every tick -- the "alert the cache manager when spot VMs of a certain
type become available" API extension §6.1 proposes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.cluster.vmtypes import VmType
from repro.sim.kernel import Environment

__all__ = ["SpotMarket"]

#: The band a spot price walks in, as fractions of the on-demand price.
FLOOR_FRACTION = 0.10
CEILING_FRACTION = 0.95


class SpotMarket:
    """Per-VM-type spot prices evolving in simulated time."""

    def __init__(self, env: Environment, menu: Sequence[VmType],
                 rng: np.random.Generator, *,
                 update_interval_s: float = 60.0,
                 volatility: float = 0.20):
        if update_interval_s <= 0:
            raise ValueError("update_interval_s must be positive")
        self.env = env
        self.menu = list(menu)
        self.rng = rng
        self.update_interval_s = update_interval_s
        self.volatility = volatility
        self._prices: Dict[str, float] = {
            t.name: t.spot_price_per_hour for t in menu}
        env.process(self._tick(), name="spot-market")

    def spot_price(self, vm_type: VmType) -> float:
        """Current spot price per hour for ``vm_type``."""
        return self._prices[vm_type.name]

    def price(self, vm_type: VmType, spot: bool) -> float:
        return self.spot_price(vm_type) if spot else vm_type.price_per_hour

    def cheapest_covering(self, cores: int, memory_gb: float) -> List[VmType]:
        """Menu entries covering (cores, memory), by current spot price."""
        fits = [t for t in self.menu if t.fits_requirements(cores, memory_gb)]
        return sorted(fits, key=self.spot_price)

    def _tick(self):
        while True:
            yield self.env.timeout(self.update_interval_s)
            for vm_type in self.menu:
                step = float(np.exp(self.rng.normal(0.0, self.volatility)))
                price = self._prices[vm_type.name] * step
                floor = vm_type.price_per_hour * FLOOR_FRACTION
                ceiling = vm_type.price_per_hour * CEILING_FRACTION
                self._prices[vm_type.name] = min(max(price, floor), ceiling)
