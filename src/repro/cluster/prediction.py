"""Spot-VM lifetime prediction (§6.1).

"Recent research has shown how to predict the lifetime of spot VMs
[11].  This would enable the allocation of VMs that satisfy the
requested duration.  It could also suggest preemptively migrating a
VM's cache, knowing it will likely be reclaimed soon."

:class:`SpotLifetimePredictor` learns an empirical lifetime distribution
per VM type from observed reclaims (censored observations -- VMs
released by their owner before any reclaim -- only extend the sample's
optimism and are tracked separately).  The cache layer asks it for a
*safe age*: the age beyond which historically more than ``risk`` of
reclaimed VMs were already gone, which is when a cautious owner starts
moving its regions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

__all__ = ["SpotLifetimePredictor"]


class SpotLifetimePredictor:
    """Empirical per-VM-type reclaim-lifetime model."""

    def __init__(self, min_samples: int = 5):
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.min_samples = min_samples
        self._reclaim_lifetimes: Dict[str, List[float]] = defaultdict(list)
        self._censored: Dict[str, int] = defaultdict(int)

    def observe(self, vm_type_name: str, lifetime_s: float,
                reclaimed: bool) -> None:
        """Record one finished VM: its age at reclaim, or a censored
        observation if it was released voluntarily."""
        if lifetime_s < 0:
            raise ValueError("lifetime must be >= 0")
        if reclaimed:
            self._reclaim_lifetimes[vm_type_name].append(lifetime_s)
        else:
            self._censored[vm_type_name] += 1

    def sample_count(self, vm_type_name: str) -> int:
        return len(self._reclaim_lifetimes[vm_type_name])

    def has_model(self, vm_type_name: str) -> bool:
        return self.sample_count(vm_type_name) >= self.min_samples

    def lifetime_quantile(self, vm_type_name: str,
                          quantile: float) -> Optional[float]:
        """The ``quantile`` of observed reclaim lifetimes, or None when
        the sample is too small to trust."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.has_model(vm_type_name):
            return None
        samples = self._reclaim_lifetimes[vm_type_name]
        return float(np.quantile(samples, quantile))

    def safe_age(self, vm_type_name: str,
                 risk: float = 0.1) -> Optional[float]:
        """Age at which historically ``risk`` of reclaimed VMs were
        already gone: the preemptive-migration trigger."""
        return self.lifetime_quantile(vm_type_name, risk)

