"""Preemptive spot-VM migration (§6.1).

The reclamation notice (30-120 s) bounds how much cache can be moved
after the warning -- §7.4's "spot VMs of <= 27 GB" rule.  A predictor
(§6.1's cited direction) lifts that bound: :class:`SpotGuard`
periodically compares each spot VM's age against the predicted safe
age for its type and starts moving regions *before* any notice, so
even caches too large for the notice window survive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.cluster.prediction import SpotLifetimePredictor
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.client import RedyCache

__all__ = ["SpotGuard"]


class SpotGuard:
    """Watches one cache's spot VMs and migrates preemptively."""

    def __init__(self, cache: "RedyCache",
                 predictor: SpotLifetimePredictor, *,
                 check_interval_s: float = 5.0,
                 risk: float = 0.1):
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if not 0.0 < risk < 1.0:
            raise ValueError("risk must be in (0, 1)")
        self.cache = cache
        self.env: Environment = cache.env
        self.predictor = predictor
        self.check_interval_s = check_interval_s
        self.risk = risk
        #: VMs already being handled, to fire at most once each.
        self._handled: Set[int] = set()
        #: Preemptive migrations started.
        self.preemptive_migrations = 0
        self._process = self.env.process(self._watch(), name="spot-guard")

    def _watch(self):
        while not self.cache.deleted:
            yield self.env.timeout(self.check_interval_s)
            for vm in list(self.cache.allocation.vms):
                if not (vm.spot and vm.alive):
                    continue
                if vm.reclaim_deadline is not None:
                    continue  # already warned; the normal path handles it
                if vm.vm_id in self._handled:
                    continue
                threshold = self.predictor.safe_age(vm.vm_type.name,
                                                    self.risk)
                if threshold is None:
                    continue
                age = self.env.now - vm.created_at
                if age >= threshold:
                    self._handled.add(vm.vm_id)
                    self.preemptive_migrations += 1
                    # Not joined: a failed preemptive migration falls
                    # back to the reactive lost-region path.
                    self.env.process(
                        self.cache._migrate_off(vm),
                        name=f"preemptive-migrate-vm{vm.vm_id}")
