"""The fault injector: compiles a schedule into sim-kernel events.

:class:`FaultInjector` is the fault plane's single actor.  It owns no
policy -- every fault is applied through the *same* mechanism the
production path uses (``allocator.reclaim``/``allocator.fail`` for VM
loss, QP error states for transport faults, fabric knobs for latency
and throttling), so the system under test cannot tell an injected fault
from an organic one.  Everything it does is appended to a
:class:`~repro.faults.log.FaultLog` with the simulated timestamp, which
makes a chaos run auditable and -- because the injector consumes no
randomness of its own and runs entirely on the sim clock -- bit-wise
reproducible from (seed, schedule).
"""

from __future__ import annotations

from repro.faults.log import FaultLog
from repro.faults.spec import (
    FaultSchedule,
    FaultSpec,
    LatencySpike,
    LinkDown,
    SlowNode,
    VmEviction,
    VmKill,
)
from repro.net.qp import QueuePairError
from repro.obs.metrics import registry_of

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies :class:`FaultSchedule`\\ s to a running cluster."""

    def __init__(self, env, *, allocator=None, fabric=None):
        self.env = env
        self.allocator = allocator
        self.fabric = fabric
        self.log = FaultLog()
        metrics = registry_of(env)
        if metrics is not None:
            self._injected = metrics.counter("faults.injected")
            self._routed_failures = metrics.counter("faults.process_failures")
        else:
            self._injected = None
            self._routed_failures = None

    # ------------------------------------------------------------------
    # Process-failure routing
    # ------------------------------------------------------------------

    def install_failure_hook(self):
        """Route joinerless process failures through the fault log.

        Chains any hook already installed on the environment (the
        kernel's contract: whoever owns ``on_process_failure`` owns the
        exception), so installing the injector never silently disables
        an experiment's own failure handling.
        """
        prior = self.env.on_process_failure

        def hook(process, exc):
            self.log.append(self.env.now, "process-failure",
                            getattr(process, "name", None) or repr(process),
                            error=str(exc), exc_type=type(exc).__name__)
            if self._routed_failures is not None:
                self._routed_failures.inc()
            if prior is not None:
                prior(process, exc)

        self.env.on_process_failure = hook
        return hook

    # ------------------------------------------------------------------
    # Driving a schedule
    # ------------------------------------------------------------------

    def arm(self, schedule: FaultSchedule, cache=None):
        """Start a driver process that fires each fault at its time.

        ``cache`` scopes VM faults to one cache's allocation; without it
        they draw from every allocator-known spot VM.  Returns the
        driver :class:`~repro.sim.kernel.Process` (join it to know the
        schedule has fully fired).
        """
        return self.env.process(self._drive(schedule, cache),
                                name="fault-injector")

    def _drive(self, schedule: FaultSchedule, cache):
        for spec in schedule:
            delay = spec.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(spec, cache)

    def _apply(self, spec: FaultSpec, cache) -> None:
        if isinstance(spec, VmEviction):
            self._evict(spec, cache)
        elif isinstance(spec, VmKill):
            self._kill(spec, cache)
        elif isinstance(spec, LinkDown):
            self._link_down(spec)
        elif isinstance(spec, LatencySpike):
            self._latency_spike(spec)
        elif isinstance(spec, SlowNode):
            self._slow_node(spec)
        else:
            raise TypeError(f"unknown fault spec {spec!r}")

    def _record(self, spec: FaultSpec, target: str, **detail) -> None:
        self.log.append(self.env.now, spec.kind, target, **detail)
        if self._injected is not None:
            self._injected.inc()

    # ------------------------------------------------------------------
    # VM faults
    # ------------------------------------------------------------------

    def _vm_candidates(self, cache, *, evictable: bool):
        """Alive VMs in deterministic (allocation/creation) order.

        Eviction needs a spot VM with no pending notice (``reclaim``
        rejects anything else); a kill can take any live VM.
        """
        if cache is not None:
            pool = list(cache.allocation.vms)
        elif self.allocator is not None:
            pool = [vm for vm in self.allocator.vms.values() if vm.spot]
        else:
            pool = []
        if evictable:
            return [vm for vm in pool
                    if vm.alive and vm.spot and vm.reclaim_deadline is None]
        return [vm for vm in pool if vm.alive]

    def _evict(self, spec: VmEviction, cache) -> None:
        if self.allocator is None:
            raise RuntimeError("VM faults need an allocator")
        candidates = self._vm_candidates(cache, evictable=True)
        if not candidates:
            self.log.append(self.env.now, "no-target", "vm-eviction")
            return
        vm = candidates[spec.vm_index % len(candidates)]
        notice = self.allocator.reclaim(vm, spec.notice_s)
        self._record(spec, f"vm-{vm.vm_id}",
                     server=vm.server.server_id,
                     deadline=notice.deadline)

    def _kill(self, spec: VmKill, cache) -> None:
        if self.allocator is None:
            raise RuntimeError("VM faults need an allocator")
        candidates = self._vm_candidates(cache, evictable=False)
        if not candidates:
            self.log.append(self.env.now, "no-target", "vm-kill")
            return
        vm = candidates[spec.vm_index % len(candidates)]
        self._record(spec, f"vm-{vm.vm_id}", server=vm.server.server_id)
        self.allocator.fail(vm)

    # ------------------------------------------------------------------
    # Network faults
    # ------------------------------------------------------------------

    def _link_down(self, spec: LinkDown) -> None:
        if self.fabric is None:
            raise RuntimeError("network faults need a fabric")
        endpoint = self.fabric.endpoint(spec.endpoint)
        qps = list(endpoint.qps)
        for qp in qps:
            qp.inject_error(f"link down at {endpoint.name}")
        self._record(spec, endpoint.name, qps=len(qps),
                     duration_s=spec.duration_s)
        self.env.process(self._restore_link(spec, endpoint, qps),
                         name=f"link-restore:{endpoint.name}")

    def _restore_link(self, spec: LinkDown, endpoint, qps):
        yield self.env.timeout(spec.duration_s)
        restored = 0
        for qp in qps:
            if not qp.in_error:
                continue
            try:
                qp.reconnect()
                restored += 1
            except QueuePairError:
                # An endpoint died while the link was down (e.g. an
                # overlapping VM kill): that QP stays dead, correctly.
                pass
        self.log.append(self.env.now, "link-restored", endpoint.name,
                        qps=restored)

    def _latency_spike(self, spec: LatencySpike) -> None:
        if self.fabric is None:
            raise RuntimeError("network faults need a fabric")
        self.fabric.extra_latency_s += spec.extra_s
        self._record(spec, "fabric", extra_s=spec.extra_s,
                     duration_s=spec.duration_s)
        self.env.process(self._clear_spike(spec), name="latency-spike-clear")

    def _clear_spike(self, spec: LatencySpike):
        yield self.env.timeout(spec.duration_s)
        # Additive, so overlapping spikes compose and unwind cleanly.
        self.fabric.extra_latency_s -= spec.extra_s
        self.log.append(self.env.now, "latency-spike-cleared", "fabric",
                        extra_s=spec.extra_s)

    def _slow_node(self, spec: SlowNode) -> None:
        if self.fabric is None:
            raise RuntimeError("network faults need a fabric")
        endpoint = self.fabric.endpoint(spec.endpoint)
        endpoint.throttle *= spec.factor
        self._record(spec, endpoint.name, factor=spec.factor,
                     duration_s=spec.duration_s)
        self.env.process(self._clear_throttle(spec, endpoint),
                         name=f"slow-node-clear:{endpoint.name}")

    def _clear_throttle(self, spec: SlowNode, endpoint):
        yield self.env.timeout(spec.duration_s)
        endpoint.throttle /= spec.factor
        self.log.append(self.env.now, "slow-node-cleared", endpoint.name,
                        factor=spec.factor)
