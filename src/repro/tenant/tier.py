"""The multi-tenant serving tier layered on :class:`ShardRouter`.

One :class:`TenantTier` turns the anonymous shard router into a serving
system.  Per registered tenant it provides:

* **A private keyspace.**  Each tenant owns a contiguous, slot-aligned
  sub-range of the router's global address space, assigned
  deterministically in registration order; tenant addresses are
  namespaced (``base + addr``) before they hit the ring, so tenants can
  never read or clobber each other's slots.
* **Admission control.**  A token bucket (rate/burst) with a bounded
  reservation queue per tenant (:mod:`repro.tenant.admission`).
  Arrivals beyond the queue bound are shed deterministically with a
  ``retry_after`` hint -- never unbounded queueing.
* **An SLO class.**  ``premium`` / ``standard`` / ``scavenger`` map to
  Pareto-frontier points chosen by the offline model's config-space
  search (:mod:`repro.tenant.slo`).  The class sets the tenant's
  latency budget: a request slower than it counts as an SLO violation.
  Admitted requests go straight to the router, whose per-shard
  backpressure queues are FIFO; isolation is admission's job.
* **Graceful degradation.**  Every acked write is mirrored into a
  client-local :class:`~repro.tenant.backing.FailOpenStore`.  When the
  tenant's remote region is lost (router I/O fails) the tenant enters
  *degraded mode*: reads fail open to the mirror, writes go
  write-through, and a recovery probe re-populates the region from the
  mirror and re-promotes the tenant automatically once it answers
  again.

Determinism: admission schedules are pure functions of arrival times,
tenants are scanned in registration order, and the degradation state
machine is driven only by simulation events -- same seed, bit-identical
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.client import CacheIoResult
from repro.obs.metrics import registry_of
from repro.shard.router import ShardRouter
from repro.sim.kernel import Environment, Event
from repro.tenant.admission import ADMIT, SHED, AdmissionController
from repro.tenant.backing import FailOpenStore
from repro.tenant.slo import ClassPlan, plan_slo_classes

__all__ = ["TenantSpec", "TenantState", "TenantTier"]

#: Bytes of the recovery probe read (one cheap remote access).
_PROBE_BYTES = 64

#: Degraded-mode queue bound: the backing device is 20-50x slower than
#: the RDMA path, so an admitted rate the cache could absorb can still
#: overrun the mirror.  Writes that find this many accesses already
#: queued on the device shed (reads are still served); admission alone
#: cannot bound queueing when capacity collapses.
_MAX_BACKING_QUEUE = 64

#: Granularity, bytes, of the dirty marks a degraded tenant's writes
#: leave and of the flush that replays them into the cache.
_FLUSH_CHUNK_BYTES = 4096

#: Give up on one flush pass after this many whole-namespace rounds; the
#: recovery probe retries on its next tick, so this only bounds how long
#: a single pass chases a tenant that keeps writing during the flush.
_MAX_FLUSH_ROUNDS = 8


@dataclass(frozen=True)
class TenantSpec:
    """Registration-time description of one tenant."""

    name: str
    #: Bytes of private keyspace (rounded up to the router slot size).
    namespace_bytes: int
    #: Admitted request rate (tokens per second) and burst allowance.
    rate_per_s: float
    burst: float
    #: SLO class: key into the tier's class plans.
    slo_class: str = "standard"
    #: Bound on queued (token-reserved) requests before shedding.
    max_queue: int = 16
    #: Degraded-mode recovery probe cadence.
    probe_interval_s: float = 5e-3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")
        if self.namespace_bytes < 1:
            raise ValueError("namespace_bytes must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")


class TenantState:
    """One registered tenant's live serving state (tier-internal, but
    exposed read-only for tests, benchmarks, and the CLI)."""

    __slots__ = (
        "spec", "plan", "base", "admission", "backing", "degraded",
        "dirty", "pending_degraded_writes", "degradations", "degraded_sheds",
        "repromotions", "flushed_bytes", "fail_open_reads",
        "lost_region_errors", "h_read_lat", "h_write_lat", "c_admitted",
        "c_delayed", "c_shed", "c_fail_open", "c_degradations",
        "c_repromotions", "c_flushed", "c_violations", "g_degraded")

    def __init__(self, spec: TenantSpec, plan: ClassPlan, base: int):
        self.spec = spec
        self.plan = plan
        #: Namespace base address on the router's global address space.
        self.base = base
        self.admission: Optional[AdmissionController] = None
        self.backing: Optional[FailOpenStore] = None
        self.degraded = False
        #: Flush-pending chunk indices (whole namespace on degradation).
        self.dirty: set[int] = set()
        #: Write-through writes still inside the backing device; they
        #: gate re-promotion (their dirty marks land when they finish).
        self.pending_degraded_writes = 0
        #: Lifetime statistics (mirrored into labeled metrics).
        self.degradations = 0
        self.degraded_sheds = 0
        self.repromotions = 0
        self.flushed_bytes = 0
        self.fail_open_reads = 0
        self.lost_region_errors = 0
        self.h_read_lat = self.h_write_lat = None
        self.c_admitted = self.c_delayed = self.c_shed = None
        self.c_fail_open = self.c_degradations = self.c_repromotions = None
        self.c_flushed = self.c_violations = self.g_degraded = None


class TenantTier:
    """Serving front-end fanning registered tenants onto one router."""

    def __init__(self, env: Environment, router: ShardRouter):
        self.env = env
        self.router = router
        self.plans = plan_slo_classes()
        self._tenants: Dict[str, TenantState] = {}
        #: Registration order == namespace order; deterministic by
        #: construction.
        self._order: List[TenantState] = []
        self._next_base = 0
        self.metrics = registry_of(env)
        m = self.metrics
        self._f_read_lat = m.histogram("tenant.read_latency") if m else None
        self._f_write_lat = m.histogram("tenant.write_latency") if m else None
        self._f_admitted = m.counter("tenant.admitted") if m else None
        self._f_delayed = m.counter("tenant.delayed") if m else None
        self._f_shed = m.counter("tenant.shed") if m else None
        self._f_fail_open = m.counter("tenant.fail_open_reads") if m else None
        self._f_degradations = m.counter("tenant.degradations") if m else None
        self._f_repromotions = m.counter("tenant.repromotions") if m else None
        self._f_flushed = m.counter("tenant.flushed_bytes") if m else None
        self._f_violations = (m.counter("tenant.slo_violations")
                              if m else None)
        self._f_degraded = m.gauge("tenant.degraded_mode") if m else None
        # Region-loss watch: an emergency rebalance with nothing to
        # stream swaps the ring instantly, so a tenant's lost slots can
        # revert to stale survivor bytes without a single failed I/O.
        # The router tells us which slots had no live source; any
        # tenant whose namespace intersects them degrades and
        # re-populates from its mirror.
        router.on_rebalance.append(self._on_rebalance)

    # ------------------------------------------------------------------
    # Registration and namespacing
    # ------------------------------------------------------------------

    def register(self, spec: TenantSpec) -> TenantState:
        """Admit a tenant: carve its namespace, build its admission
        controller and backing mirror, bind its labeled metrics."""
        if spec.name in self._tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        plan = self.plans.get(spec.slo_class)
        if plan is None:
            raise ValueError(
                f"unknown SLO class {spec.slo_class!r} "
                f"(have {sorted(self.plans)})")
        slot = self.router.slot_bytes
        span = -(-spec.namespace_bytes // slot) * slot
        base = self._next_base
        if base + span > self.router.capacity:
            raise ValueError(
                f"tenant {spec.name!r}: namespace [{base}, {base + span}) "
                f"exceeds router capacity {self.router.capacity}")
        tenant = TenantState(spec, plan, base)
        tenant.admission = AdmissionController(
            self.env, spec.rate_per_s, spec.burst, spec.max_queue)
        tenant.backing = FailOpenStore(self.env, span)
        if self.metrics is not None:
            label = {"tenant": spec.name}
            tenant.h_read_lat = self._f_read_lat.labels(**label)
            tenant.h_write_lat = self._f_write_lat.labels(**label)
            tenant.c_admitted = self._f_admitted.labels(**label)
            tenant.c_delayed = self._f_delayed.labels(**label)
            tenant.c_shed = self._f_shed.labels(**label)
            tenant.c_fail_open = self._f_fail_open.labels(**label)
            tenant.c_degradations = self._f_degradations.labels(**label)
            tenant.c_repromotions = self._f_repromotions.labels(**label)
            tenant.c_flushed = self._f_flushed.labels(**label)
            tenant.c_violations = self._f_violations.labels(**label)
            tenant.g_degraded = self._f_degraded.labels(**label)
            tenant.g_degraded.set(0)
        self._next_base = base + span
        self._tenants[spec.name] = tenant
        self._order.append(tenant)
        return tenant

    def tenant(self, name: str) -> TenantState:
        return self._tenants[name]

    @property
    def tenants(self) -> List[str]:
        """Registered tenant names, in registration order."""
        return [t.spec.name for t in self._order]

    def load(self, name: str, addr: int, data: bytes) -> None:
        """Zero-time bulk load into both the cache and the mirror
        (benchmark setup -- the mirror must cover pre-loaded data for
        fail-open reads to be correct)."""
        tenant = self._tenants[name]
        self._check_range(tenant, addr, len(data))
        self.router.load(tenant.base + addr, data)
        tenant.backing.mirror(addr, data)

    def stats(self, name: str) -> dict:
        """Deterministic per-tenant summary (CLI / digest material)."""
        t = self._tenants[name]
        a = t.admission
        return {
            "admitted": a.admitted,
            "delayed": a.delayed,
            "shed": a.shed,
            "fail_open_reads": t.fail_open_reads,
            "degradations": t.degradations,
            "degraded_sheds": t.degraded_sheds,
            "repromotions": t.repromotions,
            "degraded": t.degraded,
            "flushed_bytes": t.flushed_bytes,
            "backing_reads": t.backing.reads,
            "backing_writes": t.backing.writes,
        }

    # ------------------------------------------------------------------
    # Public I/O API
    # ------------------------------------------------------------------

    def read(self, name: str, addr: int, size: int) -> Event:
        """Asynchronous tenant read of ``size`` bytes at namespace-local
        ``addr``; fires with a :class:`CacheIoResult`."""
        return self._start(name, True, addr, size, None)

    def write(self, name: str, addr: int, data: bytes) -> Event:
        """Asynchronous tenant write at namespace-local ``addr``."""
        return self._start(name, False, addr, len(data), data)

    def _start(self, name: str, is_read: bool, addr: int, size: int,
               data: Optional[bytes]) -> Event:
        tenant = self._tenants[name]
        done = self.env.event()
        try:
            self._check_range(tenant, addr, size)
        except ValueError as exc:
            done.succeed(CacheIoResult(ok=False, error=str(exc)))
            return done
        verdict, wait = tenant.admission.admit()
        if verdict == SHED:
            if tenant.c_shed is not None:
                tenant.c_shed.inc()
            done.succeed(CacheIoResult(
                ok=False, error="admission shed", retry_after=wait))
            return done
        if verdict == ADMIT:
            if tenant.c_admitted is not None:
                tenant.c_admitted.inc()
        elif tenant.c_delayed is not None:
            tenant.c_delayed.inc()
        self.env.process(
            self._request(tenant, is_read, addr, size, data, done,
                          verdict, wait),
            name=f"tenant-{'r' if is_read else 'w'}:{name}@{addr}")
        return done

    def _check_range(self, tenant: TenantState, addr: int,
                     size: int) -> None:
        if addr < 0 or size < 0 or addr + size > tenant.spec.namespace_bytes:
            raise ValueError(
                f"tenant {tenant.spec.name!r}: access [{addr}, "
                f"{addr + size}) outside namespace of "
                f"{tenant.spec.namespace_bytes} bytes")

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------

    def _request(self, tenant: TenantState, is_read: bool, addr: int,
                 size: int, data: Optional[bytes], done: Event,
                 verdict: str, wait: float):
        arrival = self.env.now
        if verdict != ADMIT:
            # Token reserved: sleep until it matures, FIFO per tenant.
            # The reservation holds a bounded-queue slot, so it must
            # drain on every exit from here, exceptions included --
            # otherwise the tenant's admission capacity shrinks forever.
            try:
                yield self.env.timeout(wait)
            finally:
                tenant.admission.release()
        if tenant.degraded:
            yield from self._serve_degraded(tenant, is_read, addr, size,
                                            data, done, arrival)
            return
        gaddr = tenant.base + addr
        if is_read:
            result = yield from self.router.read_io(
                gaddr, size, tenant=tenant.spec.name)
        else:
            result = yield from self.router.write_io(
                gaddr, data, tenant=tenant.spec.name)
        if result.ok:
            if not is_read:
                # Ack-path mirror: the backing store sees every
                # acknowledged byte, which is what makes fail-open
                # reads and recovery re-population lossless.
                tenant.backing.mirror(addr, data)
            self._finish(tenant, is_read, done, arrival,
                         data=result.data, served_by="cache")
            return
        # The tenant's region stopped answering: degrade and fail open.
        tenant.lost_region_errors += 1
        self._enter_degraded(tenant)
        yield from self._serve_degraded(tenant, is_read, addr, size, data,
                                        done, arrival)

    def _finish(self, tenant: TenantState, is_read: bool, done: Event,
                arrival: float, *, data: Optional[bytes],
                served_by: str) -> None:
        latency = self.env.now - arrival
        histogram = tenant.h_read_lat if is_read else tenant.h_write_lat
        if histogram is not None:
            histogram.observe(latency)
        if (latency > tenant.plan.slo.max_latency
                and tenant.c_violations is not None):
            tenant.c_violations.inc()
        done.succeed(CacheIoResult(
            ok=True, data=data if is_read else None, latency=latency,
            served_by=served_by))

    # ------------------------------------------------------------------
    # Degradation state machine
    # ------------------------------------------------------------------

    def _on_rebalance(self, report) -> None:
        if not report.lost_slot_ids:
            return
        slot = self.router.slot_bytes
        for tenant in self._order:
            lo = tenant.base
            hi = tenant.base + tenant.backing.capacity
            if any(lo < (s + 1) * slot and s * slot < hi
                   for s in report.lost_slot_ids):
                self._enter_degraded(tenant)

    def _enter_degraded(self, tenant: TenantState) -> None:
        if tenant.degraded:
            return
        tenant.degraded = True
        tenant.degradations += 1
        if tenant.c_degradations is not None:
            tenant.c_degradations.inc()
        if tenant.g_degraded is not None:
            tenant.g_degraded.set(1)
        # Re-population discipline: after a region loss the remote copy
        # is untrusted wholesale (an emergency rebalance may have
        # rebuilt lost slots as zeroes), so the whole namespace is
        # flush-pending from the mirror.
        chunks = -(-tenant.backing.capacity // _FLUSH_CHUNK_BYTES)
        tenant.dirty = set(range(chunks))
        self.env.process(self._recovery_probe(tenant),
                         name=f"tenant-recover:{tenant.spec.name}")

    def _serve_degraded(self, tenant: TenantState, is_read: bool,
                        addr: int, size: int, data: Optional[bytes],
                        done: Event, arrival: float):
        if not is_read and tenant.backing.queue_length >= _MAX_BACKING_QUEUE:
            # Degraded capacity is a fraction of normal capacity;
            # admitted-but-unserviceable writes shed here or the
            # device queue grows without bound.
            tenant.degraded_sheds += 1
            if tenant.c_shed is not None:
                tenant.c_shed.inc()
            done.succeed(CacheIoResult(
                ok=False, error="degraded overload",
                retry_after=(tenant.backing.queue_length
                             * tenant.backing.access_latency_s)))
            return
        if is_read:
            tenant.fail_open_reads += 1
            if tenant.c_fail_open is not None:
                tenant.c_fail_open.inc()
            payload = yield from tenant.backing.read(addr, size)
            self._finish(tenant, True, done, arrival, data=payload,
                         served_by="backing")
        else:
            tenant.pending_degraded_writes += 1
            yield from tenant.backing.write(addr, data)
            self._mark_dirty(tenant, addr, len(data))
            tenant.pending_degraded_writes -= 1
            self._finish(tenant, False, done, arrival, data=None,
                         served_by="backing")

    def _mark_dirty(self, tenant: TenantState, addr: int,
                    size: int) -> None:
        first = addr // _FLUSH_CHUNK_BYTES
        last = max(addr, addr + size - 1) // _FLUSH_CHUNK_BYTES
        for chunk in range(first, last + 1):
            tenant.dirty.add(chunk)

    def _recovery_probe(self, tenant: TenantState):
        """Degraded-mode companion: poll the region, then re-populate.

        Each tick issues one small read against the tenant's namespace;
        once it answers, the dirty chunks stream back from the mirror
        (writes that land mid-flush re-dirty their chunks and are
        caught by the next round).  When a pass drains the dirty set,
        the tenant re-promotes to normal service.
        """
        name = tenant.spec.name
        probe_bytes = min(_PROBE_BYTES, tenant.spec.namespace_bytes)
        while tenant.degraded:
            yield self.env.timeout(tenant.spec.probe_interval_s)
            probe = yield self.router.read(tenant.base, probe_bytes,
                                           tenant=name)
            if not probe.ok:
                continue
            drained = yield from self._flush(tenant)
            # A write-through write still inside the backing device
            # will dirty its chunk only when it completes: hold the
            # degraded state until the pipeline is empty, or its bytes
            # would never reach the recovered region.
            if (drained and not tenant.dirty
                    and tenant.pending_degraded_writes == 0):
                tenant.degraded = False
                tenant.repromotions += 1
                if tenant.c_repromotions is not None:
                    tenant.c_repromotions.inc()
                if tenant.g_degraded is not None:
                    tenant.g_degraded.set(0)
                return

    def _flush(self, tenant: TenantState):
        """Stream dirty chunks mirror -> router; True when drained."""
        name = tenant.spec.name
        for _round in range(_MAX_FLUSH_ROUNDS):
            if not tenant.dirty:
                return True
            chunks = sorted(tenant.dirty)
            tenant.dirty = set()
            for index, chunk in enumerate(chunks):
                addr = chunk * _FLUSH_CHUNK_BYTES
                size = min(_FLUSH_CHUNK_BYTES,
                           tenant.backing.capacity - addr)
                payload = tenant.backing.peek(addr, size)
                result = yield self.router.write(tenant.base + addr,
                                                 payload, tenant=name)
                if not result.ok:
                    # Region went away again mid-flush: everything not
                    # yet streamed stays dirty for the next probe.
                    tenant.dirty.update(chunks[index:])
                    return False
                tenant.flushed_bytes += size
                if tenant.c_flushed is not None:
                    tenant.c_flushed.inc(size)
        return not tenant.dirty
