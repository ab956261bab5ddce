"""The Redy cache client: the front end applications link against.

:class:`RedyClient` is the per-application entry point; its
:meth:`~RedyClient.create` implements Table 1's *Create* and returns a
:class:`RedyCache` -- the "virtual storage device abstraction that
supports a contiguous byte-addressable address space" of §3.3, with
asynchronous *Read* / *Write*, *Reshape*, and *Delete*.

The client also owns the robustness machinery of §6.2: it reacts to
reclamation notices by migrating affected regions to replacement VMs,
and to hard VM failures by re-provisioning and re-populating from the
optional backing file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.cluster.allocator import AllocationError
from repro.core.config import Slo
from repro.core.engine import CacheDataPath, OneSidedIo
from repro.core.manager import CacheAllocation, CacheManager
from repro.core.migration import (INGEST_BANDWIDTH_GBPS, MigrationPolicy,
                                  migrate_regions)
from repro.core.protocol import EngineOp, OpResult, OpStages
from repro.core.regions import AddressError, RegionTable
from repro.core.server import CacheServer
from repro.hardware.profiles import TestbedProfile
from repro.net.fabric import Fabric, Placement
from repro.net.programs import POINTER_BYTES
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event, _refcount
from repro.sim.rng import RngRegistry

__all__ = ["CacheDeletedError", "CacheIoResult", "RedyCache", "RedyClient",
           "RetryPolicy"]


class CacheDeletedError(Exception):
    """Access to a deleted cache (§3.3: "Any later access to the cache
    will return an exception")."""


@dataclass(slots=True)
class CacheIoResult:
    """Outcome of one cache Read or Write."""

    ok: bool
    data: Optional[bytes] = None
    error: Optional[str] = None
    latency: float = 0.0
    #: Extra attempts the retry layer made before this result (0 when the
    #: first attempt answered).
    retries: int = 0
    #: Admission-control shed: seconds after which the caller should
    #: retry (``math.inf`` when the tenant's bucket can never refill).
    #: ``None`` everywhere outside the serving tier's shed path.
    retry_after: Optional[float] = None
    #: Which layer produced the bytes: ``"cache"`` for the remote data
    #: path, ``"backing"`` when the serving tier failed open to the
    #: tenant's local FASTER mirror.
    served_by: str = "cache"


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry for transient failures (§6.2 robustness).

    The default (one attempt, no timeout) is exactly the historical
    behaviour: errors surface to the caller on the first failure, which
    is what a replicated :class:`~repro.shard.router.ShardRouter` needs
    to fail a read over to the next owner within one I/O.  Chaos
    scenarios and availability benchmarks opt into retries to ride out
    injected faults (QP errors, latency spikes) without giving up on the
    cache.
    """

    #: Total attempts (first try included).  1 = fail fast.
    max_attempts: int = 1
    #: Backoff before attempt ``k`` (k >= 2): ``base * 2**(k-2)``...
    base_backoff_s: float = 100e-6
    #: ...capped here, so a long fault does not grow the wait unboundedly.
    max_backoff_s: float = 10e-3
    #: Per-attempt deadline; ``None`` waits for the data path's own
    #: timeout machinery.  An expired attempt counts as failed (its
    #: in-flight I/O is abandoned, not cancelled -- RDMA semantics).
    attempt_timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("need 0 <= base_backoff_s <= max_backoff_s")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive")

    def backoff_s(self, failures: int) -> float:
        """Wait after ``failures`` consecutive failed attempts (>= 1)."""
        return min(self.base_backoff_s * (2.0 ** (failures - 1)),
                   self.max_backoff_s)


class RedyClient:
    """Factory for caches, colocated with one application."""

    #: Where the application runs: the manager places caches near it.
    placement = Placement()

    def __init__(self, env: Environment, profile: TestbedProfile,
                 fabric: Fabric, manager: CacheManager, rngs: RngRegistry,
                 name: str = "redy-app"):
        self.env = env
        self.profile = profile
        self.fabric = fabric
        self.manager = manager
        self.rngs = rngs
        self.endpoint = fabric.add_endpoint(name, self.placement)

    def create(self, capacity: int, slo: Slo,
               duration_s: float = math.inf, *,
               file: Optional[bytes] = None,
               region_bytes: int = 1 << 30,
               backed: bool = True,
               migration_policy: MigrationPolicy = MigrationPolicy(),
               retry_policy: RetryPolicy = RetryPolicy(),
               auto_recover: bool = False,
               exclude_servers: Optional[frozenset] = None,
               harvest: bool = False,
               use_verb_programs: Optional[bool] = None) -> "RedyCache":
        """Table 1 *Create*: provision a cache and optionally populate it
        with a prefix of ``file``.  Raises
        :class:`~repro.core.manager.SloUnsatisfiableError` (and leaves no
        state behind) when the request cannot be satisfied.
        ``exclude_servers`` keeps the cache off given fault domains
        (used by :meth:`~repro.shard.router.ShardRouter.replicated`);
        ``harvest=True`` requests essentially-free stranded memory,
        accessed one-sided.  ``use_verb_programs``
        overrides the manager-chosen configuration's dependent-read
        transport (one-RTT verb programs vs classic two-hop GETs).
        """
        allocation = self.manager.allocate(
            capacity, slo, duration_s, client_placement=self.placement,
            region_bytes=region_bytes, exclude_servers=exclude_servers,
            harvest=harvest)
        if use_verb_programs is not None:
            allocation.config = replace(
                allocation.config, use_verb_programs=use_verb_programs)
        cache = RedyCache(self, allocation, slo, region_bytes,
                          backed=backed, backing_file=file,
                          migration_policy=migration_policy,
                          retry_policy=retry_policy,
                          auto_recover=auto_recover)
        if file is not None:
            cache.populate(file)
        return cache


class RedyCache:
    """One provisioned cache: a contiguous byte-addressable device.

    Every I/O is a generator body that returns its
    :class:`CacheIoResult`.  :meth:`read`, :meth:`write` and
    :meth:`dependent_read` return an event that fires with the result:
    for a fail-fast read or write inside one region of a one-sided
    cache, a :class:`_CacheIo` record that runs the I/O as a chain of
    callbacks (:class:`~repro.core.engine.OneSidedIo`), and otherwise
    the process running the body.  A layer that already runs in a
    process delegates to the body instead -- ``yield from
    cache.read_io(...)`` or ``cache.write_io(...)`` -- and the I/O costs
    it no process, no bootstrap step and no completion hand-off.
    """

    def __init__(self, client: RedyClient, allocation: CacheAllocation,
                 slo: Slo, region_bytes: int, *, backed: bool,
                 backing_file: Optional[bytes],
                 migration_policy: MigrationPolicy,
                 retry_policy: RetryPolicy = RetryPolicy(),
                 auto_recover: bool = False):
        self.env = client.env
        self.profile = client.profile
        self.client = client
        self.manager = client.manager
        self.allocation = allocation
        self.slo = slo
        self.region_bytes = region_bytes
        self.backed = backed
        self.backing_file = backing_file
        self.migration_policy = migration_policy
        self.retry_policy = retry_policy
        #: When True, a VM that dies while still owning regions triggers
        #: :meth:`recover_from_failure` automatically -- the behaviour a
        #: production client needs under injected churn.  Off by default:
        #: existing experiments drive recovery explicitly.
        self.auto_recover = auto_recover
        self.deleted = False
        self.path = CacheDataPath(
            self.env, self.profile, allocation.config, client.endpoint,
            client.rngs.stream(f"cache-path-{allocation.allocation_id}"))
        self.table = RegionTable(self.env, region_bytes)
        self._attached: set[str] = set()
        for server in allocation.servers:
            self._attach_and_map(server)
        self.manager.on_reclaim_notice(allocation, self._on_reclaim_notice)
        #: Completed migration reports, for the §7.4 experiments.
        self.migrations: list = []
        #: Migrations that lost the race against VM termination.
        self.migration_failures = 0
        #: VMs with a migration in flight -- at most one mover per VM,
        #: whether triggered by a reclaim notice, the lifetime guard, or
        #: the cost optimizer.
        self._migrating: set[int] = set()
        #: In-flight recoveries by server name; makes
        #: :meth:`recover_from_failure` idempotent so the auto-recovery
        #: hook and the failed-migration path cannot race a double
        #: re-provision of the same regions.
        self._recoveries: dict[str, Event] = {}
        metrics = registry_of(self.env)
        if metrics is not None:
            self._retries_counter = metrics.counter("client.retries")
            self._timeouts_counter = metrics.counter(
                "client.attempt_timeouts")
            self._recoveries_counter = metrics.counter("client.recoveries")
        else:
            self._retries_counter = None
            self._timeouts_counter = None
            self._recoveries_counter = None
        if self.auto_recover:
            for vm in allocation.vms:
                vm.on_terminated.append(self._on_vm_terminated)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _attach_and_map(self, server: CacheServer) -> None:
        name = server.endpoint.name
        n_regions = self.allocation.regions_per_server.get(name, 0)
        tokens = self.path.attach_server(
            server, n_regions=n_regions, region_size=self.region_bytes,
            backed=self.backed)
        self._attached.add(name)
        for token in tokens:
            self.table.append_region(token, name)

    def ensure_attached(self, server: CacheServer) -> None:
        """Connect to a server without allocating data regions (used by
        migration, which allocates regions itself)."""
        if server.endpoint.name not in self._attached:
            self.path.attach_server(server, n_regions=0,
                                    region_size=self.region_bytes,
                                    backed=self.backed)
            self._attached.add(server.endpoint.name)

    @property
    def capacity(self) -> int:
        return self.table.capacity

    def _server_by_name(self, name: str) -> CacheServer:
        for server in self.allocation.servers:
            if server.endpoint.name == name:
                return server
        raise KeyError(f"no cache server {name!r} in allocation")

    # ------------------------------------------------------------------
    # Table 1: Read / Write
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int,
             callback: Optional[Callable[[CacheIoResult], None]] = None,
             *, tenant: Optional[str] = None) -> Event:
        """Asynchronous read; the returned event fires with a
        :class:`CacheIoResult` whose ``data`` holds ``size`` bytes.
        ``tenant`` tags the op for per-tenant engine accounting."""
        return self._start_io("r", addr, size, None, callback, tenant=tenant)

    def write(self, addr: int, data: bytes,
              callback: Optional[Callable[[CacheIoResult], None]] = None,
              *, tenant: Optional[str] = None) -> Event:
        """Asynchronous write of ``data`` at ``addr``."""
        return self._start_io("w", addr, len(data), data, callback,
                              tenant=tenant)

    def dependent_read(self, pointer_addr: int, size: int) -> Event:
        """Pointer-chasing read: dereference the little-endian u64 at
        ``pointer_addr`` and read ``size`` bytes at the address it holds.

        This is the FASTER-through-Redy GET shape (hash-bucket word ->
        hybrid-log record).  With ``use_verb_programs`` enabled on the
        cache's configuration the chase runs as a remote-side verb
        program in one round trip, with a self-verifying CAS guard on the
        pointer word (migration safety); otherwise -- or on endpoints
        without program support -- it takes the classic two sequential
        READs.  Either way the pointer and record must live in the same
        region: the pointer's target is a region-local offset.
        """
        return self._start_io("d", pointer_addr, size, None, None)

    def read_io(self, addr: int, size: int, *,
                tenant: Optional[str] = None):
        """The generator body of :meth:`read`, for a caller that already
        runs in a process: ``result = yield from cache.read_io(...)``
        runs the read in the caller's process and returns its
        :class:`CacheIoResult`, with no process or event of its own."""
        return self._body("r", addr, size, None, tenant=tenant)

    def write_io(self, addr: int, data: bytes, *,
                 tenant: Optional[str] = None):
        """The generator body of :meth:`write` (see :meth:`read_io`)."""
        return self._body("w", addr, len(data), data, tenant=tenant)

    def _start_io(self, kind: str, addr: int, size: int,
                  data: Optional[bytes], callback: Optional[Callable], *,
                  tenant: Optional[str] = None) -> Event:
        """Start one I/O of ``kind``: ``"r"`` read, ``"w"`` write,
        ``"d"`` dependent read.  A :class:`_CacheIo` record is its own
        completion event and calls ``callback`` itself; any other body
        runs in a process, which is the completion event, and hands its
        result to ``callback`` itself (see :meth:`_calling_back`)."""
        record = self._record(kind, addr, size, data, tenant)
        if record is not None:
            record.callback = callback
            # The first stage runs where a process's bootstrap entry ran.
            self.env._call_soon(OneSidedIo._resume, record)
            return record
        body = self._body(kind, addr, size, data, tenant=tenant)
        if callback is not None:
            body = self._calling_back(body, callback)
        return self.env.process(body, name=f"redy-io-{kind}@{addr}")

    def _calling_back(self, body, callback: Callable):
        """Run ``body``, then call ``callback`` with its result in its
        last step, where the process's exit entry would have: that step
        is always resumed by an event only the body waits on, so the
        exit entry ran next -- behind whatever was already due, which
        one zero hop queues behind too."""
        result = yield from body
        env = self.env
        if env.due_now():
            yield env.timeout(0)
        callback(result)
        return result

    def _body(self, kind: str, addr: int, size: int,
              data: Optional[bytes], *, tenant: Optional[str] = None):
        """The generator that runs one I/O under the retry policy and
        returns its :class:`CacheIoResult`.  A deleted cache raises here,
        at the call."""
        if self.deleted:
            raise CacheDeletedError("cache was deleted")
        policy = self.retry_policy
        if policy.max_attempts == 1 and policy.attempt_timeout_s is None:
            # Fail-fast default: no retry wrapper on the hot path.
            return self._io(kind, addr, size, data, tenant=tenant)
        return self._io_with_retry(kind, addr, size, data, tenant=tenant)

    def _record(self, kind: str, addr: int, size: int,
                data: Optional[bytes], tenant: Optional[str]
                ) -> Optional["_CacheIo"]:
        """A :class:`_CacheIo` record for a fail-fast read or write that
        sits inside one region of a one-sided cache (or outside the
        cache: its first stage then answers with the address error, as
        :meth:`_io` does); None for any other I/O, and on a deleted
        cache, which :meth:`_body` refuses."""
        policy = self.retry_policy
        region_bytes = self.region_bytes
        offset = addr % region_bytes
        if (kind == "d" or not self.path.one_sided or self.deleted
                or policy.max_attempts != 1
                or policy.attempt_timeout_s is not None
                or not 0 < size <= region_bytes - offset):
            return None
        record = _CacheIo(self.path, EngineOp(
            is_read=kind == "r", size=size, offset=offset, data=data,
            tenant=tenant), None, _CacheIo.locate)
        record.cache = self
        record.addr = addr
        return record

    def _io_with_retry(self, kind: str, addr: int, size: int,
                       data: Optional[bytes], tenant: Optional[str] = None):
        """Drive :meth:`_io` attempts under the cache's retry policy.

        Capped exponential backoff between attempts.  An attempt with no
        deadline runs in this process; an optional per-attempt deadline
        runs it as its own process raced against a timeout, and turns a
        hung attempt into a failed one (the abandoned attempt's I/O keeps
        draining in the background, which is harmless -- its result
        lands on a process nobody waits on).
        """
        policy = self.retry_policy
        start = self.env.now
        result = CacheIoResult(ok=False, error="no attempts made")
        for attempt in range(policy.max_attempts):
            if attempt:
                if self._retries_counter is not None:
                    self._retries_counter.inc()
                yield self.env.timeout(policy.backoff_s(attempt))
            if self.deleted:
                result = CacheIoResult(ok=False, error="cache was deleted")
                break
            if policy.attempt_timeout_s is None:
                result = yield from self._io(kind, addr, size, data,
                                             tenant=tenant)
            else:
                index, value = yield self.env.any_of([
                    self.env.process(
                        self._io(kind, addr, size, data, tenant=tenant),
                        name=f"redy-io-{kind}@{addr}#{attempt}"),
                    self.env.timeout(policy.attempt_timeout_s)])
                if index == 1:
                    if self._timeouts_counter is not None:
                        self._timeouts_counter.inc()
                    result = CacheIoResult(
                        ok=False,
                        error=f"attempt timed out after "
                              f"{policy.attempt_timeout_s}s")
                else:
                    result = value
            if result.ok:
                break
        result.retries = attempt
        result.latency = self.env.now - start
        return result

    def _io(self, kind: str, addr: int, size: int,
            data: Optional[bytes], tenant: Optional[str] = None):
        if kind == "d":
            return (yield from self._dependent_io(addr, size))
        is_read = kind == "r"
        env = self.env
        start = env.now
        try:
            located = self.table.locate(addr, size)
        except AddressError as exc:
            return CacheIoResult(ok=False, error=str(exc))
        if located is not None:
            # Inside one region: the op runs in this process.
            index, offset = located
            op = EngineOp(is_read=is_read, size=size, offset=offset,
                          data=data, tenant=tenant)
            gate = self.table.gate(index, is_read)
            if gate is not None:
                yield gate  # §6.2: paused until the region migrates
            yield env.timeout(self._hand_off(op, index))
            result = yield from self.path.io(op)
            return self._cache_result(op, result, start)
        # Across regions (or empty): the fragments are in flight together.
        fragments = self.table.translate(addr, size)
        ops: list[EngineOp] = []
        for fragment in fragments:
            index = fragment.region_index
            gate = self.table.gate(index, is_read)
            if gate is not None:
                yield gate  # §6.2: paused until the region migrates
            payload = None
            if data is not None:
                payload = data[fragment.buffer_offset:
                               fragment.buffer_offset + fragment.length]
            op = EngineOp(is_read=is_read, size=fragment.length,
                          offset=fragment.offset, data=payload, tenant=tenant)
            yield env.timeout(self._hand_off(op, index))
            self.path.submit(op)
            ops.append(op)
        results = yield env.all_of([op.completion for op in ops])

        failures = [r for r in results if not r.ok]
        if failures:
            return CacheIoResult(ok=False, error=failures[0].error,
                                 latency=env.now - start)
        payload = None
        if is_read:
            buffer = bytearray(size)
            for fragment, result in zip(fragments, results):
                if result.data is not None:
                    buffer[fragment.buffer_offset:
                           fragment.buffer_offset + fragment.length] = \
                        result.data
            payload = bytes(buffer)
        return CacheIoResult(ok=True, data=payload,
                             latency=env.now - start)

    # The client prefix every data-path I/O shares past its region gate:
    # the hand-off and the result (see _CacheIo for the one-sided
    # record).

    def _hand_off(self, op: EngineOp, index: int) -> float:
        """Aim ``op`` at region ``index``'s current mapping (it may have
        flipped while the op waited at the gate), stamp its hand-off,
        and return the app thread's hand-off charge to wait out."""
        op.token = self.table.region(index).token
        path = self.path
        if path.stamps_stages:
            op.stages = OpStages(self.env.now)
        return path.submission_overhead()

    def _cache_result(self, op: EngineOp, result,
                      start: float) -> CacheIoResult:
        """The cache I/O's result from its single engine op's."""
        latency = self.env.now - start
        if not result.ok:
            return CacheIoResult(ok=False, error=result.error,
                                 latency=latency)
        payload = None
        if op.is_read:
            payload = (result.data if result.data is not None
                       else bytes(op.size))
        return CacheIoResult(ok=True, data=payload, latency=latency)

    def _dependent_io(self, addr: int, size: int):
        """A dependent read handed to the data path as one engine op.

        It chases the pointer word at ``addr`` to ``size`` record bytes;
        the engine picks the transport and the record offset resolves
        remotely, so the client never sees the pointer value.  The word
        must sit in one region.
        """
        start = self.env.now
        try:
            located = self.table.locate(addr, POINTER_BYTES)
        except AddressError as exc:
            return CacheIoResult(ok=False, error=str(exc))
        if located is None:
            return CacheIoResult(
                ok=False, error="dependent read: pointer word spans regions")
        index, offset = located
        gate = self.table.gate(index, True)
        if gate is not None:
            yield gate  # §6.2: paused until the region migrates
        # Re-resolve the mapping: it may have flipped while we waited.
        token = self.table.region(index).token
        op = EngineOp(
            is_read=True, size=size, token=token, offset=0,
            lookup_offset=offset, verify=True)
        yield self.env.timeout(self.path.submission_overhead())
        result = yield from self.path.io(op)
        return CacheIoResult(ok=result.ok, data=result.data,
                             error=result.error,
                             latency=self.env.now - start)

    def populate(self, file: bytes) -> None:
        """Synchronously load a prefix of ``file`` (Create's file param).

        Runs outside simulated time: initial population is part of cache
        construction, not of the measured workload.
        """
        self.load(0, file[:min(len(file), self.capacity)])

    def load(self, addr: int, data: bytes) -> None:
        """Zero-time bulk write, bypassing the data path.

        Simulation bootstrap only (population from *Create*'s file
        parameter, hybrid-log spills during benchmark setup) -- it is
        not part of the Table 1 API.
        """
        for fragment in self.table.translate(addr, len(data)):
            server = self._server_by_name(
                self.table.region(fragment.region_index).server_name)
            region = server.regions.get(fragment.token.region_id)
            if region is not None:
                region.local_write(
                    fragment.offset,
                    data[fragment.buffer_offset:
                         fragment.buffer_offset + fragment.length])

    # ------------------------------------------------------------------
    # Table 1: Reshape / Delete
    # ------------------------------------------------------------------

    def reshape(self, capacity: Optional[int] = None,
                slo: Optional[Slo] = None) -> Event:
        """Table 1 *Reshape*: change capacity and/or SLO (§3.3).

        Returns an event that fires with True on success; on failure the
        event fails with the underlying exception and the cache is
        unchanged.
        """
        if self.deleted:
            raise CacheDeletedError("cache was deleted")
        done = self.env.event()
        self.env.process(self._reshape(capacity, slo, done),
                         name="redy-reshape")
        return done

    def _reshape(self, capacity: Optional[int], slo: Optional[Slo],
                 done: Event):
        target_capacity = capacity if capacity is not None else self.capacity
        try:
            if slo is not None and slo != self.slo:
                yield from self._reshape_slo(target_capacity, slo)
            elif target_capacity < self.capacity:
                self._shrink(target_capacity)
            elif target_capacity > self.capacity:
                yield from self._grow(target_capacity)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            done.fail(exc)
            return
        done.succeed(True)

    def _reshape_slo(self, capacity: int, slo: Slo):
        """SLO change: allocate a new cache, migrate, drop the old one."""
        new_allocation = self.manager.allocate(
            capacity, slo, client_placement=self.client.placement,
            region_bytes=self.region_bytes)
        new_cache = RedyCache(self.client, new_allocation, slo,
                              self.region_bytes, backed=self.backed,
                              backing_file=self.backing_file,
                              migration_policy=self.migration_policy)
        # Copy content region by region through the client.
        if self.backed:
            for index in range(min(len(self.table), len(new_cache.table))):
                result = yield self.read(index * self.region_bytes,
                                         self.region_bytes)
                if result.ok and result.data is not None:
                    yield new_cache.write(index * self.region_bytes,
                                          result.data)
        old_allocation = self.allocation
        self.manager.deallocate(old_allocation)
        # Adopt the new cache's internals.
        self.allocation = new_cache.allocation
        self.path = new_cache.path
        self.table = new_cache.table
        self._attached = new_cache._attached
        self.slo = slo
        self.manager.on_reclaim_notice(self.allocation,
                                       self._on_reclaim_notice)

    def _shrink(self, capacity: int) -> None:
        """Truncate the tail of the address space (§3.3)."""
        dropped = self.table.truncate(capacity)
        by_server: dict[str, int] = {}
        for mapping in dropped:
            by_server[mapping.server_name] = (
                by_server.get(mapping.server_name, 0) + 1)
            server = self._server_by_name(mapping.server_name)
            server.release_region(mapping.token.region_id)
        # Release VMs whose regions are all gone (Reallocate).
        for name in by_server:
            if not self.table.regions_on(name):
                server = self._server_by_name(name)
                vm = self.allocation.vms[
                    self.allocation.servers.index(server)]
                self.manager.release_vm(self.allocation, vm)
                self._attached.discard(name)

    def _grow(self, capacity: int):
        """Extend the address space, using headroom before new VMs.

        Any needed VM is allocated *before* the region table mutates, so
        a failed grow leaves the cache unchanged (§3.3).
        """
        needed = math.ceil(capacity / self.region_bytes) - len(self.table)
        # Headroom in the last VM first (§3.3).
        last_server = self.allocation.servers[-1]
        last_vm = self.allocation.vms[-1]
        usable_gb = last_vm.vm_type.memory_gb - 0.5
        fit = int(usable_gb * (1 << 30) // self.region_bytes)
        used = len(self.table.regions_on(last_server.endpoint.name))
        headroom = max(0, fit - used)
        take = min(needed, headroom)
        overflow = needed - take

        new_server = None
        if overflow > 0:
            # May raise AllocationError: nothing has been mutated yet.
            _vm, new_server = self.manager.allocate_replacement(
                self.allocation, overflow)

        if take > 0:
            for region in last_server.allocate_regions(
                    take, self.region_bytes, backed=self.backed):
                self.path.add_route(region.region_id,
                                    last_server.endpoint.name)
                self.table.append_region(region.token,
                                         last_server.endpoint.name)
        if new_server is not None:
            tokens = self.path.attach_server(
                new_server, n_regions=overflow,
                region_size=self.region_bytes, backed=self.backed)
            self._attached.add(new_server.endpoint.name)
            for token in tokens:
                self.table.append_region(token, new_server.endpoint.name)
        yield self.env.timeout(0)

    def delete(self) -> None:
        """Table 1 *Delete*: release all resources."""
        if self.deleted:
            return
        self.deleted = True
        self.manager.deallocate(self.allocation)

    # ------------------------------------------------------------------
    # Robustness (§6.2)
    # ------------------------------------------------------------------

    def _on_reclaim_notice(self, vm, deadline: float) -> None:
        self.env.process(self._migrate_off(vm),
                         name=f"redy-migrate-off-vm{vm.vm_id}")

    def claim_migration(self, vm) -> bool:
        """Try to become the sole mover of ``vm``'s regions."""
        if vm.vm_id in self._migrating:
            return False
        self._migrating.add(vm.vm_id)
        return True

    def release_migration_claim(self, vm) -> None:
        self._migrating.discard(vm.vm_id)

    def _migrate_off(self, vm):
        """Move every region off a doomed VM (reclaim notice received,
        or a preemptive decision).

        If the VM dies mid-copy -- the §7.4 risk when the cache on it is
        too large for the notice window -- the not-yet-moved regions are
        lost and recovery (backing file or zeroes) takes over.
        """
        if vm not in self.allocation.vms:
            return
        if not self.claim_migration(vm):
            # Another mover (guard / cost optimizer / earlier notice) is
            # already relocating this VM's regions.
            return
        try:
            yield from self._migrate_off_locked(vm)
        finally:
            self.release_migration_claim(vm)

    def _migrate_off_locked(self, vm):
        index = self.allocation.vms.index(vm)
        old_server = self.allocation.servers[index]
        affected = [m.index for m in
                    self.table.regions_on(old_server.endpoint.name)]
        if self.manager.provisioning_delay_s > 0:
            yield self.env.timeout(self.manager.provisioning_delay_s)
        try:
            new_vm, new_server = self.manager.allocate_replacement(
                self.allocation, len(affected), exclude_vm=vm)
            if self.auto_recover:
                new_vm.on_terminated.append(self._on_vm_terminated)
        except AllocationError:
            # Nowhere to migrate: the regions die with the VM and ops on
            # them will fail -- "the Redy client ... must be able to
            # cope with the loss" (§3.2).
            self.migration_failures += 1
            return
        try:
            report = yield from migrate_regions(
                self, old_server, new_server, affected,
                policy=self.migration_policy)
        except RuntimeError:
            # Source VM terminated before the copy finished.  The
            # regions stay paused; recovery re-provisions them and lifts
            # the gates.
            self.migration_failures += 1
            yield self.recover_from_failure(old_server.endpoint.name)
            return
        self.migrations.append(report)
        self.manager.release_vm(self.allocation, vm)

    def _on_vm_terminated(self, vm) -> None:
        """Auto-recovery hook: a VM died while (possibly) owning regions.

        Fires from ``Vm.on_terminated`` when the cache was created with
        ``auto_recover=True``.  A clean migration has already remapped
        and released by this point (``regions_on`` is empty), so only an
        actual loss starts recovery -- and ``recover_from_failure`` is
        idempotent, so racing the failed-migration path is safe.
        """
        if self.deleted or vm not in self.allocation.vms:
            return
        index = self.allocation.vms.index(vm)
        name = self.allocation.servers[index].endpoint.name
        if self.table.regions_on(name):
            self.recover_from_failure(name)

    def recover_from_failure(self, server_name: str) -> Event:
        """Re-provision regions lost to a hard VM failure.

        The replacement is re-populated from the backing file when one
        was given at Create time (§6.2: "the cache client can use a copy
        of the cache to populate the new cache"); otherwise the regions
        come back zeroed.  Affected regions are unavailable (ops pause)
        until recovery completes.  Idempotent: while one recovery of
        ``server_name`` is in flight, further calls return the same
        event instead of double-provisioning.
        """
        existing = self._recoveries.get(server_name)
        if existing is not None:
            return existing
        done = self.env.event()
        self._recoveries[server_name] = done
        done._add_callback(
            lambda _ev: self._recoveries.pop(server_name, None))
        if self._recoveries_counter is not None:
            self._recoveries_counter.inc()
        self.env.process(self._recover(server_name, done),
                         name=f"redy-recover-{server_name}")
        return done

    def _recover(self, server_name: str, done: Event):
        affected = [m.index for m in self.table.regions_on(server_name)]
        if not affected:
            # Nothing mapped there any more (an earlier recovery or a
            # migration finished first): success, nothing to do.
            done.succeed(True)
            return
        failed_server = self._server_by_name(server_name)
        for index in affected:
            self.table.pause_writes(index)
            self.table.pause_reads(index)
        # Provisioning a replacement VM is not instantaneous (§6.2);
        # zero delay models the pre-provisioned-VM strategy.
        if self.manager.provisioning_delay_s > 0:
            yield self.env.timeout(self.manager.provisioning_delay_s)
        vm_index = self.allocation.servers.index(failed_server)
        failed_vm = self.allocation.vms[vm_index]
        try:
            new_vm, server = self.manager.allocate_replacement(
                self.allocation, len(affected), exclude_vm=failed_vm)
            if self.auto_recover:
                new_vm.on_terminated.append(self._on_vm_terminated)
        except AllocationError as exc:
            for index in affected:
                self.table.resume(index)
            done.fail(exc)
            return
        regions = server.allocate_regions(
            len(affected), self.region_bytes, backed=self.backed)
        self.ensure_attached(server)
        ingest_bps = INGEST_BANDWIDTH_GBPS * 1e9 / 8
        for index, region in zip(affected, regions):
            if self.backed and self.backing_file is not None:
                base = index * self.region_bytes
                chunk = self.backing_file[base:base + self.region_bytes]
                if chunk:
                    # Re-population moves real bytes; charge the same
                    # ingest bandwidth as migration.
                    yield self.env.timeout(len(chunk) / ingest_bps)
                    region.local_write(0, chunk)
            self.path.add_route(region.region_id, server.endpoint.name)
            self.table.remap(index, region.token, server.endpoint.name)
            self.table.resume(index)
        self.allocation.vms.remove(failed_vm)
        self.allocation.servers.remove(failed_server)
        self.allocation.regions_per_server.pop(server_name, None)
        self._attached.discard(server_name)
        done.succeed(True)


class _CacheIo(OneSidedIo):
    """A :class:`RedyCache` read or write inside one region of a
    one-sided cache, as one :class:`~repro.core.engine.OneSidedIo`
    record: the client's stages run in front of the data path's.

    :meth:`locate` translates the address and waits out the region's
    gate (§6.2), :meth:`hand_off` pays the app thread's hand-off charge
    and gives the op to the data path's stages, and :meth:`_settled`
    turns its result into the I/O's.  ``read`` / ``write`` return the
    record, which is the I/O's completion event
    (:meth:`RedyCache._start_io`; docs/determinism-rules.md, "Run an
    I/O as a callback record"): its first stage runs on a ``_call_soon``
    entry where a process's bootstrap entry ran, it hands its result to
    ``callback`` behind what is due, as :meth:`RedyCache._calling_back`
    does, and it finishes as that process would have exited
    (:meth:`_finished`).  ``read_io`` / ``write_io`` run a generator
    body instead.
    """

    __slots__ = ("cache", "addr", "index", "started_at", "callback")

    @property
    def name(self) -> str:
        """What a failure report calls the I/O: the name
        :meth:`RedyCache.read` gives a process (``redy-io-r@<addr>``)."""
        return f"redy-io-{'r' if self.op.is_read else 'w'}@{self.addr}"

    def locate(self, _event: Optional[Event]) -> None:
        """Translate the address, then wait out the region's gate."""
        self.started_at = self.env.now
        op = self.op
        table = self.cache.table
        try:
            self.index = index = table.locate(self.addr, op.size)[0]
        except AddressError as exc:
            self._value = CacheIoResult(ok=False, error=str(exc))
            self.hand_back(None)
            return
        gate = table.gate(index, op.is_read)
        if gate is None:
            self.hand_off(None)
        else:
            self.stage = _CacheIo.hand_off
            gate._add_callback(self._resume_handler)

    def hand_off(self, _event: Optional[Event]) -> None:
        """Hand the op to a client thread of the cache's data path (a
        reshape may have replaced it while the op waited at the gate),
        aimed at the region's current mapping: the app thread's
        charge."""
        cache = self.cache
        self.path = path = cache.path
        self.stage = (OneSidedIo.begin if path.one_sided
                      else _CacheIo.two_sided)
        env = self.env
        env.call_at(env.now + cache._hand_off(self.op, self.index),
                    self._resume_handler, None)

    def two_sided(self, _event: Optional[Event]) -> None:
        """The cache was reshaped onto a two-sided configuration: the op
        runs there in a process of its own, and its completion answers."""
        op = self.op
        self.path.submit(op)
        self.stage = _CacheIo.answered
        op.completion._add_callback(self._resume_handler)

    def answered(self, _event: Optional[Event]) -> None:
        self._settled(self.op.completion._value)

    def _settled(self, result: OpResult) -> None:
        """The I/O's result from its op's.  The record then hops behind
        what is due, where the process that ran the I/O resumed from its
        settle hop, and hands the result back."""
        self._value = self.cache._cache_result(self.op, result,
                                               self.started_at)
        if self.env.due_now():
            self.stage = _CacheIo.hand_back
            self.env._call_soon(self._resume_handler, None)
        else:
            self.hand_back(None)

    def hand_back(self, _event: Optional[Event]) -> None:
        """Finish, or call the callback behind what is due: the step a
        process's exit entry would have run in (``_calling_back``)."""
        if self.callback is None:
            self.stage = None
        elif self.env.due_now():
            self.stage = _CacheIo.call_back
            self.env._call_soon(self._resume_handler, None)
        else:
            self.callback(self._value)
            self.stage = None

    def call_back(self, _event: Optional[Event]) -> None:
        self.callback(self._value)
        self.stage = None

    def _finished(self) -> None:
        """Finish as the process that ran the I/O would have exited.  As
        in ``Process._exit_unobserved``: with no joiner, and no
        references but the step's own -- the resume handler an event's
        callback list or a timed call's entry holds, or the bootstrap
        entry's argument; the frames of ``_resume`` and this call;
        getrefcount's argument -- nothing can ever read the record, so
        dispatching it would change nothing."""
        if not self.callbacks and _refcount(self) == 4:
            self._ok = True
            self._triggered = True
            self._processed = True
            monitor = self.env.monitor
            if monitor is not None:
                monitor.on_trigger(self)
        else:
            self.succeed(self._value)
