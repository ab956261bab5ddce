"""Sharded scale-out front-end over N member RedyCaches.

A single Redy cache tops out at the throughput of its backing VMs; the
scale-out tier aggregates N independent member caches behind one
read/write API.  The :class:`ShardRouter` splits the global address
space into fixed-size *slots*, maps each slot onto member shards
through the consistent-hash ring (:mod:`repro.shard.ring`), and fans
reads/writes to the owning members.

Design points (mirroring the single-cache machinery one level up):

* **Identity addressing.**  Every member provisions the full global
  address space; a slot lives at the same address on whichever shard
  owns it.  Rebalancing is then a plain read-from-source /
  write-to-target stream and members stay vanilla RedyCaches.
* **Replication.**  With ``replication=R`` each slot is owned by the R
  first distinct shards clockwise of its ring point.  Writes go to all
  live owners (ack when at least one lands); reads try the primary and
  fail over down the owner list.  R>=2 is what makes a hard VM kill
  survivable with zero lost acknowledged writes.  The §6.2 replicated
  cache is this with R members on disjoint physical servers, all
  owning every slot (:meth:`ShardRouter.replicated`).
* **Backpressure.**  Per-shard in-flight accounting with a FIFO waiter
  queue bounds the queue depth any one member sees; callers queue at
  the router instead of overrunning a slow shard.
* **Hot keys.**  A sliding-window top-k detector
  (:mod:`repro.shard.hotkeys`) promotes hot slots to extra replicas and
  round-robins their reads, splitting zipfian hotspots across shards.

Everything is deterministic: routing is a pure function of the ring,
backpressure queues are FIFO, promotion decisions depend only on sim
time and the access stream.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.core.client import (CacheDeletedError, CacheIoResult, RedyCache,
                               RedyClient)
from repro.core.config import Slo
from repro.core.regions import AddressError
from repro.obs.metrics import registry_of
from repro.shard.hotkeys import HotKeyDetector, HotKeyPolicy
from repro.shard.rebalance import Rebalancer, RebalanceReport
from repro.shard.ring import HashRing, key_hash, plan_rebalance, range_contains
from repro.sim.kernel import Environment, Event

__all__ = ["ShardMember", "ShardRouter"]

#: Backpressure: ops one member may have in flight; later ones wait.
MAX_INFLIGHT_PER_SHARD = 32
#: Members of the §6.2 replicated cache, each on its own servers.
REPLICAS = 2


class ShardMember:
    """One member cache plus the router's per-shard accounting."""

    __slots__ = ("name", "cache", "inflight", "waiters", "alive",
                 "departing", "reads", "writes", "inflight_gauge")

    def __init__(self, name: str, cache: RedyCache, metrics=None):
        self.name = name
        self.cache = cache
        #: Router-issued requests currently outstanding on this shard.
        self.inflight = 0
        #: Processes waiting for an in-flight slot, in arrival order:
        #: a saturated shard grants its slots FIFO.
        self.waiters: Deque[Event] = deque()
        self.alive = True
        #: True while this member is being drained off the ring.
        self.departing = False
        self.reads = self.writes = self.inflight_gauge = None
        if metrics is not None:
            self.reads = metrics.counter("shard.reads").labels(shard=name)
            self.writes = metrics.counter("shard.writes").labels(shard=name)
            self.inflight_gauge = (
                metrics.gauge("shard.inflight").labels(shard=name))


class ShardRouter:
    """Read/write front-end fanning across N member caches."""

    def __init__(self, env: Environment,
                 members: Mapping[str, RedyCache],
                 *,
                 slot_bytes: int = 1 << 16,
                 replication: int = 1,
                 hotkeys: Optional[HotKeyPolicy] = None,
                 control_plane=None):
        if not members:
            raise ValueError("router needs at least one member cache")
        if slot_bytes < 1:
            raise ValueError("slot_bytes must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        capacities = {cache.capacity for cache in members.values()}
        if len(capacities) != 1:
            raise ValueError("member caches must share one capacity "
                             f"(got {sorted(capacities)})")

        self.env = env
        self.capacity = capacities.pop()
        self.slot_bytes = slot_bytes
        self.n_slots = -(-self.capacity // slot_bytes)
        self.replication = replication
        self.hot_policy = hotkeys
        self.metrics = registry_of(env)

        self.ring = HashRing(sorted(members))
        #: Precomputed slot -> ring point (the hot path never hashes).
        self._slot_points = [key_hash(slot) for slot in range(self.n_slots)]

        self._members: Dict[str, ShardMember] = {}
        for name in sorted(members):
            member = ShardMember(name, members[name], self.metrics)
            self._members[name] = member
            self._watch_member_vms(member)
        #: Members drained off the ring (kept for post-mortem counters).
        self.retired: Dict[str, ShardMember] = {}

        #: Routing overrides installed per completed move while a
        #: rebalance is in flight: (lo, hi, new_owners).  Changed only by
        #: :meth:`_install_override` and :meth:`_swap_ring`.
        self._overrides: List[Tuple[int, int, Tuple[str, ...]]] = []
        #: Per-slot route table: slot -> owner list, filled on a slot's
        #: first lookup (:meth:`_owners`) and reset wholesale where
        #: routing changes: :meth:`_swap_ring` and :meth:`_install_override`.
        self._routes: List[Optional[List[str]]] = [None] * self.n_slots
        #: Write gates for ranges currently being streamed.
        self._gates: List[Tuple[int, int, Event]] = []
        #: Write gates for individual slots (hot-key promotion copies).
        self._slot_gates: Dict[int, Event] = {}

        self._detector = (HotKeyDetector(hotkeys)
                          if hotkeys is not None else None)
        #: Hot slot -> extra replica shard names (beyond the owners).
        self._hot: Dict[int, Tuple[str, ...]] = {}
        self._rr: Dict[int, int] = {}
        self._promoting: set = set()

        self.rebalancer = Rebalancer(self)
        #: Completed rebalances, in order (the scale-out bench reads
        #: durations and byte counts off these).
        self.reports: List[RebalanceReport] = []
        #: Called (in registration order) with each completed
        #: RebalanceReport, after the ring has flipped.  Consumers that
        #: layer durability on the router (the tenant tier) use this to
        #: learn about lost slots the data path cannot observe: with
        #: replication=1 an emergency departure can swap the ring with
        #: nothing to stream, so reads over lost ranges silently
        #: succeed against stale survivor bytes.
        self.on_rebalance: List[Callable[[RebalanceReport], None]] = []
        #: Optional RDMA connection control plane
        #: (:class:`repro.cplane.ControlPlane`).  Binding it here makes
        #: membership changes reclaim pooled QPs to departed members,
        #: so a connection storm landing mid-rebalance cannot strand
        #: sessions against a corpse.
        self.control_plane = control_plane
        if control_plane is not None:
            control_plane.bind_router(self)
        #: Tail of the serialized membership-change chain.
        self._membership_tail: Optional[Event] = None

        m = self.metrics
        self._c_reads = m.counter("router.reads") if m else None
        self._c_writes = m.counter("router.writes") if m else None
        self._c_failovers = m.counter("router.failovers") if m else None
        self._c_partial = m.counter("router.partial_writes") if m else None
        self._h_read_lat = m.histogram("router.read_latency") if m else None
        self._h_write_lat = m.histogram("router.write_latency") if m else None
        self._c_replica_reads = (m.counter("hotkeys.replica_reads")
                                 if m else None)
        self._c_promotions = m.counter("hotkeys.promotions") if m else None
        self._c_demotions = m.counter("hotkeys.demotions") if m else None
        #: Per-tenant accounting families (children created on demand).
        self._c_tenant_reads = m.counter("router.tenant_reads") if m else None
        self._c_tenant_writes = (m.counter("router.tenant_writes")
                                 if m else None)

    @classmethod
    def replicated(cls, client: RedyClient, capacity: int, slo: Slo, *,
                   region_bytes: int = 1 << 30) -> "ShardRouter":
        """The §6.2 replicated cache: :data:`REPLICAS` members on
        disjoint physical servers at ``replication=REPLICAS``, so every
        slot is written to all of them and read from its primary with
        failover."""
        members: Dict[str, RedyCache] = {}
        used: set = set()
        for i in range(REPLICAS):
            cache = client.create(capacity, slo, region_bytes=region_bytes,
                                  exclude_servers=frozenset(used))
            members[f"r{i}"] = cache
            used.update(vm.server.server_id for vm in cache.allocation.vms)
        return cls(client.env, members, replication=REPLICAS)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def members(self) -> List[str]:
        """Live member names, sorted."""
        return sorted(self._members)

    def member(self, name: str) -> ShardMember:
        return self._members[name]

    def hot_slots(self) -> Dict[int, Tuple[str, ...]]:
        """Currently promoted slots and their extra replicas."""
        return dict(self._hot)

    def owners_of_slot(self, slot: int) -> List[str]:
        return list(self._owners(slot))

    # ------------------------------------------------------------------
    # Public I/O API (mirrors RedyCache.read/write)
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int,
             callback: Optional[Callable[[CacheIoResult], None]] = None,
             *, tenant: Optional[str] = None) -> Event:
        """Asynchronous read; the returned process fires with a
        :class:`CacheIoResult`."""
        return self._start(self.read_io(addr, size, tenant=tenant),
                           callback, f"router-read:{addr}")

    def write(self, addr: int, data: bytes,
              callback: Optional[Callable[[CacheIoResult], None]] = None,
              *, tenant: Optional[str] = None) -> Event:
        """Asynchronous write of ``data`` at ``addr``."""
        return self._start(self.write_io(addr, data, tenant=tenant),
                           callback, f"router-write:{addr}")

    def read_io(self, addr: int, size: int, *,
                tenant: Optional[str] = None):
        """The generator body of :meth:`read`, for a caller that already
        runs in a process (``yield from``); returns the result."""
        return self._io(True, addr, size, None, tenant)

    def write_io(self, addr: int, data: bytes, *,
                 tenant: Optional[str] = None):
        """The generator body of :meth:`write` (see :meth:`read_io`)."""
        return self._io(False, addr, len(data), data, tenant)

    def _start(self, body, callback: Optional[Callable], name: str) -> Event:
        proc = self.env.process(body, name=name)
        if callback is not None:
            proc._add_callback(lambda event: callback(event.value))
        return proc

    def load(self, addr: int, data: bytes) -> None:
        """Zero-time bulk load onto every owner (and hot replica)."""
        end = addr + len(data)
        if addr < 0 or end > self.capacity:
            raise AddressError(f"load [{addr}, {end}) outside capacity "
                               f"{self.capacity}")
        for slot, frag_addr, length, offset in self._fragments(addr,
                                                               len(data)):
            payload = data[offset:offset + length]
            for name in self._write_targets(slot):
                member = self._members.get(name)
                if member is not None and member.alive:
                    member.cache.load(frag_addr, payload)

    # ------------------------------------------------------------------
    # Fragmentation and routing
    # ------------------------------------------------------------------

    def _fragments(self, addr: int,
                   size: int) -> List[Tuple[int, int, int, int]]:
        """Split [addr, addr+size) into per-slot (slot, addr, len, off)."""
        if size < 0:
            raise AddressError(f"negative size {size}")
        if addr < 0 or addr + size > self.capacity:
            raise AddressError(f"I/O [{addr}, {addr + size}) outside "
                               f"capacity {self.capacity}")
        fragments: List[Tuple[int, int, int, int]] = []
        offset = 0
        while offset < size or (size == 0 and not fragments):
            at = addr + offset
            slot = at // self.slot_bytes
            slot_end = min((slot + 1) * self.slot_bytes, self.capacity)
            length = min(size - offset, slot_end - at)
            fragments.append((slot, at, length, offset))
            offset += max(length, 1)
            if size == 0:
                break
        return fragments

    def _route_owners(self, point: int) -> List[str]:
        """Owner list for a ring point, override-aware.

        While a rebalance is in flight the old ring keeps routing;
        completed moves install overrides that win here until the plan
        finishes and the new ring is swapped in wholesale.
        """
        for lo, hi, owners in self._overrides:
            if range_contains(lo, hi, point):
                return list(owners)
        return self.ring.owners(point, self.replication)

    def _owners(self, slot: int) -> List[str]:
        """``slot``'s owner list from the route table (shared: callers
        must not mutate it)."""
        owners = self._routes[slot]
        if owners is None:
            owners = self._routes[slot] = self._route_owners(
                self._slot_points[slot])
        return owners

    def _install_override(self, lo: int, hi: int,
                          owners: Tuple[str, ...]) -> None:
        """Route the arc ``(lo, hi]`` to ``owners`` (a rebalance move
        has landed) until the ring swaps."""
        self._overrides.append((lo, hi, owners))
        self._routes = [None] * self.n_slots

    def _swap_ring(self, ring: HashRing) -> None:
        """Route through ``ring`` from now on, dropping every override."""
        self.ring = ring
        self._overrides.clear()
        self._routes = [None] * self.n_slots

    def _read_pool(self, slot: int) -> List[str]:
        """Candidate shards for a read, hottest-aware and rotated."""
        owners = self._owners(slot)
        extras = self._hot.get(slot)
        if extras is None:
            return owners
        pool = owners + [name for name in extras if name not in owners]
        if len(pool) > 1:
            start = self._rr[slot] = (self._rr.get(slot, -1) + 1) % len(pool)
            pool = pool[start:] + pool[:start]
            if pool[0] != owners[0] and self._c_replica_reads:
                self._c_replica_reads.inc()
        return pool

    def _write_targets(self, slot: int) -> List[str]:
        """All shards a write to ``slot`` must reach (owners + hot)."""
        owners = self._owners(slot)
        extras = self._hot.get(slot)
        if not extras:
            return owners
        return owners + [name for name in extras if name not in owners]

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------

    def _try_take(self, member: ShardMember) -> bool:
        """Take a free in-flight slot on ``member``; False when it is
        saturated.  A caller that gets one builds no generator."""
        if member.inflight >= MAX_INFLIGHT_PER_SHARD:
            return False
        member.inflight += 1
        if member.inflight_gauge:
            member.inflight_gauge.set(member.inflight)
        return True

    def _acquire(self, member: ShardMember):
        """Queue until ``member`` has a free slot, then take it."""
        while not self._try_take(member):
            waiter = self.env.event()
            member.waiters.append(waiter)
            yield waiter

    def _release(self, member: ShardMember) -> None:
        member.inflight -= 1
        if member.inflight_gauge:
            member.inflight_gauge.set(member.inflight)
        if member.waiters and member.inflight < MAX_INFLIGHT_PER_SHARD:
            member.waiters.popleft().succeed()

    def _count(self, member: ShardMember, is_read: bool) -> None:
        counter = member.reads if is_read else member.writes
        if counter:
            counter.inc()

    def _member_io(self, member: ShardMember, is_read: bool, addr: int,
                   size_or_data, tenant: Optional[str] = None):
        """Run one member I/O in the caller's frame; returns its result.

        The in-flight slot is held under ``finally``.  Where a member
        process would have had a bootstrap entry and an exit entry, a
        zero hop queues behind whatever is already due, so dispatch
        order is the process's (docs/determinism-rules.md, "Run a child
        in its caller's frame").
        """
        if not self._try_take(member):
            yield from self._acquire(member)
        try:
            cache = member.cache
            body = (cache.read_io(addr, size_or_data, tenant=tenant)
                    if is_read else
                    cache.write_io(addr, size_or_data, tenant=tenant))
            self._count(member, is_read)
            env = self.env
            if env.due_now():
                yield env.timeout(0)  # where the bootstrap entry ran
            result = yield from body
            if env.due_now():
                yield env.timeout(0)  # where the exit entry ran
        finally:
            self._release(member)
        return result

    def _issue(self, member: ShardMember, addr: int, data: bytes,
               tenant: Optional[str] = None):
        """Acquire an in-flight slot and start one member write as an
        event of its own: for a multi-target write or a hot-slot copy
        (the rest run in :meth:`_member_io`).

        Returns the member cache's completion event; the slot is
        released by callback when it completes.  ``tenant`` rides down
        to the engine for per-tenant accounting.
        """
        if not self._try_take(member):
            yield from self._acquire(member)
        try:
            event = member.cache.write(addr, data, tenant=tenant)
        except CacheDeletedError:
            self._release(member)
            raise
        self._count(member, False)
        event._add_callback(lambda _e, m=member: self._release(m))
        return event

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _io(self, is_read: bool, addr: int, size: int,
            data: Optional[bytes], tenant: Optional[str] = None):
        started = self.env.now
        slot_bytes = self.slot_bytes
        slot = addr // slot_bytes
        # An I/O inside one slot (every small op, and size 0) runs its
        # one fragment directly; anything else -- several slots, out of
        # range -- is split (and checked) by _fragments.
        single = (size >= 0 and addr >= 0
                  and addr + size <= min((slot + 1) * slot_bytes,
                                         self.capacity))
        if not single:
            try:
                fragments = self._fragments(addr, size)
            except AddressError as exc:
                return CacheIoResult(ok=False, error=str(exc))
        if tenant is not None:
            family = self._c_tenant_reads if is_read else self._c_tenant_writes
            if family is not None:
                family.labels(tenant=tenant).inc()
        if single:
            # Slicing copies a mutable payload, as the split path does.
            result = yield from (
                self._read_fragment(slot, addr, size, tenant)
                if is_read else
                self._write_fragment(slot, addr, data[0:size], tenant))
        else:
            # One process per fragment, so the fragments run in parallel.
            kind = "read" if is_read else "write"
            results = yield self.env.all_of([
                self.env.process(
                    self._read_fragment(slot, frag_addr, length, tenant)
                    if is_read else
                    self._write_fragment(slot, frag_addr,
                                         data[offset:offset + length],
                                         tenant),
                    name=f"router-{kind}-frag:{slot}")
                for slot, frag_addr, length, offset in fragments])
            result = next((r for r in results if not r.ok), results[0])
            if result.ok and is_read:
                result = CacheIoResult(
                    ok=True, data=b"".join(r.data for r in results))
        latency = self.env.now - started
        if not result.ok:
            return CacheIoResult(ok=False, error=result.error,
                                 latency=latency)
        if is_read:
            if self._c_reads:
                self._c_reads.inc()
            if self._h_read_lat:
                self._h_read_lat.observe(latency)
            return CacheIoResult(ok=True, data=result.data, latency=latency)
        if self._c_writes:
            self._c_writes.inc()
        if self._h_write_lat:
            self._h_write_lat.observe(latency)
        return CacheIoResult(ok=True, latency=latency)

    def _read_fragment(self, slot: int, addr: int, length: int,
                       tenant: Optional[str] = None):
        self._record_access(slot)
        pool = self._read_pool(slot)
        result = CacheIoResult(ok=False, error="no live shard for range")
        for i, name in enumerate(pool):
            member = self._members.get(name)
            if member is None or not member.alive:
                continue
            # Anything not served by the pool's first choice -- dead
            # primary skipped or a failed attempt retried -- is a
            # failover.
            if i and self._c_failovers:
                self._c_failovers.inc()
            result = yield from self._member_io(member, True, addr, length,
                                                tenant)
            if result.ok:
                break
        return result

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _write_barrier(self, slot: int):
        """Wait while the slot's range (or the slot itself) is gated."""
        point = self._slot_points[slot]
        while True:
            gate = self._slot_gates.get(slot)
            if gate is None:
                gate = next((g for lo, hi, g in self._gates
                             if range_contains(lo, hi, point)), None)
            if gate is None:
                return
            yield gate

    def _write_fragment(self, slot: int, addr: int, payload: bytes,
                        tenant: Optional[str] = None):
        yield from self._write_barrier(slot)
        # Sorted acquire order: concurrent multi-target writes never
        # hold-and-wait on each other's shards in opposite orders.
        targets = [member for name in sorted(self._write_targets(slot))
                   if (member := self._members.get(name)) is not None
                   and member.alive]
        if not targets:
            return CacheIoResult(ok=False, error="no live shard for range")
        if len(targets) == 1:
            results = [(yield from self._member_io(targets[0], False, addr,
                                                   payload, tenant))]
            if self.env.due_now():
                yield self.env.timeout(0)  # where the all_of entry ran
        else:
            issued: List[Event] = []
            for member in targets:
                # A target can die while an earlier one's slot is awaited.
                if member.alive:
                    issued.append((yield from self._issue(
                        member, addr, payload, tenant)))
            results = yield self.env.all_of(issued)
        oks = [r for r in results if r.ok]
        if len(oks) < len(results) and self._c_partial:
            self._c_partial.inc(len(results) - len(oks))
        return CacheIoResult(ok=True) if oks else results[0]

    # ------------------------------------------------------------------
    # Hot keys
    # ------------------------------------------------------------------

    def _record_access(self, slot: int) -> None:
        if self._detector is None:
            return
        if self._detector.record(slot):
            self._refresh_hot()

    def _refresh_hot(self) -> None:
        hot = self._detector.hot_slots()
        hotset = set(hot)
        for slot in [s for s in self._hot if s not in hotset]:
            del self._hot[slot]
            self._rr.pop(slot, None)
            if self._c_demotions:
                self._c_demotions.inc()
        for slot in hot:
            if slot not in self._hot and slot not in self._promoting:
                self.env.process(self._promote_slot(slot),
                                 name=f"hot-promote:{slot}")

    def _promote_slot(self, slot: int):
        """Copy a hot slot to extra replicas, then enable round-robin."""
        self._promoting.add(slot)
        gated = False
        try:
            point = self._slot_points[slot]
            owners = self._owners(slot)
            need = max(0, self.hot_policy.replicas - len(owners))
            if need == 0:
                # Owners alone satisfy R: round-robin across them.
                self._hot[slot] = ()
                if self._c_promotions:
                    self._c_promotions.inc()
                return
            ordered = self.ring.owners(point, len(self.ring))
            extras = [name for name in ordered
                      if name not in owners
                      and (m := self._members.get(name)) is not None
                      and m.alive][:need]
            if not extras:
                if len(owners) > 1:
                    self._hot[slot] = ()
                    if self._c_promotions:
                        self._c_promotions.inc()
                return
            source = next((self._members[n] for n in owners
                           if n in self._members
                           and self._members[n].alive), None)
            if source is None:
                return
            # Gate writes to just this slot while the copy streams, so
            # the replicas come up consistent.
            self._slot_gates[slot] = self.env.event()
            gated = True
            addr = slot * self.slot_bytes
            size = min(self.slot_bytes, self.capacity - addr)
            result = yield source.cache.read(addr, size)
            if not result.ok:
                return
            writes = []
            for name in sorted(extras):
                event = yield from self._issue(self._members[name], addr,
                                               result.data)
                writes.append(event)
            results = yield self.env.all_of(writes)
            landed = tuple(name for name, r in zip(sorted(extras), results)
                           if r.ok)
            if landed:
                self._hot[slot] = landed
                if self._c_promotions:
                    self._c_promotions.inc()
        finally:
            self._promoting.discard(slot)
            if gated:
                gate = self._slot_gates.pop(slot, None)
                if gate is not None:
                    gate.succeed()

    def _drop_hot_member(self, name: str) -> None:
        """Forget a departed shard's hot replicas."""
        for slot, extras in list(self._hot.items()):
            if name in extras:
                remaining = tuple(n for n in extras if n != name)
                if remaining or len(self._owners(slot)) > 1:
                    self._hot[slot] = remaining
                else:
                    del self._hot[slot]
                    self._rr.pop(slot, None)

    # ------------------------------------------------------------------
    # Membership changes (serialized)
    # ------------------------------------------------------------------

    def join(self, name: str, cache: RedyCache) -> Event:
        """Add a member; fires with the RebalanceReport when settled."""
        if name in self._members or name in self.ring:
            raise ValueError(f"shard {name!r} already a member")
        if cache.capacity != self.capacity:
            raise ValueError("joining cache capacity "
                             f"{cache.capacity} != {self.capacity}")
        member = ShardMember(name, cache, self.metrics)
        return self._serialized(lambda: self._join_op(member),
                                f"shard-join:{name}")

    def depart(self, name: str, *, emergency: bool = False,
               reason: str = "manual") -> Event:
        """Drain a member off the ring; fires with the RebalanceReport.

        ``emergency=True`` means the member's data is already gone (hard
        VM kill): it is never used as a stream source and survivor
        replicas supply the moved ranges.
        """
        if name not in self._members:
            raise ValueError(f"shard {name!r} is not a member")
        if len(self._members) == 1:
            raise ValueError("cannot depart the last member")
        member = self._members[name]
        member.departing = True
        if emergency:
            member.alive = False
        if self.metrics:
            self.metrics.counter("router.departures").labels(
                reason=reason).inc()
        return self._serialized(
            lambda: self._depart_op(member, emergency),
            f"shard-depart:{name}")

    def settled(self):
        """Wait until every queued membership change has reported.

        Use as ``yield from router.settled()`` inside a sim process.
        Returns at once on an idle router; otherwise it resumes after
        the tail of the chain -- including changes queued while it
        waits (a kill landing mid-rebalance) -- has processed its
        :class:`RebalanceReport`.
        """
        while (self._membership_tail is not None
               and not self._membership_tail.processed):
            yield self._membership_tail

    def _serialized(self, op: Callable, name: str) -> Event:
        """Chain a membership operation behind any in-flight one."""
        done = self.env.event()
        prev, self._membership_tail = self._membership_tail, done

        def runner():
            if prev is not None:
                yield prev  # processed: resumes next step (not a Ready)
            report = yield from op()
            done.succeed(report)

        self.env.process(runner(), name=name)
        return done

    def _join_op(self, member: ShardMember):
        self._members[member.name] = member
        self._watch_member_vms(member)
        old = self.ring.copy()
        new = self.ring.copy()
        new.add(member.name)
        plan = plan_rebalance(old, new, self.replication)
        report = yield from self.rebalancer.execute(plan)
        self._swap_ring(new)
        self.reports.append(report)
        for hook in self.on_rebalance:
            hook(report)
        return report

    def _depart_op(self, member: ShardMember, emergency: bool):
        new = self.ring.copy()
        new.remove(member.name)
        plan = plan_rebalance(self.ring, new, self.replication)
        report = yield from self.rebalancer.execute(plan)
        self._swap_ring(new)
        self._members.pop(member.name, None)
        self.retired[member.name] = member
        self._drop_hot_member(member.name)
        member.alive = False
        # Unblock anything still queued on the dead member.
        while member.waiters:
            member.waiters.popleft().succeed()
        self.reports.append(report)
        for hook in self.on_rebalance:
            hook(report)
        return report

    # ------------------------------------------------------------------
    # Fault wiring
    # ------------------------------------------------------------------

    def _watch_member_vms(self, member: ShardMember) -> None:
        """Subscribe to the member's VM lifecycle: a hard kill triggers
        an emergency ring departure, a reclaim notice a planned drain
        (the member's own internal migration keeps it readable through
        the notice window, so it doubles as the stream source)."""
        allocation = getattr(member.cache, "allocation", None)
        if allocation is None:
            return
        for vm in allocation.vms:
            vm.on_terminated.append(
                lambda _vm, m=member: self._on_member_vm_dead(m))
            vm.on_reclaim_notice.append(
                lambda _notice, m=member: self._on_member_reclaimed(m))

    def _on_member_vm_dead(self, member: ShardMember) -> None:
        if member.name not in self._members:
            return
        if member.departing or not any(
                m.alive and not m.departing
                for m in self._members.values() if m is not member):
            # Died mid-drain (stop using it as a stream source), or no
            # survivor is left to take its ranges: I/O on them errors.
            member.alive = False
            return
        self.depart(member.name, emergency=True, reason="vm-kill")

    def _on_member_reclaimed(self, member: ShardMember) -> None:
        if member.name not in self._members or member.departing:
            return
        self.depart(member.name, emergency=False, reason="vm-eviction")
