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
  survivable with zero lost acknowledged writes.
* **Backpressure.**  Per-shard in-flight accounting with a FIFO waiter
  queue bounds the queue depth any one member sees; callers queue at
  the router instead of overrunning a slow shard.
* **Hedged reads.**  Optionally, a read still unanswered after
  ``hedge_after_s`` issues a duplicate to the next replica (only if
  that replica has spare capacity) and takes the first answer --
  the classic tail-at-scale trick.
* **Hot keys.**  A sliding-window top-k detector
  (:mod:`repro.shard.hotkeys`) promotes hot slots to extra replicas and
  round-robins their reads, splitting zipfian hotspots across shards.

Everything is deterministic: routing is a pure function of the ring,
backpressure queues are FIFO, hedging and promotion decisions depend
only on sim time and the access stream.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.client import CacheIoResult, RedyCache
from repro.core.migration import MigrationPolicy
from repro.core.regions import AddressError
from repro.obs.metrics import registry_of
from repro.shard.hotkeys import HotKeyDetector, HotKeyPolicy
from repro.shard.rebalance import Rebalancer, RebalanceReport
from repro.shard.ring import HashRing, key_hash, plan_rebalance, range_contains
from repro.sim.kernel import Environment, Event

__all__ = ["ShardMember", "ShardRouter"]


class ShardMember:
    """One member cache plus the router's per-shard accounting."""

    __slots__ = ("name", "cache", "inflight", "waiters", "alive",
                 "departing", "reads", "writes", "inflight_gauge")

    def __init__(self, name: str, cache: RedyCache, metrics=None):
        self.name = name
        self.cache = cache
        #: Router-issued requests currently outstanding on this shard.
        self.inflight = 0
        #: Priority queue of processes waiting for an in-flight slot:
        #: ``(-priority, seq, event)`` heap entries, so a saturated shard
        #: grants slots highest-priority first and FIFO within a
        #: priority (the serving tier maps tenant weight to priority;
        #: everything else issues at the default 0).
        self.waiters: List[Tuple[int, int, Event]] = []
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
                 vnodes_per_shard: int = 64,
                 replication: int = 1,
                 max_inflight_per_shard: int = 32,
                 hedge_after_s: Optional[float] = None,
                 hotkeys: Optional[HotKeyPolicy] = None,
                 rebalance_policy: Optional[MigrationPolicy] = None,
                 control_plane=None):
        if not members:
            raise ValueError("router needs at least one member cache")
        if slot_bytes < 1:
            raise ValueError("slot_bytes must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if max_inflight_per_shard < 1:
            raise ValueError("max_inflight_per_shard must be >= 1")
        capacities = {cache.capacity for cache in members.values()}
        if len(capacities) != 1:
            raise ValueError("member caches must share one capacity "
                             f"(got {sorted(capacities)})")

        self.env = env
        self.capacity = capacities.pop()
        self.slot_bytes = slot_bytes
        self.n_slots = -(-self.capacity // slot_bytes)
        self.replication = replication
        self.max_inflight_per_shard = max_inflight_per_shard
        self.hedge_after_s = hedge_after_s
        self.hot_policy = hotkeys
        self.metrics = registry_of(env)

        self.ring = HashRing(sorted(members),
                             vnodes_per_shard=vnodes_per_shard)
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
        #: rebalance is in flight: (lo, hi, new_owners).
        self._overrides: List[Tuple[int, int, Tuple[str, ...]]] = []
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

        self.rebalancer = Rebalancer(self, policy=rebalance_policy)
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

        #: Tie-break sequence for the per-shard priority waiter queues.
        self._waiter_seq = 0

        m = self.metrics
        self._c_reads = m.counter("router.reads") if m else None
        self._c_writes = m.counter("router.writes") if m else None
        self._c_failovers = m.counter("router.failovers") if m else None
        self._c_hedges = m.counter("router.hedges") if m else None
        self._c_hedge_wins = m.counter("router.hedge_wins") if m else None
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

    def placement(self) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """The effective owner ranges (ring + live overrides)."""
        return self.ring.ranges(self.replication)

    def slot_of(self, addr: int) -> int:
        return addr // self.slot_bytes

    def owners_of_slot(self, slot: int) -> List[str]:
        return self._route_owners(self._slot_points[slot])

    # ------------------------------------------------------------------
    # Public I/O API (mirrors RedyCache.read/write)
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int,
             callback: Optional[Callable[[CacheIoResult], None]] = None,
             *, tenant: Optional[str] = None, priority: int = 0) -> Event:
        done = self.env.event()
        if callback is not None:
            done._add_callback(lambda event: callback(event.value))
        self.env.process(self._io(True, addr, size, None, done,
                                  tenant=tenant, priority=priority),
                         name=f"router-read:{addr}")
        return done

    def write(self, addr: int, data: bytes,
              callback: Optional[Callable[[CacheIoResult], None]] = None,
              *, tenant: Optional[str] = None, priority: int = 0) -> Event:
        done = self.env.event()
        if callback is not None:
            done._add_callback(lambda event: callback(event.value))
        self.env.process(self._io(False, addr, len(data), data, done,
                                  tenant=tenant, priority=priority),
                         name=f"router-write:{addr}")
        return done

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

    def _read_pool(self, slot: int) -> List[str]:
        """Candidate shards for a read, hottest-aware and rotated."""
        owners = self._route_owners(self._slot_points[slot])
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
        owners = self._route_owners(self._slot_points[slot])
        extras = self._hot.get(slot, ())
        return owners + [name for name in extras if name not in owners]

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------

    def _acquire(self, member: ShardMember, priority: int = 0):
        while member.inflight >= self.max_inflight_per_shard:
            waiter = self.env.event()
            self._waiter_seq += 1
            heapq.heappush(member.waiters,
                           (-priority, self._waiter_seq, waiter))
            yield waiter
        member.inflight += 1
        if member.inflight_gauge:
            member.inflight_gauge.set(member.inflight)

    def _release(self, member: ShardMember) -> None:
        member.inflight -= 1
        if member.inflight_gauge:
            member.inflight_gauge.set(member.inflight)
        if member.waiters and member.inflight < self.max_inflight_per_shard:
            heapq.heappop(member.waiters)[2].succeed()

    def _issue(self, member: ShardMember, is_read: bool, addr: int,
               size_or_data, tenant: Optional[str] = None,
               priority: int = 0):
        """Acquire an in-flight slot and start one member I/O.

        Returns the member cache's completion event; the slot is
        released by callback, so even an abandoned hedge loser frees
        its slot when it eventually completes.  ``priority`` orders the
        backpressure queue (weighted issue order for the serving tier);
        ``tenant`` rides down to the engine for per-tenant accounting.
        """
        yield from self._acquire(member, priority)  # repro-lint: disable=L005 -- slot is released by the completion callback below, so abandoned hedge losers still free it
        if is_read:
            event = member.cache.read(addr, size_or_data, tenant=tenant)
            if member.reads:
                member.reads.inc()
        else:
            event = member.cache.write(addr, size_or_data, tenant=tenant)
            if member.writes:
                member.writes.inc()
        event._add_callback(lambda _e, m=member: self._release(m))
        return event

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _io(self, is_read: bool, addr: int, size: int,
            data: Optional[bytes], done: Event,
            tenant: Optional[str] = None, priority: int = 0):
        started = self.env.now
        try:
            fragments = self._fragments(addr, size)
        except AddressError as exc:
            done.succeed(CacheIoResult(ok=False, error=str(exc)))
            return
        if False:
            yield  # pragma: no cover -- makes this a generator
        if tenant is not None:
            family = self._c_tenant_reads if is_read else self._c_tenant_writes
            if family is not None:
                family.labels(tenant=tenant).inc()
        parts: List[Event] = []
        for slot, frag_addr, length, offset in fragments:
            part = self.env.event()
            parts.append(part)
            if is_read:
                self.env.process(  # repro-lint: disable=L006 -- fragment completion is joined via `part` in all_of below
                    self._read_fragment(slot, frag_addr, length, part,
                                        tenant, priority),
                    name=f"router-read-frag:{slot}")
            else:
                payload = data[offset:offset + length]
                self.env.process(  # repro-lint: disable=L006 -- fragment completion is joined via `part` in all_of below
                    self._write_fragment(slot, frag_addr, payload, part,
                                         tenant, priority),
                    name=f"router-write-frag:{slot}")
        results = yield self.env.all_of(parts)
        latency = self.env.now - started
        failed = [r for r in results if not r.ok]
        if failed:
            done.succeed(CacheIoResult(ok=False, error=failed[0].error,
                                       latency=latency))
            return
        if is_read:
            if self._c_reads:
                self._c_reads.inc()
            if self._h_read_lat:
                self._h_read_lat.observe(latency)
            payload = (results[0].data if len(results) == 1
                       else b"".join(r.data for r in results))
            done.succeed(CacheIoResult(ok=True, data=payload,
                                       latency=latency))
        else:
            if self._c_writes:
                self._c_writes.inc()
            if self._h_write_lat:
                self._h_write_lat.observe(latency)
            done.succeed(CacheIoResult(ok=True, latency=latency))

    def _read_fragment(self, slot: int, addr: int, length: int,
                       done: Event, tenant: Optional[str] = None,
                       priority: int = 0):
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
            result = yield from self._attempt_read(member, addr, length,
                                                   pool[i + 1:],
                                                   tenant, priority)
            if result.ok:
                break
        done.succeed(result)

    def _attempt_read(self, member: ShardMember, addr: int, length: int,
                      alternates: List[str], tenant: Optional[str] = None,
                      priority: int = 0):
        primary = yield from self._issue(member, True, addr, length,
                                         tenant, priority)
        if self.hedge_after_s is None:
            result = yield primary
            return result
        index, value = yield self.env.any_of(
            [primary, self.env.timeout(self.hedge_after_s)])
        if index == 0:
            return value
        # Primary is slow: hedge to the first alternate with headroom,
        # or back to the same shard (a duplicate behind a different
        # queue slot) -- never block waiting for hedge capacity.
        hedge_member = None
        for name in alternates:
            alt = self._members.get(name)
            if (alt is not None and alt.alive
                    and alt.inflight < self.max_inflight_per_shard):
                hedge_member = alt
                break
        if (hedge_member is None and member.alive
                and member.inflight < self.max_inflight_per_shard):
            hedge_member = member
        if hedge_member is None:
            result = yield primary
            return result
        if self._c_hedges:
            self._c_hedges.inc()
        hedge = yield from self._issue(hedge_member, True, addr, length,
                                       tenant, priority)
        index, value = yield self.env.any_of([primary, hedge])
        if value.ok:
            if index == 1 and self._c_hedge_wins:
                self._c_hedge_wins.inc()
            return value
        # First finisher failed; wait out the other copy.
        other = hedge if index == 0 else primary
        result = yield other
        if result.ok and other is hedge and self._c_hedge_wins:
            self._c_hedge_wins.inc()
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
                        done: Event, tenant: Optional[str] = None,
                        priority: int = 0):
        yield from self._write_barrier(slot)
        issued: List[Event] = []
        # Sorted acquire order: concurrent multi-target writes never
        # hold-and-wait on each other's shards in opposite orders.
        for name in sorted(self._write_targets(slot)):
            member = self._members.get(name)
            if member is None or not member.alive:
                continue
            event = yield from self._issue(member, False, addr, payload,
                                           tenant, priority)
            issued.append(event)
        if not issued:
            done.succeed(CacheIoResult(ok=False,
                                       error="no live shard for range"))
            return
        results = yield self.env.all_of(issued)
        oks = [r for r in results if r.ok]
        if len(oks) < len(results) and self._c_partial:
            self._c_partial.inc(len(results) - len(oks))
        if oks:
            done.succeed(CacheIoResult(ok=True))
        else:
            done.succeed(results[0])

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
            owners = self._route_owners(point)
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
                event = yield from self._issue(self._members[name], False,
                                               addr, result.data)
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
                if remaining or len(self._route_owners(
                        self._slot_points[slot])) > 1:
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
                yield prev  # already-processed events resume next step
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
        self.ring = new
        self._overrides.clear()
        self.reports.append(report)
        for hook in self.on_rebalance:
            hook(report)
        return report

    def _depart_op(self, member: ShardMember, emergency: bool):
        new = self.ring.copy()
        new.remove(member.name)
        plan = plan_rebalance(self.ring, new, self.replication)
        report = yield from self.rebalancer.execute(plan)
        self.ring = new
        self._overrides.clear()
        self._members.pop(member.name, None)
        self.retired[member.name] = member
        self._drop_hot_member(member.name)
        member.alive = False
        # Unblock anything still queued on the dead member.
        while member.waiters:
            heapq.heappop(member.waiters)[2].succeed()
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
        if member.departing:
            # Died mid-drain: stop using it as a stream source.
            member.alive = False
            return
        self.depart(member.name, emergency=True, reason="vm-kill")

    def _on_member_reclaimed(self, member: ShardMember) -> None:
        if member.name not in self._members or member.departing:
            return
        self.depart(member.name, emergency=False, reason="vm-eviction")
