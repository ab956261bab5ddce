"""Live rebalancer: executes ring plans by streaming key ranges.

A :class:`~repro.shard.ring.RebalancePlan` says *what* must move; this
module moves it while the router keeps serving.  The mechanics reuse
the single-cache migration machinery's shape (:mod:`repro.core.migration`):

* one move (a contiguous hash arc) streams at a time, its writes gated
  at the router -- reads stay unpaused and flow to the old owners until
  the move's routing override flips, exactly the §7.4 "pause only the
  moving region" optimization applied per hash range;
* slot copies pipeline up to ``MIGRATION_QUEUE_DEPTH`` deep, paced by the
  receiver's ingest bandwidth (``INGEST_BANDWIDTH_GBPS``), the
  same end-to-end bottleneck the migration model calibrates;
* sources are tried primary-first; with ``replication>=2`` a hard-killed
  shard's ranges stream from the surviving replica, which is what makes
  a VM kill lose zero acknowledged writes.

Rebalance traffic bypasses the router's per-shard in-flight accounting:
it is background traffic with its own (queue_depth) pipeline bound, and
letting it compete for foreground slots would let a rebalance starve
the very clients it is trying to protect.

Deterministic throughout: moves execute in plan order, slots ascending,
targets in plan order; two same-seed runs produce bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.migration import INGEST_BANDWIDTH_GBPS, MIGRATION_QUEUE_DEPTH
from repro.sim.resources import Resource

__all__ = ["Rebalancer", "RebalanceReport"]


@dataclass
class RebalanceReport:
    """What one executed rebalance plan did and how long it took."""

    #: SHA-256 digest of the plan (the bit-identity check surface).
    plan_digest: str
    n_moves: int
    #: Fraction of the hash circle that changed hands.
    moved_fraction: float
    #: Distinct slots the plan touched.
    slots_moved: int
    #: Bytes actually streamed (slot copies x slot size, per target).
    bytes_moved: int
    #: Slot copies skipped because no live source survived.  Nonzero
    #: here means acknowledged data was lost -- the scale-out bench
    #: asserts this stays zero under a VM kill with replication >= 2.
    lost_slots: int
    started_at: float
    finished_at: float
    #: Per-move (span_fraction, slots, bytes) in execution order.
    moves: List[Tuple[float, int, int]] = field(default_factory=list)
    #: Identities of the lost slots (sorted, deduplicated) -- consumers
    #: such as the tenant tier map these back to address ranges to know
    #: whose data silently reverted.
    lost_slot_ids: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def to_dict(self) -> dict:
        return {"plan_digest": self.plan_digest,
                "n_moves": self.n_moves,
                "moved_fraction": self.moved_fraction,
                "slots_moved": self.slots_moved,
                "bytes_moved": self.bytes_moved,
                "lost_slots": self.lost_slots,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "duration_s": self.duration,
                "moves": [list(m) for m in self.moves],
                "lost_slot_ids": list(self.lost_slot_ids)}


class Rebalancer:
    """Executes rebalance plans against a :class:`ShardRouter`."""

    def __init__(self, router):
        self.router = router
        m = router.metrics
        self._c_moves = m.counter("rebalance.moves") if m else None
        self._c_slots = m.counter("rebalance.slots_moved") if m else None
        self._c_bytes = m.counter("rebalance.bytes_moved") if m else None
        self._c_lost = m.counter("rebalance.lost_slots") if m else None
        self._g_duration = (m.gauge("rebalance.last_duration_s")
                            if m else None)

    def execute(self, plan):
        """Stream every move of ``plan``; returns a RebalanceReport.

        Generator -- run inside a router membership process.  Per move:
        gate writes to the arc, copy its slots source->target, lift the
        gate and install the routing override.  The caller flips the
        ring and clears overrides once the whole plan has landed.
        """
        router = self.router
        env = router.env
        started = env.now
        report = RebalanceReport(plan_digest=plan.digest(),
                                 n_moves=len(plan),
                                 moved_fraction=plan.moved_fraction,
                                 slots_moved=0, bytes_moved=0,
                                 lost_slots=0, started_at=started,
                                 finished_at=started)
        for move in plan:
            slots = [slot for slot in range(router.n_slots)
                     if move.contains(router._slot_points[slot])]
            moved_bytes = lost = 0
            lost_ids: List[int] = []
            if slots:
                gate = env.event()
                entry = (move.lo, move.hi, gate)
                router._gates.append(entry)
                try:
                    moved_bytes, lost, lost_ids = yield from (
                        self._stream_move(move, slots))
                finally:
                    router._gates.remove(entry)
                    gate.succeed()
            # Flip routing for this arc as soon as it has landed; the
            # rest of the plan keeps routing through the old ring.
            router._install_override(move.lo, move.hi, move.new_owners)
            report.slots_moved += len(slots)
            report.bytes_moved += moved_bytes
            report.lost_slots += lost
            report.lost_slot_ids.extend(lost_ids)
            report.moves.append((move.span / (1 << 64), len(slots),
                                 moved_bytes))
            if self._c_moves:
                self._c_moves.inc()
                self._c_slots.inc(len(slots))
                self._c_bytes.inc(moved_bytes)
                if lost:
                    self._c_lost.inc(lost)
        report.finished_at = env.now
        report.lost_slot_ids = sorted(set(report.lost_slot_ids))
        if self._g_duration:
            self._g_duration.set(report.duration)
        return report

    def _stream_move(self, move, slots):
        """Copy ``slots`` to every move target; returns (bytes, lost)."""
        env = self.router.env
        # One ingest pipe per target models the receiver's single
        # migration thread; MIGRATION_QUEUE_DEPTH bounds the copy pipeline.
        window = Resource(env, slots=MIGRATION_QUEUE_DEPTH)
        ingests = {name: Resource(env, slots=1) for name in move.targets}
        totals = {"bytes": 0, "lost": 0, "lost_ids": []}
        copies = []
        for slot in slots:
            for target_name in move.targets:
                target = self.router._members.get(target_name)
                if target is None or not target.alive:
                    continue
                copies.append(env.process(
                    self._copy_slot(move, slot, target,
                                    ingests[target_name], window, totals),
                    name=f"rebalance-copy:{slot}:{target_name}"))
        if copies:
            yield env.all_of(copies)
        return totals["bytes"], totals["lost"], totals["lost_ids"]

    def _copy_slot(self, move, slot, target, ingest, window, totals):
        router = self.router
        env = router.env
        yield window.acquire()
        try:
            addr = slot * router.slot_bytes
            size = min(router.slot_bytes, router.capacity - addr)
            payload = None
            # Primary-first over the old owners; skip dead shards (an
            # emergency departure's data is gone -- replicas supply it).
            for name in move.sources:
                source = router._members.get(name)
                if source is None or not source.alive:
                    continue
                result = yield source.cache.read(addr, size)
                if result.ok:
                    payload = result.data
                    break
            if payload is None:
                totals["lost"] += 1
                totals["lost_ids"].append(slot)
                return
            yield ingest.acquire()
            try:
                yield env.timeout(
                    size * 8 / (INGEST_BANDWIDTH_GBPS * 1e9))
                wrote = yield target.cache.write(addr, payload)
            finally:
                ingest.release()
            if wrote.ok:
                totals["bytes"] += size
            else:
                totals["lost"] += 1
                totals["lost_ids"].append(slot)
        finally:
            window.release()
