"""QP pooling: few shared queue pairs carrying many client sessions.

The naive elastic-client model gives every logical client its own QP
and its own registered recv buffers -- so a connection storm pays the
full control-plane bill (QP create + state transitions + handshake
RTTs + memory registration) *per client*, and the per-QP NIC context
state of 10^5 live QPs thrashes the on-NIC cache long after the storm.

A :class:`QpPool` instead multiplexes sessions onto shared QPs, one
pool per (local endpoint, remote endpoint) pair:

* **Sharing** -- up to ``sessions_per_qp`` sessions ride one QP; the
  QP's recv region is registered once, not per session.
* **Request tagging + completion demux** -- every submitted work
  request is tagged with its session id, and the QP's own completion
  event is what the session waits on: a :class:`_Request` record,
  registered as that event's first callback, checks the carried tag
  against the one it submitted, counts a mismatch (the invariant the
  interleaved-completion tests pin down) and restores the caller's
  context before the session resumes.
* **Lazy establishment** -- ``pooled-lazy`` defers the connect
  handshake to the first posted verb (:meth:`QueuePair.post` backlogs
  and connects); ``pooled`` connects at session open through the
  batched connect worker; ``per-client`` is the naive baseline.
* **Doorbell-batched connect** -- establishment requests drain through
  one worker modeling the serialized NIC command queue: the first QP
  of a drain pays full command cost, followers the batched discount.
* **Warm pool + harvesting** -- :meth:`ensure_warm` pre-connects idle
  QPs ahead of demand up to the caller's target;
  :meth:`harvest` reclaims QPs idle beyond ``idle_timeout_s`` past the
  warm target, releasing QP state, NIC cache entries, and regions.

Determinism: a session joins the least-loaded usable QP, ties to the
lowest ``qp_id`` (one scan in creation order, which is ``qp_id`` order),
ids come from per-run counters, and every decision is appended to the
shared :class:`~repro.cplane.log.CplaneLog`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional

from repro.cplane.log import CplaneLog
from repro.cplane.session import ClientSession
from repro.net.fabric import Endpoint
from repro.net.memory import AccessToken, MemoryRegion
from repro.net.qp import QueuePair
from repro.net.verbs import RdmaOp, WorkRequest
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event

__all__ = ["PoolPolicy", "QpPool", "STRATEGIES"]

#: Recognized pool strategies, in ablation order.
STRATEGIES = ("per-client", "pooled", "pooled-lazy")

#: Recv-buffer bytes registered per session (naive) or per QP
#: (pooled) -- the memory-registration cost surface.
_RECV_REGION_BYTES = 4096

#: Cap on usable QPs per endpoint pair: a session creates a QP only
#: while fewer are usable; at the cap it oversubscribes the
#: least-loaded usable QP instead.  A broken (in-error or reclaimed) QP
#: does not count: it is replaced, never oversubscribed onto, and
#: reclaimed by the next harvest once its sessions have closed.
MAX_QPS = 4096
#: In-flight depth of pooled QPs.
QUEUE_DEPTH = 16


@dataclass(frozen=True)
class PoolPolicy:
    """Knobs of one connection pool (frozen; safe to share)."""

    strategy: str = "pooled-lazy"
    #: Logical sessions multiplexed per shared QP.
    sessions_per_qp: int = 16
    #: A QP idle this long (no sessions) becomes harvestable.
    idle_timeout_s: float = 0.25
    #: Warm-pool cap (an ``ensure_warm`` target is clamped under it).
    warm_max: int = 64

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} (have {STRATEGIES})")
        if self.sessions_per_qp < 1:
            raise ValueError("sessions_per_qp must be >= 1")
        if self.idle_timeout_s < 0:
            raise ValueError("idle_timeout_s must be >= 0")
        if self.warm_max < 0:
            raise ValueError("warm_max must be >= 0")

    @property
    def shared(self) -> bool:
        return self.strategy != "per-client"


class _PooledQp:
    """One pool-owned QP plus its multiplexing bookkeeping."""

    __slots__ = ("qp", "sessions", "region", "idle_since", "created_at")

    def __init__(self, qp: QueuePair, created_at: float):
        self.qp = qp
        #: Session ids currently riding this QP.
        self.sessions: set = set()
        #: Pool-registered recv region (shared across the QP's sessions
        #: in pooled modes; per-session regions live on the session).
        self.region: Optional[MemoryRegion] = None
        #: Instant the QP last became session-free (None while in use).
        self.idle_since: Optional[float] = created_at
        self.created_at = created_at

    @property
    def usable(self) -> bool:
        return not self.qp.reclaimed and not self.qp.in_error


class QpPool:
    """Shared-QP connection pool for one (local, remote) endpoint pair."""

    def __init__(self, env: Environment, local: Endpoint, remote: Endpoint,
                 policy: PoolPolicy, log: CplaneLog,
                 session_ids: Optional[itertools.count] = None):
        self.env = env
        self.local = local
        self.remote = remote
        self.policy = policy
        self.log = log
        self.name = f"{local.name}->{remote.name}"
        self._session_ids = (session_ids if session_ids is not None
                             else itertools.count(1))
        self._tag_seq = itertools.count(1)
        #: qp_id -> entry, insertion (creation) ordered -- which is
        #: ascending qp_id, since ids come from one fabric counter.
        self._qps: Dict[int, _PooledQp] = {}
        #: Open sessions by id (a session leaves when it closes).
        self.sessions: Dict[int, ClientSession] = {}
        self._session_qp: Dict[int, _PooledQp] = {}
        # Serialized connect worker (the NIC command queue).
        self._connect_queue: Deque[QueuePair] = deque()
        self._connect_waiters: Dict[int, Event] = {}
        self._connect_worker_busy = False
        #: Warm QPs a harvest keeps (the last ``ensure_warm`` target).
        self.warm_target = 0
        # Lifetime counters.
        self.opened = 0
        self.closed = 0
        self.qps_created = 0
        self.qps_reclaimed = 0
        self.establishments = 0
        self.batched_establishments = 0
        self.demux_routed = 0
        self.demux_misroutes = 0
        self.oversubscriptions = 0
        m = registry_of(env)
        self._c_sessions = m.counter("cplane.sessions_opened") if m else None
        self._c_reclaims = m.counter("cplane.qps_reclaimed") if m else None
        self._c_misroutes = m.counter("cplane.demux_misroutes") if m else None
        self._g_live_qps = m.gauge("cplane.live_qps") if m else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_qps(self) -> int:
        return len(self._qps)

    @property
    def active_sessions(self) -> int:
        return len(self._session_qp)

    def warm_ready(self) -> int:
        """Idle, usable QPs held ready for future sessions."""
        return sum(1 for entry in self._qps.values()
                   if not entry.sessions and entry.usable)

    def qp_ids(self) -> List[int]:
        return sorted(self._qps)

    def stats(self) -> dict:
        return {
            "strategy": self.policy.strategy,
            "opened": self.opened, "closed": self.closed,
            "active_sessions": self.active_sessions,
            "live_qps": self.live_qps, "warm_ready": self.warm_ready(),
            "qps_created": self.qps_created,
            "qps_reclaimed": self.qps_reclaimed,
            "establishments": self.establishments,
            "batched_establishments": self.batched_establishments,
            "demux_routed": self.demux_routed,
            "demux_misroutes": self.demux_misroutes,
            "oversubscriptions": self.oversubscriptions,
        }

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open_session(self) -> Generator[Event, object, ClientSession]:
        """Process: open one logical session and bind it to a QP.

        What the open path costs depends on the strategy: ``per-client``
        pays a dedicated QP establishment plus a per-session recv-region
        registration; ``pooled`` joins (or creates) a shared QP and
        waits for it to connect through the batched worker; cold
        ``pooled-lazy`` returns immediately -- the handshake rides on
        the first posted verb instead.
        """
        env = self.env
        now = env.now
        session = ClientSession(next(self._session_ids), self.local.name,
                                self.remote.name, now)
        self.sessions[session.session_id] = session
        self.opened += 1
        if self._c_sessions is not None:
            self._c_sessions.inc()
        self.log.append(now, "session.open", self.name,
                        session=session.session_id,
                        strategy=self.policy.strategy, tenant=None)
        if self.policy.strategy == "per-client":
            # Naive baseline: everything on the critical path, nothing
            # shared, nothing batched.
            region = MemoryRegion(_RECV_REGION_BYTES, backing=False)
            region = yield from self.local.register_timed(region)
            session.recv_region_id = region.region_id
            entry = self._create_qp()
            self._bind(session, entry)
            yield entry.qp.establish()
        else:
            entry = self._assign_shared_qp()
            if entry is None:
                entry = yield from self._create_shared_qp()
            self._bind(session, entry)
            if self.policy.strategy == "pooled" and not entry.qp.established:
                yield self._request_establish(entry.qp)
        session.ready_at = env.now
        return session

    def close_session(self, session: ClientSession) -> None:
        """Detach the session; a QP left session-free starts idling
        toward harvest (``per-client`` QPs are reclaimed on the spot --
        there is nobody left to share them with)."""
        if not session.open:
            return
        session.closed_at = self.env.now
        self.closed += 1
        self.sessions.pop(session.session_id, None)
        entry = self._session_qp.pop(session.session_id, None)
        self.log.append(self.env.now, "session.close", self.name,
                        session=session.session_id)
        if entry is None:
            return
        entry.sessions.discard(session.session_id)
        if entry.sessions:
            return
        if self.policy.strategy == "per-client":
            self._reclaim(entry, reason="session closed")
            if session.recv_region_id is not None:
                self.local.deregister(session.recv_region_id)
                session.recv_region_id = None
        else:
            entry.idle_since = self.env.now

    def _bind(self, session: ClientSession, entry: _PooledQp) -> None:
        entry.sessions.add(session.session_id)
        entry.idle_since = None
        self._session_qp[session.session_id] = entry
        session.qp_id = entry.qp.qp_id

    # ------------------------------------------------------------------
    # QP management
    # ------------------------------------------------------------------

    def _create_qp(self) -> _PooledQp:
        qp = QueuePair(self.env, self.local, self.remote,
                       max_depth=QUEUE_DEPTH, deferred=True)
        entry = _PooledQp(qp, self.env.now)
        self._qps[qp.qp_id] = entry
        self.qps_created += 1
        if self._g_live_qps is not None:
            self._g_live_qps.set(len(self._qps))
        self.log.append(self.env.now, "qp.create", self.name, qp=qp.qp_id,
                        strategy=self.policy.strategy)
        return entry

    def _create_shared_qp(self) -> Generator[Event, object, _PooledQp]:
        """Process: create a pooled QP and register its shared recv
        region (one registration amortized over every session that will
        ride it)."""
        entry = self._create_qp()
        region = MemoryRegion(_RECV_REGION_BYTES, backing=False)
        entry.region = yield from self.local.register_timed(region)
        return entry

    def _assign_shared_qp(self) -> Optional[_PooledQp]:
        """Least-loaded usable QP with session capacity (ties to the
        lowest qp_id -- deterministic), or None when the caller should
        create one.  Once :data:`MAX_QPS` usable QPs are full,
        oversubscribes the least-loaded one rather than failing; broken
        QPs neither count against the cap nor take sessions."""
        best: Optional[_PooledQp] = None
        best_load = 0
        usable = 0
        for entry in self._qps.values():
            qp = entry.qp
            if qp.reclaimed or qp._error_state is not None:
                continue
            load = len(entry.sessions)
            if not load:
                return entry  # an idle QP: nothing loads less
            usable += 1
            if best is None or load < best_load:
                best = entry
                best_load = load
        if best is not None and best_load < self.policy.sessions_per_qp:
            return best
        if usable < MAX_QPS:
            return None  # caller creates a fresh one
        self.oversubscriptions += 1
        return best

    def _reclaim(self, entry: _PooledQp, reason: str) -> None:
        qp = entry.qp
        if not qp.reclaimed:
            qp.reclaim()
        if entry.region is not None:
            self.local.deregister(entry.region.region_id)
            entry.region = None
        self._qps.pop(qp.qp_id, None)
        self.qps_reclaimed += 1
        if self._c_reclaims is not None:
            self._c_reclaims.inc()
        if self._g_live_qps is not None:
            self._g_live_qps.set(len(self._qps))
        self.log.append(self.env.now, "qp.reclaim", self.name, qp=qp.qp_id,
                        reason=reason)

    def reclaim_all(self, reason: str) -> int:
        """Tear down every QP (remote endpoint died / left the ring).

        Open sessions are closed; their in-flight requests complete in
        error through the QPs' flush path, never silently vanish.
        """
        count = 0
        for qp_id in sorted(self._qps):
            self._reclaim(self._qps[qp_id], reason=reason)
            count += 1
        for session_id in sorted(self._session_qp):
            session = self.sessions.pop(session_id)
            session.closed_at = self.env.now
            self.closed += 1
        self._session_qp.clear()
        return count

    # ------------------------------------------------------------------
    # Establishment: serialized command queue + doorbell batching
    # ------------------------------------------------------------------

    def _request_establish(self, qp: QueuePair) -> Event:
        """Queue one QP for establishment through the connect worker;
        returns an event firing with the handshake outcome."""
        env = self.env
        if qp.established or qp.reclaimed:
            done = env.event()
            done.succeed(qp.established and not qp.in_error)
            return done
        waiter = self._connect_waiters.get(qp.qp_id)
        if waiter is not None:
            return waiter
        waiter = env.event()
        self._connect_waiters[qp.qp_id] = waiter
        self._connect_queue.append(qp)
        if not self._connect_worker_busy:
            self._connect_worker_busy = True
            env.process(self._connect_worker(),
                        name=f"cplane-connect:{self.name}")
        return waiter

    def _connect_worker(self):
        """Drain the connect queue: the first establishment of a drain
        pays the full command cost, followers the batched discount (one
        command-queue doorbell covers the batch)."""
        first = True
        while self._connect_queue:
            qp = self._connect_queue.popleft()
            batched = not first
            first = False
            if qp.reclaimed:
                ok = False
            elif qp.established:
                ok = not qp.in_error
            else:
                ok = yield qp.establish(batched=batched)
                self.establishments += 1
                if batched:
                    self.batched_establishments += 1
            self.log.append(self.env.now, "qp.establish", self.name,
                            qp=qp.qp_id, ok=bool(ok), batched=batched)
            waiter = self._connect_waiters.pop(qp.qp_id, None)
            if waiter is not None:
                waiter.succeed(bool(ok))
        self._connect_worker_busy = False

    def ensure_warm(self, target: int) -> Generator[Event, object, int]:
        """Process: pre-connect idle QPs until ``target`` warm QPs are
        ready (clamped to the policy's bounds; no-op for the naive
        strategy, which has nothing to share)."""
        if not self.policy.shared:
            return 0
        target = max(0, min(self.policy.warm_max, target))
        self.warm_target = target
        created: List[Event] = []
        # warm_ready() already counts each freshly created (idle,
        # usable) QP, so it is the sole progress measure here.
        while (self.warm_ready() < target
               and len(self._qps) < MAX_QPS):
            entry = yield from self._create_shared_qp()
            created.append(self._request_establish(entry.qp))
        for waiter in created:
            yield waiter
        if created:
            self.log.append(self.env.now, "warm.target", self.name,
                            warm=target, preconnected=len(created))
        return len(created)

    def harvest(self) -> int:
        """Reclaim QPs idle beyond ``idle_timeout_s``, keeping
        ``warm_target`` of them alive as the warm pool.  Oldest-idle
        QPs are reclaimed first (deterministic ``(idle_since, qp_id)``
        order).  Session-free QPs in the error state (remote died, link
        fault) are reclaimed immediately regardless of the timeout or
        the warm target -- a broken QP can never serve a session, so
        keeping it "warm" would just strand its NIC state and recv
        region.  Returns the number reclaimed."""
        now = self.env.now
        idle = [entry for entry in self._qps.values()
                if not entry.sessions and entry.idle_since is not None]
        broken = sorted((entry for entry in idle if not entry.usable),
                        key=lambda entry: (entry.idle_since, entry.qp.qp_id))
        expired = sorted(
            (entry for entry in idle if entry.usable
             and now - entry.idle_since >= self.policy.idle_timeout_s),
            key=lambda entry: (entry.idle_since, entry.qp.qp_id))
        reclaimed = 0
        for entry in broken:
            self._reclaim(entry, reason="broken at harvest")
            reclaimed += 1
        keep = max(0, self.warm_target - (self.warm_ready() - len(expired)))
        for entry in expired[:max(0, len(expired) - keep)]:
            self._reclaim(entry, reason="idle harvest")
            reclaimed += 1
        if reclaimed:
            self.log.append(now, "harvest", self.name, reclaimed=reclaimed,
                            kept_warm=self.warm_ready())
        return reclaimed

    # ------------------------------------------------------------------
    # Data path: tagged submission + completion demux
    # ------------------------------------------------------------------

    def submit(self, session: ClientSession, wr: WorkRequest) -> Event:
        """Post ``wr`` on the session's QP, tagged with the session
        identity; returns the QP's completion event, which fires with
        the completion after the demultiplexer has routed (and
        verified) it.

        The user's ``wr.context`` is restored on the delivered
        completion -- callers never see the pool's tag.
        """
        entry = self._session_qp.get(session.session_id)
        if entry is None:
            raise KeyError(
                f"session {session.session_id} is not bound to a QP")
        session.touch(self.env.now)
        if wr.op is RdmaOp.READ:
            session.reads += 1
        elif wr.op is RdmaOp.WRITE:
            session.writes += 1
        request = _Request(self, next(self._tag_seq), session, wr.context)
        wr.context = ("cplane", request.tag, session.session_id)
        completion_event = entry.qp.post(wr)
        # Fresh from post(): no waiter yet, so the demux runs first.
        completion_event._add_callback(request)
        return completion_event

    def session_read(self, session: ClientSession, token: AccessToken,
                     offset: int, nbytes: int) -> Event:
        """Convenience: submit one tagged READ for ``session``."""
        wr = WorkRequest(RdmaOp.READ, token, offset, nbytes)
        return self.submit(session, wr)


class _Request:
    """One submitted work request: its entry in the demux table, hung
    on its completion event as that event's first callback.

    Interleaved completions from multiplexed sessions arrive on the
    shared QP in wire order, not per-session order; the tag is what
    keeps them apart.  The record keeps the tag it submitted apart from
    the one the completion carries, so a mismatch -- the pool handing
    one session's bytes to another -- is counted, never silent.
    """

    __slots__ = ("pool", "tag", "session", "user_context")

    def __init__(self, pool: QpPool, tag: int, session: ClientSession,
                 user_context: object):
        self.pool = pool
        self.tag = tag
        self.session = session
        self.user_context = user_context

    def __call__(self, event: Event) -> None:
        completion = event._value
        pool = self.pool
        carried = completion.context
        session = self.session
        if (isinstance(carried, tuple) and len(carried) == 3
                and carried[0] == "cplane" and carried[1] == self.tag
                and carried[2] == session.session_id):
            pool.demux_routed += 1
        else:
            pool.demux_misroutes += 1
            if pool._c_misroutes is not None:
                pool._c_misroutes.inc()
        completion.context = self.user_context
        session.touch(pool.env.now)
