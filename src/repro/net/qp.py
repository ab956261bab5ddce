"""Queue pairs: reliable connected RDMA with bounded in-flight operations.

A :class:`QueuePair` executes one-sided work requests against its remote
endpoint: READs and WRITEs.  It enforces the NIC's queue-depth bound
(``max_depth`` in-flight operations -- the ``q`` variable of Table 2)
and turns remote failures (revoked regions, dead endpoints) into error
completions rather than exceptions, matching how RDMA surfaces
transport errors through the completion queue.

Each in-flight operation completes when its own wire round trip ends,
not in post order: a 64 B WRITE posted behind a 1 MiB READ on the same
QP completes first (DESIGN.md §6 lists this deviation from RC
ordering).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.fabric import Endpoint
from repro.net.memory import MemoryRegion, RdmaAccessError
from repro.net.verbs import Completion, RdmaOp, WorkRequest
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event

__all__ = ["QueuePair", "QueuePairError"]

#: Wire bytes of a READ request / WRITE acknowledgement (header-only).
CONTROL_MESSAGE_BYTES = 0


class QueuePairError(Exception):
    """Raised for QP misuse (e.g. reconnecting a reclaimed QP)."""


class QueuePair:
    """A reliable connection between two endpoints.

    By default a QP is born established -- the historical model, where
    connection setup is free and amortized away (long-lived clients).
    ``deferred=True`` creates the QP *unconnected*: it must go through
    :meth:`establish` (QP create + state transitions + out-of-band
    handshake RTTs, all charged in simulated time) before the first
    verb launches.  A post on an unestablished QP queues in the backlog
    and triggers establishment lazily -- first use connects, which is
    what ``repro.cplane``'s pooled-lazy strategy builds on.
    """

    def __init__(self, env: Environment, local: Endpoint, remote: Endpoint,
                 max_depth: int, deferred: bool = False):
        if max_depth < 1:
            raise QueuePairError(f"max_depth must be >= 1, got {max_depth}")
        nic_limit = local.fabric.profile.nic.max_queue_depth
        if max_depth > nic_limit:
            raise QueuePairError(
                f"max_depth {max_depth} exceeds NIC limit {nic_limit}")
        self.env = env
        self.local = local
        self.remote = remote
        self.max_depth = max_depth
        #: Per-run id: the key NIC context caches and the cplane event
        #: log identify this QP by.
        self.qp_id = local.fabric.issue_qp_id()
        self._in_flight = 0
        self._wr_seq = 0
        self._backlog: Deque[tuple[WorkRequest, Event]] = deque()
        #: Whether the connection handshake has completed.  Established
        #: immediately unless ``deferred``.
        self._established = not deferred
        self._establishing: Optional[Event] = None
        #: Simulated instant establishment completed (None = never).
        self.established_at: Optional[float] = env.now if not deferred else None
        #: Fast-teardown flag: a reclaimed QP is gone from its
        #: endpoints' registries and can never be re-established.
        self.reclaimed = False
        #: Transient error state (RDMA "QP in error"): posts flush with
        #: error completions instead of raising, until :meth:`reconnect`.
        self._error_state: Optional[str] = None
        # Register on both endpoints so a link fault on either side can
        # find and flush every QP touching it (see repro.faults).
        local.qps.append(self)
        remote.qps.append(self)
        metrics = registry_of(env)
        if metrics is not None:
            self._wire_latency = metrics.histogram("qp.wire_latency")
            self._ops_posted = metrics.counter("qp.ops_posted")
            self._error_completions = metrics.counter("qp.error_completions")
            self._backlog_depth = metrics.gauge("qp.backlog_depth")
            self._context_misses = metrics.counter("qp.context_misses")
            self._establishments = metrics.counter("qp.establishments")
            self._establish_latency = metrics.histogram(
                "qp.establish_latency")
        else:
            self._wire_latency = None
            self._ops_posted = None
            self._error_completions = None
            self._backlog_depth = None
            self._context_misses = None
            self._establishments = None
            self._establish_latency = None

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def backlog_length(self) -> int:
        return len(self._backlog)

    @property
    def established(self) -> bool:
        return self._established

    def establish(self, batched: bool = False) -> Event:
        """Connect a deferred QP; returns an event firing with True on
        success (False when the handshake failed).

        Charges the full control-plane bill: QP create + the RESET->
        INIT->RTR->RTS transitions through the NIC command interface,
        then ``connect_handshake_rtts`` out-of-band round trips across
        the fabric.  ``batched=True`` applies the shared command-queue
        doorbell discount to the create/modify portion (Swift-style
        batched connect); the handshake RTTs are per-connection either
        way.  Idempotent: an established QP answers immediately, a
        mid-handshake QP returns the in-progress event.
        """
        if self.reclaimed:
            raise QueuePairError("establish() on a reclaimed queue pair")
        env = self.env
        if self._established:
            done = env.event()
            done.succeed(True)
            return done
        if self._establishing is not None:
            return self._establishing
        self._establishing = env.event()
        env.process(
            self._establish_process(batched),
            name=f"qp-establish:{self.local.name}->{self.remote.name}"
                 f":{self.qp_id}")
        return self._establishing

    def _establish_process(self, batched: bool):
        local, remote = self.local, self.remote
        fabric = local.fabric
        nic = fabric.profile.nic
        env = self.env
        started = env.now
        # CREATE_QP + MODIFY_QP transitions through the command queue.
        yield env.timeout(nic.qp_setup_cpu_latency(batched))
        ok = local.alive
        # Out-of-band CM handshake: REQ/REP (+RTU) round trips.
        for _ in range(nic.connect_handshake_rtts):
            if not (local.alive and remote.alive):
                ok = False
                break
            yield fabric.transmit(local, remote, nic.connect_message_bytes)
            if not remote.alive:
                ok = False
                break
            yield fabric.transmit(remote, local, nic.connect_message_bytes)
        self._established = True
        event, self._establishing = self._establishing, None
        if ok:
            self.established_at = env.now
            # The fresh contexts are resident on both NICs.
            if local.qp_context_cache is not None:
                local.qp_context_cache.touch(self.qp_id)
            if remote.qp_context_cache is not None:
                remote.qp_context_cache.touch(self.qp_id)
            fabric.qp_establishments += 1
            if self._establishments is not None:
                self._establishments.inc()
                self._establish_latency.observe(env.now - started)
            self._drain_backlog()
        else:
            # Handshake failed: the QP lands in the error state, like a
            # REQ that times out; queued posts flush with errors.
            self.inject_error("connect failed: endpoint down")
        if event is not None:
            event.succeed(ok)

    def reclaim(self) -> None:
        """Fast teardown: destroy the QP and release its NIC state.

        Queued-but-unsent requests flush with error completions (as in
        :meth:`inject_error` -- late posters get completion-with-error,
        never an exception, because pooled callers may race a harvest);
        the QP is removed from both endpoints' registries and its
        context evicted from the NIC caches.  This is the reclaim path
        idle harvesting and storm teardown drive, and the fix for the
        historical leak where every QP ever created stayed registered
        on both endpoints forever.
        """
        if self.reclaimed:
            return
        self.reclaimed = True
        self._error_state = "queue pair reclaimed"
        self._flush_backlog(self._error_state)
        self.local.drop_qp(self)
        self.remote.drop_qp(self)

    def _flush_backlog(self, reason: str) -> None:
        # Error completions fire for unsignaled requests too.
        while self._backlog:
            wr, event = self._backlog.popleft()
            completion = self._error_completion(wr, reason)
            if self._error_completions is not None:
                self._error_completions.inc()
            event.succeed(completion)
        if self._backlog_depth is not None:
            self._backlog_depth.set(0)

    @property
    def in_error(self) -> bool:
        return self._error_state is not None

    def inject_error(self, reason: str = "queue pair in error state") -> None:
        """Put the QP into the RDMA *error* state (link fault, remote
        QP teardown).

        The unsent backlog flushes with error completions now, and every
        later :meth:`post` completes-with-error immediately -- how real
        RC QPs surface a broken connection through the completion queue
        -- until :meth:`reconnect` re-establishes the connection.
        Operations already on the wire keep running; if the fault also
        killed the remote endpoint they error there.
        """
        self._error_state = reason
        self._flush_backlog(reason)

    def reconnect(self) -> None:
        """Leave the error state (connection re-established).

        Mirrors the QP recycle a host does after a transport error:
        both endpoints must still be alive, and the QP must not have
        been deliberately torn down with :meth:`reclaim`.
        """
        if self.reclaimed:
            raise QueuePairError("reconnect() on a reclaimed queue pair")
        if not (self.local.alive and self.remote.alive):
            raise QueuePairError("reconnect() with a dead endpoint")
        self._error_state = None

    def post(self, wr: WorkRequest) -> Event:
        """Post a work request; returns an event that fires with its
        :class:`Completion`.

        An unsignaled request (``wr.signaled`` false) returns the same
        event, but it fires only with an error completion: a success
        completes silently, with no event-list entry.

        If ``max_depth`` operations are already in flight the request
        waits in the send queue (FIFO), exactly the behaviour the
        fully-loaded-QP optimization (§4.3) tunes around.  Otherwise
        the verb launches in place: its first stage runs inside this
        call (see :meth:`_launch`).
        """
        env = self.env
        wr.posted_at = env.now
        self._wr_seq += 1
        wr.wr_id = self._wr_seq
        if self._ops_posted is not None:
            self._ops_posted.inc()
        completion_event = env.event()
        if self._error_state is not None:
            # Completion-with-error flush: the post is accepted (callers
            # keep their completion-driven control flow) but fails on the
            # next kernel step, like a work request hitting an errored QP.
            if self._error_completions is not None:
                self._error_completions.inc()
            completion_event.succeed(
                self._error_completion(wr, self._error_state))
        elif not self._established:
            # Lazy connect: the first use of a deferred QP triggers
            # establishment; the request waits in the send queue until
            # the handshake completes.
            self._backlog.append((wr, completion_event))
            if self._backlog_depth is not None:
                self._backlog_depth.set(len(self._backlog))
            self.establish()
        elif self._in_flight < self.max_depth:
            self._launch(wr, completion_event)
        else:
            self._backlog.append((wr, completion_event))
            if self._backlog_depth is not None:
                self._backlog_depth.set(len(self._backlog))
        return completion_event

    def _drain_backlog(self) -> None:
        """Launch queued requests up to the depth bound (post-establish)."""
        while (self._backlog and self._error_state is None
               and self._in_flight < self.max_depth):
            wr, event = self._backlog.popleft()
            self._launch(wr, event)
        if self._backlog_depth is not None:
            self._backlog_depth.set(len(self._backlog))

    def _context_penalty(self, endpoint: Endpoint) -> float:
        """Touch ``endpoint``'s NIC QP-context cache for this QP.

        Returns the extra service time (0.0 on a hit or when the
        endpoint does not model context pressure).  With control-plane
        modeling on, every verb pays this on both NICs -- the per-QP
        state pressure that makes huge naive QP counts slow even after
        all connections are established.
        """
        cache = endpoint.qp_context_cache
        if cache is None or cache.touch(self.qp_id):
            return 0.0
        fabric = endpoint.fabric
        fabric.qp_context_misses += 1
        if self._context_misses is not None:
            self._context_misses.inc()
        return fabric.profile.nic.qp_context_miss_penalty

    def _launch(self, wr: WorkRequest, completion_event: Event) -> None:
        """Start a verb: its first stage runs in this call.

        That stage only reads the requester's ``alive``, touches its
        NIC's QP-context cache and schedules the next one.  Run in place
        instead of on an entry behind what is already due now, those
        move within the instant only: the entry takes its sequence
        number earlier, so only an exact tie at its instant could tell,
        and the read and the touch come before the entries in between,
        which could tell only if one of them killed that endpoint or
        touched that cache.  Launches keep their relative order (post
        order).  A dead requester's error completion runs from an entry
        at now, so it queues behind everything already due now.
        """
        self._in_flight += 1
        env = self.env
        local = self.local
        verb = _Verb(self, wr, completion_event)
        if not local.alive:
            # A dead requester posts nothing: its NIC is gone.
            env._call_soon(_Verb.local_down, verb)
            return
        # NIC work-request processing on the requester.
        nic = local.fabric.profile.nic
        per_message = nic.per_message_processing
        penalty = self._context_penalty(local)
        if penalty:
            per_message += penalty
        sent = env.now + per_message
        if wr.op is RdmaOp.WRITE and not nic.can_inline(wr.payload_bytes):
            # Payload acquisition: inline rides in the WQE; otherwise the
            # NIC fetches it from host memory over PCIe after processing
            # the request (why small writes beat small reads in Figure
            # 11).  Nothing is observed between the two, so one entry
            # reaches the instant the pair would, in the same float
            # association.
            sent += nic.dma_fetch(wr.payload_bytes)
        env.call_at(sent, _Verb.sent, verb)

    def _finish(self, verb: "_Verb", ok: bool = True,
                data: Optional[bytes] = None,
                error: Optional[str] = None) -> None:
        """End a verb: free its depth slot (the backlog's head launches
        in it), record its wire latency and, for a signaled or failed
        verb, fire its completion.  A :class:`Completion` is built only
        then: nobody reads an unsignaled success."""
        self._in_flight -= 1
        if self._backlog:
            next_wr, next_event = self._backlog.popleft()
            if self._backlog_depth is not None:
                self._backlog_depth.set(len(self._backlog))
            self._launch(next_wr, next_event)
        wr = verb.wr
        now = self.env.now
        if self._wire_latency is not None:
            self._wire_latency.observe(now - wr.posted_at)
            if not ok:
                self._error_completions.inc()
        if ok and not wr.signaled:
            return
        verb.event.succeed(Completion(
            wr_id=wr.wr_id, op=wr.op, ok=ok, data=data, error=error,
            context=wr.context, completed_at=now))

    def _error_completion(self, wr: WorkRequest, error: str) -> Completion:
        return Completion(wr_id=wr.wr_id, op=wr.op, ok=False, error=error,
                          context=wr.context, completed_at=self.env.now)


class _Verb:
    """One READ or WRITE in flight: a chain of timed calls.

    Each stage is a method that runs at the instant the previous stage
    ends -- a NIC charge or a message's arrival, known when the stage
    before it ran -- as an entry :meth:`Environment.call_at` puts on
    the event list as ``(stage function, verb)``.  No process,
    generator, name or event is built per verb, and no object per
    stage: a bound method per stage would be one more collector-tracked
    allocation each (DESIGN.md §5h).  See DESIGN.md §4 for the time
    budget.
    """

    __slots__ = ("qp", "wr", "event", "region", "data")

    def __init__(self, qp: QueuePair, wr: WorkRequest, event: Event):
        self.qp = qp
        self.wr = wr
        #: Fires with the verb's Completion (see ``QueuePair._finish``).
        self.event = event
        #: The responder's region, once the request found it.
        self.region: Optional[MemoryRegion] = None
        #: What a READ fetched, carried to its completion.
        self.data: Optional[bytes] = None

    def local_down(self) -> None:
        self.qp._finish(self, False, error="local endpoint down")

    def sent(self) -> None:
        """The requester NIC has the request (and a non-inline WRITE's
        payload): it goes on the wire."""
        qp = self.qp
        wr = self.wr
        request_bytes = (wr.payload_bytes if wr.op is RdmaOp.WRITE
                         else CONTROL_MESSAGE_BYTES)
        qp.local.fabric.send(qp.local, qp.remote, request_bytes,
                             _Verb.arrived, self)

    def arrived(self) -> None:
        """The request reached the responder NIC, which looks up this
        QP's connection context too."""
        qp = self.qp
        remote = qp.remote
        if not remote.alive:
            qp._finish(self, False, error="remote endpoint down")
            return
        penalty = qp._context_penalty(remote)
        if penalty:
            env = qp.env
            env.call_at(env.now + penalty, _Verb.serve, self)
        else:
            self.serve()

    def serve(self) -> None:
        """The responder finds the region and starts its DMA: a WRITE's
        payload into memory, a READ's out of it."""
        qp = self.qp
        wr = self.wr
        remote = qp.remote
        region = remote.find_region(wr.token.region_id)
        if region is None:
            qp._finish(self, False, error=(
                f"no region {wr.token.region_id} at {remote.name}"))
            return
        self.region = region
        nic = remote.fabric.profile.nic
        env = qp.env
        if wr.op is RdmaOp.WRITE:
            env.call_at(env.now + nic.rx_dma, _Verb.landed, self)
        else:
            env.call_at(env.now + nic.dma_fetch(wr.payload_bytes),
                        _Verb.fetched, self)

    def landed(self) -> None:
        """A WRITE's payload is in responder memory: its message goes
        to the region's mailbox and the acknowledgement goes back."""
        qp = self.qp
        wr = self.wr
        region = self.region
        try:
            region.write(wr.token, wr.remote_offset, wr.data,
                         length=wr.payload_bytes)
            region.deliver(wr.payload_object)
        except RdmaAccessError as exc:
            qp._finish(self, False, error=str(exc))
            return
        qp.local.fabric.send(qp.remote, qp.local, CONTROL_MESSAGE_BYTES,
                             _Verb.answered, self)

    def fetched(self) -> None:
        """A READ's payload left responder memory: it goes back, and
        its DMA into requester memory ends the arrival."""
        qp = self.qp
        wr = self.wr
        try:
            self.data = self.region.read(wr.token, wr.remote_offset,
                                         wr.payload_bytes)
        except RdmaAccessError as exc:
            qp._finish(self, False, error=str(exc))
            return
        remote = qp.remote
        remote.fabric.send(remote, qp.local, wr.payload_bytes,
                           _Verb.answered, self,
                           remote.fabric.profile.nic.rx_dma)

    def answered(self) -> None:
        self.qp._finish(self, data=self.data)
