"""Client-side data path: the executable version of Figure 6.

:class:`CacheDataPath` owns the client threads of one Redy cache.  Each
client thread runs one RDMA connection per attached cache server.
:meth:`CacheDataPath.io` runs an op to its
:class:`~repro.core.protocol.OpResult` in the caller's process
(``result = yield from path.io(op)``); the data path runs no process of
its own.

* On the §4.3 fast path an op runs as one flat step sequence in the
  caller's frame (:meth:`CacheDataPath._one_sided`): its connection's
  issue slot (FIFO), a queue-depth credit, the thread CPU, the issue
  charge, the post of one READ or WRITE verb, the completion, the
  thread CPU again, the reap charge, the cross-NUMA hop, and the
  settle.  A grant that is free at once costs no event
  (``try_acquire`` / ``try_get``).  An op nobody waits for in a frame
  runs the same stages as one :class:`OneSidedIo` record, a chain of
  callbacks: a submitted op, and a ``RedyCache`` read or write inside
  one region, behind its region gate (a subclass in
  ``core/client.py``).  With a metrics registry installed the op
  stamps each boundary into its
  :class:`~repro.core.protocol.OpStages` ledger.
* Otherwise the issue slot's holder takes a credit and the thread CPU
  and posts one request batch of the ops queued behind it, up to weight
  ``b``, written into the server's message ring (§4.2).  The caller
  that formed a batch reaps it once the response lands in its
  connection's response ring, one reap per thread at a time, in arrival
  order; a caller whose op rode that batch gets its result.

All CPU charges go through one per-thread ``Resource`` so that issue and
reap cannot overlap in time -- they are the same hardware thread -- and
each charge's formula lives in one method (:meth:`_issue_charge`,
:meth:`_reap_charge`) whichever path pays it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import RdmaConfig
from repro.core.protocol import (
    ConnectRequest,
    EngineOp,
    OpResult,
    OpStages,
    RequestBatch,
    ResponseBatch,
)
from repro.core.server import CacheServer, RING_SLOT_BYTES
from repro.hardware.profiles import TestbedProfile
from repro.net.fabric import Endpoint
from repro.net.memory import MemoryRegion
from repro.net.qp import QueuePair
from repro.net.verbs import Completion, RdmaOp, WorkRequest
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Resource, Store

#: Batch-weight histogram buckets: powers of two up to the largest batch
#: size the config space explores.
_BATCH_WEIGHT_BUCKETS = tuple(float(1 << i) for i in range(11))

#: Standard normals the data path draws from its stream at a time.
_NORMAL_BLOCK = 512

#: The one item every connection's credit store holds copies of: a
#: queue-depth credit carries no identity.
_CREDIT = object()

__all__ = ["CacheDataPath", "EngineError", "OneSidedIo"]


class EngineError(Exception):
    """Data-path misuse (no route for an op, engine not attached, ...)."""


def _direct_op_error(op: EngineOp) -> EngineError:
    """What a one-sided op without a region token, or of weight above
    1, raises."""
    return EngineError("one-sided ops need a region token"
                       if op.token is None
                       else "one-sided ops are weight-1 ops")


def _lognormal_sigma(median: float, p99: float) -> float:
    if p99 <= median or median <= 0:
        return 0.0
    return math.log(p99 / median) / 2.326


class _Connection:
    """One client thread's connection to one cache server."""

    def __init__(self, env: Environment, server: CacheServer, qp: QueuePair,
                 request_ring_token, queue_depth: int):
        self.server = server
        self.qp = qp
        self.request_ring_token = request_ring_token
        #: Queue-depth credits: one per allowed in-flight operation.
        self.credits = Store(env, capacity=queue_depth)
        for _ in range(queue_depth):
            self.credits.try_put(_CREDIT)
        #: Ops not yet in a request batch, in arrival order.  Behind the
        #: issue slot's holder, each belongs to one of the slot's waiters.
        self.pending: Deque[EngineOp] = deque()
        #: Held from forming a batch until after its post, so batches
        #: issue one at a time, in arrival order.
        self.issue_slot = Resource(env, slots=1)
        #: In-flight request batches by batch id, in post order (so the
        #: oldest deadline is the first entry's), with the events their
        #: ops' callers wait on (the forming caller's first).
        self.outstanding: Dict[int, Tuple[RequestBatch, List[Event]]] = {}
        #: Whether the response watchdog has a deadline on the event list.
        self.watchdog_armed = False
        #: Id of the last request batch posted here: batch ids count per
        #: connection, which is where responses are matched to them.
        self.last_batch_id = 0
        #: The slot wait of a holder handed its slot, its credit and its
        #: place in the thread CPU's queue at once (see
        #: ``CacheDataPath._pass_issue_slot``), until it resumes.
        self.handed: Optional[Event] = None


class _ClientThread:
    """One client thread: CPU resource + its connections."""

    def __init__(self, env: Environment, index: int):
        self.index = index
        self.cpu = Resource(env, slots=1)
        #: The reap slot: the response batch being reaped, if any; those
        #: landing meanwhile queue in arrival order with their callers'.
        self.reaping: Optional[ResponseBatch] = None
        self.reap_queue: Deque[Tuple[Event, ResponseBatch]] = deque()
        self.connections: Dict[str, _Connection] = {}
        #: region_id -> connection, for routing functional ops.
        self.routes: Dict[int, _Connection] = {}


class CacheDataPath:
    """The client half of one Redy cache's data path."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 config: RdmaConfig, client_endpoint: Endpoint,
                 rng: np.random.Generator):
        self.env = env
        self.profile = profile
        self.config = config
        #: Whether ops run on the §4.3 fast path (as OneSidedIo records).
        self.one_sided = config.uses_one_sided
        self.endpoint = client_endpoint
        self.rng = rng
        #: The rest of the current block of standard normals, last one
        #: first (see :meth:`_normal`).
        self._normals: List[float] = []
        #: Response deadline for two-sided batches, seconds.  A server
        #: that dies after acknowledging a request never responds; the
        #: client fails those ops instead of hanging (real RDMA surfaces
        #: this as a QP timeout).
        self.op_timeout = 0.05
        self.threads = [
            _ClientThread(env, i) for i in range(config.client_threads)]
        self._round_robin = 0
        #: Lifetime statistics.
        self.ops_completed = 0
        self.ops_failed = 0
        self._completed_weight = 0
        self._jitter_sigma = _lognormal_sigma(
            profile.cpu.numa_penalty_mean, profile.cpu.numa_penalty_p99)
        self._lock_sigma = _lognormal_sigma(
            profile.cpu.lock_contention_mean, profile.cpu.lock_contention_p99)
        metrics = registry_of(env)
        #: Whether ops carry a stage ledger (:class:`OpStages`): only
        #: with a metrics registry installed.  A caller that hands an op
        #: over stamps its hand-off into one it creates when this is set.
        self.stamps_stages = metrics is not None
        if metrics is not None:
            self._op_latency = metrics.histogram("engine.op_latency")
            self._credit_wait = metrics.histogram("engine.credit_wait")
            self._batch_weight = metrics.histogram(
                "engine.batch_weight", bounds=_BATCH_WEIGHT_BUCKETS)
            self._completed_counter = metrics.counter("engine.ops_completed")
            self._failed_counter = metrics.counter("engine.ops_failed")
            self._timeout_counter = metrics.counter("engine.timeouts")
            self._tenant_ops_family = metrics.counter("engine.tenant_ops")
        else:
            self._op_latency = None
            self._credit_wait = None
            self._batch_weight = None
            self._completed_counter = None
            self._failed_counter = None
            self._timeout_counter = None
            self._tenant_ops_family = None

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def attach_server(self, server: CacheServer, n_regions: int,
                      region_size: int, backed: bool = True) -> List:
        """Run the *Connect* handshake against ``server``.

        Builds one connection per client thread, registers response rings,
        and returns the data-region tokens the server allocated.
        """
        config = self.config
        response_rings = []
        for _ in self.threads:
            ring = self.endpoint.register(MemoryRegion(
                max(1, config.queue_depth) * RING_SLOT_BYTES, backing=False))
            response_rings.append(ring)
        request = ConnectRequest(
            client_name=self.endpoint.name,
            n_regions=n_regions,
            region_size=region_size,
            server_threads=config.server_threads,
            queue_depth=config.queue_depth,
            connections=len(self.threads),
            response_ring_tokens=[ring.token for ring in response_rings],
            backed=backed,
        )
        reply = server.connect(request, self.endpoint)

        # With control-plane modeling on, per-thread QPs are created
        # deferred: the connect handshake is charged lazily on first
        # use instead of being free (see repro.cplane).
        deferred = self.endpoint.fabric.model_control_plane
        for thread, ring, ring_token in zip(
                self.threads, response_rings, reply.request_ring_tokens):
            qp = QueuePair(self.env, self.endpoint, server.endpoint,
                           max_depth=config.queue_depth, deferred=deferred)
            connection = _Connection(self.env, server, qp, ring_token,
                                     config.queue_depth)
            # Each connection has its own response ring: a response
            # finds its connection by the ring it lands in.
            ring.attach_mailbox(
                lambda response, thread=thread, connection=connection:
                    self._on_response(thread, connection, response))
            thread.connections[server.endpoint.name] = connection
            for token in reply.region_tokens:
                thread.routes[token.region_id] = connection
        return reply.region_tokens

    def add_route(self, region_id: int, server_name: str) -> None:
        """Point a region at an (already attached) server on every thread."""
        for thread in self.threads:
            if server_name not in thread.connections:
                raise EngineError(f"no connection to {server_name}")
            thread.routes[region_id] = thread.connections[server_name]

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def submission_overhead(self) -> float:
        """Sampled app-thread cost to hand one op to a client thread.

        Lock-free ring handoff by default; the ablation baseline pays the
        mutex cost plus a fat contention tail.  Non-affinitized threads
        add cross-NUMA jitter.
        """
        cpu = self.profile.cpu
        if self.config.lock_free:
            cost = cpu.handoff_lockfree
        else:
            cost = cpu.handoff_locked + cpu.lock_contention_mean * math.exp(
                self._lock_sigma * self._normal() - self._lock_sigma**2 / 2)
        if not self.config.numa_affinity:
            cost += cpu.numa_penalty_mean * math.exp(
                self._jitter_sigma * self._normal()
                - self._jitter_sigma**2 / 2)
        return cost

    def io(self, op: EngineOp, thread_index: Optional[int] = None):
        """Run ``op`` on a client thread; returns its :class:`OpResult`.

        A generator for the caller's process: ``result = yield from
        path.io(op)``.  A one-sided op's body is :meth:`_one_sided`, and
        any other op's :meth:`_batched`."""
        if self.one_sided:
            return self._one_sided(op, thread_index)
        return self._batched(op, thread_index)

    def submit(self, op: EngineOp,
               thread_index: Optional[int] = None) -> None:
        """Start ``op`` for a caller that waits on events rather than
        running it in its own frame (a cache I/O across regions keeps
        its fragments in flight together this way): ``op.completion``
        (created here when unset) fires with the op's :class:`OpResult`.
        A one-sided op's record starts here; any other op runs
        :meth:`io` in a process of its own."""
        if op.completion is None:
            op.completion = self.env.event()
        if self.one_sided:
            OneSidedIo(self, op, thread_index)._resume(None)
        else:
            self.env.start(self.io(op, thread_index),
                           name=f"redy-client:{self.endpoint.name}:submit")

    def _prepare(self, op: EngineOp, thread_index: Optional[int]
                 ) -> Tuple["_ClientThread", _Connection]:
        """An op's first step on the data path: stamp its enqueue time,
        pick its client thread (round robin unless given) and route it
        to that thread's connection for the op's region (an op with no
        region token takes the first)."""
        op.enqueued_at = self.env.now
        if thread_index is None:
            thread_index = self._round_robin % len(self.threads)
            self._round_robin += 1
        thread = self.threads[thread_index % len(self.threads)]
        token = op.token
        if token is None:
            if not thread.connections:
                raise EngineError("no attached cache server")
            return thread, next(iter(thread.connections.values()))
        connection = thread.routes.get(token.region_id)
        if connection is None:
            raise EngineError(f"no route for region {token.region_id}")
        return thread, connection

    def _one_sided(self, op: EngineOp, thread_index: Optional[int]):
        """A one-sided op (§4.3) as one flat step sequence in its
        caller's frame: the stages of :class:`OneSidedIo`, in order.  A
        step that raises returns every grant the op holds."""
        env = self.env
        thread, connection = self._prepare(op, thread_index)
        if op.token is None or op.weight != 1:
            raise _direct_op_error(op)
        stages = op.stages
        if stages is None and self.stamps_stages:
            stages = op.stages = OpStages(op.enqueued_at)
        if stages is not None:
            stages.queued = op.enqueued_at
        slot = connection.issue_slot
        credits = connection.credits
        cpu = thread.cpu
        if not slot.try_acquire():
            yield slot.acquire()
        credit = False
        try:
            try:
                if self._batch_weight is not None:
                    self._batch_weight.observe(1)
                credit_wait_started = env.now
                if stages is not None:
                    stages.slot = credit_wait_started
                if not credits.try_get()[0]:
                    yield credits.get()
                credit = True
                if self._credit_wait is not None:
                    self._credit_wait.observe(env.now - credit_wait_started)
                if stages is not None:
                    stages.credit = env.now
                if not cpu.try_acquire():
                    yield cpu.acquire()
                try:
                    if stages is not None:
                        stages.cpu = env.now
                    yield env.timeout(self._issue_charge(1))
                finally:
                    cpu.release()
                done = connection.qp.post(WorkRequest(
                    RdmaOp.READ if op.is_read else RdmaOp.WRITE,
                    op.token, op.offset, op.size, data=op.data))
            finally:
                # Nobody gathers behind a one-sided op, so the slot is
                # never handed on (see _pass_issue_slot): it is released.
                slot.release()
            if stages is not None:
                stages.posted = env.now
            completed_at_post = done._triggered
            completion = yield done
            if completed_at_post:
                # A post to a QP in the error state completes inside
                # post(); a waiter spawned at post found it processed
                # and resumed one hop after its dispatch.  Keep that hop.
                yield env.timeout(0)
            if stages is not None:
                stages.completed = env.now
            if not cpu.try_acquire():
                yield cpu.acquire()
            try:
                if stages is not None:
                    stages.reaping = env.now
                yield env.timeout(self._reap_charge())
            finally:
                cpu.release()
            if stages is not None:
                stages.reaped = env.now
            if not self.config.numa_affinity:
                yield env.timeout(self._numa_penalty())
        except BaseException:
            if credit:
                credits.try_put(_CREDIT)
            raise
        result = self._settle(connection, op, completion)
        if stages is not None:
            stages.settled = env.now
        if op.completion is None and env.due_now():
            # An op run in its caller's process returns into it at
            # once -- unless another entry is due at this instant: one
            # zero hop puts the caller behind it, where a waiter on the
            # op's completion event would have resumed.
            yield env.timeout(0)
        return result

    def _batched(self, op: EngineOp, thread_index: Optional[int]):
        """A two-sided op: its caller issues under the connection's
        issue slot and reaps the batch it formed, or its op rides a
        batch another caller formed."""
        env = self.env
        thread, connection = self._prepare(op, thread_index)
        slot = connection.issue_slot
        connection.pending.append(op)
        grant = slot.acquire()
        at_once = grant.triggered
        result = yield grant
        if result is not None:
            return result  # the op rode a batch another caller formed
        handed = grant is connection.handed
        if handed:
            connection.handed = None
        if at_once and (op.weight < self.config.batch_size
                        or op.completion is not None or env.due_now()):
            # Gather behind what is already due (and the rest of a
            # submitting step), so ops arriving meanwhile join a batch
            # with room.  A full batch alone in its instant goes now.
            yield env.timeout(0)
        try:
            ops, riders, weight = self._gather(connection.pending, slot)
            yield from self._issue(thread, connection, weight, handed=handed)
            done = env.event()
            wakes = [done, *riders]
            connection.last_batch_id += 1
            batch = RequestBatch(ops, env.now, connection.last_batch_id)
            connection.outstanding[batch.batch_id] = (batch, wakes)
            wr = WorkRequest(
                RdmaOp.WRITE, connection.request_ring_token, 0,
                batch.wire_bytes, payload_object=batch, signaled=False)
            self._watch_batch(connection, batch, connection.qp.post(wr))
        finally:
            self._pass_issue_slot(thread, connection)
        reply = yield done
        if reply.__class__ is OpResult:
            return reply  # the batch aborted
        return (yield from self._reap_batch(thread, connection, weight,
                                            reply, wakes))

    def _normal(self) -> float:
        """The next standard normal from this path's stream.

        The stream is drawn 512 at a time.  numpy computes
        ``rng.normal(0.0, sigma)`` as ``0.0 + sigma * z`` with ``z`` the
        stream's next standard normal, so ``sigma * self._normal()`` is
        exactly that value, for a ``sigma`` of 0 too (which still takes
        its ``z``).  Nothing else draws from the stream.
        """
        normals = self._normals
        if not normals:
            normals = self._normals = self.rng.standard_normal(
                _NORMAL_BLOCK).tolist()
            normals.reverse()
        return normals.pop()

    def _noise(self) -> float:
        sigma = self.profile.measurement_noise
        return math.exp(sigma * self._normal()) if sigma else 1.0

    def _gather(self, pending: Deque[EngineOp], slot: Resource):
        """The slot holder's batch: ops from the front of ``pending``
        until their weight reaches ``b`` (its own op always goes).  Each
        rider's caller leaves the slot's queue; its wait event fires
        with its op's result.  Returns ops, riders' events, weight."""
        first = pending.popleft()
        ops, riders, weight = [first], [], first.weight
        batch_size = self.config.batch_size
        while weight < batch_size and pending:
            op = pending.popleft()
            ops.append(op)
            riders.append(slot.take_waiter())
            weight += op.weight
        return ops, riders, weight

    def _on_completion(self, event: Event,
                       callback: Callable[[Event], None]) -> None:
        """Run ``callback(event)`` exactly where a process spawned now
        to wait on ``event`` would have resumed.

        A pending event runs it from its own dispatch.  A post to a QP
        in the error state completes inside ``post()``, so its dispatch
        comes before such a waiter's bootstrap, and the waiter, finding
        the event processed, resumed on a fresh entry behind everything
        queued by then; one ``_call_soon`` hop from the dispatch lands
        on that same entry.
        """
        if event.triggered:
            call_soon = self.env._call_soon
            event._add_callback(lambda ev: call_soon(callback, ev))
        else:
            event._add_callback(callback)

    def _issue(self, thread: _ClientThread, connection: _Connection,
               weight: int, handed: bool = False):
        """Take a queue-depth credit, then charge the client CPU for
        building and posting one request batch of ``weight`` requests
        (see :meth:`_issue_charge`).  A ``handed`` holder already has
        both.
        """
        env = self.env
        if self._batch_weight is not None:
            self._batch_weight.observe(weight)
        if handed:
            if self._credit_wait is not None:
                self._credit_wait.observe(0.0)
        else:
            credit_wait_started = env.now
            yield connection.credits.get()
            if self._credit_wait is not None:
                self._credit_wait.observe(env.now - credit_wait_started)
            yield thread.cpu.acquire()
        try:
            yield env.timeout(self._issue_charge(weight))
        finally:
            thread.cpu.release()

    def _issue_charge(self, weight: int) -> float:
        """Sampled client-CPU seconds to build and post one work request
        that carries ``weight`` requests from the application threads'
        ring, with the ring consumer's per-request charges (cross-NUMA
        work, the mutex when the ring is not lock-free)."""
        cpu = self.profile.cpu
        work = (cpu.batch_prepare + self.profile.nic.doorbell
                + weight * cpu.client_per_op)
        if not self.config.numa_affinity:
            work += weight * cpu.numa_cpu_per_op
        if not self.config.lock_free:
            # The consumer side of the mutex-protected queue pays the
            # same lock acquisition + contention as the producer.
            work += weight * (
                cpu.handoff_locked + cpu.lock_contention_mean
                * math.exp(self._lock_sigma * self._normal()
                           - self._lock_sigma**2 / 2))
        return work * self._noise()

    def _reap_charge(self) -> float:
        """Sampled client-CPU seconds to reap one verb completion: the
        poll and the op's callback."""
        return ((self.profile.nic.completion_poll + self.profile.cpu.callback)
                * self._noise())

    def _pass_issue_slot(self, thread: _ClientThread,
                         connection: _Connection) -> None:
        """Release the issue slot to its next waiter.

        The holder released the thread CPU just before; if a reaper took
        it, the next holder would wake only to take its credit and queue
        for the CPU behind that reaper.  Then, when its op alone fills a
        batch (so the batch is the same whenever it forms) and a credit
        is in stock, it gets the slot, the credit and its CPU-queue
        place here, and resumes once, holding all three.
        """
        slot = connection.issue_slot
        cpu = thread.cpu
        pending = connection.pending
        if (slot.queue_length and cpu.in_use == cpu.slots and pending
                and pending[0].weight >= self.config.batch_size
                and len(connection.credits)):
            connection.credits.try_get()
            waiter = slot.take_waiter()
            connection.handed = waiter
            cpu.acquire_for(waiter)
        else:
            slot.release()

    def _numa_penalty(self) -> float:
        """One cross-NUMA hop's delay (threads not affinitized)."""
        return self.profile.cpu.numa_penalty_mean * math.exp(
            self._jitter_sigma * self._normal() - self._jitter_sigma**2 / 2)

    def _settle(self, connection: _Connection, op: EngineOp,
                completion: Completion) -> OpResult:
        """Return the op's credit and settle it with its verb's outcome."""
        connection.credits.try_put(_CREDIT)
        result = OpResult(
            ok=completion.ok, data=completion.data, error=completion.error,
            latency=self.env.now - op.enqueued_at)
        self._finish(op, result)
        return result

    def _reap_batch(self, thread: _ClientThread, connection: _Connection,
                    weight: int, response: Optional[ResponseBatch],
                    wakes: List[Event]):
        """Reap one response batch under the thread's reap slot (handed
        on with the thread CPU when ``response`` is ``None``): charge
        the client CPU, take the cross-NUMA hop, hand the slot on, then
        return the credit and settle every op of the batch."""
        env = self.env
        cpu = self.profile.cpu
        if response is None:
            response = thread.reaping  # handed on with the thread CPU
        else:
            yield thread.cpu.acquire()
        try:
            work = self.profile.nic.completion_poll + weight * (
                cpu.client_per_op + cpu.callback)
            yield env.timeout(work * self._noise())
        finally:
            thread.cpu.release()
        if not self.config.numa_affinity:
            yield env.timeout(self._numa_penalty())
        if thread.reap_queue:
            # The reap slot passes on; the next reap queues for the
            # thread CPU before this settle wakes anyone.
            reply, thread.reaping = thread.reap_queue.popleft()
            thread.cpu.acquire_for(reply)
        else:
            thread.reaping = None
        connection.credits.try_put(_CREDIT)
        now = env.now
        hop = None
        for index, (op, result) in enumerate(zip(response.ops,
                                                 response.results)):
            result.latency = now - op.enqueued_at
            self._finish(op, result)
            if index:
                wakes[index].succeed(result)
            elif op.completion is None and env.due_now():
                # Behind what is already due, ahead of the riders'
                # wake-ups.
                hop = env.timeout(0)
        if hop is not None:
            yield hop
        return response.results[0]

    def _on_response(self, thread: _ClientThread, connection: _Connection,
                     response: ResponseBatch) -> None:
        """A response batch landed in ``connection``'s ring: the caller
        that formed the batch takes the thread's reap slot, or queues
        for it.  A response to a batch that already aborted is dropped."""
        entry = connection.outstanding.pop(response.batch_id, None)
        if entry is None:
            return
        if thread.reaping is not None:
            thread.reap_queue.append((entry[1][0], response))
        else:
            thread.reaping = response
            entry[1][0].succeed(response)

    def _watch_batch(self, connection: _Connection, batch: RequestBatch,
                     ack: Event) -> None:
        """Arm a posted batch's two failure paths (§6.2): a callback on
        its unsignaled request write, which fires only with an error
        completion (the server died), and the connection's response
        watchdog for a response that never arrives."""
        self._on_completion(
            ack, lambda event: self._abort_batch(connection, batch,
                                                 event._value.error))
        if not connection.watchdog_armed:
            connection.watchdog_armed = True
            self._arm_watchdog(connection, batch.created_at + self.op_timeout)

    def _arm_watchdog(self, connection: _Connection, deadline: float) -> None:
        self.env.call_at(deadline, self._watchdog, connection)

    def _watchdog(self, connection: _Connection) -> None:
        """One response timer per connection (TCP's one retransmission
        timer per connection, RFC 6298).  Fail, in post order, every
        batch whose deadline ``created_at + op_timeout`` has come --
        each at the instant a timer of its own would have fired -- then
        re-arm for the oldest batch still outstanding.  An answered
        batch leaves its deadline behind: the watchdog finds the next
        one when it fires (lazy re-arming)."""
        now = self.env.now
        outstanding = connection.outstanding
        while outstanding:
            batch, _ = next(iter(outstanding.values()))
            deadline = batch.created_at + self.op_timeout
            if deadline > now:
                self._arm_watchdog(connection, deadline)
                return
            self._abort_batch(
                connection, batch,
                f"no response from {connection.server.endpoint.name} "
                f"within {self.op_timeout}s")
            if self._timeout_counter is not None:
                self._timeout_counter.inc()
        connection.watchdog_armed = False

    def _abort_batch(self, connection: _Connection, batch: RequestBatch,
                     error: str) -> bool:
        """Fail every op of an in-flight batch exactly once."""
        entry = connection.outstanding.pop(batch.batch_id, None)
        if entry is None:
            return False  # already answered or already aborted
        connection.credits.try_put(_CREDIT)
        for op, wake in zip(batch.ops, entry[1]):
            result = OpResult(ok=False, error=error,
                              latency=self.env.now - op.enqueued_at)
            self._finish(op, result)
            wake.succeed(result)
        return True

    def _finish(self, op: EngineOp, result: OpResult) -> None:
        if result.ok:
            self.ops_completed += 1
            self._completed_weight += op.weight
            if self._completed_counter is not None:
                self._completed_counter.inc(op.weight)
        else:
            self.ops_failed += 1
            if self._failed_counter is not None:
                self._failed_counter.inc(op.weight)
        if self._op_latency is not None:
            self._op_latency.observe(result.latency)
        if op.tenant is not None and self._tenant_ops_family is not None:
            # The family caches its children, so steady-state accounting
            # is one dict hit plus an attribute add per op.
            self._tenant_ops_family.labels(tenant=op.tenant).inc(op.weight)
        if op.completion is not None and not op.completion.triggered:
            op.completion.succeed(result)

    @property
    def completed_weight(self) -> int:
        """Total logical requests completed (weights summed)."""
        return self._completed_weight


#: Grants a :class:`OneSidedIo` holds (its ``held`` bits), each returned
#: on every exit path, and the sets of them its stages hold.
_SLOT_HELD, _CREDIT_HELD, _CPU_HELD = 1, 2, 4
_SLOT_AND_CREDIT_HELD = _SLOT_HELD | _CREDIT_HELD
_ISSUE_HELD = _SLOT_HELD | _CREDIT_HELD | _CPU_HELD
_REAP_HELD = _CREDIT_HELD | _CPU_HELD


class OneSidedIo(Event):
    """One submitted one-sided op as a chain of callbacks.

    Built like a verb (``net/qp.py``'s ``_Verb``), whose stages all end
    at known instants, but a stage here may also wait on an event: each
    stage is a plain function that runs when the previous wait ends,
    and the ``stage`` slot holds what comes next.  The callback is one
    bound method made per record (``_resume_handler``, as a process
    keeps one), and the reference cycle it makes ends when the record
    does.  A grant that is free at once costs no wait: the stage goes
    on in place (``try_acquire`` / ``try_get``).  A queued grant hangs the
    same stage on its event, which runs it again holding the grant
    (``held`` says how far it got).  No process, name or generator is
    built per op.  The stages, in order: the issue slot, the credit and
    the thread CPU, the issue charge and the post, the completion (one
    more hop when the post completed at once, on a QP in the error
    state), the thread CPU, the reap charge, the cross-NUMA hop and the
    settle.  A wait that ends at an instant known now (a charge, a hop)
    is a timed call of the callback with no event
    (:meth:`Environment.call_at`).  A wait on an event the stage was
    just handed (a grant or the post's completion, which nothing else
    waits on) sets that event's callback list, as ``Process._resume``
    does.

    Nobody waits in a frame for a record (docs/determinism-rules.md,
    "Run an I/O as a callback record"): :meth:`CacheDataPath.submit`
    starts one at once and ``op.completion`` carries the result, and a
    ``RedyCache`` read or write returned to its caller is a subclass
    (``core/client.py``) that starts at stages of its own
    (:meth:`__init__`'s ``stage``) and is its own completion event.  An
    op run from a caller's frame is the generator
    :meth:`CacheDataPath._one_sided` instead.

    A stage that raises returns every grant the record holds, and the
    record fails as a process's failure would have.
    """

    __slots__ = ("stage", "_resume_handler", "path", "op",
                 "thread_index", "thread", "connection", "held", "mark",
                 "completion")

    def __init__(self, path: "CacheDataPath", op: EngineOp,
                 thread_index: Optional[int] = None, stage=None):
        # Event's fields, set here rather than through its __init__.
        self.env = path.env
        self.callbacks = None
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.on_abandon = None
        self.path = path
        self.op = op
        self.thread_index = thread_index
        #: The stage the record runs next; a subclass may start it at
        #: one of its own.
        self.stage = OneSidedIo.begin if stage is None else stage
        self.held = 0
        self._resume_handler = self._resume

    @property
    def name(self) -> str:
        """What a failure report calls a submitted op (the name
        ``submit`` gave its process)."""
        return f"redy-client:{self.path.endpoint.name}:submit"

    def _resume(self, event: Optional[Event] = None) -> None:
        """Run the next stage; once the last one ran, finish."""
        try:
            self.stage(self, event)
        except BaseException as exc:  # noqa: BLE001 - routed like a process's
            self._resume_handler = None
            self._release()
            self._handle_failure(exc)
            return
        if self.stage is None:
            self._resume_handler = None
            self._finished()

    def _finished(self) -> None:
        """The last stage ran: a submitted op's ``op.completion`` fired
        at the settle, so nothing is left to hand on."""

    def _settled(self, result: OpResult) -> None:
        """The op settled with ``result``: that is the record's value,
        and the settle its last stage."""
        self._value = result
        self.stage = None

    # -- stages ----------------------------------------------------------

    def begin(self, _event: Optional[Event]) -> None:
        """The op reaches its client thread: take the issue slot, a
        queue-depth credit and the thread CPU, in that order, then pay
        the issue charge.  A grant that is not free at once hangs this
        stage on its event, and the stage runs again holding it: its
        bit is set in ``held`` before the wait, so the stage goes on
        from there."""
        held = self.held
        path = self.path
        if not held:
            op = self.op
            self.thread, connection = path._prepare(op, self.thread_index)
            if op.token is None or op.weight != 1:
                raise _direct_op_error(op)
            self.connection = connection
            stages = op.stages
            if stages is None and path.stamps_stages:
                stages = op.stages = OpStages(op.enqueued_at)
            if stages is not None:
                stages.queued = op.enqueued_at
            self.held = _SLOT_HELD
            slot = connection.issue_slot
            # Released in post(), or by _release() when a stage raises.
            if not slot.try_acquire():
                slot.acquire().callbacks = [self._resume_handler]
                return
        if held < _SLOT_AND_CREDIT_HELD:
            if path._batch_weight is not None:
                path._batch_weight.observe(1)
            self.mark = now = self.env.now
            stages = self.op.stages
            if stages is not None:
                stages.slot = now
            self.held = _SLOT_AND_CREDIT_HELD
            credits = self.connection.credits
            if not credits.try_get()[0]:
                credits.get().callbacks = [self._resume_handler]
                return
        if held < _ISSUE_HELD:
            now = self.env.now
            if path._credit_wait is not None:
                path._credit_wait.observe(now - self.mark)
            stages = self.op.stages
            if stages is not None:
                stages.credit = now
            self.held = _ISSUE_HELD
            cpu = self.thread.cpu
            # Released in post(), or by _release() when a stage raises.
            if not cpu.try_acquire():
                cpu.acquire().callbacks = [self._resume_handler]
                return
        env = self.env
        stages = self.op.stages
        if stages is not None:
            stages.cpu = env.now
        self.stage = OneSidedIo.post
        env.call_at(env.now + path._issue_charge(1),
                    self._resume_handler, None)

    def post(self, _event: Optional[Event]) -> None:
        """Post the op's one READ or WRITE verb."""
        connection = self.connection
        self.thread.cpu.release()
        self.held = _SLOT_AND_CREDIT_HELD
        op = self.op
        done = connection.qp.post(WorkRequest(
            RdmaOp.READ if op.is_read else RdmaOp.WRITE,
            op.token, op.offset, op.size, data=op.data))
        # Nobody gathers behind a one-sided op, so the slot is never
        # handed on (see _pass_issue_slot): it is released.
        connection.issue_slot.release()
        self.held = _CREDIT_HELD
        if op.stages is not None:
            op.stages.posted = self.env.now
        self.stage = (OneSidedIo.completed_at_post if done._triggered
                      else OneSidedIo.reap)
        done.callbacks = [self._resume_handler]

    def completed_at_post(self, event: Event) -> None:
        """A post to a QP in the error state completes inside post(); a
        waiter spawned at post found it processed and resumed one hop
        after its dispatch.  Keep that hop (it hands on the completion)."""
        self.stage = OneSidedIo.reap
        self.env._call_soon(self._resume_handler, event)

    def reap(self, event: Event) -> None:
        """The verb completed: take the thread CPU, then pay the reap
        charge.  A CPU not free at once runs this stage again, holding
        it."""
        if self.held == _CREDIT_HELD:
            self.completion = event._value
            stages = self.op.stages
            if stages is not None:
                stages.completed = self.env.now
            self.held = _REAP_HELD
            cpu = self.thread.cpu
            # Released in reaped(), or by _release() when a stage raises.
            if not cpu.try_acquire():
                cpu.acquire().callbacks = [self._resume_handler]
                return
        env = self.env
        stages = self.op.stages
        if stages is not None:
            stages.reaping = env.now
        self.stage = OneSidedIo.reaped
        env.call_at(env.now + self.path._reap_charge(),
                    self._resume_handler, None)

    def reaped(self, _event: Optional[Event]) -> None:
        """Reaped: free the thread CPU and take the cross-NUMA hop when
        threads are not affinitized (this stage runs again after it).
        Then return the credit and settle the op with its verb's
        outcome."""
        path = self.path
        op = self.op
        if self.held == _REAP_HELD:
            self.thread.cpu.release()
            self.held = _CREDIT_HELD
            if op.stages is not None:
                op.stages.reaped = self.env.now
            if not path.config.numa_affinity:
                env = self.env
                env.call_at(env.now + path._numa_penalty(),
                            self._resume_handler, None)
                return
        self.held = 0
        result = path._settle(self.connection, op, self.completion)
        if op.stages is not None:
            op.stages.settled = self.env.now
        self._settled(result)

    def _release(self) -> None:
        """Return every grant the record holds (a stage raised)."""
        held, self.held = self.held, 0
        if held & _CPU_HELD:
            self.thread.cpu.release()
        if held & _SLOT_HELD:
            self.connection.issue_slot.release()
        if held & _CREDIT_HELD:
            self.connection.credits.try_put(_CREDIT)
