"""Client-side data path: the executable version of Figure 6.

:class:`CacheDataPath` owns the client threads of one Redy cache.  Each
client thread runs one RDMA connection per attached cache server.  One
generator, :meth:`CacheDataPath.io`, runs an op to its
:class:`~repro.core.protocol.OpResult` in the caller's process
(``result = yield from path.io(op)``):

* on a configuration whose ops are one verb each (``uses_one_sided``,
  the §4.3 fast path), ``io`` issues, posts and reaps the verb itself.
  A per-connection *issue slot* (one holder, FIFO) orders a
  connection's ops as one sequential issuer would: an op takes its
  queue-depth credit and the thread CPU only once the op ahead of it
  is posted;
* a dependent read never batches: ``io`` issues it, chases the pointer
  (one verb program or two READs) and reaps it;
* on a batching configuration ``io`` puts the op into the connection's
  *batch ring* and waits for it.  An issuer loop gathers up to ``b``
  requests, takes a credit and writes them into the server's message
  ring as one batch; a completion loop reaps response batches from the
  client's response ring, runs callbacks and returns credits.  Only
  batching configurations run these loops.

All CPU charges go through one per-thread ``Resource`` so that issue and
reap cannot overlap in time -- they are the same hardware thread.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import RdmaConfig
from repro.core.protocol import (
    ConnectRequest,
    EngineOp,
    OpResult,
    RequestBatch,
)
from repro.core.server import CacheServer, RING_SLOT_BYTES
from repro.hardware.profiles import TestbedProfile
from repro.net.fabric import Endpoint
from repro.net.memory import MemoryRegion
from repro.net.programs import POINTER_BYTES, VerbProgram, chase_target
from repro.net.qp import QueuePair
from repro.net.verbs import Completion, RdmaOp, WorkRequest
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event, Ready
from repro.sim.resources import Resource, Store

#: Batch-weight histogram buckets: powers of two up to the largest batch
#: size the config space explores.
_BATCH_WEIGHT_BUCKETS = tuple(float(1 << i) for i in range(11))

__all__ = ["CacheDataPath", "EngineError"]


class EngineError(Exception):
    """Data-path misuse (no route for an op, engine not attached, ...)."""


def _lognormal_sigma(median: float, p99: float) -> float:
    if p99 <= median or median <= 0:
        return 0.0
    return math.log(p99 / median) / 2.326


class _Connection:
    """One client thread's connection to one cache server."""

    def __init__(self, env: Environment, connection_id: int,
                 server: CacheServer, qp: QueuePair,
                 request_ring_token, response_ring: MemoryRegion,
                 queue_depth: int):
        self.connection_id = connection_id
        self.server = server
        self.qp = qp
        self.request_ring_token = request_ring_token
        self.response_ring = response_ring
        #: Queue-depth credits: one per allowed in-flight operation.
        self.credits = Store(env, capacity=queue_depth)
        for _ in range(queue_depth):
            self.credits.try_put(object())
        #: The batch ring feeding this connection.
        self.batch_ring: Store = Store(env)
        #: In-flight request batches awaiting a response, by batch id,
        #: in post order (so the oldest deadline is the first entry's).
        self.outstanding: Dict[int, RequestBatch] = {}
        #: Whether the response watchdog has a deadline on the event list.
        self.watchdog_armed = False
        #: One-sided ops hold this from before their credit until after
        #: their post, so they issue one at a time, in arrival order.
        self.issue_slot = Resource(env, slots=1)


class _ClientThread:
    """One client thread: CPU resource + its connections."""

    def __init__(self, env: Environment, index: int):
        self.index = index
        self.cpu = Resource(env, slots=1)
        self.connections: Dict[str, _Connection] = {}
        self.response_store: Store = Store(env)
        #: region_id -> connection, for routing functional ops.
        self.routes: Dict[int, _Connection] = {}


class CacheDataPath:
    """The client half of one Redy cache's data path."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 config: RdmaConfig, client_endpoint: Endpoint,
                 rng: np.random.Generator, op_timeout: float = 0.05):
        self.env = env
        self.profile = profile
        self.config = config
        self.endpoint = client_endpoint
        self.rng = rng
        #: Response deadline for two-sided batches.  A server that dies
        #: after acknowledging a request never responds; the client
        #: fails those ops instead of hanging (real RDMA surfaces this
        #: as a QP timeout).
        self.op_timeout = op_timeout
        self.threads = [
            _ClientThread(env, i) for i in range(config.client_threads)]
        self._round_robin = 0
        self._connection_counter = 0
        #: Lifetime statistics.
        self.ops_completed = 0
        self.ops_failed = 0
        self._completed_weight = 0
        self._jitter_sigma = _lognormal_sigma(
            profile.cpu.numa_penalty_mean, profile.cpu.numa_penalty_p99)
        self._lock_sigma = _lognormal_sigma(
            profile.cpu.lock_contention_mean, profile.cpu.lock_contention_p99)
        metrics = registry_of(env)
        if metrics is not None:
            self._op_latency = metrics.histogram("engine.op_latency")
            self._credit_wait = metrics.histogram("engine.credit_wait")
            self._batch_weight = metrics.histogram(
                "engine.batch_weight", bounds=_BATCH_WEIGHT_BUCKETS)
            self._completed_counter = metrics.counter("engine.ops_completed")
            self._failed_counter = metrics.counter("engine.ops_failed")
            self._timeout_counter = metrics.counter("engine.timeouts")
            self._programs_counter = metrics.counter("engine.programs")
            self._two_hop_counter = metrics.counter("engine.two_hop_reads")
            self._fallback_counter = metrics.counter(
                "engine.program_fallbacks")
            self._cas_abort_counter = metrics.counter(
                "engine.program_cas_aborts")
            self._tenant_ops_family = metrics.counter("engine.tenant_ops")
        else:
            self._op_latency = None
            self._credit_wait = None
            self._batch_weight = None
            self._completed_counter = None
            self._failed_counter = None
            self._timeout_counter = None
            self._programs_counter = None
            self._two_hop_counter = None
            self._fallback_counter = None
            self._cas_abort_counter = None
            self._tenant_ops_family = None
        if not config.uses_one_sided:
            for thread in self.threads:
                env.process(self._completion_loop(thread),
                            name=f"redy-client:{client_endpoint.name}:"
                                 f"t{thread.index}:completions")

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
            connection = _Connection(
                self.env, self._connection_counter, server, qp,
                ring_token, ring, config.queue_depth)
            self._connection_counter += 1
            ring.attach_mailbox(
                lambda response, store=thread.response_store:
                    store.try_put(response))
            thread.connections[server.endpoint.name] = connection
            for token in reply.region_tokens:
                thread.routes[token.region_id] = connection
            if not config.uses_one_sided:
                self.env.process(
                    self._issuer_loop(thread, connection),
                    name=f"redy-client:{self.endpoint.name}:"
                         f"t{thread.index}:issue->{server.endpoint.name}")
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
                self.rng.normal(0.0, self._lock_sigma)
                - self._lock_sigma**2 / 2)
        if not self.config.numa_affinity:
            cost += cpu.numa_penalty_mean * math.exp(
                self.rng.normal(0.0, self._jitter_sigma)
                - self._jitter_sigma**2 / 2)
        return cost

    def io(self, op: EngineOp, thread_index: Optional[int] = None):
        """Run ``op`` on a client thread; returns its :class:`OpResult`.

        A generator for the caller's process: ``result = yield from
        path.io(op)``.  A one-sided op and a dependent read run issue,
        post and reap right here; a batching configuration's op goes
        through the batch ring and its ``completion`` event.
        """
        env = self.env
        op.enqueued_at = env.now
        if thread_index is None:
            thread_index = self._round_robin % len(self.threads)
            self._round_robin += 1
        thread = self.threads[thread_index % len(self.threads)]
        connection = self._route(thread, op)
        if op.is_dependent:
            # Dependent GETs never enter the message-ring batching
            # protocol: each is posted on its own doorbell (a verb
            # program or two-hop READs keep the pointer-chase semantics).
            if op.token is None:
                raise EngineError("dependent reads need a region token")
            if op.weight != 1:
                raise EngineError("dependent reads are weight-1 ops")
            return (yield from self._bypass(thread, connection, op))
        if not self.config.uses_one_sided:
            if op.completion is None:
                op.completion = env.event()
            yield connection.batch_ring.put(op)
            return (yield op.completion)
        if op.token is None:
            raise EngineError("one-sided ops need a region token")
        if op.weight != 1:
            raise EngineError("one-sided ops are weight-1 ops")
        slot = connection.issue_slot
        yield slot.acquire()
        try:
            yield from self._issue(thread, connection, op)
            done = connection.qp.post(WorkRequest(
                RdmaOp.READ if op.is_read else RdmaOp.WRITE,
                op.token, op.offset, op.size, data=op.data))
        finally:
            slot.release()
        completed_at_post = done.triggered
        completion = yield done
        if completed_at_post:
            # A post to a QP in the error state completes inside post();
            # a waiter spawned at post found it processed and resumed
            # one hop after its dispatch.  Keep that hop.
            yield env.timeout(0)
        return (yield from self._reap(thread, connection, op, completion))

    def submit(self, op: EngineOp,
               thread_index: Optional[int] = None) -> Event:
        """Start ``op`` for a caller that waits on events rather than
        running it in its own process (a cache I/O across regions keeps
        its fragments in flight together this way): :meth:`io` runs in
        a process of its own, and ``op.completion`` (created here when
        unset) fires with the op's :class:`OpResult`.  Returns a
        :class:`Ready`: nothing waits for the op to be accepted.
        """
        if op.completion is None:
            op.completion = self.env.event()
        self.env.start(self.io(op, thread_index),
                       name=f"redy-client:{self.endpoint.name}:submit")
        return Ready(self.env)

    def _route(self, thread: _ClientThread, op: EngineOp) -> _Connection:
        if op.token is not None:
            connection = thread.routes.get(op.token.region_id)
            if connection is None:
                raise EngineError(
                    f"no route for region {op.token.region_id}")
            return connection
        if not thread.connections:
            raise EngineError("no attached cache server")
        return next(iter(thread.connections.values()))

    def _noise(self) -> float:
        sigma = self.profile.measurement_noise
        return math.exp(self.rng.normal(0.0, sigma)) if sigma else 1.0

    def _issuer_loop(self, thread: _ClientThread, connection: _Connection):
        # Hot loop (once per batch): the profile and config are frozen
        # for the engine's lifetime, so every per-iteration cost below
        # is hoisted.  `base_work + weight * per_op` preserves the exact
        # float association of the original expression.
        cpu, nic = self.profile.cpu, self.profile.nic
        config = self.config
        env = self.env
        ring_get = connection.batch_ring.get
        ring_try_get = connection.batch_ring.try_get
        credits_get = connection.credits.get
        cpu_acquire = thread.cpu.acquire
        cpu_release = thread.cpu.release
        batch_size = config.batch_size
        base_work = cpu.batch_prepare + nic.doorbell
        per_op = cpu.client_per_op
        numa_affinity = config.numa_affinity
        lock_free = config.lock_free
        batch_weight = self._batch_weight
        credit_wait = self._credit_wait
        sigma = self.profile.measurement_noise
        while True:
            first = yield ring_get()
            batch_ops = [first]
            weight = first.weight
            while weight < batch_size:
                ok, op = ring_try_get()
                if not ok:
                    break
                batch_ops.append(op)
                weight += op.weight
            if batch_weight is not None:
                batch_weight.observe(weight)
            credit_wait_started = env.now
            yield credits_get()
            if credit_wait is not None:
                credit_wait.observe(env.now - credit_wait_started)

            yield cpu_acquire()
            work = base_work + weight * per_op
            if not numa_affinity:
                work += weight * cpu.numa_cpu_per_op
            if not lock_free:
                # The consumer side of the mutex-protected queue pays the
                # same lock acquisition + contention as the producer.
                work += weight * (cpu.handoff_locked
                                  + cpu.lock_contention_mean * math.exp(
                                      self.rng.normal(0.0, self._lock_sigma)
                                      - self._lock_sigma**2 / 2))
            # Inlined self._noise(): same single RNG draw.
            noise = math.exp(self.rng.normal(0.0, sigma)) if sigma else 1.0
            yield env.timeout(work * noise)
            cpu_release()

            batch = RequestBatch(ops=batch_ops,
                                 connection_id=connection.connection_id,
                                 created_at=env.now)
            connection.outstanding[batch.batch_id] = batch
            wr = WorkRequest(
                RdmaOp.WRITE, connection.request_ring_token, 0,
                batch.wire_bytes, payload_object=batch, signaled=False)
            self._watch_batch(connection, batch, connection.qp.post(wr))

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

    def _bypass(self, thread: _ClientThread, connection: _Connection,
                op: EngineOp):
        """A dependent GET outside the batching protocol: issue, chase
        (see :meth:`_chase`), reap; returns the op's result."""
        yield from self._issue(thread, connection, op)
        completion = yield from self._chase(thread, connection, op)
        return (yield from self._reap(thread, connection, op, completion))

    def _issue(self, thread: _ClientThread, connection: _Connection,
               op: EngineOp):
        """Take a queue-depth credit, then charge the client CPU for
        building and posting one work request.

        A one-sided op came through the batch ring as a one-op batch:
        it observes batch weight 1 and pays the ring consumer's charges
        (cross-NUMA work, the mutex when the ring is not lock-free), as
        the issuer loop charges a batch.  A dependent read bypasses the
        ring and pays neither.
        """
        env = self.env
        cpu, nic = self.profile.cpu, self.profile.nic
        dequeued = not op.is_dependent
        if dequeued and self._batch_weight is not None:
            self._batch_weight.observe(1)
        credit_wait_started = env.now
        yield connection.credits.get()
        if self._credit_wait is not None:
            self._credit_wait.observe(env.now - credit_wait_started)
        yield thread.cpu.acquire()
        try:
            work = cpu.batch_prepare + nic.doorbell + cpu.client_per_op
            if dequeued:
                if not self.config.numa_affinity:
                    work += cpu.numa_cpu_per_op
                if not self.config.lock_free:
                    work += cpu.handoff_locked + cpu.lock_contention_mean * (
                        math.exp(self.rng.normal(0.0, self._lock_sigma)
                                 - self._lock_sigma**2 / 2))
            yield env.timeout(work * self._noise())
        finally:
            thread.cpu.release()

    def _reap(self, thread: _ClientThread, connection: _Connection,
              op: EngineOp, completion: Completion):
        """Reap one verb completion: poll + callback on the client CPU,
        the cross-NUMA hop when threads are not affinitized, then return
        the credit and settle the op; returns its result.

        An op run in its caller's process (no ``completion`` event)
        returns into that process at once -- unless another entry is
        due at this instant: then one zero hop puts the caller behind
        it, where a waiter on the op's completion event would have
        resumed.
        """
        env = self.env
        cpu = self.profile.cpu
        yield thread.cpu.acquire()
        try:
            work = self.profile.nic.completion_poll + cpu.callback
            yield env.timeout(work * self._noise())
        finally:
            thread.cpu.release()
        if not self.config.numa_affinity:
            yield env.timeout(cpu.numa_penalty_mean * math.exp(
                self.rng.normal(0.0, self._jitter_sigma)
                - self._jitter_sigma**2 / 2))
        connection.credits.try_put(object())
        result = OpResult(
            ok=completion.ok, data=completion.data, error=completion.error,
            latency=env.now - op.enqueued_at)
        self._finish(op, result)
        if op.completion is None and env.due_now():
            yield env.timeout(0)
        return result

    def _chase(self, thread: _ClientThread, connection: _Connection,
               op: EngineOp):
        """The dependent GET's transport: index word first, then the
        record; returns the completion that answers the op.

        With ``use_verb_programs`` on the whole chain is one posted
        program -- one round trip.  Otherwise, or when the program
        completes in error (CAS guard abort, region revoked mid-chain),
        the classic two-hop READ sequence runs as the fallback; an op
        only fails if the fallback fails too, so no acked read is lost
        to the optimization.
        """
        if self.config.use_verb_programs:
            program = VerbProgram(
                pointer_offset=op.lookup_offset,
                read_bytes=op.size,
                fallback_offset=op.offset,
                verify=op.verify)
            if self._programs_counter is not None:
                self._programs_counter.inc()
            completion = yield connection.qp.post_program(program, op.token)
            if completion.cas_aborted and self._cas_abort_counter is not None:
                self._cas_abort_counter.inc()
            if completion.ok:
                return completion
            # Abort fallback: re-run the access as the classic two-hop
            # sequence (it re-samples the pointer, so a guard abort
            # resolves to the post-move location).
            if self._fallback_counter is not None:
                self._fallback_counter.inc()
        if self._two_hop_counter is not None:
            self._two_hop_counter.inc()
        return (yield from self._two_hop_read(thread, connection, op))

    def _two_hop_read(self, thread: _ClientThread, connection: _Connection,
                      op: EngineOp):
        """The classic dependent GET: READ the pointer word, reap it,
        parse, then READ the record -- two full round trips plus a
        client-CPU turnaround between them."""
        cpu, nic = self.profile.cpu, self.profile.nic
        first = yield connection.qp.post(WorkRequest(
            RdmaOp.READ, op.token, op.lookup_offset, POINTER_BYTES))
        if not first.ok:
            return first
        # Turnaround: poll the completion, parse the pointer, build and
        # ring the doorbell for the second READ.
        yield thread.cpu.acquire()
        try:
            work = nic.completion_poll + cpu.callback + nic.doorbell
            yield self.env.timeout(work * self._noise())
        finally:
            thread.cpu.release()
        second = yield connection.qp.post(WorkRequest(
            RdmaOp.READ, op.token, chase_target(first.data, op.offset),
            op.size))
        return second

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
        self.env.timeout_at(deadline)._add_callback(
            lambda _event: self._watchdog(connection))

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
            batch = next(iter(outstanding.values()))
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
        if connection.outstanding.pop(batch.batch_id, None) is None:
            return False  # already answered or already aborted
        connection.credits.try_put(object())
        for op in batch.ops:
            self._finish(op, OpResult(
                ok=False, error=error,
                latency=self.env.now - op.enqueued_at))
        return True

    def _completion_loop(self, thread: _ClientThread):
        # Hot loop (once per response batch); hoisted like _issuer_loop.
        cpu, nic = self.profile.cpu, self.profile.nic
        env = self.env
        store_get = thread.response_store.get
        cpu_acquire = thread.cpu.acquire
        cpu_release = thread.cpu.release
        poll = nic.completion_poll
        per_op = cpu.client_per_op + cpu.callback
        numa_affinity = self.config.numa_affinity
        sigma = self.profile.measurement_noise
        finish = self._finish
        while True:
            response = yield store_get()
            yield cpu_acquire()
            weight = sum(op.weight for op in response.ops)
            work = poll + weight * per_op
            # Inlined self._noise(): same single RNG draw.
            noise = math.exp(self.rng.normal(0.0, sigma)) if sigma else 1.0
            yield env.timeout(work * noise)
            cpu_release()
            if not numa_affinity:
                yield env.timeout(cpu.numa_penalty_mean * math.exp(
                    self.rng.normal(0.0, self._jitter_sigma)
                    - self._jitter_sigma**2 / 2))
            connection = self._connection_by_id(thread,
                                                response.connection_id)
            if connection is not None:
                if connection.outstanding.pop(response.batch_id,
                                              None) is None:
                    continue  # batch already timed out and was failed
                connection.credits.try_put(object())
            now = env.now
            for op, result in zip(response.ops, response.results):
                result.latency = now - op.enqueued_at
                finish(op, result)

    def _connection_by_id(self, thread: _ClientThread,
                          connection_id: int) -> Optional[_Connection]:
        for connection in thread.connections.values():
            if connection.connection_id == connection_id:
                return connection
        return None

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
