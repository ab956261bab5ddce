"""Integration tests: the executable data path (engine + cache server)."""

import dataclasses
import math
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.analysis.sanitize import KernelMonitor
from repro.cluster.vmtypes import VmType
from repro.core import RdmaConfig, Slo, engine
from repro.core.engine import _NORMAL_BLOCK, CacheDataPath, EngineError
from repro.core.measurement import measure_config
from repro.core.protocol import ConnectRequest, EngineOp, RequestBatch
from repro.core.server import CacheServer
from repro.hardware import AZURE_HPC
from repro.net import (
    Fabric,
    MemoryRegion,
    Placement,
    QueuePair,
    RdmaOp,
    WorkRequest,
)
from repro.sim import US, Environment
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_cluster


#: Every case runs bare and under the dispatch-order check (see
#: ``tests/conftest.py``).
LOOPS = ["calendar", "heap"]


def make_stack(config, *, backed=True, region_size=1 << 20, n_regions=1,
               seed=0, model_control_plane=False, env=None,
               profile=AZURE_HPC):
    rngs = RngRegistry(seed)
    if env is None:
        env = Environment()
    fabric = Fabric(env, profile,
                    model_control_plane=model_control_plane)
    client_ep = fabric.add_endpoint("client", Placement())
    server_ep = fabric.add_endpoint("server", Placement())
    server = CacheServer(env, profile, server_ep, rngs.stream("server"))
    path = CacheDataPath(env, profile, config, client_ep,
                         rngs.stream("client"))
    tokens = path.attach_server(server, n_regions=n_regions,
                                region_size=region_size, backed=backed)
    return env, server, path, tokens


def run_op(env, path, op):
    def proc(env):
        yield env.timeout(path.submission_overhead())
        return (yield from path.io(op))

    return env.run_process(proc(env))


class TestSingleOpReap:
    """A one-sided READ and WRITE share one reap: both pay the
    cross-NUMA hop when client threads are not affinitized."""

    @pytest.mark.parametrize("is_read", [True, False],
                             ids=["read", "write"])
    def test_unaffinitized_threads_pay_the_numa_hop(self, is_read):
        def latency(numa_affinity):
            config = RdmaConfig(1, 0, 1, 4, numa_affinity=numa_affinity)
            env, _, path, tokens = make_stack(config, seed=3)
            op = EngineOp(is_read=is_read, size=8, token=tokens[0])

            def proc(env):
                # Run directly: submission_overhead() would draw NUMA
                # jitter from the same RNG stream before the op.
                return (yield from path.io(op))

            result = env.run_process(proc(env))
            assert result.ok
            return result.latency

        assert latency(False) > latency(True)


class _ChargeLog(Environment):
    """An Environment that logs the delay of every timeout."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def timeout(self, delay):
        self.charges.append(delay)
        return super().timeout(delay)


class _PerCallNormal:
    """Stands in for the data path's next standard normal: its product
    with a site's sigma is ``twin.normal(0.0, sigma)``, the draw the
    site made per call before the path drew normals in blocks."""

    def __init__(self, twin):
        self.twin = twin
        self.sigmas = []

    def __rmul__(self, sigma):
        self.sigmas.append(sigma)
        return float(self.twin.normal(0.0, sigma))


class TestBlockDraws:
    """The data path draws its standard normals in blocks; every charge
    equals the one made from per-call ``rng.normal(0.0, sigma)`` draws
    on a twin of its stream, and every site still takes its draw."""

    def test_block_draws_equal_per_call_draws(self):
        # Mutex hand-off and unaffinitized threads: all five sites draw.
        # The lock tail's sigma is 0, and its draws must still be taken.
        cpu = dataclasses.replace(
            AZURE_HPC.cpu,
            lock_contention_p99=AZURE_HPC.cpu.lock_contention_mean)
        profile = dataclasses.replace(AZURE_HPC, cpu=cpu)
        config = RdmaConfig(2, 0, 1, 4, lock_free=False,
                            numa_affinity=False)
        workers, ops_per_worker = 4, 60

        def run(per_call):
            env = _ChargeLog()
            _, _, path, tokens = make_stack(config, env=env, seed=5,
                                            profile=profile)
            if per_call is not None:
                path._normal = lambda: per_call

            def worker(env, index):
                for i in range(ops_per_worker):
                    op = EngineOp(is_read=bool(i % 3), size=64,
                                  token=tokens[0], offset=index * 4096,
                                  data=None if i % 3 else bytes(64))
                    yield env.timeout(path.submission_overhead())
                    assert (yield from path.io(op)).ok

            for index in range(workers):
                env.process(worker(env, index))
            env.run()
            return path, env.charges

        per_call = _PerCallNormal(RngRegistry(5).stream("client"))
        path, expected = run(per_call)
        # Per op: the hand-off's lock and NUMA draws, the lock and
        # noise draws of the post, the reap's noise draw and the NUMA
        # hop's.
        ops = workers * ops_per_worker
        assert Counter(per_call.sigmas) == {
            0.0: 2 * ops, path._jitter_sigma: 2 * ops,
            profile.measurement_noise: 2 * ops}
        assert len(per_call.sigmas) > 2 * _NORMAL_BLOCK
        assert run(None)[1] == expected


class _ServerCharges(Environment):
    """An Environment that logs the delay of every timeout the cache
    server's thread loop takes."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def timeout(self, delay):
        if sys._getframe(1).f_code is CacheServer._thread_loop.__code__:
            self.charges.append(delay)
        return super().timeout(delay)


class TestServerDraws:
    """The server thread draws its poll delay as ``random() * cycle``
    and its noise as ``sigma * standard_normal()``: bit for bit the
    ``uniform(0, cycle)`` and ``normal(0, sigma)`` draws it made before,
    in the same interleaving on the same stream."""

    CYCLE = AZURE_HPC.cpu.server_poll_cycle
    SIGMA = AZURE_HPC.measurement_noise

    def test_products_equal_the_distribution_draws(self):
        stream = RngRegistry(11).stream("server")
        twin = RngRegistry(11).stream("server")
        drawn, expected = [], []
        for _ in range(20_000):
            drawn.append(stream.random() * self.CYCLE)
            drawn.append(self.SIGMA * stream.standard_normal())
            expected.append(twin.uniform(0.0, self.CYCLE))
            expected.append(twin.normal(0.0, self.SIGMA))
        assert drawn == expected

    def test_thread_charges_equal_per_call_draws(self):
        env = _ServerCharges()
        fabric = Fabric(env, AZURE_HPC)
        server = CacheServer(env, AZURE_HPC,
                             fabric.add_endpoint("server", Placement()),
                             RngRegistry(11).stream("server"))
        client = fabric.add_endpoint("client", Placement())
        ring = client.register(MemoryRegion(4096, backing=False))
        reply = server.connect(ConnectRequest(
            "client", n_regions=1, region_size=1 << 20, server_threads=1,
            queue_depth=4, connections=1, response_ring_tokens=[ring.token],
            backed=False), client)
        token = reply.region_tokens[0]
        request_ring = server.endpoint.find_region(
            reply.request_ring_tokens[0].region_id)
        batches = [
            RequestBatch([EngineOp(is_read=bool((i + j) % 2),
                                   size=8 << ((i + j) % 6), token=token,
                                   weight=1 + (i * j) % 4)
                          for j in range(1 + i % 3)], 0.0, i + 1)
            for i in range(40)]

        def client_loop():
            # One batch at a time: each is served before the next lands.
            for batch in batches:
                request_ring.deliver(batch)
                yield env.timeout(50 * US)

        env.process(client_loop())
        env.run()
        assert server.batches_processed == len(batches)

        cpu = AZURE_HPC.cpu
        twin = RngRegistry(11).stream("server")
        expected = []
        for batch in batches:
            expected.append(twin.uniform(0.0, self.CYCLE))
            work = cpu.server_batch_overhead
            for op in batch.ops:
                work += op.weight * cpu.server_op_cost(op.size, 1)
            work *= math.exp(twin.normal(0.0, self.SIGMA))
            expected += [work, AZURE_HPC.nic.doorbell]
        assert env.charges == expected


def test_same_seed_runs_issue_identical_batch_ids(monkeypatch):
    """Batch ids count per connection, so a second same-seed run in the
    same interpreter issues the first one's ids again."""
    issued = []

    class Recorded(RequestBatch):
        def __post_init__(self):
            super().__post_init__()
            issued.append(self.batch_id)

    monkeypatch.setattr(engine, "RequestBatch", Recorded)
    runs = []
    for _ in range(2):
        measure_config(RdmaConfig(2, 2, 4, 4), 64, batches_per_connection=10,
                       warmup_batches=2, seed=0)
        runs.append(issued[:])
        issued.clear()
    assert runs[0] == runs[1]
    assert len(runs[0]) > 20 and min(runs[0]) == 1


class TestInProcessOps:
    """A one-sided op runs issue, post and reap in its caller's process,
    and its verb runs as a chain of timeout callbacks: it spawns no
    process."""

    def test_one_sided_read_io_spawns_no_process(self):
        harness = build_cluster(seed=0)
        cache = harness.redy_client("spawns").create(
            1 << 20, Slo(max_latency=20e-6, min_throughput=2e6,
                         record_size=64),
            region_bytes=1 << 20)
        assert cache.allocation.config.uses_one_sided
        env = harness.env
        spawned = []

        class Spawns(KernelMonitor):
            def on_spawn(self, process):
                spawned.append(process.name)

        def reader():
            env.monitor = Spawns()
            try:
                return (yield from cache.read_io(4096, 64))
            finally:
                env.monitor = None

        assert env.run_process(reader()).ok
        assert spawned == []

    def test_submit_runs_the_op_and_fires_its_completion(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 0, 1, 4))
        op = EngineOp(is_read=False, size=4, token=tokens[0], data=b"abcd")

        def proc(env):
            path.submit(op)
            return (yield op.completion)

        assert env.run_process(proc(env)).ok
        assert path.ops_completed == 1


class TestCompletionCallbacks:
    """The engine watches posted batches with completion callbacks, not
    waiter processes.  A callback must run exactly where a waiter
    spawned at post time would have resumed -- also when the post
    completed at once (a QP in the error state)."""

    @pytest.mark.parametrize("make_env", LOOPS, indirect=True)
    @pytest.mark.parametrize("at_post", [False, True],
                             ids=["pending", "completed-at-post"])
    def test_callback_runs_where_a_spawned_waiter_resumed(self, make_env,
                                                          at_post):
        def order(use_callback):
            env = make_env()
            log = []

            def bystander(tag):
                log.append(tag)
                yield env.timeout(0)
                log.append(tag + "+")

            def waiter(event):
                log.append((yield event))

            def poster():
                event = env.event()
                if at_post:
                    event.succeed("done")
                if use_callback:
                    CacheDataPath._on_completion(
                        SimpleNamespace(env=env), event,
                        lambda ev: log.append(ev.value))
                else:
                    env.process(waiter(event))
                env.process(bystander("a"))
                yield env.timeout(0)
                if not at_post:
                    event.succeed("done")
                    env.process(bystander("b"))

            env.process(poster())
            env.run()
            return log

        assert order(use_callback=True) == order(use_callback=False)


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
class TestInPlaceLaunchFailurePaths:
    """A verb's executor starts inside ``post()`` (and inside ``_finish``
    and the post-establishment backlog drain), not on a bootstrap entry.
    A launch that fails at once -- the requester is dead -- must still
    complete where the bootstrapped executor completed it: behind the
    entries queued after the launch in the same instant.  Each expected
    log is what bootstrapped launches produce."""

    @staticmethod
    def _pair(make_env, depth=1, deferred=False):
        env = make_env()
        fabric = Fabric(env, AZURE_HPC)
        client = fabric.add_endpoint("client")
        server = fabric.add_endpoint("server")
        region = server.register(MemoryRegion(4096))
        qp = QueuePair(env, client, server, max_depth=depth,
                       deferred=deferred)
        return env, client, qp, WorkRequest(RdmaOp.READ, region.token, 0, 8)

    def test_post_from_a_dead_requester(self, make_env):
        env, client, qp, wr = self._pair(make_env)
        log = []

        def bystander():
            log.append("bystander")
            yield env.timeout(0)
            log.append("bystander+")

        def poster():
            yield env.timeout(1 * US)
            client.fail()
            qp.post(wr)._add_callback(
                lambda event: log.append(("done", event.value.error)))
            env.process(bystander())
            marker = env.event()
            marker.succeed()
            marker._add_callback(lambda event: log.append("marker"))

        env.process(poster())
        env.run()
        assert log == ["bystander", "marker",
                       ("done", "local endpoint down"), "bystander+"]

    def test_backlog_launch_from_finish(self, make_env):
        env, client, qp, wr = self._pair(make_env)
        log = []
        first = qp.post(wr)
        second = qp.post(WorkRequest(RdmaOp.READ, wr.token, 8, 8))
        for name, event in (("first", first), ("second", second)):
            event._add_callback(
                lambda event, name=name: log.append((name, event.value.error)))

        def killer():
            yield env.timeout(1 * US)  # the first READ is on the wire
            client.fail()

        env.process(killer())
        env.run()
        assert log == [("first", None), ("second", "local endpoint down")]
        assert first.value.completed_at == second.value.completed_at

    def test_backlog_drain_after_establishment(self, make_env):
        probe_env, _, probe, _ = self._pair(make_env, deferred=True)
        probe.establish()
        probe_env.run()

        env, client, qp, wr = self._pair(make_env, deferred=True)
        log = []
        qp.post(wr)._add_callback(
            lambda event: log.append(("done", event.value.error)))
        qp.establish()._add_callback(
            lambda event: log.append(("established", event.value)))

        def killer():
            # Inside the handshake's last leg: establishment succeeds,
            # then drains the backlog from a dead requester.
            yield env.timeout(probe.established_at - 0.1 * US)
            client.fail()

        env.process(killer())
        env.run()
        assert log == [("established", True), ("done", "local endpoint down")]


class TestFunctionalDataPath:
    def test_one_sided_write_then_read_round_trip(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 0, 1, 4))
        token = tokens[0]
        write = EngineOp(is_read=False, size=11, token=token, offset=64,
                         data=b"hello redy!")
        assert run_op(env, path, write).ok
        read = EngineOp(is_read=True, size=11, token=token, offset=64)
        result = run_op(env, path, read)
        assert result.ok
        assert result.data == b"hello redy!"

    def test_two_sided_write_then_read_round_trip(self):
        config = RdmaConfig(2, 2, 4, 4, one_sided_fast_path=False)
        env, _, path, tokens = make_stack(config)
        token = tokens[0]
        write = EngineOp(is_read=False, size=5, token=token, offset=100,
                         data=b"batch")
        assert run_op(env, path, write).ok
        read = EngineOp(is_read=True, size=5, token=token, offset=100)
        result = run_op(env, path, read)
        assert result.ok
        assert result.data == b"batch"

    def test_ops_batch_when_queued_together(self):
        config = RdmaConfig(1, 1, 8, 4)
        env, server, path, tokens = make_stack(config)
        token = tokens[0]

        def proc(env):
            ops = [env.process(path.io(
                EngineOp(is_read=False, size=4, token=token, offset=i * 4,
                         data=b"abcd"), thread_index=0))
                for i in range(8)]
            yield env.all_of(ops)

        env.run_process(proc(env))
        # Eight ops started in one instant on one thread with b=8 travel
        # as one batch: the first op's caller gathers the other seven.
        assert server.batches_processed == 1
        assert server.ops_processed == 8

    def test_out_of_bounds_op_fails_cleanly(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 1, 4, 4,
                                                     one_sided_fast_path=False),
                                          region_size=128)
        op = EngineOp(is_read=True, size=64, token=tokens[0], offset=100)
        result = run_op(env, path, op)
        assert not result.ok
        assert "out of bounds" in result.error or "outside" in result.error

    def test_multi_region_routing(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 0, 1, 4),
                                          n_regions=3, region_size=4096)
        for i, token in enumerate(tokens):
            payload = bytes([i]) * 8
            write = EngineOp(is_read=False, size=8, token=token, offset=0,
                             data=payload)
            assert run_op(env, path, write).ok
        for i, token in enumerate(tokens):
            read = EngineOp(is_read=True, size=8, token=token, offset=0)
            assert run_op(env, path, read).data == bytes([i]) * 8

    def test_unknown_region_rejected(self):
        env, _, path, _ = make_stack(RdmaConfig(1, 0, 1, 4))
        from repro.net.memory import AccessToken
        bogus = AccessToken(region_id=999999, key=1, size=64)
        op = EngineOp(is_read=True, size=8, token=bogus)
        with pytest.raises(EngineError):
            env.run_process(path.io(op))


class TestFailureVisibility:
    def test_server_failure_fails_one_sided_ops(self):
        env, server, path, tokens = make_stack(RdmaConfig(1, 0, 1, 4))
        server.fail()
        op = EngineOp(is_read=True, size=8, token=tokens[0])
        result = run_op(env, path, op)
        assert not result.ok

    def test_server_failure_fails_two_sided_ops(self):
        config = RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config)
        server.fail()
        op = EngineOp(is_read=True, size=8, token=tokens[0])
        result = run_op(env, path, op)
        assert not result.ok
        assert path.ops_failed == 1


class TestStatistics:
    def test_completed_weight_counts_logical_ops(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 1, 8, 4))
        op = EngineOp(is_read=False, size=8, token=tokens[0], weight=8)
        run_op(env, path, op)
        assert path.ops_completed == 1
        assert path.completed_weight == 8


def _drop_requests(server, connection_id, dropped):
    """Lose request batches on one connection's ring before the server
    sees them: the batch is acknowledged, no response ever comes.
    ``dropped(batch)`` decides per batch; lost batches are returned."""
    ring = server._connections[connection_id].request_ring
    deliver, lost = ring._mailbox, []

    def mailbox(batch):
        if dropped(batch):
            lost.append(batch)
        else:
            deliver(batch)

    ring.attach_mailbox(mailbox)
    return lost


class TestResponseTimeout:
    """One response watchdog per connection fails each unanswered batch
    at its own deadline, ``created_at + op_timeout`` (§6.2)."""

    def test_server_death_after_ack_fails_ops_instead_of_hanging(self):
        """The §6.2 hang window: the server receives the request batch
        (the RDMA write is acknowledged) and dies before responding.
        The client's response timeout must fail the ops."""
        config = RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config)
        path.op_timeout = 0.001  # keep the test fast
        connection = path.threads[0].connections["server"]

        def scenario(env):
            op = EngineOp(is_read=True, size=8, token=tokens[0])
            running = env.process(path.io(op, thread_index=0))
            # Let the request land (delivery ~2.4us), then kill the VM
            # mid-processing, before any response can be posted (~3.3us).
            yield env.timeout(2.6e-6)
            ((batch, _),) = connection.outstanding.values()
            server.fail()
            result = yield running
            return result, env.now, batch.created_at + path.op_timeout

        result, when, deadline = env.run_process(scenario(env))
        assert not result.ok
        assert "no response" in result.error
        assert when == deadline

    def test_timeout_does_not_fire_for_healthy_batches(self):
        config = RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config)
        path.op_timeout = 0.001

        def scenario(env):
            results = []
            for i in range(10):
                op = EngineOp(is_read=False, size=8, token=tokens[0],
                              offset=i * 8, data=bytes([i]) * 8)
                results.append((yield from path.io(op, thread_index=0)))
            # Run past every watchdog deadline: nothing double-fires.
            yield env.timeout(0.01)
            return results

        results = env.run_process(scenario(env))
        assert all(r.ok for r in results)
        assert path.ops_failed == 0

    @pytest.mark.parametrize("make_env", LOOPS, indirect=True)
    def test_stuck_batches_fail_at_their_own_deadlines(self, make_env):
        """Two server threads, one per connection.  On each connection
        the oldest batch is lost and newer ones are answered; later a
        second batch is lost on connection 0.  Every lost batch fails at
        its own deadline, and no answered batch fails."""
        config = RdmaConfig(2, 2, 1, 4, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config, env=make_env())
        path.op_timeout = 0.001
        stuck = {0: {0, 5}, 1: {0}}  # per connection: lost op indices
        lost_per_connection = [_drop_requests(
            server, index,
            lambda batch, lose=stuck[index]: batch.ops[0].offset // 8 in lose)
            for index in (0, 1)]
        failed_at = {}

        def client(env, index, ops):
            answered = []
            for i in range(ops):
                op = EngineOp(is_read=True, size=8, token=tokens[0],
                              offset=i * 8)
                running = env.process(path.io(op, thread_index=index))
                if i in stuck[index]:
                    running._add_callback(
                        lambda event, op=op: failed_at.setdefault(
                            id(op), (env.now, event.value)))
                    yield env.timeout(20e-6)  # newer batches go out behind
                else:
                    answered.append((yield running))
            return answered

        clients = [env.process(client(env, 0, 8)),
                   env.process(client(env, 1, 4))]
        env.run()
        answered = clients[0].value + clients[1].value
        assert len(answered) == 9 and all(r.ok for r in answered)
        lost = lost_per_connection[0] + lost_per_connection[1]
        assert len(lost) == 3 and path.ops_failed == 3
        for batch in lost:
            (op,) = batch.ops
            when, result = failed_at[id(op)]
            assert "no response" in result.error
            assert when == batch.created_at + path.op_timeout

    @pytest.mark.parametrize("make_env", LOOPS, indirect=True)
    def test_outstanding_batches_share_one_deadline_entry(self, make_env):
        """N unanswered batches on one connection leave one entry on the
        event list (the connection's watchdog), not one timer each."""
        config = RdmaConfig(1, 1, 1, 8, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config, env=make_env())
        lost = _drop_requests(server, 0, lambda batch: True)
        runs = []

        def scenario(env):
            for i in range(8):
                op = EngineOp(is_read=True, size=8, token=tokens[0],
                              offset=i * 8)
                runs.append(env.process(path.io(op, thread_index=0)))
                yield env.timeout(1e-6)
            # Every request write has landed; only deadlines remain.
            yield env.timeout(20e-6)
            return env.event_loop_stats()["pending"]

        assert env.run_process(scenario(env)) == 1
        assert len(lost) == 8
        env.run()
        assert [run.value.ok for run in runs] == [False] * 8
        assert path.ops_failed == 8

    @pytest.mark.parametrize("make_env", LOOPS, indirect=True)
    def test_batch_answered_a_tick_before_its_deadline_survives(
            self, make_env):
        config = RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False)

        def run(op_timeout):
            env, _, path, tokens = make_stack(config, env=make_env())
            if op_timeout is not None:
                path.op_timeout = op_timeout
            connection = path.threads[0].connections["server"]

            def scenario(env):
                op = EngineOp(is_read=True, size=8, token=tokens[0])
                running = env.process(path.io(op, thread_index=0))
                yield env.timeout(1e-6)
                ((batch, _),) = connection.outstanding.values()
                result = yield running
                return result, batch.created_at, env.now

            outcome = env.run_process(scenario(env))
            env.run()  # past every deadline
            return outcome, path

        (_, created, answered), _ = run(None)
        # The smallest op_timeout whose deadline falls after the reap.
        op_timeout = answered - created
        while created + op_timeout <= answered:
            op_timeout = math.nextafter(op_timeout, math.inf)
        assert math.nextafter(answered, math.inf) == created + op_timeout
        (result, _, when), path = run(op_timeout)
        assert when == answered
        assert result.ok
        assert path.ops_failed == 0


class TestResponsesFindTheirConnection:
    """A response batch comes back through the response ring of the
    connection that sent the request, whatever number the server gave
    that connection."""

    @staticmethod
    def _testbed():
        rngs = RngRegistry(0)
        env = Environment()
        return rngs, env, Fabric(env, AZURE_HPC)

    def test_second_server_answers_its_own_connection(self):
        rngs, env, fabric = self._testbed()
        path = CacheDataPath(env, AZURE_HPC, RdmaConfig(1, 1, 4, 2),
                             fabric.add_endpoint("client", Placement()),
                             rngs.stream("client"))
        tokens = []
        for name in ("server1", "server2"):
            server = CacheServer(env, AZURE_HPC,
                                 fabric.add_endpoint(name, Placement()),
                                 rngs.stream(name))
            tokens += path.attach_server(server, n_regions=1,
                                         region_size=4096)

        def scenario(env):
            wrote = yield from path.io(EngineOp(
                is_read=False, size=8, token=tokens[1], data=b"server-2"))
            read = yield from path.io(EngineOp(
                is_read=True, size=8, token=tokens[1]))
            return wrote, read

        wrote, read = env.run_process(scenario(env))
        assert wrote.ok and read.ok, (wrote.error, read.error)
        assert read.data == b"server-2"
        assert wrote.latency < 10 * US and read.latency < 10 * US
        assert path.ops_failed == 0

    def test_paths_sharing_a_server_keep_their_credits(self):
        rngs, env, fabric = self._testbed()
        server = CacheServer(env, AZURE_HPC,
                             fabric.add_endpoint("server", Placement()),
                             rngs.stream("server"))
        paths = [CacheDataPath(env, AZURE_HPC, RdmaConfig(1, 1, 4, 2),
                               fabric.add_endpoint(name, Placement()),
                               rngs.stream(name))
                 for name in ("client1", "client2")]
        # Both attach; only the second path's connection is not the
        # server's first.
        for path in paths:
            (token,) = path.attach_server(server, n_regions=1,
                                          region_size=4096)
        second = paths[1]

        def scenario(env):
            results = []
            for index in range(4):
                results.append((yield from second.io(EngineOp(
                    is_read=False, size=8, token=token, offset=8 * index,
                    data=bytes([index]) * 8))))
            return results

        results = env.run_process(scenario(env))
        assert all(result.ok for result in results)
        assert all(result.latency < 10 * US for result in results), [
            result.latency for result in results]
        env.run()  # past every response deadline
        assert second.ops_completed == 4 and second.ops_failed == 0

    def test_batching_cache_across_vms_reaches_every_region(self):
        """End to end: a cache whose SLO picks a batching configuration
        and whose regions span several VMs, so that most connections
        are not their server's first."""
        harness = build_cluster(seed=19)
        harness.manager.menu = [VmType(
            "tiny", cores=2, memory_gb=1.0, price_per_hour=0.02,
            spot_price_per_hour=0.004)]
        region = 64 << 20
        cache = harness.redy_client("batching-app").create(
            20 * region, Slo(max_latency=5e-3, min_throughput=1e8,
                             record_size=64),
            duration_s=3600.0, region_bytes=region, backed=False)
        assert cache.path.config == RdmaConfig(16, 8, 63, 4)
        assert len(cache.allocation.vms) == 4

        def scenario(env):
            results = []
            for index in range(20):
                results.append((yield cache.write(index * region,
                                                  b"x" * 8)))
            return results

        results = harness.env.run_process(scenario(harness.env))
        assert [result.ok for result in results] == [True] * 20


class TestControlPlaneModel:
    def test_engine_qps_take_the_deferred_connect(self):
        config = RdmaConfig(2, 2, 4, 4)
        _, server, path, _ = make_stack(config, region_size=1 << 16,
                                        model_control_plane=True)
        client_ep = path.endpoint
        # Engine QPs take the deferred path when the model is on: the
        # connect handshake is charged lazily, not free at attach.
        # (client_ep.qps also lists the server's response QPs, which
        # piggyback on the connect exchange -- look at client-owned only.)
        engine_qps = [qp for qp in client_ep.qps if qp.local is client_ep]
        assert engine_qps
        assert all(not qp.established for qp in engine_qps)
