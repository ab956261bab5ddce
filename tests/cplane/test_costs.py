"""Control-plane costs on the wire: deferred QPs, registration, caches.

These pin the cost model the connection storm measures: a deferred QP
pays create + state transitions + handshake RTTs before its first verb,
batched establishment gets the command-queue discount, registration is
timed and size-proportional, and QP-context-cache misses add exactly
the miss penalty to a verb's service time.
"""

import pytest

from repro.hardware import AZURE_HPC
from repro.hardware.nic import QpContextCache
from repro.net import Fabric, MemoryRegion, Placement, QueuePair

NIC = AZURE_HPC.nic


def make_fabric():
    from repro.sim import Environment

    env = Environment()
    fabric = Fabric(env, AZURE_HPC, model_control_plane=True)
    client = fabric.add_endpoint("client", Placement(cluster=0, rack=0))
    server = fabric.add_endpoint("server", Placement(cluster=0, rack=0))
    region = server.register(MemoryRegion(1 << 16, backing=True))
    return env, fabric, client, server, region


class TestDeferredEstablishment:
    def test_deferred_qp_starts_unestablished(self):
        env, _, client, server, _ = make_fabric()
        qp = QueuePair(env, client, server, max_depth=4, deferred=True)
        assert not qp.established
        eager = QueuePair(env, client, server, max_depth=4)
        assert eager.established

    def test_establish_charges_setup_then_handshake(self):
        env, _, client, server, _ = make_fabric()
        qp = QueuePair(env, client, server, max_depth=4, deferred=True)

        def proc():
            ok = yield qp.establish()
            return ok

        ok = env.run_process(proc())
        assert ok is True
        assert qp.established
        # Setup cost is a hard lower bound; the CM handshake RTTs ride
        # on top of it.
        assert env.now > NIC.qp_setup_cpu_latency()
        assert qp.established_at == env.now

    def test_batched_establish_saves_exactly_the_command_discount(self):
        env, _, client, server, _ = make_fabric()
        qp_full = QueuePair(env, client, server, max_depth=4, deferred=True)
        qp_batched = QueuePair(env, client, server, max_depth=4, deferred=True)

        def proc():
            start = env.now
            yield qp_full.establish()
            full = env.now - start
            start = env.now
            yield qp_batched.establish(batched=True)
            batched = env.now - start
            return full, batched

        full, batched = env.run_process(proc())
        # Same handshake RTTs either way; only the create/modify block
        # is discounted.
        saved = NIC.qp_setup_cpu_latency() - NIC.qp_setup_cpu_latency(
            batched=True)
        assert (full - batched) == pytest.approx(saved)

    def test_establish_is_idempotent(self):
        env, _, client, server, _ = make_fabric()
        qp = QueuePair(env, client, server, max_depth=4, deferred=True)

        def proc():
            first = yield qp.establish()
            before = env.now
            second = yield qp.establish()
            return first, second, env.now - before

        first, second, extra = env.run_process(proc())
        assert first is True and second is True
        assert extra == 0.0  # the second call answers immediately

    def test_establish_against_dead_remote_fails(self):
        env, _, client, server, _ = make_fabric()
        qp = QueuePair(env, client, server, max_depth=4, deferred=True)
        server.fail()

        def proc():
            ok = yield qp.establish()
            return ok

        assert env.run_process(proc()) is False
        assert qp.in_error

    def test_lazy_post_rides_the_first_verb(self):
        """Posting on a cold deferred QP transparently connects first."""
        from repro.net import RdmaOp, WorkRequest

        env, _, client, server, region = make_fabric()
        region.local_write(64, b"lazy!")
        qp = QueuePair(env, client, server, max_depth=4, deferred=True)

        def proc():
            wr = WorkRequest(RdmaOp.READ, region.token, 64, 5)
            completion = yield qp.post(wr)
            return completion

        completion = env.run_process(proc())
        assert completion.ok
        assert completion.data == b"lazy!"
        assert qp.established
        # The read's completion time covers the implicit establishment.
        assert env.now > NIC.qp_setup_cpu_latency()


class TestTimedRegistration:
    def test_register_timed_charges_the_nic_latency(self):
        env, _, client, _, _ = make_fabric()
        size = 1 << 20

        def proc():
            region = yield from client.register_timed(MemoryRegion(
                size, backing=False))
            return region

        region = env.run_process(proc())
        assert env.now == pytest.approx(NIC.mr_register_latency(size))
        assert client.regions[region.region_id] is region

    def test_fabric_counts_registrations(self):
        env, fabric, client, server, _ = make_fabric()
        before = fabric.mr_registrations

        def proc():
            yield from client.register_timed(MemoryRegion(
                4096, backing=False))

        env.run_process(proc())
        assert fabric.mr_registrations == before + 1
        assert fabric.mr_registered_bytes >= 4096


class TestContextCacheServiceTime:
    def _read(self, env, qp, region, nbytes=8):
        from repro.net import RdmaOp, WorkRequest

        def proc():
            start = env.now
            completion = yield qp.post(WorkRequest(
                RdmaOp.READ, region.token, 0, nbytes))
            assert completion.ok
            return env.now - start

        return env.run_process(proc())

    def test_miss_costs_exactly_the_penalty_over_a_hit(self):
        env, _, client, server, region = make_fabric()
        # One-entry responder cache: alternating QPs always miss, a
        # repeated QP always hits.
        server.qp_context_cache = QpContextCache(1)
        qp_a = QueuePair(env, client, server, max_depth=4, deferred=True)
        qp_b = QueuePair(env, client, server, max_depth=4, deferred=True)

        def establish():
            yield qp_a.establish()
            yield qp_b.establish()

        env.run_process(establish())
        # Warm every other cache: both QPs touch the client's big cache
        # and B owns the server's single slot afterwards.
        self._read(env, qp_a, region)
        self._read(env, qp_b, region)
        t_miss = self._read(env, qp_a, region)   # A evicted by B: miss
        t_hit = self._read(env, qp_a, region)    # A resident: hit
        assert (t_miss - t_hit) == pytest.approx(
            NIC.qp_context_miss_penalty)

    def test_cache_accounting_tracks_hits_and_misses(self):
        env, _, client, server, region = make_fabric()
        server.qp_context_cache = QpContextCache(1)
        qp_a = QueuePair(env, client, server, max_depth=4, deferred=True)
        qp_b = QueuePair(env, client, server, max_depth=4, deferred=True)

        def establish():
            yield qp_a.establish()
            yield qp_b.establish()

        env.run_process(establish())
        base = server.qp_context_cache.stats()
        self._read(env, qp_a, region)            # miss (B resident)
        self._read(env, qp_a, region)            # hit
        self._read(env, qp_b, region)            # miss (A resident)
        stats = server.qp_context_cache.stats()
        assert stats["misses"] - base["misses"] == 2
        assert stats["hits"] - base["hits"] == 1

    def test_reclaim_evicts_the_context(self):
        env, _, client, server, region = make_fabric()
        qp = QueuePair(env, client, server, max_depth=4, deferred=True)

        def proc():
            yield qp.establish()

        env.run_process(proc())
        assert qp.qp_id in server.qp_context_cache
        qp.reclaim()
        assert qp.qp_id not in server.qp_context_cache
        assert qp not in client.qps and qp not in server.qps

