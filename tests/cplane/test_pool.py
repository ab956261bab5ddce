"""QpPool: multiplexing, demux, harvesting, and churn leak-freedom."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cplane import ControlPlane, CplaneLog, PoolPolicy, QpPool
from repro.cplane.pool import MAX_QPS
from repro.hardware import AZURE_HPC
from repro.net import Fabric, MemoryRegion, Placement, RdmaOp, WorkRequest
from repro.sim import Environment

from tests.conftest import under_hash_seed


def make_pool(**policy_kwargs):
    env = Environment()
    fabric = Fabric(env, AZURE_HPC, model_control_plane=True)
    client = fabric.add_endpoint("client", Placement(cluster=0, rack=0))
    server = fabric.add_endpoint("server", Placement(cluster=0, rack=0))
    region = server.register(MemoryRegion(1 << 16, backing=True))
    policy = PoolPolicy(**policy_kwargs)
    pool = QpPool(env, client, server, policy, CplaneLog())
    return env, fabric, client, server, region, pool


def open_n(env, pool, n):
    def proc():
        sessions = []
        for _ in range(n):
            session = yield from pool.open_session()
            sessions.append(session)
        return sessions

    return env.run_process(proc())


class TestMultiplexing:
    def test_sessions_share_qps_up_to_the_policy_bound(self):
        env, _, _, _, _, pool = make_pool(strategy="pooled",
                                          sessions_per_qp=4)
        sessions = open_n(env, pool, 8)
        assert pool.qps_created == 2
        assert pool.active_sessions == 8
        # Deterministic least-loaded assignment: 4 sessions per QP.
        by_qp = {}
        for session in sessions:
            by_qp.setdefault(session.qp_id, []).append(session.session_id)
        assert sorted(len(ids) for ids in by_qp.values()) == [4, 4]

    def test_per_client_strategy_is_one_qp_per_session(self):
        env, _, client, _, _, pool = make_pool(strategy="per-client")
        open_n(env, pool, 3)
        assert pool.qps_created == 3
        # Naive sessions register their own recv regions too.
        assert len(client.regions) == 3

    def test_oversubscription_at_the_qp_cap(self):
        env, _, _, _, _, pool = make_pool(strategy="pooled",
                                          sessions_per_qp=1)
        sessions = open_n(env, pool, MAX_QPS + 1)
        assert pool.qps_created == MAX_QPS
        assert pool.oversubscriptions == 1
        assert sessions[0].qp_id == sessions[-1].qp_id

    def test_broken_qps_do_not_count_against_the_cap(self):
        env, _, client, _, _, pool = make_pool(strategy="pooled",
                                               sessions_per_qp=1)
        first, second, *rest = open_n(env, pool, MAX_QPS)
        client.qps[0].inject_error("link fault")
        # One usable QP short of the cap: the broken QP is replaced, not
        # counted, and never oversubscribed onto.
        (extra,) = open_n(env, pool, 1)
        assert extra.qp_id not in {s.qp_id for s in [first, second, *rest]}
        assert pool.oversubscriptions == 0
        assert pool.live_qps == MAX_QPS + 1
        # Reclaimed by the next harvest once its session has closed.
        pool.close_session(first)
        assert pool.harvest() == 1
        assert pool.qp_ids() == [s.qp_id for s in [second, *rest, extra]]
        # The cap's worth of usable QPs, all full: the cap holds.
        (last,) = open_n(env, pool, 1)
        assert last.qp_id == second.qp_id
        assert pool.oversubscriptions == 1
        assert pool.live_qps == MAX_QPS

    def test_assignment_is_deterministic_across_runs(self):
        def run():
            env, _, _, _, _, pool = make_pool(strategy="pooled",
                                              sessions_per_qp=3)
            sessions = open_n(env, pool, 10)
            closed = sessions[::2]
            for session in closed:
                pool.close_session(session)
            reopened = open_n(env, pool, 3)
            return ([s.qp_id for s in sessions],
                    [s.qp_id for s in reopened], pool.qp_ids())

        assert run() == run()


def reference_assignment(pool):
    """The assignment as a ``sorted()`` scan over ``(load, qp_id)`` keys,
    as the pool once made it; returns ``(entry, oversubscribed)``.  The
    one deliberate difference is the cap: it counts usable QPs, where
    the old scan counted every live one, broken QPs included."""
    best = None
    best_key = None
    usable = 0
    for qp_id in sorted(pool._qps):
        entry = pool._qps[qp_id]
        if not entry.usable:
            continue
        usable += 1
        key = (len(entry.sessions), qp_id)
        if best_key is None or key < best_key:
            best_key = key
            best = entry
    if best is not None and len(best.sessions) < pool.policy.sessions_per_qp:
        return best, False
    if usable < MAX_QPS:
        return None, False
    return best, True


pool_ops = st.lists(
    st.tuples(st.sampled_from(["open", "open", "close", "error",
                               "reconnect", "reclaim_all", "harvest"]),
              st.integers(0, 63)),
    max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops=pool_ops, sessions_per_qp=st.integers(1, 3),
       strategy=st.sampled_from(["pooled", "pooled-lazy"]))
def test_assignment_matches_the_sorted_reference(ops, sessions_per_qp,
                                                 strategy):
    env, _, _, _, _, pool = make_pool(strategy=strategy,
                                      sessions_per_qp=sessions_per_qp,
                                      idle_timeout_s=0.0)
    sessions = []
    for op, pick in ops:
        qps = [pool._qps[qp_id] for qp_id in pool.qp_ids()]
        if op == "open":
            expected, oversubscribed = reference_assignment(pool)
            before = pool.oversubscriptions
            assert pool._assign_shared_qp() is expected
            assert pool.oversubscriptions - before == int(oversubscribed)
            session = env.run_process(pool.open_session())
            if expected is not None:
                assert session.qp_id == expected.qp.qp_id
            sessions.append(session)
        elif op == "close":
            still_open = [s for s in sessions if s.open]
            if still_open:
                pool.close_session(still_open[pick % len(still_open)])
        elif op == "error":
            usable = [entry for entry in qps if entry.usable]
            if usable:
                usable[pick % len(usable)].qp.inject_error("test fault")
        elif op == "reconnect":
            broken = [entry for entry in qps if not entry.qp.reclaimed
                      and entry.qp.in_error]
            if broken:
                broken[pick % len(broken)].qp.reconnect()
        elif op == "reclaim_all":
            pool.reclaim_all(reason="test")
        else:
            pool.harvest()


class TestDemux:
    def test_interleaved_completions_route_by_tag(self):
        env, _, _, _, region, pool = make_pool(strategy="pooled",
                                               sessions_per_qp=8)
        region.local_write(0, b"AAAAAAAA")
        region.local_write(4096, b"B" * 2048)
        a, b = open_n(env, pool, 2)

        def proc():
            # The big read launches first but finishes last: the small
            # read's completion overtakes it on the shared QP.
            big = pool.session_read(b, region.token, 4096, 2048)
            small = pool.session_read(a, region.token, 0, 8)
            small_completion = yield small
            big_completion = yield big
            return small_completion, big_completion

        small_completion, big_completion = env.run_process(proc())
        assert small_completion.data == b"AAAAAAAA"
        assert big_completion.data == b"B" * 2048
        assert pool.demux_routed == 2
        assert pool.demux_misroutes == 0

    def test_user_context_is_restored_on_the_completion(self):
        env, _, _, _, region, pool = make_pool(strategy="pooled")
        (session,) = open_n(env, pool, 1)
        marker = object()

        def proc():
            completion = yield pool.submit(session, WorkRequest(
                RdmaOp.READ, region.token, 0, 8, context=marker))
            return completion

        completion = env.run_process(proc())
        assert completion.ok
        assert completion.context is marker

    def test_a_tampered_tag_is_counted_and_still_delivered(self):
        env, _, client, _, region, pool = make_pool(strategy="pooled")
        region.local_write(0, b"tampered")
        (session,) = open_n(env, pool, 1)
        qp = client.qps[0]
        post = qp.post

        def post_with_a_wrong_tag(wr):
            kind, tag, session_id = wr.context
            wr.context = (kind, tag + 1, session_id)
            return post(wr)

        qp.post = post_with_a_wrong_tag
        marker = object()

        def proc():
            return (yield pool.submit(session, WorkRequest(
                RdmaOp.READ, region.token, 0, 8, context=marker)))

        completion = env.run_process(proc())
        assert pool.demux_misroutes == 1
        assert pool.demux_routed == 0
        assert completion.ok and completion.data == b"tampered"
        assert completion.context is marker

    def test_submit_requires_a_bound_session(self):
        env, _, _, _, region, pool = make_pool(strategy="pooled")
        (session,) = open_n(env, pool, 1)
        pool.close_session(session)
        pool.reclaim_all(reason="test")
        with pytest.raises(KeyError):
            pool.submit(session, WorkRequest(RdmaOp.READ, region.token,
                                             0, 8))


class TestHarvest:
    def test_idle_qps_reclaim_after_the_timeout(self):
        env, _, client, server, _, pool = make_pool(strategy="pooled",
                                                    sessions_per_qp=2,
                                                    idle_timeout_s=0.1)
        sessions = open_n(env, pool, 4)
        for session in sessions:
            pool.close_session(session)
        assert pool.harvest() == 0  # not idle long enough yet

        def idle():
            yield env.timeout(0.2)

        env.run_process(idle())
        pool.warm_target = 0
        assert pool.harvest() == 2
        assert pool.live_qps == 0
        assert client.qps == [] and server.qps == []
        assert client.regions == {}  # pool recv regions deregistered

    def test_warm_target_survives_the_harvest(self):
        env, _, _, _, _, pool = make_pool(strategy="pooled",
                                          sessions_per_qp=1,
                                          idle_timeout_s=0.05)
        sessions = open_n(env, pool, 3)
        for session in sessions:
            pool.close_session(session)

        def idle():
            yield env.timeout(0.1)

        env.run_process(idle())
        pool.warm_target = 1
        assert pool.harvest() == 2
        assert pool.warm_ready() == 1

    def test_plane_harvest_keeps_a_prewarmed_pool(self):
        # A harvester pass keeps the warm QPs ensure_warm asked for,
        # however long they have sat idle.
        env = Environment()
        fabric = Fabric(env, AZURE_HPC)
        plane = ControlPlane(env, fabric, policy=PoolPolicy(
            strategy="pooled", idle_timeout_s=0.1))
        pool = plane.pool(
            fabric.add_endpoint("client", Placement(cluster=0, rack=0)),
            fabric.add_endpoint("server", Placement(cluster=0, rack=0)))
        assert env.run_process(pool.ensure_warm(4)) == 4
        env.run(until=env.now + 0.2)
        assert plane.harvest_once() == 0
        assert pool.warm_ready() == 4

    def test_broken_qps_reclaim_immediately(self):
        env, _, client, _, _, pool = make_pool(strategy="pooled",
                                               sessions_per_qp=4,
                                               idle_timeout_s=10.0)
        sessions = open_n(env, pool, 2)
        # A transport error breaks the shared QP (what the fault
        # injector does when the remote endpoint dies).
        client.qps[0].inject_error("link fault")
        for session in sessions:
            pool.close_session(session)
        pool.warm_target = 4
        # Dead QPs are not warm-pool material: reclaimed despite the
        # huge idle timeout and the nonzero warm target.
        assert pool.harvest() == 1
        assert pool.live_qps == 0

    def test_ensure_warm_preconnects_with_batching(self):
        env, _, _, _, _, pool = make_pool(strategy="pooled")

        def proc():
            created = yield from pool.ensure_warm(3)
            return created

        assert env.run_process(proc()) == 3
        assert pool.warm_ready() == 3
        assert pool.establishments == 3
        # One drain: the first pays full command cost, followers batch.
        assert pool.batched_establishments == 2

    def test_reclaim_all_closes_open_sessions(self):
        env, _, client, server, _, pool = make_pool(strategy="pooled")
        sessions = open_n(env, pool, 3)
        reclaimed = pool.reclaim_all(reason="remote gone")
        assert reclaimed == pool.qps_created
        assert all(not session.open for session in sessions)
        assert pool.active_sessions == 0
        assert client.qps == [] and server.qps == []


class TestChurnLeakFreedom:
    def test_open_read_close_cycles_leave_no_state_behind(self):
        """The satellite invariant: QP/region registries must not grow
        across client churn (the historical teardown leak)."""
        env, fabric, client, server, region, pool = make_pool(
            strategy="pooled-lazy", sessions_per_qp=2, idle_timeout_s=0.01)
        region.local_write(0, b"churnchurn")

        def cycle():
            session = yield from pool.open_session()
            completion = yield pool.session_read(session, region.token,
                                                 0, 8)
            assert completion.ok
            pool.close_session(session)
            yield env.timeout(0.02)
            pool.warm_target = 0
            pool.harvest()

        for _ in range(50):
            env.run_process(cycle())
            assert client.qps == []
            assert client.regions == {}
            # Only the test's own data region stays on the server.
            assert list(server.regions) == [region.region_id]
            assert server.qps == []
        assert pool.qps_reclaimed == pool.qps_created
        # The NIC context caches shed the reclaimed contexts too.
        assert len(server.qp_context_cache) == 0

    def test_per_client_churn_releases_recv_regions(self):
        env, _, client, _, region, pool = make_pool(strategy="per-client")
        for _ in range(10):
            def cycle():
                session = yield from pool.open_session()
                completion = yield pool.session_read(
                    session, region.token, 0, 4)
                assert completion.ok
                pool.close_session(session)

            env.run_process(cycle())
            assert client.regions == {}
            assert client.qps == []


def _harvest_four_pools(seed):
    """One harvester pass over four pools, each holding one idle QP past
    its timeout.  Returns the pools in the order the pass reclaimed
    them, and the order a ``set`` of the pool keys iterates in."""
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    plane = ControlPlane(env, fabric, policy=PoolPolicy(
        strategy="pooled", idle_timeout_s=0.1, warm_max=0))
    server = fabric.add_endpoint("server", Placement(cluster=0, rack=0))
    for index in range(4):
        client = fabric.add_endpoint(f"client{index}",
                                     Placement(cluster=0, rack=0))
        session = env.run_process(plane.open_session(client, server))
        plane.close_session(session)
    env.run(until=env.now + 0.2)
    plane.harvest_once()
    return ([event.target for event in plane.log
             if event.kind == "qp.reclaim"], list(set(plane.pools)))


def test_harvest_pass_does_not_follow_the_hash_seed():
    # Under PYTHONHASHSEED 0 and 1 a set of the four pool keys iterates
    # in two orders; the pass reclaims in key order under both.
    workload = "tests.cplane.test_pool:_harvest_four_pools"
    digest_0, (reclaimed_0, set_order_0) = under_hash_seed("0", workload, 0)
    digest_1, (reclaimed_1, set_order_1) = under_hash_seed("1", workload, 0)
    assert set_order_0 != set_order_1
    assert reclaimed_0 == reclaimed_1 == [
        f"client{index}->server" for index in range(4)]
    assert digest_0 == digest_1
