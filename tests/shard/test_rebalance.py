"""Live rebalancing: joins, departures, fault wiring, durability."""

from repro.obs.metrics import MetricsRegistry

from tests.shard.conftest import CAPACITY, REGION, SLO, SLOT, make_fleet


def run(harness, gen):
    return harness.env.run_process(gen)


def _fill(router, stride=SLOT):
    """Write a distinct acknowledged payload into every slot."""
    acked = {}

    def driver():
        for slot in range(router.n_slots):
            addr = slot * stride
            data = bytes([slot % 251]) * 128
            res = yield router.write(addr, data)
            assert res.ok
            acked[addr] = data
        return acked

    return driver


def _verify(router, acked):
    def driver():
        lost = []
        for addr, data in acked.items():
            res = yield router.read(addr, len(data))
            if not (res.ok and res.data == data):
                lost.append(addr)
        return lost

    return driver


class TestJoin:
    def test_join_streams_data_and_serves_it(self):
        harness, client, _members, router = make_fleet(n_shards=3)
        acked = run(harness, _fill(router)())
        new_cache = client.create(CAPACITY, SLO, region_bytes=REGION)

        def joiner():
            report = yield router.join("s3", new_cache)
            return report

        report = run(harness, joiner())
        assert router.members == ["s0", "s1", "s2", "s3"]
        assert report.lost_slots == 0
        assert report.slots_moved > 0
        assert report.bytes_moved >= report.slots_moved * SLOT
        assert report.duration > 0
        assert run(harness, _verify(router, acked)()) == []
        # The joiner really owns (and serves) part of the space now.
        owned = sum("s3" in router.owners_of_slot(s)
                    for s in range(router.n_slots))
        assert owned > 0

    def test_writes_during_rebalance_land_on_new_owners(self):
        harness, client, _members, router = make_fleet(n_shards=3)
        acked = run(harness, _fill(router)())
        new_cache = client.create(CAPACITY, SLO, region_bytes=REGION)

        def driver():
            done = router.join("s3", new_cache)
            # Concurrent writes racing the rebalance stream.
            racing = {}
            for slot in range(0, router.n_slots, 3):
                addr = slot * SLOT + 256
                data = bytes([(slot + 7) % 251]) * 64
                res = yield router.write(addr, data)
                assert res.ok
                racing[addr] = data
            yield done
            return racing

        racing = run(harness, driver())
        acked.update(racing)
        assert run(harness, _verify(router, acked)()) == []


class TestDepart:
    def test_planned_departure_preserves_all_data(self):
        harness, _client, _members, router = make_fleet(n_shards=4)
        acked = run(harness, _fill(router)())

        def leaver():
            report = yield router.depart("s1")
            return report

        report = run(harness, leaver())
        assert router.members == ["s0", "s2", "s3"]
        assert report.lost_slots == 0
        assert run(harness, _verify(router, acked)()) == []
        assert "s1" in router.retired

    def test_membership_changes_serialize(self):
        harness, client, _members, router = make_fleet(n_shards=3)
        run(harness, _fill(router)())
        c3 = client.create(CAPACITY, SLO, region_bytes=REGION)
        c4 = client.create(CAPACITY, SLO, region_bytes=REGION)

        def driver():
            first = router.join("s3", c3)
            second = router.join("s4", c4)
            third = router.depart("s0")
            yield harness.env.all_of([first, second, third])
            return [r.plan_digest for r in router.reports[-3:]]

        digests = run(harness, driver())
        assert len(digests) == len(set(digests)) == 3
        assert router.members == ["s1", "s2", "s3", "s4"]


class TestFaultWiring:
    def test_vm_kill_triggers_emergency_rebalance_without_loss(self):
        metrics = MetricsRegistry()
        harness, _client, members, router = make_fleet(
            n_shards=4, metrics=metrics, replication=2)
        acked = run(harness, _fill(router)())

        def driver():
            for vm in list(members["s2"].allocation.vms):
                if vm.alive:
                    harness.allocator.fail(vm)
            yield from router.settled()
            return True

        assert run(harness, driver())
        assert "s2" not in router.members
        report = router.reports[-1]
        assert report.lost_slots == 0
        # Zero lost acknowledged writes: every pre-kill ack reads back.
        assert run(harness, _verify(router, acked)()) == []
        snap = metrics.snapshot()
        assert snap['router.departures{reason="vm-kill"}']["value"] == 1

    def test_reclaim_notice_triggers_planned_departure(self):
        metrics = MetricsRegistry()
        # Finite duration -> spot-backed members, hence reclaimable.
        harness, _client, members, router = make_fleet(
            n_shards=4, metrics=metrics, replication=2, duration_s=3600.0)
        acked = run(harness, _fill(router)())

        def driver():
            victim = members["s3"].allocation.vms[0]
            harness.allocator.reclaim(victim, notice_s=1.0)
            yield from router.settled()
            return True

        assert run(harness, driver())
        assert "s3" not in router.members
        assert run(harness, _verify(router, acked)()) == []
        snap = metrics.snapshot()
        assert snap['router.departures{reason="vm-eviction"}']["value"] == 1


class TestSettled:
    def test_idle_router_settles_at_once(self):
        _harness, _client, _members, router = make_fleet(n_shards=3)
        assert list(router.settled()) == []

    def test_resumes_only_after_the_emergency_departure_reports(self):
        harness, _client, members, router = make_fleet(n_shards=4,
                                                       replication=2)
        run(harness, _fill(router)())
        env = harness.env

        def driver():
            for vm in list(members["s2"].allocation.vms):
                harness.allocator.fail(vm)
            killed_at, reports_before = env.now, len(router.reports)
            # The kill queued the departure but nothing has streamed yet.
            assert "s2" in router.members
            yield from router.settled()
            return killed_at, reports_before

        killed_at, reports_before = run(harness, driver())
        assert harness.env.now > killed_at  # the survivors streamed first
        assert len(router.reports) == reports_before + 1
        assert "s2" not in router.members
        assert list(router.settled()) == []


class TestDeterminism:
    def test_same_seed_rebalance_reports_are_bit_identical(self):
        def one(seed):
            harness, client, _members, router = make_fleet(
                seed=seed, n_shards=3, replication=2)
            run(harness, _fill(router)())
            cache = client.create(CAPACITY, SLO, region_bytes=REGION)

            def driver():
                report = yield router.join("s3", cache)
                return report

            return run(harness, driver()).to_dict()

        assert one(4) == one(4)
        # Moves and digests are placement-determined, so even a
        # different cluster seed keeps the plan digest stable.
        assert one(5)["plan_digest"] == one(4)["plan_digest"]
