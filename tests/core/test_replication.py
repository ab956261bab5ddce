"""Tests for the replicated cache (§6.2's replication alternative), served
by :meth:`repro.shard.ShardRouter.replicated`."""

from repro.shard.router import REPLICAS

from tests.shard.conftest import make_fleet, make_replicated, server_ids


def run(env, event):
    def proc(env):
        return (yield event)

    return env.run_process(proc(env))


def kill(harness, cache):
    """Fail every VM of ``cache``, no warning."""
    for vm in list(cache.allocation.vms):
        harness.allocator.fail(vm)


def settle(harness, router):
    harness.env.run_process(router.settled())


class TestConstruction:
    def test_replicas_land_on_disjoint_servers(self):
        _harness, _client, members, router = make_replicated()
        assert router.replication == REPLICAS == 2
        first, second = (server_ids(cache) for cache in members.values())
        assert not (first & second)
        assert all(len(router.owners_of_slot(slot)) == 2
                   for slot in range(router.n_slots))


class TestDataPath:
    def test_write_all_read_primary(self):
        harness, _client, members, router = make_replicated()
        assert run(harness.env, router.write(100, b"replicated")).ok
        result = run(harness.env, router.read(100, 10))
        assert result.ok and result.data == b"replicated"
        # Every member owns the slot and independently holds the data.
        assert len(router.owners_of_slot(0)) == 2
        for cache in members.values():
            assert run(harness.env, cache.read(100, 10)
                       ).data == b"replicated"

    def test_failover_preserves_acknowledged_writes(self):
        harness, _client, members, router = make_replicated()
        run(harness.env, router.write(0, b"survive-me"))
        primary = router.owners_of_slot(0)[0]
        kill(harness, members[primary])
        settle(harness, router)
        result = run(harness.env, router.read(0, 10))
        assert result.ok
        assert result.data == b"survive-me"
        assert primary not in router.members
        assert len(router.members) == 1

    def test_writes_drop_dead_replicas_but_succeed(self):
        harness, _client, members, router = make_replicated()
        secondary = router.owners_of_slot(0)[1]
        kill(harness, members[secondary])
        result = run(harness.env, router.write(0, b"to-the-living"))
        assert result.ok
        settle(harness, router)
        assert router.members == [router.owners_of_slot(0)[0]]
        assert secondary not in router.members
        assert run(harness.env, router.read(0, 13)).data == b"to-the-living"

    def test_total_loss_surfaces_error(self):
        # With two members the first departs; the last has no survivor
        # to hand its ranges to, so I/O surfaces the error instead.  A
        # one-member router is the last member from the start.
        for harness, _client, members, router in (make_fleet(n_shards=1),
                                                  make_replicated()):
            for cache in members.values():
                kill(harness, cache)
            result = run(harness.env, router.read(0, 8))
            assert not result.ok and "no live shard" in result.error


class TestRedundancyMaintenance:
    def test_delete_releases_all_replicas(self):
        harness, _client, members, _router = make_replicated()
        assert len(harness.allocator.vms) == 2
        for cache in members.values():
            cache.delete()
        assert len(harness.allocator.vms) == 0
