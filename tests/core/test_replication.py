"""Tests for the replicated cache (§6.2's replication alternative), served
by :meth:`repro.shard.ShardRouter.replicated`."""

import pytest

from repro.shard import ShardRouter

from tests.shard.conftest import (
    CAPACITY,
    REGION,
    SLO,
    make_replicated,
    server_ids,
)


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
        _harness, _client, members, router = make_replicated(replicas=3)
        assert router.replication == 3
        domains = [server_ids(cache) for cache in members.values()]
        assert len(domains) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (domains[i] & domains[j])
        assert all(len(router.owners_of_slot(slot)) == 3
                   for slot in range(router.n_slots))

    def test_zero_replicas_rejected(self):
        _harness, client, _members, _router = make_replicated()
        with pytest.raises(ValueError):
            ShardRouter.replicated(client, CAPACITY, SLO, 0,
                                   region_bytes=REGION)


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
        # to hand its ranges to, so I/O surfaces the error instead.
        for replicas in (1, 2):
            harness, _client, members, router = make_replicated(
                replicas=replicas)
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
