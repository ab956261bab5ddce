"""ShardRouter: fan-out, replication, backpressure, failover."""

import pytest

from repro.analysis.sanitize import KernelMonitor
from repro.core.client import CacheDeletedError, CacheIoResult
from repro.core.regions import AddressError
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardRouter
from repro.shard.router import MAX_INFLIGHT_PER_SHARD

from tests.shard.conftest import (CAPACITY, SLOT, make_fleet,
                                  make_replicated)


def run(harness, gen):
    return harness.env.run_process(gen)


class TestIoPath:
    def test_write_read_round_trip(self, fleet):
        harness, _client, _members, router = fleet

        def driver():
            w = yield router.write(100, b"hello world!")
            r = yield router.read(100, 12)
            return w, r

        w, r = run(harness, driver())
        assert w.ok and r.ok
        assert r.data == b"hello world!"
        assert r.latency > 0

    def test_cross_slot_io_reassembles_in_order(self, fleet):
        harness, _client, _members, router = fleet
        addr = 3 * SLOT - 40          # spans slots 2, 3 and 4
        payload = bytes(range(120)) * 2

        def driver():
            w = yield router.write(addr, payload)
            r = yield router.read(addr, len(payload))
            return w, r

        w, r = run(harness, driver())
        assert w.ok and r.ok and r.data == payload
        # The fragments really did land on different owners.
        slots = {addr // SLOT, (addr + len(payload) - 1) // SLOT}
        assert len(slots) > 1

    def test_out_of_range_io_fails_cleanly(self, fleet):
        harness, _client, _members, router = fleet

        def driver():
            r1 = yield router.read(router.capacity - 4, 64)
            r2 = yield router.write(-8, b"x")
            return r1, r2

        r1, r2 = run(harness, driver())
        assert not r1.ok and "capacity" in r1.error
        assert not r2.ok

    def test_replicated_write_lands_on_every_owner(self):
        harness, _client, members, router = make_fleet(replication=2)

        def driver():
            res = yield router.write(0, b"r" * 64)
            assert res.ok
            owners = router.owners_of_slot(0)
            copies = []
            for name in owners:
                got = yield members[name].read(0, 64)
                copies.append(got)
            return owners, copies

        owners, copies = run(harness, driver())
        assert len(owners) == 2
        assert all(c.ok and c.data == b"r" * 64 for c in copies)


def _split_io(router, is_read, addr, size_or_data):
    """The multi-fragment path's outcome for one I/O: split by
    ``_fragments``, each fragment run in turn, the first failure wins."""
    size = size_or_data if is_read else len(size_or_data)
    try:
        fragments = router._fragments(addr, size)
    except AddressError as exc:
        return CacheIoResult(ok=False, error=str(exc))
    results = []
    for slot, frag_addr, length, offset in fragments:
        results.append((yield from (
            router._read_fragment(slot, frag_addr, length) if is_read else
            router._write_fragment(slot, frag_addr,
                                   size_or_data[offset:offset + length]))))
    failed = [r for r in results if not r.ok]
    if failed:
        return CacheIoResult(ok=False, error=failed[0].error)
    return CacheIoResult(
        ok=True, data=b"".join(r.data for r in results) if is_read else None)


class TestSingleSlotPath:
    """An I/O inside one slot skips the fragment lists; every other I/O
    is split.  Both must answer alike at every boundary."""

    @pytest.mark.parametrize("case", [
        "at a slot's start", "ends on the slot's end", "a byte past it",
        "last slot, ends at capacity", "size 0", "negative address",
        "past capacity"])
    def test_matches_the_multi_fragment_path(self, fleet, case):
        harness, _client, _members, router = fleet
        # A slot whose successor has another owner, so a byte placed on
        # the wrong side of their boundary shows.
        edge = next(slot for slot in range(router.n_slots - 1)
                    if router.owners_of_slot(slot)
                    != router.owners_of_slot(slot + 1))
        end = (edge + 1) * SLOT
        addr, size, fragments = {
            "at a slot's start": (edge * SLOT, 64, 1),
            "ends on the slot's end": (end - 64, 64, 1),
            "a byte past it": (end - 64, 65, 2),
            "last slot, ends at capacity": (CAPACITY - 64, 64, 1),
            "size 0": (end - 8, 0, 1),
            "negative address": (-8, 16, None),
            "past capacity": (CAPACITY - 8, 16, None),
        }[case]
        if fragments is None:
            with pytest.raises(AddressError):
                router._fragments(addr, size)
        else:
            assert len(router._fragments(addr, size)) == fragments
        payload = bytes(i % 251 for i in range(size))
        other = payload[::-1]

        def driver():
            # Each path reads what the other wrote, so both place every
            # byte on the same owners.
            wrote = yield from router.write_io(addr, payload)
            split_read = yield from _split_io(router, True, addr, size)
            split_wrote = yield from _split_io(router, False, addr, other)
            read = yield from router.read_io(addr, size)
            return wrote, split_read, split_wrote, read

        wrote, split_read, split_wrote, read = run(harness, driver())
        assert (wrote.ok, wrote.error) == (split_wrote.ok, split_wrote.error)
        assert (read.ok, read.error) == (split_read.ok, split_read.error)
        if fragments is None:
            assert not read.ok and "outside capacity" in read.error
        else:
            assert split_read.data == payload
            assert read.data == other

    def test_a_mutated_bytearray_payload_lands_its_original_bytes(self,
                                                                 fleet):
        harness, _client, _members, router = fleet
        env = harness.env
        slot = 5
        # Hold the write at its slot's gate, after the router took it.
        gate = router._slot_gates[slot] = env.event()
        payload = bytearray(b"a" * 64)
        wrote = router.write(slot * SLOT, payload)
        env.run(until=env.now + 1e-6)
        assert not wrote.triggered
        payload[:] = b"b" * 64
        del router._slot_gates[slot]
        gate.succeed()

        def driver():
            result = yield wrote
            read = yield router.read(slot * SLOT, 64)
            return result, read

        result, read = run(harness, driver())
        assert result.ok and read.ok
        assert read.data == b"a" * 64


class TestBackpressure:
    def test_inflight_never_exceeds_the_cap(self):
        metrics = MetricsRegistry()
        harness, _client, _members, router = make_fleet(metrics=metrics)

        def driver():
            # 80 concurrent reads of one slot: all hit the same owner,
            # more than its cap of 32 at once.
            reads = [router.read(0, 64) for _ in range(80)]
            results = yield harness.env.all_of(reads)
            return results

        results = run(harness, driver())
        assert all(r.ok for r in results)
        snap = metrics.snapshot()
        peaks = [blob["max"] for name, blob in snap.items()
                 if name.startswith('shard.inflight{')]
        assert peaks and max(peaks) == MAX_INFLIGHT_PER_SHARD

    def test_waiters_drain_after_the_burst(self, fleet):
        harness, _client, _members, router = fleet

        def driver():
            reads = [router.read(0, 32) for _ in range(50)]
            yield harness.env.all_of(reads)
            return True

        assert run(harness, driver())
        for name in router.members:
            member = router.member(name)
            assert member.inflight == 0
            assert not member.waiters

    def test_saturated_member_grants_slots_in_arrival_order(self):
        harness, _client, members, router = make_fleet(n_shards=1)
        (name,) = router.members
        cache = members[name]
        granted = []
        read_io = cache.read_io

        def recording_read_io(addr, size, **kwargs):
            granted.append(addr)  # the router took a slot for this read
            return read_io(addr, size, **kwargs)
        cache.read_io = recording_read_io

        addrs = [i * 64 for i in range(MAX_INFLIGHT_PER_SHARD + 8)]

        def driver():
            reads = [router.read(addr, 64) for addr in addrs]
            yield harness.env.timeout(0)
            queued = len(router.member(name).waiters)
            results = yield harness.env.all_of(reads)
            return queued, results

        queued, results = run(harness, driver())
        assert queued == 8
        assert all(r.ok for r in results)
        assert granted == addrs

    def test_read_of_a_deleted_member_returns_its_slot(self):
        harness, _client, members, router = make_fleet(n_shards=1)
        (name,) = router.members
        members[name].delete()
        raised = []

        def driver():
            for _ in range(MAX_INFLIGHT_PER_SHARD + 4):
                try:
                    yield from router.read_io(0, 64)
                except CacheDeletedError:
                    raised.append(True)

        harness.env.process(driver())
        harness.env.run()
        # Every read got past backpressure: none leaked its slot.
        assert len(raised) == MAX_INFLIGHT_PER_SHARD + 4
        assert router.member(name).inflight == 0

    def test_replicated_write_to_a_deleted_member_frees_its_slots(self):
        # Two targets per write: the live member's write is issued as an
        # event that frees its slot by callback, then the deleted
        # member's issue raises and frees its slot at once.
        harness, _client, members, router = make_fleet(n_shards=2,
                                                      replication=2)
        members["s1"].delete()
        raised = []

        def driver():
            for _ in range(MAX_INFLIGHT_PER_SHARD + 4):
                try:
                    yield from router.write_io(0, b"d" * 64)
                except CacheDeletedError:
                    raised.append(True)

        harness.env.process(driver())
        harness.env.run()
        assert len(raised) == MAX_INFLIGHT_PER_SHARD + 4
        assert all(router.member(name).inflight == 0
                   for name in router.members)


class _Spawns(KernelMonitor):
    """Names of the processes spawned while installed."""

    def __init__(self):
        self.names = []

    def on_spawn(self, process):
        self.names.append(process.name)


def _spawned_by(harness, body):
    """Run ``body`` in a process; the names of everything it spawned."""
    env = harness.env
    proc = env.process(body())
    spawns = _Spawns()
    env.monitor = spawns
    env.run()
    env.monitor = None
    return proc.value, spawns.names


class TestMemberIoInCallersFrame:
    def test_read_and_single_target_write_spawn_nothing(self, fleet):
        harness, _client, _members, router = fleet

        def body():
            wrote = yield from router.write_io(0, b"i" * 64)
            read = yield from router.read_io(0, 64)
            return wrote, read

        (wrote, read), spawned = _spawned_by(harness, body)
        assert wrote.ok and read.ok and read.data == b"i" * 64
        assert spawned == []

    def test_multi_target_write_runs_ios_as_records(self):
        harness, _client, members, router = make_fleet(replication=2)

        def body():
            wrote = yield from router.write_io(0, b"r" * 64)
            read = yield from router.read_io(0, 64)
            return wrote, read

        (wrote, read), spawned = _spawned_by(harness, body)
        assert wrote.ok and read.ok and read.data == b"r" * 64
        assert len(router.owners_of_slot(0)) == 2
        # Each target's write runs on an event of its own that the
        # write's all_of waits on: on a one-sided member, a callback
        # record, which spawns no process.
        assert all(cache.allocation.config.uses_one_sided
                   for cache in members.values())
        assert spawned == []


class TestFailover:
    def test_read_fails_over_to_the_replica(self):
        metrics = MetricsRegistry()
        harness, _client, _members, router = make_fleet(
            metrics=metrics, replication=2)

        def driver():
            res = yield router.write(0, b"f" * 64)
            assert res.ok
            primary = router.owners_of_slot(0)[0]
            router.member(primary).alive = False
            got = yield router.read(0, 64)
            return got

        got = run(harness, driver())
        assert got.ok and got.data == b"f" * 64
        assert metrics.snapshot()["router.failovers"]["value"] >= 1

    def test_unreplicated_read_of_dead_shard_errors(self):
        harness, _client, _members, router = make_fleet(replication=1)

        def driver():
            primary = router.owners_of_slot(0)[0]
            router.member(primary).alive = False
            got = yield router.read(0, 64)
            return got

        got = run(harness, driver())
        assert not got.ok and "no live shard" in got.error


class TestValidation:
    def test_rejects_bad_parameters(self):
        harness, _client, members, _router = make_fleet()
        env = harness.env
        with pytest.raises(ValueError):
            ShardRouter(env, {})
        with pytest.raises(ValueError):
            ShardRouter(env, members, replication=0)
        with pytest.raises(ValueError):
            ShardRouter(env, members, slot_bytes=0)


class TestReplicatedRouter:
    """:meth:`ShardRouter.replicated`, the §6.2 replicated cache."""

    def test_cost_scales_with_replicas(self):
        def hourly_cost(members):
            return sum(cache.allocation.hourly_cost
                       for cache in members.values())

        _harness, _client, single, _router = make_fleet(n_shards=1)
        _harness, _client, pair, _router = make_replicated()
        assert hourly_cost(pair) == pytest.approx(2 * hourly_cost(single))


def _mixed_workload_snapshot(seed):
    metrics = MetricsRegistry()
    harness, _client, _members, router = make_fleet(
        seed=seed, metrics=metrics, replication=2)
    rng = harness.rngs.stream("driver")

    def driver():
        for i in range(150):
            slot = int(rng.integers(0, router.n_slots))
            addr = slot * SLOT + int(rng.integers(0, SLOT - 64))
            if rng.random() < 0.3:
                res = yield router.write(addr, bytes([i % 251]) * 64)
            else:
                res = yield router.read(addr, 64)
            assert res.ok
        return True

    run(harness, driver())
    return metrics.snapshot()


def test_same_seed_runs_are_bit_identical():
    assert _mixed_workload_snapshot(9) == _mixed_workload_snapshot(9)


def test_different_seeds_diverge():
    assert _mixed_workload_snapshot(9) != _mixed_workload_snapshot(10)
