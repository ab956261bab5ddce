"""Hot-key detection, promotion, round-robin reads, demotion."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.shard import HotKeyDetector, HotKeyPolicy

from tests.conftest import under_hash_seed
from tests.shard.conftest import SLOT, make_fleet


def run(harness, gen):
    return harness.env.run_process(gen)


class TestDetector:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HotKeyPolicy(window=0)
        with pytest.raises(ValueError):
            HotKeyPolicy(top_k=0)
        with pytest.raises(ValueError):
            HotKeyPolicy(replicas=0)

    def test_counts_slide_out_of_the_window(self):
        detector = HotKeyDetector(HotKeyPolicy(window=10, min_count=3,
                                               check_every=100))
        for _ in range(5):
            detector.record(7)
        assert detector.count(7) == 5
        for i in range(10):  # push 7 out of the window
            detector.record(100 + i)
        assert detector.count(7) == 0
        assert detector.hot_slots() == []

    def test_top_k_orders_hottest_first_and_breaks_ties_by_slot(self):
        detector = HotKeyDetector(HotKeyPolicy(window=100, top_k=2,
                                               min_count=2,
                                               check_every=1000))
        for _ in range(5):
            detector.record(3)
        for _ in range(4):
            detector.record(9)
            detector.record(1)
        assert detector.hot_slots() == [3, 1]

    def test_min_count_filters_lukewarm_slots(self):
        detector = HotKeyDetector(HotKeyPolicy(window=100, min_count=10,
                                               check_every=1000))
        for slot in range(50):
            detector.record(slot)
        assert detector.hot_slots() == []

    def test_record_signals_the_check_cadence(self):
        detector = HotKeyDetector(HotKeyPolicy(check_every=4))
        signals = [detector.record(0) for _ in range(8)]
        assert signals == [False, False, False, True] * 2


class TestPromotion:
    def _skewed_fleet(self, metrics=None):
        policy = HotKeyPolicy(window=256, top_k=2, min_count=32,
                              replicas=2, check_every=64)
        return make_fleet(n_shards=4, metrics=metrics, hotkeys=policy)

    def test_hot_slot_gets_promoted_and_reads_round_robin(self):
        metrics = MetricsRegistry()
        harness, _client, _members, router = self._skewed_fleet(metrics)

        def driver():
            res = yield router.write(0, b"h" * 64)
            assert res.ok
            for _ in range(300):   # hammer slot 0
                got = yield router.read(0, 64)
                assert got.ok and got.data == b"h" * 64
            return True

        assert run(harness, driver())
        assert 0 in router.hot_slots()
        extras = router.hot_slots()[0]
        assert len(extras) == 1
        assert extras[0] not in router.owners_of_slot(0)
        snap = metrics.snapshot()
        assert snap["hotkeys.promotions"]["value"] >= 1
        assert snap["hotkeys.replica_reads"]["value"] > 0
        # Post-promotion reads spread across owner + replica: both the
        # owner's and the replica's per-shard read counters moved.
        shard_reads = {name: blob["value"] for name, blob in snap.items()
                       if name.startswith("shard.reads{")}
        busy = [name for name, value in shard_reads.items() if value > 0]
        assert len(busy) >= 2

    def test_replica_serves_the_promoted_data(self):
        harness, _client, members, router = self._skewed_fleet()

        def driver():
            res = yield router.write(0, b"p" * 64)
            assert res.ok
            for _ in range(300):
                yield router.read(0, 64)
            extras = router.hot_slots().get(0, ())
            copies = []
            for name in extras:
                got = yield members[name].read(0, 64)
                copies.append(got)
            return extras, copies

        extras, copies = run(harness, driver())
        assert extras
        assert all(c.ok and c.data == b"p" * 64 for c in copies)

    def test_cooled_slot_gets_demoted(self):
        metrics = MetricsRegistry()
        harness, _client, _members, router = self._skewed_fleet(metrics)

        def driver():
            yield router.write(0, b"c" * 64)
            for _ in range(300):
                yield router.read(0, 64)
            assert 0 in router.hot_slots()
            # Shift the workload: slot 0 slides out of the window.
            for i in range(600):
                yield router.read((1 + i % 50) * SLOT, 64)
            return True

        assert run(harness, driver())
        assert 0 not in router.hot_slots()
        assert metrics.snapshot()["hotkeys.demotions"]["value"] >= 1

    def test_writes_to_hot_slot_update_every_replica(self):
        harness, _client, _members, router = self._skewed_fleet()

        def driver():
            yield router.write(0, b"a" * 64)
            for _ in range(300):
                yield router.read(0, 64)
            assert 0 in router.hot_slots()
            res = yield router.write(0, b"b" * 64)
            assert res.ok
            # Every subsequent read -- whichever replica round-robin
            # picks -- must see the new value.
            for _ in range(8):
                got = yield router.read(0, 64)
                assert got.ok and got.data == b"b" * 64
            return True

        assert run(harness, driver())

    def test_promotion_is_deterministic(self):
        def one(seed):
            metrics = MetricsRegistry()
            policy = HotKeyPolicy(window=256, top_k=2, min_count=32,
                                  replicas=2, check_every=64)
            harness, _client, _members, router = make_fleet(
                seed=seed, n_shards=4, metrics=metrics, hotkeys=policy)

            def driver():
                yield router.write(0, b"d" * 64)
                for _ in range(300):
                    yield router.read(0, 64)
                return router.hot_slots()

            hot = run(harness, driver())
            return hot, metrics.snapshot()

        assert one(3) == one(3)


def _promote_to_two_extras(seed):
    """Heat slot 0 of a fleet where it has one owner (``s0``) and three
    replicas are asked for, so promotion copies it to two extras, then
    write it to all three.  Returns the extras, and the order a ``set``
    of the extras iterates in."""
    policy = HotKeyPolicy(window=256, top_k=1, min_count=32, replicas=3,
                          check_every=64)
    harness, _client, _members, router = make_fleet(
        seed=seed, n_shards=4, hotkeys=policy)

    def driver():
        yield router.write(0, b"t" * 64)
        for _ in range(100):
            yield router.read(0, 64)
        yield router.write(0, b"u" * 64)

    run(harness, driver())
    extras = router.hot_slots()[0]
    return extras, list(set(extras))


def test_copy_to_two_extras_does_not_follow_the_hash_seed():
    # The copy issues one write per extra and keeps the extras whose
    # write landed.  Under PYTHONHASHSEED 0 a set of the two extras
    # iterates s2 first, under 1 s3 first, so issuing the copy in set
    # order moves the trace, and pairing the results with a set moves
    # the extras.
    workload = "tests.shard.test_hotkeys:_promote_to_two_extras"
    digest_0, (extras_0, set_order_0) = under_hash_seed("0", workload, 1)
    digest_1, (extras_1, set_order_1) = under_hash_seed("1", workload, 1)
    assert set_order_0 == ["s2", "s3"] and set_order_1 == ["s3", "s2"]
    assert extras_0 == extras_1 == ["s2", "s3"]
    assert digest_0 == digest_1
