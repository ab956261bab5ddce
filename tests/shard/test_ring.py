"""Consistent-hash ring: placement, minimality, determinism."""

import pytest

from repro.shard.ring import (HASH_SPACE, HashRing, key_hash,
                              plan_rebalance, range_contains)

SHARDS = [f"s{i}" for i in range(8)]


def test_placement_is_deterministic_across_builds():
    a = HashRing(SHARDS, vnodes_per_shard=32)
    b = HashRing(reversed(SHARDS), vnodes_per_shard=32)  # insertion order
    points = [key_hash(slot) for slot in range(512)]
    assert ([a.owners(p, 1) for p in points]
            == [b.owners(p, 1) for p in points])
    assert a.ranges(2) == b.ranges(2)


def test_owners_are_distinct_shards():
    ring = HashRing(SHARDS[:4], vnodes_per_shard=16)
    for slot in range(256):
        owners = ring.owners(key_hash(slot), 3)
        assert len(owners) == len(set(owners)) == 3
        assert all(o in ring for o in owners)


def test_owners_clamps_to_member_count():
    ring = HashRing(["a", "b"], vnodes_per_shard=8)
    assert len(ring.owners(123, 5)) == 2


def test_empty_ring_has_no_owner():
    with pytest.raises(ValueError):
        HashRing().owners(0, 1)


def test_duplicate_and_missing_membership_errors():
    ring = HashRing(["a"])
    with pytest.raises(ValueError):
        ring.add("a")
    with pytest.raises(ValueError):
        ring.remove("b")


def test_ranges_cover_the_whole_circle():
    ring = HashRing(SHARDS[:5], vnodes_per_shard=16)
    arcs = ring.ranges(2)
    total = sum((hi - lo) % HASH_SPACE or HASH_SPACE
                for lo, hi, _owners in arcs)
    assert total == HASH_SPACE
    # Every arc's owner tuple matches a direct owners() query at hi.
    for lo, hi, owners in arcs:
        assert tuple(ring.owners(hi, 2)) == owners


def test_range_contains_handles_wraparound():
    assert range_contains(10, 20, 15)
    assert not range_contains(10, 20, 5)
    assert not range_contains(10, 20, 10)  # half-open at lo
    assert range_contains(10, 20, 20)      # closed at hi
    # Wrapping arc (lo > hi) passes through zero.
    lo, hi = HASH_SPACE - 5, 7
    assert range_contains(lo, hi, HASH_SPACE - 1)
    assert range_contains(lo, hi, 3)
    assert not range_contains(lo, hi, 1000)


def test_join_moves_about_one_over_n():
    old = HashRing(SHARDS[:8], vnodes_per_shard=64)
    new = old.copy()
    new.add("s8")
    plan = plan_rebalance(old, new)
    assert plan.joined == ("s8",)
    assert plan.departed == ()
    # Consistent hashing moves ~1/9 of the circle; allow 2x slack for
    # vnode variance at 64 vnodes.
    assert 0 < plan.moved_fraction < 2 / 9
    # Every move targets only the joiner and sources the old owner.
    for move in plan:
        assert move.targets == ("s8",)
        assert move.new_owners == ("s8",)
        assert move.sources[0] != "s8"


def test_leave_moves_only_the_departed_ranges():
    old = HashRing(SHARDS[:8], vnodes_per_shard=64)
    new = old.copy()
    new.remove("s3")
    plan = plan_rebalance(old, new)
    assert plan.departed == ("s3",)
    assert 0 < plan.moved_fraction < 2 / 8
    for move in plan:
        assert move.sources[0] == "s3"       # only s3's ranges move
        assert "s3" not in move.new_owners
        assert "s3" not in move.targets


def test_replicated_plan_sources_include_surviving_replica():
    """With n_owners=2 every departed range has a live source."""
    old = HashRing(SHARDS[:6], vnodes_per_shard=32)
    new = old.copy()
    new.remove("s0")
    plan = plan_rebalance(old, new, n_owners=2)
    for move in plan:
        survivors = [s for s in move.sources if s != "s0"]
        assert survivors, "replica must survive the departure"
        assert len(move.new_owners) == 2


def test_plan_is_bit_identical_across_runs():
    def build():
        old = HashRing(SHARDS[:8], vnodes_per_shard=64)
        new = old.copy()
        new.add("s8")
        new.remove("s2")
        return plan_rebalance(old, new, n_owners=2)

    first, second = build(), build()
    assert first.digest() == second.digest()
    assert first.to_dict() == second.to_dict()


def test_unchanged_membership_plans_no_moves():
    ring = HashRing(SHARDS[:4])
    plan = plan_rebalance(ring, ring.copy(), n_owners=2)
    assert len(plan) == 0
    assert plan.moved_fraction == 0.0


def test_bootstrap_and_empty_target_edge_cases():
    empty, full = HashRing(), HashRing(["a", "b"])
    plan = plan_rebalance(empty, full)
    assert len(plan) == 0 and plan.joined == ("a", "b")
    with pytest.raises(ValueError):
        plan_rebalance(full, empty)
    assert len(plan_rebalance(empty, empty)) == 0


def test_moves_partition_exactly_the_changed_ownership():
    """A point is in some move iff its owner set gained a member."""
    old = HashRing(SHARDS[:5], vnodes_per_shard=16)
    new = old.copy()
    new.add("s5")
    plan = plan_rebalance(old, new, n_owners=2)
    for slot in range(1024):
        point = key_hash(slot)
        old_owners = set(old.owners(point, 2))
        new_owners = set(new.owners(point, 2))
        in_moves = [m for m in plan if m.contains(point)]
        if new_owners - old_owners:
            assert len(in_moves) == 1
            assert set(in_moves[0].new_owners) == new_owners
        else:
            assert not in_moves
