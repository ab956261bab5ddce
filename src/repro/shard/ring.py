"""Deterministic consistent-hash ring for the sharded scale-out tier.

The routing front-end (:mod:`repro.shard.router`) maps each fixed-size
*slot* of the global address space onto one of N member caches through
this ring.  Placement is the classic consistent-hashing construction:
every shard contributes ``vnodes_per_shard`` virtual nodes at
SHA-256-derived points on a 64-bit circle, and a slot belongs to the
first virtual node at or clockwise of its own SHA-256 point.

Everything here is a pure function of (member names, vnode count): no
RNG, no wall clock, no id counters -- two processes that build the same
ring get bit-identical placement, and :func:`plan_rebalance` emits
bit-identical move lists.  That is the determinism contract the shard
benchmarks assert.

Rebalancing is *minimal by construction*: a join or leave only remaps
the hash ranges whose owner set actually changed, which consistent
hashing bounds at ~1/N of the circle per membership change.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, List, Tuple

__all__ = ["HASH_SPACE", "HashRing", "RangeMove", "RebalancePlan",
           "key_hash", "plan_rebalance", "range_contains"]

#: The ring is a circle of 64-bit points: [0, 2^64).
HASH_SPACE = 1 << 64


def _sha_point(data: bytes) -> int:
    """A stable 64-bit point from SHA-256 (platform-independent)."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def key_hash(slot: int) -> int:
    """The ring point of one address-space slot."""
    return _sha_point(slot.to_bytes(8, "big"))


class HashRing:
    """Consistent-hash ring over named shards with virtual nodes."""

    def __init__(self, shards: Iterable[str] = (), *,
                 vnodes_per_shard: int = 64):
        if vnodes_per_shard < 1:
            raise ValueError("vnodes_per_shard must be >= 1")
        self.vnodes_per_shard = vnodes_per_shard
        #: Sorted (point, shard) pairs -- the circle.
        self._points: List[Tuple[int, str]] = []
        self._shards: set[str] = set()
        for shard in shards:
            self.add(shard)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    @property
    def shards(self) -> List[str]:
        return sorted(self._shards)

    def add(self, shard: str) -> None:
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.add(shard)
        for i in range(self.vnodes_per_shard):
            point = _sha_point(f"{shard}#{i}".encode())
            # The (point, shard) tuple breaks the (astronomically rare)
            # point collision deterministically by name.
            insort(self._points, (point, shard))

    def remove(self, shard: str) -> None:
        if shard not in self._shards:
            raise ValueError(f"shard {shard!r} not on the ring")
        self._shards.discard(shard)
        self._points = [p for p in self._points if p[1] != shard]

    def copy(self) -> "HashRing":
        clone = HashRing(vnodes_per_shard=self.vnodes_per_shard)
        clone._points = list(self._points)
        clone._shards = set(self._shards)
        return clone

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def owners(self, point: int, n: int) -> List[str]:
        """The first ``n`` *distinct* shards at or clockwise of ``point``.

        ``owners(h, 2)`` is the replica set of a key hashed to ``h``:
        primary first, then the next distinct shard around the circle
        (never two virtual nodes of the same shard).
        """
        if not self._points:
            raise ValueError("ring has no shards")
        n = min(n, len(self._shards))
        index = bisect_left(self._points, (point % HASH_SPACE, ""))
        found: List[str] = []
        for step in range(len(self._points)):
            shard = self._points[(index + step) % len(self._points)][1]
            if shard not in found:
                found.append(shard)
                if len(found) == n:
                    break
        return found

    def points(self) -> List[int]:
        """All virtual-node points, sorted (the circle's boundaries)."""
        return [point for point, _shard in self._points]

    def ranges(self, n_owners: int) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """Owner intervals covering the circle: ``(lo, hi, owners)``.

        Each interval is the half-open circular arc ``(lo, hi]``; the
        final entry wraps through zero.  Adjacent arcs with equal owner
        tuples are merged, so the list is canonical -- two identical
        rings produce byte-identical range tables.
        """
        boundaries = self.points()
        if not boundaries:
            return []
        arcs: List[Tuple[int, int, Tuple[str, ...]]] = []
        for i, hi in enumerate(boundaries):
            lo = boundaries[i - 1]  # i == 0 wraps to the last point
            owners = tuple(self.owners(hi, n_owners))
            if arcs and arcs[-1][2] == owners and arcs[-1][1] == lo:
                arcs[-1] = (arcs[-1][0], hi, owners)
            else:
                arcs.append((lo, hi, owners))
        # Merge across the seam (last arc wraps into the first).
        if len(arcs) > 1 and arcs[0][2] == arcs[-1][2]:
            lo, _hi, owners = arcs.pop()
            arcs[0] = (lo, arcs[0][1], owners)
        return arcs


def range_contains(lo: int, hi: int, point: int) -> bool:
    """Is ``point`` inside the circular arc ``(lo, hi]``?"""
    if lo < hi:
        return lo < point <= hi
    return point > lo or point <= hi  # wraps through zero


def _range_span(lo: int, hi: int) -> int:
    """Arc length of ``(lo, hi]`` on the circle."""
    return (hi - lo) % HASH_SPACE or HASH_SPACE


@dataclass(frozen=True)
class RangeMove:
    """One key-range transfer a membership change requires.

    The arc ``(lo, hi]`` changed owner set: ``targets`` are the new
    owners that do not yet hold the data, ``sources`` the old owners
    (primary first) any of which can stream it.  ``new_owners`` is the
    complete post-move owner tuple the router flips routing to once the
    range has landed.
    """

    lo: int
    hi: int
    sources: Tuple[str, ...]
    targets: Tuple[str, ...]
    new_owners: Tuple[str, ...]

    @property
    def span(self) -> int:
        return _range_span(self.lo, self.hi)

    def contains(self, point: int) -> bool:
        return range_contains(self.lo, self.hi, point)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi,
                "sources": list(self.sources),
                "targets": list(self.targets),
                "new_owners": list(self.new_owners)}


@dataclass(frozen=True)
class RebalancePlan:
    """The minimal move list taking ``old`` ring ownership to ``new``."""

    moves: Tuple[RangeMove, ...]
    joined: Tuple[str, ...]
    departed: Tuple[str, ...]
    n_owners: int

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    @property
    def moved_span(self) -> int:
        """Total arc length changing hands (the 1/N minimality metric)."""
        return sum(move.span for move in self.moves)

    @property
    def moved_fraction(self) -> float:
        return self.moved_span / HASH_SPACE

    def to_dict(self) -> dict:
        return {"moves": [move.to_dict() for move in self.moves],
                "joined": list(self.joined),
                "departed": list(self.departed),
                "n_owners": self.n_owners}

    def digest(self) -> str:
        """SHA-256 over the canonical JSON -- the bit-identity check."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def plan_rebalance(old: HashRing, new: HashRing,
                   n_owners: int = 1) -> RebalancePlan:
    """The minimal range moves taking ``old`` ownership to ``new``.

    Walks the union of both rings' virtual-node boundaries -- inside one
    boundary interval ownership is constant in *both* rings -- and emits
    a move for exactly the intervals whose owner set changed.  Adjacent
    intervals with the same (sources, targets, new_owners) merge, so the
    plan is canonical and minimal.
    """
    if not len(old) and not len(new):
        return RebalancePlan(moves=(), joined=(), departed=(),
                             n_owners=n_owners)
    if not len(new):
        raise ValueError("cannot rebalance to an empty ring")
    joined = tuple(sorted(set(new.shards) - set(old.shards)))
    departed = tuple(sorted(set(old.shards) - set(new.shards)))
    if not len(old):
        # Bootstrap: a fresh ring owns everything; nothing to move.
        return RebalancePlan(moves=(), joined=joined, departed=departed,
                             n_owners=n_owners)

    boundaries = sorted(set(old.points()) | set(new.points()))
    moves: List[RangeMove] = []
    for i, hi in enumerate(boundaries):
        lo = boundaries[i - 1]
        old_owners = tuple(old.owners(hi, n_owners))
        new_owners = tuple(new.owners(hi, n_owners))
        targets = tuple(s for s in new_owners if s not in old_owners)
        if not targets:
            continue  # owner set unchanged (or only reordered): no copy
        move = RangeMove(lo=lo, hi=hi, sources=old_owners,
                         targets=targets, new_owners=new_owners)
        if (moves and moves[-1].hi == lo
                and moves[-1].sources == move.sources
                and moves[-1].targets == move.targets
                and moves[-1].new_owners == move.new_owners):
            moves[-1] = RangeMove(lo=moves[-1].lo, hi=hi,
                                  sources=move.sources,
                                  targets=move.targets,
                                  new_owners=move.new_owners)
        else:
            moves.append(move)
    # Merge across the seam: the first interval's lo is the last boundary.
    if (len(moves) > 1 and moves[0].lo == moves[-1].hi
            and moves[0].sources == moves[-1].sources
            and moves[0].targets == moves[-1].targets
            and moves[0].new_owners == moves[-1].new_owners):
        last = moves.pop()
        moves[0] = RangeMove(lo=last.lo, hi=moves[0].hi,
                             sources=last.sources, targets=last.targets,
                             new_owners=last.new_owners)
    return RebalancePlan(moves=tuple(moves), joined=joined,
                         departed=departed, n_owners=n_owners)
