"""Sharded scale-out tier: consistent hashing, routing, rebalancing.

One Redy cache is bounded by its backing VMs; this package aggregates N
member caches behind a single read/write API:

* :mod:`repro.shard.ring` -- deterministic consistent-hash ring with
  minimal rebalance planning (:func:`plan_rebalance`);
* :mod:`repro.shard.router` -- the :class:`ShardRouter` front-end:
  replicated fan-out, per-shard backpressure, failover;
* :mod:`repro.shard.rebalance` -- live range streaming executing ring
  plans while the router keeps serving;
* :mod:`repro.shard.hotkeys` -- sliding-window top-k hot-slot detection
  feeding replica promotion.
"""

from repro.shard.hotkeys import HotKeyDetector, HotKeyPolicy
from repro.shard.rebalance import Rebalancer, RebalanceReport
from repro.shard.ring import (HASH_SPACE, HashRing, RangeMove,
                              RebalancePlan, key_hash, plan_rebalance,
                              range_contains)
from repro.shard.router import ShardMember, ShardRouter

__all__ = [
    "HASH_SPACE",
    "HashRing",
    "HotKeyDetector",
    "HotKeyPolicy",
    "RangeMove",
    "RebalancePlan",
    "Rebalancer",
    "RebalanceReport",
    "ShardMember",
    "ShardRouter",
    "key_hash",
    "plan_rebalance",
    "range_contains",
]
