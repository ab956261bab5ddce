"""Shared builders for the shard-tier tests."""

import pytest

from repro.core import Slo
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardRouter
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20
CAPACITY = 2 * REGION
SLOT = 1 << 14
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)


def make_fleet(seed=1, n_shards=3, *, metrics=None, n_servers=8,
               duration_s=float("inf"), **router_kwargs):
    """A cluster harness plus a router over ``n_shards`` member caches.

    A finite ``duration_s`` buys spot-backed members (reclaimable).
    """
    harness = build_cluster(seed=seed, n_servers=n_servers, metrics=metrics)
    client = harness.redy_client("shard-app")
    members = {f"s{i}": client.create(CAPACITY, SLO, duration_s,
                                      region_bytes=REGION)
               for i in range(n_shards)}
    router_kwargs.setdefault("slot_bytes", SLOT)
    router = ShardRouter(harness.env, members, **router_kwargs)
    return harness, client, members, router


def make_replicated(seed=1, *, metrics=None, n_servers=8):
    """A harness plus the §6.2 replicated cache: two members on disjoint
    servers, both owning every slot (:meth:`ShardRouter.replicated`)."""
    harness = build_cluster(seed=seed, n_servers=n_servers, metrics=metrics)
    client = harness.redy_client("repl-app")
    router = ShardRouter.replicated(client, CAPACITY, SLO,
                                    region_bytes=REGION)
    members = {name: router.member(name).cache for name in router.members}
    return harness, client, members, router


def server_ids(cache):
    """The physical servers (fault domains) one member cache spans."""
    return {vm.server.server_id for vm in cache.allocation.vms}


@pytest.fixture
def fleet():
    return make_fleet(metrics=MetricsRegistry())
