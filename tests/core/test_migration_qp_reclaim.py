"""Regression: the migration bulk QP must be reclaimed when the move
finishes (or fails).

``migrate_regions`` builds a dedicated high-depth QueuePair as a
temporary bulk pipe.  Before the fix the pair was never reclaimed, so
every spot reclamation left one phantom QP registered on the surviving
endpoint -- found by the since-retired lifecycle rule L001 and fixed
with a ``try/finally`` around the whole copy loop.  A leaked QP has no
other symptom, so both ways out of the loop are pinned here: a
migration that finishes, and one whose source VM dies mid-copy.
"""

import pytest

from repro.cluster import PhysicalServer, VmAllocator
from repro.core import Slo
from repro.core import migration as migration_mod
from repro.core.client import RedyClient
from repro.core.manager import CacheManager
from repro.hardware import AZURE_HPC
from repro.net import Fabric
from repro.sim import Environment
from repro.sim.rng import RngRegistry

REGION = 4096
EASY_SLO = Slo(max_latency=1e-3, min_throughput=1e4, record_size=64)


@pytest.fixture()
def stack():
    env = Environment()
    rngs = RngRegistry(seed=0)
    fabric = Fabric(env, AZURE_HPC)
    servers = [
        PhysicalServer(server_id=i, cluster=i // 4, rack=(i // 2) % 2,
                       cores=48, memory_gb=384.0)
        for i in range(8)
    ]
    allocator = VmAllocator(env, servers)
    manager = CacheManager(env, AZURE_HPC, fabric, allocator, rngs)
    client = RedyClient(env, AZURE_HPC, fabric, manager, rngs)
    return env, allocator, manager, client


def test_migration_bulk_qp_is_reclaimed(stack, monkeypatch):
    env, allocator, _, client = stack
    created = []

    class SpyQueuePair(migration_mod.QueuePair):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(migration_mod, "QueuePair", SpyQueuePair)

    cache = client.create(2 * REGION, EASY_SLO, duration_s=3600.0,
                          region_bytes=REGION)

    def run_write(env):
        result = yield cache.write(0, b"migrate me")
        return result

    assert env.run_process(run_write(env)).ok
    allocator.reclaim(cache.allocation.vms[0])
    env.run()  # notice -> migration -> release

    assert cache.migrations, "migration should have run"
    assert created, "migration should have built a bulk QP"
    # Every bulk pipe was torn down; none lingers on the endpoints.
    assert all(qp.reclaimed for qp in created)
    for server in cache.allocation.servers:
        assert all(qp not in created for qp in server.endpoint.qps)


def test_bulk_qp_is_reclaimed_when_the_source_vm_dies_mid_copy(
        stack, monkeypatch):
    env, allocator, _, client = stack
    created = []

    class SpyQueuePair(migration_mod.QueuePair):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(migration_mod, "QueuePair", SpyQueuePair)

    # Two 1 MiB regions take ~2.4 ms to copy; the VM dies after 0.5 ms,
    # so the second region's chunk reads complete in error.
    region = 1 << 20
    cache = client.create(2 * region, EASY_SLO, duration_s=3600.0,
                          region_bytes=region)
    allocator.reclaim(cache.allocation.vms[0], notice_s=0.5e-3)
    env.run()

    assert cache.migration_failures == 1 and not cache.migrations
    assert len(created) == 1 and created[0].reclaimed
