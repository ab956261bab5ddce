"""§6.2's migration optimizations and §7.4's ingest cost, by behaviour.

A cache of two 1 MiB regions on one VM migrates both to a replacement
VM while a driver issues ops 10 µs in.  Each test reads the instant
each region's gates lift (``RegionTable.resume``) against the instant
each op completes:

* with unpaused reads, a read of the region being copied completes
  before that region resumes;
* with per-region pauses, a write to a region not yet being copied
  goes through, and a write to the region being copied waits for it;
  the baseline pauses every write from the start;
* a region's copy takes its ingest time at the receiver's ingest rate.
"""

import pytest

from repro.cluster import PhysicalServer, VmAllocator
from repro.core import Slo
from repro.core.client import RedyClient
from repro.core.manager import CacheManager
from repro.core.migration import (INGEST_BANDWIDTH_GBPS, MigrationPolicy,
                                  migrate_regions)
from repro.hardware import AZURE_HPC
from repro.net import Fabric
from repro.sim import US, Environment
from repro.sim.rng import RngRegistry

REGION = 1 << 20
EASY_SLO = Slo(max_latency=1e-3, min_throughput=1e4, record_size=64)
#: Seconds the receiver needs to ingest one region (§7.4's rate).
INGEST_S = REGION * 8 / (INGEST_BANDWIDTH_GBPS * 1e9)


def _migrate(monkeypatch, policy, ops, regions=(0, 1)):
    """Migrate ``regions`` under ``policy``; 10 µs in, start each
    ``(name, is_read, region)`` op.  Returns the migration report, each
    region's resume instant and each op's completion instant."""
    env = Environment()
    rngs = RngRegistry(seed=0)
    fabric = Fabric(env, AZURE_HPC)
    servers = [PhysicalServer(server_id=i, cluster=0, rack=i % 2, cores=48,
                              memory_gb=384.0) for i in range(4)]
    allocator = VmAllocator(env, servers)
    manager = CacheManager(env, AZURE_HPC, fabric, allocator, rngs)
    client = RedyClient(env, AZURE_HPC, fabric, manager, rngs)
    cache = client.create(2 * REGION, EASY_SLO, duration_s=3600.0,
                          region_bytes=REGION)
    vm, old_server = cache.allocation.vms[0], cache.allocation.servers[0]
    _new_vm, new_server = manager.allocate_replacement(
        cache.allocation, len(regions), exclude_vm=vm)

    resumed, done = {}, {}
    resume = cache.table.resume

    def record_resume(index):
        resumed.setdefault(index, env.now)
        resume(index)

    monkeypatch.setattr(cache.table, "resume", record_resume)

    def op(name, is_read, region):
        addr = region * REGION
        yield (cache.read(addr, 64) if is_read
               else cache.write(addr, b"m" * 64))
        done[name] = env.now

    def driver():
        yield env.timeout(10 * US)
        for name, is_read, region in ops:
            env.process(op(name, is_read, region))

    migration = env.process(migrate_regions(cache, old_server, new_server,
                                            list(regions), policy))
    env.process(driver())
    env.run()
    return migration.value, resumed, done


def test_unpaused_read_of_the_region_being_copied_completes_before_it_resumes(
        monkeypatch):
    _report, resumed, done = _migrate(monkeypatch, MigrationPolicy(),
                                      [("read", True, 0)])
    assert done["read"] < resumed[0]
    assert done["read"] < 100 * US  # served by the old VM, not paused


def test_per_region_pause_holds_only_the_region_being_copied(monkeypatch):
    _report, resumed, done = _migrate(
        monkeypatch, MigrationPolicy(),
        [("copied", False, 0), ("waiting", False, 1)])
    # Region 1 is not being copied yet: its write goes through.
    assert done["waiting"] < resumed[0] < resumed[1]
    # Region 0 is: its write waits until the region lands.
    assert done["copied"] >= resumed[0]


def test_baseline_pauses_every_migrating_region_from_the_start(monkeypatch):
    report, resumed, done = _migrate(
        monkeypatch, MigrationPolicy(pause_per_region=False),
        [("waiting", False, 1)])
    # Region 1's write waits out the whole migration, region 0 included.
    assert done["waiting"] >= resumed[1] == report.finished_at
    assert resumed[0] == report.finished_at


def test_a_region_copy_takes_its_ingest_time(monkeypatch):
    report, _resumed, _done = _migrate(monkeypatch, MigrationPolicy(), [],
                                       regions=(0,))
    # The receiver's ingest is the bottleneck (§7.4): the copy takes the
    # ingest time plus one chunk's wire time, which is well under a
    # quarter of it at this size.
    assert INGEST_S <= report.duration < 1.25 * INGEST_S
    assert INGEST_S == pytest.approx(1.048576e-3)
