"""Chaos soak: every §6 mechanism running at once on one cluster.

One simulated hour with three caches sharing a fleet:

* a *spot* cache watched by the lifetime guard and the cost optimizer,
  with periodic reclamations arriving underneath both;
* a *replicated* cache (a two-member replication-2 shard router) whose
  primary suffers a hard VM failure;
* a *harvest* cache on stranded memory that gets evicted when a paying
  tenant needs the space.

Light I/O runs against all three throughout; at the end every byte must
read back correctly and no op may have starved.
"""

import pytest

from repro.cluster.prediction import SpotLifetimePredictor
from repro.cluster.pricing import SpotMarket
from repro.core import Slo
from repro.core.costopt import CostOptimizer
from repro.core.guard import SpotGuard
from repro.shard import ShardRouter
from repro.workloads.scenarios import build_cluster, strand_servers

REGION = 1 << 20
CAPACITY = 4 * REGION
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=256)
SOAK_S = 3600.0


@pytest.mark.parametrize("seed", [1, 2])
def test_soak_hour_of_chaos(seed):
    harness = build_cluster(seed=seed, n_servers=12)
    strand_servers(harness, count=3)
    env = harness.env
    rng = harness.rngs.stream("chaos")

    market = SpotMarket(env, harness.manager.menu,
                        harness.rngs.stream("market"),
                        update_interval_s=300.0, volatility=0.4)

    # --- the three caches -------------------------------------------
    spot_client = harness.redy_client("soak-spot")
    spot_cache = spot_client.create(CAPACITY, SLO, duration_s=2 * SOAK_S,
                                    region_bytes=REGION)
    predictor = SpotLifetimePredictor(min_samples=3)
    for lifetime in (900.0, 1100.0, 1300.0, 1600.0):
        for vm_type in harness.manager.menu:
            predictor.observe(vm_type.name, lifetime, reclaimed=True)
    SpotGuard(spot_cache, predictor, check_interval_s=60.0, risk=0.1)
    CostOptimizer(spot_cache, market, check_interval_s=600.0)

    repl_client = harness.redy_client("soak-repl")
    replicated = ShardRouter.replicated(repl_client, CAPACITY, SLO,
                                        region_bytes=REGION)
    repl_primary = replicated.member(replicated.owners_of_slot(0)[0])

    harvest_client = harness.redy_client("soak-harvest")
    harvest_cache = harvest_client.create(CAPACITY, SLO,
                                          region_bytes=REGION,
                                          harvest=True)

    # --- shadow models ------------------------------------------------
    shadows = {
        "spot": bytearray(CAPACITY),
        "repl": bytearray(CAPACITY),
        "harvest": bytearray(CAPACITY),
    }
    issued = {"count": 0}
    completed = {"count": 0}

    def io_driver(env):
        targets = [("spot", spot_cache), ("repl", replicated),
                   ("harvest", harvest_cache)]
        while env.now < SOAK_S:
            name, cache = targets[int(rng.integers(0, 3))]
            addr = int(rng.integers(0, CAPACITY - 256))
            issued["count"] += 1
            if rng.random() < 0.5:
                payload = bytes([int(rng.integers(0, 256))]) * 256
                result = yield cache.write(addr, payload)
                if result.ok:
                    shadows[name][addr:addr + 256] = payload
                completed["count"] += 1
            else:
                result = yield cache.read(addr, 256)
                completed["count"] += 1
                if result.ok:
                    assert result.data == bytes(
                        shadows[name][addr:addr + 256]), (name, addr)
            yield env.timeout(float(rng.exponential(2.0)))

    def chaos_driver(env):
        # Reclaim the spot cache's VM a couple of times.
        for _ in range(2):
            yield env.timeout(float(rng.uniform(400.0, 900.0)))
            for vm in list(spot_cache.allocation.vms):
                if vm.spot and vm.alive and vm.reclaim_deadline is None:
                    harness.allocator.reclaim(vm)
                    break
        # Hard-fail the replicated cache's primary mid-run.
        yield env.timeout(200.0)
        for vm in list(repl_primary.cache.allocation.vms):
            harness.allocator.fail(vm)
        # Evict the harvest cache from its stranded host.
        yield env.timeout(300.0)
        for vm in list(harvest_cache.allocation.vms):
            if vm.alive and vm.reclaim_deadline is None:
                harness.allocator.reclaim(vm)
                break

    driver = env.process(io_driver(env), name="soak-io")
    env.process(chaos_driver(env), name="soak-chaos")
    env.run(until=SOAK_S + 120.0)

    # The I/O loop must have finished (no starvation / deadlock).
    assert driver.triggered, "I/O driver starved"
    assert completed["count"] == issued["count"]
    assert issued["count"] > 500

    # Full content verification on every cache.
    def verify(env):
        for name, cache in (("spot", spot_cache), ("harvest",
                                                   harvest_cache)):
            result = yield cache.read(0, CAPACITY)
            assert result.ok, (name, result.error)
            assert result.data == bytes(shadows[name]), name
        result = yield replicated.read(0, CAPACITY)
        assert result.ok
        assert result.data == bytes(shadows["repl"])
        return True

    assert env.run_process(verify(env))

    # The chaos actually happened.
    assert spot_cache.migrations, "spot cache never migrated"
    assert list(replicated.retired) == [repl_primary.name]
    assert len(replicated.members) == 1
    assert harvest_cache.migrations, "harvest cache never migrated"
    assert spot_cache.migration_failures == 0
