"""Ablation: recovery strategies after a hard VM failure (§6.2).

The paper's §6.2 sketches two answers to losing a cache VM without
warning: re-provision and re-populate (from a backing copy), or keep a
replica and fail over.  This ablation quantifies the trade on the
simulated testbed:

* re-populate: the affected regions are unavailable for the whole
  re-provision + re-load window;
* replication: a two-member :class:`~repro.shard.router.ShardRouter`
  at ``replication=2`` keeps serving from the surviving replica, at ~2x
  the hourly cost.
"""

from repro.core import Slo
from repro.shard import ShardRouter
from repro.sim.clock import US
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20
CAPACITY = 4 * REGION
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)
#: On-demand VM provisioning time (real clouds: tens of seconds; kept
#: small so the bench stays fast -- the contrast is what matters).
PROVISIONING_S = 2.0


def _measure_unreplicated():
    harness = build_cluster(seed=31, provisioning_delay_s=PROVISIONING_S)
    env = harness.env
    client = harness.redy_client("norepl-app")
    backing = bytes(range(256)) * (CAPACITY // 256)
    cache = client.create(CAPACITY, SLO, region_bytes=REGION, file=backing)

    def scenario(env):
        result = yield cache.read(100, 64)
        assert result.ok
        failed_name = cache.allocation.servers[0].endpoint.name
        harness.allocator.fail(cache.allocation.vms[0])
        outage_start = env.now
        # First read discovers the failure ...
        result = yield cache.read(100, 64)
        assert not result.ok
        # ... and recovery re-provisions + re-populates.
        yield cache.recover_from_failure(failed_name)
        result = yield cache.read(100, 64)
        assert result.ok and result.data == backing[100:164]
        return env.now - outage_start, cache.allocation.hourly_cost

    return env.run_process(scenario(env))


def _measure_replicated():
    harness = build_cluster(seed=32, provisioning_delay_s=PROVISIONING_S)
    env = harness.env
    client = harness.redy_client("repl-app")
    router = ShardRouter.replicated(client, CAPACITY, SLO,
                                    region_bytes=REGION)
    # Before any replica dies.
    steady_state_cost = sum(router.member(name).cache.allocation.hourly_cost
                            for name in router.members)
    primary = router.member(router.owners_of_slot(0)[0]).cache

    def scenario(env):
        yield router.write(100, b"x" * 64)
        for vm in list(primary.allocation.vms):
            harness.allocator.fail(vm)
        outage_start = env.now
        result = yield router.read(100, 64)
        assert result.ok and result.data == b"x" * 64
        return env.now - outage_start, steady_state_cost

    return env.run_process(scenario(env))


def run_experiment():
    return _measure_unreplicated(), _measure_replicated()


def test_abl_replication_vs_repopulate(benchmark, report):
    (repop_outage, repop_cost), (repl_outage, repl_cost) = \
        benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = [
        f"(on-demand VM provisioning modeled at {PROVISIONING_S:.0f}s)",
        f"{'strategy':>22} {'unavailability':>15} {'hourly cost':>12}",
        f"{'re-populate (backup)':>22} {repop_outage * 1e3:>13.2f}ms "
        f"${repop_cost:>10.3f}",
        f"{'2-way replication':>22} {repl_outage * 1e3:>13.2f}ms "
        f"${repl_cost:>10.3f}",
        f"replication cuts unavailability "
        f"{repop_outage / repl_outage:.0f}x for "
        f"{repl_cost / repop_cost:.1f}x the cost",
    ]
    report("abl_replication", "Ablation: failure recovery strategies",
           lines)

    # Failover completes within a handful of I/O round trips.
    assert repl_outage < 200 * US
    # Re-populate is orders of magnitude longer and cheaper per hour.
    assert repop_outage > 10 * repl_outage
    assert repl_cost > 1.8 * repop_cost
