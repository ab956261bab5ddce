"""Unit tests for the cache manager's §6.1 allocation logic."""

import math

import pytest

from repro.cluster import PhysicalServer, VmAllocator
from repro.core import RdmaConfig, Slo
from repro.core.manager import CacheManager, SloUnsatisfiableError
from repro.core.modeling import analytic_model
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_cluster

EASY_SLO = Slo(max_latency=1e-3, min_throughput=1e4, record_size=64)
REGION = 4 << 20


def make_manager(n_servers=8):
    env = Environment()
    rngs = RngRegistry(seed=0)
    fabric = Fabric(env, AZURE_HPC)
    servers = [
        PhysicalServer(server_id=i, cluster=i // 4, rack=(i // 2) % 2,
                       cores=48, memory_gb=384.0)
        for i in range(n_servers)
    ]
    allocator = VmAllocator(env, servers)
    return env, allocator, CacheManager(env, AZURE_HPC, fabric, allocator,
                                        rngs)


class TestModels:
    def test_models_are_cached_per_record_size_and_distance(self):
        _, _, manager = make_manager()
        a = manager.model_for(64, 1)
        b = manager.model_for(64, 1)
        c = manager.model_for(64, 3)
        assert a is b
        assert a is not c
        # One model per process: a second manager on the same profile
        # shares it.
        _, _, other = make_manager()
        assert other.model_for(64, 1) is a
        assert other.model_for(64, 3) is c

    def test_kv_open_setup_shape_builds_three_models(self):
        """Nine clusters, each creating one cache, build each of the
        three per-distance models once."""
        analytic_model.cache_clear()
        slo = Slo(max_latency=20e-6, min_throughput=2e6, record_size=64)
        for _ in range(9):
            harness = build_cluster(seed=0)
            harness.redy_client("kv-open").create(8 << 20, slo,
                                                  region_bytes=1 << 20)
        info = analytic_model.cache_info()
        assert (info.misses, info.hits) == (3, 24)

    def test_find_configuration_respects_server_thread_cap(self):
        _, _, manager = make_manager()
        config = manager.find_configuration(EASY_SLO, 1,
                                            max_server_threads=0)
        assert config is not None
        assert config.server_threads == 0

    def test_farther_distances_cost_more_latency_headroom(self):
        _, _, manager = make_manager()
        tight = Slo(max_latency=5.0e-6, min_throughput=1e5, record_size=8)
        near = manager.find_configuration(tight, 1)
        far = manager.find_configuration(tight, 5)
        # 5us is reachable within the rack but not across the DC.
        assert near is not None
        assert far is None


class TestVmPlanning:
    def test_small_cache_gets_one_cheap_vm(self):
        _, _, manager = make_manager()
        config = RdmaConfig(2, 1, 4, 4)
        plan = manager._vm_plan(config, 8 * REGION, REGION, spot=False)
        assert plan is not None
        vm_type, count, cost = plan
        assert count == 1
        assert cost == vm_type.price_per_hour
        assert vm_type.cores >= 1

    def test_many_server_threads_force_bigger_or_more_vms(self):
        _, _, manager = make_manager()
        light = manager._vm_plan(RdmaConfig(2, 1, 4, 4), 8 * REGION,
                                 REGION, spot=False)
        heavy = manager._vm_plan(RdmaConfig(30, 30, 4, 4), 8 * REGION,
                                 REGION, spot=False)
        assert heavy is not None
        vm_type, count, cost = heavy
        assert count * vm_type.cores >= 30
        assert cost > light[2]

    def test_large_capacity_splits_across_vms(self):
        _, _, manager = make_manager()
        config = RdmaConfig(2, 1, 4, 4)
        big_region = 8 << 30
        plan = manager._vm_plan(config, 64 * big_region, big_region,
                                spot=False)
        assert plan is not None
        vm_type, count, _cost = plan
        regions_per_vm = int((vm_type.memory_gb - 0.5) * (1 << 30)
                             // big_region)
        assert count == math.ceil(64 / regions_per_vm)
        assert count > 1

    def test_spot_pricing_changes_the_bill(self):
        _, _, manager = make_manager()
        config = RdmaConfig(2, 1, 4, 4)
        full = manager._vm_plan(config, 8 * REGION, REGION, spot=False)
        spot = manager._vm_plan(config, 8 * REGION, REGION, spot=True)
        assert spot[2] < full[2]


class TestAllocateLifecycle:
    def test_allocate_then_deallocate_is_clean(self):
        _, allocator, manager = make_manager()
        allocation = manager.allocate(8 * REGION, EASY_SLO,
                                      region_bytes=REGION)
        assert allocation.allocation_id in manager.allocations
        assert allocation.total_regions == 8
        manager.deallocate(allocation)
        assert allocation.allocation_id not in manager.allocations
        assert not allocator.vms

    def test_finite_duration_buys_spot(self):
        _, _, manager = make_manager()
        spot = manager.allocate(REGION, EASY_SLO, duration_s=3600.0,
                                region_bytes=REGION)
        forever = manager.allocate(REGION, EASY_SLO,
                                   region_bytes=REGION)
        assert spot.spot and all(vm.spot for vm in spot.vms)
        assert not forever.spot
        assert spot.hourly_cost < forever.hourly_cost

    def test_allocate_falls_back_to_farther_distance(self):
        """When the local rack is full, the allocation lands farther out
        (with a configuration searched for that distance)."""
        env, allocator, manager = make_manager(n_servers=4)
        # Fill the client's rack (servers 0 and 1: cluster 0, rack 0).
        for server in allocator.servers[:2]:
            server.place(-1, server.cores, server.memory_gb - 1.0)
        allocation = manager.allocate(
            REGION, EASY_SLO, region_bytes=REGION,
            client_placement=Placement(cluster=0, rack=0))
        assert allocation.vms[0].server.server_id >= 2
        assert allocation.switch_hops >= 3

    def test_impossible_capacity_raises_cleanly(self):
        _, allocator, manager = make_manager(n_servers=1)
        huge_region = 1 << 40  # 1 TB regions: no VM holds even one
        with pytest.raises(SloUnsatisfiableError):
            manager.allocate(huge_region, EASY_SLO,
                             region_bytes=huge_region)
        assert not allocator.vms


class TestReplaceAndRelease:
    """The two halves of a migration's VM swap."""

    def test_allocate_replacement_grows_by_one_vm(self):
        _, allocator, manager = make_manager()
        allocation = manager.allocate(4 * REGION, EASY_SLO,
                                      region_bytes=REGION)
        vms_before = len(allocation.vms)
        vm, server = manager.allocate_replacement(allocation, 2)
        assert len(allocation.vms) == vms_before + 1
        assert allocation.regions_per_server[server.endpoint.name] == 2

    def test_release_vm_drops_a_vm(self):
        _, allocator, manager = make_manager()
        allocation = manager.allocate(2 * REGION, EASY_SLO,
                                      region_bytes=REGION)
        manager.allocate_replacement(allocation, 1)
        to_drop = allocation.vms[-1]
        manager.release_vm(allocation, to_drop)
        assert to_drop not in allocation.vms
        assert not to_drop.alive
