"""Tests for the VM allocator: placement, spot reclamation, failures."""

import pytest

from repro.cluster import AllocationError, PhysicalServer, VmAllocator
from repro.cluster.vmtypes import AZURE_MENU, VmType
from repro.sim import Environment

D8 = next(t for t in AZURE_MENU if t.name == "d8")
E32 = next(t for t in AZURE_MENU if t.name == "e32")


def make_fleet(n=4, cores=48, memory_gb=384.0):
    servers = []
    for i in range(n):
        servers.append(PhysicalServer(
            server_id=i, cluster=i // 2, rack=i % 2, cores=cores,
            memory_gb=memory_gb))
    return servers


class TestPlacement:
    def test_allocate_places_on_a_server(self):
        env = Environment()
        allocator = VmAllocator(env, make_fleet())
        vm = allocator.allocate(D8)
        assert vm.alive
        assert vm.server.allocated_cores == 8

    def test_allocation_error_when_fleet_is_full(self):
        env = Environment()
        allocator = VmAllocator(env, make_fleet(n=1, cores=8))
        allocator.allocate(D8)
        with pytest.raises(AllocationError):
            allocator.allocate(D8)

    def test_best_fit_packs_tightly(self):
        env = Environment()
        servers = make_fleet(n=2)
        allocator = VmAllocator(env, servers)
        first = allocator.allocate(D8)
        second = allocator.allocate(D8)
        # Best-fit puts the second VM on the same (now tighter) server.
        assert first.server is second.server

    def test_network_distance_constraint(self):
        env = Environment()
        servers = make_fleet(n=4)
        allocator = VmAllocator(env, servers)
        anchor = servers[0]
        vm = allocator.allocate(D8, near=anchor, max_switch_hops=1)
        assert vm.server.cluster == anchor.cluster
        assert vm.server.rack == anchor.rack

    def test_distance_constraint_can_fail(self):
        env = Environment()
        servers = make_fleet(n=2, cores=8)
        allocator = VmAllocator(env, servers)
        allocator.allocate(D8)  # fills servers[0] rack-local capacity
        with pytest.raises(AllocationError):
            allocator.allocate(D8, near=servers[0], max_switch_hops=1)

    def test_release_returns_capacity(self):
        env = Environment()
        allocator = VmAllocator(env, make_fleet(n=1))
        vm = allocator.allocate(E32)
        allocator.release(vm)
        assert not vm.alive
        assert allocator.allocate(E32).alive

    def test_empty_fleet_rejected(self):
        with pytest.raises(AllocationError):
            VmAllocator(Environment(), [])


class TestReclamation:
    def test_reclaim_gives_notice_then_terminates(self):
        env = Environment()
        allocator = VmAllocator(env, make_fleet())
        vm = allocator.allocate(D8, spot=True)
        notices = []
        deaths = []
        vm.on_reclaim_notice.append(notices.append)
        vm.on_terminated.append(deaths.append)

        allocator.reclaim(vm)
        assert len(notices) == 1
        assert notices[0].deadline == pytest.approx(30.0)
        assert vm.alive  # still running during the notice period

        env.run(until=29.0)
        assert vm.alive
        env.run(until=31.0)
        assert not vm.alive
        assert deaths == [vm]
        assert vm.server.allocated_cores == 0

    def test_reclaiming_full_price_vm_rejected(self):
        env = Environment()
        allocator = VmAllocator(env, make_fleet())
        vm = allocator.allocate(D8, spot=False)
        with pytest.raises(AllocationError):
            allocator.reclaim(vm)

    def test_double_reclaim_rejected(self):
        env = Environment()
        allocator = VmAllocator(env, make_fleet())
        vm = allocator.allocate(D8, spot=True)
        allocator.reclaim(vm)
        with pytest.raises(AllocationError):
            allocator.reclaim(vm)

    def test_released_vm_survives_pending_reclaim(self):
        """Migrating away and releasing before the deadline is clean."""
        env = Environment()
        allocator = VmAllocator(env, make_fleet())
        vm = allocator.allocate(D8, spot=True)
        deaths = []
        vm.on_terminated.append(deaths.append)
        allocator.reclaim(vm)
        allocator.release(vm)  # cache migrated off in time
        env.run()
        assert deaths == []  # termination callbacks never fired

    def test_hard_failure_fires_termination_now(self):
        env = Environment()
        allocator = VmAllocator(env, make_fleet())
        vm = allocator.allocate(D8)
        deaths = []
        vm.on_terminated.append(deaths.append)
        allocator.fail(vm)
        assert deaths == [vm]
        assert not vm.alive


class TestIntrospection:
    def test_utilization_and_stranding(self):
        env = Environment()
        servers = make_fleet(n=1, cores=8, memory_gb=64)
        allocator = VmAllocator(env, servers)
        big_core = VmType("c8", cores=8, memory_gb=16, price_per_hour=0.4,
                          spot_price_per_hour=0.1)
        allocator.allocate(big_core)
        cores, memory = allocator.utilization()
        assert cores == 1.0
        assert memory == pytest.approx(16 / 64)
        assert allocator.total_stranded_memory_gb() == pytest.approx(48.0)
