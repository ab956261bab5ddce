"""Process-failure routing and the mid-migration kill regression.

Satellite of the fault-injection PR: injected process failures route
through ``Environment.on_process_failure`` into the fault log (instead
of crashing the kernel), and the nastiest interleaving -- a VM killed
*mid-migration* -- leaves neither a zombie migration claim nor a
corrupted region table behind.
"""

from repro.core import Slo
from repro.faults import FaultInjector, FaultSchedule, VmEviction, VmKill
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20
CAPACITY = 2 * REGION
SLO = Slo(max_latency=1e-3, min_throughput=1e4, record_size=64)
BACKING = bytes(range(256)) * (CAPACITY // 256)


def make_cache(harness, **kwargs):
    client = harness.redy_client("routing-app")
    return client.create(CAPACITY, SLO, duration_s=3600.0,
                         region_bytes=REGION, **kwargs)


class TestProcessFailureRouting:
    def test_joinerless_failure_lands_in_the_fault_log(self):
        harness = build_cluster(seed=20)
        env = harness.env
        injector = FaultInjector(env)
        injector.install_failure_hook()

        def exploder(env):
            yield env.timeout(1.0)
            raise RuntimeError("injected boom")

        env.process(exploder(env), name="exploder")
        env.run(until=2.0)  # must not raise out of the kernel
        events = [e for e in injector.log if e.kind == "process-failure"]
        assert len(events) == 1
        assert events[0].target == "exploder"
        assert events[0].detail["error"] == "injected boom"
        assert events[0].detail["exc_type"] == "RuntimeError"
        assert events[0].time == 1.0

    def test_hook_chains_a_prior_handler(self):
        harness = build_cluster(seed=21)
        env = harness.env
        seen = []
        env.on_process_failure = lambda process, exc: seen.append(str(exc))
        injector = FaultInjector(env)
        injector.install_failure_hook()

        def exploder(env):
            yield env.timeout(1.0)
            raise ValueError("chained")

        env.process(exploder(env))
        env.run(until=2.0)
        # Both the log and the experiment's own handler saw the failure.
        assert seen == ["chained"]
        assert injector.log.kinds() == {"process-failure": 1}


class TestMidMigrationKill:
    def _run(self, harness, cache, schedule):
        injector = FaultInjector(harness.env, allocator=harness.allocator,
                                 fabric=harness.fabric)
        injector.install_failure_hook()
        injector.arm(schedule, cache=cache)
        harness.env.run(until=10.0)
        return injector

    def _assert_consistent(self, harness, cache):
        # No zombie mover: every migration claim was released.
        assert not cache._migrating
        # No recovery left dangling either.
        assert not cache._recoveries
        # The region table maps only onto live, attached servers ...
        live = {server.endpoint.name for server in cache.allocation.servers}
        for index in range(len(cache.table)):
            mapping = cache.table.region(index)
            assert mapping.server_name in live
            assert cache.table.gate(index, True) is None
            assert cache.table.gate(index, False) is None
        assert all(vm.alive for vm in cache.allocation.vms)

        # ... and every byte is where the address space says it is.
        def readback(env):
            result = yield cache.read(0, CAPACITY)
            return result

        result = harness.env.run_process(readback(harness.env))
        assert result.ok and result.data == BACKING

    def test_vm_dies_during_migration_window(self):
        # Notice shorter than the provisioning delay: the VM is torn
        # down while its migration is still standing up the replacement.
        harness = build_cluster(seed=22, provisioning_delay_s=0.2)
        cache = make_cache(harness, file=BACKING, auto_recover=True)
        injector = self._run(
            harness, cache,
            FaultSchedule([VmEviction(at=1.0, notice_s=0.05)]))
        assert injector.log.kinds()["vm-eviction"] == 1
        # The migration lost the race and recovery took over.
        assert cache.migration_failures >= 1
        assert not cache.migrations
        self._assert_consistent(harness, cache)

    def test_abrupt_kill_with_no_migration_in_flight(self):
        harness = build_cluster(seed=23, provisioning_delay_s=0.1)
        cache = make_cache(harness, file=BACKING, auto_recover=True)
        self._run(harness, cache, FaultSchedule([VmKill(at=1.0)]))
        self._assert_consistent(harness, cache)

    def test_clean_migration_still_wins_with_room_to_move(self):
        # Control: with a notice longer than the migration, the normal
        # path completes and recovery never fires.
        harness = build_cluster(seed=24)
        cache = make_cache(harness, file=BACKING, auto_recover=True)
        self._run(harness, cache,
                  FaultSchedule([VmEviction(at=1.0, notice_s=30.0)]))
        assert cache.migrations
        assert cache.migration_failures == 0
        self._assert_consistent(harness, cache)
