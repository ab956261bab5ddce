"""End-to-end tests of the cache service: manager + client + servers.

These exercise the full Table 1 API on a small simulated cluster,
including spot reclamation (migration) and hard VM failure (recovery).
"""


from types import SimpleNamespace

import pytest

from repro.cluster import PhysicalServer, VmAllocator
from repro.core import Slo
from repro.core.client import CacheDeletedError, RedyCache, RedyClient
from repro.core.manager import CacheManager, SloUnsatisfiableError
from repro.core.migration import MigrationPolicy
from repro.hardware import AZURE_HPC
from repro.net import Fabric
from repro.sim import Environment, US
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_cluster

REGION = 4096  # small regions keep functional tests fast
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


def run_io(env, event):
    def proc(env):
        result = yield event
        return result

    return env.run_process(proc(env))


class TestCreateReadWrite:
    def test_create_allocates_vms_and_regions(self, stack):
        env, allocator, manager, client = stack
        cache = client.create(4 * REGION, EASY_SLO, region_bytes=REGION)
        assert cache.capacity >= 4 * REGION
        assert len(allocator.vms) >= 1
        assert cache.allocation.total_regions == 4

    def test_write_then_read_round_trips(self, stack):
        env, _, _, client = stack
        cache = client.create(4 * REGION, EASY_SLO, region_bytes=REGION)
        payload = bytes(range(256)) * 2
        assert run_io(env, cache.write(1000, payload)).ok
        result = run_io(env, cache.read(1000, len(payload)))
        assert result.ok
        assert result.data == payload

    def test_io_spanning_regions(self, stack):
        env, _, _, client = stack
        cache = client.create(4 * REGION, EASY_SLO, region_bytes=REGION)
        payload = b"x" * (REGION + 100)  # crosses a region boundary
        assert run_io(env, cache.write(REGION - 50, payload)).ok
        result = run_io(env, cache.read(REGION - 50, len(payload)))
        assert result.data == payload

    def test_out_of_bounds_io_fails(self, stack):
        env, _, _, client = stack
        cache = client.create(2 * REGION, EASY_SLO, region_bytes=REGION)
        result = run_io(env, cache.read(2 * REGION - 10, 100))
        assert not result.ok
        assert "outside cache" in result.error

    def test_callback_invoked_on_completion(self, stack):
        env, _, _, client = stack
        cache = client.create(REGION, EASY_SLO, region_bytes=REGION)
        seen = []
        run_io(env, cache.write(0, b"cb", callback=seen.append))
        assert len(seen) == 1 and seen[0].ok

    @pytest.mark.parametrize("one_sided", [True, False],
                             ids=["one-sided", "batched"])
    def test_callback_runs_where_the_exit_entry_ran(self, one_sided):
        """A callback runs in its I/O's last step (after one zero hop
        when an entry is due) -- where a callback on the I/O's process
        event ran when the process exited.  Each callback issues the
        next op, so one that ran out of place would move later ones."""

        def run(on_exit_entry):
            harness = build_cluster(seed=5)
            env = harness.env
            slo = (Slo(max_latency=20e-6, min_throughput=2e6,
                       record_size=64) if one_sided else
                   Slo(max_latency=100e-6, min_throughput=60e6,
                       record_size=64))
            cache = harness.redy_client("cb").create(
                1 << 20, slo, region_bytes=1 << 20)
            assert cache.path.config.uses_one_sided == one_sided
            log = []

            def issue(index):
                def done(result):
                    log.append((index, env.now, result.ok))
                    if index < 150:
                        issue(index + 50)

                addr = (index % 32) * 64
                if on_exit_entry:
                    io = (cache.read(addr, 64) if index % 3
                          else cache.write(addr, bytes([index]) * 64))
                    io._add_callback(lambda event: done(event.value))
                elif index % 3:
                    cache.read(addr, 64, done)
                else:
                    cache.write(addr, bytes([index]) * 64, done)

            def source():
                for index in range(50):
                    issue(index)
                    if index % 8 == 7:
                        yield env.timeout(1 * US)

            env.process(source())
            env.run()
            return log

        log = run(on_exit_entry=False)
        assert len(log) == 200 and all(ok for _, _, ok in log)
        assert log == run(on_exit_entry=True)

    @pytest.mark.parametrize("on_exit_entry", [True, False],
                             ids=["exit-entry", "last-step"])
    def test_callback_queues_behind_an_entry_due_at_the_last_step(
            self, on_exit_entry):
        """When an entry is due as the body finishes, the callback runs
        after it, as a callback on the process's exit entry did."""
        env = Environment()
        log = []

        def body():
            yield env.timeout(1 * US)
            env.timeout(0)._add_callback(lambda _: log.append("due"))
            return "result"

        if on_exit_entry:
            env.process(body())._add_callback(
                lambda event: log.append(event.value))
        else:
            holder = SimpleNamespace(env=env)
            env.process(RedyCache._calling_back(holder, body(), log.append))
        env.run()
        assert log == ["due", "result"]

    def test_create_with_file_populates_prefix(self, stack):
        env, _, _, client = stack
        file = bytes(range(256)) * 32  # 8 KB
        cache = client.create(2 * REGION, EASY_SLO, region_bytes=REGION,
                              file=file)
        result = run_io(env, cache.read(0, len(file)))
        assert result.data == file

    def test_latency_reflects_simulated_time(self, stack):
        env, _, _, client = stack
        cache = client.create(REGION, EASY_SLO, region_bytes=REGION)
        result = run_io(env, cache.write(0, b"12345678"))
        assert 2 * US < result.latency < 50 * US

    def test_unsatisfiable_slo_raises_without_side_effects(self, stack):
        env, allocator, _, client = stack
        impossible = Slo(max_latency=1e-9, min_throughput=1e12,
                         record_size=64)
        with pytest.raises(SloUnsatisfiableError):
            client.create(REGION, impossible, region_bytes=REGION)
        assert not allocator.vms  # nothing leaked


class TestDeleteReshape:
    def test_delete_releases_vms(self, stack):
        env, allocator, _, client = stack
        cache = client.create(REGION, EASY_SLO, region_bytes=REGION)
        assert allocator.vms
        cache.delete()
        assert not allocator.vms
        with pytest.raises(CacheDeletedError):
            cache.read(0, 8)

    def test_shrink_truncates(self, stack):
        env, _, _, client = stack
        cache = client.create(4 * REGION, EASY_SLO, region_bytes=REGION)
        assert run_io(env, cache.reshape(capacity=2 * REGION))
        assert cache.capacity == 2 * REGION
        result = run_io(env, cache.read(3 * REGION, 8))
        assert not result.ok  # truncated tail is gone

    def test_grow_extends_address_space(self, stack):
        env, _, _, client = stack
        cache = client.create(2 * REGION, EASY_SLO, region_bytes=REGION)
        assert run_io(env, cache.write(0, b"keep")).ok
        assert run_io(env, cache.reshape(capacity=6 * REGION))
        assert cache.capacity == 6 * REGION
        assert run_io(env, cache.write(5 * REGION, b"new space")).ok
        assert run_io(env, cache.read(0, 4)).data == b"keep"

    def test_reshape_slo_preserves_content(self, stack):
        env, _, _, client = stack
        cache = client.create(2 * REGION, EASY_SLO, region_bytes=REGION)
        assert run_io(env, cache.write(100, b"survivor")).ok
        tighter = Slo(max_latency=1e-3, min_throughput=5e4, record_size=64)
        assert run_io(env, cache.reshape(slo=tighter))
        assert cache.slo == tighter
        assert run_io(env, cache.read(100, 8)).data == b"survivor"


class TestReclamationAndFailure:
    def test_spot_reclaim_triggers_migration(self, stack):
        env, allocator, manager, client = stack
        cache = client.create(2 * REGION, EASY_SLO, duration_s=3600.0,
                              region_bytes=REGION)
        assert run_io(env, cache.write(0, b"migrate me")).ok
        vm = cache.allocation.vms[0]
        assert vm.spot  # finite duration opted into spot pricing
        old_server_name = cache.table.region(0).server_name

        allocator.reclaim(vm)
        env.run()  # notice -> migration -> release

        assert cache.migrations, "migration should have run"
        assert cache.table.region(0).server_name != old_server_name
        # Data survived the move.
        result = run_io(env, cache.read(0, 10))
        assert result.ok
        assert result.data == b"migrate me"

    def test_migration_finishes_before_deadline(self, stack):
        env, allocator, _, client = stack
        cache = client.create(2 * REGION, EASY_SLO, duration_s=3600.0,
                              region_bytes=REGION)
        vm = cache.allocation.vms[0]
        notice = allocator.reclaim(vm)
        env.run()
        report = cache.migrations[0]
        assert report.finished_at < notice.deadline

    def test_hard_failure_then_recovery_from_file(self, stack):
        env, allocator, _, client = stack
        file = b"durable-content!" * (REGION // 16)
        cache = client.create(REGION, EASY_SLO, region_bytes=REGION,
                              file=file)
        vm = cache.allocation.vms[0]
        name = cache.allocation.servers[0].endpoint.name
        allocator.fail(vm)
        # In-flight access fails; the client recovers from the backing file.
        assert not run_io(env, cache.read(0, 16)).ok
        run_io(env, cache.recover_from_failure(name))
        result = run_io(env, cache.read(0, 16))
        assert result.ok
        assert result.data == file[:16]

    def test_recovery_without_file_zeroes_regions(self, stack):
        env, allocator, _, client = stack
        cache = client.create(REGION, EASY_SLO, region_bytes=REGION)
        run_io(env, cache.write(0, b"\xff" * 16))
        vm = cache.allocation.vms[0]
        name = cache.allocation.servers[0].endpoint.name
        allocator.fail(vm)
        run_io(env, cache.recover_from_failure(name))
        result = run_io(env, cache.read(0, 16))
        assert result.ok
        assert result.data == b"\x00" * 16  # cache content was lost


class TestMigrationPolicies:
    @pytest.mark.parametrize("policy", [
        MigrationPolicy(),
        MigrationPolicy(unpaused_reads=False, pause_per_region=False),
    ])
    def test_data_survives_under_both_policies(self, stack, policy):
        env, allocator, _, client = stack
        cache = client.create(2 * REGION, EASY_SLO, duration_s=3600.0,
                              region_bytes=REGION,
                              migration_policy=policy)
        run_io(env, cache.write(REGION, b"hello"))
        allocator.reclaim(cache.allocation.vms[0])
        env.run()
        assert run_io(env, cache.read(REGION, 5)).data == b"hello"

    def test_write_to_migrating_region_waits_then_lands_on_new_vm(
            self, stack):
        env, allocator, _, client = stack
        big_region = 1 << 20  # ~1 ms to migrate at 8 Gbit/s ingest
        cache = client.create(big_region, EASY_SLO, duration_s=3600.0,
                              region_bytes=big_region)

        def scenario(env):
            allocator.reclaim(cache.allocation.vms[0])
            # Land in the middle of the migration: the region is paused.
            yield env.timeout(100 * US)
            assert cache.table.region(0).writes_paused
            result = yield cache.write(0, b"late write")
            assert result.ok
            assert not cache.table.region(0).writes_paused
            read_back = yield cache.read(0, 10)
            return read_back

        result = env.run_process(scenario(env))
        assert result.data == b"late write"


class TestReshapeFailures:
    def test_failed_slo_reshape_leaves_cache_unchanged(self, stack):
        """§3.3: "If *Allocate* fails, the cache is unchanged and the
        client returns an exception."""
        env, allocator, manager, client = stack
        cache = client.create(2 * REGION, EASY_SLO, region_bytes=REGION)
        run_io(env, cache.write(0, b"keep-me!"))
        vms_before = list(cache.allocation.vms)
        impossible = Slo(max_latency=1e-9, min_throughput=1e12,
                         record_size=64)

        def scenario(env):
            try:
                yield cache.reshape(slo=impossible)
            except Exception as exc:
                return exc
            return None

        exc = env.run_process(scenario(env))
        assert exc is not None
        # Cache unchanged: same SLO, same VMs, same content.
        assert cache.slo == EASY_SLO
        assert cache.allocation.vms == vms_before
        assert run_io(env, cache.read(0, 8)).data == b"keep-me!"

    def test_failed_grow_leaves_cache_unchanged(self, stack):
        env, allocator, manager, client = stack
        big_region = 1 << 30  # 1 GB regions: a d2 VM holds ~7
        cache = client.create(big_region, EASY_SLO,
                              region_bytes=big_region, backed=False)
        # Exhaust the fleet so growth cannot allocate another VM.
        for server in allocator.servers:
            if server.free_cores:
                server.place(-9000 - server.server_id, server.free_cores,
                             max(server.free_memory_gb - 0.5, 0.5))
        huge = 10_000 * big_region  # far beyond the last VM's headroom

        def scenario(env):
            try:
                yield cache.reshape(capacity=huge)
            except Exception as exc:
                return exc
            return None

        exc = env.run_process(scenario(env))
        assert exc is not None
        assert cache.capacity == big_region
        assert run_io(env, cache.write(0, b"still ok")).ok
