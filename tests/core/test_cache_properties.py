"""Property-based tests: the cache against a shadow reference model.

A RedyCache must behave exactly like a flat byte array, no matter how
reads and writes interleave, span regions, or race with migrations.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import PhysicalServer, VmAllocator
from repro.core import Slo
from repro.core.client import RedyClient
from repro.core.manager import CacheManager
from repro.hardware import AZURE_HPC
from repro.net import Fabric
from repro.sim import Environment
from repro.sim.rng import RngRegistry

REGION = 2048
N_REGIONS = 4
EASY_SLO = Slo(max_latency=1e-3, min_throughput=1e4, record_size=64)


def build_cache(seed=0):
    env = Environment()
    rngs = RngRegistry(seed)
    fabric = Fabric(env, AZURE_HPC)
    servers = [PhysicalServer(server_id=i, cluster=0, rack=i % 2,
                              cores=48, memory_gb=384.0) for i in range(4)]
    allocator = VmAllocator(env, servers)
    manager = CacheManager(env, AZURE_HPC, fabric, allocator, rngs)
    client = RedyClient(env, AZURE_HPC, fabric, manager, rngs,
                        name=f"prop-app-{seed}")
    cache = client.create(N_REGIONS * REGION, EASY_SLO,
                          region_bytes=REGION, duration_s=3600.0)
    return env, allocator, cache


# One hypothesis-driven op: (is_read, addr, size-or-payload-seed).
ops_strategy = st.lists(
    st.tuples(st.booleans(),
              st.integers(0, N_REGIONS * REGION - 1),
              st.integers(1, 700),
              st.integers(0, 255)),
    min_size=1, max_size=25)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_property_cache_equals_flat_byte_array(ops):
    env, _allocator, cache = build_cache()
    shadow = bytearray(N_REGIONS * REGION)

    def scenario(env):
        for is_read, addr, size, fill in ops:
            size = min(size, N_REGIONS * REGION - addr)
            if size == 0:
                continue
            if is_read:
                result = yield cache.read(addr, size)
                assert result.ok
                assert result.data == bytes(shadow[addr:addr + size])
            else:
                payload = bytes([fill]) * size
                result = yield cache.write(addr, payload)
                assert result.ok
                shadow[addr:addr + size] = payload

    env.run_process(scenario(env))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy, migrate_after=st.integers(0, 10))
def test_property_content_survives_mid_sequence_reclamation(ops,
                                                            migrate_after):
    """Interleaving a spot reclamation (and thus a full migration)
    anywhere in a write/read sequence never changes observable content."""
    env, allocator, cache = build_cache(seed=1)
    shadow = bytearray(N_REGIONS * REGION)
    vm = cache.allocation.vms[0]

    def scenario(env):
        for index, (is_read, addr, size, fill) in enumerate(ops):
            if index == migrate_after and vm.alive \
                    and vm.reclaim_deadline is None:
                allocator.reclaim(vm)
            size = min(size, N_REGIONS * REGION - addr)
            if size == 0:
                continue
            if is_read:
                result = yield cache.read(addr, size)
                assert result.ok
                assert result.data == bytes(shadow[addr:addr + size])
            else:
                payload = bytes([fill]) * size
                result = yield cache.write(addr, payload)
                assert result.ok
                shadow[addr:addr + size] = payload
        # Let any in-flight migration finish, then verify everything.
        yield env.timeout(1.0)
        result = yield cache.read(0, N_REGIONS * REGION)
        assert result.ok
        assert result.data == bytes(shadow)

    env.run_process(scenario(env))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_vm_allocator_conserves_resources(seed):
    """Random allocate/release/reclaim churn never leaks or double-frees
    cores or memory."""
    from repro.cluster.vmtypes import AZURE_MENU

    env = Environment()
    rng = np.random.default_rng(seed)
    servers = [PhysicalServer(server_id=i, cluster=0, rack=0, cores=64,
                              memory_gb=512.0) for i in range(3)]
    allocator = VmAllocator(env, servers)
    allocator.reclaim_notice_s = 1.0
    live = []
    for _ in range(60):
        action = rng.random()
        if action < 0.55 or not live:
            vm_type = AZURE_MENU[int(rng.integers(0, len(AZURE_MENU)))]
            try:
                live.append(allocator.allocate(vm_type, spot=True))
            except Exception:
                pass
        elif action < 0.8:
            vm = live.pop(int(rng.integers(0, len(live))))
            allocator.release(vm)
        else:
            vm = live.pop(int(rng.integers(0, len(live))))
            try:
                allocator.reclaim(vm)
            except Exception:
                live.append(vm)
        env.run(until=env.now + float(rng.random()))

        # Invariants at every step.
        for server in servers:
            assert 0 <= server.allocated_cores <= server.cores
            assert 0 <= server.allocated_memory_gb <= server.memory_gb
        booked_cores = sum(vm.vm_type.cores for vm in allocator.vms.values())
        assert booked_cores == sum(s.allocated_cores for s in servers)
