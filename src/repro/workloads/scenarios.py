"""Pre-wired experiment scenarios.

Benchmarks and examples share these builders: a small simulated cluster
with a cache manager, and FASTER stores configured exactly like §8.3's
three competitors -- a Redy-fronted tiered device, an SMB Direct remote
file server, and a local SSD.

Scale: the paper's database is 250 M records (~6 GB at 8-byte values;
~260 GB at 1 KB).  We run the same code paths at a configurable scale,
keeping the *ratios* that drive the results -- local memory : database
size, and Redy cache : database size -- identical to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster import PhysicalServer, VmAllocator
from repro.core import Slo
from repro.core.client import RedyCache, RedyClient
from repro.core.manager import CacheManager
from repro.faster import (
    FasterKv,
    RedyDevice,
    SmbDirectDevice,
    SsdDevice,
    TieredDevice,
)
from repro.faster.address import record_bytes
from repro.hardware.profiles import AZURE_HPC, TestbedProfile
from repro.net.fabric import Fabric
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.ycsb import YcsbWorkload, paper_read_only

__all__ = ["ClusterHarness", "FasterScenario", "build_cluster",
           "build_faster_store"]

#: Throughput-oriented SLO for the FASTER cache, as in §8.3: "Throughput
#: is the critical metric for this benchmark, so we configure the Redy
#: cache for high throughput."
FASTER_CACHE_SLO = Slo(max_latency=1e-3, min_throughput=2e7, record_size=24)

#: Region size of the Redy cache a FASTER store tiers onto.
_FASTER_REGION_BYTES = 1 << 20


@dataclass
class ClusterHarness:
    """A small simulated data center with Redy's control plane."""

    env: Environment
    rngs: RngRegistry
    fabric: Fabric
    allocator: VmAllocator
    manager: CacheManager

    def redy_client(self, name: str = "redy-app") -> RedyClient:
        return RedyClient(self.env, self.manager.profile, self.fabric,
                          self.manager, self.rngs, name=name)


def build_cluster(seed: int = 0, n_servers: int = 8,
                  profile: TestbedProfile = AZURE_HPC,
                  provisioning_delay_s: float = 0.0,
                  metrics=None) -> ClusterHarness:
    """A fresh environment + cluster + cache manager.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) is installed on
    the environment *before* any component is built, so everything the
    harness constructs instruments itself.
    """
    env = Environment()
    if metrics is not None:
        metrics.install(env)
    rngs = RngRegistry(seed)
    fabric = Fabric(env, profile)
    servers = [
        PhysicalServer(server_id=i, cluster=i // 4, rack=(i // 2) % 2,
                       cores=48, memory_gb=384.0)
        for i in range(n_servers)
    ]
    allocator = VmAllocator(env, servers)
    manager = CacheManager(env, profile, fabric, allocator, rngs,
                           provisioning_delay_s=provisioning_delay_s)
    return ClusterHarness(env=env, rngs=rngs, fabric=fabric,
                          allocator=allocator, manager=manager)


def strand_servers(harness: ClusterHarness, count: int) -> list:
    """Manufacture stranded memory: fill every core of ``count`` idle
    servers with synthetic tenant VMs, leaving 64 GB unallocated on
    each.  Returns the stranded servers."""
    stranded = []
    for server in harness.allocator.servers:
        if len(stranded) >= count:
            break
        if server.allocated_cores == 0:
            server.place(-(1000 + server.server_id), server.cores,
                         server.memory_gb - 64.0)
            stranded.append(server)
    if len(stranded) < count:
        raise ValueError(f"only {len(stranded)} idle servers available")
    return stranded


@dataclass
class FasterScenario:
    """One ready-to-run FASTER store plus its workload definition."""

    harness: ClusterHarness
    store: FasterKv
    workload: YcsbWorkload
    cache: Optional[RedyCache]

    @property
    def env(self) -> Environment:
        return self.harness.env


def build_faster_store(device_kind: str, *,
                       n_records: int = 150_000,
                       value_bytes: int = 8,
                       distribution: str = "uniform",
                       local_memory_fraction: float = 1.0 / 6.0,
                       redy_cache_fraction: float = 8.0 / 6.0,
                       seed: int = 1,
                       harness: Optional[ClusterHarness] = None
                       ) -> FasterScenario:
    """Build and load one FASTER store against one of the §8.3 devices.

    ``device_kind`` is ``"redy"`` (tiered Redy + SSD, Figure 17),
    ``"smb"`` (SMB Direct), ``"ssd"``, or ``"memory"`` (no device --
    everything in local memory, Figure 19's left edge).  The fractions
    default to the paper's 1 GB local / 8 GB Redy / ~6 GB database.
    """
    if harness is None:
        harness = build_cluster(seed=seed)
    env, rngs = harness.env, harness.rngs
    workload = paper_read_only(n_records, value_bytes, distribution)
    log_bytes = workload.database_bytes

    local_memory_bytes = max(int(log_bytes * local_memory_fraction),
                             4 * record_bytes(value_bytes))
    ssd_capacity = max(log_bytes * 4, 1 << 20)
    device_rng = rngs.stream(f"device-{device_kind}")

    cache: Optional[RedyCache] = None
    if device_kind == "memory":
        device = None
        local_memory_bytes = max(local_memory_bytes, log_bytes * 2)
    elif device_kind == "ssd":
        device = SsdDevice(env, ssd_capacity, device_rng)
    elif device_kind == "smb":
        device = SmbDirectDevice(env, ssd_capacity, device_rng)
    elif device_kind == "redy":
        redy_cache_bytes = max(int(log_bytes * redy_cache_fraction),
                               _FASTER_REGION_BYTES)
        client = harness.redy_client(f"faster-app-{seed}")
        redy_cache = client.create(redy_cache_bytes + _FASTER_REGION_BYTES,
                                   FASTER_CACHE_SLO,
                                   region_bytes=_FASTER_REGION_BYTES)
        cache = redy_cache
        device = TieredDevice(env, [
            RedyDevice(redy_cache),
            SsdDevice(env, ssd_capacity, device_rng),
        ])
    else:
        raise ValueError(f"unknown device kind {device_kind!r}")

    store = FasterKv(env, device, local_memory_bytes, value_bytes)
    store.load(n_records)
    return FasterScenario(harness=harness, store=store, workload=workload,
                          cache=cache)
