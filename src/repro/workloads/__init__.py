"""Benchmark workloads: YCSB-style generators and the virtual-time runner.

* :mod:`repro.workloads.distributions` -- uniform, Zipfian (the YCSB
  theta = 0.99 default) and scrambled Zipfian key choosers;
* :mod:`repro.workloads.ycsb` -- workload definitions matching the
  paper's §8.3 setup (read-only uniform / Zipfian over an integer key
  space) plus the standard YCSB core mixes;
* :mod:`repro.workloads.runner` -- drives a FasterKv with N simulated
  FASTER threads and reports throughput/latency.
"""

from repro.workloads.distributions import (
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workloads.runner import KvRunResult, run_kv_workload
from repro.workloads.scenarios import (
    ClusterHarness,
    FasterScenario,
    build_cluster,
    build_faster_store,
    strand_servers,
)
from repro.workloads.ycsb import (
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YcsbWorkload,
    paper_read_only,
)

__all__ = [
    "ClusterHarness",
    "FasterScenario",
    "KvRunResult",
    "ScrambledZipfianChooser",
    "UniformChooser",
    "YCSB_A",
    "YCSB_B",
    "YCSB_C",
    "YcsbWorkload",
    "ZipfianChooser",
    "build_cluster",
    "build_faster_store",
    "paper_read_only",
    "run_kv_workload",
    "strand_servers",
]
