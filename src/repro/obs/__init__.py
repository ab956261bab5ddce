"""Observability for the simulated data path.

The reproduction's north star is performance, and performance claims are
only as good as the instrumentation behind them.  This package is the
measurement substrate:

* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket latency histograms (p50/p99 without storing
  samples), cheap enough for the simulator's hot paths;
* :mod:`repro.obs.export` -- JSON snapshots, used by the benchmark
  suite to persist ``BENCH_*.json`` metric blobs alongside each figure.

Instrumented components (queue pairs, the fabric, the client engine,
migration, FASTER devices) look for a registry on their
:class:`~repro.sim.kernel.Environment` at construction time::

    registry = MetricsRegistry()
    env = Environment()
    registry.install(env)          # before building the testbed
    ...build fabric / servers / data path...
    print(registry.to_json())

When no registry is installed the hot paths skip all bookkeeping, so an
uninstrumented simulation pays only a ``None`` check.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.export import snapshot, to_json, write_json

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "snapshot",
    "to_json",
    "write_json",
]
