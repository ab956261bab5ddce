"""The JSON exporter and the instrumented data path."""

import json

import pytest

from repro.core.config import RdmaConfig
from repro.core.measurement import measure_config
from repro.obs import MetricsRegistry
from repro.obs.export import SCHEMA, format_table, snapshot, write_json
from repro.sim import Environment, US


class TestExport:
    def test_snapshot_schema(self):
        env = Environment()
        registry = MetricsRegistry().install(env)
        registry.counter("ops").inc(3)
        registry.histogram("lat").observe(5 * US)
        blob = snapshot(registry, name="unit", env=env)
        assert blob["schema"] == SCHEMA
        assert blob["name"] == "unit"
        assert blob["metrics"]["ops"]["value"] == 3
        assert "event_loop" in blob and "sim_now" in blob
        json.dumps(blob)  # must be serializable as-is

    def test_empty_histogram_serializes(self):
        registry = MetricsRegistry()
        registry.histogram("never_observed")
        text = json.dumps(snapshot(registry))
        assert "Infinity" not in text

    def test_write_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        path = write_json(tmp_path / "BENCH_unit.json", registry)
        blob = json.loads(path.read_text())
        assert blob["name"] == "BENCH_unit"
        assert blob["metrics"]["ops"]["value"] == 1

    def test_format_table_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("a.ops").inc(7)
        registry.gauge("b.depth").set(3)
        registry.histogram("c.lat").observe(2 * US)
        table = format_table(snapshot(registry))
        for name in ("a.ops", "b.depth", "c.lat"):
            assert name in table
        assert "p99" in table


class TestInstrumentedDataPath:
    """The metrics-export smoke test: a real measurement run must emit a
    complete blob -- op latency histogram, throughput counter, wire
    metrics, and kernel stats -- through the repro.obs exporter."""

    def test_measure_config_fills_the_registry(self, tmp_path):
        registry = MetricsRegistry()
        result = measure_config(RdmaConfig(1, 0, 1, 2), 8, seed=3,
                                batches_per_connection=40,
                                warmup_batches=10, metrics=registry)

        latency = registry.get("bench.op_latency")
        assert latency is not None and latency.count > 0
        # Bucketized percentiles agree with the exact-sample percentiles
        # within histogram resolution (one 10^(1/8) bucket is ~33%).
        assert latency.p50 == pytest.approx(result.latency_p50, rel=0.5)
        assert registry.counter("bench.ops").value == result.ops_measured
        assert registry.gauge("bench.throughput_ops").value == (
            pytest.approx(result.throughput))

        # The data path instrumented itself end to end.
        assert registry.histogram("engine.op_latency").count > 0
        assert registry.histogram("qp.wire_latency").count > 0
        assert registry.counter("qp.ops_posted").value > 0
        assert registry.counter("fabric.bytes").value > 0
        assert registry.counter("engine.ops_failed").value == 0
        assert registry.gauge("kernel.steps").value > 0

        blob = json.loads(
            write_json(tmp_path / "BENCH_smoke.json", registry,
                       name="smoke").read_text())
        assert blob["schema"] == SCHEMA
        assert blob["metrics"]["bench.op_latency"]["count"] == latency.count

    def test_uninstrumented_run_unchanged(self):
        """No registry installed: same numbers, no metrics attribute use."""
        plain = measure_config(RdmaConfig(1, 0, 1, 2), 8, seed=3,
                               batches_per_connection=40, warmup_batches=10)
        instrumented = measure_config(RdmaConfig(1, 0, 1, 2), 8, seed=3,
                                      batches_per_connection=40,
                                      warmup_batches=10,
                                      metrics=MetricsRegistry())
        assert plain.latency_mean == instrumented.latency_mean
        assert plain.throughput == instrumented.throughput
