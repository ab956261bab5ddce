"""Kernel step budgets: the exact number of event-list entries two small
runs dispatch.

Host time on a shared machine is too noisy to gate, but the kernel's
work is deterministic: a change that adds (or saves) dispatches moves
these counts exactly.  When one fails, check that the new count is
intended and update the pin with it.
"""

from repro.core import Slo
from repro.core.config import RdmaConfig
from repro.core.measurement import measure_config
from repro.obs import MetricsRegistry
from repro.workloads.scenarios import build_cluster

#: Kernel steps of one uncontended 64 B write then read of the same
#: address on an idle testbed (one-sided configuration).
READ_WRITE_STEPS = 34
#: Kernel steps of a small two-sided closed-loop measurement.
MEASURE_STEPS = 4041


def _check(name, pinned, steps):
    assert steps == pinned, (
        f"{name}: kernel steps moved from {pinned} (pinned) to {steps}")


def test_uncontended_read_and_write_step_budget():
    harness = build_cluster(seed=0)
    env = harness.env
    cache = harness.redy_client("budget").create(
        1 << 20, Slo(max_latency=20e-6, min_throughput=2e6, record_size=64),
        region_bytes=1 << 20)
    env.run()
    before = env.event_loop_stats()["steps"]
    results = []

    def driver():
        results.append((yield cache.write(4096, b"x" * 64)))
        results.append((yield cache.read(4096, 64)))

    env.process(driver())
    env.run()
    assert [result.ok for result in results] == [True, True]
    assert results[1].data == b"x" * 64
    _check("one read + one write", READ_WRITE_STEPS,
           env.event_loop_stats()["steps"] - before)


def test_measure_config_step_budget():
    registry = MetricsRegistry()
    measure_config(RdmaConfig(4, 4, 16, 8), 64, batches_per_connection=20,
                   warmup_batches=5, seed=0, metrics=registry)
    _check("measure_config", MEASURE_STEPS,
           int(registry.get("kernel.steps").value))
