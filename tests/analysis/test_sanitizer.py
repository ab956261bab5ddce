"""Replay-divergence sanitizer tests: bisection and RNG attribution."""

import pytest

from repro import gates
from repro.analysis import sanitize
from repro.analysis.sanitize import _record
from repro.sim import kernel
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

from tests.analysis.nondet_demo import LEAK, demo_nondet


def _deterministic_workload(seed):
    env = Environment()
    rng = RngRegistry(seed).stream("load")

    def worker():
        for _ in range(4):
            yield env.timeout(rng.random() * 1e-3)

    env.process(worker(), name="w")
    env.run()


def make_schedule_leaky():
    """Workload with leaked cross-run state but identical RNG draws."""
    calls = {"n": 0}

    def workload(seed):
        calls["n"] += 1
        second_run = calls["n"] > 1
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            yield env.timeout(3.0 if second_run else 2.0)

        env.process(worker(), name="w")
        env.run()

    return workload


def make_rng_leaky():
    """Workload where leaked state causes an extra RNG draw in run two."""
    calls = {"n": 0}

    def workload(seed):
        calls["n"] += 1
        second_run = calls["n"] > 1
        env = Environment()
        rng = RngRegistry(seed).stream("jitter")

        def worker():
            yield env.timeout(rng.random())
            if second_run:
                rng.random()
            yield env.timeout(rng.random())

        env.process(worker(), name="w")
        env.run()

    return workload


def test_deterministic_workload_is_clean():
    report = sanitize(_deterministic_workload, seed=3, label="det")
    assert report.deterministic
    assert report.digest_a == report.digest_b
    assert report.events_a == report.events_b > 0
    assert report.to_findings() == []
    assert "deterministic" in report.attribution


def test_schedule_divergence_is_bisected_to_the_exact_event():
    report = sanitize(make_schedule_leaky(), seed=0, label="leaky")
    assert not report.deterministic
    # Trace: spawn, bootstrap step, timeout trigger@0, resume@1.0, and
    # the second timeout's trigger@1.0 agree (trigger entries record
    # type+now, not the delay); the second resume (index 5) is the
    # first divergent event.
    assert report.divergence_index == 5
    assert report.entry_a[0] == report.entry_b[0] == "resume"
    assert report.entry_a[-1] == 3.0
    assert report.entry_b[-1] == 4.0
    assert report.rng_divergence == {}
    assert "schedule divergence" in report.attribution


def test_rng_divergence_is_attributed_to_the_stream():
    report = sanitize(make_rng_leaky(), seed=11, label="rng-leak")
    assert not report.deterministic
    assert report.rng_divergence == {"jitter": (2, 3)}
    assert "jitter" in report.attribution
    findings = report.to_findings()
    assert len(findings) == 1
    assert findings[0].rule == "DIVERGENCE"
    assert findings[0].severity == "error"
    assert findings[0].detail["rng_divergence"] == {"jitter": [2, 3]}


def test_demo_workload_diverges():
    LEAK["runs"] = 0
    report = sanitize(demo_nondet, seed=0, label="demo")
    assert not report.deterministic
    assert report.rng_divergence  # the leak draws extra values in run two


def test_shipped_measure_workload_is_deterministic():
    report = sanitize(gates.SCENARIOS["measure"].run, seed=0,
                      label="measure")
    assert report.deterministic
    assert report.events_a > 500  # the whole measurement path is traced


def test_default_monitor_is_restored_after_sanitize():
    sanitize(_deterministic_workload, seed=1)
    # set_default_monitor returns the previous monitor: must be None.
    assert kernel.set_default_monitor(None) is None


def _raising_workload(seed):
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        raise RuntimeError("workload blew up")

    env.process(worker(), name="w")
    env.run()


def test_monitor_restored_when_workload_raises():
    # Exception safety: a raising workload must not leak the recorder
    # (or an RNG wrapper) into process state.
    with pytest.raises(RuntimeError, match="workload blew up"):
        _record(_raising_workload, seed=0)
    assert kernel.set_default_monitor(None) is None
    assert RngRegistry.stream.__qualname__ == "RngRegistry.stream"


def test_nested_record_restores_the_outer_monitor():
    # A recording inside a recorded workload hands the outer recorder
    # back when it raises, so the outer run keeps checking its order.
    def outer(seed):
        with pytest.raises(RuntimeError):
            _record(_raising_workload, seed)
        current = kernel.set_default_monitor(None)
        kernel.set_default_monitor(current)
        return current

    recorder, inner_monitor = _record(outer, seed=0)
    assert inner_monitor is recorder
    assert kernel.set_default_monitor(None) is None


def test_recorder_checks_order_on_clean_workload(monkeypatch):
    recorder, _ = _record(_deterministic_workload, seed=3)
    assert recorder.dispatches > 0 and recorder.mismatches == 0
    assert recorder.pending == {}  # every scheduled entry was dispatched
    monkeypatch.setitem(gates.SCENARIOS, "det", gates.Scenario(
        _deterministic_workload, lambda blob: []))
    entry = gates.check("det", seed=3)
    assert entry["ok"] and entry["failures"] == []
    assert entry["divergence"] is None
    assert entry["events"] > 0 and len(entry["digest"]) == 64


def test_gate_checks_order_on_measurement_path():
    recorder, _ = _record(gates.SCENARIOS["measure"].run, seed=0)
    assert recorder.dispatches > 500 and recorder.mismatches == 0
    entry = gates.check("measure", seed=0)
    assert entry["ok"], entry["failures"]
    assert entry["divergence"] is None  # in order, trace and blob replay
    assert entry["events"] > 500


def test_report_describe_mentions_both_runs():
    report = sanitize(make_schedule_leaky(), seed=0, label="leaky")
    text = report.describe()
    assert "DIVERGED" in text
    assert "run A" in text and "run B" in text
    assert "attribution" in text
