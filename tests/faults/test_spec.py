"""Tests for fault specs and schedules (pure data, no simulation)."""

import pytest

from repro.faults import (
    FaultSchedule,
    LatencySpike,
    LinkDown,
    SlowNode,
    VmEviction,
    VmKill,
)
from repro.sim.rng import RngRegistry


class TestSpecs:
    def test_kinds(self):
        assert VmEviction(at=1.0).kind == "vm-eviction"
        assert VmKill(at=1.0).kind == "vm-kill"
        assert LinkDown(at=1.0, endpoint="e").kind == "link-down"
        assert LatencySpike(at=1.0).kind == "latency-spike"
        assert SlowNode(at=1.0, endpoint="e").kind == "slow-node"

    def test_validation(self):
        with pytest.raises(ValueError):
            VmEviction(at=-1.0)
        with pytest.raises(ValueError):
            LinkDown(at=0.0, endpoint="e", duration_s=0.0)
        with pytest.raises(ValueError):
            LatencySpike(at=0.0, extra_s=0.0)
        with pytest.raises(ValueError):
            SlowNode(at=0.0, endpoint="e", factor=0.5)

    def test_specs_are_frozen(self):
        spec = VmKill(at=1.0)
        with pytest.raises(Exception):
            spec.at = 2.0


class TestSchedule:
    def test_sorts_by_time_and_composes(self):
        a = FaultSchedule([VmKill(at=3.0), VmEviction(at=1.0)])
        b = FaultSchedule([LatencySpike(at=2.0)])
        merged = a + b
        assert [spec.at for spec in merged] == [1.0, 2.0, 3.0]
        assert len(merged) == 3

    def test_horizon_includes_recovery_windows(self):
        schedule = FaultSchedule([
            VmKill(at=5.0),
            LinkDown(at=1.0, endpoint="e", duration_s=10.0),
        ])
        assert schedule.horizon == 11.0

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            FaultSchedule(["not-a-spec"])

    def test_poisson_is_a_pure_function_of_the_seed(self):
        def draw(seed):
            rng = RngRegistry(seed).stream("faults")
            return FaultSchedule.poisson_evictions(
                rate_per_s=2.0, duration_s=10.0, rng=rng,
                kill_fraction=0.3)

        first, second = draw(9), draw(9)
        assert [(s.at, s.kind) for s in first] == \
            [(s.at, s.kind) for s in second]
        assert len(first) > 0
        assert all(0.0 <= spec.at < 10.0 for spec in first)
        other = draw(10)
        assert [(s.at, s.kind) for s in first] != \
            [(s.at, s.kind) for s in other]

    def test_poisson_kill_fraction_mixes_kinds(self):
        rng = RngRegistry(0).stream("faults")
        schedule = FaultSchedule.poisson_evictions(
            rate_per_s=10.0, duration_s=20.0, rng=rng, kill_fraction=0.5)
        kinds = {spec.kind for spec in schedule}
        assert kinds == {"vm-eviction", "vm-kill"}

    def test_poisson_validation(self):
        rng = RngRegistry(0).stream("faults")
        with pytest.raises(ValueError):
            FaultSchedule.poisson_evictions(rate_per_s=0.0, duration_s=1.0,
                                            rng=rng)
        with pytest.raises(ValueError):
            FaultSchedule.poisson_evictions(rate_per_s=1.0, duration_s=1.0,
                                            rng=rng, kill_fraction=1.5)
