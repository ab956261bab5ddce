"""Tests for offline modeling: interpolation, early termination and
the per-process model store."""

from dataclasses import replace

import pytest

from repro.core import RdmaConfig, Slo
from repro.core.latency import DataPathModel
from repro.core.measurement import measure_config
from repro.core.modeling import (
    MODEL_STORE_SIZE,
    OfflineModeler,
    analytic_model,
    make_analytic_measurer,
    make_testbed_measurer,
)
from repro.core.search import SloSearcher
from repro.core.space import ConfigSpace
from repro.exec.runner import SweepRunner
from repro.hardware import AZURE_HPC


@pytest.fixture(scope="module")
def small_space():
    return ConfigSpace(max_client_threads=8, record_size=64,
                       max_queue_depth=16)


@pytest.fixture(scope="module")
def noiseless_model(small_space):
    measurer = make_analytic_measurer(record_size=64, noise=0.0)
    model, stats = OfflineModeler(
        small_space, measurer, early_termination=False).build()
    return model


class TestInterpolation:
    def test_exact_at_grid_points(self, small_space, noiseless_model):
        analytic = DataPathModel(AZURE_HPC, 1)
        for config in small_space.iter_grid():
            predicted = noiseless_model.predict(config)
            truth = analytic.evaluate(config, 64)
            assert predicted.latency == pytest.approx(truth.latency, rel=1e-9)
            assert predicted.throughput == pytest.approx(
                truth.throughput, rel=1e-9)

    def test_midpoint_is_mean_of_neighbours(self, small_space,
                                            noiseless_model):
        """The paper's example: f(1,1,1,3) estimated as the mean of
        f(1,1,1,2) and f(1,1,1,4) -- here with the q=4..16 grid we check
        q=6 against q=4 and q=8."""
        low = noiseless_model.predict(RdmaConfig(1, 1, 2, 4))
        high = noiseless_model.predict(RdmaConfig(1, 1, 2, 8))
        mid = noiseless_model.predict(RdmaConfig(1, 1, 2, 6))
        assert mid.latency == pytest.approx((low.latency + high.latency) / 2)
        assert mid.throughput == pytest.approx(
            (low.throughput + high.throughput) / 2)

    def test_interpolation_error_is_modest(self, small_space,
                                           noiseless_model):
        """Off-grid predictions track the analytic truth (§7.3 accuracy)."""
        analytic = DataPathModel(AZURE_HPC, 1)
        worst = 0.0
        for config in (RdmaConfig(3, 1, 3, 5), RdmaConfig(5, 3, 12, 6),
                       RdmaConfig(7, 5, 48, 11), RdmaConfig(6, 2, 20, 13)):
            predicted = noiseless_model.predict(config)
            truth = analytic.evaluate(config, 64)
            worst = max(worst,
                        abs(predicted.latency / truth.latency - 1),
                        abs(predicted.throughput / truth.throughput - 1))
        assert worst < 0.5

    def test_one_sided_slab_is_separate(self, noiseless_model):
        """s=0 configs never mix with two-sided measurements."""
        analytic = DataPathModel(AZURE_HPC, 1)
        predicted = noiseless_model.predict(RdmaConfig(3, 0, 1, 6))
        truth = analytic.evaluate(RdmaConfig(3, 0, 1, 6), 64)
        assert predicted.latency == pytest.approx(truth.latency, rel=0.3)

    def test_bounds_span_the_model(self, noiseless_model):
        best, worst = noiseless_model.bounds()
        assert best.latency < worst.latency
        assert best.throughput > worst.throughput


class TestEarlyTermination:
    def test_early_termination_reduces_measurements(self, small_space):
        measurer = make_analytic_measurer(record_size=64, noise=0.0)
        _, with_et = OfflineModeler(
            small_space, measurer, early_termination=True).build()
        _, without_et = OfflineModeler(
            small_space, measurer, early_termination=False).build()
        assert with_et.measured < without_et.measured
        assert without_et.estimated == 0
        assert (with_et.measured + with_et.estimated
                == without_et.measured == small_space.grid_size())

    def test_model_quality_survives_early_termination(self, small_space):
        measurer = make_analytic_measurer(record_size=64, noise=0.0)
        model_et, _ = OfflineModeler(
            small_space, measurer, early_termination=True).build()
        analytic = DataPathModel(AZURE_HPC, 1)
        # The throughput ceiling must not collapse (the regression we
        # guard against: terminating across the one-/two-sided boundary).
        best_et, _ = model_et.bounds()
        truth_best = max(
            analytic.evaluate(config, 64).throughput
            for config in small_space.iter_grid())
        assert best_et.throughput > 0.5 * truth_best

    def test_campaign_stats(self, small_space):
        measurer = make_analytic_measurer(record_size=64, noise=0.0)
        _, stats = OfflineModeler(small_space, measurer).build()
        assert stats.space_size == small_space.size()
        assert stats.campaign_minutes == stats.measured
        assert stats.naive_campaign_years > 0


class TestPaperScaleCampaign:
    def test_paper_example_measurement_budget(self):
        """§5.2: ~3M configs reduced to ~1-2k measurements, ~15 hours."""
        space = ConfigSpace(30, 8, 16)
        measurer = make_analytic_measurer(record_size=8, noise=0.03, seed=1)
        _, stats = OfflineModeler(space, measurer).build()
        assert stats.space_size > 3_000_000
        assert stats.measured + stats.estimated == stats.grid_size < 2000
        assert stats.measured <= 1000
        # Naive campaign would take years; ours takes hours.
        assert stats.naive_campaign_years > 5
        assert stats.campaign_minutes / 60 < 24


class TestEngineMeasurer:
    def test_engine_measurer_agrees_with_analytic(self):
        """The simulated-testbed measurer and the analytic model must tell
        the same story (they share the same cost constants)."""
        config = RdmaConfig(2, 1, 4, 4)
        engine = make_testbed_measurer(
            record_size=64, seed=2, batches_per_connection=80,
            runner=SweepRunner(max_workers=1))(config)
        analytic = DataPathModel(AZURE_HPC, 1).evaluate(config, 64)
        assert engine.latency == pytest.approx(analytic.latency, rel=0.45)
        assert engine.throughput == pytest.approx(analytic.throughput,
                                                  rel=0.45)


def test_testbed_measurer_matches_measure_config_bit_for_bit():
    """The batch-mode (sweep-executor) measurer and direct
    ``measure_config`` calls walk the same grid to identical PerfPoints
    and identical early-termination decisions."""
    space = ConfigSpace(max_client_threads=2, record_size=1024,
                        max_queue_depth=4)

    def direct(config):
        return measure_config(config, 1024, batches_per_connection=6,
                              warmup_batches=2, seed=7).perf

    serial = OfflineModeler(space, direct)
    batched = OfflineModeler(space, make_testbed_measurer(
        record_size=1024, seed=7, batches_per_connection=6,
        warmup_batches=2, runner=SweepRunner(max_workers=1)))
    serial_model, serial_stats = serial.build()
    batched_model, batched_stats = batched.build()
    assert serial_stats == batched_stats
    for config in space.iter_grid():
        assert serial_model.known(config) == batched_model.known(config)


# ----------------------------------------------------------------------
# The per-process model store
# ----------------------------------------------------------------------

TINY_SPACE = ConfigSpace(max_client_threads=2, record_size=64,
                         max_queue_depth=4)


def _fresh(space, profile=AZURE_HPC, switch_hops=1, noise=0.0, seed=0):
    measurer = make_analytic_measurer(
        profile, record_size=space.record_size, switch_hops=switch_hops,
        noise=noise, seed=seed)
    model, _stats = OfflineModeler(
        space, measurer, switch_hops=switch_hops).build()
    return model


def _stored(space, profile=AZURE_HPC, switch_hops=1, noise=0.0, seed=0):
    return analytic_model(space, profile=profile, switch_hops=switch_hops,
                          noise=noise, seed=seed)


def _grid_points(model):
    return [model.known(config) for config in model.space.iter_grid()]


def _slo_ladder(model):
    """Fixed SLOs spread between the model's corners, some unsatisfiable."""
    best, worst = model.bounds()
    slos = []
    for latency_fraction in (-0.1, 0.0, 0.25, 0.5, 1.0):
        for tput_fraction in (0.0, 0.25, 0.5, 1.0, 1.1):
            slos.append(Slo(
                max_latency=best.latency
                * (worst.latency / best.latency) ** latency_fraction,
                min_throughput=worst.throughput + tput_fraction
                * (best.throughput - worst.throughput),
                record_size=model.space.record_size))
    return slos


class TestAnalyticModelStore:
    @pytest.mark.parametrize("space,noise,seed", [
        (ConfigSpace(max_client_threads=8, record_size=64,
                     max_queue_depth=16), 0.0, 0),
        # Table 2's campaign: 8 B records, C = 30, Q = 16, 3 % noise.
        (ConfigSpace(30, 8, 16), 0.03, 4),
    ], ids=["noise-0", "tab02"])
    def test_stored_model_equals_a_fresh_build(self, space, noise, seed):
        stored = _stored(space, noise=noise, seed=seed)
        assert _stored(space, noise=noise, seed=seed) is stored
        fresh = _fresh(space, noise=noise, seed=seed)
        assert fresh is not stored
        assert _grid_points(stored) == _grid_points(fresh)
        assert stored.bounds() == fresh.bounds()
        for config in (RdmaConfig(3, 1, 3, 5), RdmaConfig(5, 3, 12, 6),
                       RdmaConfig(7, 0, 1, 11)):
            assert stored.predict(config) == fresh.predict(config)
        picked = [(SloSearcher.for_model(stored).search(slo),
                   SloSearcher.for_model(fresh).search(slo))
                  for slo in _slo_ladder(fresh)]
        assert all(a == b for a, b in picked)
        assert any(a is None for a, _ in picked)
        assert len({a for a, _ in picked if a is not None}) > 3

    def test_every_key_argument_builds_separately(self):
        base = _stored(TINY_SPACE, noise=0.03, seed=1)
        slow_hops = replace(AZURE_HPC, fabric=replace(
            AZURE_HPC.fabric, hop_latency=4 * AZURE_HPC.fabric.hop_latency))
        variants = [
            {"profile": slow_hops},
            {"noise": 0.0},
            {"seed": 2},
            {"space": replace(TINY_SPACE, max_queue_depth=8)},
            {"switch_hops": 3},
        ]
        for variant in variants:
            arguments = {"space": TINY_SPACE, "noise": 0.03, "seed": 1,
                         **variant}
            before = analytic_model.cache_info().misses
            model = _stored(**arguments)
            assert analytic_model.cache_info().misses == before + 1, variant
            assert _grid_points(model) != _grid_points(base), variant
            assert _grid_points(model) == _grid_points(_fresh(**arguments))

    def test_an_evicted_key_rebuilds_an_identical_model(self):
        first = _stored(TINY_SPACE, noise=0.03, seed=7)
        for seed in range(1000, 1000 + MODEL_STORE_SIZE):
            _stored(TINY_SPACE, noise=0.03, seed=seed)
        before = analytic_model.cache_info().misses
        rebuilt = _stored(TINY_SPACE, noise=0.03, seed=7)
        assert analytic_model.cache_info().misses == before + 1
        assert rebuilt is not first
        assert _grid_points(rebuilt) == _grid_points(first)
        assert rebuilt.bounds() == first.bounds()

    def test_shared_planes_are_read_only(self):
        lat_plane, tput_plane = _stored(TINY_SPACE).predict_plane(1, 1)
        with pytest.raises(ValueError):
            lat_plane[0, 0] = 0.0
        with pytest.raises(ValueError):
            tput_plane[0, 0] = 0.0
