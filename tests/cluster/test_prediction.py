"""Tests for the spot-lifetime predictor."""

import numpy as np
import pytest

from repro.cluster.prediction import SpotLifetimePredictor


class TestPredictor:
    def test_no_model_before_min_samples(self):
        predictor = SpotLifetimePredictor(min_samples=5)
        for _ in range(4):
            predictor.observe("d8", 600.0, reclaimed=True)
        assert not predictor.has_model("d8")
        assert predictor.safe_age("d8") is None
        predictor.observe("d8", 700.0, reclaimed=True)
        assert predictor.has_model("d8")

    def test_censored_observations_do_not_build_a_model(self):
        predictor = SpotLifetimePredictor(min_samples=2)
        for _ in range(10):
            predictor.observe("d8", 600.0, reclaimed=False)
        assert not predictor.has_model("d8")

    def test_quantiles_follow_the_sample(self):
        predictor = SpotLifetimePredictor(min_samples=5)
        rng = np.random.default_rng(1)
        lifetimes = rng.exponential(1200.0, size=400)
        for lifetime in lifetimes:
            predictor.observe("e4", float(lifetime), reclaimed=True)
        q10 = predictor.lifetime_quantile("e4", 0.10)
        q90 = predictor.lifetime_quantile("e4", 0.90)
        assert q10 < np.median(lifetimes) < q90
        assert q10 == pytest.approx(np.quantile(lifetimes, 0.10), rel=0.01)

    def test_safe_age_is_the_risk_quantile(self):
        predictor = SpotLifetimePredictor(min_samples=3)
        for lifetime in (100.0, 200.0, 300.0, 400.0, 500.0):
            predictor.observe("f4", lifetime, reclaimed=True)
        assert predictor.safe_age("f4", risk=0.5) == pytest.approx(300.0)

    def test_types_are_independent(self):
        predictor = SpotLifetimePredictor(min_samples=1)
        predictor.observe("a", 10.0, reclaimed=True)
        predictor.observe("b", 1000.0, reclaimed=True)
        assert predictor.safe_age("a", 0.5) == pytest.approx(10.0)
        assert predictor.safe_age("b", 0.5) == pytest.approx(1000.0)

    def test_validation(self):
        predictor = SpotLifetimePredictor()
        with pytest.raises(ValueError):
            predictor.observe("x", -1.0, reclaimed=True)
        with pytest.raises(ValueError):
            predictor.lifetime_quantile("x", 1.5)
        with pytest.raises(ValueError):
            SpotLifetimePredictor(min_samples=0)
