"""Tests for the YCSB key-choosing distributions."""

import numpy as np
import pytest

from repro.workloads import (
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
)


class TestUniform:
    def test_within_bounds_and_roughly_flat(self):
        chooser = UniformChooser(1000, np.random.default_rng(1))
        samples = chooser.sample(50_000)
        assert samples.min() >= 0 and samples.max() < 1000
        counts = np.bincount(samples, minlength=1000)
        assert counts.std() / counts.mean() < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformChooser(0, np.random.default_rng(1))


class TestZipfian:
    def test_rank_zero_is_most_popular(self):
        chooser = ZipfianChooser(10_000, np.random.default_rng(2))
        samples = chooser.sample(100_000)
        counts = np.bincount(samples, minlength=10_000)
        assert counts[0] == counts.max()
        assert counts[0] > 20 * counts[5000:].mean()

    def test_frequencies_follow_power_law(self):
        theta = 0.99
        chooser = ZipfianChooser(1000, np.random.default_rng(3), theta)
        samples = chooser.sample(400_000)
        counts = np.bincount(samples, minlength=1000).astype(float)
        # Regression of log-frequency on log-rank should give slope
        # near -theta for the head of the distribution.
        ranks = np.arange(1, 101)
        slope = np.polyfit(np.log(ranks), np.log(counts[:100] + 1), 1)[0]
        assert slope == pytest.approx(-theta, abs=0.15)

    def test_hit_fraction_matches_empirical(self):
        chooser = ZipfianChooser(10_000, np.random.default_rng(4))
        samples = chooser.sample(200_000)
        analytic = chooser.hit_fraction(1000)
        empirical = float(np.mean(samples < 1000))
        assert empirical == pytest.approx(analytic, abs=0.02)

    def test_paper_scale_skew(self):
        """theta=0.99: a sixth of the keyspace absorbs most accesses --
        the property behind Figure 18b's speedup over uniform."""
        chooser = ZipfianChooser(1_000_000, np.random.default_rng(5))
        assert chooser.hit_fraction(166_000) > 0.80

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            ZipfianChooser(100, rng, theta=1.5)
        with pytest.raises(ValueError):
            ZipfianChooser(0, rng)


class TestScrambledZipfian:
    def test_popularity_is_spread_across_keyspace(self):
        chooser = ScrambledZipfianChooser(10_000, np.random.default_rng(6))
        samples = chooser.sample(100_000)
        counts = np.bincount(samples, minlength=10_000)
        hottest = int(np.argmax(counts))
        # The hottest key is (almost surely) not rank 0 after scrambling.
        assert counts.max() > 20 * counts.mean()
        assert hottest != 0 or counts[1] > counts.mean()

    def test_deterministic_scramble(self):
        a = ScrambledZipfianChooser(1000, np.random.default_rng(7))
        b = ScrambledZipfianChooser(1000, np.random.default_rng(7))
        assert np.array_equal(a.sample(100), b.sample(100))

