"""Tests for the dynamic spot market."""

import numpy as np
import pytest

from repro.cluster.pricing import CEILING_FRACTION, FLOOR_FRACTION, SpotMarket
from repro.cluster.vmtypes import AZURE_MENU
from repro.sim import Environment


def make_market(seed=0, **kwargs):
    env = Environment()
    market = SpotMarket(env, AZURE_MENU, np.random.default_rng(seed),
                        **kwargs)
    return env, market


class TestSpotMarket:
    def test_initial_prices_match_menu(self):
        _, market = make_market()
        for vm_type in AZURE_MENU:
            assert market.spot_price(vm_type) == vm_type.spot_price_per_hour

    def test_prices_move_over_time(self):
        env, market = make_market(update_interval_s=60.0)
        before = {t.name: market.spot_price(t) for t in AZURE_MENU}
        env.run(until=3600.0)
        after = {t.name: market.spot_price(t) for t in AZURE_MENU}
        assert any(abs(after[k] - before[k]) > 1e-9 for k in before)

    def test_prices_stay_within_band(self):
        env, market = make_market(update_interval_s=30.0, volatility=0.8)
        env.run(until=4 * 3600.0)
        for vm_type in AZURE_MENU:
            price = market.spot_price(vm_type)
            assert (vm_type.price_per_hour * FLOOR_FRACTION - 1e-12 <= price
                    <= vm_type.price_per_hour * CEILING_FRACTION + 1e-12)

    def test_on_demand_price_is_static(self):
        env, market = make_market()
        env.run(until=3600.0)
        d8 = next(t for t in AZURE_MENU if t.name == "d8")
        assert market.price(d8, spot=False) == d8.price_per_hour

    def test_cheapest_covering_respects_requirements_and_order(self):
        env, market = make_market()
        env.run(until=1800.0)
        candidates = market.cheapest_covering(cores=4, memory_gb=16)
        assert candidates
        assert all(t.fits_requirements(4, 16) for t in candidates)
        prices = [market.spot_price(t) for t in candidates]
        assert prices == sorted(prices)

    def test_deterministic_per_seed(self):
        env_a, market_a = make_market(seed=3)
        env_b, market_b = make_market(seed=3)
        env_a.run(until=3600.0)
        env_b.run(until=3600.0)
        for vm_type in AZURE_MENU:
            assert market_a.spot_price(vm_type) == market_b.spot_price(
                vm_type)

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            SpotMarket(env, AZURE_MENU, np.random.default_rng(0),
                       update_interval_s=0)
