"""Tests for the spot-market cost optimizer."""

import pytest

from repro.cluster.pricing import SpotMarket
from repro.core import Slo
from repro.core.costopt import CostOptimizer
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20
SLO = Slo(max_latency=1e-3, min_throughput=1e4, record_size=64)


def make_stack(seed=9, volatility=0.0):
    harness = build_cluster(seed=seed)
    market = SpotMarket(harness.env, harness.manager.menu,
                        harness.rngs.stream("market"),
                        update_interval_s=60.0, volatility=volatility)
    client = harness.redy_client("cost-app")
    cache = client.create(2 * REGION, SLO, duration_s=7200.0,
                          region_bytes=REGION)
    return harness, market, cache


def force_price(market, vm_type_name, price):
    market._prices[vm_type_name] = price


class TestCostOptimizer:
    def test_moves_to_cheaper_type_when_savings_clear_threshold(self):
        harness, market, cache = make_stack()
        optimizer = CostOptimizer(cache, market, check_interval_s=30.0,
                                  min_saving_fraction=0.25)
        current_type = cache.allocation.vms[0].vm_type
        # Make some other adequate type drastically cheaper.
        cheaper = next(t for t in market.menu
                       if t.name != current_type.name
                       and t.fits_requirements(1, 1.0))
        force_price(market, cheaper.name, 0.001)
        force_price(market, current_type.name,
                    current_type.spot_price_per_hour)

        harness.env.run(until=120.0)
        assert optimizer.migrations == 1
        assert cache.allocation.vms[0].vm_type.name == cheaper.name
        assert optimizer.hourly_savings > 0

    def test_data_survives_cost_migration(self):
        harness, market, cache = make_stack()
        CostOptimizer(cache, market, check_interval_s=30.0)
        cheaper = market.menu[0]
        force_price(market, cheaper.name, 0.0005)

        def scenario(env):
            yield cache.write(REGION + 5, b"cheap-and-safe")
            yield env.timeout(200.0)
            return (yield cache.read(REGION + 5, 14))

        result = harness.env.run_process(scenario(harness.env))
        assert result.ok and result.data == b"cheap-and-safe"

    def test_no_move_below_threshold(self):
        harness, market, cache = make_stack()
        optimizer = CostOptimizer(cache, market, check_interval_s=30.0,
                                  min_saving_fraction=0.5)
        current_type = cache.allocation.vms[0].vm_type
        # A 10% saving exists but does not clear the 50% bar.
        for vm_type in market.menu:
            force_price(market, vm_type.name,
                        current_type.spot_price_per_hour * 0.9)
        harness.env.run(until=300.0)
        assert optimizer.migrations == 0

    def test_validation(self):
        harness, market, cache = make_stack()
        with pytest.raises(ValueError):
            CostOptimizer(cache, market, check_interval_s=0)
        with pytest.raises(ValueError):
            CostOptimizer(cache, market, min_saving_fraction=1.5)
