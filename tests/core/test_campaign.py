"""Tests for the Figure 9 distributed modeling campaign."""

import pytest

from repro.core import RdmaConfig
from repro.core.campaign import run_modeling_campaign
from repro.core.modeling import OfflineModeler, make_analytic_measurer
from repro.core.space import ConfigSpace


@pytest.fixture(scope="module")
def small_campaign():
    space = ConfigSpace(max_client_threads=8, record_size=256,
                        max_queue_depth=16)
    measurer = make_analytic_measurer(record_size=256, noise=0.0)
    return space, measurer, run_modeling_campaign(space, measurer)


class TestCampaign:
    def test_protocol_measures_the_whole_grid(self, small_campaign):
        space, measurer, result = small_campaign
        assert result.measured + result.estimated == space.grid_size()
        # One next_config per grid-measured point + terminal None, plus
        # one report per measurement.
        assert result.rpc_calls == 2 * result.measured + 1

    def test_model_identical_to_local_modeler(self, small_campaign):
        """The RPC protocol is a transport, not a different algorithm."""
        space, _measurer, result = small_campaign
        local_model, stats = OfflineModeler(
            space, make_analytic_measurer(record_size=256, noise=0.0)
        ).build()
        assert result.measured == stats.measured
        for config in (RdmaConfig(3, 1, 7, 5), RdmaConfig(8, 8, 16, 16),
                       RdmaConfig(1, 0, 1, 4)):
            campaign = result.model.predict(config)
            local = local_model.predict(config)
            assert campaign.latency == pytest.approx(local.latency)
            assert campaign.throughput == pytest.approx(local.throughput)

    def test_campaign_time_is_hours_not_years(self, small_campaign):
        _space, _measurer, result = small_campaign
        # ~55 s per measurement, the §5.2 minute-per-measurement class.
        per_measurement = result.duration_s / result.measured
        assert 40 < per_measurement < 70

    def test_paper_scale_campaign_matches_the_15_hour_claim(self):
        """§7.3: ~1000 measurements "took only 15 hours" -- the same
        per-measurement rate our 340-measurement campaign implies."""
        space = ConfigSpace(30, 8, 16)
        measurer = make_analytic_measurer(record_size=8, noise=0.03,
                                          seed=17)
        result = run_modeling_campaign(space, measurer)
        assert result.measured <= 1000
        assert result.duration_hours < 24
        implied_1000 = 1000 * (result.duration_s / result.measured) / 3600
        assert implied_1000 == pytest.approx(15.0, rel=0.15)


def test_same_seed_campaigns_replay_identically_in_one_interpreter():
    """RPC call ids name the round-trip processes (``rpc:{method}#{id}``).
    They are numbered per client, so a second same-seed campaign in the
    same interpreter names -- and schedules -- its processes exactly
    like the first."""
    from repro.analysis.sanitize import _compare, _record

    space = ConfigSpace(max_client_threads=2, record_size=64,
                        max_queue_depth=4)

    def campaign(seed):
        measurer = make_analytic_measurer(record_size=64, noise=0.03,
                                          seed=seed)
        return run_modeling_campaign(space, measurer).rpc_calls

    first, calls = _record(campaign, 0)
    again, calls_again = _record(campaign, 0)
    report = _compare(first, again, 0, "campaign", context_events=2)
    assert report.deterministic, (report.divergence_index, report.entry_a,
                                  report.entry_b)
    assert calls == calls_again > 0
