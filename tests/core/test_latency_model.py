"""Tests of the analytic data-path model against the paper's anchors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RdmaConfig, max_batch_size
from repro.core.latency import DataPathModel
from repro.hardware import AZURE_HPC
from repro.sim.clock import US


@pytest.fixture(scope="module")
def model():
    return DataPathModel(AZURE_HPC, switch_hops=1)


class TestFigure3Anchors:
    """Figure 3: three configurations writing 8-byte payloads."""

    def test_latency_optimal_write_is_about_4us(self, model):
        perf = model.evaluate_op(RdmaConfig(5, 0, 1, 1), 8, is_read=False)
        assert perf.latency * 1e6 == pytest.approx(4.1, rel=0.10)
        assert perf.throughput_mops == pytest.approx(1.2, rel=0.15)

    def test_throughput_optimal_is_about_200mops(self, model):
        perf = model.evaluate(RdmaConfig(30, 30, 512, 16), 8)
        assert 150 <= perf.throughput_mops <= 260  # paper: 205
        assert perf.latency * 1e6 > 400  # paper: 538; high latency regime

    def test_balanced_sits_in_between(self, model):
        lat_opt = model.evaluate(RdmaConfig(5, 0, 1, 1), 8)
        balanced = model.evaluate(RdmaConfig(24, 24, 16, 4), 8)
        tput_opt = model.evaluate(RdmaConfig(30, 30, 512, 16), 8)
        assert lat_opt.latency < balanced.latency < tput_opt.latency
        assert lat_opt.throughput < balanced.throughput < tput_opt.throughput


class TestOptimizationLadder:
    """Figure 7/8: each static optimization must help."""

    def test_lock_free_improves_throughput(self, model):
        locked = model.evaluate(
            RdmaConfig(1, 1, 1, 1, lock_free=False, one_sided_fast_path=False,
                       numa_affinity=False), 8)
        lock_free = model.evaluate(
            RdmaConfig(1, 1, 1, 1, one_sided_fast_path=False,
                       numa_affinity=False), 8)
        gain = lock_free.throughput / locked.throughput - 1
        assert 0.4 < gain < 1.0  # paper: +68.7%

    def test_one_sided_improves_single_op_batches(self, model):
        two_sided = model.evaluate(
            RdmaConfig(1, 1, 1, 1, one_sided_fast_path=False,
                       numa_affinity=False), 8)
        one_sided = model.evaluate(
            RdmaConfig(1, 1, 1, 1, numa_affinity=False), 8)
        gain = one_sided.throughput / two_sided.throughput - 1
        assert 0.2 < gain < 0.7  # paper: +45.3%
        assert one_sided.latency < two_sided.latency

    def test_queue_depth_4_multiplies_throughput(self, model):
        q1 = model.evaluate(RdmaConfig(1, 1, 1, 1, numa_affinity=False), 8)
        q4 = model.evaluate(RdmaConfig(1, 1, 1, 4, numa_affinity=False), 8)
        assert 2.5 < q4.throughput / q1.throughput < 4.5  # paper: 3.4x

    def test_numa_affinity_improves_both(self, model):
        off = model.evaluate(RdmaConfig(1, 1, 1, 4, numa_affinity=False), 8)
        on = model.evaluate(RdmaConfig(1, 1, 1, 4), 8)
        assert 1.3 < on.throughput / off.throughput < 1.8  # paper: +52%
        assert on.latency < off.latency

    def test_network_round_trip_matches_fabric(self, model):
        config = RdmaConfig(1, 0, 1, 1)
        network = model.network_round_trip(config, 8, is_read=False)
        assert network == pytest.approx(2.9 * US, rel=0.02)
        assert network < model.evaluate_op(config, 8, is_read=False).latency


class TestRecordSizeEffects:
    """Figure 11/12 shapes."""

    def test_small_writes_beat_small_reads(self, model):
        config = RdmaConfig(1, 0, 1, 1)
        for size in (4, 8, 64, 128):
            read = model.evaluate_op(config, size, is_read=True)
            write = model.evaluate_op(config, size, is_read=False)
            assert write.latency < read.latency, size

    def test_inline_threshold_bends_write_latency(self, model):
        config = RdmaConfig(1, 0, 1, 1)
        nic = AZURE_HPC.nic
        below = model.evaluate_op(config, nic.inline_threshold_bytes,
                                  is_read=False)
        above = model.evaluate_op(config, nic.inline_threshold_bytes + 4,
                                  is_read=False)
        assert above.latency - below.latency > 0.3 * US

    def test_latency_flat_until_4kb_then_grows(self, model):
        config = RdmaConfig(1, 0, 1, 1)
        lat = {size: model.evaluate_op(config, size, is_read=True).latency
               for size in (8, 1024, 4096, 16384)}
        assert lat[1024] / lat[8] < 1.4
        assert lat[16384] / lat[4096] > 1.25
        assert lat[16384] / lat[8] > 1.4

    def test_throughput_drops_for_large_records(self, model):
        small = model.evaluate(RdmaConfig(30, 30, 256, 16), 16)
        large = model.evaluate(RdmaConfig(30, 30, 1, 16,
                                          one_sided_fast_path=False), 16384)
        assert small.throughput > 50 * large.throughput

    def test_batched_small_records_beat_raw_message_rate(self, model):
        # Figure 12: ~200 MOPS at 16 B, an order of magnitude over the raw
        # per-QP message rate.
        perf = model.evaluate(RdmaConfig(30, 30, 256, 16), 16)
        raw_mops = AZURE_HPC.nic.message_rate_mops_per_qp
        assert perf.throughput_mops > 8 * raw_mops


class TestModelSanity:
    def test_more_hops_means_more_latency(self):
        config = RdmaConfig(4, 0, 1, 1)
        lats = [DataPathModel(AZURE_HPC, h).evaluate(config, 8).latency
                for h in (1, 3, 5)]
        assert lats[0] < lats[1] < lats[2]

    def test_invalid_hops_rejected(self):
        with pytest.raises(ValueError):
            DataPathModel(AZURE_HPC, switch_hops=-1)

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 30), s=st.integers(0, 30), b_exp=st.integers(0, 9),
           q=st.integers(1, 16), size_exp=st.integers(2, 14))
    def test_property_outputs_positive_and_finite(self, c, s, b_exp, q,
                                                  size_exp):
        record = 2 ** size_exp
        s = min(s, c)
        b = min(2 ** b_exp, max_batch_size(record))
        if s == 0:
            b = 1
        model = DataPathModel(AZURE_HPC, 1)
        perf = model.evaluate(RdmaConfig(c, s, b, q), record)
        assert perf.latency > 0
        assert perf.throughput > 0

    @settings(max_examples=40, deadline=None)
    @given(c=st.integers(1, 16), s=st.integers(1, 16), b_exp=st.integers(0, 8),
           q=st.integers(1, 15))
    def test_property_queue_depth_monotone_in_latency(self, c, s, b_exp, q):
        """Increasing q never reduces modelled latency (the pruning
        invariant the Figure 10 search relies on)."""
        s = min(s, c)
        b = 2 ** b_exp
        model = DataPathModel(AZURE_HPC, 1)
        low = model.evaluate(RdmaConfig(c, s, b, q), 8)
        high = model.evaluate(RdmaConfig(c, s, b, q + 1), 8)
        assert high.latency >= low.latency - 1e-12
