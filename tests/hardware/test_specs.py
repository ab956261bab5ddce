"""Unit tests for the hardware cost profiles."""

import numpy as np
import pytest

from repro.hardware import AZURE_HPC, CpuSpec, NicSpec, SsdSpec
from repro.sim.clock import US


class TestNicSpec:
    def test_inline_threshold_matches_paper(self):
        nic = NicSpec()
        # Paper §7.2: inlining stops working above 172 bytes.
        assert nic.can_inline(172)
        assert not nic.can_inline(173)

    def test_max_queue_depth_matches_table2(self):
        assert NicSpec().max_queue_depth == 16

    def test_wire_time_scales_with_payload(self):
        nic = NicSpec()
        small = nic.wire_time(8)
        large = nic.wire_time(4096)
        assert large > small
        # 4KB + header at 100 Gbit/s is ~0.33 us.
        assert large == pytest.approx((4096 + 60) * 8 / 100e9)

    def test_dma_fetch_has_base_plus_bandwidth(self):
        nic = NicSpec()
        assert nic.dma_fetch(0) == pytest.approx(nic.dma_fetch_base)
        assert nic.dma_fetch(16384) > nic.dma_fetch(8)

    def test_line_rate_bytes_per_second(self):
        assert NicSpec().bytes_per_second == pytest.approx(12.5e9)


class TestCpuSpec:
    def test_lockfree_handoff_cheaper_than_locked(self):
        cpu = CpuSpec()
        assert cpu.handoff_lockfree < cpu.handoff_locked

    def test_lock_tail_is_many_times_mean(self):
        # The ablation shows a 7x p99 tail reduction; the contended path
        # must carry a tail far above its mean.
        cpu = CpuSpec()
        assert cpu.lock_contention_p99 > 5 * cpu.lock_contention_mean

    def test_server_op_cost_grows_with_payload(self):
        cpu = CpuSpec()
        assert cpu.server_op_cost(4096, 1) > cpu.server_op_cost(8, 1)

    def test_server_op_cost_grows_with_contention(self):
        cpu = CpuSpec()
        assert cpu.server_op_cost(8, 16) > cpu.server_op_cost(8, 1)

    def test_total_cores_matches_hb60rs(self):
        assert CpuSpec().total_cores == 60


class TestSsdSpec:
    def test_median_latency_is_100us_class(self):
        ssd = SsdSpec()
        assert 50 * US < ssd.read_latency_median < 200 * US

    def test_sample_latency_is_variable(self):
        ssd = SsdSpec()
        rng = np.random.default_rng(1)
        samples = [ssd.sample_latency(4096, False, rng) for _ in range(500)]
        assert min(samples) < ssd.read_latency_median < max(samples)

    def test_sample_latency_deterministic_with_seed(self):
        ssd = SsdSpec()
        a = [ssd.sample_latency(4096, False, np.random.default_rng(7))
             for _ in range(1)]
        b = [ssd.sample_latency(4096, False, np.random.default_rng(7))
             for _ in range(1)]
        assert a == b

    def test_bandwidth_is_ssd_class(self):
        # Paper: SSDs are 16-24 Gbit/s.
        assert 16 <= SsdSpec().bandwidth_gbps <= 24

    def test_transfer_time(self):
        ssd = SsdSpec()
        assert ssd.transfer_time(2.5e9 / 8 * 1) == pytest.approx(0.125, rel=0.01)


class TestTestbedProfile:
    def test_one_switch_rtt_is_2_9us(self):
        # Figure 3: the latency-optimal configuration's network component.
        rtt = AZURE_HPC.fabric.round_trip_base(1)
        assert rtt == pytest.approx(2.9 * US, rel=0.01)

    def test_rtt_grows_with_hops(self):
        f = AZURE_HPC.fabric
        assert f.round_trip_base(5) > f.round_trip_base(3) > f.round_trip_base(1)

    def test_modeling_cores_is_half_the_vm(self):
        # §5.2: half of 60 cores available to the cache.
        assert AZURE_HPC.modeling_cores == 30

    def test_with_overrides_returns_new_profile(self):
        changed = AZURE_HPC.with_overrides(name="other")
        assert changed.name == "other"
        assert AZURE_HPC.name == "azure-hpc"
        assert changed.nic is AZURE_HPC.nic
