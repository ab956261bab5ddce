"""Unit tests for RdmaConfig, Slo, and the Table 2 bounds."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    ConfigurationError,
    PerfPoint,
    RdmaConfig,
    Slo,
    config_space_size,
    max_batch_size,
)


class TestRdmaConfig:
    def test_valid_config(self):
        config = RdmaConfig(4, 2, 8, 4)
        assert config.total_cores == 6
        assert not config.uses_one_sided

    def test_server_threads_capped_by_client_threads(self):
        # Table 2: s <= c.
        with pytest.raises(ConfigurationError):
            RdmaConfig(2, 3, 1, 1)

    def test_no_server_threads_forces_batch_one(self):
        # §5.2 constraint (2): s=0 disables batching.
        with pytest.raises(ConfigurationError):
            RdmaConfig(2, 0, 4, 1)
        assert RdmaConfig(2, 0, 1, 1).uses_one_sided

    def test_single_op_batches_use_one_sided_fast_path(self):
        assert RdmaConfig(2, 2, 1, 1).uses_one_sided
        assert not RdmaConfig(
            2, 2, 1, 1, one_sided_fast_path=False).uses_one_sided

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ConfigurationError):
            RdmaConfig(0, 0, 1, 1)
        with pytest.raises(ConfigurationError):
            RdmaConfig(1, -1, 1, 1)
        with pytest.raises(ConfigurationError):
            RdmaConfig(1, 1, 0, 1)
        with pytest.raises(ConfigurationError):
            RdmaConfig(1, 1, 1, 0)

    def test_describe(self):
        assert RdmaConfig(2, 1, 4, 8).describe() == "c=2 s=1 b=4 q=8"


class TestMaxBatchSize:
    def test_paper_example_8_bytes(self):
        # 4 KB / 8 B = 512, the B of the ~3M-configuration example.
        assert max_batch_size(8) == 512

    def test_large_records_cap_at_one(self):
        assert max_batch_size(4096) == 1
        assert max_batch_size(16384) == 1

    def test_rounding_up(self):
        assert max_batch_size(1000) == 5

    def test_invalid_record_size(self):
        with pytest.raises(ConfigurationError):
            max_batch_size(0)


class TestConfigSpaceSize:
    def test_paper_example_is_about_3m(self):
        # §5.2: C=30 (half of 60 cores), B=512 (8 B records), Q=16.
        size = config_space_size(30, 512, 16)
        assert size == 3_095_430

    def test_no_invalid_configs_with_batch_one(self):
        # With B=1 the subtracted term vanishes.
        assert config_space_size(2, 1, 4) == (2 + 3) * 1 * 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            config_space_size(0, 1, 16)
        with pytest.raises(ConfigurationError):
            config_space_size(1, 1, 16, min_queue_depth=20)

    @given(st.integers(1, 12), st.integers(1, 64), st.integers(4, 16))
    def test_property_matches_explicit_enumeration(self, C, B, Q):
        """The closed form equals brute-force enumeration of valid configs."""
        count = 0
        for c in range(1, C + 1):
            for s in range(0, c + 1):
                for b in range(1, B + 1):
                    if s == 0 and b != 1:
                        continue
                    for _q in range(4, Q + 1):
                        count += 1
        assert config_space_size(C, B, Q) == count


class TestSlo:
    def test_satisfaction(self):
        slo = Slo(max_latency=10e-6, min_throughput=1e6, record_size=8)
        assert slo.is_satisfied_by(PerfPoint(latency=8e-6, throughput=2e6))
        assert not slo.is_satisfied_by(PerfPoint(latency=12e-6, throughput=2e6))
        assert not slo.is_satisfied_by(PerfPoint(latency=8e-6, throughput=0.5e6))

    def test_boundary_is_inclusive(self):
        slo = Slo(max_latency=10e-6, min_throughput=1e6, record_size=8)
        assert slo.is_satisfied_by(PerfPoint(latency=10e-6, throughput=1e6))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Slo(max_latency=0, min_throughput=1, record_size=8)
        with pytest.raises(ConfigurationError):
            Slo(max_latency=1, min_throughput=-1, record_size=8)
        with pytest.raises(ConfigurationError):
            Slo(max_latency=1, min_throughput=1, record_size=0)


class TestPerfPoint:
    def test_unit_conversions(self):
        point = PerfPoint(latency=5e-6, throughput=2e6)
        assert point.latency * 1e6 == pytest.approx(5.0)
        assert point.throughput_mops == pytest.approx(2.0)
