"""Unit tests for record layout and the hash index."""

import pytest
from hypothesis import given, strategies as st

from repro.faster.address import (
    NULL_ADDRESS,
    pack_record,
    record_bytes,
    unpack_record,
)
from repro.faster.index import HashIndex


class TestRecordLayout:
    def test_paper_record_size(self):
        # 8 B key + 8 B value + header = 24 B: 250M records ~ 6 GB.
        assert record_bytes(8) == 24
        assert 250_000_000 * record_bytes(8) == pytest.approx(6e9, rel=0.01)

    def test_pack_unpack_round_trip(self):
        blob = pack_record(42, b"valuedat")
        assert len(blob) == record_bytes(8)
        key, value = unpack_record(blob)
        assert key == 42
        assert value == b"valuedat"

    def test_negative_keys_supported(self):
        key, _ = unpack_record(pack_record(-7, b""))
        assert key == -7

    def test_truncated_record_detected(self):
        blob = pack_record(1, b"12345678")
        with pytest.raises(ValueError):
            unpack_record(blob[:-3])

    def test_invalid_value_size(self):
        with pytest.raises(ValueError):
            record_bytes(-1)

    @given(key=st.integers(-2**63, 2**63 - 1),
           value=st.binary(max_size=256))
    def test_property_round_trip(self, key, value):
        assert unpack_record(pack_record(key, value)) == (key, value)


class TestHashIndex:
    def test_lookup_missing_returns_null(self):
        index = HashIndex()
        assert index.lookup(99) == NULL_ADDRESS

    def test_update_and_lookup(self):
        index = HashIndex()
        index.update(5, 1000)
        assert index.lookup(5) == 1000
        index.update(5, 2000)  # supersede
        assert index.lookup(5) == 2000

    def test_negative_address_rejected(self):
        index = HashIndex()
        with pytest.raises(ValueError):
            index.update(1, -5)

    def test_compare_and_update(self):
        index = HashIndex()
        index.update(1, 100)
        assert index.compare_and_update(1, 100, 200)
        assert not index.compare_and_update(1, 100, 300)  # stale expected
        assert index.lookup(1) == 200

    def test_cas_insert_on_missing(self):
        index = HashIndex()
        assert index.compare_and_update(7, NULL_ADDRESS, 50)
        assert index.lookup(7) == 50

    def test_memory_accounting(self):
        index = HashIndex()
        for key in range(100):
            index.update(key, key)
        assert index.memory_bytes == 100 * HashIndex.BYTES_PER_ENTRY
        assert len(index) == 100
