"""Unit tests for memory regions and access tokens."""

import os
from pathlib import Path

import pytest

from repro.net import MemoryRegion, RdmaAccessError


def test_backed_region_round_trips_data():
    region = MemoryRegion(1024)
    region.write(region.token, 100, b"hello")
    assert region.read(region.token, 100, 5) == b"hello"


def test_unbacked_region_tracks_sizes_only():
    region = MemoryRegion(1024, backing=False)
    region.write(region.token, 0, None, length=512)
    assert region.read(region.token, 0, 512) is None


def test_region_ids_are_unique():
    a, b = MemoryRegion(16), MemoryRegion(16)
    assert a.region_id != b.region_id
    assert a.token.key != b.token.key


def test_out_of_bounds_write_rejected():
    region = MemoryRegion(16)
    with pytest.raises(RdmaAccessError):
        region.write(region.token, 12, b"too long")


def test_negative_offset_rejected():
    region = MemoryRegion(16)
    with pytest.raises(RdmaAccessError):
        region.read(region.token, -1, 4)


def test_wrong_token_rejected():
    a, b = MemoryRegion(16), MemoryRegion(16)
    with pytest.raises(RdmaAccessError):
        a.read(b.token, 0, 4)


def test_revoked_token_rejected():
    region = MemoryRegion(16)
    region.revoke()
    with pytest.raises(RdmaAccessError, match="revoked"):
        region.read(region.token, 0, 4)


def test_zero_size_region_rejected():
    with pytest.raises(ValueError):
        MemoryRegion(0)


def test_local_access_bypasses_token_but_not_bounds():
    region = MemoryRegion(16)
    region.local_write(0, b"abcd")
    assert region.local_read(0, 4) == b"abcd"
    with pytest.raises(RdmaAccessError):
        region.local_write(14, b"abcd")


def _resident_bytes():
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("needs /proc/self/statm")
    return int(statm.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_backed_region_costs_host_memory_only_where_written():
    size = 256 << 20
    before = _resident_bytes()
    region = MemoryRegion(size)
    region.local_write(4096, b"w" * 4096)
    far = region.read(region.token, size - 4096, 4096)
    grown = _resident_bytes() - before
    assert far == bytes(4096)
    assert region.local_read(4096, 4096) == b"w" * 4096
    assert grown < 16 << 20
