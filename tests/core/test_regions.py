"""Unit tests for the region table."""

import pytest
from hypothesis import given, strategies as st

from repro.core.regions import AddressError, RegionTable
from repro.net.memory import AccessToken
from repro.sim import Environment


def make_table(n_regions=4, region_bytes=1024):
    env = Environment()
    table = RegionTable(env, region_bytes)
    for i in range(n_regions):
        token = AccessToken(region_id=1000 + i, key=i, size=region_bytes)
        table.append_region(token, server_name=f"vm-{i % 2}")
    return env, table


class TestStructure:
    def test_capacity(self):
        _, table = make_table(4, 1024)
        assert table.capacity == 4096
        assert len(table) == 4

    def test_undersized_physical_region_rejected(self):
        env = Environment()
        table = RegionTable(env, 2048)
        with pytest.raises(ValueError):
            table.append_region(
                AccessToken(region_id=1, key=1, size=1024), "vm-0")

    def test_regions_on_filters_by_server(self):
        _, table = make_table(4)
        assert [m.index for m in table.regions_on("vm-0")] == [0, 2]
        assert [m.index for m in table.regions_on("vm-1")] == [1, 3]

    def test_remap_flips_mapping(self):
        _, table = make_table(2)
        new_token = AccessToken(region_id=77, key=9, size=1024)
        table.remap(0, new_token, "vm-new")
        assert table.region(0).token == new_token
        assert table.region(0).server_name == "vm-new"

    def test_truncate_drops_tail(self):
        _, table = make_table(4, 1024)
        dropped = table.truncate(1500)  # keeps ceil(1500/1024) = 2 regions
        assert len(table) == 2
        assert [m.index for m in dropped] == [2, 3]


class TestTranslation:
    def test_single_region_access(self):
        _, table = make_table()
        fragments = table.translate(100, 50)
        assert len(fragments) == 1
        assert fragments[0].region_index == 0
        assert fragments[0].offset == 100
        assert fragments[0].length == 50
        assert fragments[0].buffer_offset == 0

    def test_spanning_access(self):
        _, table = make_table(4, 1024)
        fragments = table.translate(1000, 100)  # spans regions 0 and 1
        assert len(fragments) == 2
        assert (fragments[0].offset, fragments[0].length) == (1000, 24)
        assert (fragments[1].offset, fragments[1].length) == (0, 76)
        assert fragments[1].buffer_offset == 24

    def test_whole_cache_access(self):
        _, table = make_table(3, 1024)
        fragments = table.translate(0, 3072)
        assert [f.region_index for f in fragments] == [0, 1, 2]

    def test_out_of_bounds_rejected(self):
        _, table = make_table(2, 1024)
        with pytest.raises(AddressError):
            table.translate(2000, 100)
        with pytest.raises(AddressError):
            table.translate(-1, 10)

    @given(addr=st.integers(-4, 4095), size=st.integers(-4, 4096))
    def test_property_fragments_tile_the_request(self, addr, size):
        """Fragments are contiguous, in order, and cover exactly
        [addr, addr+size); ``locate`` names the one region of a
        non-empty access that has a single fragment, and only that."""
        _, table = make_table(4, 1024)
        if addr < 0 or size < 0 or addr + size > table.capacity:
            with pytest.raises(AddressError) as translated:
                table.translate(addr, size)
            with pytest.raises(AddressError) as located:
                table.locate(addr, size)
            assert str(located.value) == str(translated.value)
            return
        fragments = table.translate(addr, size)
        assert sum(f.length for f in fragments) == size
        cursor = addr
        buffer_cursor = 0
        for f in fragments:
            assert f.region_index == cursor // 1024
            assert f.offset == cursor % 1024
            assert f.buffer_offset == buffer_cursor
            assert 0 < f.length <= 1024 - f.offset
            cursor += f.length
            buffer_cursor += f.length
        located = table.locate(addr, size)
        if len(fragments) == 1:
            (only,) = fragments
            assert only.length == size
            assert located == (only.region_index, only.offset)
        else:
            assert located is None


class TestGates:
    def test_pause_and_resume_writes(self):
        env, table = make_table()
        table.pause_writes(1)
        assert table.region(1).writes_paused
        assert not table.region(1).reads_paused
        gate = table.gate(1, False)
        assert gate is not None
        table.resume(1)
        assert not table.region(1).writes_paused
        env.run()
        assert gate.processed  # waiters woke up

    def test_pause_is_idempotent(self):
        env, table = make_table()
        table.pause_writes(0)
        gate = table.gate(0, False)
        table.pause_writes(0)
        assert table.gate(0, False) is gate

    def test_resume_without_pause_is_noop(self):
        _, table = make_table()
        table.resume(0)

    def test_waiter_blocks_until_resume(self):
        env, table = make_table()
        table.pause_writes(0)
        log = []

        def writer(env):
            gate = table.gate(0, False)
            if gate is not None:
                yield gate
            log.append(env.now)

        def resumer(env):
            yield env.timeout(5.0)
            table.resume(0)

        env.process(writer(env))
        env.process(resumer(env))
        env.run()
        assert log == [pytest.approx(5.0)]
