"""Unit tests for the hybrid log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faster.devices import LocalMemoryDevice
from repro.faster.hlog import MUTABLE_FRACTION, PAGE_BYTES, HybridLog
from repro.sim import Environment

#: A log of four pages, and a device that holds every spill of the
#: property tests below.
FOUR_PAGES = 4 * PAGE_BYTES
BIG_DEVICE = 1 << 24


def make_log(memory=1024, device_capacity=1 << 16):
    env = Environment()
    device = LocalMemoryDevice(env, device_capacity)
    log = HybridLog(env, memory, device)
    return env, device, log


class TestAppendRead:
    def test_append_returns_sequential_addresses(self):
        _, _, log = make_log()
        a = log.append(b"a" * 32)
        b = log.append(b"b" * 32)
        assert (a, b) == (0, 32)
        assert log.tail_address == 64

    def test_read_back_from_memory(self):
        _, _, log = make_log()
        addr = log.append(b"hello-log!")
        assert log.read(addr, 10) == b"hello-log!"

    def test_oversized_record_rejected(self):
        _, _, log = make_log(memory=64)
        with pytest.raises(ValueError):
            log.append(b"x" * 65)

    def test_wraparound_preserves_content(self):
        _, _, log = make_log(memory=100)
        payloads = [bytes([i]) * 30 for i in range(10)]
        addrs = [log.append(p) for p in payloads]
        # The last few records must still be intact despite ring wrap.
        for addr, payload in zip(addrs[-3:], payloads[-3:]):
            if log.in_memory(addr):
                assert log.read(addr, 30) == payload


class TestSpill:
    def test_eviction_spills_to_device(self):
        _, device, log = make_log(memory=128)
        for i in range(8):
            log.append(bytes([i]) * 32)
        assert log.head_address > 0
        assert log.bytes_spilled == log.head_address
        assert device.watermark == log.head_address

    def test_spilled_data_matches_what_was_appended(self):
        _, device, log = make_log(memory=128)
        payloads = [bytes([i]) * 32 for i in range(8)]
        addrs = [log.append(p) for p in payloads]
        for addr, payload in zip(addrs, payloads):
            if not log.in_memory(addr):
                assert device.covers(addr)
                assert device._fetch(addr, 32) == payload

    def test_read_of_spilled_address_returns_none(self):
        _, _, log = make_log(memory=128)
        first = log.append(b"z" * 64)
        for i in range(4):
            log.append(bytes([i]) * 64)
        assert not log.in_memory(first)
        assert log.read(first, 64) is None

    def test_record_straddling_a_page_boundary_reads_back_intact(self):
        # 24-byte records do not tile the default 64 KiB page: the record
        # at 65520 crosses the first page boundary.  After the first
        # spill, every record must read back whole, from memory or from
        # the device, whichever the log says holds it.
        env = Environment()
        device = LocalMemoryDevice(env, 1 << 20)
        log = HybridLog(env, 1 << 17, device)
        records = [i.to_bytes(8, "little") * 3 for i in range(6000)]
        addrs = [log.append(record) for record in records]
        assert 65520 in addrs
        assert log.head_address > 65520

        def device_read(addr):
            result = yield device.read(addr, 24)
            return result.data

        for addr, record in zip(addrs, records):
            if log.in_memory(addr):
                assert log.read(addr, 24) == record
            else:
                assert env.run_process(device_read(addr)) == record

    def test_no_device_drops_evicted_data(self):
        env = Environment()
        log = HybridLog(env, 128, None)
        for i in range(4):
            log.append(bytes([i]) * 64)
        assert log.bytes_spilled > 0  # no crash without a device


def log_state(log, device):
    return (log.head_address, log.tail_address, log._open_page,
            list(log._page_ends), log.bytes_spilled, log.records_appended,
            bytes(log._buf), device._fetch(0, device.watermark))


class TestRuns:
    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, PAGE_BYTES),
           lead=st.integers(0, PAGE_BYTES - 1),
           runs=st.lists(st.integers(0, 40), min_size=1, max_size=6))
    def test_property_run_append_equals_per_record_appends(self, size, lead,
                                                           runs):
        # A log of four pages: sizes that tile the page and sizes that
        # do not, runs that close pages and force spills, from a tail a
        # lead-in record left in mid-page.
        outcomes = []
        for as_run in (True, False):
            _, device, log = make_log(memory=FOUR_PAGES,
                                      device_capacity=BIG_DEVICE)
            if lead:
                log.append(b"\xff" * lead)
            firsts = []
            appended = 0
            for count in runs:
                records = [bytes([(appended + i) % 251]) * size
                           for i in range(count)]
                appended += count
                if as_run:
                    firsts.append(log.append_run(b"".join(records), size))
                else:
                    tail = log.tail_address
                    addrs = [log.append(record) for record in records]
                    firsts.append(addrs[0] if addrs else tail)
            outcomes.append((firsts, log_state(log, device)))
        assert outcomes[0] == outcomes[1]

    def test_run_must_be_whole_records(self):
        _, _, log = make_log()
        with pytest.raises(ValueError):
            log.append_run(b"x" * 33, 32)


class TestRegions:
    def test_mutable_region_boundary(self):
        _, _, log = make_log(memory=1000)
        for i in range(10):
            log.append(bytes([i]) * 100)
        assert log.read_only_address == (
            log.tail_address - int(1000 * MUTABLE_FRACTION))
        assert log.in_mutable_region(log.tail_address - 100)
        assert not log.in_mutable_region(log.read_only_address - 1)

    def test_update_in_place_only_in_mutable_region(self):
        _, _, log = make_log(memory=1000)
        addrs = [log.append(bytes([i]) * 100) for i in range(10)]
        assert log.update_in_place(addrs[-1], b"Y" * 100)
        assert log.read(addrs[-1], 100) == b"Y" * 100
        assert not log.update_in_place(addrs[0], b"N" * 100)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, PAGE_BYTES), min_size=1, max_size=200))
    def test_property_invariants_hold_under_any_append_sequence(self, sizes):
        _, device, log = make_log(memory=FOUR_PAGES,
                                  device_capacity=BIG_DEVICE)
        for i, size in enumerate(sizes):
            log.append(bytes([i % 256]) * size)
            assert log.begin_address <= log.head_address
            assert log.head_address <= log.read_only_address
            assert log.read_only_address <= log.tail_address
            assert log.tail_address - log.head_address <= log.memory_bytes
            assert device.watermark == log.head_address
