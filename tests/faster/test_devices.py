"""Tests for the IDevice implementations."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import Slo
from repro.faster.devices import (
    LocalMemoryDevice,
    RedyDevice,
    SmbDirectDevice,
    SsdDevice,
    TieredDevice,
)
from repro.sim import Environment, US
from repro.workloads.scenarios import build_cluster


def run(env, event):
    def proc(env):
        return (yield event)

    return env.run_process(proc(env))


def _resident_bytes():
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("needs /proc/self/statm")
    return int(statm.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestLocalMemoryDevice:
    def test_costs_host_memory_only_where_written(self):
        size = 256 << 20
        env = Environment()
        before = _resident_bytes()
        device = LocalMemoryDevice(env, size)
        assert run(env, device.write(4096, b"w" * 4096)).ok
        far = run(env, device.read(size - 4096, 4096))
        grown = _resident_bytes() - before
        assert far.ok and far.data == bytes(4096)
        assert run(env, device.read(4096, 4096)).data == b"w" * 4096
        assert grown < 16 << 20


class TestSsdDevice:
    def test_write_read_round_trip(self):
        env = Environment()
        ssd = SsdDevice(env, 4096, np.random.default_rng(1))
        assert run(env, ssd.write(100, b"persist")).ok
        result = run(env, ssd.read(100, 7))
        assert result.ok and result.data == b"persist"

    def test_latency_is_100us_class(self):
        env = Environment()
        ssd = SsdDevice(env, 4096, np.random.default_rng(1))
        ssd.spill(0, b"x" * 64)

        def proc(env):
            start = env.now
            yield ssd.read(0, 64)
            return env.now - start

        elapsed = env.run_process(proc(env))
        assert 20 * US < elapsed < 10_000 * US

    def test_internal_parallelism_bounds_concurrency(self):
        env = Environment()
        ssd = SsdDevice(env, 4096, np.random.default_rng(2))
        ssd.spill(0, b"y" * 64)
        n = ssd.spec.internal_parallelism * 4

        def proc(env):
            start = env.now
            yield env.all_of([ssd.read(0, 64) for _ in range(n)])
            return env.now - start

        elapsed = env.run_process(proc(env))
        # Four waves of requests take clearly longer than one.
        assert elapsed > 2 * ssd.spec.read_latency_median

    def test_covers_tracks_watermark(self):
        env = Environment()
        ssd = SsdDevice(env, 4096, np.random.default_rng(1))
        assert not ssd.covers(0)
        ssd.spill(0, b"z" * 128)
        assert ssd.covers(127)
        assert not ssd.covers(128)


class TestSmbDirectDevice:
    def test_faster_than_ssd_but_heavier_client(self):
        env = Environment()
        rng = np.random.default_rng(3)
        smb = SmbDirectDevice(env, 4096, rng)
        ssd = SsdDevice(env, 4096, rng)
        smb.spill(0, b"a" * 64)

        def timed(device):
            def proc(env):
                start = env.now
                yield device.read(0, 64)
                return env.now - start

            return env.run_process(proc(env))

        ssd.spill(0, b"a" * 64)
        assert timed(smb) < timed(ssd)
        # The paper's SMB gap comes from per-op client CPU, not latency.
        assert smb.client_cpu_per_read > 2 * ssd.client_cpu_per_read

    def test_round_trip(self):
        env = Environment()
        smb = SmbDirectDevice(env, 1024, np.random.default_rng(4))
        assert run(env, smb.write(0, b"remote-file")).ok
        assert run(env, smb.read(0, 11)).data == b"remote-file"


class TestTieredDevice:
    def make_tiered(self, commit_point=0):
        env = Environment()
        fast = LocalMemoryDevice(env, 1024)
        slow = SsdDevice(env, 4096, np.random.default_rng(5))
        tiered = TieredDevice(env, [fast, slow])
        tiered.commit_point = commit_point
        return env, fast, slow, tiered

    def test_read_served_by_lowest_covering_tier(self):
        env, fast, slow, tiered = self.make_tiered()
        slow.spill(0, b"cold" * 16)  # only on the slow tier
        assert tiered.resolve(0) is slow
        tiered.spill(0, b"warm" * 16)  # now on both
        assert tiered.resolve(0) is fast
        assert run(env, tiered.read(0, 4)).data == b"warm"

    def test_read_of_unknown_address_fails(self):
        env, _, _, tiered = self.make_tiered()
        result = run(env, tiered.read(500, 8))
        assert not result.ok

    def test_spill_lands_on_every_tier(self):
        env, fast, slow, tiered = self.make_tiered()
        tiered.spill(0, b"both" * 8)
        assert fast.covers(0) and slow.covers(0)

    def test_commit_point_zero_acks_after_first_tier(self):
        """An append commits as soon as the fastest tier has it (§8.2)."""
        env, fast, slow, tiered = self.make_tiered(commit_point=0)

        def proc(env):
            start = env.now
            yield tiered.write(0, b"w" * 32)
            return env.now - start

        elapsed = env.run_process(proc(env))
        assert elapsed < 10 * US  # memory-tier ack, not SSD
        env.run()  # the SSD copy lands and frees its device slot

    def test_commit_point_one_waits_for_ssd(self):
        env, fast, slow, tiered = self.make_tiered(commit_point=1)

        def proc(env):
            start = env.now
            yield tiered.write(0, b"w" * 32)
            return env.now - start

        elapsed = env.run_process(proc(env))
        assert elapsed > 20 * US

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            TieredDevice(env, [])


class TestRedyTier:
    def make_tiered(self):
        harness = build_cluster(seed=0)
        env = harness.env
        cache = harness.redy_client("devices").create(
            1 << 20, Slo(max_latency=20e-6, min_throughput=2e6,
                         record_size=64),
            region_bytes=1 << 20)
        redy = RedyDevice(cache)
        ssd = SsdDevice(env, 1 << 20, np.random.default_rng(7))
        return env, cache, redy, ssd, TieredDevice(env, [redy, ssd])

    def test_read_is_served_by_the_ring(self):
        env, _cache, redy, _ssd, tiered = self.make_tiered()
        assert run(env, tiered.write(32, b"A" * 32)).ok
        result = run(env, tiered.read(32, 32))
        assert result.ok and result.data == b"A" * 32
        assert result.tier is redy
        env.run()  # the SSD copy lands and frees its device slot

    def test_failed_ring_write_falls_through_to_the_next_tier(self):
        env, cache, redy, ssd, tiered = self.make_tiered()
        qps = [connection.qp for thread in cache.path.threads
               for connection in thread.connections.values()]
        for qp in qps:
            qp.inject_error("link down")
        wrote = run(env, tiered.write(32, b"B" * 32))
        # The commit tier's failure is reported with its error.
        assert not wrote.ok and wrote.error == "link down"
        for qp in qps:
            qp.reconnect()
        env.run()  # the SSD copy lands
        assert ssd.covers(32) and not redy.covers(32)
        # The ring slot never got the bytes: the read must not be
        # served from it (it used to return 32 zero bytes, ok=True).
        result = run(env, tiered.read(32, 32))
        assert result.ok and result.data == b"B" * 32
        assert result.tier is ssd

    def test_read_across_the_ring_wrap_returns_both_halves(self):
        env, cache, redy, _ssd, _tiered = self.make_tiered()
        capacity = cache.capacity
        data = bytes(range(32))
        assert run(env, redy.write(capacity - 16, data)).ok
        result = run(env, redy.read(capacity - 16, 32))
        assert result.ok and result.data == data

    def _age_out_mid_read(self, env, cache, redy, read):
        """Start ``read`` of log address 32; 1 us in, a spill one ring
        length later takes its slot.  Returns the read's result."""
        capacity = cache.capacity
        times = {}

        def reader():
            times["started"] = env.now
            result = yield read()
            times["finished"] = env.now
            return result

        def spill(_event):
            times["spilled"] = env.now
            redy.spill(capacity + 32, b"D" * 32)

        env.timeout(1 * US)._add_callback(spill)
        result = env.run_process(reader())
        assert times["started"] < times["spilled"] < times["finished"]
        assert not redy.covers(32)
        return result

    def test_read_that_ages_out_mid_read_gets_the_window_error(self):
        env, cache, redy, _ssd, _tiered = self.make_tiered()
        assert run(env, redy.write(32, b"C" * 32)).ok
        result = self._age_out_mid_read(env, cache, redy,
                                        lambda: redy.read(32, 32))
        assert not result.ok
        assert result.error == ("address 32 fell out of the cache window "
                                "during the read")

    def test_tiered_read_that_ages_out_mid_read_is_served_by_the_ssd(self):
        env, cache, redy, ssd, tiered = self.make_tiered()
        assert run(env, tiered.write(32, b"C" * 32)).ok
        env.run()  # the SSD copy lands
        result = self._age_out_mid_read(env, cache, redy,
                                        lambda: tiered.read(32, 32))
        assert result.ok and result.data == b"C" * 32
        assert result.tier is ssd
        env.run()

    @pytest.mark.parametrize("offset", [32, -16], ids=["one-piece", "wrap"])
    def test_failed_cache_read_passes_its_error_up(self, offset):
        env, cache, redy, _ssd, _tiered = self.make_tiered()
        addr = offset % cache.capacity
        assert run(env, redy.write(addr, b"E" * 32)).ok
        qps = [connection.qp for thread in cache.path.threads
               for connection in thread.connections.values()]
        for qp in qps:
            qp.inject_error("link down")
        result = run(env, redy.read(addr, 32))
        assert not result.ok and result.error == "link down"
        for qp in qps:
            qp.reconnect()
        env.run()
