"""Integration tests for FasterKv over real devices."""

import numpy as np
import pytest

from repro.core import Slo
from repro.faster import FasterKv, SsdDevice
from repro.faster.address import pack_record, record_bytes
from repro.faster.devices import RedyDevice, TieredDevice
from repro.faster.hlog import PAGE_BYTES
from repro.sim import Environment, US
from repro.sim.resources import Resource
from repro.workloads.scenarios import build_cluster


def make_store(n_records=100, memory_records=20, value_bytes=8,
               device=True):
    env = Environment()
    record = record_bytes(value_bytes)
    dev = (SsdDevice(env, n_records * record * 8, np.random.default_rng(1))
           if device else None)
    store = FasterKv(env, dev, memory_records * record, value_bytes)
    store.load(n_records)
    cpu = Resource(env, slots=1)
    return env, store, cpu


def run_read(env, store, cpu, key):
    def proc(env):
        outcome = yield from store.read(key, cpu)
        return outcome

    return env.run_process(proc(env))


def run_upsert(env, store, cpu, key, value):
    def proc(env):
        ok = yield from store.upsert(key, value, cpu)
        return ok

    return env.run_process(proc(env))


class TestReads:
    def test_recent_key_served_from_memory(self):
        env, store, cpu = make_store()
        outcome = run_read(env, store, cpu, 99)  # loaded last -> in tail
        assert outcome.found
        assert outcome.served_by == "memory"
        assert outcome.value == (99).to_bytes(8, "little")

    def test_old_key_served_from_device(self):
        env, store, cpu = make_store()
        outcome = run_read(env, store, cpu, 0)  # spilled long ago
        assert outcome.found
        assert outcome.served_by == "ssd"
        assert outcome.value == (0).to_bytes(8, "little")

    def test_missing_key(self):
        env, store, cpu = make_store()
        outcome = run_read(env, store, cpu, 12345)
        assert not outcome.found

    def test_memory_read_is_sub_microsecond_cpu(self):
        env, store, cpu = make_store()

        def proc(env):
            start = env.now
            yield from store.read(99, cpu)
            return env.now - start

        assert env.run_process(proc(env)) < 1.5 * US

    def test_device_read_pays_device_latency(self):
        env, store, cpu = make_store()

        def proc(env):
            start = env.now
            yield from store.read(0, cpu)
            return env.now - start

        assert env.run_process(proc(env)) > 20 * US

    def test_copy_to_tail_promotes_hot_record(self):
        env, store, cpu = make_store()
        first = run_read(env, store, cpu, 0)
        assert first.served_by == "ssd"
        second = run_read(env, store, cpu, 0)
        assert second.served_by == "memory"
        assert second.value == first.value

    def test_evicted_without_device_is_lost(self):
        env, store, cpu = make_store(device=False)
        outcome = run_read(env, store, cpu, 0)
        assert not outcome.found
        assert "no device" in outcome.error


class TestWrites:
    def test_upsert_new_key_then_read(self):
        env, store, cpu = make_store()
        assert run_upsert(env, store, cpu, 500, b"newvalue")
        outcome = run_read(env, store, cpu, 500)
        assert outcome.found and outcome.value == b"newvalue"

    def test_upsert_existing_key_updates(self):
        env, store, cpu = make_store()
        run_upsert(env, store, cpu, 99, b"replaced")
        assert run_read(env, store, cpu, 99).value == b"replaced"

    def test_update_of_cold_key_appends_new_version(self):
        env, store, cpu = make_store()
        old_addr = store.index.lookup(0)
        run_upsert(env, store, cpu, 0, b"freshval")
        assert store.index.lookup(0) > old_addr
        assert run_read(env, store, cpu, 0).value == b"freshval"

    def test_wrong_value_size_rejected(self):
        env, store, cpu = make_store()
        with pytest.raises(ValueError):
            run_upsert(env, store, cpu, 1, b"too long for 8B store")


def reference_load(store, n_records):
    """What ``FasterKv.load`` must equal: one packed record, one append
    and one index update per key."""
    for key in range(n_records):
        value = (key.to_bytes(8, "little") * (store.value_bytes // 8)
                 + b"\x00" * (store.value_bytes % 8))
        store.index.update(key, store.hlog.append(pack_record(key, value)))


class TestLoad:
    """``load`` appends a page of records at a time; every byte and
    counter must come out as with the per-record reference loop."""

    #: Redy ring and region size: smaller than what spills, so it wraps.
    REDY_BYTES = 1 << 17

    def make(self, value_bytes, memory_bytes):
        harness = build_cluster(seed=0)
        env = harness.env
        cache = harness.redy_client("load").create(
            self.REDY_BYTES, Slo(max_latency=1e-3, min_throughput=2e7,
                                 record_size=24),
            region_bytes=self.REDY_BYTES)
        ssd = SsdDevice(env, 1 << 21, np.random.default_rng(1))
        device = TieredDevice(env, [RedyDevice(cache), ssd])
        return env, FasterKv(env, device, memory_bytes, value_bytes), cache

    @staticmethod
    def state(store, cache):
        log = store.hlog
        ssd = store.device.tiers[1]
        regions = [server.regions[region_id].local_read(
                       0, server.regions[region_id].size)
                   for server in cache.allocation.servers
                   for region_id in sorted(server.regions)]
        return {
            "index": list(store.index._entries.items()),
            "updates": store.index.updates,
            "log": (log.head_address, log.tail_address, log._open_page,
                    list(log._page_ends), log.bytes_spilled,
                    log.records_appended),
            "ring": bytes(log._buf),
            "ssd": ssd._fetch(0, ssd.watermark),
            "redy": regions,
        }

    @pytest.mark.parametrize("value_bytes", [8, 16, 100, 1024])
    @pytest.mark.parametrize("memory_bytes",
                             [PAGE_BYTES // 2, 3 * PAGE_BYTES],
                             ids=["under-a-page", "three-pages"])
    @pytest.mark.parametrize("upsert_first", [False, True],
                             ids=["empty-log", "tail-mid-page"])
    def test_load_equals_per_record_loop(self, value_bytes, memory_bytes,
                                         upsert_first):
        n_records = 5 * memory_bytes // record_bytes(value_bytes)
        states = []
        for load in (FasterKv.load, reference_load):
            env, store, cache = self.make(value_bytes, memory_bytes)
            if upsert_first:
                assert run_upsert(env, store, Resource(env, slots=1), 3,
                                  b"u" * value_bytes)
            load(store, n_records)
            states.append(self.state(store, cache))
        loaded, reference = states
        assert loaded["log"][0] > 0  # something spilled
        assert loaded == reference


class TestStatistics:
    def test_served_by_counters(self):
        env, store, cpu = make_store()
        run_read(env, store, cpu, 99)
        run_read(env, store, cpu, 0)
        run_read(env, store, cpu, 4242)
        assert store.reads_memory == 1
        assert store.reads_device == 1
        assert store.reads_missing == 1

    def test_log_size_matches_load(self):
        env, store, _ = make_store(n_records=100)
        assert store.log_size == 100 * store.record_size


class TestDurableWrites:
    def test_durable_upsert_waits_for_the_device(self):
        env, store, cpu = make_store()
        store.durable_writes = True

        def timed(env):
            start = env.now
            yield from store.upsert(5, b"durable!", cpu)
            return env.now - start

        elapsed = env.run_process(timed(env))
        # Includes an SSD write (~100us class), not just CPU.
        assert elapsed > 2e-5

    def test_durable_upsert_is_readable_from_the_device(self):
        env, store, cpu = make_store()
        store.durable_writes = True
        run_upsert(env, store, cpu, 7, b"on-disk!")
        addr = store.index.lookup(7)
        assert store.device.covers(addr)
        from repro.faster.address import unpack_record
        key, value = unpack_record(store.device._fetch(
            addr, store.record_size))
        assert (key, value) == (7, b"on-disk!")

    def test_non_durable_upsert_stays_in_memory_speed(self):
        env, store, cpu = make_store()

        def timed(env):
            start = env.now
            yield from store.upsert(5, b"volatile", cpu)
            return env.now - start

        assert env.run_process(timed(env)) < 5e-6
