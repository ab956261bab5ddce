"""Dependent GETs through the engine and client: one-RTT verb programs
vs the classic two-hop chase, fallback semantics, and the measurement
toggle."""

import struct

import pytest

from repro.core import RdmaConfig, Slo
from repro.core.engine import CacheDataPath
from repro.core.measurement import measure_config
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment, US
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20


def make_stack(config, *, seed=0, metrics=None):
    rngs = RngRegistry(seed)
    env = Environment()
    if metrics is not None:
        metrics.install(env)
    fabric = Fabric(env, AZURE_HPC)
    client_ep = fabric.add_endpoint("client", Placement())
    server_ep = fabric.add_endpoint("server", Placement())
    server = CacheServer(env, AZURE_HPC, server_ep, rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, config, client_ep,
                         rngs.stream("client"))
    tokens = path.attach_server(server, n_regions=1, region_size=REGION,
                                backed=True)
    return env, server, path, tokens[0]


def run_op(env, path, op):
    def proc(env):
        yield env.timeout(path.submission_overhead())
        result = yield from path.io(op)
        return result, env.now

    return env.run_process(proc(env))


def seed_chain(env, path, token, *, pointer_offset=64, record_offset=4096,
               payload=b"r" * 32):
    write = EngineOp(is_read=False, size=len(payload), token=token,
                     offset=record_offset, data=payload)
    assert run_op(env, path, write)[0].ok
    swing = EngineOp(is_read=False, size=8, token=token,
                     offset=pointer_offset,
                     data=struct.pack("<Q", record_offset))
    assert run_op(env, path, swing)[0].ok


def dependent_op(env, token, size=32, *, pointer_offset=64, verify=True):
    return EngineOp(is_read=True, size=size, token=token, offset=0,
                    lookup_offset=pointer_offset, verify=verify)


class TestEngineDependentReads:
    def chase_once(self, config, metrics=None):
        env, server, path, token = make_stack(config, metrics=metrics)
        seed_chain(env, path, token)
        started = env.now
        result, now = run_op(env, path, dependent_op(env, token))
        return result, now - started

    def test_both_transports_return_the_record(self):
        two_hop = RdmaConfig(1, 0, 1, 4)
        result, two_hop_time = self.chase_once(two_hop)
        assert result.ok
        assert result.data == b"r" * 32

        result, program_time = self.chase_once(
            two_hop.with_ablation(use_verb_programs=True))
        assert result.ok
        assert result.data == b"r" * 32
        # One round trip instead of two.
        assert program_time < two_hop_time - 2 * US

    def test_transport_counters(self):
        metrics = MetricsRegistry()
        self.chase_once(RdmaConfig(1, 0, 1, 4,
                                   use_verb_programs=True), metrics)
        assert metrics.counter("engine.programs").value == 1
        assert metrics.counter("engine.two_hop_reads").value == 0
        metrics = MetricsRegistry()
        self.chase_once(RdmaConfig(1, 0, 1, 4), metrics)
        assert metrics.counter("engine.programs").value == 0
        assert metrics.counter("engine.two_hop_reads").value == 1

    def test_cas_abort_falls_back_within_the_same_attempt(self):
        """A pointer swung mid-program aborts the CAS guard; the engine
        re-runs the chase as two-hop in the same attempt and resolves to
        the *post-move* record -- no failed op, no lost read."""
        metrics = MetricsRegistry()
        config = RdmaConfig(1, 0, 1, 4, use_verb_programs=True)
        env, server, path, token = make_stack(config, metrics=metrics)
        region = server.endpoint.find_region(token.region_id)
        old, new = b"o" * 32, b"n" * 32
        region.local_write(4096, old + b"\0" * (256 * 1024 - 32))
        region.local_write(8192, new)
        region.local_write(64, struct.pack("<Q", 4096))

        def mover(env):
            # Inside the program's service window: a 256 KiB record
            # keeps the responder DMA busy for ~18us.
            yield env.timeout(10 * US)
            region.local_write(64, struct.pack("<Q", 8192))

        def proc(env):
            env.process(mover(env))
            op = dependent_op(env, token, size=256 * 1024)
            yield env.timeout(path.submission_overhead())
            return (yield from path.io(op))

        result = env.run_process(proc(env))
        assert result.ok
        assert result.data[:32] == new
        assert metrics.counter("engine.programs").value == 1
        assert metrics.counter("engine.program_cas_aborts").value == 1
        assert metrics.counter("engine.program_fallbacks").value == 1
        assert metrics.counter("engine.two_hop_reads").value == 1


class TestMeasurementToggle:
    def test_program_toggle_halves_dependent_latency(self):
        config = RdmaConfig(1, 0, 1, 1)
        kwargs = dict(read_fraction=1.0, seed=3, dependent_reads=True,
                      batches_per_connection=20, warmup_batches=5)
        two_hop = measure_config(config, 256, **kwargs)
        program = measure_config(
            config.with_ablation(use_verb_programs=True), 256, **kwargs)
        assert program.latency_mean < two_hop.latency_mean / 1.4

    def test_same_seed_is_bit_identical(self):
        config = RdmaConfig(2, 0, 1, 4, use_verb_programs=True)
        kwargs = dict(read_fraction=1.0, seed=9, dependent_reads=True,
                      batches_per_connection=20, warmup_batches=5)
        assert measure_config(config, 256, **kwargs) \
            == measure_config(config, 256, **kwargs)


class TestClientDependentReads:
    def make_cache(self, *, use_verb_programs):
        harness = build_cluster(seed=1)
        client = harness.redy_client("dep-tests")
        slo = Slo(max_latency=1e-3, min_throughput=1e5, record_size=256)
        cache = client.create(4 * REGION, slo, duration_s=3600.0,
                              region_bytes=REGION,
                              file=bytes(4 * REGION),
                              use_verb_programs=use_verb_programs)
        return harness.env, cache

    @pytest.mark.parametrize("use_verb_programs", [False, True])
    def test_round_trip_through_the_cache_api(self, use_verb_programs):
        env, cache = self.make_cache(use_verb_programs=use_verb_programs)
        payload = bytes(range(200))

        def proc(env):
            wrote = yield cache.write(REGION + 4096, payload)
            assert wrote.ok
            swung = yield cache.write(REGION + 64, struct.pack("<Q", 4096))
            assert swung.ok
            return (yield cache.dependent_read(REGION + 64, len(payload)))

        result = env.run_process(proc(env))
        assert result.ok
        assert result.data == payload

    def test_pointer_word_spanning_regions_rejected(self):
        env, cache = self.make_cache(use_verb_programs=True)

        def proc(env):
            return (yield cache.dependent_read(REGION - 4, 64))

        result = env.run_process(proc(env))
        assert not result.ok
        assert "spans regions" in result.error
