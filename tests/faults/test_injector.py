"""Tests for the fault injector against a live simulated cluster."""

import hashlib
import json

import pytest

from repro.core import Slo
from repro.core.client import RetryPolicy
from repro.faults import (
    FaultInjector,
    FaultLog,
    FaultSchedule,
    LatencySpike,
    LinkDown,
    SlowNode,
    VmEviction,
    VmKill,
)
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20
SLO = Slo(max_latency=1e-3, min_throughput=1e4, record_size=64)


def make_cache(harness, capacity=2 * REGION, **kwargs):
    client = harness.redy_client("faults-app")
    return client.create(capacity, SLO, duration_s=3600.0,
                         region_bytes=REGION, **kwargs)


def make_injector(harness, **kwargs):
    return FaultInjector(harness.env, allocator=harness.allocator,
                         fabric=harness.fabric, **kwargs)


class TestVmFaults:
    def test_eviction_delivers_a_reclaim_notice(self):
        harness = build_cluster(seed=1)
        cache = make_cache(harness)
        injector = make_injector(harness)
        injector.arm(FaultSchedule([VmEviction(at=2.0, notice_s=30.0)]),
                     cache=cache)
        harness.env.run(until=3.0)
        vm = cache.allocation.vms[0]
        # The notice landed and the client is migrating (or has moved).
        assert injector.log.kinds() == {"vm-eviction": 1}
        event = list(injector.log)[0]
        assert event.time == 2.0
        assert event.detail["deadline"] == 32.0
        # After the notice window the doomed VM is gone but data moved.
        harness.env.run(until=40.0)
        assert cache.migrations
        assert all(vm.alive for vm in cache.allocation.vms)

    def test_kill_terminates_without_warning(self):
        harness = build_cluster(seed=2)
        cache = make_cache(harness, file=b"\x5a" * (2 * REGION),
                           auto_recover=True)
        injector = make_injector(harness)
        injector.arm(FaultSchedule([VmKill(at=1.0)]), cache=cache)
        victim = cache.allocation.vms[0]
        harness.env.run(until=1.5)
        assert not victim.alive
        assert injector.log.kinds() == {"vm-kill": 1}

        def scenario(env):
            return (yield cache.read(0, 16))

        result = harness.env.run_process(scenario(harness.env))
        assert result.ok and result.data == b"\x5a" * 16

    def test_no_target_is_logged_not_raised(self):
        harness = build_cluster(seed=3)
        # No cache, no spot VMs anywhere: nothing to evict.
        injector = make_injector(harness)
        injector.arm(FaultSchedule([VmEviction(at=1.0)]))
        harness.env.run(until=2.0)
        assert injector.log.kinds() == {"no-target": 1}

    def test_vm_index_selects_deterministically(self):
        harness = build_cluster(seed=4)
        cache = make_cache(harness, capacity=2 * REGION)
        injector = make_injector(harness)
        # Both specs at the same instant pick by index mod candidates.
        vms = list(cache.allocation.vms)
        injector.arm(FaultSchedule([VmKill(at=1.0, vm_index=0)]),
                     cache=cache)
        harness.env.run(until=2.0)
        assert not vms[0].alive


class TestNetworkFaults:
    def test_link_down_flushes_and_reconnects(self):
        harness = build_cluster(seed=5)
        cache = make_cache(harness)
        target = cache.allocation.servers[0].endpoint
        injector = make_injector(harness)
        injector.arm(FaultSchedule([
            LinkDown(at=1.0, endpoint=target.name, duration_s=0.5)]))

        def probe(env):
            yield env.timeout(1.1)  # mid-fault
            result = yield cache.read(0, 16)
            assert not result.ok  # error completion, not an exception
            yield env.timeout(0.5)  # past the restore
            result = yield cache.read(0, 16)
            assert result.ok
            return True

        assert harness.env.run_process(probe(harness.env))
        assert injector.log.kinds() == {"link-down": 1, "link-restored": 1}
        assert all(not qp.in_error for qp in target.qps)

    def test_link_restore_skips_dead_endpoints(self):
        harness = build_cluster(seed=6)
        cache = make_cache(harness)
        target = cache.allocation.servers[0].endpoint
        injector = make_injector(harness)
        injector.arm(FaultSchedule([
            LinkDown(at=1.0, endpoint=target.name, duration_s=1.0)]),
            cache=cache)
        # The VM dies while its link is down: reconnect must not raise,
        # and the QPs to the dead endpoint stay in error.
        injector.arm(FaultSchedule([VmKill(at=1.5)]), cache=cache)
        harness.env.run(until=3.0)
        restored = [event for event in injector.log
                    if event.kind == "link-restored"]
        assert restored and restored[0].detail["qps"] == 0

    def test_latency_spike_raises_and_restores(self):
        harness = build_cluster(seed=7)
        cache = make_cache(harness)
        injector = make_injector(harness)
        injector.arm(FaultSchedule([
            LatencySpike(at=1.0, duration_s=1.0, extra_s=200e-6)]))

        def probe(env):
            result = yield cache.read(0, 16)
            baseline = result.latency
            yield env.timeout(1.1)
            result = yield cache.read(0, 16)
            spiked = result.latency
            yield env.timeout(1.0)
            result = yield cache.read(0, 16)
            return baseline, spiked, result.latency

        baseline, spiked, after = harness.env.run_process(
            probe(harness.env))
        # Request + response both cross the fabric: >= 2x the extra.
        assert spiked >= baseline + 400e-6
        assert after == pytest.approx(baseline, rel=0.5)
        assert harness.fabric.extra_latency_s == 0.0

    def test_slow_node_stretches_serialization_then_restores(self):
        harness = build_cluster(seed=8)
        cache = make_cache(harness)
        target = cache.allocation.servers[0].endpoint
        injector = make_injector(harness)
        injector.arm(FaultSchedule([
            SlowNode(at=1.0, endpoint=target.name, duration_s=1.0,
                     factor=64.0)]))
        harness.env.run(until=1.5)
        assert target.throttle == 64.0
        harness.env.run(until=2.5)
        assert target.throttle == 1.0
        assert injector.log.kinds() == {"slow-node": 1,
                                        "slow-node-cleared": 1}


class TestRetryPolicy:
    def test_retries_ride_out_a_link_fault(self):
        harness = build_cluster(seed=9)
        cache = make_cache(
            harness,
            retry_policy=RetryPolicy(max_attempts=8, base_backoff_s=1e-3,
                                     max_backoff_s=20e-3))
        target = cache.allocation.servers[0].endpoint
        injector = make_injector(harness)
        injector.arm(FaultSchedule([
            LinkDown(at=1.0, endpoint=target.name, duration_s=3e-3)]))

        def probe(env):
            yield env.timeout(1.0)  # issue exactly as the fault lands
            return (yield cache.read(0, 16))

        result = harness.env.run_process(probe(harness.env))
        assert result.ok
        assert result.retries >= 1

    def test_fail_fast_default_surfaces_first_error(self):
        harness = build_cluster(seed=10)
        cache = make_cache(harness)
        target = cache.allocation.servers[0].endpoint
        injector = make_injector(harness)
        injector.arm(FaultSchedule([
            LinkDown(at=1.0, endpoint=target.name, duration_s=10e-3)]))

        def probe(env):
            yield env.timeout(1.001)
            return (yield cache.read(0, 16))

        result = harness.env.run_process(probe(harness.env))
        assert not result.ok
        assert result.retries == 0

    def test_attempt_timeout_bounds_a_hung_attempt(self):
        harness = build_cluster(seed=11)
        cache = make_cache(
            harness,
            retry_policy=RetryPolicy(max_attempts=2,
                                     attempt_timeout_s=10e-3))
        # Pause the region: the first attempt hangs on the gate until
        # the deadline, the retry then hangs again and times out too.
        cache.table.pause_reads(0)

        def probe(env):
            return (yield cache.read(0, 16))

        result = harness.env.run_process(probe(harness.env))
        assert not result.ok
        assert "timed out" in result.error
        assert result.retries == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=2.0, max_backoff_s=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0.0)
        policy = RetryPolicy(max_attempts=4, base_backoff_s=1e-3,
                             max_backoff_s=3e-3)
        assert policy.backoff_s(1) == 1e-3
        assert policy.backoff_s(2) == 2e-3
        assert policy.backoff_s(3) == 3e-3  # capped


class TestFaultLog:
    def test_append_only_and_canonical(self):
        log = FaultLog()
        log.append(1.0, "vm-kill", "vm-1", server=3)
        log.append(2.0, "link-down", "ep", duration_s=0.5)
        assert len(log) == 2
        assert log.kinds() == {"vm-kill": 1, "link-down": 1}
        # Canonical form: sorted keys, no whitespace, one line per
        # event, newline-joined with no trailing newline.
        jsonl = (
            '{"detail":{"server":3},"kind":"vm-kill","target":"vm-1",'
            '"time":1.0}\n'
            '{"detail":{"duration_s":0.5},"kind":"link-down",'
            '"target":"ep","time":2.0}')
        assert log.digest() == hashlib.sha256(jsonl.encode()).hexdigest()

        other = FaultLog()
        other.append(1.0, "vm-kill", "vm-1", server=3)
        other.append(2.0, "link-down", "ep", duration_s=0.5)
        assert other.digest() == log.digest()
        other.append(3.0, "vm-kill", "vm-2")
        assert other.digest() != log.digest()

    def test_digest_bytes_match_json_dumps_on_edge_values(self):
        log = FaultLog()
        log.append(0.1 + 0.2, "float", "ep", tiny=5e-324, negzero=-0.0,
                   big=1e22, nan=float("nan"), inf=float("-inf"))
        log.append(-0.0, "ints", "ep", big=2 ** 70, neg=-(2 ** 64) - 1,
                   zero=0)
        log.append(5e-324, "consts", "ep", none=None, yes=True, no=False)
        log.append(1e22, "text", "Zürich-ノード", name="ščř ☃ \u0000",
                   quote='"\\', empty="")
        log.append(2.0, "nested", "ep",
                   zeta={"b": 1, "a": {"y": [3, 2], "x": None}},
                   alpha=[{"k": 1.5, "c": "d"}, [], (1, 2.5)],
                   mid=[None, True, 0.1 + 0.2])
        log.append(3.0, "empty", "")
        # The canonical stream as the log once built it: json.dumps of
        # each event's to_dict(), newline-joined, hashed as a stream.
        sha = hashlib.sha256()
        for index, event in enumerate(log):
            if index:
                sha.update(b"\n")
            sha.update(json.dumps(event.to_dict(), sort_keys=True,
                                  separators=(",", ":")).encode())
        assert log.digest() == sha.hexdigest()
