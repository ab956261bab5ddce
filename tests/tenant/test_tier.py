"""TenantTier: namespacing, admission shedding, degradation."""

import json

import pytest

from repro.core import Slo
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardRouter
from repro.sim import Environment
from repro.tenant import TenantSpec, TenantTier
from repro.tenant.backing import FailOpenStore
from repro.workloads.scenarios import build_cluster

REGION = 1 << 18
CAPACITY = 2 * REGION
SLOT = 1 << 12
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)
RECORD = 64
NAMESPACE = 32 * 1024


def make_tier(seed=5, *, n_members=3, replication=1, registry=None,
              **tier_kwargs):
    harness = build_cluster(seed=seed, n_servers=8, metrics=registry)
    client = harness.redy_client("tier-tests")
    members = {f"s{i:02d}": client.create(CAPACITY, SLO, duration_s=3600.0,
                                          region_bytes=REGION)
               for i in range(n_members)}
    router = ShardRouter(harness.env, members, slot_bytes=SLOT,
                         replication=replication)
    tier = TenantTier(harness.env, router, **tier_kwargs)
    return harness, members, router, tier


def spec(name, **overrides):
    base = dict(name=name, namespace_bytes=NAMESPACE, rate_per_s=100_000.0,
                burst=32.0, slo_class="standard")
    base.update(overrides)
    return TenantSpec(**base)


class TestRegistration:
    def test_namespaces_are_disjoint_and_slot_aligned(self):
        _, _, router, tier = make_tier()
        first = tier.register(spec("a", namespace_bytes=SLOT + 1))
        second = tier.register(spec("b"))
        assert first.base == 0
        assert second.base == 2 * SLOT  # a's span rounded up to slots
        assert second.base % router.slot_bytes == 0

    def test_duplicate_name_rejected(self):
        _, _, _, tier = make_tier()
        tier.register(spec("a"))
        with pytest.raises(ValueError):
            tier.register(spec("a"))

    def test_unknown_slo_class_rejected(self):
        _, _, _, tier = make_tier()
        with pytest.raises(ValueError):
            tier.register(spec("a", slo_class="platinum"))

    def test_capacity_exhaustion_rejected(self):
        _, _, _, tier = make_tier()
        tier.register(spec("a", namespace_bytes=CAPACITY))
        with pytest.raises(ValueError):
            tier.register(spec("b"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec("")
        with pytest.raises(ValueError):
            spec("a", namespace_bytes=0)
        with pytest.raises(ValueError):
            spec("a", max_queue=-1)


class TestNamespacing:
    def test_tenants_cannot_see_each_other(self):
        harness, _, _, tier = make_tier()
        tier.register(spec("a"))
        tier.register(spec("b"))

        def body():
            assert (yield tier.write("a", 0, b"A" * RECORD)).ok
            assert (yield tier.write("b", 0, b"B" * RECORD)).ok
            read_a = yield tier.read("a", 0, RECORD)
            read_b = yield tier.read("b", 0, RECORD)
            return read_a.data, read_b.data

        data_a, data_b = harness.env.run_process(body())
        assert data_a == b"A" * RECORD
        assert data_b == b"B" * RECORD

    def test_out_of_namespace_access_is_rejected(self):
        harness, _, _, tier = make_tier()
        tenant = tier.register(spec("a"))

        def body():
            result = yield tier.read("a", NAMESPACE - 8, RECORD)
            return result

        result = harness.env.run_process(body())
        assert not result.ok
        assert "outside namespace" in result.error
        # Rejected before admission: no token was spent.
        assert tenant.admission.admitted == 0

    def test_load_respects_the_namespace(self):
        _, _, _, tier = make_tier()
        tier.register(spec("a"))
        with pytest.raises(ValueError):
            tier.load("a", NAMESPACE - 8, b"x" * 16)


class TestAdmissionIntegration:
    @pytest.mark.parametrize("is_read", [True, False],
                             ids=["read", "write"])
    def test_shed_io_is_rejected_with_retry_after(self, is_read):
        # A shed read is rejected like a shed write: it is not served
        # from the mirror.
        harness, _, _, tier = make_tier()
        tier.register(spec("a", rate_per_s=1000.0, burst=2.0, max_queue=1))
        tier.load("a", 0, b"m" * 8 * RECORD)

        def body():
            events = [tier.read("a", i * RECORD, RECORD) if is_read
                      else tier.write("a", i * RECORD, b"w" * RECORD)
                      for i in range(8)]
            results = []
            for event in events:
                results.append((yield event))
            return results

        results = harness.env.run_process(body())
        shed = [r for r in results if not r.ok]
        assert shed, "queue of 1 over burst 2 must shed"
        for result in shed:
            assert result.error == "admission shed"
            assert result.retry_after > 0.0
        assert all(r.served_by == "cache" for r in results if r.ok)


class TestFailOpenStore:
    def test_accesses_take_turns_on_the_one_device_slot(self):
        env = Environment()
        backing = FailOpenStore(env, 4096)
        done = []

        def access(kind):
            if kind == "write":
                yield from backing.write(0, b"w" * 64)
            else:
                yield from backing.read(0, 64)
            done.append((kind, env.now))

        for kind in ("write", "read", "write"):
            env.process(access(kind))
        env.run()
        latency = FailOpenStore.access_latency_s
        assert [kind for kind, _ in done] == ["write", "read", "write"]
        assert [at for _, at in done] == pytest.approx(
            [latency, 2 * latency, 3 * latency])
        assert backing.queue_length == 0


class TestDegradation:
    def _kill_run(self, seed):
        registry = MetricsRegistry()
        harness, members, router, tier = make_tier(seed=seed,
                                                   registry=registry)
        tenant = tier.register(spec("a", rate_per_s=500_000.0, burst=64.0,
                                    slo_class="premium",
                                    probe_interval_s=2e-3))
        tier.load("a", 0, bytes(range(256)) * (NAMESPACE // 256))
        env = harness.env
        acked = {}
        state = {"killed": False}

        def worker(index, rng):
            records = NAMESPACE // RECORD
            for op in range(80):
                rec = int(rng.integers(0, records))
                addr = ((rec - rec % 4 + index) % records) * RECORD
                payload = bytes([(index * 31 + op) % 251]) * RECORD
                result = yield tier.write("a", addr, payload)
                if result.ok:
                    acked[addr] = payload
                yield tier.read("a", addr, RECORD)
                if op == 30 and index == 0 and not state["killed"]:
                    state["killed"] = True
                    for vm in list(members["s01"].allocation.vms):
                        if vm.alive:
                            harness.allocator.fail(vm)

        for index in range(4):
            env.process(worker(index, harness.rngs.stream(f"w{index}")),
                        name=f"w{index}")
        env.run()

        def settle():
            yield from router.settled()
            while tenant.degraded:
                yield env.timeout(1e-3)
            lost = []
            for addr, payload in sorted(acked.items()):
                result = yield tier.read("a", addr, RECORD)
                if not (result.ok and result.data == payload):
                    lost.append(addr)
            return lost

        lost = env.run_process(settle())
        return acked, lost, tier.stats("a"), registry.snapshot()

    def test_region_kill_fails_open_and_recovers_losslessly(self):
        acked, lost, stats, snapshot = self._kill_run(seed=5)
        assert len(acked) > 50
        assert lost == []
        assert stats["degradations"] == 1
        assert stats["repromotions"] == 1
        assert stats["degraded"] is False
        assert stats["flushed_bytes"] >= NAMESPACE
        labeled = snapshot['tenant.degraded_mode{tenant="a"}']
        assert labeled["value"] == 0.0
        assert labeled["max"] == 1.0  # it *was* degraded mid-run

    def test_kill_run_replays_bit_identically(self):
        first = self._kill_run(seed=6)
        second = self._kill_run(seed=6)
        assert first[0] == second[0]  # same acked writes
        assert first[2] == second[2]  # same tenant stats
        assert (json.dumps(first[3], sort_keys=True)
                == json.dumps(second[3], sort_keys=True))

    def test_degraded_overload_sheds_instead_of_queueing(self):
        harness, members, router, tier = make_tier()
        tenant = tier.register(spec("a", rate_per_s=1e6, burst=1e4,
                                    probe_interval_s=1.0))
        tier.load("a", 0, b"\x01" * NAMESPACE)
        env = harness.env

        def body():
            # Hard-kill the fleet member owning the namespace head so
            # the tier degrades, then flood writes: the backing device
            # (120 us/op) cannot absorb them and must shed.
            for name in ("s00", "s01"):
                for vm in list(members[name].allocation.vms):
                    if vm.alive:
                        harness.allocator.fail(vm)
            yield env.timeout(1e-3)
            events = [tier.write("a", (i % 64) * RECORD, b"x" * RECORD)
                      for i in range(400)]
            results = []
            for event in events:
                results.append((yield event))
            return results

        results = env.run_process(body())
        overloaded = [r for r in results if r.error == "degraded overload"]
        assert tenant.degradations >= 1
        assert overloaded, "backing overload must shed"
        assert all(r.retry_after > 0 for r in overloaded)
        assert tenant.degraded_sheds == len(overloaded)
