"""Ablation: sharded scale-out tier (``repro.shard``).

A single Redy cache is bounded by its backing VMs; the shard tier
aggregates N member caches behind one consistent-hash router.  This
ablation measures the four claims the subsystem makes:

* **Throughput scales with shards.**  Closed-loop zipfian(0.99) YCSB
  reads, client pool proportional to the fleet: 16 shards must deliver
  >= 8x the 1-shard read throughput despite the zipfian hot spot.
* **Rebalance cost tracks moved bytes.**  Joining the (N+1)-th shard
  moves ~replication/(N+1) of the keyspace; the live-streamed bytes and
  the rebalance duration must shrink together as N grows.
* **Hot-key replication trims the tail.**  Under zipfian(0.99) the
  hottest slots saturate their owners; promoting them to R replicas
  must cut p99 latency and raise throughput at equal offered load.
* **A VM kill mid-run loses nothing.**  With replication=2, hard-killing
  every VM of one member mid-traffic triggers an emergency ring
  departure whose rebalance completes with zero lost acknowledged
  writes -- asserted write-by-write.

Everything is a pure function of the pinned seed: the determinism test
replays a full run and demands bit-identical rebalance plans and
metrics snapshots.
"""

from repro.core import Slo
from repro.obs.metrics import MetricsRegistry
from repro.shard import HotKeyPolicy, ShardRouter
from repro.workloads.runner import run_router_workload
from repro.workloads.scenarios import build_cluster
from repro.workloads.ycsb import YcsbWorkload

REGION = 1 << 20
CAPACITY = 2 * REGION
SLOT = 1 << 14
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)
RECORD = 64
SEED = 11
SHARD_COUNTS = (1, 2, 4, 8, 16)
#: The acceptance floor: 16 shards vs 1 shard on zipfian(0.99) reads.
MIN_SCALEOUT = 8.0
#: Aggressive hot-slot replication: the zipfian head is heavy enough
#: that R=4 copies of the top slots are what splits it across a
#: 16-shard fleet.
HOT = HotKeyPolicy(window=2048, top_k=16, min_count=32, replicas=4,
                   check_every=128)


def _zipfian(ops: int, rng, read_proportion: float = 1.0):
    workload = YcsbWorkload(
        "scaleout-zipfian", n_records=CAPACITY // RECORD,
        value_bytes=RECORD, read_proportion=read_proportion,
        update_proportion=1.0 - read_proportion,
        distribution="zipfian", theta=0.99)
    return workload.sample_ops(ops, rng)


def _fleet(n_shards: int, seed: int = SEED, *, hotkeys=HOT,
           replication: int = 2, registry=None):
    harness = build_cluster(seed=seed, n_servers=max(8, 2 * n_shards),
                            metrics=registry)
    client = harness.redy_client("scaleout-bench")
    members = {f"s{i:02d}": client.create(CAPACITY, SLO,
                                          region_bytes=REGION)
               for i in range(n_shards)}
    router = ShardRouter(harness.env, members, slot_bytes=SLOT,
                         replication=min(replication, n_shards),
                         hotkeys=hotkeys)
    return harness, members, router


def _drive(harness, router, n_shards: int, *, read_proportion=1.0):
    concurrency = 16 * n_shards
    ops = max(2500, 30 * concurrency)
    keys, is_read = _zipfian(ops, harness.rngs.stream("ycsb"),
                             read_proportion)
    return run_router_workload(harness.env, router, keys=keys,
                               is_read=is_read, record_bytes=RECORD,
                               concurrency=concurrency)


def _scale_run(n_shards: int, registry=None):
    harness, _members, router = _fleet(n_shards, registry=registry)
    result = _drive(harness, router, n_shards)
    return result, router


def test_throughput_scales_with_shards(report, bench_metrics):
    rows = []
    results = {}
    for n_shards in SHARD_COUNTS:
        registry = MetricsRegistry()
        result, router = _scale_run(n_shards, registry=registry)
        assert result.failed == 0
        results[n_shards] = result
        bench_metrics.merge_snapshot(registry.snapshot())
        speedup = result.throughput / results[1].throughput
        rows.append(f"{n_shards:>3} shards  "
                    f"{result.throughput / 1e6:>6.2f} Mops/s  "
                    f"x{speedup:>5.2f}  "
                    f"p99 {result.latency_p99 * 1e6:>6.1f} us  "
                    f"hot slots {len(router.hot_slots()):>2}")
    report("abl_shard_scaleout",
           "Scale-out: zipfian(0.99) YCSB read throughput vs shards",
           rows)
    throughputs = [results[n].throughput for n in SHARD_COUNTS]
    assert all(b > a for a, b in zip(throughputs, throughputs[1:])), \
        "throughput must increase with every fleet doubling"
    scaleout = results[16].throughput / results[1].throughput
    assert scaleout >= MIN_SCALEOUT, (
        f"16-shard fleet reached only {scaleout:.2f}x the 1-shard "
        f"throughput (acceptance floor {MIN_SCALEOUT}x)")


def test_rebalance_time_tracks_moved_bytes(report):
    rows = []
    measured = []
    for n_shards in (2, 4, 8):
        harness, _members, router = _fleet(n_shards, hotkeys=None)
        router.load(0, bytes(range(256)) * (CAPACITY // 256))
        client = harness.redy_client("joiner")
        cache = client.create(CAPACITY, SLO, region_bytes=REGION)

        def join():
            rebalance = yield router.join("s99", cache)
            return rebalance

        rebalance = harness.env.run_process(join())
        assert rebalance.lost_slots == 0
        measured.append((n_shards, rebalance))
        rows.append(f"join {n_shards:>2}+1  "
                    f"moved {rebalance.moved_fraction:>5.1%} of keyspace  "
                    f"{rebalance.bytes_moved / 1e6:>5.2f} MB  "
                    f"in {rebalance.duration * 1e3:>6.2f} ms")
    report("abl_shard_rebalance",
           "Rebalance: join cost vs fleet size (replication=2)",
           rows)
    # Consistent hashing: the join moves ~replication/(N+1) of the
    # keyspace, so bytes and duration shrink as the fleet grows.
    for (_n1, first), (_n2, second) in zip(measured, measured[1:]):
        assert second.bytes_moved < first.bytes_moved
        assert second.duration < first.duration
    for n_shards, rebalance in measured:
        expected = 2 / (n_shards + 1)
        assert 0.3 * expected < rebalance.moved_fraction < 2.0 * expected
    # Duration is dominated by the ingest-paced stream: time per byte
    # stays in one band across fleet sizes.
    rates = [r.bytes_moved / r.duration for _n, r in measured]
    assert max(rates) < 3.0 * min(rates)


def test_hot_key_replication_cuts_tail_latency(report):
    harness_hot, _m1, router_hot = _fleet(8, hotkeys=HOT)
    hot = _drive(harness_hot, router_hot, 8)
    harness_cold, _m2, router_cold = _fleet(8, hotkeys=None)
    cold = _drive(harness_cold, router_cold, 8)
    report("abl_shard_hotkeys",
           "Hot keys: zipfian(0.99) on 8 shards, with/without promotion",
           [f"hot-key replication ON   "
            f"{hot.throughput / 1e6:>5.2f} Mops/s  "
            f"p99 {hot.latency_p99 * 1e6:>6.1f} us  "
            f"promoted {len(router_hot.hot_slots())} slots",
            f"hot-key replication OFF  "
            f"{cold.throughput / 1e6:>5.2f} Mops/s  "
            f"p99 {cold.latency_p99 * 1e6:>6.1f} us"])
    assert hot.failed == 0 and cold.failed == 0
    assert len(router_hot.hot_slots()) > 0
    assert not router_cold.hot_slots()
    assert hot.latency_p99 < cold.latency_p99, \
        "promoting hot slots must cut the read tail"
    assert hot.throughput > cold.throughput


def test_vm_kill_mid_run_loses_no_acked_writes(report):
    harness, members, router = _fleet(4, hotkeys=None)
    env = harness.env
    router.load(0, bytes(range(256)) * (CAPACITY // 256))
    n_workers = 16
    ops_per_worker = 60
    acked = {}
    progress = {"done": 0, "killed_at": None}
    kill_after = n_workers * ops_per_worker // 2
    victim = "s01"

    def worker(index: int, rng):
        # Each worker owns a disjoint address set, so the last
        # acknowledged value per address is well defined.
        for op in range(ops_per_worker):
            record = int(rng.integers(0, CAPACITY // RECORD))
            addr = (record - record % n_workers + index) * RECORD
            addr %= CAPACITY - RECORD + 1
            addr -= addr % RECORD
            payload = bytes([(index * 31 + op) % 251]) * RECORD
            result = yield router.write(addr, payload)
            if result.ok:
                acked[addr] = payload
            progress["done"] += 1
            if (progress["killed_at"] is None
                    and progress["done"] >= kill_after):
                progress["killed_at"] = env.now
                for vm in list(members[victim].allocation.vms):
                    if vm.alive:
                        harness.allocator.fail(vm)

    for index in range(n_workers):
        env.process(worker(index, harness.rngs.stream(f"kill-w{index}")),
                    name=f"kill-worker:{index}")
    env.run()

    def settle_and_verify():
        yield from router.settled()
        lost = []
        for addr, payload in sorted(acked.items()):
            result = yield router.read(addr, RECORD)
            if not (result.ok and result.data == payload):
                lost.append(addr)
        return lost

    lost = env.run_process(settle_and_verify())
    rebalance = router.reports[-1]
    report("abl_shard_kill",
           "VM kill mid-run: emergency rebalance durability "
           "(4 shards, replication=2)",
           [f"acked writes checked      {len(acked):>6}",
            f"acked writes lost         {len(lost):>6}",
            f"rebalance moves           {rebalance.n_moves:>6}",
            f"rebalance bytes           {rebalance.bytes_moved:>6}",
            f"rebalance lost slots      {rebalance.lost_slots:>6}",
            f"rebalance duration        {rebalance.duration * 1e3:>6.2f} ms",
            f"members after             {len(router.members):>6}"])
    assert progress["killed_at"] is not None, "kill must fire mid-run"
    assert victim not in router.members, "kill must trigger departure"
    assert rebalance.lost_slots == 0
    assert lost == [], (
        f"{len(lost)} acknowledged writes lost across the VM kill")


def test_same_seed_runs_are_bit_identical():
    def one():
        registry = MetricsRegistry()
        harness, _members, router = _fleet(4, registry=registry)
        _drive(harness, router, 4)
        client = harness.redy_client("joiner")
        cache = client.create(CAPACITY, SLO, region_bytes=REGION)

        def join():
            rebalance = yield router.join("s99", cache)
            return rebalance

        rebalance = harness.env.run_process(join())
        return (rebalance.plan_digest, rebalance.to_dict(),
                registry.snapshot())

    first, second = one(), one()
    assert first[0] == second[0], "ring plans must be bit-identical"
    assert first[1] == second[1]
    assert first[2] == second[2], "metrics snapshots must be bit-identical"
