"""Command-line entry point: ``python -m repro``.

Convenience launcher for a repository checkout:

* ``python -m repro list`` -- enumerate the reproduction experiments;
* ``python -m repro run fig03`` -- regenerate one table/figure;
* ``python -m repro run all`` -- regenerate everything;
* ``python -m repro metrics`` -- run an instrumented measurement and dump
  its ``repro.obs`` registry (``--json`` for the raw blob);
* ``python -m repro metrics fig07`` -- show a saved ``BENCH_fig07.json``;
* ``python -m repro sweep`` -- measure a configuration grid through the
  parallel sweep executor and its on-disk result cache (``repro.exec``);
* ``python -m repro kernelbench`` -- micro-benchmark the simulation
  kernel (``Environment.step()`` throughput on the measurement workload);
* ``python -m repro chaos spot-churn`` -- run one named fault-injection
  scenario and dump its fault log + availability summary
  (``repro.faults``); same seed, bit-identical fault trace;
* ``python -m repro shard`` -- drive zipfian YCSB traffic across the
  sharded scale-out tier (``repro.shard``) and dump the fleet stats;
  ``--smoke`` runs the quick CI invariants (kill-survival, determinism);
* ``python -m repro verbs`` -- A/B a dependent-GET workload over the
  classic two-hop transport vs one-RTT remote-side verb programs;
  ``--smoke`` is the CI gate (digest equivalence, latency win,
  program/fallback accounting, same-seed determinism);
* ``python -m repro lint`` -- run the determinism AST linter
  (``repro.analysis``) over source paths; exit 0 clean, 1 findings,
  2 internal error;
* ``python -m repro sanitize`` -- run a named workload twice from one
  seed and bisect the first diverging kernel event (``--smoke`` is the
  CI replay-determinism gate);
* ``python -m repro examples`` -- list the example applications.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_BENCHMARKS = _REPO_ROOT / "benchmarks"
_EXAMPLES = _REPO_ROOT / "examples"


def _experiment_ids() -> dict[str, pathlib.Path]:
    if not _BENCHMARKS.is_dir():
        return {}
    experiments = {}
    for path in sorted(_BENCHMARKS.glob("test_*.py")):
        identifier = path.stem.removeprefix("test_").split("_")[0]
        experiments.setdefault(identifier, path)
        experiments[path.stem.removeprefix("test_")] = path
    return experiments


def _first_doc_line(path: pathlib.Path) -> str:
    for line in path.read_text().splitlines():
        stripped = line.strip().strip('"')
        if stripped and not stripped.startswith("#"):
            return stripped
    return ""


def cmd_list() -> int:
    experiments = _experiment_ids()
    if not experiments:
        print("no benchmarks/ directory found -- run from a repository "
              "checkout")
        return 1
    seen = set()
    print(f"{'id':>26}  experiment")
    for identifier, path in sorted(experiments.items(),
                                   key=lambda kv: kv[1].stem):
        if path in seen or "_" in identifier:
            continue
        seen.add(path)
        print(f"{path.stem.removeprefix('test_'):>26}  "
              f"{_first_doc_line(path)}")
    return 0


def cmd_run(identifier: str) -> int:
    if identifier == "all":
        targets = [str(_BENCHMARKS)]
    else:
        experiments = _experiment_ids()
        path = experiments.get(identifier)
        if path is None:
            print(f"unknown experiment {identifier!r}; "
                  f"try `python -m repro list`")
            return 1
        targets = [str(path)]
    return subprocess.call(
        [sys.executable, "-m", "pytest", *targets,
         "--benchmark-only", "-q", "-s"])


def cmd_metrics(identifier: str | None, as_json: bool,
                queue_depth: int, threads: int, batches: int) -> int:
    """Dump a run's ``repro.obs`` metrics registry.

    With an experiment id, pretty-print the ``BENCH_<id>.json`` blob a
    previous benchmark run persisted.  Without one, stand up the
    measurement testbed (§5.1), run it instrumented, and dump the live
    registry -- the quickest way to see what the data path measures.
    """
    from repro.obs.export import format_table, snapshot

    if identifier is not None:
        # Short ids (fig07) resolve through the experiment table to the
        # full blob name the bench_metrics fixture writes.
        path = _experiment_ids().get(identifier)
        if path is not None:
            identifier = path.stem.removeprefix("test_")
        blob_path = _BENCHMARKS / "_results" / f"BENCH_{identifier}.json"
        if not blob_path.is_file():
            print(f"no metrics blob at {blob_path}; run the benchmark "
                  f"first: python -m repro run {identifier}")
            return 1
        blob = json.loads(blob_path.read_text())
        print(json.dumps(blob, indent=2, sort_keys=True) if as_json
              else format_table(blob))
        return 0

    from repro.core.config import RdmaConfig
    from repro.core.measurement import measure_config
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    config = RdmaConfig(threads, 0, 1, queue_depth)
    result = measure_config(config, 8, seed=7, metrics=registry,
                            batches_per_connection=batches)
    blob = snapshot(registry, name="metrics-demo",
                    extra={"config": repr(config),
                           "throughput_ops": result.throughput,
                           "latency_p50": result.latency_p50,
                           "latency_p99": result.latency_p99})
    print(json.dumps(blob, indent=2, sort_keys=True) if as_json
          else format_table(blob))
    return 0


def cmd_sweep(record_size: int, max_client_threads: int,
              max_queue_depth: int, workers: int | None, batches: int,
              warmup: int, seed: int, cache_dir: str | None,
              as_json: bool) -> int:
    """Measure a configuration grid through the sweep executor.

    Walks the powers-of-two grid of the requested configuration space,
    fans the measurements across the worker pool, and prints one row per
    grid point plus the executor's own counters.  Re-running the same
    sweep is near-instant: results come back from the content-addressed
    cache (``--cache-dir ''`` disables it).
    """
    from repro.core.space import ConfigSpace
    from repro.exec import ResultCache, SweepRunner, tasks_for
    from repro.obs.metrics import MetricsRegistry

    space = ConfigSpace(max_client_threads=max_client_threads,
                        record_size=record_size,
                        max_queue_depth=max_queue_depth,
                        min_queue_depth=min(4, max_queue_depth))
    configs = list(space.iter_grid())
    cache = None
    if cache_dir != "":
        root = (pathlib.Path(cache_dir) if cache_dir
                else _BENCHMARKS / "_results" / ".cache")
        cache = ResultCache(root)
    registry = MetricsRegistry()
    runner = SweepRunner(max_workers=workers, cache=cache, metrics=registry)
    tasks = tasks_for(configs, record_size=record_size, base_seed=seed,
                      seed_stride=0, batches_per_connection=batches,
                      warmup_batches=warmup)
    results = runner.run(tasks)

    rows = [{
        "config": {"s": c.server_threads, "c": c.client_threads,
                   "b": c.batch_size, "q": c.queue_depth},
        "latency_mean": r.latency_mean,
        "latency_p99": r.latency_p99,
        "throughput": r.throughput,
    } for c, r in zip(configs, results)]
    summary = {
        "mode": runner.last_mode,
        "tasks": len(tasks),
        "cache_hits": registry.counter("exec.cache_hits").value,
        "wall_seconds": registry.gauge("exec.wall_seconds").value,
    }
    if as_json:
        print(json.dumps({"schema": "repro.exec/v1", "grid": rows,
                          "exec": summary}, indent=2, sort_keys=True))
        return 0
    print(f"{'s':>4} {'c':>4} {'b':>5} {'q':>4} {'mean-lat':>11} "
          f"{'p99-lat':>11} {'tput':>10}")
    for row in rows:
        cfg = row["config"]
        print(f"{cfg['s']:>4} {cfg['c']:>4} {cfg['b']:>5} {cfg['q']:>4} "
              f"{row['latency_mean'] * 1e6:>9.1f}us "
              f"{row['latency_p99'] * 1e6:>9.1f}us "
              f"{row['throughput'] / 1e6:>8.2f}M")
    print(f"{summary['tasks']} tasks, "
          f"{summary['cache_hits']:.0f} cache hits, "
          f"{summary['mode']} mode, "
          f"{summary['wall_seconds']:.2f}s wall")
    return 0


def cmd_kernelbench(rounds: int, batches: int,
                    min_steps_per_sec: float | None) -> int:
    """Micro-benchmark ``Environment.step()`` on the measurement workload.

    Runs the same instrumented ``measure_config`` call the sweep hot
    path is made of and prints kernel steps per wall-clock second -- the
    number CI logs so step-loop regressions are visible.
    ``--min-steps-per-sec`` turns the run into a CI gate: exit 1 if the
    best rate falls below the floor.
    """
    from time import perf_counter

    from repro.core.config import RdmaConfig
    from repro.core.measurement import measure_config
    from repro.obs.metrics import MetricsRegistry

    config = RdmaConfig(4, 4, 16, 8)
    best = 0.0
    for index in range(rounds):
        registry = MetricsRegistry()
        started = perf_counter()  # repro-lint: disable=D001 -- wall-clock benchmark harness, result never reaches sim state
        measure_config(config, 16, read_fraction=0.5,
                       batches_per_connection=batches,
                       warmup_batches=max(1, batches // 4),
                       seed=11, metrics=registry)
        elapsed = perf_counter() - started  # repro-lint: disable=D001 -- wall-clock benchmark harness
        steps = registry.gauge("kernel.steps").value
        rate = steps / elapsed
        best = max(best, rate)
        print(f"round {index}: {steps:,.0f} steps in "
              f"{elapsed:.3f}s = {rate:,.0f} steps/sec")
    print(f"best: {best:,.0f} steps/sec")
    if min_steps_per_sec is not None and best < min_steps_per_sec:
        print(f"FAIL: best rate {best:,.0f} steps/sec "
              f"is below the floor of {min_steps_per_sec:,.0f}")
        return 1
    return 0


def cmd_chaos(scenario: str | None, seed: int, as_json: bool,
              out: str | None) -> int:
    """Run one named fault-injection scenario (``repro.faults``).

    Prints the fault log and the availability summary; ``--json`` emits
    the whole report (events, summary, metrics snapshot, digest) as one
    machine-readable blob, and ``--out`` writes that blob to a file.
    Same seed, same scenario => bit-identical fault log (check the
    digest).  Without a scenario name, lists what is available.
    """
    from repro.faults import SCENARIOS, run_scenario

    if scenario is None or scenario == "list":
        print(f"{'scenario':>14}  description")
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:>14}  {doc}")
        return 0
    if scenario not in SCENARIOS:
        print(f"unknown chaos scenario {scenario!r}; "
              f"try `python -m repro chaos list`")
        return 1
    report = run_scenario(scenario, seed=seed)
    blob = {
        "schema": "repro.faults/v1",
        "scenario": report.scenario,
        "seed": report.seed,
        "sim_seconds": report.sim_now,
        "digest": report.log.digest(),
        "events": [event.to_dict() for event in report.log],
        "summary": report.summary,
        "metrics": report.metrics,
    }
    if out:
        pathlib.Path(out).write_text(
            json.dumps(blob, indent=2, sort_keys=True) + "\n")
    if as_json:
        print(json.dumps(blob, indent=2, sort_keys=True))
        return 0
    print(f"== chaos {report.scenario} (seed {report.seed}) ==")
    print("fault log:")
    for event in report.log:
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.detail.items()))
        print(f"  {event.time:>10.4f}s  {event.kind:<22} {event.target:<16} "
              f"{detail}")
    print("summary:")
    for key in sorted(report.summary):
        print(f"  {key:<24} {report.summary[key]:g}")
    print(f"fault-log digest: {report.log.digest()}")
    if out:
        print(f"report written to {out}")
    return 0


def _shard_run(seed: int, shards: int, ops: int, replication: int,
               hot: bool, kill: bool) -> dict:
    """One deterministic fleet run; the blob both views print from."""
    from repro.core import Slo
    from repro.obs.metrics import MetricsRegistry
    from repro.shard import HotKeyPolicy, ShardRouter
    from repro.workloads.runner import run_router_workload
    from repro.workloads.scenarios import build_cluster
    from repro.workloads.ycsb import YcsbWorkload

    region = 1 << 20
    capacity = 2 * region
    record_bytes = 64
    slo = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)

    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    client = harness.redy_client("shard-cli")
    members = {
        f"s{i:02d}": client.create(capacity, slo, duration_s=3600.0,
                                   region_bytes=region)
        for i in range(shards)
    }
    router = ShardRouter(
        harness.env, members, slot_bytes=1 << 14,
        replication=replication, hedge_after_s=200e-6,
        hotkeys=HotKeyPolicy() if hot else None)
    router.load(0, bytes(range(256)) * (capacity // 256))

    workload = YcsbWorkload(
        "cli-zipfian", n_records=capacity // record_bytes,
        value_bytes=record_bytes, read_proportion=0.95,
        update_proportion=0.05, distribution="zipfian", theta=0.99)
    keys, is_read = workload.sample_ops(ops, harness.rngs.stream("ycsb"))
    result = run_router_workload(
        harness.env, router, keys=keys, is_read=is_read,
        record_bytes=record_bytes, concurrency=8 * shards)

    kill_stats = None
    if kill:
        victim_name = sorted(members)[1]
        acked = {}

        def kill_and_verify():
            # Acknowledge a write per sampled slot, then hard-kill the
            # victim and check every ack survives the rebalance.
            for slot in range(0, router.n_slots, 4):
                addr = slot * router.slot_bytes
                data = bytes([slot % 251]) * record_bytes
                res = yield router.write(addr, data)
                assert res.ok
                acked[addr] = data
            for vm in list(members[victim_name].allocation.vms):
                if vm.alive:
                    harness.allocator.fail(vm)
            while (router._membership_tail is not None
                   and not router._membership_tail.processed):
                yield router._membership_tail
            lost = 0
            for addr, data in acked.items():
                res = yield router.read(addr, len(data))
                if not (res.ok and res.data == data):
                    lost += 1
            return lost

        lost = harness.env.run_process(kill_and_verify())
        report = router.reports[-1]
        kill_stats = {
            "victim": victim_name,
            "acked_writes_checked": len(acked),
            "acked_writes_lost": lost,
            "rebalance": report.to_dict(),
            "members_after": router.members,
        }

    return {
        "schema": "repro.shard/v1",
        "seed": seed,
        "shards": shards,
        "replication": replication,
        "hotkeys": hot,
        "ops": ops,
        "throughput_ops_s": result.throughput,
        "latency_mean_s": result.latency_mean,
        "latency_p99_s": result.latency_p99,
        "reads": result.reads,
        "writes": result.writes,
        "failed": result.failed,
        "hot_slots": {str(slot): list(extras)
                      for slot, extras in sorted(
                          router.hot_slots().items())},
        "kill": kill_stats,
        "metrics": registry.snapshot(),
    }


def cmd_shard(seed: int, shards: int, ops: int, replication: int,
              no_hotkeys: bool, smoke: bool, as_json: bool,
              out: str | None) -> int:
    """Drive zipfian YCSB traffic across the sharded scale-out tier.

    The default run reports fleet throughput/latency and per-shard
    load; ``--smoke`` is the CI gate: it also hard-kills a member
    mid-fleet (replication must keep every acknowledged write), then
    repeats the run to assert bit-identical metrics.
    """
    hot = not no_hotkeys
    if smoke:
        shards, ops, replication = min(shards, 4), min(ops, 3000), 2
    blob = _shard_run(seed, shards, ops, replication, hot, kill=smoke)

    if smoke:
        failures = []
        if blob["failed"]:
            failures.append(f"{blob['failed']} workload ops failed")
        kill = blob["kill"]
        if kill["acked_writes_lost"]:
            failures.append(
                f"{kill['acked_writes_lost']} acknowledged writes lost")
        if kill["rebalance"]["lost_slots"]:
            failures.append(
                f"{kill['rebalance']['lost_slots']} slots lost in "
                "rebalance")
        if len(kill["members_after"]) != shards - 1:
            failures.append("victim still on the ring")
        replay = _shard_run(seed, shards, ops, replication, hot,
                            kill=smoke)
        if replay["metrics"] != blob["metrics"]:
            failures.append("same-seed replay diverged")
        for line in failures:
            print(f"FAIL: {line}")
        if not failures:
            print(f"shard smoke OK: {shards} shards, {blob['ops']} ops, "
                  f"{blob['throughput_ops_s']:.0f} ops/s, kill of "
                  f"{kill['victim']} survived with 0 lost acks, "
                  "replay bit-identical")
        if out:
            pathlib.Path(out).write_text(
                json.dumps(blob, indent=2, sort_keys=True) + "\n")
        return 1 if failures else 0

    if out:
        pathlib.Path(out).write_text(
            json.dumps(blob, indent=2, sort_keys=True) + "\n")
    if as_json:
        print(json.dumps(blob, indent=2, sort_keys=True))
        return 0
    print(f"== shard fleet (seed {seed}) ==")
    print(f"shards={shards} replication={replication} "
          f"hotkeys={'on' if hot else 'off'} ops={blob['ops']}")
    print(f"throughput: {blob['throughput_ops_s']:,.0f} ops/s   "
          f"mean {blob['latency_mean_s'] * 1e6:.1f} us   "
          f"p99 {blob['latency_p99_s'] * 1e6:.1f} us   "
          f"failed {blob['failed']}")
    shard_reads = {name: int(m["value"])
                   for name, m in blob["metrics"].items()
                   if name.startswith("shard.reads{")}
    if shard_reads:
        print("per-shard reads:")
        for name in sorted(shard_reads):
            label = name.split('"')[1]
            print(f"  {label:<6} {shard_reads[name]:>8}")
    if blob["hot_slots"]:
        print(f"hot slots: {', '.join(sorted(blob['hot_slots']))}")
    if out:
        print(f"report written to {out}")
    return 0


def _tenants_run(seed: int, ops: int, abusive: bool, kill: bool) -> dict:
    """One deterministic multi-tenant run; pure in (args).

    Three tenants (premium / standard / scavenger) share a 3-member
    replication=1 fleet through a :class:`~repro.tenant.TenantTier`.
    ``abusive`` adds an open-loop scavenger flood at 10x its admitted
    rate; ``kill`` hard-kills one member mid-run and then verifies that
    every acknowledged write is still readable after recovery.
    """
    from repro.core import Slo
    from repro.obs.metrics import MetricsRegistry
    from repro.shard import ShardRouter
    from repro.tenant import TenantSpec, TenantTier
    from repro.workloads.scenarios import build_cluster

    region = 1 << 18
    capacity = 2 * region
    record = 64
    namespace = 64 * 1024
    slo = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)

    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    client = harness.redy_client("tenant-cli")
    members = {
        f"s{i:02d}": client.create(capacity, slo, duration_s=3600.0,
                                   region_bytes=region)
        for i in range(3)
    }
    router = ShardRouter(env, members, slot_bytes=1 << 12, replication=1)
    tier = TenantTier(env, router)
    tier.register(TenantSpec(name="prem", namespace_bytes=namespace,
                             rate_per_s=400_000.0, burst=64.0,
                             slo_class="premium", probe_interval_s=2e-3))
    tier.register(TenantSpec(name="std", namespace_bytes=namespace,
                             rate_per_s=200_000.0, burst=32.0,
                             slo_class="standard", probe_interval_s=2e-3))
    scav_rate = 20_000.0
    tier.register(TenantSpec(name="scav", namespace_bytes=namespace,
                             rate_per_s=scav_rate, burst=16.0,
                             max_queue=32, slo_class="scavenger",
                             probe_interval_s=2e-3))
    seed_bytes = bytes(range(256)) * (namespace // 256)
    for name in ("prem", "std", "scav"):
        tier.load(name, 0, seed_bytes)

    workers_per_tenant = 4
    latencies = {"prem": [], "std": []}
    acked = {"prem": {}, "std": {}}
    progress = {"done": 0, "killed": False, "live_workers": 0}
    kill_after = ops  # half of the two tracked tenants' combined ops

    def worker(tenant: str, index: int, rng, n_ops: int):
        progress["live_workers"] += 1
        records = namespace // record
        for op in range(n_ops):
            rec = int(rng.integers(0, records))
            # Disjoint per-worker address sets: last-acked is unique.
            rec = (rec - rec % workers_per_tenant + index) % records
            addr = rec * record
            if op % 4 == 0:
                payload = bytes([(index * 37 + op) % 251]) * record
                result = yield tier.write(tenant, addr, payload)
                if result.ok:
                    acked[tenant][addr] = payload
            else:
                result = yield tier.read(tenant, addr, record)
                if result.ok:
                    latencies[tenant].append(result.latency)
            progress["done"] += 1
            if (kill and not progress["killed"]
                    and progress["done"] >= kill_after):
                progress["killed"] = True
                for vm in list(members["s01"].allocation.vms):
                    if vm.alive:
                        harness.allocator.fail(vm)
        progress["live_workers"] -= 1

    def abusive_load():
        # Open loop at 10x the scavenger's admitted rate: nothing
        # awaits the results, so shedding is what bounds the queue.
        interval = 1.0 / (10.0 * scav_rate)
        rng = harness.rngs.stream("tenant-cli-abusive")
        while progress["live_workers"] > 0:
            addr = int(rng.integers(0, namespace // record)) * record
            tier.write("scav", addr, b"\xab" * record)
            yield env.timeout(interval)

    per_worker = max(1, ops // workers_per_tenant)
    for tenant in ("prem", "std"):
        for index in range(workers_per_tenant):
            env.process(
                worker(tenant, index,
                       harness.rngs.stream(f"tenant-cli:{tenant}:{index}"),
                       per_worker),
                name=f"tenant-cli:{tenant}:{index}")
    if abusive:
        env.process(abusive_load(), name="tenant-cli-abusive")
    env.run()

    def settle_and_verify():
        while (router._membership_tail is not None
               and not router._membership_tail.processed):
            yield router._membership_tail
        while any(tier.tenant(n).degraded for n in tier.tenants):
            yield env.timeout(1e-3)
        lost = 0
        for tenant in ("prem", "std"):
            for addr, payload in sorted(acked[tenant].items()):
                result = yield tier.read(tenant, addr, record)
                if not (result.ok and result.data == payload):
                    lost += 1
        return lost

    lost = env.run_process(settle_and_verify())

    def p99(values):
        ordered = sorted(values)
        return ordered[int(0.99 * (len(ordered) - 1))] if ordered else 0.0

    blob = {
        "schema": "repro.tenants/v1",
        "seed": seed,
        "ops": ops,
        "abusive": abusive,
        "kill": kill,
        "premium_read_p99_s": p99(latencies["prem"]),
        "standard_read_p99_s": p99(latencies["std"]),
        "acked_writes_checked": sum(len(a) for a in acked.values()),
        "acked_writes_lost": lost,
        "members_after": router.members,
        "tenants": {name: tier.stats(name) for name in tier.tenants},
        "metrics": registry.snapshot(),
    }
    if kill and router.reports:
        blob["rebalance"] = router.reports[-1].to_dict()
    return blob


def cmd_tenants(seed: int, ops: int, smoke: bool, as_json: bool,
                out: str | None) -> int:
    """Drive mixed-SLO tenants through the multi-tenant serving tier.

    The default run reports per-tenant admission/latency under an
    abusive scavenger; ``--smoke`` is the CI gate: a quiet baseline vs
    an abusive run must keep the premium p99 within budget, a mid-run
    member kill must degrade to fail-open with zero lost acked writes
    and re-promote, and a same-seed replay must be bit-identical.
    """
    if smoke:
        ops = min(ops, 2400)
        #: Budget: the abusive tenant may not move the quiet premium
        #: tenant's read p99 by more than this factor (plus a 2 us
        #: absolute floor for tiny-sample jitter).
        budget_factor = 1.5
        baseline = _tenants_run(seed, ops, abusive=False, kill=False)
        noisy = _tenants_run(seed, ops, abusive=True, kill=False)
        chaos = _tenants_run(seed, ops, abusive=True, kill=True)
        replay = _tenants_run(seed, ops, abusive=True, kill=True)

        failures = []
        base_p99 = baseline["premium_read_p99_s"]
        noisy_p99 = noisy["premium_read_p99_s"]
        budget = max(base_p99 * budget_factor, base_p99 + 2e-6)
        if noisy_p99 > budget:
            failures.append(
                f"noisy-neighbor moved premium read p99 "
                f"{base_p99 * 1e6:.2f} -> {noisy_p99 * 1e6:.2f} us "
                f"(budget {budget * 1e6:.2f} us)")
        if not noisy["tenants"]["scav"]["shed"]:
            failures.append("abusive scavenger was never shed")
        if noisy["tenants"]["prem"]["shed"]:
            failures.append("quiet premium tenant was shed")
        prem_chaos = chaos["tenants"]["prem"]
        if not prem_chaos["degradations"]:
            failures.append("member kill did not degrade the premium "
                            "tenant")
        if prem_chaos["degradations"] > prem_chaos["repromotions"]:
            failures.append("premium tenant was not re-promoted")
        if not prem_chaos["fail_open_reads"]:
            failures.append("no reads failed open during degradation")
        if chaos["acked_writes_lost"]:
            failures.append(f"{chaos['acked_writes_lost']} acknowledged "
                            "writes lost across the kill")
        if len(chaos["members_after"]) != 2:
            failures.append("victim still on the ring")
        if replay["metrics"] != chaos["metrics"]:
            failures.append("same-seed replay diverged")
        for line in failures:
            print(f"FAIL: {line}")
        if not failures:
            print(f"tenants smoke OK: premium p99 "
                  f"{base_p99 * 1e6:.2f} -> {noisy_p99 * 1e6:.2f} us under "
                  f"10x abuse (budget {budget * 1e6:.2f} us), "
                  f"{noisy['tenants']['scav']['shed']} sheds, kill "
                  f"survived with 0 lost acks and "
                  f"{prem_chaos['repromotions']} re-promotion(s), "
                  "replay bit-identical")
        if out:
            pathlib.Path(out).write_text(
                json.dumps(chaos, indent=2, sort_keys=True) + "\n")
        return 1 if failures else 0

    blob = _tenants_run(seed, ops, abusive=True, kill=False)
    if out:
        pathlib.Path(out).write_text(
            json.dumps(blob, indent=2, sort_keys=True) + "\n")
    if as_json:
        print(json.dumps(blob, indent=2, sort_keys=True))
        return 0
    print(f"== tenant tier (seed {seed}) ==")
    print(f"premium read p99 {blob['premium_read_p99_s'] * 1e6:.2f} us   "
          f"standard read p99 {blob['standard_read_p99_s'] * 1e6:.2f} us")
    print(f"{'tenant':>8} {'admitted':>9} {'delayed':>8} {'shed':>8} "
          f"{'fail-open':>9} {'degraded':>8}")
    for name, stats in sorted(blob["tenants"].items()):
        print(f"{name:>8} {stats['admitted']:>9} {stats['delayed']:>8} "
              f"{stats['shed']:>8} {stats['fail_open_reads']:>9} "
              f"{stats['degradations']:>8}")
    if out:
        print(f"report written to {out}")
    return 0


def _verbs_run(seed: int, ops: int, programs: bool) -> dict:
    """One dependent-GET pass on a fresh testbed; pure in (args)."""
    import hashlib
    import struct

    from repro.core import Slo
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.scenarios import build_cluster

    region = 1 << 20
    capacity = 4 * region
    record_bytes = 256
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    client = harness.redy_client("verbs-smoke")
    cache = client.create(
        capacity, Slo(max_latency=1e-3, min_throughput=1e5,
                      record_size=record_bytes),
        duration_s=3600.0, region_bytes=region,
        use_verb_programs=programs)

    digest = hashlib.sha256()
    stats = {"ok": 0, "failed": 0, "latency_s": 0.0}
    n_regions = capacity // region

    def body():
        for index in range(ops):
            reg = index % n_regions
            pointer_addr = reg * region + 64
            # Region-local record offset; vary it so the chase actually
            # has to dereference the pointer word, not a fixed address.
            local = 4096 + (index % 7) * 512
            payload = bytes((index + j) % 251 for j in range(record_bytes))
            wrote = yield cache.write(reg * region + local, payload)
            swung = yield cache.write(pointer_addr,
                                      struct.pack("<Q", local))
            read = yield cache.dependent_read(pointer_addr, record_bytes)
            if wrote.ok and swung.ok and read.ok and read.data == payload:
                stats["ok"] += 1
                stats["latency_s"] += read.latency
                digest.update(read.data)
            else:
                stats["failed"] += 1

    env.run_process(body(), name="verbs-workload")

    def metric(name: str) -> int:
        value = registry.get(name)
        return int(value.value) if value is not None else 0

    mean_us = (stats["latency_s"] / stats["ok"] * 1e6
               if stats["ok"] else 0.0)
    return {
        "transport": "program" if programs else "two-hop",
        "seed": seed,
        "ops": ops,
        "ok": stats["ok"],
        "failed": stats["failed"],
        "digest": digest.hexdigest(),
        "read_latency_mean_us": mean_us,
        "programs": metric("engine.programs"),
        "two_hop_reads": metric("engine.two_hop_reads"),
        "program_fallbacks": metric("engine.program_fallbacks"),
        "program_cas_aborts": metric("engine.program_cas_aborts"),
    }


def cmd_verbs(seed: int, ops: int, smoke: bool, as_json: bool) -> int:
    """A/B dependent GETs: two-hop transport vs one-RTT verb programs.

    Runs the same pointer-chase workload (write record, swing pointer
    word, dependent-read it back) under both transports.  ``--smoke``
    is the CI gate: byte-identical read-back digests, a program-path
    latency win, clean program/fallback accounting, and a same-seed
    replay that must be bit-identical.
    """
    if smoke:
        ops = min(ops, 48)
    two_hop = _verbs_run(seed, ops, programs=False)
    program = _verbs_run(seed, ops, programs=True)

    if smoke:
        failures = []
        if two_hop["failed"] or program["failed"]:
            failures.append(
                f"failed ops: two-hop {two_hop['failed']}, "
                f"program {program['failed']}")
        if two_hop["digest"] != program["digest"]:
            failures.append("transport digests diverge: "
                            "program reads returned different bytes")
        if program["read_latency_mean_us"] \
                >= two_hop["read_latency_mean_us"]:
            failures.append(
                f"no latency win: program "
                f"{program['read_latency_mean_us']:.2f}us vs two-hop "
                f"{two_hop['read_latency_mean_us']:.2f}us")
        if program["programs"] != program["ok"]:
            failures.append(
                f"{program['ok']} chases but {program['programs']} "
                "programs issued")
        if program["program_fallbacks"] or program["program_cas_aborts"]:
            failures.append("unexpected aborts/fallbacks on a quiet "
                            "cluster")
        if two_hop["programs"]:
            failures.append("two-hop run issued verb programs")
        if two_hop["two_hop_reads"] != two_hop["ok"]:
            failures.append(
                f"{two_hop['ok']} chases but {two_hop['two_hop_reads']} "
                "two-hop reads")
        replay = _verbs_run(seed, ops, programs=True)
        if replay != program:
            failures.append("same-seed replay diverged")
        for line in failures:
            print(f"FAIL: {line}")
        if not failures:
            ratio = (two_hop["read_latency_mean_us"]
                     / program["read_latency_mean_us"])
            print(f"verbs smoke OK: {ops} chases, digests equal, "
                  f"program {program['read_latency_mean_us']:.2f}us vs "
                  f"two-hop {two_hop['read_latency_mean_us']:.2f}us "
                  f"({ratio:.2f}x), replay bit-identical")
        return 1 if failures else 0

    if as_json:
        print(json.dumps({"two_hop": two_hop, "program": program},
                         indent=2, sort_keys=True))
        return 0
    print(f"== dependent GETs, two-hop vs verb programs (seed {seed}) ==")
    for blob in (two_hop, program):
        print(f"{blob['transport']:>8}: {blob['ok']}/{blob['ops']} ok, "
              f"mean read {blob['read_latency_mean_us']:.2f} us, "
              f"programs={blob['programs']} "
              f"two_hop_reads={blob['two_hop_reads']} "
              f"fallbacks={blob['program_fallbacks']}")
    ratio = (two_hop["read_latency_mean_us"]
             / max(program["read_latency_mean_us"], 1e-12))
    print(f"latency ratio (two-hop / program): {ratio:.2f}x")
    print(f"digests {'match' if two_hop['digest'] == program['digest'] else 'DIVERGE'}")
    return 0


def cmd_connstorm(seed: int, clients: int, reads: int, smoke: bool,
                  as_json: bool, out: str | None) -> int:
    """Connection-storm ablation: naive QPs vs pooled vs pooled+lazy.

    Slams one cache tier with ``clients`` sessions arriving inside a
    50 ms window under each pool strategy and reports the TTFB
    percentiles -- the control-plane bill each strategy leaves on the
    open path.  ``--smoke`` is the CI gate: every storm completes with
    zero failures and zero leaked QPs/regions, pooling cuts both p99
    TTFB and registrations vs the naive baseline, the demux never
    misroutes, and a same-seed replay is bit-identical.
    """
    from repro.cplane import run_connection_storm
    from repro.cplane.pool import STRATEGIES

    if smoke:
        clients = min(clients, 1200)
    runs = {strategy: run_connection_storm(seed, clients=clients,
                                           strategy=strategy,
                                           reads_per_session=reads)
            for strategy in STRATEGIES}
    naive = runs["per-client"]
    lazy = runs["pooled-lazy"]

    if smoke:
        failures = []
        for strategy, blob in runs.items():
            if blob["completed"] != clients or blob["failures"]:
                failures.append(
                    f"{strategy}: {blob['completed']}/{clients} sessions, "
                    f"{blob['failures']} failed reads")
            if blob["leaked_qps"] or blob["leaked_client_regions"]:
                failures.append(
                    f"{strategy}: leaked {blob['leaked_qps']} QPs / "
                    f"{blob['leaked_client_regions']} regions after "
                    "harvest")
            if blob["pool_totals"].get("demux_misroutes"):
                failures.append(f"{strategy}: completion demux misrouted")
        if lazy["ttfb_us"]["p99"] >= naive["ttfb_us"]["p99"]:
            failures.append(
                f"no p99 win: pooled-lazy {lazy['ttfb_us']['p99']:.1f}us "
                f"vs naive {naive['ttfb_us']['p99']:.1f}us")
        if lazy["mr_registrations"] >= naive["mr_registrations"]:
            failures.append(
                f"pooling did not amortize registrations "
                f"({lazy['mr_registrations']} vs "
                f"{naive['mr_registrations']})")
        replay = run_connection_storm(seed, clients=clients,
                                      strategy="pooled-lazy",
                                      reads_per_session=reads)
        if replay != lazy:
            failures.append("same-seed storm replay diverged")
        for line in failures:
            print(f"FAIL: {line}")
        if not failures:
            ratio = naive["ttfb_us"]["p99"] / max(lazy["ttfb_us"]["p99"],
                                                  1e-9)
            print(f"connstorm smoke OK: {clients} clients, p99 TTFB "
                  f"naive {naive['ttfb_us']['p99']:.1f}us vs pooled-lazy "
                  f"{lazy['ttfb_us']['p99']:.1f}us ({ratio:.1f}x), "
                  f"0 leaks, replay bit-identical")
        if out:
            pathlib.Path(out).write_text(
                json.dumps(runs, indent=2, sort_keys=True) + "\n")
        return 1 if failures else 0

    if out:
        pathlib.Path(out).write_text(
            json.dumps(runs, indent=2, sort_keys=True) + "\n")
    if as_json:
        print(json.dumps(runs, indent=2, sort_keys=True))
        return 0
    print(f"== connection storm, {clients} clients in 50 ms "
          f"(seed {seed}) ==")
    print(f"{'strategy':>12} {'p50 us':>9} {'p99 us':>9} {'max us':>9} "
          f"{'QPs':>6} {'estab':>6} {'MRs':>6} {'ctx miss':>8}")
    for strategy in STRATEGIES:
        blob = runs[strategy]
        print(f"{strategy:>12} {blob['ttfb_us']['p50']:>9.1f} "
              f"{blob['ttfb_us']['p99']:>9.1f} "
              f"{blob['ttfb_us']['max']:>9.1f} "
              f"{blob['pool_totals'].get('qps_created', 0):>6} "
              f"{blob['qp_establishments']:>6} "
              f"{blob['mr_registrations']:>6} "
              f"{blob['qp_context_misses']:>8}")
    if out:
        print(f"report written to {out}")
    return 0


def cmd_lint(paths: list[str], fmt: str, rules: str | None) -> int:
    """Run the determinism AST linter (``repro.analysis``) over paths.

    Defaults to the ``src/repro`` tree.  Exit codes follow the analysis
    contract: 0 clean, 1 findings, 2 internal error (the latter raised
    out of here and mapped in :func:`main`).
    """
    from repro.analysis import format_findings, lint_paths

    targets = paths or [str(_REPO_ROOT / "src" / "repro")]
    rule_ids = ([part.strip() for part in rules.split(",") if part.strip()]
                if rules else None)
    findings, files = lint_paths(targets, rules=rule_ids)
    print(format_findings(findings, fmt=fmt, tool="repro-lint"))
    if fmt == "text":
        print(f"scanned {len(files)} file(s)")
    return 1 if findings else 0


def cmd_sanitize(workload: str, seed: int, fmt: str, smoke: bool) -> int:
    """Replay-determinism gate: run a workload twice, diff the traces.

    ``--smoke`` runs the quick CI set: measurement path + chaos scenario
    replay determinism, plus a heap-vs-calendar run of the measurement
    workload pinning that the kernel's event-list implementation is not
    observable in event ordering.  Otherwise one named workload; ``list``
    enumerates them.
    """
    from repro.analysis import format_findings, sanitize, sanitize_schedulers
    from repro.analysis.sanitize import WORKLOADS

    if workload == "list":
        print(f"{'workload':>18}  description")
        for name in sorted(WORKLOADS):
            doc = (WORKLOADS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:>18}  {doc}")
        return 0
    if smoke:
        names = ["measure", "measure-programs", "measure-tenants",
                 "measure-cplane", "chaos-spot-churn"]
    elif workload not in WORKLOADS:
        print(f"unknown sanitize workload {workload!r}; "
              f"try `python -m repro sanitize list`")
        return 2
    else:
        names = [workload]

    findings = []
    for name in names:
        report = sanitize(WORKLOADS[name], seed=seed, label=name)
        findings.extend(report.to_findings())
        if fmt == "text":
            print(report.describe())
    if smoke:
        report = sanitize_schedulers(WORKLOADS["measure"], seed=seed,
                                     label="measure")
        findings.extend(report.to_findings())
        if fmt == "text":
            print(report.describe())
    if fmt == "json":
        print(format_findings(findings, fmt="json", tool="repro-sanitize"))
    return 1 if findings else 0


def cmd_examples() -> int:
    if not _EXAMPLES.is_dir():
        print("no examples/ directory found")
        return 1
    for path in sorted(_EXAMPLES.glob("*.py")):
        print(f"python examples/{path.name:<28} {_first_doc_line(path)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Redy (VLDB 2021) reproduction launcher")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproduction experiments")
    run = sub.add_parser("run", help="regenerate one experiment (or all)")
    run.add_argument("experiment", help="experiment id, e.g. fig03, or all")
    metrics = sub.add_parser(
        "metrics",
        help="dump a run's repro.obs metrics registry")
    metrics.add_argument(
        "experiment", nargs="?", default=None,
        help="saved bench blob to show (e.g. fig07); omit to run a live "
             "instrumented measurement")
    metrics.add_argument("--json", action="store_true", dest="as_json",
                         help="raw JSON instead of the table view")
    metrics.add_argument("--queue-depth", type=int, default=4)
    metrics.add_argument("--threads", type=int, default=1)
    metrics.add_argument("--batches", type=int, default=120,
                         help="measured batches per connection")
    sweep = sub.add_parser(
        "sweep",
        help="measure a configuration grid via the parallel sweep executor")
    sweep.add_argument("--record-size", type=int, default=64)
    sweep.add_argument("--max-client-threads", type=int, default=4)
    sweep.add_argument("--max-queue-depth", type=int, default=8)
    sweep.add_argument("--workers", type=int, default=None,
                       help="pool size (default: cpu count; 1 = serial)")
    sweep.add_argument("--batches", type=int, default=30,
                       help="measured batches per connection")
    sweep.add_argument("--warmup", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: "
                            "benchmarks/_results/.cache; '' disables)")
    sweep.add_argument("--json", action="store_true", dest="as_json")
    kernelbench = sub.add_parser(
        "kernelbench",
        help="micro-benchmark kernel steps/sec on the measurement workload")
    kernelbench.add_argument("--rounds", type=int, default=3)
    kernelbench.add_argument("--batches", type=int, default=120,
                             help="measured batches per connection")
    kernelbench.add_argument("--min-steps-per-sec", type=float,
                             default=None,
                             help="CI regression floor: exit 1 if the "
                                  "best rate falls below this")
    chaos = sub.add_parser(
        "chaos",
        help="run a named fault-injection scenario (repro.faults)")
    chaos.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario name (omit or use 'list' to enumerate)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the full report as one JSON blob")
    chaos.add_argument("--out", default=None,
                       help="also write the JSON report to this file")
    shard = sub.add_parser(
        "shard",
        help="drive YCSB traffic across the sharded scale-out tier")
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--ops", type=int, default=6000)
    shard.add_argument("--replication", type=int, default=2)
    shard.add_argument("--no-hotkeys", action="store_true",
                       help="disable hot-key replication")
    shard.add_argument("--smoke", action="store_true",
                       help="CI gate: kill-survival + determinism checks")
    shard.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the full report as one JSON blob")
    shard.add_argument("--out", default=None,
                       help="also write the JSON report to this file")
    tenants = sub.add_parser(
        "tenants",
        help="drive mixed-SLO tenants through the serving tier")
    tenants.add_argument("--seed", type=int, default=0)
    tenants.add_argument("--ops", type=int, default=2400,
                         help="tracked ops per tenant (prem + std)")
    tenants.add_argument("--smoke", action="store_true",
                         help="CI gate: isolation + degradation "
                              "fail-open + determinism checks")
    tenants.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the full report as one JSON blob")
    tenants.add_argument("--out", default=None,
                         help="also write the JSON report to this file")
    verbs = sub.add_parser(
        "verbs",
        help="A/B dependent GETs: two-hop vs one-RTT verb programs")
    verbs.add_argument("--seed", type=int, default=0)
    verbs.add_argument("--ops", type=int, default=200,
                       help="pointer chases per transport")
    verbs.add_argument("--smoke", action="store_true",
                       help="CI gate: digest equivalence + latency win "
                            "+ determinism checks")
    verbs.add_argument("--json", action="store_true", dest="as_json",
                       help="emit both runs as one JSON blob")
    connstorm = sub.add_parser(
        "connstorm",
        help="connection-storm ablation: naive vs pooled vs pooled+lazy")
    connstorm.add_argument("--seed", type=int, default=0)
    connstorm.add_argument("--clients", type=int, default=20000,
                           help="sessions arriving inside the 50 ms window")
    connstorm.add_argument("--reads", type=int, default=1,
                           help="reads per session (spreads NIC context "
                                "touches)")
    connstorm.add_argument("--smoke", action="store_true",
                           help="CI gate: completion + leak + p99 win "
                                "+ determinism checks")
    connstorm.add_argument("--json", action="store_true", dest="as_json",
                           help="emit all three runs as one JSON blob")
    connstorm.add_argument("--out", default=None,
                           help="write the JSON blob to this path")
    lint = sub.add_parser(
        "lint",
        help="run the determinism AST linter (repro.analysis)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      dest="fmt")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to enable "
                           "(default: all, e.g. D001,D003)")
    sanitize = sub.add_parser(
        "sanitize",
        help="replay a workload twice and bisect the first divergence")
    sanitize.add_argument(
        "workload", nargs="?", default="measure",
        help="workload name ('list' to enumerate; default: measure)")
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument("--format", choices=["text", "json"],
                          default="text", dest="fmt")
    sanitize.add_argument("--smoke", action="store_true",
                          help="CI gate: measurement + chaos replay "
                               "determinism")
    sub.add_parser("examples", help="list example applications")
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "run":
            return cmd_run(args.experiment)
        if args.command == "metrics":
            return cmd_metrics(args.experiment, args.as_json,
                               args.queue_depth, args.threads, args.batches)
        if args.command == "sweep":
            return cmd_sweep(args.record_size, args.max_client_threads,
                             args.max_queue_depth, args.workers,
                             args.batches, args.warmup, args.seed,
                             args.cache_dir, args.as_json)
        if args.command == "kernelbench":
            return cmd_kernelbench(args.rounds, args.batches,
                                   args.min_steps_per_sec)
        if args.command == "chaos":
            return cmd_chaos(args.scenario, args.seed, args.as_json,
                             args.out)
        if args.command == "shard":
            return cmd_shard(args.seed, args.shards, args.ops,
                             args.replication, args.no_hotkeys,
                             args.smoke, args.as_json, args.out)
        if args.command == "tenants":
            return cmd_tenants(args.seed, args.ops, args.smoke,
                               args.as_json, args.out)
        if args.command == "verbs":
            return cmd_verbs(args.seed, args.ops, args.smoke, args.as_json)
        if args.command == "connstorm":
            return cmd_connstorm(args.seed, args.clients, args.reads,
                                 args.smoke, args.as_json, args.out)
        if args.command == "lint":
            return cmd_lint(args.paths, args.fmt, args.rules)
        if args.command == "sanitize":
            return cmd_sanitize(args.workload, args.seed, args.fmt,
                                args.smoke)
        return cmd_examples()
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except Exception as exc:  # noqa: BLE001 - analysis exit-code contract
        if args.command in ("lint", "sanitize"):
            print(f"internal error: {type(exc).__name__}: {exc}")
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
