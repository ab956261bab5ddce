"""One scenario registry and one gate harness (``python -m repro gate``).

Every robustness claim the reproduction checks end to end -- reads keep
flowing through migration and eviction (§6), every read returns what its
op history allows (:mod:`repro.history`), pooled connection storms
leak nothing -- is one
:class:`Scenario` in :data:`SCENARIOS`: a ``run(seed)`` that builds its
own cluster and returns a JSON-able blob, and an ``invariants(blob)``
that returns one line per violated check.

:func:`check` is the harness.  It records the run twice with the
replay sanitizer's :class:`~repro.analysis.sanitize.TraceRecorder`
(every kernel scheduling action and every RNG draw).  While recording,
the recorder holds every dispatch to the ``(when, insertion)`` order of
a reference heap of its own; a dispatch out of that order is an
*ordering* bug in the kernel.  The two runs' traces and blobs must be
identical; if they are not, the harness bisects the first diverging
kernel event and reports a *replay* bug (the scenario does not replay
from its seed: leaked state, wall clock, unordered iteration).  Then it
applies the invariants to the first run's blob, and fails every
:class:`~repro.sim.resources.Resource` the first run left holding a
slot or a waiter (:func:`~repro.analysis.sanitize.unbalanced`; the
blob is untouched).  :func:`gate` wraps any number of entries into one
``repro.gate/v1`` report.

Kernel work is a reviewed number too.  ``gate_events.json``, next to
this module, holds every entry's seed-0 trace entries counted by kind
(:data:`EVENT_KINDS`; their sum is the entry's ``events``).  At seed 0
an entry whose counts moved fails with the old and new totals and each
kind that moved: one whose total grew always fails; one whose total
dropped (or whose kinds moved at an equal total) fails until the file
records the new counts, so a saving lands together with its record.

So are the results.  ``gate_blobs.json`` holds every entry's
``blob_digest`` (the SHA-256 of its canonical blob) at seeds 0 and 1.
At a recorded seed an entry whose blob hashes otherwise fails with the
old and new digests: a change meant to move a result records the new
digest, and any other change leaves every result where it was.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import operator
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Tuple

from repro.analysis.sanitize import (TraceRecorder, _compare, _record,
                                     hash_seed_runs, other_hash_seed)
from repro.core import Slo
from repro.core.config import RdmaConfig
from repro.core.measurement import measure_config
from repro.cplane import run_connection_storm
from repro.cplane.pool import STRATEGIES
from repro.faults import scenarios as chaos
from repro.history import History
from repro.obs.metrics import MetricsRegistry, sample_p99
from repro.shard import HotKeyPolicy, ShardRouter
from repro.tenant import TenantSpec, TenantTier
from repro.workloads.runner import run_router_workload
from repro.workloads.scenarios import build_cluster
from repro.workloads.ycsb import YcsbWorkload

__all__ = ["SCENARIOS", "Scenario", "check", "gate", "tenants_run"]


@dataclass(frozen=True)
class Scenario:
    """A seeded run and the checks its blob must pass."""

    run: Callable[[int], dict]
    invariants: Callable[[dict], List[str]]

    @property
    def doc(self) -> str:
        """First line of the run's docstring (the ``gate`` listing)."""
        lines = (self.run.__doc__ or "").strip().splitlines()
        return lines[0] if lines else ""


def _failed(checks: Iterable[Tuple[bool, str]]) -> List[str]:
    """The messages of the checks that do not hold."""
    return [message for holds, message in checks if not holds]


def _history_failures(prefix: str, history: dict) -> List[str]:
    """A ``history`` outcome's failure lines, and one if it checked no
    read: a vacuous run cannot pass."""
    lines = history["failures"] + (
        [] if history["reads"] else ["history checked no read"])
    return [prefix + line for line in lines]


def _reads_checked(blob: dict) -> int:
    """The reads a blob's history outcomes checked: its own ``history``,
    or each of its tenants runs'."""
    if not isinstance(blob, dict):
        return 0
    runs = [blob] if "history" in blob else [
        blob[run] for run in _TENANT_RUNS if run in blob]
    return sum(run["history"]["reads"] for run in runs)


_SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)


# ----------------------------------------------------------------------
# measure: the sweep hot path
# ----------------------------------------------------------------------

def _measure(seed: int) -> dict:
    """The sweep hot path: one two-sided batched measurement."""
    registry = MetricsRegistry()
    result = measure_config(RdmaConfig(2, 2, 4, 4), 64, seed=seed,
                            batches_per_connection=20, warmup_batches=5,
                            metrics=registry)
    batches = registry.get("engine.batch_weight")
    return {"two-sided": {**asdict(result),
                          "batch_weight_mean": (batches.sum / batches.count
                                                if batches.count else 0.0),
                          "metrics": registry.snapshot()}}


def _measure_invariants(blob: dict) -> List[str]:
    run = blob["two-sided"]
    return _failed([
        (run["ops_measured"] > 0, "two-sided: no ops measured"),
        (0 < run["latency_p50"] <= run["latency_p99"],
         f"two-sided: latency p50 {run['latency_p50']:g} s vs p99 "
         f"{run['latency_p99']:g} s"),
        (run["batch_weight_mean"] > 1,
         f"two-sided run did not batch (mean batch weight "
         f"{run['batch_weight_mean']:g})"),
    ])


# ----------------------------------------------------------------------
# shard: zipfian YCSB across a replicated fleet, then a member kill
# ----------------------------------------------------------------------

def _shard(seed: int) -> dict:
    """Zipfian YCSB on a 4-shard replication=2 fleet, then a member kill."""
    shards, ops, replication = 4, 3000, 2
    region = 1 << 20
    capacity = 2 * region
    record_bytes = 64

    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    client = harness.redy_client("shard-cli")
    members = {
        f"s{i:02d}": client.create(capacity, _SLO, duration_s=3600.0,
                                   region_bytes=region)
        for i in range(shards)
    }
    router = ShardRouter(
        harness.env, members, slot_bytes=1 << 14, replication=replication,
        hedge_after_s=200e-6, hotkeys=HotKeyPolicy())
    seed_bytes = bytes(range(256)) * (capacity // 256)
    router.load(0, seed_bytes)
    history = History(harness.env,
                      lambda addr: seed_bytes[addr:addr + record_bytes], None)

    workload = YcsbWorkload(
        "cli-zipfian", n_records=capacity // record_bytes,
        value_bytes=record_bytes, read_proportion=0.95,
        update_proportion=0.05, distribution="zipfian", theta=0.99)
    keys, is_read = workload.sample_ops(ops, harness.rngs.stream("ycsb"))
    # The router as the workload drives it, each op recorded by the
    # router's completion callback.
    recorded = SimpleNamespace(
        capacity=router.capacity,
        read=lambda addr, size: router.read(
            addr, size, callback=history.invoke(addr, None)),
        write=lambda addr, data: router.write(
            addr, data, callback=history.invoke(addr, data)))
    result = run_router_workload(
        harness.env, recorded, keys=keys, is_read=is_read,
        record_bytes=record_bytes, concurrency=8 * shards)

    victim = sorted(members)[1]
    sampled = range(0, router.n_slots * router.slot_bytes,
                    4 * router.slot_bytes)

    def kill_and_read_back():
        # Write a record per sampled slot, then hard-kill the victim and
        # read every one back through the rebalance.
        for addr in sampled:
            data = bytes([addr // router.slot_bytes % 251]) * record_bytes
            yield from history.require(addr, data, router.write(addr, data))
        for vm in list(members[victim].allocation.vms):
            harness.allocator.fail(vm)
        yield from router.settled()
        for addr in sampled:
            yield from history.require(addr, None,
                                       router.read(addr, record_bytes))

    harness.env.run_process(kill_and_read_back())
    return {
        "schema": "repro.shard/v1",
        "seed": seed,
        "shards": shards,
        "replication": replication,
        "ops": ops,
        "throughput_ops_s": result.throughput,
        "latency_mean_s": result.latency_mean,
        "latency_p99_s": result.latency_p99,
        "reads": result.reads,
        "writes": result.writes,
        "failed": result.failed,
        "hot_slots": {str(slot): list(extras)
                      for slot, extras in sorted(router.hot_slots().items())},
        "victim": victim,
        "history": history.outcome(),
        "rebalance": router.reports[-1].to_dict(),
        "members_after": router.members,
        "metrics": registry.snapshot(),
    }


def _shard_invariants(blob: dict) -> List[str]:
    return _failed([
        (blob["failed"] == 0, f"{blob['failed']} workload ops failed"),
        (blob["rebalance"]["lost_slots"] == 0,
         f"{blob['rebalance']['lost_slots']} slots lost in the rebalance"),
        (blob["victim"] not in blob["members_after"]
         and len(blob["members_after"]) == blob["shards"] - 1,
         f"members after the kill: {blob['members_after']}"),
    ]) + _history_failures("", blob["history"])


# ----------------------------------------------------------------------
# tenants: mixed-SLO tenants, an abusive scavenger, a member kill
# ----------------------------------------------------------------------

def tenants_run(seed: int, ops: int, abusive: bool, kill: bool) -> dict:
    """One multi-tenant run; a pure function of its arguments.

    Three tenants (premium / standard / scavenger) share a 3-member
    replication=1 fleet through a :class:`~repro.tenant.TenantTier`.
    ``abusive`` adds an open-loop scavenger flood at 10x its admitted
    rate; ``kill`` hard-kills one member mid-run.  Every acknowledged
    write is read back once the run settles; ``history`` checks it all.
    """
    region = 1 << 18
    capacity = 2 * region
    record = 64
    namespace = 64 * 1024

    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    client = harness.redy_client("tenant-cli")
    members = {
        f"s{i:02d}": client.create(capacity, _SLO, duration_s=3600.0,
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
    history = History(env, lambda key: seed_bytes[key[1]:key[1] + record],
                      None)

    workers_per_tenant = 4
    latencies: Dict[str, List[float]] = {"prem": [], "std": []}
    failed_reads = {"prem": 0, "std": 0}
    progress = {"done": 0, "killed": False, "live_workers": 0}
    kill_after = ops  # half of the two tracked tenants' combined ops

    def worker(tenant: str, index: int, rng, n_ops: int):
        progress["live_workers"] += 1
        records = namespace // record
        for op in range(n_ops):
            rec = int(rng.integers(0, records))
            # Disjoint per-worker address sets: one writer per key.
            rec = (rec - rec % workers_per_tenant + index) % records
            addr = rec * record
            if op % 4 == 0:
                payload = bytes([(index * 37 + op) % 251]) * record
                yield from history.record((tenant, addr), payload,
                                          tier.write(tenant, addr, payload))
            else:
                result = yield from history.record(
                    (tenant, addr), None, tier.read(tenant, addr, record))
                if result.ok:
                    latencies[tenant].append(result.latency)
                else:
                    failed_reads[tenant] += 1
            progress["done"] += 1
            if (kill and not progress["killed"]
                    and progress["done"] >= kill_after):
                progress["killed"] = True
                for vm in list(members["s01"].allocation.vms):
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

    def settle_and_read_back():
        yield from router.settled()
        while any(tier.tenant(n).degraded for n in tier.tenants):
            yield env.timeout(1e-3)
        for tenant, addr in sorted({op.key for op in history.ops
                                    if op.write and op.ok}):
            yield from history.require((tenant, addr), None,
                                       tier.read(tenant, addr, record))

    env.run_process(settle_and_read_back())

    blob = {
        "schema": "repro.tenants/v1",
        "seed": seed,
        "ops": ops,
        "abusive": abusive,
        "kill": kill,
        "premium_read_p99_s": sample_p99(latencies["prem"]),
        "standard_read_p99_s": sample_p99(latencies["std"]),
        "failed_reads": failed_reads,
        "history": history.outcome(),
        "members_after": router.members,
        "tenants": {name: tier.stats(name) for name in tier.tenants},
        "metrics": registry.snapshot(),
    }
    if kill and router.reports:
        blob["rebalance"] = router.reports[-1].to_dict()
    return blob


#: The ``tenants`` entry's runs: quiet, beside a 10x abuser, then a
#: member kill.
_TENANT_RUNS = ("quiet", "noisy", "kill")


def _tenants(seed: int) -> dict:
    """Mixed-SLO tenants, one :func:`tenants_run` per :data:`_TENANT_RUNS`."""
    return {run: tenants_run(seed, 2400, abusive=run != "quiet",
                             kill=run == "kill") for run in _TENANT_RUNS}


def _tenants_invariants(blob: dict) -> List[str]:
    base = blob["quiet"]["premium_read_p99_s"]
    noisy_p99 = blob["noisy"]["premium_read_p99_s"]
    # Abuse may move the quiet premium p99 by 1.5x, with a 2 us floor
    # for single-collision jitter on small samples.
    budget = max(base * 1.5, base + 2e-6)
    failures = _failed([
        (noisy_p99 <= budget,
         f"abuse moved premium read p99 {base * 1e6:.2f} -> "
         f"{noisy_p99 * 1e6:.2f} us (budget {budget * 1e6:.2f} us)"),
    ])
    for run in _TENANT_RUNS:
        failures += _history_failures(f"{run}: ", blob[run]["history"])
    for run in ("noisy", "kill"):
        stats = blob[run]["tenants"]
        failures += _failed([
            (stats["scav"]["shed"] > 1000,
             f"{run}: abusive scavenger shed only {stats['scav']['shed']}"),
            (stats["prem"]["shed"] == 0,
             f"{run}: quiet premium tenant shed {stats['prem']['shed']}"),
        ] + [(count == 0, f"{run}: {count} {tenant} reads failed")
             for tenant, count in sorted(blob[run]["failed_reads"].items())])
    kill = blob["kill"]
    failures += _failed([
        (len(kill["members_after"]) == 2,
         f"kill: members after the kill: {kill['members_after']}"),
        (kill["tenants"]["prem"]["fail_open_reads"] > 0,
         "kill: no premium read failed open during degradation"),
    ])
    for tenant in ("prem", "std"):
        stats = kill["tenants"][tenant]
        failures += _failed([
            (stats["degradations"] == stats["repromotions"] >= 1,
             f"kill: {tenant} degraded {stats['degradations']}x, "
             f"re-promoted {stats['repromotions']}x"),
            (not stats["degraded"], f"kill: {tenant} is still degraded"),
        ])
    return failures


# ----------------------------------------------------------------------
# connstorm: the pool strategies under a connection storm
# ----------------------------------------------------------------------

def _connstorm(seed: int) -> dict:
    """1 200 sessions in 50 ms: per-client QPs vs pooled vs pooled-lazy."""
    return {strategy: run_connection_storm(seed, clients=1200,
                                           strategy=strategy)
            for strategy in STRATEGIES}


def _connstorm_invariants(blob: dict) -> List[str]:
    failures = []
    for strategy, run in sorted(blob.items()):
        failures += _failed([
            (run["completed"] == run["clients"] and not run["failures"],
             f"{strategy}: {run['completed']}/{run['clients']} sessions, "
             f"{run['failures']} failed reads"),
            (run["leaked_qps"] == run["leaked_client_regions"] == 0,
             f"{strategy}: leaked {run['leaked_qps']} QPs / "
             f"{run['leaked_client_regions']} regions after harvest"),
            (run["pool_totals"].get("demux_misroutes", 0) == 0,
             f"{strategy}: completion demux misrouted"),
        ])
    naive, lazy = blob["per-client"], blob["pooled-lazy"]
    return failures + _failed([
        (lazy["ttfb_us"]["p99"] < naive["ttfb_us"]["p99"],
         f"no p99 win: pooled-lazy {lazy['ttfb_us']['p99']:.1f} us vs "
         f"per-client {naive['ttfb_us']['p99']:.1f} us"),
        (lazy["mr_registrations"] < naive["mr_registrations"],
         f"pooling did not amortize registrations "
         f"({lazy['mr_registrations']} vs {naive['mr_registrations']})"),
    ])


# ----------------------------------------------------------------------
# chaos: the fault-injection scenarios of repro.faults
# ----------------------------------------------------------------------

def _chaos_run(scenario: Callable[[int], chaos.ChaosReport],
               seed: int) -> dict:
    return scenario(seed).to_dict()


def _chaos(scenario: Callable[[int], chaos.ChaosReport]
           ) -> Callable[[int], dict]:
    """The scenario's report as a blob; a partial, so it pickles by
    reference into the hash-seed replay."""
    return functools.update_wrapper(
        functools.partial(_chaos_run, scenario), scenario)


_OPS = {"==": operator.eq, ">=": operator.ge, ">": operator.gt}


def _chaos_invariants(*bounds: Tuple[str, str, object]
                      ) -> Callable[[dict], List[str]]:
    """Summary checks: ``(field, op, bound)``, a str bound naming a field.

    Every scenario must inject at least one fault, and its ``history``
    must check some read and fail none.
    """
    def invariants(blob: dict) -> List[str]:
        summary = blob["summary"]
        failures = _history_failures("", blob["history"])
        for field, op, bound in [("faults_injected", ">=", 1), *bounds]:
            target = summary[bound] if isinstance(bound, str) else bound
            if not _OPS[op](summary[field], target):
                failures.append(f"{field} = {summary[field]:g}, expected "
                                f"{op} {bound}")
        return failures
    return invariants


#: Every gated scenario, in ``gate --all`` order.
SCENARIOS: Dict[str, Scenario] = {
    "measure": Scenario(_measure, _measure_invariants),
    "shard": Scenario(_shard, _shard_invariants),
    "tenants": Scenario(_tenants, _tenants_invariants),
    "connstorm": Scenario(_connstorm, _connstorm_invariants),
    "spot-churn": Scenario(
        _chaos(chaos.churn_run),
        _chaos_invariants(("migrations", ">=", 1))),
    "spot-evict": Scenario(
        _chaos(chaos.spot_evict),
        _chaos_invariants(("failed_probes", "==", 0))),
    "evict-primary": Scenario(
        _chaos(chaos.evict_primary),
        _chaos_invariants(("failed_probes", "==", 0),
                          ("members_after", "==", 1))),
    "link-flap": Scenario(
        _chaos(chaos.link_flap),
        _chaos_invariants(("failed_probes", "==", 0), ("retries", ">", 0))),
    "slow-node": Scenario(
        _chaos(chaos.slow_node),
        _chaos_invariants(("failed_probes", "==", 0))),
    "shard-churn": Scenario(
        _chaos(chaos.shard_churn),
        _chaos_invariants(("failed_probes", "==", 0),
                          ("members_after", "==", 3),
                          ("lost_slots", "==", 0))),
    "conn-storm-rebalance": Scenario(
        _chaos(chaos.conn_storm_rebalance),
        _chaos_invariants(("failed_probes", "==", 0),
                          ("storm_completed", "==", "storm_sessions"),
                          ("demux_misroutes", "==", 0))),
}


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------

#: Every entry's reviewed seed-0 kernel events (see the module doc).
EVENTS_FILE = Path(__file__).with_name("gate_events.json")

#: The trace entry kinds ``gate_events.json`` counts (see
#: :class:`~repro.analysis.sanitize.TraceRecorder`).
EVENT_KINDS = ("spawn", "step", "resume", "trigger", "rng")

#: Every entry's reviewed blob digests at seeds 0 and 1.
BLOBS_FILE = Path(__file__).with_name("gate_blobs.json")


def _canonical(blob: dict) -> str:
    return json.dumps(blob, sort_keys=True)


def _blob_digest(blob: dict) -> str:
    return hashlib.sha256(_canonical(blob).encode()).hexdigest()


def _blob_failures(name: str, seed: int, digest: str) -> List[str]:
    """At a recorded seed, the entry's blob digest must equal the
    recorded one."""
    pinned = json.loads(BLOBS_FILE.read_text()).get(name, {}).get(str(seed))
    if pinned is None or digest == pinned:
        return []
    return [f"blob digest moved {pinned[:16]} -> {digest[:16]} at seed "
            f"{seed}: a change meant to move this result records the new "
            f"digest in {BLOBS_FILE.name}"]


def _event_kinds(run: TraceRecorder) -> Dict[str, int]:
    """The run's trace entries counted by kind."""
    kinds = dict.fromkeys(EVENT_KINDS, 0)
    for entry in run.entries:
        kinds[entry[0]] += 1
    return kinds


def _events_failures(name: str, seed: int,
                     kinds: Dict[str, int]) -> List[str]:
    """Seed 0 only: the entry's events, kind by kind, must equal the
    recorded counts."""
    if seed != 0:
        return []
    pinned = json.loads(EVENTS_FILE.read_text()).get(name)
    if pinned is None or kinds == pinned:
        return []
    moved = ", ".join(f"{kind} {pinned.get(kind, 0)} -> {kinds[kind]}"
                      for kind in EVENT_KINDS
                      if pinned.get(kind, 0) != kinds[kind])
    old, new = sum(pinned.values()), sum(kinds.values())
    if new > old:
        return [f"kernel events grew {old} -> {new} at seed 0 ({moved}; "
                f"{EVENTS_FILE.name})"]
    change = (f"kernel events dropped {old} -> {new}" if new < old
              else f"kernel events held at {new} but moved between kinds")
    return [f"{change} at seed 0 ({moved}): record the new counts in "
            f"{EVENTS_FILE.name}"]


def _ordering(name: str, run: TraceRecorder) -> Tuple[dict, List[str]]:
    """The divergence record and failure line of a misordered run."""
    first = run.first_mismatch
    return ({"kind": "ordering", "entry": name,
             "mismatches": run.mismatches, "dispatches": run.dispatches,
             **first},
            [f"ordering bug: {name} dispatched {run.mismatches} of "
             f"{run.dispatches} entries out of (when, insertion) order; "
             f"first at dispatch {first['dispatch']}: expected "
             f"{first['expected']}, got {first['dispatched']}"])


def _replay(name: str, report, kind: str) -> Tuple[dict, List[str]]:
    """The divergence record and failure lines of two runs that should
    agree and do not: a same-process ``replay``, or the ``hash-seed``
    replay in a child interpreter."""
    if report.deterministic:
        return ({"kind": kind, "entry": name, "runs": report.label},
                [f"{kind} bug: {report.label} traces agree but the blobs "
                 "differ"])
    finding = report.to_findings()
    return ({"kind": kind, "entry": name, "runs": report.label,
             **finding["detail"], "attribution": finding["hint"]},
            [f"{kind} bug: {report.label} {finding['message']}",
             f"attribution: {finding['hint']}"])


def check(name: str, seed: int = 0) -> dict:
    """Gate one registered scenario in this interpreter; returns its
    report entry.

    The entry is ``ok`` only if both runs dispatched in order, traced
    and returned identically, no invariant failed, every Resource ended
    idle, (at seed 0) its kernel events equal the recorded count, and
    (at a recorded seed) its blob digest equals the recorded one.
    """
    scenario = SCENARIOS[name]
    first, blob = _record(scenario.run, seed)
    replay, replay_blob = _record(scenario.run, seed)
    report = _compare(first, replay, seed, f"{name}[run-vs-replay]")
    misordered = first if first.mismatches else replay
    divergence, failures = None, []
    if misordered.mismatches:
        divergence, failures = _ordering(name, misordered)
    elif not report.deterministic or (
            _canonical(replay_blob) != _canonical(blob)):
        divergence, failures = _replay(name, report, "replay")
    failures += scenario.invariants(blob)
    failures += first.unbalanced
    kinds = _event_kinds(first)
    failures += _events_failures(name, seed, kinds)
    blob_digest = _blob_digest(blob)
    failures += _blob_failures(name, seed, blob_digest)
    return {
        "name": name,
        "ok": not failures,
        "events": report.events_a,
        "event_kinds": kinds,
        "digest": report.digest_a,
        "blob_digest": blob_digest,
        "reads_checked": _reads_checked(blob),
        "divergence": divergence,
        "failures": failures,
        "blob": blob,
    }


def _hash_seed(entry: dict, seed: int,
               child: Tuple[str, TraceRecorder]) -> None:
    """Fail ``entry`` when the child interpreter's run, under another
    hash seed, traced otherwise than the entry's runs.  An entry that
    already diverged in this interpreter is left as it is; for one that
    did not, a third run here is the first run again, to bisect
    against."""
    digest, trace = child
    if entry["divergence"] is not None or digest == entry["digest"]:
        return
    first, _ = _record(SCENARIOS[entry["name"]].run, seed)
    label = f"{entry['name']}[run-vs-PYTHONHASHSEED={other_hash_seed()}]"
    entry["divergence"], failures = _replay(
        entry["name"], _compare(first, trace, seed, label), "hash-seed")
    entry["failures"] = failures + entry["failures"]
    entry["ok"] = False


def gate(names: Iterable[str], seed: int = 0) -> dict:
    """Gate several entries into one ``repro.gate/v1`` report.

    Each entry goes through :func:`check` here, and its run is recorded
    once more, alongside, in a fresh interpreter under another
    ``PYTHONHASHSEED`` (:func:`~repro.analysis.sanitize.hash_seed_runs`).
    A trace that differs from the first run's fails the entry with a
    ``hash-seed`` divergence.
    """
    names = list(names)
    entries = []
    with contextlib.closing(hash_seed_runs(
            [SCENARIOS[name].run for name in names], seed)) as children:
        for name in names:
            entry = check(name, seed)
            _hash_seed(entry, seed, next(children))
            entries.append(entry)
    return {
        "schema": "repro.gate/v1",
        "seed": seed,
        "hash_seed": other_hash_seed(),
        "ok": all(entry["ok"] for entry in entries),
        "passed": sum(entry["ok"] for entry in entries),
        "entries": entries,
    }


def format_report(report: dict) -> str:
    """The text view: one line per entry (with the reads its history
    checked), then its failure lines."""
    lines = []
    for entry in report["entries"]:
        if entry["divergence"] is None:
            replay = (f"{entry['events']:>9,} kernel events, in order, "
                      f"replayed (digest {entry['digest'][:16]})")
            if entry["reads_checked"]:
                replay += f", {entry['reads_checked']:,} reads checked"
        else:
            replay = f"{entry['divergence']['kind']} divergence"
        lines.append(f"{'PASS' if entry['ok'] else 'FAIL'} "
                     f"{entry['name']:<21} {replay}")
        lines.extend(f"  - {line}" for line in entry["failures"])
    lines.append(f"gate: {report['passed']}/{len(report['entries'])} "
                 f"passed at seed {report['seed']}")
    return "\n".join(lines)
