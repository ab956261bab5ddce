"""Chaos scenarios: whole-system runs under injected faults.

Each scenario builds a fresh cluster from a seed, arms a
:class:`~repro.faults.injector.FaultInjector` with a schedule, drives a
probe workload through the cache while the faults land, and returns a
:class:`ChaosReport` -- the fault log, a metrics snapshot, a small
summary and the probes' checked op history (:mod:`repro.history`).
Scenarios are pure functions of the seed; the gate registry
(:mod:`repro.gates`, ``python -m repro gate``) names and checks them.

The scenarios cover the §6 robustness matrix:

* :func:`churn_run` (``spot-churn``) -- Poisson evictions + hard kills
  against a backed cache with retries and auto-recovery (migrate /
  re-populate path);
* :func:`spot_evict` -- notice-based evictions while probes write and
  read back through the cache: every region migrates live, and every
  read-back is checked;
* :func:`evict_primary` -- hard-kill the primary of a 2-way replicated
  cache, a two-member :class:`~repro.shard.router.ShardRouter` at
  ``replication=2`` (the §6.2 failover path);
* :func:`link_flap` -- transient QP error storms the retry policy must
  ride out;
* :func:`slow_node` -- a throttled server plus a fabric latency spike
  (degradation, not failure);
* :func:`shard_churn` -- hard-kill one member of a replicated shard
  fleet (emergency rebalance);
* :func:`conn_storm_rebalance` -- a connection storm lands while a
  member kill forces an emergency rebalance: pooled sessions against
  the corpse must reclaim fast, the storm against survivors must
  complete, and every probe read must return what the history allows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core import Slo
from repro.core.client import RetryPolicy
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultLog
from repro.faults.spec import (
    FaultSchedule,
    LatencySpike,
    LinkDown,
    SlowNode,
    VmKill,
)
from repro.history import History
from repro.obs.metrics import MetricsRegistry, sample_p99
from repro.shard import ShardRouter
from repro.workloads.scenarios import build_cluster

__all__ = ["ChaosReport", "churn_run", "conn_storm_rebalance",
           "evict_primary", "link_flap", "shard_churn", "slow_node",
           "spot_evict"]

REGION = 1 << 20
CAPACITY = 4 * REGION
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)
PROBE_BYTES = 64
#: Window the spot-churn scenarios draw their Poisson evictions over.
CHURN_WINDOW_S = 6.0


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    scenario: str
    seed: int
    log: FaultLog
    metrics: Dict[str, dict]
    summary: Dict[str, float]
    history: dict
    sim_now: float

    def to_dict(self) -> dict:
        """The whole report as one JSON-able ``repro.faults/v1`` blob."""
        return {
            "schema": "repro.faults/v1",
            "scenario": self.scenario,
            "seed": self.seed,
            "sim_seconds": self.sim_now,
            "digest": self.log.digest(),
            "events": [event.to_dict() for event in self.log],
            "summary": self.summary,
            "history": self.history,
            "metrics": self.metrics,
        }


class _ProbeStats:
    """Availability bookkeeping for a stream of probe reads.

    An *unavailability window* opens at the first failed probe after a
    success and closes at the next success -- the client-visible outage,
    which is what §6.2's migrate-vs-replicate trade is about.
    """

    def __init__(self, slo_latency_s: float):
        self.slo_latency_s = slo_latency_s
        self.probes = 0
        self.failures = 0
        self.violations = 0
        self.latencies: List[float] = []
        self.windows: List[float] = []
        self._down_since = None

    def record(self, now: float, result) -> None:
        self.probes += 1
        if result.ok:
            self.latencies.append(result.latency)
            if result.latency > self.slo_latency_s:
                self.violations += 1
            if self._down_since is not None:
                self.windows.append(now - self._down_since)
                self._down_since = None
        else:
            self.failures += 1
            self.violations += 1
            if self._down_since is None:
                self._down_since = now

    def close(self, now: float) -> None:
        if self._down_since is not None:
            self.windows.append(now - self._down_since)
            self._down_since = None

    def summary(self) -> Dict[str, float]:
        return {
            "probes": self.probes,
            "failed_probes": self.failures,
            "slo_violations": self.violations,
            "slo_violation_rate": (self.violations / self.probes
                                   if self.probes else 0.0),
            "unavailability_windows": len(self.windows),
            "unavailable_s": sum(self.windows),
            "max_unavailable_s": max(self.windows, default=0.0),
            "read_p99_s": sample_p99(self.latencies),
        }


def _probe_loop(env, probe: Callable, stats: _ProbeStats, *,
                interval_s: float, until: float):
    """``result = yield from probe()`` (which records its ops in the
    run's history) every ``interval_s`` until ``until``."""
    while env.now < until:
        result = yield from probe()
        stats.record(env.now, result)
        yield env.timeout(interval_s)
    stats.close(env.now)


def _write_then_read(env, name: str, record_bytes: int,
                     write: Callable, read: Callable) -> Callable:
    """A :func:`_probe_loop` probe that writes a uniquely tagged record,
    then reads it back.

    ``write(index, payload)`` and ``read(index)`` are generators that
    record their ops and return the write's and the read-back's result;
    the probe fails with a write that failed.  Probe ``i`` runs as
    process ``f"{name}-{i}"``.
    """
    indices = itertools.count()

    def start():
        """Spawn the next probe's body (outside any sim process, so the
        body reports through ``done``); returns ``done``."""
        done = env.event()
        index = next(indices)

        def body():
            payload = bytes([(index + j) % 251 for j in range(record_bytes)])
            started = env.now
            result = yield from write(index, payload)
            if result.ok:
                result = yield from read(index)
            done.succeed(type(result)(ok=result.ok, data=result.data,
                                      error=result.error,
                                      latency=env.now - started))

        env.process(body(), name=f"{name}-{index}")
        return done

    def probe():
        return (yield start())

    return probe


def _finish(name: str, seed: int, harness, injector: FaultInjector,
            registry: MetricsRegistry, stats: _ProbeStats, history: History,
            extra_summary: Dict[str, float] = None) -> ChaosReport:
    summary = stats.summary()
    if extra_summary:
        summary.update(extra_summary)
    summary["faults_injected"] = float(len(injector.log))
    return ChaosReport(scenario=name, seed=seed, log=injector.log,
                       metrics=registry.snapshot(), summary=summary,
                       history=history.outcome(), sim_now=harness.env.now)


def _backing(capacity: int) -> bytes:
    return bytes(range(256)) * (capacity // 256)


def _history(env, size: int, cache) -> History:
    """A history of ``size``-byte records at addresses of a
    :func:`_backing` cache (or router) ``cache``."""
    return History(env, lambda addr: bytes((addr + i) % 256
                                           for i in range(size)), cache)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def churn_run(seed: int, *, rate_per_s: float = 1.0) -> ChaosReport:
    """Poisson spot churn against one backed cache (§6.2 repopulate).

    The parametric core of the ``spot-churn`` scenario: the availability
    ablation sweeps ``rate_per_s`` through it to trace SLO-violation
    rate and unavailability against fault intensity.
    """
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, provisioning_delay_s=0.25,
                            metrics=registry)
    env = harness.env
    client = harness.redy_client("chaos-app")
    cache = client.create(
        CAPACITY, SLO, duration_s=3600.0,  # finite => spot VMs (§6.1)
        region_bytes=REGION, file=_backing(CAPACITY),
        retry_policy=RetryPolicy(max_attempts=4, attempt_timeout_s=50e-3),
        auto_recover=True)
    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    rng = harness.rngs.stream("faults")
    draw = lambda: FaultSchedule.poisson_evictions(  # noqa: E731
        rate_per_s=rate_per_s, duration_s=CHURN_WINDOW_S, rng=rng,
        start_at=0.5, notice_s=0.5, kill_fraction=0.25)
    schedule = draw()
    while not len(schedule):
        # A Poisson window can come up empty; redraw from the same
        # stream -- still a pure function of the seed -- so a chaos run
        # always injects something.
        schedule = draw()
    injector.arm(schedule, cache=cache)

    stats = _ProbeStats(SLO.max_latency)
    history = _history(env, PROBE_BYTES, cache)
    horizon = max(CHURN_WINDOW_S + 2.0, schedule.horizon + 2.0)
    env.process(_probe_loop(env, lambda: history.record(
        4096, None, cache.read(4096, PROBE_BYTES)), stats,
        interval_s=5e-3, until=horizon), name="chaos-probe")
    env.run(until=horizon + 1.0)
    return _finish("spot-churn", seed, harness, injector, registry, stats,
                   history,
                   {"churn_rate_per_s": rate_per_s,
                    "migrations": float(len(cache.migrations)),
                    "migration_failures": float(cache.migration_failures)})


def spot_evict(seed: int) -> ChaosReport:
    """Spot evictions with writes in flight (live migration, §6.2).

    Notice-based evictions only (no hard kills), so every region
    migrates with its data intact.  Each probe writes a uniquely tagged
    record into one region, then reads it back; the history must accept
    every read-back, written before, during or after a migration.
    """
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, provisioning_delay_s=0.25,
                            metrics=registry)
    env = harness.env
    client = harness.redy_client("chaos-evict-app")
    cache = client.create(
        CAPACITY, SLO, duration_s=3600.0, region_bytes=REGION,
        file=_backing(CAPACITY),
        retry_policy=RetryPolicy(max_attempts=4, attempt_timeout_s=50e-3),
        auto_recover=True)
    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    rng = harness.rngs.stream("faults")
    draw = lambda: FaultSchedule.poisson_evictions(  # noqa: E731
        rate_per_s=1.0, duration_s=CHURN_WINDOW_S, rng=rng,
        start_at=0.5, notice_s=0.5, kill_fraction=0.0)
    schedule = draw()
    while not len(schedule):
        schedule = draw()
    injector.arm(schedule, cache=cache)

    record_bytes = 256
    n_regions = CAPACITY // REGION
    history = _history(env, record_bytes, cache)

    def addr(index):
        return (index % n_regions) * REGION + 4096

    probe = _write_then_read(
        env, "chaos-evict-probe", record_bytes,
        lambda index, payload: history.record(
            addr(index), payload, cache.write(addr(index), payload)),
        lambda index: history.record(
            addr(index), None, cache.read(addr(index), record_bytes)))

    stats = _ProbeStats(SLO.max_latency)
    horizon = max(CHURN_WINDOW_S + 2.0, schedule.horizon + 2.0)
    env.process(_probe_loop(env, probe, stats, interval_s=5e-3,
                            until=horizon),
                name="chaos-probe")
    env.run(until=horizon + 1.0)
    return _finish(
        "spot-evict", seed, harness, injector, registry, stats, history,
        {"migrations": float(len(cache.migrations)),
         "migration_failures": float(cache.migration_failures)})


def evict_primary(seed: int) -> ChaosReport:
    """Kill the primary of a 2-way replicated cache; reads stay up.

    The group is :meth:`ShardRouter.replicated
    <repro.shard.router.ShardRouter.replicated>`: two members on
    disjoint servers, each owning every slot.  The kill departs the
    probed slot's primary through the router's VM-termination hook, the
    probes keep reading the survivor, and the write seeded before the
    kill must be acked and must read back after the horizon.
    """
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, provisioning_delay_s=2.0,
                            metrics=registry)
    env = harness.env
    client = harness.redy_client("chaos-repl-app")
    router = ShardRouter.replicated(client, CAPACITY, SLO,
                                    region_bytes=REGION)
    history = History(env, lambda addr: bytes(PROBE_BYTES), None)
    payload = b"\xa5" * PROBE_BYTES
    env.run_process(history.require(4096, payload,
                                    router.write_io(4096, payload)))
    primary = router.member(
        router.owners_of_slot(4096 // router.slot_bytes)[0]).cache

    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    kills = FaultSchedule([
        VmKill(at=env.now + 1.0, vm_index=i)
        for i in range(len(primary.allocation.vms))
    ])
    injector.arm(kills, cache=primary)

    stats = _ProbeStats(SLO.max_latency)
    horizon = env.now + 3.0
    env.process(_probe_loop(env, lambda: history.record(
        4096, None, router.read(4096, PROBE_BYTES)), stats,
        interval_s=5e-3, until=horizon), name="chaos-probe")
    env.run(until=horizon + 1.0)
    env.run_process(history.require(4096, None,
                                    router.read_io(4096, PROBE_BYTES)))
    return _finish(
        "evict-primary", seed, harness, injector, registry, stats, history,
        {"members_after": float(len(router.members))})


def link_flap(seed: int) -> ChaosReport:
    """Three transient link faults the retry policy rides out."""
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    client = harness.redy_client("chaos-link-app")
    cache = client.create(
        CAPACITY, SLO, region_bytes=REGION, file=_backing(CAPACITY),
        retry_policy=RetryPolicy(max_attempts=6, base_backoff_s=200e-6,
                                 max_backoff_s=2e-3))
    target = cache.allocation.servers[0].endpoint.name
    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    flaps = FaultSchedule([
        LinkDown(at=t, endpoint=target, duration_s=2e-3)
        for t in (1.0, 2.0, 3.0)
    ])
    injector.arm(flaps)

    stats = _ProbeStats(SLO.max_latency)
    history = _history(env, PROBE_BYTES, cache)
    env.process(_probe_loop(env, lambda: history.record(
        4096, None, cache.read(4096, PROBE_BYTES)), stats,
        interval_s=2e-3, until=4.0), name="chaos-probe")
    env.run(until=5.0)
    retries = registry.get("client.retries")
    return _finish(
        "link-flap", seed, harness, injector, registry, stats, history,
        {"retries": retries.value if retries is not None else 0.0})


def slow_node(seed: int) -> ChaosReport:
    """A throttled server plus a fabric-wide latency spike."""
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    client = harness.redy_client("chaos-slow-app")
    cache = client.create(CAPACITY, SLO, region_bytes=REGION,
                          file=_backing(CAPACITY))
    target = cache.allocation.servers[0].endpoint.name
    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    schedule = FaultSchedule([
        SlowNode(at=1.0, endpoint=target, duration_s=1.0, factor=16.0),
        LatencySpike(at=1.5, duration_s=0.5, extra_s=100e-6),
    ])
    injector.arm(schedule)

    stats = _ProbeStats(SLO.max_latency)
    history = _history(env, PROBE_BYTES, cache)
    env.process(_probe_loop(env, lambda: history.record(
        4096, None, cache.read(4096, PROBE_BYTES)), stats,
        interval_s=2e-3, until=3.0), name="chaos-probe")
    env.run(until=4.0)
    return _finish("slow-node", seed, harness, injector, registry, stats,
                   history)


def shard_churn(seed: int) -> ChaosReport:
    """Hard-kill one member of a replicated shard fleet mid-traffic.

    A 4-shard :class:`~repro.shard.router.ShardRouter` (replication=2)
    serves rotating probes while every VM of one member dies at t=1 s.
    The fault wiring must turn the kill into an emergency ring
    departure whose rebalance streams the lost ranges off surviving
    replicas -- the report carries the rebalance stats and the probe
    availability through the event.
    """
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    client = harness.redy_client("chaos-shard-app")
    capacity = 2 * REGION
    members = {
        f"s{i}": client.create(capacity, SLO, duration_s=3600.0,
                               region_bytes=REGION)
        for i in range(4)
    }
    router = ShardRouter(env, members, slot_bytes=1 << 14, replication=2)
    router.load(0, _backing(capacity))

    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    victim = members["s1"]
    kills = FaultSchedule([
        VmKill(at=1.0, vm_index=i)
        for i in range(len(victim.allocation.vms))
    ])
    injector.arm(kills, cache=victim)

    stats = _ProbeStats(SLO.max_latency)
    history = _history(env, PROBE_BYTES, None)
    probe_addrs = itertools.cycle(slot * (1 << 14) + 4096
                                  for slot in range(8))

    def probe_read():
        addr = next(probe_addrs)
        return history.record(addr, None, router.read(addr, PROBE_BYTES))

    env.process(_probe_loop(env, probe_read, stats,
                            interval_s=2e-3, until=3.0),
                name="chaos-probe")
    env.run(until=4.0)
    rebalance = router.reports[-1] if router.reports else None
    return _finish(
        "shard-churn", seed, harness, injector, registry, stats, history,
        {"members_after": float(len(router.members)),
         "rebalances": float(len(router.reports)),
         "rebalance_duration_s": (rebalance.duration if rebalance
                                  else 0.0),
         "rebalance_bytes": (float(rebalance.bytes_moved) if rebalance
                             else 0.0),
         "lost_slots": (float(rebalance.lost_slots) if rebalance
                        else 0.0)})


def conn_storm_rebalance(seed: int) -> ChaosReport:
    """A connection storm lands while a shard rebalance is in flight.

    A 4-member replication=2 :class:`~repro.shard.router.ShardRouter`
    serves write-then-read probes with the control-plane cost model
    switched on (deferred QPs, timed registration, NIC context caches).
    At t=1 s every VM of one member is hard-killed, forcing an
    emergency rebalance -- and right across that window a burst of
    pooled client sessions opens against every member, the corpse
    included.  The :class:`~repro.cplane.plane.ControlPlane` is bound
    to the router, so the rebalance must fast-reclaim every QP pooled
    against the dead endpoint instead of letting sessions rot; storm
    reads against the corpse may fail (counted), but no session may
    hang and **every probe read must return what the op history
    allows** -- no acknowledged router write lost.
    """
    from repro.cplane import ControlPlane, PoolPolicy
    from repro.net.memory import MemoryRegion

    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    # The plane flips the fabric into control-plane modeling *before*
    # the caches attach, so the engine's own QPs take the deferred path
    # too -- the storm and the serving traffic share one cost model.
    plane = ControlPlane(env, harness.fabric,
                         policy=PoolPolicy(strategy="pooled-lazy",
                                           sessions_per_qp=16,
                                           idle_timeout_s=0.2))
    client = harness.redy_client("chaos-storm-app")
    capacity = 2 * REGION
    members = {
        f"s{i}": client.create(capacity, SLO, duration_s=3600.0,
                               region_bytes=REGION)
        for i in range(4)
    }
    router = ShardRouter(env, members, slot_bytes=1 << 14, replication=2,
                         control_plane=plane)
    router.load(0, _backing(capacity))
    plane.start_harvester()

    # Storm targets: one scratch region per member server endpoint (the
    # victim's dies with it -- those reads must error, not hang).
    server_eps = [members[f"s{i}"].allocation.servers[0].endpoint
                  for i in range(4)]
    scratch = [ep.register(MemoryRegion(1 << 16, backing=False))
               for ep in server_eps]
    host_eps = [harness.fabric.add_endpoint(f"storm-host{j}")
                for j in range(4)]

    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    victim = members["s1"]
    kills = FaultSchedule([
        VmKill(at=1.0, vm_index=i)
        for i in range(len(victim.allocation.vms))
    ])
    injector.arm(kills, cache=victim)

    # Storm arrivals: drawn up front from one seeded stream, spread
    # across [0.9 s, 1.4 s) so the burst brackets the kill and overlaps
    # the rebalance.
    storm_clients = 400
    rng = harness.rngs.stream("chaos-storm")
    arrivals = sorted(0.9 + float(rng.uniform(0.0, 0.5))
                      for _ in range(storm_clients))
    storm = {"completed": 0, "read_failures": 0}

    def storm_proc(index: int, at: float):
        host = host_eps[index % len(host_eps)]
        target = index % len(server_eps)
        yield env.timeout(at)
        session = yield from plane.open_session(host, server_eps[target])
        pool = plane.pool(host, server_eps[target])
        for _ in range(2):
            if not session.open:
                break  # pool reclaimed under us (remote died)
            completion = yield pool.session_read(
                session, scratch[target].token, 0, PROBE_BYTES)
            if not completion.ok:
                storm["read_failures"] += 1
            yield env.timeout(1e-3)
        plane.close_session(session)
        storm["completed"] += 1

    for index, at in enumerate(arrivals):
        env.process(storm_proc(index, at), name=f"chaos-storm:{index}")

    # Write-then-read probes through the router: a write acked by the
    # replication layer must read back intact through the kill and the
    # rebalance -- a survivor always holds the slot.
    record_bytes = 128
    history = _history(env, record_bytes, None)

    def addr(index):
        return (index % 8) * (1 << 14) + 4096

    probe = _write_then_read(
        env, "chaos-storm-probe", record_bytes,
        lambda index, payload: history.record(
            addr(index), payload, router.write(addr(index), payload)),
        lambda index: history.record(
            addr(index), None, router.read(addr(index), record_bytes)))

    stats = _ProbeStats(SLO.max_latency)
    env.process(_probe_loop(env, probe, stats, interval_s=2e-3, until=3.0),
                name="chaos-probe")
    env.run(until=4.0)

    rebalance = router.reports[-1] if router.reports else None
    pool_stats = [plane.pools[key].stats() for key in sorted(plane.pools)]
    return _finish(
        "conn-storm-rebalance", seed, harness, injector, registry, stats,
        history,
        {"members_after": float(len(router.members)),
         "rebalances": float(len(router.reports)),
         "lost_slots": (float(rebalance.lost_slots) if rebalance else 0.0),
         "storm_sessions": float(storm_clients),
         "storm_completed": float(storm["completed"]),
         "storm_read_failures": float(storm["read_failures"]),
         "sessions_opened": float(sum(s["opened"] for s in pool_stats)),
         "qps_created": float(sum(s["qps_created"] for s in pool_stats)),
         "qps_reclaimed": float(sum(s["qps_reclaimed"]
                                    for s in pool_stats)),
         "demux_misroutes": float(sum(s["demux_misroutes"]
                                      for s in pool_stats)),
         "cplane_log_events": float(len(plane.log))})
