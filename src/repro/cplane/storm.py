"""The connection-storm workload: elastic clients arriving in a burst.

``run_connection_storm`` slams one simulated cache tier with N logical
clients arriving inside a short window.  Each client opens a session
(through the configured pool strategy), issues one READ -- the
*time-to-first-byte* measurement, which includes every control-plane
cost the strategy left on the critical path -- lingers briefly, and
closes.  The run then idles past the harvest timeout and reclaims,
so the blob also captures the leak surface (QPs/regions left behind).

This is the ablation the Swift argument predicts: naive per-client QPs
pay QP create + handshake + per-session registration per arrival and
then thrash the NIC's QP-context cache; pooling amortizes setup across
``sessions_per_qp`` arrivals; lazy establishment moves the remaining
handshakes off the open path and overlaps them with the storm.

Deterministic: one seeded RNG stream drawn *before* any process runs,
ids from per-run counters, and the control-plane log digest is part of
the result blob -- same seed, bit-identical blob.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.cplane.plane import ControlPlane
from repro.cplane.pool import PoolPolicy, STRATEGIES
from repro.hardware.profiles import AZURE_HPC
from repro.net.fabric import Fabric
from repro.net.memory import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

__all__ = ["run_connection_storm"]

#: Region each storm server exposes (size-only; the storm measures
#: timing, not cache contents).
_SERVER_REGION_BYTES = 1 << 20
#: Cache servers and client hosts the sessions spread over.
_SERVERS = 2
_CLIENT_HOSTS = 8
#: Bytes each session READ fetches.
_READ_BYTES = 128
#: A session's life after its first byte, over which its follow-up
#: reads spread.
_LINGER_S = 0.002
#: With a prewarm, arrivals start this long after it, so the warm pool
#: can be built before the storm front hits it.
_PREWARM_LEAD_S = 0.005


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 on empty)."""
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    index = min(n - 1, max(0, math.ceil(q * n) - 1))
    return sorted_values[index]


def run_connection_storm(seed: int, *, clients: int = 2000,
                         strategy: str = "pooled-lazy",
                         window_s: float = 0.05,
                         reads_per_session: int = 1,
                         prewarm: int = 0,
                         metrics: Optional[MetricsRegistry] = None) -> Dict:
    """Run one connection storm; returns the canonical result blob."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (have {STRATEGIES})")
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if reads_per_session < 1:
        raise ValueError("reads_per_session must be >= 1")

    # Locals, not globals: the per-session closure below reads them.
    servers, client_hosts = _SERVERS, _CLIENT_HOSTS
    read_bytes, linger_s = _READ_BYTES, _LINGER_S
    env = Environment()
    if metrics is not None:
        metrics.install(env)
    rngs = RngRegistry(seed)
    fabric = Fabric(env, AZURE_HPC, model_control_plane=True)

    server_eps = []
    tokens = []
    for i in range(servers):
        endpoint = fabric.add_endpoint(f"storm-srv{i}")
        region = endpoint.register(MemoryRegion(_SERVER_REGION_BYTES,
                                                backing=False))
        server_eps.append(endpoint)
        tokens.append(region.token)
    host_eps = [fabric.add_endpoint(f"storm-host{j}")
                for j in range(client_hosts)]

    policy = PoolPolicy(strategy=strategy, warm_max=max(64, prewarm))
    plane = ControlPlane(env, fabric, policy=policy)

    # Every random draw happens here, before the first process runs, so
    # the schedule cannot perturb the stream order.
    lead = _PREWARM_LEAD_S if prewarm else 0.0
    rng = rngs.stream("cplane.storm")
    arrivals = sorted(lead + float(rng.uniform(0.0, window_s))
                      for _ in range(clients))

    ttfb: List[Optional[float]] = [None] * clients
    failures = [0]

    if prewarm:
        def prewarm_proc():
            for i in range(min(servers * client_hosts,
                               len(host_eps) * len(server_eps))):
                pool = plane.pool(host_eps[i % client_hosts],
                                  server_eps[i % servers])
                yield from pool.ensure_warm(prewarm)
        env.process(prewarm_proc(), name="storm-prewarm")

    def session_proc(index: int, at: float):
        host = host_eps[index % client_hosts]
        server_index = index % servers
        server = server_eps[server_index]
        yield env.timeout(at)
        session = yield from plane.open_session(host, server)
        pool = plane.pool(host, server)
        offset = (index * read_bytes) % (_SERVER_REGION_BYTES - read_bytes)
        completion = yield pool.session_read(session, tokens[server_index],
                                             offset, read_bytes)
        ttfb[index] = env.now - at
        if not completion.ok:
            failures[0] += 1
        # The session's remaining life: follow-up reads spread across
        # the linger window keep the QP's NIC context warm or thrashing
        # -- depending on how many other QPs are alive.
        gap = linger_s / reads_per_session
        for _ in range(reads_per_session - 1):
            yield env.timeout(gap)
            completion = yield pool.session_read(
                session, tokens[server_index], offset, read_bytes)
            if not completion.ok:
                failures[0] += 1
        yield env.timeout(gap)
        plane.close_session(session)

    for index, at in enumerate(arrivals):
        env.process(session_proc(index, at), name=f"storm-client:{index}")
    env.run()

    # Idle past the harvest timeout, then drain the pools completely
    # (warm target forced to zero: the storm is over, anything still
    # registered afterwards is a leak).
    def idle():
        yield env.timeout(policy.idle_timeout_s * 2)
    env.run_process(idle(), name="storm-idle")
    harvested = 0
    for key in sorted(plane.pools):
        pool = plane.pools[key]
        pool.warm_target = 0
        harvested += pool.harvest()

    observed = sorted(t for t in ttfb if t is not None)
    leaked_qps = len({qp.qp_id for ep in host_eps + server_eps
                      for qp in ep.qps})
    leaked_regions = sum(len(ep.regions) for ep in host_eps)
    cache_stats = {ep.name: ep.qp_context_cache.stats()
                   for ep in server_eps if ep.qp_context_cache is not None}
    pool_stats = {f"{k[0]}->{k[1]}": plane.pools[k].stats()
                  for k in sorted(plane.pools)}
    totals: Dict[str, int] = {}
    for stats in pool_stats.values():
        for key, value in stats.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value

    return {
        "schema": "repro.cplane/v1",
        "seed": seed,
        "strategy": strategy,
        "clients": clients,
        "reads_per_session": reads_per_session,
        "prewarm": prewarm,
        "completed": len(observed),
        "failures": failures[0],
        "ttfb_us": {
            "p50": _percentile(observed, 0.50) * 1e6,
            "p95": _percentile(observed, 0.95) * 1e6,
            "p99": _percentile(observed, 0.99) * 1e6,
            "max": (observed[-1] * 1e6) if observed else 0.0,
            "mean": (sum(observed) / len(observed) * 1e6
                     if observed else 0.0),
        },
        "pool_totals": totals,
        "pools": pool_stats,
        "harvested": harvested,
        "leaked_qps": leaked_qps,
        "leaked_client_regions": leaked_regions,
        "mr_registrations": fabric.mr_registrations,
        "mr_registered_bytes": fabric.mr_registered_bytes,
        "qp_context_caches": cache_stats,
        "log_events": len(plane.log),
        "log_digest": plane.log.digest(),
        "sim_seconds": env.now,
        "qp_establishments": fabric.qp_establishments,
        "qp_context_misses": fabric.qp_context_misses,
    }
