"""Kernel step budgets: the exact number of event-list entries small runs
dispatch.

Host time on a shared machine is too noisy to gate, but the kernel's
work is deterministic: a change that adds (or saves) dispatches moves
these counts exactly.  When one fails, check that the new count is
intended and update the pin with it.
"""

from repro.core import Slo
from repro.core.config import RdmaConfig
from repro.core.engine import CacheDataPath
from repro.core.measurement import measure_config
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.cplane import CplaneLog, PoolPolicy, QpPool
from repro.hardware import AZURE_HPC
from repro.net import Fabric, MemoryRegion, QueuePair, RdmaOp, WorkRequest
from repro.obs import MetricsRegistry
from repro.shard import ShardRouter
from repro.sim import Environment, Resource
from repro.sim.rng import RngRegistry
from repro.tenant import TenantSpec, TenantTier
from repro.workloads.scenarios import build_cluster, build_faster_store

#: Kernel steps of one uncontended 64 B write then read of the same
#: address on an idle testbed (one-sided configuration).  25 while each
#: op went through the batch ring, the issuer loop and a reap process.
READ_WRITE_STEPS = 21
#: Kernel steps of a small two-sided closed-loop measurement.  2551
#: while an issuer loop and a completion loop ran the batching path;
#: 2469 while a non-inline ring write took separate timeouts for NIC
#: processing and the payload fetch, and before the issue slot was
#: handed on with its credit and CPU-queue place.
MEASURE_STEPS = 2266
#: Kernel steps of one FasterKv read that misses local memory and is
#: served by the Redy tier of the tiered device (14 with the ring hand-off
#: and the reap process).
FASTER_REDY_READ_STEPS = 12
#: Kernel steps of one TenantTier read through a one-member router (15
#: with the ring hand-off and the reap process; 13 while the router ran
#: the member read as a process of its own).
TENANT_READ_STEPS = 11
#: Kernel steps of one uncontended write then read of the same address
#: through a one-member router.  26 while the router ran each member
#: I/O as a process of its own.
ROUTER_WRITE_READ_STEPS = 21
#: Kernel steps of two concurrent 1 MiB writes from one endpoint, on two
#: QPs.  The second queues for the tx link by reservation, which costs
#: no dispatch of its own.  14 while each write's NIC processing and
#: payload fetch were two timeouts.
CONTENDED_WRITES_STEPS = 12
#: Kernel steps of one two-sided batch: issue, request-ring write,
#: server thread, response-ring write, reap, then the connection's
#: response watchdog.  Both ring writes are unsignaled (no completion
#: dispatch on success), and the watchdog is the only deadline entry.
#: 19 while the op went through the issuer and completion loops and
#: its caller resumed from the op's completion event.
TWO_SIDED_BATCH_STEPS = 18
#: Kernel steps of one pooled-lazy session that opens on an established
#: QP, reads once and closes.  7 while the pool's demux fired a second
#: event of its own for the session to wait on.
POOLED_READ_STEPS = 6


def _check(name, pinned, steps):
    assert steps == pinned, (
        f"{name}: kernel steps moved from {pinned} (pinned) to {steps}")


def _steps_of(env, body):
    """Kernel steps ``body`` dispatches, run alone on an idle ``env``."""
    env.run()
    before = env.event_loop_stats()["steps"]
    results = []

    def driver():
        results.append((yield from body()))

    env.process(driver())
    env.run()
    return results[0], env.event_loop_stats()["steps"] - before


def test_uncontended_read_and_write_step_budget():
    harness = build_cluster(seed=0)
    cache = harness.redy_client("budget").create(
        1 << 20, Slo(max_latency=20e-6, min_throughput=2e6, record_size=64),
        region_bytes=1 << 20)

    def body():
        wrote = yield cache.write(4096, b"x" * 64)
        read = yield cache.read(4096, 64)
        return wrote, read

    (wrote, read), steps = _steps_of(harness.env, body)
    assert wrote.ok and read.ok and read.data == b"x" * 64
    _check("one read + one write", READ_WRITE_STEPS, steps)


def test_measure_config_step_budget():
    registry = MetricsRegistry()
    measure_config(RdmaConfig(4, 4, 16, 8), 64, batches_per_connection=20,
                   warmup_batches=5, seed=0, metrics=registry)
    _check("measure_config", MEASURE_STEPS,
           int(registry.get("kernel.steps").value))


def test_faster_read_served_by_redy_step_budget():
    records = 4096
    scenario = build_faster_store("redy", n_records=records, value_bytes=16,
                                  seed=0)
    store, env = scenario.store, scenario.harness.env
    key = next(k for k in range(records)
               if not store.hlog.in_memory(store.index.lookup(k)))
    cpu = Resource(env, slots=1)

    outcome, steps = _steps_of(env, lambda: store.read(key, cpu))
    assert outcome.found and outcome.served_by == "redy"
    _check("one FasterKv read served by Redy", FASTER_REDY_READ_STEPS, steps)


def test_tenant_read_step_budget():
    harness = build_cluster(seed=0)
    member = harness.redy_client("budget").create(
        1 << 19, Slo(max_latency=1e-3, min_throughput=1e5, record_size=512),
        duration_s=3600.0, region_bytes=1 << 18)
    router = ShardRouter(harness.env, {"s00": member}, slot_bytes=1 << 12)
    tier = TenantTier(harness.env, router)
    tier.register(TenantSpec(name="t", namespace_bytes=1 << 14,
                             rate_per_s=100_000.0, burst=32.0))
    tier.load("t", 0, b"y" * 64)

    def body():
        return (yield tier.read("t", 0, 64))

    result, steps = _steps_of(harness.env, body)
    assert result.ok and result.data == b"y" * 64
    _check("one TenantTier read", TENANT_READ_STEPS, steps)


def test_router_write_read_step_budget():
    harness = build_cluster(seed=0)
    member = harness.redy_client("budget").create(
        1 << 19, Slo(max_latency=1e-3, min_throughput=1e5, record_size=512),
        duration_s=3600.0, region_bytes=1 << 18)
    router = ShardRouter(harness.env, {"s00": member}, slot_bytes=1 << 12)

    def body():
        wrote = yield router.write(4096, b"z" * 64)
        read = yield router.read(4096, 64)
        return wrote, read

    (wrote, read), steps = _steps_of(harness.env, body)
    assert wrote.ok and read.ok and read.data == b"z" * 64
    _check("one router write + one read", ROUTER_WRITE_READ_STEPS, steps)


def test_contended_tx_link_step_budget():
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    client = fabric.add_endpoint("client")
    server = fabric.add_endpoint("server")
    size = 1 << 20
    region = server.register(MemoryRegion(2 * size, backing=False))
    qps = [QueuePair(env, client, server, max_depth=1) for _ in range(2)]

    def body():
        events = [qp.post(WorkRequest(RdmaOp.WRITE, region.token,
                                      index * size, size))
                  for index, qp in enumerate(qps)]
        return (yield env.all_of(events))

    completions, steps = _steps_of(env, body)
    assert all(completion.ok for completion in completions)
    _check("two contended 1 MiB writes", CONTENDED_WRITES_STEPS, steps)


def test_two_sided_batch_step_budget():
    rngs = RngRegistry(0)
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    server = CacheServer(env, AZURE_HPC, fabric.add_endpoint("server"),
                         rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC,
                         RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False),
                         fabric.add_endpoint("client"),
                         rngs.stream("client"))
    (token,) = path.attach_server(server, n_regions=1, region_size=4096)

    def body():
        op = EngineOp(is_read=False, size=8, token=token, data=b"2-sided!")
        return (yield from path.io(op))

    result, steps = _steps_of(env, body)
    assert result.ok and server.batches_processed == 1
    _check("one two-sided batch", TWO_SIDED_BATCH_STEPS, steps)


def test_pooled_read_step_budget():
    env = Environment()
    fabric = Fabric(env, AZURE_HPC, model_control_plane=True)
    client = fabric.add_endpoint("client")
    server = fabric.add_endpoint("server")
    region = server.register(MemoryRegion(4096, backing=True))
    region.local_write(0, b"pooled!!")
    pool = QpPool(env, client, server, PoolPolicy(strategy="pooled-lazy"),
                  CplaneLog())

    def body():
        session = yield from pool.open_session()
        completion = yield pool.session_read(session, region.token, 0, 8)
        pool.close_session(session)
        return completion

    # The first session creates the QP and connects it on its read.
    _steps_of(env, body)
    assert client.qps[0].established
    completion, steps = _steps_of(env, body)
    assert completion.ok and completion.data == b"pooled!!"
    assert pool.qps_created == 1
    _check("one pooled-lazy session read", POOLED_READ_STEPS, steps)
