"""The §4.2 ordering guarantee.

"Redy guarantees that all asynchronous requests are executed in order:
requests from an application thread are batched in program order,
batches are delivered in order with reliable RDMA connections, and they
are processed in order by server threads."
"""

import numpy as np
import pytest

from repro.core import RdmaConfig
from repro.core.engine import CacheDataPath
from repro.core.measurement import MeasurementResult, measure_config
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.sim import Environment
from repro.sim.rng import RngRegistry


def make_stack(config, seed=0):
    rngs = RngRegistry(seed)
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    client_ep = fabric.add_endpoint("client", Placement())
    server_ep = fabric.add_endpoint("server", Placement())
    server = CacheServer(env, AZURE_HPC, server_ep, rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, config, client_ep,
                         rngs.stream("client"))
    tokens = path.attach_server(server, n_regions=1, region_size=1 << 16)
    return env, path, tokens[0]


@pytest.mark.parametrize("config", [
    RdmaConfig(1, 0, 1, 8),                              # one-sided, deep
    RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False),   # batched
])
def test_same_thread_writes_execute_in_program_order(config):
    """Burst N overlapping writes to ONE address from one thread: the
    final content must be the LAST write's payload, at any queue depth."""
    env, path, token = make_stack(config)

    def scenario(env):
        ops = [env.process(path.io(
            EngineOp(is_read=False, size=8, token=token, offset=0,
                     data=value.to_bytes(8, "little")), thread_index=0))
            for value in range(16)]
        yield env.all_of(ops)
        read = EngineOp(is_read=True, size=8, token=token, offset=0)
        result = yield from path.io(read, thread_index=0)
        return result.data

    data = env.run_process(scenario(env))
    assert data == (15).to_bytes(8, "little")


@pytest.mark.parametrize("config", [
    RdmaConfig(1, 0, 1, 8),
    RdmaConfig(1, 1, 8, 4, one_sided_fast_path=False),
])
def test_completions_arrive_in_submission_order(config):
    env, path, token = make_stack(config)
    completed = []

    def scenario(env):
        ops = []
        for index in range(24):
            op = EngineOp(is_read=False, size=8, token=token,
                          offset=(index % 8) * 8,
                          data=index.to_bytes(8, "little"))
            running = env.process(path.io(op, thread_index=0))
            running._add_callback(
                lambda ev, index=index: completed.append(index))
            ops.append(running)
        yield env.all_of(ops)

    env.run_process(scenario(env))
    assert completed == sorted(completed)


def test_read_after_write_same_thread_sees_the_write():
    """Program-order read-after-write dependency on one connection."""
    env, path, token = make_stack(RdmaConfig(1, 1, 4, 4,
                                             one_sided_fast_path=False))

    def scenario(env):
        rng = np.random.default_rng(3)
        for round_index in range(20):
            payload = bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
            write = EngineOp(is_read=False, size=8, token=token, offset=32,
                             data=payload)
            read = EngineOp(is_read=True, size=8, token=token, offset=32)
            # Start both back to back WITHOUT waiting for the write.
            env.process(path.io(write, thread_index=0))
            result = yield env.process(path.io(read, thread_index=0))
            assert result.ok
            assert result.data == payload, round_index

    env.run_process(scenario(env))


# -- same-instant ordering pins for the one-sided fast path ------------
#
# A one-sided op takes a queue-depth credit and the thread CPU only once
# the op ahead of it on the connection is posted, and its reap shares
# the thread CPU with later issues.  These pins fix the exact schedule:
# each op's completion instant and result, bare and under the
# dispatch-order check (``tests/conftest.py``).

LOOPS = ["calendar", "heap"]


def _ordering_stack(make_env, config):
    rngs = RngRegistry(0)
    env = make_env()
    fabric = Fabric(env, AZURE_HPC)
    server = CacheServer(env, AZURE_HPC,
                         fabric.add_endpoint("server", Placement()),
                         rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, config,
                         fabric.add_endpoint("client", Placement()),
                         rngs.stream("client"))
    (token,) = path.attach_server(server, n_regions=1, region_size=1 << 16)
    return env, path, token


#: Per op: (completion instant, ok, data, latency) of the burst below.
CONTENDED_BURST = {
    0: (4.009412449977221e-06, True, None, 4.009412449977221e-06),
    1: (4.869344814602161e-06, True, bytes(8), 4.869344814602161e-06),
    2: (5.124130335215074e-06, True, None, 5.124130335215074e-06),
    3: (5.798913305655207e-06, True, (2).to_bytes(8, "little"),
        5.798913305655207e-06),
    4: (8.014378291604322e-06, True, None, 8.014378291604322e-06),
    5: (9.511716046742915e-06, True, (4).to_bytes(8, "little"),
        9.511716046742915e-06),
    6: (9.803754043017488e-06, True, None, 9.303754043017488e-06),
}


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_contended_one_sided_burst_completes_on_pinned_instants(make_env):
    """Six ops start at one instant and a seventh a tick later, on one
    thread with four credits: credits run out, and issues and reaps take
    turns on the thread CPU.  (With two credits every op holding one is
    issuing, so no reap could queue for the CPU between two issues.)"""
    env, path, token = _ordering_stack(make_env, RdmaConfig(1, 0, 1, 4))
    outcome = {}

    def one(index):
        if index == 6:
            yield env.timeout(0.5e-6)
        if index % 2:
            op = EngineOp(is_read=True, size=8, token=token, offset=0)
        else:
            op = EngineOp(is_read=False, size=8, token=token, offset=0,
                          data=index.to_bytes(8, "little"))
        result = yield from path.io(op, thread_index=0)
        outcome[index] = (env.now, result.ok, result.data, result.latency)

    for index in range(7):
        env.process(one(index))
    env.run()
    assert outcome == CONTENDED_BURST


#: The log of a one-sided post to a QP in the error state, with a
#: bystander spawned by the post that takes the thread CPU for 1 us.
ERROR_POST_LOG = [
    ("bystander", 4.518721915169081e-07),
    ("bystander has the cpu", 4.518721915169081e-07),
    ("result", 1.6963868227007902e-06, False, "link down"),
]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_error_state_post_reaps_behind_a_same_instant_bystander(make_env):
    """A post to a QP in the error state completes inside ``post()``;
    its reap still starts behind the entries queued in that instant,
    so a bystander spawned right after the post gets the CPU first."""
    env, path, token = _ordering_stack(make_env, RdmaConfig(1, 0, 1, 2))
    thread = path.threads[0]
    qp = thread.connections["server"].qp
    qp.inject_error("link down")
    log = []
    post = qp.post

    def bystander():
        log.append(("bystander", env.now))
        yield thread.cpu.acquire()
        try:
            log.append(("bystander has the cpu", env.now))
            yield env.timeout(1e-6)
        finally:
            thread.cpu.release()

    def posting(wr):
        event = post(wr)
        env.process(bystander())
        return event

    qp.post = posting

    def one():
        op = EngineOp(is_read=True, size=8, token=token, offset=0)
        result = yield from path.io(op, thread_index=0)
        log.append(("result", env.now, result.ok, result.error))

    env.process(one())
    env.run()
    assert log == ERROR_POST_LOG


#: Each op's (name, return instant, ok, thread CPU holders at return).
HANDED_ON_CREDIT_LOG = [
    ("first", 4.407160156034124e-06, True, 1),
    ("second", 8.822382219481822e-06, True, 0),
]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_caller_resumes_behind_the_credit_its_reap_hands_on(make_env):
    """An op run in its caller's process returns behind what its reap
    queued in that instant: with one credit, the op waiting for it
    starts its issue, and takes the thread CPU, before the first op's
    caller continues."""
    env, path, token = _ordering_stack(make_env, RdmaConfig(1, 0, 1, 1))
    thread = path.threads[0]
    log = []

    def one(name):
        op = EngineOp(is_read=True, size=8, token=token, offset=0)
        result = yield from path.io(op, thread_index=0)
        log.append((name, env.now, result.ok, thread.cpu.in_use))

    env.process(one("first"))
    env.process(one("second"))
    env.run()
    assert log == HANDED_ON_CREDIT_LOG


# -- batch-boundary pins for the batching path --------------------------
#
# A burst of weight-1 writes on thread 0.  The issue-slot holder gathers
# the ops queued behind it, up to ``b``, into one request batch; these
# pins fix each batch's op count, each op's latency and an upper bound on
# the kernel steps (the count when an issuer loop and a completion loop
# ran this path; it may only fall).

_A, _B, _C = (6.045821762200614e-06, 1.2197984090415067e-05,
              1.777923048727792e-05)
_D, _E, _F = (6.0460674639994996e-06, 7.40499885893378e-06,
              1.207163495694511e-05)
_G, _H, _I = (1.0624889473607993e-05, 1.6537426646416487e-05,
              2.0657689150261517e-05)
_J, _K, _L = (2.689082602680596e-05, 5.8984729703900104e-05,
              6.393159780029906e-05)

#: id -> (config, ops, start spacing in s, batch op counts, per-op
#: latencies, most kernel steps).
BATCH_BURSTS = {
    "one-full-batch": (
        RdmaConfig(1, 1, 8, 4), 8, 0.0, [8],
        [7.029817774457128e-06] * 8, 37),
    "one-credit": (
        RdmaConfig(1, 1, 4, 1), 9, 0.0, [4, 4, 1],
        [_A] * 4 + [_B] * 4 + [_C], 70),
    "two-credits": (
        RdmaConfig(1, 1, 4, 2), 12, 0.0, [4, 4, 4],
        [_D] * 4 + [_E] * 4 + [_F] * 4, 74),
    # Ops that arrive during a credit wait form the next batch.
    "arrivals-during-credit-wait": (
        RdmaConfig(1, 1, 4, 1), 9, 0.5e-6, [1, 1, 4, 3],
        [5.617424753008228e-06, 1.083372579523806e-05,
         1.6345475315307475e-05, 1.5845475315307477e-05,
         1.5345475315307475e-05, 1.4845475315307476e-05,
         2.1208856407765848e-05, 2.070885640776585e-05,
         2.020885640776585e-05], 96),
    # The reap's cross-NUMA hop runs under the thread's reap slot.
    "numa-hop": (
        RdmaConfig(1, 1, 4, 2, numa_affinity=False), 12, 0.0, [4, 4, 4],
        [_G] * 4 + [_H] * 4 + [_I] * 4, 79),
    # Lock jitter is drawn before the issue's noise, per batch.
    "numa-hop-and-locks": (
        RdmaConfig(1, 1, 4, 2, lock_free=False, numa_affinity=False),
        12, 0.0, [4, 4, 4], [_J] * 4 + [_K] * 4 + [_L] * 4, 80),
}


@pytest.mark.parametrize("burst", sorted(BATCH_BURSTS))
@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_burst_forms_pinned_batches(make_env, burst):
    config, n_ops, spacing, batches, latencies, most_steps = \
        BATCH_BURSTS[burst]
    env, path, token = _ordering_stack(make_env, config)
    server = path.threads[0].connections["server"].server
    ring = server._connections[0].request_ring
    deliver, sizes = ring._mailbox, []

    def mailbox(batch):
        sizes.append(len(batch.ops))
        deliver(batch)

    ring.attach_mailbox(mailbox)
    latency = {}

    def one(index):
        if spacing:
            yield env.timeout(index * spacing)
        result = yield from path.io(EngineOp(
            is_read=False, size=8, token=token, offset=8 * index,
            data=index.to_bytes(8, "little")), thread_index=0)
        assert result.ok
        latency[index] = result.latency

    for index in range(n_ops):
        env.process(one(index))
    env.run()
    assert sizes == batches
    assert [latency[index] for index in range(n_ops)] == latencies
    assert env.event_loop_stats()["steps"] <= most_steps


#: A closed-loop measurement whose callers draw lock jitter from the
#: engine RNG between ops: its result moves if a caller returns ahead
#: of what its reap queued, or if a reap takes the thread CPU before the
#: reap ahead of it has finished.
CONTENDED_MEASUREMENT = MeasurementResult(
    latency_mean=9.650444653649009e-05, latency_p50=7.574939356602787e-05,
    latency_p99=0.0003227272292189125, throughput=299232.0626134279,
    ops_measured=268, duration=0.0008956259488349817)


def test_contended_measurement_keeps_its_pinned_result():
    assert measure_config(
        RdmaConfig(2, 2, 4, 4, lock_free=False), 64,
        batches_per_connection=30, warmup_batches=5, seed=1,
    ) == CONTENDED_MEASUREMENT
