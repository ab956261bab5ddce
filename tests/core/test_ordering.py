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


def _ordering_stack(make_env, queue_depth):
    rngs = RngRegistry(0)
    env = make_env()
    fabric = Fabric(env, AZURE_HPC)
    server = CacheServer(env, AZURE_HPC,
                         fabric.add_endpoint("server", Placement()),
                         rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, RdmaConfig(1, 0, 1, queue_depth),
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
    env, path, token = _ordering_stack(make_env, queue_depth=4)
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
    env, path, token = _ordering_stack(make_env, queue_depth=2)
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
    env, path, token = _ordering_stack(make_env, queue_depth=1)
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
