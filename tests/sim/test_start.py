"""``Environment.start``: a process whose first step runs inside the caller.

An event callback that starts a process where a waiter on that event
would have been resumed saves the waiter's bootstrap step and moves
nothing else.  These tests pin what ``start`` keeps from
``Environment.process``: recycling, joins, failure routing, monitor
hooks, and the reference dispatch order.
"""

import pytest

from repro.analysis.sanitize import KernelMonitor, _record
from repro.core import Slo
from repro.sim import Environment, US
from repro.workloads.scenarios import build_cluster


#: Every case runs bare and under the dispatch-order check (see
#: ``tests/conftest.py``).
LOOPS = ["calendar", "heap"]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
@pytest.mark.parametrize("spawn", ["start", "process"])
def test_start_runs_before_queued_entries_without_a_bootstrap(make_env,
                                                              spawn):
    env = make_env()
    log = []
    trigger = env.event()

    def body():
        log.append("body")
        yield env.timeout(1 * US)

    def bystander():
        log.append("bystander")
        yield env.timeout(1 * US)

    def kicker():
        yield env.timeout(1 * US)
        trigger.succeed()
        env.process(bystander())  # queued behind the trigger's dispatch

    spawn_fn = env.start if spawn == "start" else env.process
    trigger._add_callback(lambda _event: spawn_fn(body(), name="body"))
    env.process(kicker())
    env.run()
    stats = env.event_loop_stats()
    if spawn == "start":
        assert log == ["body", "bystander"]
        # Two bootstraps, three timeouts, the trigger: no body bootstrap.
        assert stats["steps"] == 6
    else:
        assert log == ["bystander", "body"]
        assert stats["steps"] == 7


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_unreferenced_finish_is_recycled_without_an_entry(make_env):
    env = make_env()
    trigger = env.timeout(1 * US)

    def body():
        yield env.timeout(1 * US)

    trigger._add_callback(lambda _event: env.start(body()))
    env.run()
    stats = env.event_loop_stats()
    # The two timeouts are the only entries: no bootstrap, no exit.
    assert (stats["steps"], stats["events"]) == (2, 2)
    assert len(env._process_free) == 1
    assert env._process_free[0].processed


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_first_step_finish_keeps_its_entry(make_env):
    # start hands its process to the caller, who may join it later, so a
    # finish inside start itself must not be recycled.
    env = make_env()
    started = []

    def body():
        return "early"
        yield

    env.timeout(1 * US)._add_callback(
        lambda _event: started.append(env.start(body())))
    env.run()
    assert started[0].processed and started[0].value == "early"
    assert started[0] not in env._process_free
    assert env.event_loop_stats()["events"] == 2


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
@pytest.mark.parametrize("join", ["same-instant", "later"])
def test_held_finish_joined_later_keeps_its_order(make_env, join):
    env = make_env()
    log = []
    held = []

    def child():
        yield env.timeout(1 * US)
        log.append("child")
        return "done"

    def bystander(tag):
        log.append(tag)
        yield env.timeout(0)
        log.append(tag + "+")

    def joiner():
        yield env.timeout(2 * US)
        env.process(bystander("a"))
        if join == "same-instant":
            yield env.timeout(0)
        else:
            yield env.timeout(1 * US)
            env.process(bystander("b"))
        value = yield held[0]
        log.append(("joined", value, env.now))

    env.timeout(1 * US)._add_callback(
        lambda _event: held.append(env.start(child(), name="child")))
    env.process(joiner())
    env.run()
    if join == "same-instant":
        assert log == ["child", "a", ("joined", "done", 2 * US), "a+"]
    else:
        assert log == ["child", "a", "a+", "b", ("joined", "done", 3 * US),
                       "b+"]
    assert held[0] not in env._process_free


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_first_step_exception_reaches_on_process_failure(make_env):
    env = make_env()
    failures = []
    env.on_process_failure = lambda proc, exc: failures.append(
        (proc.name, str(exc), env.now))

    def broken():
        raise RuntimeError("boom")
        yield

    def after():
        yield env.timeout(1 * US)
        failures.append("kernel kept running")

    env.timeout(1 * US)._add_callback(
        lambda _event: env.start(broken(), name="broken"))
    env.process(after())
    env.run()
    assert failures == [("broken", "boom", 1 * US), "kernel kept running"]


class _Monitor(KernelMonitor):
    def __init__(self):
        self.calls = []

    def on_spawn(self, process):
        self.calls.append(("spawn", process.name))

    def on_step(self, process):
        self.calls.append(("step", process.name))

    def on_resume(self, process, event):
        self.calls.append(("resume", process.name))


def test_monitor_sees_spawn_then_step():
    env = Environment()
    monitor = env.monitor = _Monitor()

    def body():
        yield env.timeout(1 * US)

    env.timeout(1 * US)._add_callback(
        lambda _event: env.start(body(), name="body"))
    env.run()
    assert monitor.calls == [("spawn", "body"), ("step", "body"),
                             ("resume", "body")]


def _one_sided_round_trip(seed):
    harness = build_cluster(seed=seed)
    cache = harness.redy_client("start").create(
        1 << 20, Slo(max_latency=20e-6, min_throughput=2e6, record_size=64),
        region_bytes=1 << 20)

    def driver():
        wrote = yield cache.write(4096, b"s" * 64)
        read = yield cache.read(4096, 64)
        return [wrote.ok, read.ok, read.data == b"s" * 64, harness.env.now]

    return harness.env.run_process(driver())


def test_in_process_reap_replays_in_order():
    first, blob = _record(_one_sided_round_trip, 0)
    replay, replay_blob = _record(_one_sided_round_trip, 0)
    assert blob == replay_blob and blob[:3] == [True, True, True]
    assert first.entries == replay.entries
    assert first.dispatches > 0 and first.mismatches == 0
    # Each I/O runs as a callback record that issues, posts and reaps
    # its verb itself, and the verb runs as a chain of timeout
    # callbacks: the top-level process is the only process.
    spawns = [entry[2] for entry in first.entries if entry[0] == "spawn"]
    assert spawns == ["driver"]
