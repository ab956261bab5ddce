"""Scheduler-equivalence suite: default loop vs the reference heap.

The default loop's same-instant deque (DESIGN.md §5h) is a pure
wall-clock optimization: the ``(when, sequence)`` dispatch order must
be *identical* to the binary heap's, byte for byte, on any workload.
These tests pin that property the strong way -- randomized workloads
exercising every kernel primitive run once per scheduler under a full
trace recorder, and the traces, application logs, clocks, and
event-loop statistics must all match exactly.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import TraceRecorder
from repro.sim import (
    Environment,
    Resource,
    SimulationError,
    Store,
    US,
    set_default_scheduler,
)

SCHEDULERS = ("heap", "calendar")


def _mixed_workload(env, rng, log):
    """Spawn a randomized tangle of every kernel primitive.

    All randomness is drawn from ``rng`` (seeded by the caller), partly
    at build time and partly inside running processes; if the two
    schedulers ever dispatched differently, the in-process draws would
    diverge too and the logs would disagree loudly.
    """
    store = Store(env)
    resource = Resource(env, slots=2)
    gate = env.event()
    doomed = env.event()

    def sleeper(tag, rounds):
        for index in range(rounds):
            yield env.timeout(float(rng.integers(0, 50)) * 0.1 * US)
            log.append(("sleep", tag, index, env.now))

    def producer(tag, rounds):
        for index in range(rounds):
            yield env.timeout(float(rng.integers(0, 30)) * 0.1 * US)
            yield store.put((tag, index))

    def consumer(tag, rounds):
        for _ in range(rounds):
            item = yield store.get()
            log.append(("got", tag, item, env.now))
            yield env.timeout(float(rng.integers(0, 10)) * 0.1 * US)

    def worker(tag):
        yield resource.acquire()
        try:
            yield env.timeout(float(rng.integers(1, 20)) * 0.1 * US)
            log.append(("worked", tag, env.now))
        finally:
            resource.release()

    def racer(tag):
        hedge = float(rng.integers(0, 100)) * 0.1 * US
        winner = yield env.any_of(
            [env.timeout(5 * US, "slow"), env.timeout(hedge, "hedge")])
        log.append(("race", tag, winner, env.now))

    def gatherer(tag):
        values = yield env.all_of(
            [env.timeout(1 * US, "a"), env.timeout(1 * US, "b"),
             env.timeout(float(rng.integers(0, 40)) * 0.1 * US, "c")])
        log.append(("gather", tag, tuple(values), env.now))

    def opener():
        yield env.timeout(2 * US)
        gate.succeed("open")

    def gate_waiter(tag):
        value = yield gate
        log.append(("gate", tag, value, env.now))

    def zero_chain(tag, depth):
        # Same-instant cascades: the deque fast path must still respect
        # global FIFO order against everything else queued at `now`.
        for index in range(depth):
            yield env.timeout(0.0)
            log.append(("zero", tag, index, env.now))

    def victim(tag):
        # Event.fail -> _enqueue: the failure is thrown in at the yield.
        try:
            yield doomed
            log.append(("undisturbed", tag, env.now))
        except RuntimeError as exc:
            log.append(("failed", tag, str(exc), env.now))

    def failer(delay):
        yield env.timeout(delay)
        doomed.fail(RuntimeError("poke"))

    def joiner(tag, target):
        value = yield target
        log.append(("joined", tag, value, env.now))

    for index in range(int(rng.integers(2, 5))):
        env.process(sleeper(f"s{index}", int(rng.integers(2, 6))),
                    name=f"sleeper{index}")
    pairs = int(rng.integers(1, 4))
    for index in range(pairs):
        env.process(producer(f"p{index}", 3), name=f"producer{index}")
        env.process(consumer(f"c{index}", 3), name=f"consumer{index}")
    for index in range(int(rng.integers(2, 6))):
        env.process(worker(f"w{index}"), name=f"worker{index}")
    for index in range(int(rng.integers(1, 4))):
        env.process(racer(f"r{index}"), name=f"racer{index}")
    env.process(gatherer("g0"), name="gatherer")
    env.process(opener(), name="opener")
    for index in range(int(rng.integers(1, 4))):
        env.process(gate_waiter(f"gw{index}"), name=f"gatewaiter{index}")
    env.process(zero_chain("z0", int(rng.integers(2, 8))), name="zerochain")
    env.process(victim("v0"), name="victim")
    env.process(failer(1.5 * US), name="failer")
    env.process(joiner("j0", env.process(sleeper("js", 3), name="joinee")),
                name="joiner")


def _run_traced(scheduler, seed, until=None):
    env = Environment(scheduler=scheduler)
    recorder = TraceRecorder()
    env.monitor = recorder
    log = []
    _mixed_workload(env, np.random.default_rng(seed), log)
    env.run(until=until)
    # Detach before the env is dropped: when a run stops at `until`
    # with processes still suspended, gc later closes their generators
    # (GeneratorExit -> `finally: release()` -> succeed()), and those
    # teardown triggers would land in the trace at gc-determined times.
    env.monitor = None
    return list(recorder.entries), log, env.now, env.event_loop_stats()


@pytest.mark.parametrize("seed", range(12))
def test_random_workloads_dispatch_identically(seed):
    trace_h, log_h, now_h, stats_h = _run_traced("heap", seed)
    trace_c, log_c, now_c, stats_c = _run_traced("calendar", seed)
    assert trace_h == trace_c
    assert log_h == log_c
    assert now_h == now_c
    assert stats_h == stats_c
    assert stats_h["events"] > 50  # the workload actually did something


@pytest.mark.parametrize("seed", range(4))
def test_run_until_boundary_identical(seed):
    # Stopping mid-run at an arbitrary boundary must leave both
    # schedulers at the same clock with the same pending population.
    results = {}
    for scheduler in SCHEDULERS:
        results[scheduler] = _run_traced(scheduler, seed, until=1.7 * US)
    trace_h, log_h, now_h, stats_h = results["heap"]
    trace_c, log_c, now_c, stats_c = results["calendar"]
    assert trace_h == trace_c
    assert log_h == log_c
    assert now_h == now_c == pytest.approx(1.7 * US)
    assert stats_h == stats_c


@pytest.mark.parametrize("seed", range(4))
def test_reentrant_run_identical(seed):
    # run(until), spawn more work, run() again: the default loop's
    # carried-over state (the future-entry heap and the now-deque)
    # must resume exactly where the reference heap would.
    def staged(scheduler):
        env = Environment(scheduler=scheduler)
        recorder = TraceRecorder()
        env.monitor = recorder
        log = []
        rng = np.random.default_rng(seed)
        _mixed_workload(env, rng, log)
        env.run(until=2 * US)
        _mixed_workload(env, rng, log)  # second wave, mid-flight
        env.run()
        env.monitor = None  # see _run_traced: keep gc teardown out
        return list(recorder.entries), log, env.now, env.event_loop_stats()

    assert staged("heap") == staged("calendar")


@pytest.mark.parametrize("seed", range(3))
def test_wide_delay_spread_identical(seed):
    # Log-uniform delays over 12 decades keep hundreds of entries at
    # wildly different timestamps on the default loop's heap at once,
    # so its ordering is exercised at depth rather than one entry at a
    # time, against the reference heap's identical order.
    def spread(scheduler):
        env = Environment(scheduler=scheduler)
        rng = np.random.default_rng(seed)
        fired = []

        def waiter(tag, delay):
            yield env.timeout(delay)
            fired.append((tag, env.now))

        delays = 10.0 ** rng.uniform(-9.0, 3.0, size=600)
        for tag, delay in enumerate(delays):
            env.process(waiter(tag, float(delay)), name=f"w{tag}")
        env.run()
        return fired, env.now, env.event_loop_stats()

    assert spread("heap") == spread("calendar")


def test_equal_timestamps_keep_creation_order():
    # Thousands of entries at identical timestamps: the tie-break is
    # the scheduling sequence number, which the default loop's deque
    # encodes as FIFO order.  Any instability shows up as a permutation here.
    def burst(scheduler):
        env = Environment(scheduler=scheduler)
        fired = []

        def waiter(tag, delay):
            yield env.timeout(delay)
            fired.append(tag)

        for tag in range(500):
            env.process(waiter(tag, (tag % 5) * US), name=f"b{tag}")
        env.run()
        return fired

    order_heap = burst("heap")
    assert order_heap == burst("calendar")
    assert sorted(order_heap) == list(range(500))


def test_timeout_at_same_instant_fifo_identical():
    # Absolute-instant timeouts interleaved with relative ones at shared
    # instants: both loops fire them in scheduling order.
    def burst(scheduler):
        env = Environment(scheduler=scheduler)
        fired = []

        def waiter(tag, when):
            if tag % 2:
                yield env.timeout_at(when)
            else:
                yield env.timeout(when - env.now)
            fired.append((tag, env.now))

        for tag in range(300):
            env.process(waiter(tag, (tag % 3) * US), name=f"a{tag}")
        env.run()
        return fired, env.event_loop_stats()

    fired_heap, stats_heap = burst("heap")
    assert (fired_heap, stats_heap) == burst("calendar")
    order = [tag for tag, _ in fired_heap]
    assert order == sorted(order, key=lambda tag: (tag % 3, tag))


def test_timeout_at_now_queues_behind_entries_already_due():
    def run(scheduler):
        env = Environment(scheduler=scheduler)
        fired = []

        def early(tag):
            # Scheduled for 1us before the clock gets there.
            yield env.timeout(1 * US)
            fired.append(tag)

        def late():
            yield env.timeout(1 * US)
            fired.append("late")
            # Due now, and behind "early1", which is due now as well.
            yield env.timeout_at(env.now)
            fired.append("at-now")

        env.process(early("early0"))
        env.process(late())
        env.process(early("early1"))
        env.run()
        return fired

    assert run("heap") == run("calendar") == [
        "early0", "late", "early1", "at-now"]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_timeout_at_in_the_past_raises(scheduler):
    env = Environment(scheduler=scheduler)
    env.run(until=2 * US)
    with pytest.raises(SimulationError):
        env.timeout_at(1 * US)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_timeout_at_fires_at_the_exact_instant(scheduler):
    # now + (when - now) rounds away from `when` here, so a relative
    # timeout could not hit it.
    now, when = 1 * 0.1 * US, 12 * 0.1 * US
    assert now + (when - now) != when
    env = Environment(scheduler=scheduler)
    env.run(until=now)

    def waiter():
        yield env.timeout_at(when)
        return env.now

    assert env.run_process(waiter()) == when


def test_freelist_reuse_preserves_event_payloads():
    # The default run loop recycles processed Event/Timeout shells
    # through freelists.  Reuse must be invisible: every wait gets the
    # value that was armed for it, never a stale slot from a previous
    # occupant.
    env = Environment(scheduler="calendar")
    received = []

    def looper():
        for index in range(2000):
            value = yield env.timeout(0.1 * US, ("payload", index))
            received.append(value)
            event = env.event()
            event.succeed(index * 3)
            got = yield event
            received.append(got)

    env.run_process(looper())
    expected = []
    for index in range(2000):
        expected.append(("payload", index))
        expected.append(index * 3)
    assert received == expected


def test_scheduler_choice_is_constructor_fixed():
    previous = set_default_scheduler("heap")
    try:
        env = Environment()
        assert env.scheduler == "heap"
        # Changing the default later must not retarget a live env.
        set_default_scheduler("calendar")
        assert env.scheduler == "heap"
        assert Environment().scheduler == "calendar"
    finally:
        set_default_scheduler(previous)


def test_unknown_scheduler_rejected():
    with pytest.raises(SimulationError):
        Environment(scheduler="splay-tree")
    with pytest.raises(SimulationError):
        set_default_scheduler("splay-tree")


def test_set_default_scheduler_returns_previous():
    first = set_default_scheduler("heap")
    try:
        assert set_default_scheduler(None) == "heap"  # None restores
        assert Environment().scheduler == "calendar"
    finally:
        set_default_scheduler(first)
