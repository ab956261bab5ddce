"""Dispatch-order suite: the event loop vs the reference heap.

The loop's same-instant deque (DESIGN.md §5h) is a pure wall-clock
optimization: its dispatch order must be exactly the ``(when,
insertion)`` order of one binary heap, on any workload.  The reference
heap is :class:`~repro.analysis.sanitize.DispatchOrder`, a kernel
monitor that sees every insertion and every dispatch.  These tests pin
the property the strong way -- randomized workloads exercising every
kernel primitive run under the check, which must agree with every
dispatch and hold exactly the entries still pending on the kernel's
event list, while the application logs, clocks and event-loop
statistics match an unchecked run.  A mutated loop must fail the check.
"""

from collections import deque

import numpy as np
import pytest

from repro.analysis.sanitize import DispatchOrder
from repro.sim import Environment, Resource, SimulationError, Store, US

#: Every case runs bare and under the dispatch-order check (see
#: ``tests/conftest.py``).
LOOPS = ["calendar", "heap"]


def _mixed_workload(env, rng, log):
    """Spawn a randomized tangle of every kernel primitive.

    All randomness is drawn from ``rng`` (seeded by the caller), partly
    at build time and partly inside running processes; if the check
    ever changed what the loop dispatched, the in-process draws would
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


def _checked_env(checked):
    env = Environment()
    check = None
    if checked:
        check = env.monitor = DispatchOrder()
    return env, check


def _in_order(env, check):
    """The check agreed with every dispatch, and its reference heap
    holds exactly the kernel's pending entries, in dispatch order."""
    assert check.dispatches == env.event_loop_stats()["steps"] > 0
    assert check.mismatches == 0, check.first_mismatch
    now = env.now
    near = sorted(env._near, key=lambda entry: entry[:2])
    kernel = ([(when, fn, arg) for when, _, fn, arg in near if when <= now]
              + [(now, fn, arg) for fn, arg in env._immediate]
              + [(when, fn, arg) for when, _, fn, arg in near if when > now])
    shadow = [(when, fn, arg) for when, _, fn, arg in
              sorted(check.pending.get(env, ()), key=lambda e: e[:2])]
    assert len(shadow) == len(kernel)
    assert all(a[0] == b[0] and a[1] is b[1] and a[2] is b[2]
               for a, b in zip(shadow, kernel))
    return len(kernel)


def _run_mixed(seed, checked, until=None):
    env, check = _checked_env(checked)
    log = []
    _mixed_workload(env, np.random.default_rng(seed), log)
    env.run(until=until)
    pending = _in_order(env, check) if checked else None
    # Detach before the env is dropped: when a run stops at `until`
    # with processes still suspended, gc later closes their generators
    # (GeneratorExit -> `finally: release()` -> succeed()), and those
    # teardown entries would reach the check at gc-determined times.
    env.monitor = None
    return log, env.now, env.event_loop_stats(), pending


@pytest.mark.parametrize("seed", range(12))
def test_random_workloads_dispatch_identically(seed):
    log, now, stats, pending = _run_mixed(seed, checked=True)
    assert pending == 0
    assert (log, now, stats, None) == _run_mixed(seed, checked=False)
    assert stats["steps"] > 50  # the workload actually did something


@pytest.mark.parametrize("seed", range(4))
def test_run_until_boundary_identical(seed):
    # Stopping mid-run at an arbitrary boundary leaves the check holding
    # exactly the kernel's pending population, at the same clock.
    log, now, stats, pending = _run_mixed(seed, checked=True, until=1.7 * US)
    assert pending > 0
    assert now == pytest.approx(1.7 * US)
    assert (log, now, stats, None) == _run_mixed(seed, checked=False,
                                                 until=1.7 * US)


@pytest.mark.parametrize("seed", range(4))
def test_reentrant_run_identical(seed):
    # run(until), spawn more work, run() again: the loop's carried-over
    # state (the future-entry heap and the now-deque) must resume
    # exactly where the reference heap does.
    def staged(checked):
        env, check = _checked_env(checked)
        log = []
        rng = np.random.default_rng(seed)
        _mixed_workload(env, rng, log)
        env.run(until=2 * US)
        if checked:
            assert _in_order(env, check) > 0
        _mixed_workload(env, rng, log)  # second wave, mid-flight
        env.run()
        if checked:
            assert _in_order(env, check) == 0
        env.monitor = None  # see _run_mixed: keep gc teardown out
        return log, env.now, env.event_loop_stats()

    assert staged(True) == staged(False)


@pytest.mark.parametrize("seed", range(3))
def test_wide_delay_spread_identical(seed):
    # Log-uniform delays over 12 decades keep hundreds of entries at
    # wildly different timestamps on the loop's heap at once, so its
    # ordering is checked at depth rather than one entry at a time.
    env, check = _checked_env(True)
    rng = np.random.default_rng(seed)
    fired = []

    def waiter(tag, delay):
        yield env.timeout(delay)
        fired.append((tag, env.now))

    delays = 10.0 ** rng.uniform(-9.0, 3.0, size=600)
    for tag, delay in enumerate(delays):
        env.process(waiter(tag, float(delay)), name=f"w{tag}")
    env.run(until=float(np.median(delays)))
    assert _in_order(env, check) > 200
    env.run()
    _in_order(env, check)
    assert [now for _, now in fired] == sorted(float(d) for d in delays)


def test_equal_timestamps_keep_creation_order():
    # Thousands of entries at identical timestamps: the tie-break is
    # the insertion index, which the loop's deque encodes as FIFO order.
    # Any instability shows up as a permutation here.
    env, check = _checked_env(True)
    fired = []

    def waiter(tag, delay):
        yield env.timeout(delay)
        fired.append(tag)

    for tag in range(500):
        env.process(waiter(tag, (tag % 5) * US), name=f"b{tag}")
    env.run()
    _in_order(env, check)
    assert fired == sorted(range(500), key=lambda tag: (tag % 5, tag))


def test_timeout_at_same_instant_fifo_identical():
    # Absolute-instant timeouts interleaved with relative ones at shared
    # instants fire in scheduling order.
    env, check = _checked_env(True)
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
    _in_order(env, check)
    order = [tag for tag, _ in fired]
    assert order == sorted(order, key=lambda tag: (tag % 3, tag))


def test_timeout_at_now_queues_behind_entries_already_due():
    env, check = _checked_env(True)
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
    _in_order(env, check)
    assert fired == ["early0", "late", "early1", "at-now"]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_timeout_at_in_the_past_raises(make_env):
    env = make_env()
    env.run(until=2 * US)
    with pytest.raises(SimulationError):
        env.timeout_at(1 * US)


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_timeout_at_fires_at_the_exact_instant(make_env):
    # now + (when - now) rounds away from `when` here, so a relative
    # timeout could not hit it.
    now, when = 1 * 0.1 * US, 12 * 0.1 * US
    assert now + (when - now) != when
    env = make_env()
    env.run(until=now)

    def waiter():
        yield env.timeout_at(when)
        return env.now

    assert env.run_process(waiter()) == when


def test_freelist_reuse_preserves_event_payloads():
    # The run loop recycles processed Event/Timeout shells through
    # freelists.  Reuse must be invisible: every wait gets the value
    # that was armed for it, never a stale slot from a previous
    # occupant.
    env = Environment()
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


class _JumpingDeque(deque):
    """The mutation: every entry due now jumps the queue."""

    append = deque.appendleft


@pytest.mark.parametrize("seed", range(3))
def test_zero_delay_entries_jumping_the_queue_fail_the_check(seed):
    # A broken loop that runs each same-instant entry ahead of those
    # already due (appendleft for append) must fail the check, on the
    # same workload the suite above passes.
    env, check = _checked_env(True)
    env._immediate = _JumpingDeque()
    _mixed_workload(env, np.random.default_rng(seed), [])
    env.run()
    assert check.mismatches > 0
    first = check.first_mismatch
    assert first["expected"] != first["dispatched"]
    assert first["dispatch"] <= check.dispatches
