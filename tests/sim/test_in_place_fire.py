"""``Event.trigger_in_place``: fire an event as the last act of a step.

With nothing due, the entry ``succeed()`` would queue is the next one
dispatched, so running the waiters in the triggering call moves nothing
and saves that entry.  With an entry due, the event queues exactly as
``succeed()`` queues it.  Every case runs bare and under the
dispatch-order check, which must agree with every dispatch.
"""

import pytest

from repro.analysis.sanitize import KernelMonitor
from repro.sim import US, Environment, SimulationError

#: Every case runs bare and under the dispatch-order check (see
#: ``tests/conftest.py``).
LOOPS = ["calendar", "heap"]


def _scenario(env, fire, *, busy):
    """A waiter on ``event``; at 1 us a timeout callback fires it as
    its last act (``fire(event)``), with a zero timeout of its own
    already due when ``busy``; a bystander runs on at 1.5 us.  Returns
    the log."""
    log = []
    event = env.event()

    def waiter():
        log.append(("resumed", (yield event), env.now))
        yield env.timeout(0)
        log.append(("waiter+", env.now))

    def bystander():
        yield env.timeout(1.5 * US)
        log.append(("bystander", env.now))
        yield env.timeout(0)
        log.append(("bystander+", env.now))

    def trigger(_timeout):
        log.append("trigger")
        if busy:
            env.timeout(0)._add_callback(lambda _e: log.append("due"))
        fire(event)
        log.append("returned")

    env.process(waiter())
    env.timeout(1 * US)._add_callback(trigger)
    env.process(bystander())
    env.timeout(2 * US)._add_callback(lambda _e: log.append("later"))
    env.run()
    return log


def _steps(env):
    return env.event_loop_stats()["steps"]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_nothing_due_resumes_the_waiter_in_the_same_step(make_env):
    queued_env, in_place_env = make_env(), make_env()
    queued = _scenario(queued_env, lambda event: event.succeed("v"),
                       busy=False)
    in_place = _scenario(in_place_env,
                         lambda event: event.trigger_in_place("v"),
                         busy=False)
    # The waiter resumed inside the triggering call...
    at = in_place.index("trigger")
    assert in_place[at:at + 3] == ["trigger", ("resumed", "v", 1 * US),
                                   "returned"]
    # ...and everything after it ran in the order the queued event's
    # dispatch would have led to, one entry sooner.
    assert queued[at:at + 3] == ["trigger", "returned",
                                 ("resumed", "v", 1 * US)]
    assert ([e for e in in_place if e != "returned"]
            == [e for e in queued if e != "returned"])
    assert _steps(in_place_env) == _steps(queued_env) - 1


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_an_entry_due_queues_the_event_as_succeed_does(make_env):
    queued_env, in_place_env = make_env(), make_env()
    queued = _scenario(queued_env, lambda event: event.succeed("v"),
                       busy=True)
    in_place = _scenario(in_place_env,
                         lambda event: event.trigger_in_place("v"),
                         busy=True)
    assert in_place == queued
    at = in_place.index("trigger")
    assert in_place[at:at + 4] == ["trigger", "returned", "due",
                                   ("resumed", "v", 1 * US)]
    assert _steps(in_place_env) == _steps(queued_env)


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_a_failure_reaches_the_waiter_in_the_same_step(make_env):
    env = make_env()
    log = []
    event = env.event()

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            log.append(("raised", str(exc)))

    def trigger(_timeout):
        env.timeout(0)  # due: a success would queue behind it
        event.trigger_in_place(RuntimeError("boom"), ok=False)
        log.append("returned")

    env.process(waiter())
    env.timeout(1 * US)._add_callback(trigger)
    env.run()
    assert log == [("raised", "boom"), "returned"]


def test_triggering_twice_is_misuse():
    env = Environment()
    event = env.event()
    event.trigger_in_place(1)
    with pytest.raises(SimulationError):
        event.trigger_in_place(2)


class _Hooks(KernelMonitor):
    def __init__(self, watched):
        self.watched = watched
        self.calls = []

    def on_trigger(self, event):
        if self.watched and event is self.watched[0]:
            self.calls.append("trigger")

    def on_schedule(self, when, fn, arg):
        if self.watched and arg is self.watched[0]:
            self.calls.append("schedule")

    def on_dispatch(self, fn, arg):
        if self.watched and arg is self.watched[0]:
            self.calls.append("dispatch")


@pytest.mark.parametrize("busy", [False, True], ids=["in-place", "queued"])
def test_monitor_sees_a_trigger_and_no_entry_for_an_in_place_fire(busy):
    env = Environment()
    watched = []
    monitor = env.monitor = _Hooks(watched)

    def fire(event):
        watched.append(event)
        event.trigger_in_place("v")

    log = _scenario(env, fire, busy=busy)
    assert ("resumed", "v", 1 * US) in log
    assert monitor.calls == (["schedule", "trigger", "dispatch"] if busy
                             else ["trigger"])
