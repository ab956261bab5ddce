"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Environment, SimulationError, US


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5 * US)
        return env.now

    assert env.run_process(proc(env)) == pytest.approx(5 * US)


def test_timeouts_fire_in_order():
    env = Environment()
    fired = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        fired.append(tag)

    env.process(waiter(env, 3 * US, "c"))
    env.process(waiter(env, 1 * US, "a"))
    env.process(waiter(env, 2 * US, "b"))
    env.run()
    assert fired == ["a", "b", "c"]


def test_equal_time_events_fire_in_insertion_order():
    env = Environment()
    fired = []

    def waiter(env, tag):
        yield env.timeout(1 * US)
        fired.append(tag)

    for tag in ("first", "second", "third"):
        env.process(waiter(env, tag))
    env.run()
    assert fired == ["first", "second", "third"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_event_succeed_delivers_value():
    env = Environment()
    gate = env.event()

    def opener(env):
        yield env.timeout(2 * US)
        gate.succeed("opened")

    def waiter(env):
        value = yield gate
        return (env.now, value)

    env.process(opener(env))
    when, value = env.run_process(waiter(env))
    assert when == pytest.approx(2 * US)
    assert value == "opened"


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def failer(env):
        yield env.timeout(1 * US)
        gate.fail(RuntimeError("boom"))

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            return str(exc)
        return "no error"

    env.process(failer(env))
    assert env.run_process(waiter(env)) == "boom"


def test_event_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_waiting_on_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    env.run()  # process the event fully

    def late_waiter(env):
        value = yield gate
        return value

    assert env.run_process(late_waiter(env)) == "early"


def test_process_is_joinable():
    env = Environment()

    def child(env):
        yield env.timeout(3 * US)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value, env.now

    value, when = env.run_process(parent(env))
    assert value == 42
    assert when == pytest.approx(3 * US)


def test_process_exception_propagates_to_joiner():
    env = Environment()

    def child(env):
        yield env.timeout(1 * US)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught: {exc}"
        return "missed"

    assert env.run_process(parent(env)) == "caught: child failed"


def test_unjoined_process_exception_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1 * US)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_run_until_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(10 * US)

    env.process(ticker(env))
    env.run(until=35 * US)
    assert env.now == pytest.approx(35 * US)


def test_run_until_in_past_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_all_of_collects_values():
    env = Environment()

    def child(env, delay, value):
        yield env.timeout(delay)
        return value

    def parent(env):
        events = [env.process(child(env, d * US, d)) for d in (3, 1, 2)]
        values = yield env.all_of(events)
        return values, env.now

    values, when = env.run_process(parent(env))
    assert values == [3, 1, 2]
    assert when == pytest.approx(3 * US)


def test_any_of_returns_first():
    env = Environment()

    def child(env, delay, value):
        yield env.timeout(delay)
        return value

    def parent(env):
        events = [env.process(child(env, d * US, d)) for d in (3, 1, 2)]
        index, value = yield env.any_of(events)
        return index, value, env.now

    index, value, when = env.run_process(parent(env))
    assert (index, value) == (1, 1)
    assert when == pytest.approx(1 * US)


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="yielded"):
        env.run()


def test_starved_process_detected():
    env = Environment()

    def waiter(env):
        yield env.event()  # never triggered

    with pytest.raises(SimulationError, match="starved"):
        env.run_process(waiter(env))


def test_monitor_hooks_do_not_change_schedule():
    from repro.analysis.sanitize import TraceRecorder

    def workload(env):
        order = []

        def worker(tag, delay):
            yield env.timeout(delay)
            order.append((tag, env.now))

        env.process(worker("a", 0.2), name="a")
        env.process(worker("b", 0.1), name="b")
        env.run()
        return order

    bare = workload(Environment())
    monitored_env = Environment()
    recorder = TraceRecorder()
    monitored_env.monitor = recorder
    assert workload(monitored_env) == bare
    assert recorder.entries
