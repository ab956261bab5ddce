"""Kernel fast paths that skip the event list without moving the schedule.

Two shortcuts save kernel steps: a wait that is already satisfied when
it is made (a :class:`Ready`) continues the yielding process in the same
step, and a process that finishes with no joiner and no outside
reference goes straight to the freelist instead of dispatching its exit.
These tests pin what each shortcut may and may not change.
"""

import pytest

from repro.sim import Environment, Ready, Resource, Store, US


#: Every case runs bare and under the dispatch-order check (see
#: ``tests/conftest.py``).
LOOPS = ["calendar", "heap"]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
@pytest.mark.parametrize("wait", ["acquire", "get", "put"])
def test_satisfied_wait_continues_before_queued_entries(make_env, wait):
    env = make_env()
    resource = Resource(env, slots=1)
    store = Store(env)
    store.try_put("item")
    log = []

    def bystander():
        log.append("bystander")
        yield env.timeout(0)

    def waiter():
        env.process(bystander())  # its bootstrap is queued at this instant
        if wait == "acquire":
            event = resource.acquire()
        elif wait == "get":
            event = store.get()
        else:
            event = store.put("more")
        assert isinstance(event, Ready)
        value = yield event
        log.append(("continued", value))

    env.process(waiter())
    env.run()
    expected = "item" if wait == "get" else None
    assert log == [("continued", expected), "bystander"]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_contended_acquire_still_waits_its_turn(make_env):
    env = make_env()
    resource = Resource(env, slots=1)
    log = []

    def holder():
        yield resource.acquire()
        yield env.timeout(1 * US)
        resource.release()

    def waiter():
        event = resource.acquire()
        assert not isinstance(event, Ready)
        yield event
        log.append(env.now)
        resource.release()

    env.process(holder())
    env.process(waiter())
    env.run()
    assert log == [1 * US]
    assert resource.in_use == 0


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_unreferenced_finished_process_skips_the_event_list(make_env):
    env = make_env()
    resource = Resource(env, slots=1)

    def at_bootstrap():
        # Only satisfied waits: finishes inside its bootstrap step.
        yield resource.acquire()
        resource.release()

    def after_a_timeout():
        yield env.timeout(1 * US)

    env.process(at_bootstrap())
    env.process(after_a_timeout())
    env.run()
    stats = env.event_loop_stats()
    # Two bootstraps and one timeout; neither exit was dispatched.
    assert (stats["steps"], stats["events"]) == (3, 1)
    assert len(env._process_free) == 2
    assert all(proc.processed for proc in env._process_free)


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_recycled_process_is_reused_by_the_next_spawn(make_env):
    env = make_env()
    results = []

    def quick(value):
        return value
        yield  # a generator that never waits

    def spawner():
        env.process(quick(1))
        yield env.timeout(1 * US)
        shell = env._process_free[-1]
        again = env.process(quick(2))
        assert again is shell and again.is_alive
        results.append((yield again))

    env.process(spawner())
    env.run()
    assert results == [2]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
@pytest.mark.parametrize("join", ["same-instant", "later"])
def test_held_process_joined_after_it_finished_keeps_its_order(make_env,
                                                              join):
    # A process someone holds may be joined after it finished: its exit
    # must still reach the event list, so the joiner resumes in the same
    # place as it always did relative to same-instant bystanders.
    env = make_env()
    log = []

    def child():
        log.append("child")
        return "done"
        yield

    def bystander(tag):
        log.append(tag)
        yield env.timeout(0)
        log.append(tag + "+")

    def joiner():
        held = env.process(child())
        env.process(bystander("a"))
        if join == "same-instant":
            yield env.timeout(0)
        else:
            yield env.timeout(1 * US)
            env.process(bystander("b"))
        value = yield held
        log.append(("joined", value, env.now))

    env.process(joiner())
    env.run()
    if join == "same-instant":
        assert log == ["child", "a", ("joined", "done", 0.0), "a+"]
    else:
        # Joining a processed event resumes on the next step, behind
        # "b"'s bootstrap that was queued first.
        assert log == ["child", "a", "a+", "b", ("joined", "done", 1 * US),
                       "b+"]


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_held_process_exits_through_every_path_keep_their_entry(make_env):
    # Bootstrap, resume and thrown-failure exits reach the refcount proof
    # through different kernel frames; an outside holder must defeat the
    # shortcut on all of them.
    env = make_env()
    failing = env.event()

    def at_bootstrap():
        return 1
        yield

    def after_resume():
        yield env.timeout(1 * US)
        return 2

    def after_failure():
        try:
            yield failing
        except RuntimeError:
            return 3

    def failer():
        yield env.timeout(1 * US)
        failing.fail(RuntimeError("boom"))

    held = [env.process(gen()) for gen in (at_bootstrap, after_resume,
                                           after_failure)]
    env.process(failer())
    env.run()
    assert [proc.value for proc in held] == [1, 2, 3]
    assert all(proc.processed for proc in held)
    assert not any(proc in env._process_free for proc in held)
    # Three held exits, two timeouts and the failed event were dispatched.
    assert env.event_loop_stats()["events"] == 6


def test_ready_handed_to_a_combinator_becomes_an_ordinary_event():
    env = Environment()
    resource = Resource(env, slots=1)

    def waiter():
        granted = resource.acquire()
        index, _value = yield env.any_of([granted])
        assert index == 0 and type(granted) is not Ready
        assert granted.processed
        resource.release()

    env.run_process(waiter())
    assert resource.in_use == 0


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_due_now_sees_what_else_this_instant_runs(make_env):
    env = make_env()
    seen = []

    def second(_event):
        seen.append(env.due_now())  # nothing else is due
        env.event().succeed()
        seen.append(env.due_now())  # the event's dispatch is

    # The first timeout's callback sees the second, due at its instant.
    env.timeout(1 * US)._add_callback(lambda _: seen.append(env.due_now()))
    env.timeout(1 * US)._add_callback(second)
    env.timeout(2 * US)._add_callback(lambda _: seen.append(env.due_now()))
    env.run()
    assert seen == [True, False, True, False]
