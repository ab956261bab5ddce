"""Unit tests for Store and Resource."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store, US


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    for item in ("a", "b", "c"):
        assert store.try_put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(consumer(env))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return item, env.now

    def producer(env):
        yield env.timeout(4 * US)
        store.try_put("late")

    env.process(producer(env))
    item, when = env.run_process(consumer(env))
    assert item == "late"
    assert when == pytest.approx(4 * US)


def test_store_try_put_and_try_get():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.try_put("x")
    assert store.try_put("y")
    assert not store.try_put("z")
    ok, item = store.try_get()
    assert ok and item == "x"
    ok, item = store.try_get()
    assert ok and item == "y"
    ok, item = store.try_get()
    assert not ok and item is None


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_resource_serializes_access():
    env = Environment()
    resource = Resource(env, slots=1)
    spans = []

    def worker(env, tag):
        yield resource.acquire()
        start = env.now
        yield env.timeout(10 * US)
        resource.release()
        spans.append((tag, start, env.now))

    for tag in ("a", "b", "c"):
        env.process(worker(env, tag))
    env.run()
    # Non-overlapping, FIFO.
    assert [s[0] for s in spans] == ["a", "b", "c"]
    for (_, _, end_prev), (_, start_next, _) in zip(spans, spans[1:]):
        assert start_next >= end_prev


def test_resource_parallel_slots():
    env = Environment()
    resource = Resource(env, slots=2)
    finish_times = []

    def worker(env):
        yield resource.acquire()
        yield env.timeout(10 * US)
        resource.release()
        finish_times.append(env.now)

    for _ in range(4):
        env.process(worker(env))
    env.run()
    # Two waves of two: finish at 10us and 20us.
    assert finish_times == [pytest.approx(10 * US)] * 2 + [pytest.approx(20 * US)] * 2


def test_resource_release_without_acquire_rejected():
    env = Environment()
    resource = Resource(env)
    with pytest.raises(SimulationError):
        resource.release()


@pytest.mark.holds_resource("stops at run(until) to read a held slot and "
                             "two queued waiters")
def test_resource_queue_length():
    env = Environment()
    resource = Resource(env, slots=1)

    def holder(env):
        yield resource.acquire()
        yield env.timeout(100 * US)
        resource.release()

    def waiter(env):
        yield resource.acquire()
        resource.release()

    env.process(holder(env))
    env.process(waiter(env))
    env.process(waiter(env))
    env.run(until=50 * US)
    assert resource.in_use == 1
    assert resource.queue_length == 2


def test_resource_take_waiter_skips_the_slot_grant():
    """A holder that takes the oldest waiter owns its wait event: the
    waiter resumes with whatever the holder fires, and the slot goes
    to the next waiter on release."""
    env = Environment()
    resource = Resource(env, slots=1)
    log = []

    def holder(env):
        yield resource.acquire()
        yield env.timeout(10 * US)
        taken = resource.take_waiter()
        resource.release()
        taken.succeed("done for you")

    def waiter(env, tag):
        got = yield resource.acquire()
        log.append((tag, got, env.now, resource.in_use))
        if got is None:
            resource.release()

    env.process(holder(env))
    env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))
    env.run()
    assert log == [("b", None, 10 * US, 1), ("a", "done for you", 10 * US, 0)]
    assert resource.queue_length == 0 and resource.in_use == 0


@pytest.mark.holds_resource("ends holding the slot acquire_for granted, "
                             "which the test asserts")
def test_resource_acquire_for_queues_an_existing_wait():
    """``acquire_for`` puts a process already waiting on an event into
    the queue: it resumes holding a slot, after the earlier waiters."""
    env = Environment()
    resource = Resource(env, slots=1)
    log = []
    pending = env.event()

    def holder(env):
        yield resource.acquire()
        yield env.timeout(10 * US)
        resource.release()

    def early(env):
        yield env.timeout(1 * US)
        yield resource.acquire()
        log.append(("early", env.now))
        yield env.timeout(5 * US)
        resource.release()

    def late(env):
        yield pending
        log.append(("late", env.now, resource.in_use))
        resource.release()

    def queuer(env):
        yield env.timeout(2 * US)
        resource.acquire_for(pending)

    for body in (holder, early, late, queuer):
        env.process(body(env))
    env.run()
    assert log == [("early", 10 * US), ("late", 15 * US, 1)]
    free = env.event()
    resource.acquire_for(free)  # a free slot: granted at once
    assert free.triggered and resource.in_use == 1


@pytest.mark.holds_resource("ends holding the slot try_acquire took, "
                             "which the test asserts")
def test_resource_try_acquire_takes_only_a_free_slot():
    """``try_acquire`` grants what ``acquire`` would grant as a Ready,
    with no event: a full resource answers False and queues nothing,
    so a later release still goes to the oldest real waiter."""
    env = Environment()
    resource = Resource(env, slots=1)
    log = []

    def holder(env):
        assert resource.try_acquire()
        assert not resource.try_acquire()
        assert (resource.in_use, resource.queue_length) == (1, 0)
        yield env.timeout(10 * US)
        resource.release()

    def waiter(env):
        yield env.timeout(1 * US)
        assert not resource.try_acquire()
        yield resource.acquire()
        log.append(env.now)
        resource.release()

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert log == [10 * US]
    assert resource.in_use == 0 and resource.try_acquire()
