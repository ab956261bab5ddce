"""Regression tests for AllOf/AnyOf callback leaks and abandonment.

The latent bug these pin: combinators used to leave their per-child
callbacks registered on losing (AnyOf) or remaining (AllOf fail-fast)
children forever.  Hedged-read loops -- race a fresh timeout against
one long-lived event, repeatedly -- grew that event's callback list
without bound, and a Store item or Resource slot granted to a losing
child was silently lost.  Completion must detach from every undecided
child and fire its ``on_abandon`` hook so the producer reclaims.
"""

import pytest

from repro.analysis.sanitize import KernelMonitor
from repro.sim import Environment, Resource, Store, Timeout, US


#: Every case runs bare and under the dispatch-order check (see
#: ``tests/conftest.py``).
LOOPS = ["calendar", "heap"]


def _callback_count(event):
    return len(event.callbacks or ())


def test_anyof_detaches_losing_child():
    # The retry shape from RedyCache._io_with_retry (core/client.py):
    # an attempt raced against a fresh timeout, many times over.  Here
    # one long-lived event stands for an attempt that never answers.
    env = Environment()
    slow = env.event()

    def retrier():
        for _ in range(100):
            index, value = yield env.any_of([slow, env.timeout(1 * US)])
            assert (index, value) == (1, None)
        return _callback_count(slow)

    assert env.run_process(retrier()) == 0


def test_anyof_fires_on_abandon_for_losers():
    env = Environment()
    slow = env.event()
    abandoned = []
    slow.on_abandon = abandoned.append

    def retrier():
        yield env.any_of([slow, env.timeout(1 * US)])

    env.run_process(retrier())
    assert abandoned == [slow]


def test_allof_fail_fast_detaches_remaining_children():
    env = Environment()
    pending = env.event()
    doomed = env.event()
    abandoned = []
    pending.on_abandon = abandoned.append

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield env.all_of([pending, doomed])

    def failer():
        yield env.timeout(1 * US)
        doomed.fail(RuntimeError("boom"))

    env.process(waiter(), name="waiter")
    env.process(failer(), name="failer")
    env.run()
    assert abandoned == [pending]
    assert _callback_count(pending) == 0


def test_anyof_losing_store_get_is_reclaimed():
    # A Store item granted to a wait the combinator walked away from
    # must go back to the queue, not vanish with the loser.
    env = Environment()
    store = Store(env)
    outcomes = []

    def impatient():
        index, _value = yield env.any_of([store.get(), env.timeout(1 * US)])
        outcomes.append(("impatient", index))

    def producer():
        yield env.timeout(2 * US)
        store.try_put("item")

    def patient():
        yield env.timeout(3 * US)
        item = yield store.get()
        outcomes.append(("patient", item))

    env.process(impatient(), name="impatient")
    env.process(producer(), name="producer")
    env.process(patient(), name="patient")
    env.run()
    assert outcomes == [("impatient", 1), ("patient", "item")]
    assert len(store) == 0


def test_abandoned_combinator_propagates_abandonment():
    # An outer AnyOf decided by another child walks away from the inner
    # one, which must cascade the detach to every still-pending child.
    env = Environment()
    children = [env.event() for _ in range(3)]
    abandoned = []
    for child in children:
        child.on_abandon = abandoned.append

    def waiter():
        index, _value = yield env.any_of(
            [env.any_of(children), env.timeout(1 * US)])
        assert index == 1

    env.run_process(waiter())
    assert abandoned == children
    assert all(_callback_count(child) == 0 for child in children)


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_anyof_losing_acquire_leaves_the_line(make_env):
    # A queued acquire the combinator walked away from must not be
    # granted the slot later: nobody would ever release it.
    env = make_env()
    resource = Resource(env, slots=1)
    acquired = []

    def holder():
        yield resource.acquire()
        yield env.timeout(3 * US)
        resource.release()

    def impatient():
        index, _value = yield env.any_of(
            [resource.acquire(), env.timeout(1 * US)])
        assert index == 1

    def patient():
        yield resource.acquire()
        acquired.append(env.now)
        resource.release()

    env.process(holder())
    env.process(impatient())
    env.process(patient())
    env.run()
    assert acquired == [3 * US]
    assert resource.in_use == 0
    assert resource.queue_length == 0


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_anyof_dropping_a_handed_store_get_restocks_the_item(make_env):
    # try_put() hands the item to the queued getter in the very instant a
    # sibling decides the combinator: the Store reclaims it for the next
    # consumer.
    env = make_env()
    store = Store(env)
    sibling = env.event()
    won = []

    def racer():
        index, _value = yield env.any_of([store.get(), sibling])
        won.append(index)

    def driver():
        yield env.timeout(1 * US)
        sibling.succeed("sibling")
        store.try_put("precious")  # hands the item to the queued getter
        yield env.timeout(1 * US)
        ok, item = store.try_get()
        assert ok and item == "precious"

    env.process(racer())
    env.run_process(driver())
    assert won == [1]
    assert len(store) == 0


class _TriggerLog(KernelMonitor):
    def __init__(self):
        self.triggered = []

    def on_trigger(self, event):
        self.triggered.append((type(event).__name__, event.env.now))


def test_timeout_trigger_visible_to_monitor():
    # Regression: Timeout used to stamp its outcome inline, bypassing
    # succeed(), so monitors (the sanitizer's trace recorder) never saw
    # timeout triggers and the trigger->resume edge for timeouts was
    # silently missing.
    env = Environment()
    monitor = _TriggerLog()
    env.monitor = monitor

    def sleeper():
        yield env.timeout(1 * US)
        yield env.timeout(0.0)

    env.run_process(sleeper())
    timeout_triggers = [entry for entry in monitor.triggered
                        if entry[0] == Timeout.__name__]
    # Both armings observed, stamped at creation time (birth instant),
    # under both entry points (env.timeout and the zero-delay path).
    assert timeout_triggers == [("Timeout", 0.0), ("Timeout", 1 * US)]


# -- satisfied waits (Ready) dropped by a combinator --------------------
#
# A free slot and a stocked store answer with a Ready,
# which has no event-list entry until a combinator consumes it.  When a
# same-instant sibling decides the combinator first, or an outer
# combinator walks away from it, the Ready's producer must get the slot
# or item back exactly as for a queued wait.


def _decided_sibling(env):
    # Triggered before the combinator exists, so its entry runs first.
    sibling = env.event()
    sibling.succeed("sibling")
    return sibling


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_anyof_dropping_a_satisfied_acquire_returns_the_slot(make_env):
    env = make_env()
    resource = Resource(env, slots=1)
    granted = []

    def racer():
        index, _value = yield env.any_of(
            [_decided_sibling(env), resource.acquire()])
        assert index == 0

    def later():
        yield env.timeout(1 * US)
        yield resource.acquire()
        granted.append(env.now)
        resource.release()

    env.process(racer())
    env.process(later())
    env.run()
    assert granted == [1 * US]
    assert resource.in_use == 0


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
def test_anyof_dropping_a_satisfied_get_restocks_the_item(make_env):
    env = make_env()
    store = Store(env)
    store.try_put("item")
    got = []

    def racer():
        index, _value = yield env.any_of(
            [_decided_sibling(env), store.get()])
        assert index == 0

    def later():
        yield env.timeout(1 * US)
        got.append((yield store.get()))

    env.process(racer())
    env.process(later())
    env.run()
    assert got == ["item"]
    assert len(store) == 0


@pytest.mark.parametrize("make_env", LOOPS, indirect=True)
@pytest.mark.parametrize("wait", ["acquire", "get"])
def test_abandoned_combinator_returns_a_satisfied_wait(make_env, wait):
    env = make_env()
    resource = Resource(env, slots=1)
    store = Store(env)
    store.try_put("item")

    def waiter():
        # The sibling's entry runs before the satisfied child's, so the
        # outer combinator drops the inner one while it still holds it.
        sibling = _decided_sibling(env)
        satisfied = resource.acquire() if wait == "acquire" else store.get()
        inner = env.any_of([satisfied, env.event()])
        index, _value = yield env.any_of([sibling, inner])
        assert index == 0

    env.run_process(waiter())
    assert resource.in_use == 0
    assert list(store._items) == ["item"]
