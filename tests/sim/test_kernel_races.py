"""Regression tests for kernel failure handling.

Each test here reproduces a silent-corruption bug the seed kernel had:
a zombie process after an unjoined failure.  They document the
hardened contract: a failing process ALWAYS triggers its event (never
stays ``is_alive``).  Abandoned Store/Resource waits are pinned in
``test_combinator_leaks.py``.
"""

import pytest

from repro.sim import Environment, SimulationError, US


# ---------------------------------------------------------------------------
# Failure before any joiner registers
# ---------------------------------------------------------------------------

def test_fail_before_join_triggers_event_and_calls_hook():
    """A process that raises with no joiner must not stay alive forever.

    The seed kernel re-raised from inside Environment.step() *before*
    failing the process event, leaving a permanently-``is_alive`` zombie;
    with the ``on_process_failure`` hook installed the kernel stays
    consistent and keeps running.
    """
    env = Environment()
    failures = []
    env.on_process_failure = lambda process, exc: failures.append(
        (process, exc))

    def crasher(env):
        yield env.timeout(1 * US)
        raise RuntimeError("boom")

    proc = env.process(crasher(env), name="crasher")
    env.run()  # must not raise: the hook owns the failure

    assert not proc.is_alive
    assert proc.ok is False
    assert isinstance(proc.value, RuntimeError)
    assert failures == [(proc, proc.value)]
    assert env.event_loop_stats()["process_failures"] == 1


def test_fail_without_hook_still_raises_but_kernel_stays_consistent():
    env = Environment()

    def crasher(env):
        yield env.timeout(1 * US)
        raise RuntimeError("boom")

    proc = env.process(crasher(env), name="crasher")
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    # Even on the loud path the process event must have triggered.
    assert not proc.is_alive


def test_failure_with_joiner_reaches_joiner_not_hook():
    env = Environment()
    hook_calls = []
    env.on_process_failure = lambda process, exc: hook_calls.append(exc)

    def crasher(env):
        yield env.timeout(1 * US)
        raise ValueError("expected")

    def joiner(env, target):
        try:
            yield target
        except ValueError as exc:
            return f"caught {exc}"

    target = env.process(crasher(env))
    assert env.run_process(joiner(env, target)) == "caught expected"
    assert hook_calls == []  # the joiner owned the failure


# ---------------------------------------------------------------------------
# Event-loop guards & stats
# ---------------------------------------------------------------------------

def test_step_on_empty_event_list_raises_simulation_error():
    env = Environment()
    with pytest.raises(SimulationError, match="empty event list"):
        env.step()


def test_event_loop_stats_count_kernel_work():
    env = Environment()

    def worker(env):
        yield env.timeout(1 * US)

    env.process(worker(env))
    env.run()
    stats = env.event_loop_stats()
    assert stats["steps"] == stats["events"] + stats["calls"]
    assert stats["steps"] > 0
    assert stats["pending"] == 0
    assert stats["process_failures"] == 0
