"""The op history checker (``repro.history``) on hand-written histories,
one per rule, and the recorder on a live cache."""

import re

from repro.core import Slo
from repro.core.client import CacheIoResult
from repro.history import History, Op, check
from repro.sim.kernel import Environment
from repro.workloads.scenarios import build_cluster

OLD, NEW, OTHER = b"\x01" * 8, b"\x02" * 8, b"\x03" * 8


def _history(*ops):
    history = History(None, lambda key: OLD, None)
    history.ops.extend(ops)
    return history


def _write(value, invoked, completed, ok=True, required=False):
    return Op("k", True, value, invoked, completed, ok, required, None)


def _read(value, invoked, completed, gate=None):
    return Op("k", False, value, invoked, completed, True, False, gate)


def test_a_read_before_any_acked_write_returns_the_initial_bytes():
    assert check(_history(_read(OLD, 0.0, 1.0))) == []
    # A write still in flight when the read began may not have landed.
    assert check(_history(_write(NEW, 0.5, 3.0),
                          _read(OLD, 1.0, 2.0))) == []


def test_a_stale_read_after_an_acked_overwrite_names_both_ops():
    history = _history(_write(NEW, 0.0, 1.0), _write(OTHER, 2.0, 3.0),
                       _read(NEW, 4.0, 5.0), _read(OLD, 4.0, 5.0))
    assert check(history) == [
        "key k: read [4.0000000, 5.0000000] returned 0202020202020202..(8 B)"
        ", superseded by write [2.0000000, 3.0000000]",
        "key k: read [4.0000000, 5.0000000] returned 0101010101010101..(8 B)"
        ", superseded by write [2.0000000, 3.0000000]"]


def test_a_read_concurrent_with_a_write_returns_either_value():
    for value in (OLD, NEW):
        assert check(_history(_write(NEW, 1.0, 3.0),
                              _read(value, 2.0, 4.0))) == []
    # Two overlapping acked writes: neither supersedes the other.
    assert check(_history(_write(NEW, 0.0, 2.0), _write(OTHER, 1.0, 3.0),
                          _read(NEW, 4.0, 5.0))) == []


def test_a_failed_write_may_be_seen_but_never_supersedes():
    failed = _write(NEW, 0.0, 1.0, ok=False)
    # Seen long after it failed, even after a later acked write: it may
    # have landed late.
    assert check(_history(failed, _read(NEW, 5.0, 6.0))) == []
    assert check(_history(failed, _write(OTHER, 2.0, 3.0),
                          _read(NEW, 5.0, 6.0))) == []
    # It does not hide the initial bytes either.
    assert check(_history(failed, _read(OLD, 5.0, 6.0))) == []
    # An unfinished write is as good as a failed one.
    assert check(_history(_write(NEW, 0.0, None, ok=False),
                          _write(OTHER, 1.0, 2.0),
                          _read(NEW, 3.0, 4.0))) == []


def test_a_value_nobody_wrote_fails():
    [line] = check(_history(_write(NEW, 0.0, 1.0), _read(OTHER, 2.0, 3.0)))
    assert line.endswith("returned 0303030303030303..(8 B), a value no "
                         "write began before the read ended")
    # Nor may a read return a write that began after it ended.
    assert check(_history(_read(NEW, 0.0, 1.0), _write(NEW, 2.0, 3.0)))


def test_a_failed_required_op_fails_and_an_optional_one_passes():
    unacked = _write(NEW, 0.0, 1.0, ok=False, required=True)
    failed_read = Op("k", False, None, 2.0, None, False, True, None)
    assert check(_history(unacked, failed_read)) == [
        "key k: required write [0.0000000, 1.0000000] failed",
        "key k: required read [2.0000000, ...] failed"]
    assert check(_history(_write(NEW, 0.0, 1.0, ok=False),
                          Op("k", False, None, 2.0, 3.0, False, False,
                             None))) == []


def test_a_read_at_a_migration_gate_fails():
    assert check(_history(_read(OLD, 0.0, 1.0, gate=2))) == [
        "key k: read [0.0000000, 1.0000000] met region 2's closed "
        "migration read gate"]
    # A failed read at a migration gate still broke availability.
    waited = Op("k", False, None, 0.0, 1.0, False, False, 2)
    assert len(check(_history(waited))) == 1


def test_keys_are_checked_in_sorted_order():
    history = _history(*(Op(key, False, OTHER, 0.0, 1.0, True, False, None)
                         for key in (3, 1, 2)))
    assert [line.split(":")[0] for line in check(history)] == [
        "key 1", "key 2", "key 3"]


def test_the_recorder_times_ops_and_schedules_nothing():
    env = Environment()
    history = History(env, lambda key: OLD, None)
    done = env.event()

    def body():
        # An ``*_io`` body and an event, recorded alike.
        yield env.timeout(1.0)
        return CacheIoResult(ok=True)

    def client():
        yield from history.require("k", NEW, body())
        result = yield from history.record("k", None, done)
        return result

    def server():
        yield env.timeout(2.5)
        done.succeed(CacheIoResult(ok=True, data=NEW))

    env.process(server())
    assert env.run_process(client()).data == NEW
    assert history.ops == [Op("k", True, NEW, 0.0, 1.0, True, True, None),
                           Op("k", False, NEW, 1.0, 2.5, True, False, None)]
    assert history.outcome() == {"ops": 2, "reads": 1, "failures": []}


def test_the_recorder_tells_a_recovery_gate_from_a_migration_gate():
    region = 1 << 20
    harness = build_cluster(seed=0)
    cache = harness.redy_client("history").create(
        2 * region, Slo(max_latency=1e-3, min_throughput=1e5,
                        record_size=64), region_bytes=region)
    history = History(harness.env, lambda key: bytes(8), cache)
    cache.table.pause_reads(1)
    history.invoke(region + 64, None)
    # A recovery in flight closes its regions' read gates on purpose.
    recovered = cache.recover_from_failure(cache.table.region(1).server_name)
    assert cache.recovering(1)
    history.invoke(region + 64, None)
    history.invoke(64, None)  # region 0's read gate is open
    history.invoke(region + 64, b"w")  # writes meet no read gate
    assert [op.gate for op in history.ops] == [1, None, None, None]
    assert re.fullmatch(r"key 1048640: read \[0\.0+, \.\.\.\] met region "
                        r"1's closed migration read gate", check(history)[0])
    cache.table.resume(1)
    def wait():
        yield recovered

    harness.env.run_process(wait())
    assert not cache.recovering(1)
