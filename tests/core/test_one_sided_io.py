"""A one-sided cache I/O spawns no process.

A fail-fast read or write inside one region of a one-sided cache runs
as one callback record (``OneSidedIo``) when ``RedyCache.read``/
``write`` start it, and as a generator body in the caller's frame
when the caller runs ``read_io``/``write_io`` or ``CacheDataPath.io``
with ``yield from``.  These tests pin that structure, what the other
I/O shapes still spawn, where a raising stage's exception goes from
each entry point (with every grant returned), and when a finished I/O
keeps an event-list entry.
"""

import pytest

from repro.analysis.sanitize import KernelMonitor
from repro.core import RdmaConfig, Slo
from repro.core.engine import CacheDataPath
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_cluster

#: The manager picks a one-sided configuration for this SLO...
ONE_SIDED = Slo(max_latency=20e-6, min_throughput=2e6, record_size=64)
#: ...and a two-sided (batching) one for this.
TWO_SIDED = Slo(max_latency=200e-6, min_throughput=50e6, record_size=64)
REGION = 1 << 20


class _Spawns(KernelMonitor):
    """Names of the processes spawned while installed."""

    def __init__(self):
        self.names = []

    def on_spawn(self, process):
        self.names.append(process.name)


class _Dispatches(KernelMonitor):
    """Counts dispatched entries: equal counts mean the same step."""

    def __init__(self):
        self.count = 0

    def on_dispatch(self, env, fn, arg):
        self.count += 1


def _cache(slo=ONE_SIDED):
    harness = build_cluster(seed=0)
    cache = harness.redy_client("io").create(2 * REGION, slo,
                                              region_bytes=REGION)
    assert cache.allocation.config.uses_one_sided == (slo is ONE_SIDED)
    cache.load(64, (4096).to_bytes(8, "little"))
    cache.load(4096, b"r" * 64)
    harness.env.run()
    return harness.env, cache


def _spawned_by(env, body):
    """Run ``body`` in a process; its result and what it spawned."""
    spawns = _Spawns()

    def driver():
        env.monitor = spawns
        try:
            return (yield from body())
        finally:
            env.monitor = None

    return env.run_process(driver()), spawns.names


def _grants_free(path):
    """No issue slot, queue-depth credit or thread CPU is held on any
    connection."""
    return all(thread.cpu.in_use == 0
               and all(connection.issue_slot.in_use == 0
                       and connection.credits.is_full
                       for connection in thread.connections.values())
               for thread in path.threads)


class TestStructure:
    def test_one_sided_single_region_ios_spawn_nothing(self):
        env, cache = _cache()
        called = []

        def body():
            cache.read(4096, 64, called.append)
            wrote = yield cache.write(8192, b"w" * 64)
            read = yield from cache.read_io(8192, 64)
            return wrote, read

        (wrote, read), spawned = _spawned_by(env, body)
        assert called[0].ok and called[0].data == b"r" * 64
        assert wrote.ok and read.ok and read.data == b"w" * 64
        assert spawned == []

    def test_other_ios_spawn_their_processes(self):
        env, cache = _cache(TWO_SIDED)

        def two_sided():
            read = yield cache.read(4096, 64)
            across = yield cache.read(REGION - 32, 64)
            return read, across

        (read, across), spawned = _spawned_by(env, two_sided)
        assert read.ok and across.ok
        # A two-sided fragment runs in a process of its own.
        assert spawned == ["redy-io-r@4096", f"redy-io-r@{REGION - 32}",
                           "redy-client:io:submit", "redy-client:io:submit"]

        env, cache = _cache()

        def one_sided():
            across = yield cache.read(REGION - 32, 64)
            dependent = yield cache.dependent_read(64, 64)
            return across, dependent

        (across, dependent), spawned = _spawned_by(env, one_sided)
        assert across.ok and dependent.ok and dependent.data == b"r" * 64
        # A one-sided fragment is submitted as a record: only the I/O
        # across regions and the dependent read are processes.
        assert spawned == [f"redy-io-r@{REGION - 32}", "redy-io-d@64"]


def _bare_path(env):
    """A one-sided data path attached to one cache server: the path and
    its region's token."""
    rngs = RngRegistry(0)
    fabric = Fabric(env, AZURE_HPC)
    client = fabric.add_endpoint("client", Placement())
    server = CacheServer(env, AZURE_HPC,
                         fabric.add_endpoint("server", Placement()),
                         rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, RdmaConfig(1, 0, 1, 4), client,
                         rngs.stream("client"))
    return path, path.attach_server(server, n_regions=1,
                                    region_size=REGION)[0]


def _failing(path, charge):
    """Make ``path``'s ``charge`` raise; returns the dispatch counts
    seen when it raised."""
    raised_at = []

    def boom(*_args):
        raised_at.append(path.env.monitor.count)
        raise RuntimeError(f"{charge} failed")

    setattr(path, charge, boom)
    return raised_at


class TestStageExceptions:
    """A raising stage reaches where it reached when each I/O ran a
    generator, and leaves no issue slot or thread CPU held."""

    def test_callback_io_exception_reaches_the_failure_hook(self):
        env, cache = _cache()
        env.monitor = _Dispatches()
        failures, called = [], []
        env.on_process_failure = lambda io, exc: failures.append(
            (io.name, str(exc), env.now))
        _failing(cache.path, "_issue_charge")
        cache.read(4096, 64, called.append)
        env.run()
        assert [(name, error) for name, error, _at in failures] == [
            ("redy-io-r@4096", "_issue_charge failed")]
        assert env.event_loop_stats()["process_failures"] == 1
        assert called == []
        assert _grants_free(cache.path)
        # The kernel kept running, and the data path still works.
        del cache.path._issue_charge
        read = env.run_process(cache.read_io(4096, 64))
        assert read.ok and read.data == b"r" * 64

    def test_joined_io_exception_fails_its_joiner(self):
        env, cache = _cache()
        env.monitor = _Dispatches()
        hooked, caught = [], []
        env.on_process_failure = lambda io, exc: hooked.append(exc)
        _failing(cache.path, "_reap_charge")

        def joiner():
            try:
                yield cache.write(4096, b"j" * 64)
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(joiner())
        env.run()
        assert caught == ["_reap_charge failed"] and hooked == []
        assert env.event_loop_stats()["process_failures"] == 1
        assert _grants_free(cache.path)

    @pytest.mark.parametrize("charge", ["_issue_charge", "_reap_charge"])
    def test_read_io_exception_raises_in_the_callers_step(self, charge):
        env, cache = _cache()
        monitor = env.monitor = _Dispatches()
        raised_at = _failing(cache.path, charge)
        caught = []

        def caller():
            try:
                yield from cache.read_io(4096, 64)
            except RuntimeError as exc:
                caught.append((str(exc), monitor.count))

        env.process(caller())
        env.run()
        assert caught == [(f"{charge} failed", raised_at[0])]
        assert _grants_free(cache.path)

    @pytest.mark.parametrize("charge", ["_issue_charge", "_reap_charge"])
    def test_data_path_io_exception_raises_in_the_callers_step(self,
                                                                charge):
        env = Environment()
        monitor = env.monitor = _Dispatches()
        path, token = _bare_path(env)
        raised_at = _failing(path, charge)
        caught = []

        def caller():
            op = EngineOp(is_read=True, size=64, token=token)
            try:
                yield from path.io(op)
            except RuntimeError as exc:
                caught.append((str(exc), monitor.count))

        env.process(caller())
        env.run()
        assert caught == [(f"{charge} failed", raised_at[0])]
        assert _grants_free(path)


def test_read_io_outside_the_cache_answers_in_the_callers_step():
    env, cache = _cache()
    monitor = env.monitor = _Dispatches()
    answered = []

    def caller():
        before = monitor.count
        result = yield from cache.read_io(2 * REGION + 64, 64)
        answered.append((result.ok, "outside" in result.error,
                         monitor.count - before))

    env.process(caller())
    env.run()
    assert answered == [(False, True, 0)]


def _steps_of(start):
    """Kernel steps from ``start(env, cache)`` to a drained event list."""
    env, cache = _cache()
    before = env.event_loop_stats()["steps"]
    held = start(env, cache)
    env.run()
    assert held is None or held.processed
    return env.event_loop_stats()["steps"] - before


@pytest.mark.parametrize("addr", [4096, 2 * REGION + 64],
                         ids=["in-range", "out-of-range"])
@pytest.mark.parametrize("with_callback", [False, True])
def test_finished_io_keeps_an_entry_only_when_it_is_held(addr,
                                                         with_callback):
    """As a process's exit: an I/O nobody joins or holds finishes with
    no event-list entry; a held one dispatches once more."""
    def start(keep):
        def run(env, cache):
            io = cache.read(addr, 64,
                            (lambda _result: None) if with_callback
                            else None)
            return io if keep else None
        return run

    assert _steps_of(start(True)) == _steps_of(start(False)) + 1


def test_data_path_io_with_a_completion_event_returns_and_fires_it():
    env = Environment()
    path, token = _bare_path(env)
    op = EngineOp(is_read=True, size=64, token=token)
    op.completion = env.event()
    fired = []
    op.completion._add_callback(lambda event: fired.append(event.value.ok))
    assert env.run_process(path.io(op)).ok
    assert fired == [True]


@pytest.mark.parametrize("entry", ["callback", "read_io"])
def test_io_runs_on_the_data_path_it_finds_at_the_hand_off(entry):
    """A reshape swaps a cache's table and data path
    (``RedyCache._reshape_slo``), perhaps while an I/O waits at its
    region's gate.  The I/O then runs on the path it finds at the
    hand-off, a two-sided one too."""
    harness = build_cluster(seed=0)
    env = harness.env
    client = harness.redy_client("io")
    one = client.create(2 * REGION, ONE_SIDED, region_bytes=REGION)
    two = client.create(2 * REGION, TWO_SIDED, region_bytes=REGION)
    assert not two.allocation.config.uses_one_sided
    two.load(4096, b"t" * 64)
    env.run()
    gated = one.table
    gated.pause_reads(0)
    results = []
    if entry == "callback":
        one.read(4096, 64, results.append)
    else:
        def reader():
            results.append((yield from one.read_io(4096, 64)))
        env.process(reader())
    env.run()
    assert results == []
    one.path, one.table = two.path, two.table
    gated.resume(0)
    env.run()
    assert [(result.ok, result.data) for result in results] == [
        (True, b"t" * 64)]
