"""Replay-divergence sanitizer: run twice, diff the kernel schedule.

The determinism contract behind the fault log, the gate registry, and
the sweep result cache is "same seed, bit-identical run".  The
sanitizer checks it end to end: it runs a workload twice from the same
seed while recording every kernel scheduling action (process spawns,
resumes, event triggers) *and* every draw from every
:class:`repro.sim.rng.RngRegistry` stream, then bisects the first
diverging trace entry with prefix-digest binary search and attributes
it -- either to a named RNG stream whose draw sequence differs, or to a
pure scheduling divergence (wall-clock, global state, iteration order).

The recorder observes workloads that build their own Environments
internally via :func:`repro.sim.kernel.set_default_monitor`; RNG
observation monkeypatches :meth:`RngRegistry.stream` for the duration
of the run (wrappers are cached so stream identity is preserved).
While it records, the recorder also checks the kernel's dispatch order
against a reference heap of its own (:class:`DispatchOrder`).
:mod:`repro.gates` runs every registered scenario through the same
recorder twice: a replay check and an order check in one harness.

Usage::

    report = sanitize(lambda seed: churn_run(seed))
    assert report.deterministic, report.describe()
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.report import Finding
from repro.sim import kernel
from repro.sim.rng import RngRegistry

__all__ = ["DispatchOrder", "DivergenceReport", "KernelMonitor",
           "TraceRecorder", "sanitize"]


class KernelMonitor:
    """Hook protocol the kernel drives when ``Environment.monitor`` is set.

    The base class is a no-op so subclasses implement only the edges
    they care about; :class:`DispatchOrder` and its extension
    :class:`TraceRecorder` are the ones in this package.
    """

    def on_spawn(self, process: Any) -> None:
        """A Process was created (the creator is the current context)."""

    def on_resume(self, process: Any, event: Any) -> None:
        """``process`` is about to resume with ``event``'s outcome."""

    def on_step(self, process: Any) -> None:
        """``process`` is about to run without an event delivery
        (bootstrap or failure propagation)."""

    def on_trigger(self, event: Any) -> None:
        """The current context triggered ``event`` (succeed or fail)."""

    def on_schedule(self, when: float, fn: Any, arg: Any) -> None:
        """The kernel put the entry ``fn(arg)`` on the event list, due at
        ``when``.  ``arg`` is always an event (its ``env`` owns the
        list)."""

    def on_dispatch(self, fn: Any, arg: Any) -> None:
        """The kernel took ``fn(arg)`` off the event list and is about to
        call it (``arg.env.now`` is already the entry's instant)."""


def _describe(when: float, index: Optional[int], fn: Any,
              arg: Any) -> list:
    """``[when, insertion index, handler, argument type]`` of an entry;
    the index is None for one the check never saw scheduled."""
    return [when, index, getattr(fn, "__qualname__", type(fn).__name__),
            type(arg).__name__]


class DispatchOrder(KernelMonitor):
    """Checks that the kernel dispatches in ``(when, insertion)`` order.

    Per Environment it keeps a reference heap of ``(when, insertion
    index, fn, arg)`` for every entry scheduled and not yet dispatched.
    Each dispatch must be that heap's minimum: the same ``fn`` and
    ``arg`` by identity, at ``env.now == when``.  Anything else counts
    in :attr:`mismatches`, and the first one is described in
    :attr:`first_mismatch`.  The check lets go of an entry before the
    kernel calls it, so the kernel's reference-count proofs (recycling,
    unobserved exits) decide exactly as in an unmonitored run.  Attach
    it before the Environment schedules anything.
    """

    def __init__(self) -> None:
        #: Per Environment: the entries it has scheduled and not yet
        #: dispatched, as a heap (dropped once empty).
        self.pending: Dict[Any, List[tuple]] = {}
        self._scheduled = 0
        self.dispatches = 0
        self.mismatches = 0
        self.first_mismatch: Optional[Dict[str, Any]] = None

    def on_schedule(self, when: float, fn: Any, arg: Any) -> None:
        heap = self.pending.get(arg.env)
        if heap is None:
            heap = self.pending[arg.env] = []
        self._scheduled += 1
        heappush(heap, (when, self._scheduled, fn, arg))

    def on_dispatch(self, fn: Any, arg: Any) -> None:
        self.dispatches += 1
        env = arg.env
        heap = self.pending.get(env)
        if heap:
            when, _index, expected_fn, expected_arg = heap[0]
            if (expected_fn is fn and expected_arg is arg
                    and when == env.now):
                heappop(heap)
                if not heap:
                    del self.pending[env]
                return
        self._mismatch(env, fn, arg, heap or [])

    def _mismatch(self, env: Any, fn: Any, arg: Any,
                  heap: List[tuple]) -> None:
        """Record an out-of-order dispatch, then drop the dispatched
        entry from the reference heap so later dispatches are checked
        against the entries still pending."""
        self.mismatches += 1
        position = next((i for i, entry in enumerate(heap)
                         if entry[2] is fn and entry[3] is arg), None)
        if self.first_mismatch is None:
            index = None if position is None else heap[position][1]
            self.first_mismatch = {
                "dispatch": self.dispatches,
                "expected": _describe(*heap[0]) if heap else None,
                "dispatched": _describe(env.now, index, fn, arg),
            }
        if position is not None:
            heap[position] = heap[-1]
            heap.pop()
            heapify(heap)
            if not heap:
                del self.pending[env]


class TraceRecorder(DispatchOrder):
    """Records the kernel schedule (and RNG draws) as a flat trace.

    Entry shapes (all tuples, repr-stable across runs):

    * ``("spawn", pid, name)`` -- process creation, in creation order;
    * ``("resume", pid, name, event_type, now)`` -- a process resumed;
    * ``("step", pid, name, now)`` -- bootstrap / failure;
    * ``("trigger", event_type, now)`` -- an event fired;
    * ``("rng", stream, method)`` -- one draw from a registry stream.

    Processes are identified by a deterministic spawn index, never by
    ``id()``, so two identical runs produce byte-identical traces.  The
    recorder checks dispatch order as :class:`DispatchOrder` does; that
    check adds nothing to :attr:`entries`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.entries: List[tuple] = []
        self.rng_counts: Dict[str, int] = {}
        self._pids: Dict[Any, int] = {}
        self._next_pid = 1

    def _pid(self, process: Any) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = self._pids[process] = self._next_pid
            self._next_pid += 1
        return pid

    def on_spawn(self, process: Any) -> None:
        self.entries.append(("spawn", self._pid(process), process.name))

    def on_resume(self, process: Any, event: Any) -> None:
        self.entries.append(("resume", self._pid(process), process.name,
                             type(event).__name__, process.env.now))

    def on_step(self, process: Any) -> None:
        self.entries.append(("step", self._pid(process), process.name,
                             process.env.now))

    def on_trigger(self, event: Any) -> None:
        self.entries.append(("trigger", type(event).__name__, event.env.now))

    def record_rng(self, stream: str, method: str) -> None:
        self.rng_counts[stream] = self.rng_counts.get(stream, 0) + 1
        self.entries.append(("rng", stream, method))


class _CountingStream:
    """Forwarding proxy over a numpy Generator that logs each draw."""

    __slots__ = ("_name", "_gen", "_recorder")

    def __init__(self, name: str, gen: Any, recorder: TraceRecorder):
        self._name = name
        self._gen = gen
        self._recorder = recorder

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        name, recorder = self._name, self._recorder

        def draw(*args: Any, **kwargs: Any) -> Any:
            recorder.record_rng(name, attr)
            return value(*args, **kwargs)

        return draw


@contextlib.contextmanager
def _instrumented_rng(recorder: TraceRecorder) -> Iterator[None]:
    """Patch ``RngRegistry.stream`` to hand out counting proxies.

    Proxies are cached per (registry, stream) so the registry's
    same-name-same-object identity guarantee survives instrumentation.
    """
    original = RngRegistry.stream
    wrappers: Dict[Tuple[int, str], _CountingStream] = {}

    def stream(self: RngRegistry, stream_name: str) -> Any:
        gen = original(self, stream_name)
        key = (id(self), stream_name)
        wrapper = wrappers.get(key)
        if wrapper is None or wrapper._gen is not gen:
            wrapper = _CountingStream(stream_name, gen, recorder)
            wrappers[key] = wrapper
        return wrapper

    RngRegistry.stream = stream  # type: ignore[method-assign]
    try:
        yield
    finally:
        RngRegistry.stream = original  # type: ignore[method-assign]


@dataclass(frozen=True)
class DivergenceReport:
    """The outcome of one two-run replay comparison."""

    label: str
    seed: int
    deterministic: bool
    digest_a: str
    digest_b: str
    events_a: int
    events_b: int
    divergence_index: Optional[int] = None
    entry_a: Optional[tuple] = None
    entry_b: Optional[tuple] = None
    context: Tuple[tuple, ...] = ()
    rng_divergence: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def attribution(self) -> str:
        """One line naming the most likely source of the divergence."""
        if self.deterministic:
            return "deterministic"
        if self.rng_divergence:
            streams = ", ".join(sorted(self.rng_divergence))
            return (f"RNG stream(s) {streams} drew different numbers of "
                    f"values between the runs")
        return ("schedule divergence with identical RNG draw counts: "
                "suspect wall-clock reads, leaked global state, or "
                "unordered iteration (run `repro lint`)")

    def describe(self) -> str:
        if self.deterministic:
            return (f"replay OK: {self.label!r} seed={self.seed} is "
                    f"bit-identical over {self.events_a} kernel events "
                    f"(digest {self.digest_a[:16]})")
        lines = [
            f"replay DIVERGED: {self.label!r} seed={self.seed} at kernel "
            f"event {self.divergence_index} "
            f"({self.events_a} vs {self.events_b} events)",
            f"  run A: {self.entry_a!r}",
            f"  run B: {self.entry_b!r}",
        ]
        if self.context:
            lines.append("  last agreed events:")
            lines.extend(f"    {entry!r}" for entry in self.context)
        for stream in sorted(self.rng_divergence):
            count_a, count_b = self.rng_divergence[stream]
            lines.append(f"  rng stream {stream!r}: {count_a} draws in "
                         f"run A vs {count_b} in run B")
        lines.append(f"  attribution: {self.attribution}")
        return "\n".join(lines)

    def to_findings(self) -> List[Finding]:
        if self.deterministic:
            return []
        return [Finding(
            rule="DIVERGENCE", severity="error",
            path=f"<replay:{self.label}>",
            line=0, col=0,
            message=f"same-seed replay diverged at kernel event "
                    f"{self.divergence_index}: "
                    f"{self.entry_a!r} vs {self.entry_b!r}",
            hint=self.attribution,
            detail={
                "index": self.divergence_index,
                "seed": self.seed,
                "events": [self.events_a, self.events_b],
                "entry_a": list(self.entry_a or ()),
                "entry_b": list(self.entry_b or ()),
                "rng_divergence": {k: list(v) for k, v in
                                   sorted(self.rng_divergence.items())},
            })]


def _record(workload: Callable[[int], Any],
            seed: int) -> Tuple[TraceRecorder, Any]:
    """Run ``workload(seed)`` once under full instrumentation.

    Returns the recorder and whatever the workload returned.

    Every install here is paired with a ``finally`` restore so a raising
    workload can never leak the recorder into the caller's process-wide
    state.
    """
    recorder = TraceRecorder()
    previous = kernel.set_default_monitor(recorder)
    try:
        with _instrumented_rng(recorder):
            value = workload(seed)
    finally:
        kernel.set_default_monitor(previous)
    return recorder, value


def _prefix_digests(entries: List[tuple]) -> List[bytes]:
    """Chained digests: ``digests[i]`` fingerprints ``entries[:i]``."""
    digests = [b""]
    state = hashlib.sha256()
    for entry in entries:
        state.update(repr(entry).encode())
        digests.append(state.digest())
    return digests


def _first_divergence(a: List[tuple], b: List[tuple]) -> int:
    """Bisect the first index where the traces disagree."""
    digests_a = _prefix_digests(a)
    digests_b = _prefix_digests(b)
    limit = min(len(a), len(b))
    lo, hi = 0, limit  # invariant: prefixes of length lo agree
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if digests_a[mid] == digests_b[mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo  # == limit when one trace is a prefix of the other


def _compare(run_a: TraceRecorder, run_b: TraceRecorder, seed: int,
             label: str, context_events: int) -> DivergenceReport:
    """Diff two recorded runs into a :class:`DivergenceReport`."""
    trace_a, trace_b = run_a.entries, run_b.entries
    digest_a = hashlib.sha256(
        repr(trace_a).encode()).hexdigest()
    digest_b = hashlib.sha256(
        repr(trace_b).encode()).hexdigest()
    if digest_a == digest_b:
        return DivergenceReport(
            label=label, seed=seed, deterministic=True,
            digest_a=digest_a, digest_b=digest_b,
            events_a=len(trace_a), events_b=len(trace_b))

    index = _first_divergence(trace_a, trace_b)
    entry_a = trace_a[index] if index < len(trace_a) else ("<end of trace>",)
    entry_b = trace_b[index] if index < len(trace_b) else ("<end of trace>",)
    context = tuple(trace_a[max(0, index - context_events):index])

    # Attribute over the *whole* traces, not just the divergent prefix:
    # trace entries record that a draw happened, not the value drawn, so
    # prefix counts can agree even when the streams consumed different
    # sequences (an extra draw displacing a later one).
    counts_a: Dict[str, int] = {}
    counts_b: Dict[str, int] = {}
    for trace, counts in ((trace_a, counts_a), (trace_b, counts_b)):
        for entry in trace:
            if entry[0] == "rng":
                counts[entry[1]] = counts.get(entry[1], 0) + 1
    rng_divergence = {
        stream: (counts_a.get(stream, 0), counts_b.get(stream, 0))
        for stream in sorted(set(counts_a) | set(counts_b))
        if counts_a.get(stream, 0) != counts_b.get(stream, 0)}

    return DivergenceReport(
        label=label, seed=seed, deterministic=False,
        digest_a=digest_a, digest_b=digest_b,
        events_a=len(trace_a), events_b=len(trace_b),
        divergence_index=index, entry_a=entry_a, entry_b=entry_b,
        context=context, rng_divergence=rng_divergence)


def sanitize(workload: Callable[[int], Any], seed: int = 0,
             label: str = "workload",
             context_events: int = 5) -> DivergenceReport:
    """Run ``workload(seed)`` twice and diff the kernel event traces.

    ``workload`` must be re-entrant: it builds all of its own state
    (Environments, registries, caches) from the seed argument.  Returns
    a :class:`DivergenceReport`; ``report.deterministic`` is the gate.
    """
    run_a, _ = _record(workload, seed)
    run_b, _ = _record(workload, seed)
    return _compare(run_a, run_b, seed, label, context_events)
