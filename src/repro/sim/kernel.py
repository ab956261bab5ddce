"""The discrete-event simulation kernel.

The kernel follows the classic event-list design: an
:class:`Environment` owns a queue of scheduled events, and
:class:`Process` objects are Python generators that advance by yielding
events.  When a yielded event fires, the process resumes with the event's
value (or the event's exception is thrown into it).

Two interchangeable schedulers implement the event list (selected per
Environment, or process-wide via :func:`set_default_scheduler`):

* ``"calendar"`` (default) -- work due *now* lives in two plain FIFO
  deques (O(1) append/pop, one per priority), and everything later
  sits on one binary heap.  Most traffic is same-instant, so most
  entries never touch the heap.
* ``"heap"`` -- the original single binary heap, kept as the ordering
  reference for the scheduler-equivalence suite and the gate harness
  (``repro gate``, which runs every registered scenario on both loops).

Scheduler choice is **not observable** in event ordering: both dispatch
in exactly the same ``(when, priority, insertion-order)`` total order,
which the scheduler-equivalence suite and ``repro gate`` verify
trace-for-trace.

The feature set is intentionally small -- timeouts, one-shot events,
processes, and interrupts -- because that is exactly what the higher
layers (RDMA fabric, cache engine, cluster allocator) need.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

try:
    from sys import getrefcount as _refcount
except ImportError:  # pragma: no cover - non-CPython: disable interning
    def _refcount(obj: Any) -> int:
        return -1  # never matches a recycle threshold

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "set_default_monitor",
    "set_default_scheduler",
]

#: Monitor installed on every Environment created while set (see
#: :func:`set_default_monitor`).  ``None`` keeps the kernel hook-free.
_default_monitor: Optional[Any] = None

#: Scheduler used by Environments that do not pass one explicitly.
_default_scheduler: str = "calendar"

#: Per-class cap on the Event/Timeout/Process freelists.
_FREELIST_MAX = 512


def set_default_monitor(monitor: Optional[Any]) -> Optional[Any]:
    """Install ``monitor`` on all subsequently-created Environments.

    The replay sanitizer (:mod:`repro.analysis.sanitize`) uses this to
    observe workloads that build their own Environments internally.
    Returns the previous default so callers can restore it.  A monitor
    implements the :class:`repro.analysis.hb.KernelMonitor` protocol;
    every hook call is guarded by a ``None`` check, so unmonitored runs
    pay one attribute load per hook site.
    """
    global _default_monitor
    previous = _default_monitor
    _default_monitor = monitor
    return previous


def set_default_scheduler(scheduler: Optional[str]) -> str:
    """Select the event-list implementation for new Environments.

    ``"calendar"`` (the default) or ``"heap"``; ``None`` restores
    ``"calendar"``.  Returns the previous default so callers can
    restore it (the gate harness wraps its heap runs this way).
    Existing Environments are unaffected.
    """
    global _default_scheduler
    if scheduler is None:
        scheduler = "calendar"
    if scheduler not in ("calendar", "heap"):
        raise SimulationError(
            f"unknown scheduler {scheduler!r}; expected 'calendar' or 'heap'")
    previous = _default_scheduler
    _default_scheduler = scheduler
    return previous


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupting party supplies ``cause``, which the interrupted
    process can inspect to decide how to react (the migration and
    reclamation code paths use this to distinguish "VM reclaimed" from
    "cache deleted").
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle priorities.  Lower value fires first at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled on the event list with a value or an exception), and
    *processed* (callbacks ran).  Waiting on an already-processed event
    resumes the waiter immediately on the next kernel step.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "on_abandon", "_hb")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Lazily allocated on the first waiter; ``None`` both before any
        #: waiter registers and after processing (``_processed`` is the
        #: authoritative lifecycle flag).  Skipping the per-event list
        #: allocation matters: the measurement loop creates one event per
        #: simulated operation.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False
        #: Called (once) when the sole waiting process abandons this wait
        #: -- e.g. it was interrupted.  Resource containers use it to pull
        #: the orphaned waiter out of their queues so items and slots are
        #: not handed to a process that will never consume them.
        self.on_abandon: Optional[Callable[["Event"], None]] = None
        #: Happens-before stamp (the triggering process's vector clock),
        #: written by an attached kernel monitor; ``None`` when unmonitored.
        self._hb: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # Inlined Environment scheduling: succeed() fires once per
        # simulated operation, and the delay is always zero -- on the
        # default loop that is a plain deque append.
        env = self.env
        if env._use_heap:
            env._sequence += 1
            heappush(env._heap, (env._now, priority, env._sequence,
                                 _EVENT_DISPATCH, self))
        elif priority:
            env._immediate.append((_EVENT_DISPATCH, self))
        else:
            env._urgent.append((_EVENT_DISPATCH, self))
        monitor = env.monitor
        if monitor is not None:
            monitor.on_trigger(self)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every waiting process.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._enqueue(self, delay=0.0, priority=priority)
        monitor = self.env.monitor
        if monitor is not None:
            monitor.on_trigger(self)
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._processed:
            # Already processed: deliver on the next kernel step so that
            # resume ordering stays deterministic.
            self.env._call_soon(callback, self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)  # repro-lint: disable=L002 -- this IS the registration primitive; detach duty lies with callers (combinators keep handles)

    def _notify_abandoned(self) -> None:
        """Tell the event's producer that its waiter walked away."""
        hook, self.on_abandon = self.on_abandon, None
        if hook is not None:
            hook(self)

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: The pre-bound handler every event entry carries on the event list; its
#: identity tells the dispatch loop "this entry is an event" without an
#: isinstance() per step.
_EVENT_DISPATCH = Event._run_callbacks


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        self.env = env
        _arm_timeout(self, env, delay, value)


def _arm_timeout(timeout: Timeout, env: "Environment", delay: float,
                 value: Any) -> None:
    """(Re)initialize ``timeout`` in its triggered state and schedule it.

    Shared between :class:`Timeout` construction and the freelist reuse
    path in :meth:`Environment.timeout`.  The delay is validated here,
    once -- ``_enqueue`` trusts its (kernel-internal) callers -- and the
    Event fields are written directly in their final triggered state
    instead of calling ``Event.__init__`` and overwriting half of what
    it set.  Timeouts *are* triggers (they are born with their value),
    so an attached monitor receives ``on_trigger`` here exactly as it
    does from ``succeed()``/``fail()`` -- this is what gives the
    RaceDetector its trigger->resume happens-before edge on every
    timeout-driven resume.
    """
    if delay < 0:
        raise SimulationError(f"negative timeout delay: {delay}")
    timeout.callbacks = None
    timeout._value = value
    timeout._ok = True
    timeout._triggered = True
    timeout._processed = False
    timeout.on_abandon = None
    timeout._hb = None
    timeout.delay = delay
    if env._use_heap:
        env._sequence += 1
        heappush(env._heap, (env._now + delay, PRIORITY_NORMAL,
                             env._sequence, _EVENT_DISPATCH, timeout))
    else:
        now = env._now
        when = now + delay
        if when == now:
            # Zero delay (or one too small to move the float clock):
            # due at the current instant, FIFO behind earlier arrivals.
            env._immediate.append((_EVENT_DISPATCH, timeout))
        else:
            env._sequence += 1
            heappush(env._near, (when, PRIORITY_NORMAL, env._sequence,
                                 _EVENT_DISPATCH, timeout))
    monitor = env.monitor
    if monitor is not None:
        monitor.on_trigger(timeout)


class Process(Event):
    """A generator-driven simulation process.

    The process itself is an event that fires when the generator returns
    (its value is the generator's return value) or raises.  This makes
    processes joinable: ``yield other_process`` waits for completion.
    """

    __slots__ = ("_generator", "_waiting_on", "name", "_send", "_throw",
                 "_resume_handler")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Pre-bound handler slots: ``_step`` runs once per yield, so the
        # send/throw/resume bound methods are built a single time here
        # instead of being re-created (and garbage-collected) per step.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_handler = self._resume
        monitor = env.monitor
        if monitor is not None:
            monitor.on_spawn(self)
        # Bootstrap: resume the generator on the next kernel step.
        env._call_soon(Process._bootstrap, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        Interrupting a finished process is a no-op, mirroring the
        at-most-once semantics of VM reclamation notices.  The check is
        repeated when the scheduled throw actually fires: the process may
        finish (or a second interrupt may land) between the call and the
        throw, and throwing into a finished generator would corrupt the
        kernel ("already triggered").
        """
        if self._triggered:
            return
        self._detach_from_wait()
        monitor = self.env.monitor
        if monitor is not None:
            monitor.on_interrupt(self)
        self.env._call_soon(self._fire_interrupt, cause,
                            priority=PRIORITY_URGENT)

    def _detach_from_wait(self) -> None:
        """Stop listening to whatever the process is waiting on."""
        target, self._waiting_on = self._waiting_on, None
        if target is None or not target.callbacks:
            return
        try:
            target.callbacks.remove(self._resume_handler)
        except ValueError:
            return
        # Only the party that actually removed the resume callback owns
        # the abandonment: the wait is now orphaned and the resource that
        # produced the event must reclaim the item/slot.
        target._notify_abandoned()

    def _fire_interrupt(self, cause: Any) -> None:
        if self._triggered:
            # Finished (or was torn down by an earlier interrupt) between
            # scheduling and firing: at-most-once delivery, drop it.
            return
        # A prior interrupt may have resumed the process onto a *new*
        # wait; detach from that one too before throwing.
        self._detach_from_wait()
        self.env._interrupts_thrown += 1
        self._step(throw=Interrupt(cause))

    def _bootstrap(self) -> None:
        if not self._triggered:
            self._step(send=None)

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            # Stale delivery: waiting on an already-processed event is
            # delivered via _call_soon, which an interrupt cannot unhook
            # from the event list -- or the process finished/was
            # interrupted (then _waiting_on is None).  Either way the
            # event did not resume this process; drop it.
            return
        self._waiting_on = None
        monitor = self.env.monitor
        if monitor is not None:
            monitor.on_resume(self, event)
        # Inlined send path of _step: _resume is the single hottest
        # callback in the kernel (once per yield of every running
        # process), so the extra frame is worth eliding.  Semantics are
        # identical -- the kernel tests cover both entry points.
        if event._ok:
            try:
                target = self._send(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001
                self._handle_failure(exc)
                return
            # Inlined Event._add_callback; the attribute fetch doubles as
            # the "is this an Event" check (replacing an isinstance() per
            # yield), and the common pending-no-waiters case costs a
            # single list allocation instead of a method call.
            handler = self._resume_handler
            try:
                if target._processed:
                    # Already processed: deliver on the next kernel step
                    # so resume ordering stays deterministic.
                    self.env._call_soon(handler, target)
                elif target.callbacks is None:
                    target.callbacks = [handler]
                else:
                    target.callbacks.append(handler)
            except AttributeError:
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, "
                    f"expected an Event") from None
            self._waiting_on = target
        else:
            self._step(throw=event._value)

    def _handle_failure(self, exc: BaseException) -> None:
        # Always route the failure through fail() so the process event
        # triggers and `is_alive` flips -- raising from inside
        # Environment.step() would leave a permanently-alive zombie
        # whose joiners hang forever.  With no joiner registered yet
        # the failure is handed to the environment's
        # `on_process_failure` hook; without a hook it still
        # re-raises (after the state flip) so errors stay loud.
        had_joiners = bool(self.callbacks)
        self.fail(exc)
        self.env._process_failures += 1
        if not had_joiners:
            hook = self.env.on_process_failure
            if hook is not None:
                hook(self, exc)
            else:
                raise exc

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        monitor = self.env.monitor
        if monitor is not None:
            monitor.on_step(self)
        try:
            if throw is not None:
                target = self._throw(throw)
            else:
                target = self._send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to joiners
            self._handle_failure(exc)
            return
        # Inlined Event._add_callback (see _resume for rationale); the
        # attribute fetch doubles as the "is this an Event" check.
        handler = self._resume_handler
        try:
            if target._processed:
                self.env._call_soon(handler, target)
            elif target.callbacks is None:
                target.callbacks = [handler]
            else:
                target.callbacks.append(handler)
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, "
                f"expected an Event") from None
        self._waiting_on = target

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class _Combinator(Event):
    """Shared machinery for :class:`AllOf`/:class:`AnyOf`.

    Both watch a set of child events through per-child callbacks.  Once
    the combinator's outcome is decided (or its own waiter walks away),
    the callbacks registered on still-undecided children are *detached*
    and each such child gets :meth:`Event._notify_abandoned` -- exactly
    what :meth:`Process._detach_from_wait` does for a plain wait.
    Without the detach, hedged-read loops that race fresh timeouts
    against one long-lived event grow that event's callback list without
    bound, and resource slots granted to losing children leak.
    """

    __slots__ = ("_children", "_child_cbs")

    def _watch(self, events: list) -> None:
        self._children = events
        cbs = []
        append = cbs.append
        for i, event in enumerate(events):
            cb = (lambda ev, i=i: self._child_done(ev, i))
            append(cb)
            event._add_callback(cb)
        self._child_cbs = cbs

    def _child_done(self, event: Event, index: int) -> None:
        raise NotImplementedError

    def _detach_children(self, skip: int) -> None:
        """Unhook from every child except ``skip``; abandon orphaned waits.

        A child whose callbacks were already consumed (it processed) is
        left alone -- its late ``_child_done`` delivery is dropped by the
        ``_triggered`` guard.  A child that is pending, or triggered but
        not yet processed (it fired in the same instant the combinator
        was decided), still carries our callback: remove it and tell the
        child's producer, so a Store item or Resource slot handed to the
        losing wait is reclaimed instead of leaking.
        """
        children, self._children = self._children, None
        if not children:
            self._child_cbs = None
            return
        cbs, self._child_cbs = self._child_cbs, None
        for i, child in enumerate(children):
            if i == skip:
                continue
            callbacks = child.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(cbs[i])
                except ValueError:
                    continue
                child._notify_abandoned()

    def _notify_abandoned(self) -> None:
        # The combinator's own waiter walked away (it was interrupted):
        # propagate the abandonment to every remaining child before
        # running our own hook.
        self._detach_children(-1)
        hook, self.on_abandon = self.on_abandon, None
        if hook is not None:
            hook(self)


class AllOf(_Combinator):
    """Fires when every child event has fired; fails fast on first failure."""

    __slots__ = ("_pending", "_values")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        events = list(events)
        self._children = None
        self._child_cbs = None
        self._pending = len(events)
        self._values: list[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        self._watch(events)

    def _child_done(self, event: Event, index: int) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._detach_children(index)
            return
        self._values[index] = event._value
        self._pending -= 1
        if self._pending == 0:
            # Every child fired: nothing left to detach, just drop refs.
            self._children = None
            self._child_cbs = None
            self.succeed(list(self._values))


class AnyOf(_Combinator):
    """Fires with (index, value) of the first child event to fire."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        events = list(events)
        self._children = None
        self._child_cbs = None
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        self._watch(events)

    def _child_done(self, event: Event, index: int) -> None:
        if self._triggered:
            return
        if event._ok:
            self.succeed((index, event._value))
        else:
            self.fail(event._value)
        self._detach_children(index)


class Environment:
    """Owns simulated time and the event list."""

    def __init__(self, initial_time: float = 0.0,
                 scheduler: Optional[str] = None):
        self._now = float(initial_time)
        if scheduler is None:
            scheduler = _default_scheduler
        if scheduler not in ("calendar", "heap"):
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; "
                f"expected 'calendar' or 'heap'")
        #: Which event-list implementation this Environment runs on
        #: (``"calendar"`` or ``"heap"``); fixed at construction.
        self.scheduler = scheduler
        self._use_heap = scheduler == "heap"
        # -- heap scheduler state --
        self._heap: list[tuple] = []
        # -- default ("calendar") scheduler state --
        # Work due at the current instant: plain FIFO deques (appends
        # at `now` happen in sequence order, so FIFO *is* seq order).
        self._urgent: deque = deque()     # PRIORITY_URGENT at `now`
        self._immediate: deque = deque()  # PRIORITY_NORMAL at `now`
        # Everything scheduled for a later instant: one binary heap.
        self._near: list[tuple] = []
        # -- interned-struct freelists (fed by the default run loop) --
        self._event_free: list[Event] = []
        self._timeout_free: list[Timeout] = []
        self._process_free: list[Process] = []
        self._sequence = 0
        #: Called as ``hook(process, exc)`` when a process raises with no
        #: joiner registered to receive the failure.  When set, the hook
        #: owns the exception (the kernel stays running); when None, the
        #: exception re-raises out of :meth:`step` -- but only after the
        #: process event has been failed, so the kernel stays consistent.
        self.on_process_failure: Optional[
            Callable[["Process", BaseException], None]] = None
        #: Metrics registry attach point (see :mod:`repro.obs`); ``None``
        #: means instrumented components skip all bookkeeping.
        self.metrics: Any = None
        #: Kernel monitor (see :mod:`repro.analysis.hb`): receives
        #: spawn/resume/trigger/interrupt hooks when set.  Inherits the
        #: process-wide default so the replay sanitizer can observe
        #: workloads that construct their own Environments.
        self.monitor: Any = _default_monitor
        # Event-loop statistics (cheap ints, always on).
        self._steps = 0
        self._events_processed = 0
        self._immediate_calls = 0
        self._process_failures = 0
        self._interrupts_thrown = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def event_loop_stats(self) -> dict:
        """Counters describing the kernel's own work so far."""
        return {
            "steps": self._steps,
            "events": self._events_processed,
            "immediate_calls": self._immediate_calls,
            "process_failures": self._process_failures,
            "interrupts_thrown": self._interrupts_thrown,
            "pending": self._pending_count(),
        }

    def _pending_count(self) -> int:
        if self._use_heap:
            return len(self._heap)
        return len(self._urgent) + len(self._immediate) + len(self._near)

    def _has_pending(self) -> bool:
        if self._use_heap:
            return bool(self._heap)
        return bool(self._urgent or self._immediate or self._near)

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        free = self._event_free
        if free:
            # Freelist reuse: the run loop only recycles an event once
            # its callbacks have run and nothing else references it, so
            # re-initializing the slots here is indistinguishable from a
            # fresh allocation (identity is never used for ordering).
            event = free.pop()
            event.callbacks = None
            event._value = None
            event._ok = None
            event._triggered = False
            event._processed = False
            event.on_abandon = None
            event._hb = None
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Inlined _arm_timeout: this factory runs once per simulated
        # fabric/CPU hop -- the hottest allocation site in a measurement
        # run -- so the freelist pop, slot re-init, and scheduling all
        # happen in-frame.  Semantics are identical to Timeout(); the
        # kernel tests and the scheduler-equivalence suite pin both
        # entry points.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        free = self._timeout_free
        if free:
            timeout = free.pop()
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
        timeout.callbacks = None
        timeout._value = value
        timeout._ok = True
        timeout._triggered = True
        timeout._processed = False
        timeout.on_abandon = None
        timeout._hb = None
        timeout.delay = delay
        if self._use_heap:
            self._sequence += 1
            heappush(self._heap, (self._now + delay, PRIORITY_NORMAL,
                                  self._sequence, _EVENT_DISPATCH, timeout))
        else:
            now = self._now
            when = now + delay
            if when == now:
                self._immediate.append((_EVENT_DISPATCH, timeout))
            else:
                seq = self._sequence + 1
                self._sequence = seq
                heappush(self._near, (when, PRIORITY_NORMAL, seq,
                                      _EVENT_DISPATCH, timeout))
        monitor = self.monitor
        if monitor is not None:
            monitor.on_trigger(timeout)
        return timeout

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        free = self._process_free
        if free and hasattr(generator, "send"):
            proc = free.pop()
            proc.callbacks = None
            proc._value = None
            proc._ok = None
            proc._triggered = False
            proc._processed = False
            proc.on_abandon = None
            proc._hb = None
            proc._generator = generator
            proc._waiting_on = None
            proc.name = name or getattr(generator, "__name__", "process")
            proc._send = generator.send
            proc._throw = generator.throw
            # proc._resume_handler is still this object's bound _resume.
            monitor = self.monitor
            if monitor is not None:
                monitor.on_spawn(proc)
            self._call_soon(Process._bootstrap, proc)
            return proc
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    #
    # Timed entries are ``(when, priority, sequence, fn, arg)``: the
    # handler is pre-bound at scheduling time so the dispatch loop calls
    # ``fn(arg)`` without type inspection.  ``sequence`` is unique, so
    # comparisons never reach the trailing elements.  Events carry
    # ``(Event._run_callbacks, event)`` -- that function's identity is
    # what distinguishes an event from an immediate call in the loop
    # statistics -- and immediate calls carry ``(fn, arg)``; the
    # single-argument convention is what lets waiter delivery and process
    # bootstrap schedule plain bound/class methods instead of allocating
    # a closure per call.
    #
    # On the default loop, entries due at the current instant skip the
    # sequence counter entirely and land on the FIFO deques: nothing
    # already queued for `now` can carry a larger timestamp, a lower
    # priority value lives on its own deque, and FIFO order *is*
    # insertion order -- so the (when, priority, sequence) total order
    # is preserved without a single comparison.  Only future entries
    # pay for a sequence number and a heap push.  The
    # scheduler-equivalence suite pins this ordering against the
    # reference heap.

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        # Delay is validated by the callers that can produce a negative
        # one (_arm_timeout); succeed()/fail() always pass 0.0.
        if self._use_heap:
            self._sequence += 1
            heappush(self._heap, (self._now + delay, priority,
                                  self._sequence, _EVENT_DISPATCH, event))
            return
        when = self._now + delay
        if when == self._now:
            if priority:
                self._immediate.append((_EVENT_DISPATCH, event))
            else:
                self._urgent.append((_EVENT_DISPATCH, event))
            return
        self._sequence += 1
        heappush(self._near,
                 (when, priority, self._sequence, _EVENT_DISPATCH, event))

    def _call_soon(self, fn: Callable[[Any], None], arg: Any,
                   priority: int = PRIORITY_NORMAL) -> None:
        if self._use_heap:
            self._sequence += 1
            heappush(self._heap,
                     (self._now, priority, self._sequence, fn, arg))
        elif priority:
            self._immediate.append((fn, arg))
        else:
            self._urgent.append((fn, arg))

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the next entry on the event list."""
        if self._use_heap:
            if not self._heap:
                raise SimulationError("step() on an empty event list")
            when, _priority, _seq, fn, arg = heappop(self._heap)
            self._now = when
        elif self._urgent:
            fn, arg = self._urgent.popleft()
        elif self._near and self._near[0][0] <= self._now:
            _when, _priority, _seq, fn, arg = heappop(self._near)
        elif self._immediate:
            fn, arg = self._immediate.popleft()
        elif self._near:
            when, _priority, _seq, fn, arg = heappop(self._near)
            self._now = when
        else:
            raise SimulationError("step() on an empty event list")
        self._steps += 1
        if fn is _EVENT_DISPATCH:
            self._events_processed += 1
        else:
            self._immediate_calls += 1
        fn(arg)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event list drains or simulated time reaches ``until``.

        ``until`` is an absolute timestamp; when reached, ``now`` is set to
        exactly ``until`` so callers can resume cleanly.

        The dispatch loops inline :meth:`step` (same semantics, verified
        by the kernel tests and the scheduler-equivalence suite): this
        is 75% of a measurement run, and the per-entry method call,
        bound-counter updates, and re-checked ``until`` guard are
        measurable at tens of thousands of steps per simulated second.
        Loop statistics accumulate in locals and are flushed even when a
        handler raises.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        if self._use_heap:
            self._run_heap(until)
        else:
            self._run_calendar(until)

    def _run_calendar(self, until: Optional[float]) -> None:
        urgent = self._urgent
        immediate = self._immediate
        near = self._near
        dispatch = _EVENT_DISPATCH
        event_free = self._event_free
        timeout_free = self._timeout_free
        process_free = self._process_free
        pop_urgent = urgent.popleft
        pop_immediate = immediate.popleft
        # Hot-loop locals for what would otherwise be per-event global
        # (class/function) or builtin lookups.
        pop_heap = heappop
        freelist_max = _FREELIST_MAX
        refcount = _refcount
        timeout_cls = Timeout
        event_cls = Event
        process_cls = Process
        now = self._now
        steps = events = 0
        try:
            while True:
                # Drain everything due at the current instant.  Order:
                # urgent deque first (urgent entries only ever arise at
                # the current instant, and priority outranks sequence),
                # then near-heap entries that have come due (scheduled
                # for this instant *before* the clock reached it, so
                # their sequence numbers are smaller than anything a
                # callback appends to the deques now), then the normal
                # deque.  Same-timestamp events batch through here
                # without touching a heap.
                #
                # Phase A: near entries that have come due, with urgent
                # preemption.  Once the near heap holds nothing <= now
                # it cannot regain it this instant -- entries scheduled
                # *at* `now` go to the deques, never to near -- so
                # phase B drains the deques without re-checking it.
                while near and near[0][0] <= now:
                    if urgent:
                        fn, arg = pop_urgent()
                    else:
                        _when, _priority, _seq, fn, arg = pop_heap(near)
                    steps += 1
                    if fn is dispatch:
                        # Inlined Event._run_callbacks (the overwhelmingly
                        # common entry kind): one fewer frame per event.
                        events += 1
                        arg._processed = True
                        callbacks = arg.callbacks
                        if callbacks is not None:
                            arg.callbacks = None
                            for callback in callbacks:
                                callback(arg)
                        # Intern the spent struct for reuse -- but only
                        # when provably unreferenced: `arg` plus
                        # getrefcount's own parameter is 2 (a Process
                        # also self-references via its pre-bound resume
                        # handler slot).  Identity reuse is invisible to
                        # ordering (entries never compare by object), so
                        # recycling cannot perturb the schedule.
                        cls = arg.__class__
                        if cls is timeout_cls:
                            if (refcount(arg) == 2
                                    and len(timeout_free) < freelist_max):
                                timeout_free.append(arg)
                        elif cls is event_cls:
                            if (refcount(arg) == 2
                                    and len(event_free) < freelist_max):
                                event_free.append(arg)
                        elif cls is process_cls:
                            if (refcount(arg) == 3
                                    and len(process_free) < freelist_max):
                                process_free.append(arg)
                    else:
                        fn(arg)
                # Phase B: deque-only drain (dispatch block duplicated
                # from phase A -- the two-deque check is the whole point
                # of the split, so no shared helper frame).
                while True:
                    if urgent:
                        fn, arg = pop_urgent()
                    elif immediate:
                        fn, arg = pop_immediate()
                    else:
                        break
                    steps += 1
                    if fn is dispatch:
                        events += 1
                        arg._processed = True
                        callbacks = arg.callbacks
                        if callbacks is not None:
                            arg.callbacks = None
                            for callback in callbacks:
                                callback(arg)
                        cls = arg.__class__
                        if cls is timeout_cls:
                            if (refcount(arg) == 2
                                    and len(timeout_free) < freelist_max):
                                timeout_free.append(arg)
                        elif cls is event_cls:
                            if (refcount(arg) == 2
                                    and len(event_free) < freelist_max):
                                event_free.append(arg)
                        elif cls is process_cls:
                            if (refcount(arg) == 3
                                    and len(process_free) < freelist_max):
                                process_free.append(arg)
                    else:
                        fn(arg)
                # Advance simulated time to the next scheduled entry.
                if not near:
                    if until is not None:
                        self._now = until
                    return
                when = near[0][0]
                if until is not None and when > until:
                    self._now = until
                    return
                now = when
                self._now = when
        finally:
            self._steps += steps
            self._events_processed += events
            self._immediate_calls += steps - events

    def _run_heap(self, until: Optional[float]) -> None:
        # The original single-heap dispatch loop, kept verbatim as the
        # A/B reference scheduler.
        heap = self._heap
        dispatch = _EVENT_DISPATCH
        steps = events = 0
        try:
            if until is None:
                while heap:
                    when, _priority, _seq, fn, arg = heappop(heap)
                    self._now = when
                    steps += 1
                    if fn is dispatch:
                        events += 1
                        arg._processed = True
                        callbacks = arg.callbacks
                        if callbacks is not None:
                            arg.callbacks = None
                            for callback in callbacks:
                                callback(arg)
                    else:
                        fn(arg)
                return
            while heap and heap[0][0] <= until:
                when, _priority, _seq, fn, arg = heappop(heap)
                self._now = when
                steps += 1
                if fn is dispatch:
                    events += 1
                    arg._processed = True
                    callbacks = arg.callbacks
                    if callbacks is not None:
                        arg.callbacks = None
                        for callback in callbacks:
                            callback(arg)
                else:
                    fn(arg)
            self._now = until
        finally:
            self._steps += steps
            self._events_processed += events
            self._immediate_calls += steps - events

    def run_process(self, generator: Generator[Event, Any, Any],
                    name: str = "") -> Any:
        """Convenience: run a single process to completion, return its value."""
        proc = self.process(generator, name=name)
        # Keep a callback registered so failures are captured, not raised
        # from the middle of the event loop.
        proc._add_callback(lambda ev: None)
        while not proc.processed and self._has_pending():
            self.step()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} starved: event list drained while waiting")
        if not proc.ok:
            raise proc.value
        return proc.value
