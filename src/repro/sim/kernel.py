"""The discrete-event simulation kernel.

The kernel follows the classic event-list design: an
:class:`Environment` owns a queue of scheduled events, and
:class:`Process` objects are Python generators that advance by yielding
events.  When a yielded event fires, the process resumes with the event's
value (or the event's exception is thrown into it).

The event list has two parts: work due *now* lives in a plain FIFO
deque (O(1) append/pop), and everything later sits on one binary heap.
Most traffic is same-instant, so most entries never touch the heap.
Dispatch follows exactly the ``(when, insertion-order)`` total order.
An attached monitor sees every insertion and every dispatch;
:class:`repro.analysis.sanitize.DispatchOrder`, which the replay
sanitizer's trace recorder extends, checks that order against a
reference heap of its own.

The feature set is intentionally small -- timeouts, one-shot events,
ready (already-satisfied) events, processes, and timed calls with no
event (:meth:`Environment.call_at`) -- because that is exactly what the
higher layers (RDMA fabric, cache engine, cluster allocator) need.
Faults reach a process as a failed event it waits on, never as an
exception thrown into it from outside.
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
    "Process",
    "Ready",
    "SimulationError",
    "Timeout",
    "set_default_monitor",
]

#: Monitor installed on every Environment created while set (see
#: :func:`set_default_monitor`).  ``None`` keeps the kernel hook-free.
_default_monitor: Optional[Any] = None

#: Per-class cap on the Event/Timeout/Process freelists.
_FREELIST_MAX = 512


def set_default_monitor(monitor: Optional[Any]) -> Optional[Any]:
    """Install ``monitor`` on all subsequently-created Environments.

    The replay sanitizer (:mod:`repro.analysis.sanitize`) uses this to
    observe workloads that build their own Environments internally.
    Returns the previous default so callers can restore it.  A monitor
    implements the :class:`repro.analysis.sanitize.KernelMonitor` protocol;
    every hook call is guarded by a ``None`` check, so unmonitored runs
    pay one attribute load per hook site.
    """
    global _default_monitor
    previous = _default_monitor
    _default_monitor = monitor
    return previous


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled on the event list with a value or an exception), and
    *processed* (callbacks ran).  Waiting on an already-processed event
    resumes the waiter on the next kernel step -- except a :class:`Ready`
    event, which a yielding process consumes in the same step.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "on_abandon")

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
        #: Called (once) when the event's waiter abandons the wait -- a
        #: combinator that was decided by another child, or walked away
        #: from itself.  Resource containers use it to pull the orphaned
        #: waiter out of their queues so items and slots are not handed
        #: to a process that will never consume them.
        self.on_abandon: Optional[Callable[["Event"], None]] = None

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

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # Inlined Environment._enqueue: succeed() fires once per
        # simulated operation, and the delay is always zero -- a plain
        # deque append.
        env = self.env
        env._immediate.append((_EVENT_DISPATCH, self))
        monitor = env.monitor
        if monitor is not None:
            monitor.on_schedule(env, env.now, _EVENT_DISPATCH, self)
            monitor.on_trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
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
        self.env._enqueue(self)
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
            self.callbacks.append(callback)

    def _handle_failure(self, exc: BaseException) -> None:
        """Fail the event whose own work raised ``exc``: a process, or
        a record that runs its work as callbacks (``repro.core.engine``)."""
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
    """An event that fires at a set instant.

    Built only by :meth:`Environment.timeout` and
    :meth:`Environment.timeout_at`, which write its fields straight into
    their triggered state (a timeout is born triggered, with the value
    ``None``, so an attached monitor receives ``on_trigger`` there,
    exactly as from ``succeed()``/``fail()``).
    """

    __slots__ = ()


class Ready(Event):
    """A wait that was already satisfied when it was made.

    Born processed and carrying its value, with no event-list entry.  A
    process that yields one gets the value sent straight back in the
    same kernel step, so a free slot, a stocked queue or an accepted put
    costs no dispatch.  Skipping the queue cannot reorder grants: the
    producer hands out a Ready only when nobody waits ahead of the
    caller.

    Any other consumer (:meth:`_add_callback`: combinators,
    ``run_process``) sees an ordinary triggered event: the first one
    turns it into a plain :class:`Event` with its dispatch entry at that
    point and ``on_abandon`` intact, so a combinator that walks away
    before the entry fires still hands the slot or item back.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", value: Any = None,
                 on_abandon: Optional[Callable[["Event"], None]] = None):
        self.env = env
        self.callbacks = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = True
        self.on_abandon = on_abandon
        monitor = env.monitor
        if monitor is not None:
            monitor.on_trigger(self)

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        self.__class__ = Event
        self._processed = False
        self.callbacks = [callback]
        self.env._enqueue(self)


class Process(Event):
    """A generator-driven simulation process.

    The process itself is an event that fires when the generator returns
    (its value is the generator's return value) or raises.  This makes
    processes joinable: ``yield other_process`` waits for completion.
    """

    __slots__ = ("_generator", "name", "_send", "_throw", "_resume_handler")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        # Built only by Environment._spawn, which announces the process
        # to the monitor and leaves the first step to its caller.
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Pre-bound handler slots: ``_step`` runs once per yield, so the
        # send/throw/resume bound methods are built a single time here
        # instead of being re-created (and garbage-collected) per step.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_handler = self._resume

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _resume(self, event: Event) -> None:
        monitor = self.env.monitor
        if monitor is not None:
            monitor.on_resume(self, event)
        # Inlined send path of _step: _resume is the single hottest
        # callback in the kernel (once per yield of every running
        # process), so the extra frame is worth eliding.  Semantics are
        # identical -- the kernel tests cover both entry points.
        if event._ok:
            send = self._send
            try:
                target = send(event._value)
                while target.__class__ is Ready:
                    if monitor is not None:
                        monitor.on_resume(self, target)
                    target = send(target._value)
            except StopIteration as stop:
                # Unobserved exit (see _exit_unobserved): this frame's
                # `self`, the pre-bound `_resume_handler` slot and
                # getrefcount's argument are the only references.
                if not self.callbacks and _refcount(self) == 3:
                    self._exit_unobserved(stop.value)
                else:
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
        else:
            self._step(throw=event._value)

    def _exit_unobserved(self, value: Any) -> None:
        """Finish without an event-list entry, straight to the freelist.

        Only for a clean exit with no joiner and no outside reference
        (the caller's ``sys.getrefcount`` proof, as for interning): then
        nothing can ever register on, or read, this process event, so
        dispatching it would run no callback and change nothing.
        """
        self._ok = True
        self._value = value
        self._triggered = True
        self._processed = True
        env = self.env
        monitor = env.monitor
        if monitor is not None:
            monitor.on_trigger(self)
        if len(env._process_free) < _FREELIST_MAX:
            env._process_free.append(self)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        monitor = self.env.monitor
        if monitor is not None:
            monitor.on_step(self)
        send_fn = self._send
        try:
            if throw is not None:
                target = self._throw(throw)
            else:
                target = send_fn(send)
            while target.__class__ is Ready:
                if monitor is not None:
                    monitor.on_resume(self, target)
                target = send_fn(target._value)
        except StopIteration as stop:
            # Unobserved exit: as in _resume, plus the caller's reference
            # (the run loop's entry on bootstrap, _resume's `self` on a
            # thrown failure).  Environment.start holds one more, so it
            # never matches and keeps its event-list entry.
            if not self.callbacks and _refcount(self) == 4:
                self._exit_unobserved(stop.value)
            else:
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

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class _Combinator(Event):
    """Shared machinery for :class:`AllOf`/:class:`AnyOf`.

    Both watch a set of child events through per-child callbacks.  Once
    the combinator's outcome is decided (or its own waiter walks away),
    the callbacks registered on still-undecided children are *detached*
    and each such child gets :meth:`Event._notify_abandoned`.  Without
    the detach, the loser of ``RedyCache._io_with_retry``'s
    attempt-versus-timeout ``AnyOf`` (a hung attempt still draining, or
    the timeout that outlived its attempt) keeps a dead callback, an
    event raced again and again grows its callback list without bound,
    and resource slots granted to losing children leak.
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
        # The combinator's own waiter walked away (an outer combinator
        # was decided by another child): propagate the abandonment to
        # every remaining child before running our own hook.
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

    def __init__(self):
        #: Current simulated time in seconds.  Only the kernel writes
        #: it (the run loop, :meth:`step`); everything else reads it.
        self.now = 0.0
        # Work due at the current instant: a plain FIFO deque (appends
        # at `now` happen in sequence order, so FIFO *is* seq order).
        self._immediate: deque = deque()
        # Everything scheduled for a later instant: one binary heap.
        self._near: list[tuple] = []
        # -- interned-struct freelists (fed by the run loop) --
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
        #: Kernel monitor (see
        #: :class:`repro.analysis.sanitize.KernelMonitor`): receives
        #: spawn/step/resume/trigger and schedule/dispatch hooks when
        #: set.  Inherits the process-wide default so the replay
        #: sanitizer can observe workloads that construct their own
        #: Environments.
        self.monitor: Any = _default_monitor
        # Event-loop statistics (cheap ints, always on).
        self._steps = 0
        self._events_processed = 0
        self._calls = 0
        self._process_failures = 0

    def event_loop_stats(self) -> dict:
        """Counters describing the kernel's own work so far."""
        return {
            "steps": self._steps,
            "events": self._events_processed,
            "calls": self._calls,
            "process_failures": self._process_failures,
            "pending": self._pending_count(),
        }

    def _pending_count(self) -> int:
        return len(self._immediate) + len(self._near)

    def due_now(self) -> bool:
        """Whether an entry is due at the current instant: one that runs
        before anything the running step schedules now."""
        near = self._near
        return bool(self._immediate) or (
            bool(near) and near[0][0] <= self.now)

    def _has_pending(self) -> bool:
        return bool(self._immediate or self._near)

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
            return event
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        # This factory runs once per simulated fabric/CPU hop -- the
        # hottest allocation site in a measurement run -- so the
        # freelist pop, slot init and scheduling all happen in-frame.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        free = self._timeout_free
        if free:
            # A recycled timeout was dispatched (no callbacks left) and
            # never failed or hooked (only resource events carry
            # on_abandon): its other slots already hold these values.
            timeout = free.pop()
            timeout._processed = False
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = None
            timeout._value = None
            timeout._ok = True
            timeout._triggered = True
            timeout._processed = False
            timeout.on_abandon = None
        now = self.now
        when = now + delay
        if when == now:
            # Zero delay (or one too small to move the float clock):
            # due at the current instant, FIFO behind earlier arrivals.
            self._immediate.append((_EVENT_DISPATCH, timeout))
        else:
            seq = self._sequence + 1
            self._sequence = seq
            heappush(self._near, (when, seq, _EVENT_DISPATCH, timeout))
        monitor = self.monitor
        if monitor is not None:
            monitor.on_schedule(self, when, _EVENT_DISPATCH, timeout)
            monitor.on_trigger(timeout)
        return timeout

    def timeout_at(self, when: float) -> Timeout:
        """A timeout that fires at the absolute instant ``when``.

        ``timeout(when - now)`` is not the same thing: ``now + (when -
        now)`` need not round back to ``when``.  A caller that computes
        an instant itself (the fabric's link reservations) gets exactly
        that instant here.  Ordering matches :meth:`timeout`: an entry
        at ``when == now`` queues behind everything already due.  The
        entry is :meth:`call_at`'s, with the timeout's dispatch.
        """
        free = self._timeout_free
        if free:
            timeout = free.pop()  # as in timeout()
            timeout._processed = False
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = None
            timeout._value = None
            timeout._ok = True
            timeout._triggered = True
            timeout._processed = False
            timeout.on_abandon = None
        self.call_at(when, _EVENT_DISPATCH, timeout)
        monitor = self.monitor
        if monitor is not None:
            monitor.on_trigger(timeout)
        return timeout

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any) -> None:
        """Run ``fn(arg)`` at the absolute instant ``when``, with no event.

        For a callback record whose next stage is due at a known
        instant: nothing else can wait on that instant, so an event
        would only carry the one callback.  The entry takes exactly the
        place a timeout there would (:meth:`timeout_at` schedules through
        here): the next sequence number, or the back of the deque at
        ``when == now``, so dispatch order stays ``(when, insertion)``.
        """
        now = self.now
        if when == now:
            self._immediate.append((fn, arg))
        elif when > now:
            seq = self._sequence + 1
            self._sequence = seq
            heappush(self._near, (when, seq, fn, arg))
        else:
            raise SimulationError(
                f"call_at({when}) is in the past (now={now})")
        monitor = self.monitor
        if monitor is not None:
            monitor.on_schedule(self, when, fn, arg)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Spawn ``generator`` as a process; it first runs on the next
        kernel step (its bootstrap entry)."""
        proc = self._spawn(generator, name)
        self._call_soon(Process._step, proc)
        return proc

    def start(self, generator: Generator[Event, Any, Any],
              name: str = "") -> Process:
        """:meth:`process` without the bootstrap entry: the first step
        runs now, inside the caller.

        For an event callback that runs exactly where a process
        waiting on that event would have been resumed -- then starting
        the work there instead of in a waiter spawned earlier moves
        nothing in the schedule and saves the waiter's bootstrap step.
        (Queue pairs no longer use it: every stage of a verb is due at
        an instant known when the stage before it ends, so a verb runs
        as a chain of :meth:`call_at` entries, with no process and no
        event; see ``QueuePair._launch``.)

        A process that finishes inside this first step keeps its exit
        entry (the caller may join what this returns).
        """
        proc = self._spawn(generator, name)
        # A second local reference: a finish in this step then fails
        # _step's refcount proof and keeps its exit entry.
        held = proc
        held._step()
        return proc

    def _spawn(self, generator: Generator[Event, Any, Any],
               name: str) -> Process:
        """A fresh (or recycled) process for ``generator``, announced to
        the monitor but not yet scheduled."""
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        free = self._process_free
        if free:
            proc = free.pop()
            proc.callbacks = None
            proc._value = None
            proc._ok = None
            proc._triggered = False
            proc._processed = False
            proc.on_abandon = None
            proc._generator = generator
            proc.name = name or getattr(generator, "__name__", "process")
            proc._send = generator.send
            proc._throw = generator.throw
            # proc._resume_handler is still this object's bound _resume.
        else:
            proc = Process(self, generator, name=name)
        monitor = self.monitor
        if monitor is not None:
            monitor.on_spawn(proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    #
    # Timed entries are ``(when, sequence, fn, arg)``: the handler is
    # pre-bound at scheduling time so the dispatch loop calls ``fn(arg)``
    # without type inspection.  ``sequence`` is unique, so comparisons
    # never reach the trailing elements.  Events carry
    # ``(Event._run_callbacks, event)`` -- that function's identity is
    # what distinguishes an event from a call in the loop statistics --
    # and calls (:meth:`call_at`, :meth:`_call_soon`) carry any
    # ``(fn, arg)``; the single-argument convention is what lets waiter
    # delivery, process bootstrap and a record's next stage schedule
    # plain bound/class methods instead of allocating a closure per call.
    #
    # Entries due at the current instant skip the sequence counter
    # entirely and land on the FIFO deque: nothing already queued for
    # `now` can carry a larger timestamp, and FIFO order *is* insertion
    # order -- so the (when, sequence) total order is preserved without
    # a single comparison.  Only future entries pay for a sequence
    # number and a heap push.  A monitor sees every insertion
    # (``on_schedule``) and every dispatch (``on_dispatch``, before the
    # handler runs); ``DispatchOrder`` checks this order against a
    # plain heap from those two hooks.

    def _enqueue(self, event: Event) -> None:
        """Schedule ``event``'s dispatch at the current instant."""
        self._immediate.append((_EVENT_DISPATCH, event))
        monitor = self.monitor
        if monitor is not None:
            monitor.on_schedule(self, self.now, _EVENT_DISPATCH, event)

    def _call_soon(self, fn: Callable[[Any], None], arg: Any) -> None:
        self._immediate.append((fn, arg))
        monitor = self.monitor
        if monitor is not None:
            monitor.on_schedule(self, self.now, fn, arg)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the next entry on the event list."""
        if self._near and self._near[0][0] <= self.now:
            _when, _seq, fn, arg = heappop(self._near)
        elif self._immediate:
            fn, arg = self._immediate.popleft()
        elif self._near:
            when, _seq, fn, arg = heappop(self._near)
            self.now = when
        else:
            raise SimulationError("step() on an empty event list")
        self._steps += 1
        if fn is _EVENT_DISPATCH:
            self._events_processed += 1
        else:
            self._calls += 1
        monitor = self.monitor
        if monitor is not None:
            monitor.on_dispatch(self, fn, arg)
        fn(arg)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event list drains or simulated time reaches ``until``.

        ``until`` is an absolute timestamp; when reached, ``now`` is set to
        exactly ``until`` so callers can resume cleanly.

        The loop inlines :meth:`step` (same semantics, verified by the
        kernel tests and the dispatch-order suite): the kernel is about
        a third of sampled host time on the workloads of the repository
        benchmark (29-43 % in traced seed-0 runs of ``benchmarks/perf``,
        2-vCPU VM, CPython 3.11), and the per-entry method call,
        bound-counter updates, and re-checked ``until`` guard are
        measurable at tens of thousands of steps per simulated second.
        Loop statistics accumulate in locals and are flushed even when a
        handler raises.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self.now})")
        immediate = self._immediate
        near = self._near
        dispatch = _EVENT_DISPATCH
        event_free = self._event_free
        timeout_free = self._timeout_free
        process_free = self._process_free
        pop_immediate = immediate.popleft
        # Hot-loop locals for what would otherwise be per-event global
        # (class/function) or builtin lookups.
        pop_heap = heappop
        freelist_max = _FREELIST_MAX
        refcount = _refcount
        timeout_cls = Timeout
        event_cls = Event
        process_cls = Process
        monitor = self.monitor
        now = self.now
        steps = events = 0
        try:
            while True:
                # Drain everything due at the current instant.  Order:
                # near-heap entries that have come due first (scheduled
                # for this instant *before* the clock reached it, so
                # their sequence numbers are smaller than anything a
                # callback appends to the deque now), then the deque.
                # Same-timestamp events batch through here without
                # touching a heap.
                #
                # Phase A: near entries that have come due.  Once the
                # near heap holds nothing <= now it cannot regain it this
                # instant -- entries scheduled *at* `now` go to the
                # deque, never to near -- so phase B drains the deque
                # without re-checking it.
                while near and near[0][0] <= now:
                    _when, _seq, fn, arg = pop_heap(near)
                    steps += 1
                    if monitor is not None:
                        monitor.on_dispatch(self, fn, arg)
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
                # from phase A -- no shared helper frame).
                while immediate:
                    fn, arg = pop_immediate()
                    steps += 1
                    if monitor is not None:
                        monitor.on_dispatch(self, fn, arg)
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
                        self.now = until
                    return
                when = near[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
                now = when
                self.now = when
        finally:
            self._steps += steps
            self._events_processed += events
            self._calls += steps - events

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
