"""Shared resources for simulation processes.

Two primitives cover the reproduction's needs:

* :class:`Store` -- an unbounded-or-bounded FIFO of items; the simulated
  analogue of the lock-free ring buffers in Redy's data path and of device
  request queues in the FASTER substrate.
* :class:`Resource` -- counted slots with FIFO admission; used for NIC DMA
  engines and SSD internal parallelism.

A request that can be met at call time (a free slot, a stocked store, a
put with room) returns a :class:`~repro.sim.kernel.Ready` event: the
process that yields it continues in the same kernel step instead of
waiting for a dispatch on the event list.  A hot path that expects the
grant to be free takes it with no event at all -- ``try_acquire``,
``try_get``, ``try_put`` -- and asks for the event only when the
non-blocking form fails.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.kernel import Environment, Event, Ready, SimulationError

__all__ = ["Resource", "Store"]


class Store:
    """A FIFO channel between producer and consumer processes.

    ``put`` blocks while the store is full (when ``capacity`` is bounded);
    ``get`` blocks while it is empty.  Waiters are served in FIFO order,
    which mirrors the in-order guarantee Redy gets from reliable RDMA
    connections.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is accepted.

        A put accepted at call time returns a :class:`Ready`, which the
        yielding process continues past in the same kernel step; the item
        is in the store (or with a consumer) by then, so the Ready has
        nothing to hand back if its waiter walks away.
        """
        if self._getters:
            # Hand the item straight to the oldest waiting consumer.
            self._getters.popleft().succeed(item)
        elif not self.is_full:
            self._items.append(item)
        else:
            event = self.env.event()
            event.on_abandon = self._cancel_put
            self._putters.append((event, item))
            return event
        return Ready(self.env)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item.

        With an item in stock this is a :class:`Ready` carrying it, which
        the yielding process continues past in the same kernel step.  A
        consumer that abandons the wait (a combinator dropped it) is
        pulled back out of the queue -- and if an item was already
        handed to it, the item is returned to the store -- so no item is
        ever lost to an orphaned waiter.
        """
        if self._items:
            ready = Ready(self.env, self._items.popleft(), self._cancel_get)
            self._admit_putter()
            return ready
        event = self.env.event()
        event.on_abandon = self._cancel_get
        self._getters.append(event)
        return event

    def _cancel_get(self, event: Event) -> None:
        try:
            self._getters.remove(event)
            return
        except ValueError:
            pass
        if event.triggered and event.ok:
            # A put() handed its item over in the same instant a
            # combinator dropped the wait; reclaim it for the next
            # consumer.
            self._restock(event.value)

    def _cancel_put(self, event: Event) -> None:
        for index, (pending, _item) in enumerate(self._putters):
            if pending is event:
                del self._putters[index]
                return

    def _restock(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            # Front of the queue: the item was logically next in FIFO
            # order.  May transiently exceed a bounded capacity; that is
            # the correct accounting -- the item was already admitted.
            self._items.appendleft(item)

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._admit_putter()
        return True, item

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()


class Resource:
    """``slots`` interchangeable units acquired and released by processes.

    Usage::

        yield resource.acquire()
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, slots: int = 1):
        if slots < 1:
            raise SimulationError(f"Resource needs >= 1 slot, got {slots}")
        self.env = env
        self.slots = slots
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held.

        A free slot is granted at once as a :class:`Ready`, which the
        yielding process continues past in the same kernel step; a free
        slot implies an empty waiter queue (``release`` hands a slot
        straight to the next waiter), so this never jumps the queue.  A
        waiter that abandons the wait (a combinator dropped it) is
        removed from the queue --
        and if a slot was already handed to it, the slot is released
        again -- so ``in_use`` credits can never leak to processes that
        will never run.
        """
        if self._in_use < self.slots:
            self._in_use += 1
            return Ready(self.env, None, self._cancel_acquire)
        event = self.env.event()
        event.on_abandon = self._cancel_acquire
        self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Non-blocking acquire: take a free slot and return True, or
        return False (and queue nothing) when every slot is held.

        The grant :meth:`acquire` would hand out as a :class:`Ready`,
        without the event: ``if not r.try_acquire(): yield r.acquire()``
        holds a slot after the same steps and in the same order.
        """
        if self._in_use < self.slots:
            self._in_use += 1
            return True
        return False

    def _cancel_acquire(self, event: Event) -> None:
        try:
            self._waiters.remove(event)
            return
        except ValueError:
            pass
        if event.triggered and event.ok:
            # The slot was granted (at acquire time or via a release
            # handoff) but a combinator dropped the wait before it was
            # consumed; pass it on so the credit is not permanently leaked.
            self.release()

    def acquire_for(self, event: Event) -> None:
        """Acquire for the process waiting on the pending ``event``: a
        free slot is granted at once (the event fires now), else the
        event joins the queue here.  The process resumes holding a slot."""
        if self._in_use < self.slots:
            self._in_use += 1
            event.succeed()
        else:
            event.on_abandon = self._cancel_acquire
            self._waiters.append(event)

    def take_waiter(self) -> Event:
        """Remove the oldest waiter without granting it a slot and
        return its event: a holder that did the waiter's work (flat
        combining) fires it with the outcome instead."""
        event = self._waiters.popleft()
        event.on_abandon = None
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            # Hand the slot directly to the oldest waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
