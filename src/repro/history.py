"""A checked op history: §6.2's two claims over every client op of a run.

A :class:`History` records each op around its caller's own ``yield``
(it schedules nothing); :func:`check` tests them.  *Safety* is an
interval register check per key: an ok read returns the key's initial
bytes, only while no acked write has completed before the read began,
or the value of a write that began before the read ended and that no
acked write superseded (began after it completed, completed before the
read began).  A failed or unfinished write may land at any time but
supersedes nothing, and a *required* op (one issued before any fault
or once the run settled) must succeed.  *Availability*: no read meets
a closed migration read gate -- one on a region whose server has no
recovery in flight.
The check is sound, not complete: a read of a value several writes
wrote passes if any of them qualifies, so it needs no Wing-Gong search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Hashable, List, Optional

from repro.sim.kernel import Event

__all__ = ["History", "Op", "check"]


@dataclass
class Op:
    """One client op; ``value`` is the bytes written or read, a
    ``required`` op must succeed, and a read's ``gate`` is the region of
    the closed migration read gate it met."""

    key: Hashable
    write: bool
    value: Optional[bytes]
    invoked: float
    completed: Optional[float]  # None while in flight
    ok: bool
    required: bool
    gate: Optional[int]


class History:
    """The ops of one run.  ``initial(key)`` is a key's bytes before any
    write; ``cache`` is the cache whose read gates a read may meet, or
    ``None`` for a router, whose members never migrate."""

    def __init__(self, env, initial: Callable[[Hashable], bytes], cache):
        self.env, self.initial, self.cache = env, initial, cache
        self.ops: List[Op] = []

    def invoke(self, key: Hashable, data: Optional[bytes]) -> Callable:
        """Record a write of ``data`` (a read if ``None``) invoked now;
        returns the callback its result completes it with."""
        op = Op(key, data is not None, data, self.env.now, None, False,
                False, self._gate(key) if data is None else None)
        self.ops.append(op)

        def complete(result) -> None:
            op.completed, op.ok = self.env.now, result.ok
            if data is None and result.ok:
                op.value = result.data
        return complete

    def record(self, key: Hashable, data: Optional[bytes], io):
        """``result = yield from history.record(key, data, io)``: wait out
        ``io`` (an event or an ``*_io`` body) and record it."""
        complete = self.invoke(key, data)
        result = (yield io) if isinstance(io, Event) else (yield from io)
        complete(result)
        return result

    def require(self, key: Hashable, data: Optional[bytes], io):
        """:meth:`record` an op that must succeed: one issued before any
        fault lands, or once the run has settled."""
        op = len(self.ops)  # record appends it before its first yield
        result = yield from self.record(key, data, io)
        self.ops[op].required = True
        return result

    def _gate(self, key) -> Optional[int]:
        """The region whose closed read gate a read of ``key`` meets now,
        unless a recovery closed it (§6.2's repopulate)."""
        cache = self.cache
        if cache is None:
            return None
        index = key // cache.region_bytes
        if cache.table.gate(index, True) is None or cache.recovering(index):
            return None
        return index

    def outcome(self) -> dict:
        """The blob's ``history``: ops, checked reads, failure lines."""
        return {"ops": len(self.ops),
                "reads": sum(op.ok and not op.write for op in self.ops),
                "failures": check(self)}


def _span(op: Op) -> str:
    end = "..." if op.completed is None else f"{op.completed:.7f}"
    return f"[{op.invoked:.7f}, {end}]"


def _settled(op: Op) -> float:
    """When a write can no longer land: an unacked one never settles."""
    return op.completed if op.ok else float("inf")


def check(history: History) -> List[str]:
    """One failure line per op that breaks a rule of the module doc,
    keys in sorted order.  Per key, acked writes sort by completion and
    each value's writes by invocation: a read costs two bisections."""
    by_key = defaultdict(lambda: ([], []))
    for op in history.ops:
        by_key[op.key][op.write].append(op)
    failures = []
    for key in sorted(by_key):
        reads, writes = by_key[key]
        failures += [f"key {key}: required {'write' if op.write else 'read'} "
                     f"{_span(op)} failed"
                     for op in writes + reads if op.required and not op.ok]
        acked = sorted((w for w in writes if w.ok), key=_settled)
        acked_at = [w.completed for w in acked]
        # floors[i]: the latest start among the first i + 1 acked
        # writes; that write supersedes every write completed before it.
        floors = list(accumulate((w.invoked for w in acked), max))
        by_value = defaultdict(list)
        for w in sorted(writes, key=lambda w: w.invoked):
            by_value[w.value].append(w)
        sources = {value: ([w.invoked for w in ws],
                           list(accumulate(map(_settled, ws), max)))
                   for value, ws in by_value.items()}
        initial = history.initial(key)
        for r in reads:
            if r.gate is not None:
                failures.append(f"key {key}: read {_span(r)} met region "
                                f"{r.gate}'s closed migration read gate")
            if not r.ok:
                continue
            n = bisect_left(acked_at, r.invoked)
            floor = floors[n - 1] if n else float("-inf")
            began, lasting = sources.get(r.value, ((), ()))
            k = bisect_right(began, r.completed)
            # Allowed: a write no acked write superseded, or the initial
            # bytes before any ack.
            if (k and lasting[k - 1] >= floor
                    or not n and r.value == initial):
                continue
            line = (f"key {key}: read {_span(r)} returned "
                    f"{r.value[:8].hex()}..({len(r.value)} B), ")
            if k or r.value == initial:  # then an ack preceded the read
                newer = max(acked[:n], key=lambda w: w.invoked)
                failures.append(line + f"superseded by write {_span(newer)}")
            else:
                failures.append(line + "a value no write began before the "
                                "read ended")
    return failures
