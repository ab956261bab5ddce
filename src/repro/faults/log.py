"""The append-only fault event log.

Every fault the injector applies (and every process failure it routes)
is recorded here with its simulated timestamp.  The log is the
subsystem's determinism contract: the same schedule under the same seed
must yield a **bit-identical** log, which :meth:`FaultLog.digest` makes
checkable in one comparison.  Serialization is canonical JSON lines
(sorted keys, `repr`-exact floats), so the digest is stable across
processes and platforms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

__all__ = ["FaultEvent", "FaultLog"]

#: The canonical line encoder: what ``json.dumps(obj, sort_keys=True,
#: separators=(",", ":"))`` builds per call, built once.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault (or routed failure) at one simulated instant."""

    time: float
    kind: str
    target: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind, "target": self.target,
                "detail": dict(self.detail)}


class FaultLog:
    """Append-only record of everything the injector did.

    Events only ever append (never mutate, never reorder), so a log is a
    faithful trace of the fault plane's actions; tests and the chaos CLI
    compare logs via :meth:`digest`.  An event is kept as a plain
    ``(time, kind, target, detail)`` tuple; :class:`FaultEvent` objects
    are built only for iteration.
    """

    def __init__(self):
        self._events: List[Tuple[float, str, str, Dict[str, Any]]] = []

    def append(self, time: float, kind: str, target: str,
               **detail: Any) -> None:
        self._events.append((time, kind, target, detail))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return (FaultEvent(*event) for event in self._events)

    def kinds(self) -> Dict[str, int]:
        """Event counts by kind (for summaries and smoke assertions)."""
        counts: Dict[str, int] = {}
        for _time, kind, _target, _detail in self._events:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def digest(self) -> str:
        """SHA-256 over the canonical serialization -- the determinism
        fingerprint two same-seed runs must share.

        The canonical form is one JSON line per event (sorted keys, no
        whitespace, exact floats), newline-separated with no trailing
        newline.  The lines are hashed as a stream, so the whole log is
        never held as one string.
        """
        sha = hashlib.sha256()
        encode = _CANONICAL.encode
        separator = b""
        for time, kind, target, detail in self._events:
            sha.update(separator)
            sha.update(encode({"time": time, "kind": kind, "target": target,
                               "detail": detail}).encode())
            separator = b"\n"
        return sha.hexdigest()

    def __repr__(self) -> str:
        return f"<FaultLog {len(self._events)} events>"
