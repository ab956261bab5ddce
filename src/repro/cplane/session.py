"""Logical client sessions: the unit the pool multiplexes.

A :class:`ClientSession` is one elastic client's relationship with one
remote cache endpoint -- what would be a dedicated QP (plus registered
recv buffers) in the naive model.  The pool maps many sessions onto few
QPs; the session object carries the identity the demultiplexer routes
completions back to, and the idle bookkeeping the harvester reads.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ClientSession"]


class ClientSession:
    """One logical client connection, as the control plane sees it."""

    __slots__ = ("session_id", "local_name", "remote_name", "opened_at",
                 "ready_at", "closed_at", "last_active", "qp_id",
                 "recv_region_id", "reads", "writes")

    def __init__(self, session_id: int, local_name: str, remote_name: str,
                 opened_at: float):
        self.session_id = session_id
        self.local_name = local_name
        self.remote_name = remote_name
        #: Simulated instant the client asked to connect.
        self.opened_at = opened_at
        #: Instant the session became usable (QP assigned; includes any
        #: establishment the strategy put on the open path).
        self.ready_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.last_active = opened_at
        #: The pooled QP currently carrying this session (None before
        #: assignment / after close).
        self.qp_id: Optional[int] = None
        #: Per-session recv region (naive strategy only; pooled
        #: sessions share the QP's region).
        self.recv_region_id: Optional[int] = None
        self.reads = 0
        self.writes = 0

    @property
    def open(self) -> bool:
        return self.closed_at is None

    def touch(self, now: float) -> None:
        self.last_active = now

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return (f"<ClientSession {self.session_id} "
                f"{self.local_name}->{self.remote_name} {state} "
                f"qp={self.qp_id}>")
