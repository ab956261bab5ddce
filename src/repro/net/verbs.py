"""RDMA verb descriptors.

Only the one-sided verbs exist at this layer.  Redy implements its
two-sided request/response protocol with one-sided *writes* into message
rings (paper §4.1: "Redy implements two-sided communications ... using
one-sided RDMA writes, since they are faster").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.memory import AccessToken

__all__ = ["Completion", "RdmaOp", "WorkRequest"]


class RdmaOp(enum.Enum):
    """One-sided verb type."""

    READ = "read"
    WRITE = "write"


@dataclass
class WorkRequest:
    """One posted one-sided operation.

    For a WRITE, ``payload_bytes`` (and optionally ``data``) describe the
    client-side buffer pushed to ``(token, remote_offset)``.  For a READ,
    ``payload_bytes`` is the length pulled from the remote region.
    """

    op: RdmaOp
    token: AccessToken
    remote_offset: int
    payload_bytes: int
    data: Optional[bytes] = None
    #: Opaque correlation value handed back on the completion (batch ids,
    #: callback handles).
    context: object = None
    #: Opaque message delivered to the target region's mailbox when this
    #: WRITE lands (how request/response batches reach the poller on the
    #: other side).  Ignored for READs and for regions without a mailbox.
    payload_object: object = None
    #: Simulated timestamp when the request was posted to a queue pair
    #: (stamped by :meth:`QueuePair.post`; drives wire-latency metrics).
    posted_at: float = 0.0
    #: Correlation id, stamped per-QP by :meth:`QueuePair.post`.  Scoping
    #: the counter to the queue pair (not a module global) keeps ids
    #: identical across same-seed runs in one interpreter -- a module
    #: counter keeps ticking between runs and leaks into process names,
    #: which the replay sanitizer flags as schedule divergence.
    wr_id: int = 0
    #: Whether a successful completion is reported (``IBV_SEND_SIGNALED``).
    #: The completion event of an unsignaled request fires only with an
    #: error completion -- real RC QPs still report errors for unsignaled
    #: work -- so a poster that only cares about failures (a message-ring
    #: write whose answer arrives by other means) costs no dispatch when
    #: it succeeds.
    signaled: bool = True

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        if self.data is not None and len(self.data) != self.payload_bytes:
            raise ValueError(
                f"data length {len(self.data)} != payload_bytes "
                f"{self.payload_bytes}")

    @property
    def is_write(self) -> bool:
        return self.op is RdmaOp.WRITE


@dataclass
class Completion:
    """Completion-queue entry for one work request."""

    wr_id: int
    op: RdmaOp
    ok: bool
    #: Data returned by a READ (None for size-only regions or on error).
    data: Optional[bytes] = None
    #: Error detail when ``ok`` is False.
    error: Optional[str] = None
    context: object = None
    #: Simulated timestamp when the completion was generated.
    completed_at: float = 0.0
