"""Wire-protocol objects exchanged between Redy clients and cache servers.

These are the in-simulation counterparts of Figure 6's message payloads:
request batches travelling client -> server and response batches coming
back, plus the *Connect* handshake of §4.2 that sets up rings, queue
pairs, and access tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.latency import OP_HEADER_BYTES, RESP_HEADER_BYTES
from repro.net.memory import AccessToken
from repro.sim.kernel import Event

__all__ = [
    "ConnectReply",
    "ConnectRequest",
    "EngineOp",
    "ONE_SIDED_STAGES",
    "OpResult",
    "OpStages",
    "RequestBatch",
    "ResponseBatch",
]

#: The stages of a one-sided op, in order (see :class:`OpStages`).
ONE_SIDED_STAGES = ("handoff", "slot_wait", "credit_wait", "cpu_wait",
                    "issue", "verb", "reap_cpu_wait", "reap", "numa")


class OpStages:
    """Where one op's simulated time went: the sim-clock instants at
    its stage boundaries, one fixed slot each.

    The application thread stamps ``handed`` as it starts handing the
    op to a client thread; the data path stamps the rest as the op
    reaches each boundary (``queued`` is the op's ``enqueued_at``).  A
    stage lasts from one stamp to the next, so the stages of an op sum
    to ``settled - handed``: its hand-off plus its ``OpResult.latency``.
    Only the one-sided path stamps past ``handed`` so far.
    """

    __slots__ = ("handed", "queued", "slot", "credit", "cpu", "posted",
                 "completed", "reaping", "reaped", "settled")

    def __init__(self, handed: float):
        self.handed = handed
        self.queued = self.slot = self.credit = self.cpu = None
        self.posted = self.completed = self.reaping = None
        self.reaped = self.settled = None

    def durations(self) -> dict:
        """Seconds per stage of :data:`ONE_SIDED_STAGES`, in order."""
        if self.settled is None:
            raise ValueError("the op has not settled on the one-sided path")
        stamps = (self.handed, self.queued, self.slot, self.credit,
                  self.cpu, self.posted, self.completed, self.reaping,
                  self.reaped, self.settled)
        return {stage: later - earlier for stage, earlier, later
                in zip(ONE_SIDED_STAGES, stamps, stamps[1:])}


@dataclass
class EngineOp:
    """One application I/O as seen by the data path.

    ``weight`` is the number of logical application requests this op
    stands for.  Functional traffic always uses weight 1; the measurement
    harness issues pre-filled batches as single ops of weight ``b`` so
    that simulating a 205 MOPS configuration stays tractable (documented
    in DESIGN.md).
    """

    is_read: bool
    size: int
    token: Optional[AccessToken] = None
    offset: int = 0
    data: Optional[bytes] = None
    weight: int = 1
    #: Fires with the op's :class:`OpResult`; only ``submit`` creates
    #: it (a caller of ``io`` gets the result back from ``io``).
    completion: Optional[Event] = None
    enqueued_at: float = 0.0
    #: Serving-tier identity: which registered tenant issued this op.
    #: ``None`` (the default) is the classic anonymous single-user path;
    #: the engine only adds per-tenant accounting when it is set.
    tenant: Optional[str] = None
    #: The op's stage ledger (see :class:`OpStages`); only set when a
    #: metrics registry is installed, so an untraced run stamps nothing.
    stages: Optional["OpStages"] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("op size must be >= 0")
        if self.weight < 1:
            raise ValueError("op weight must be >= 1")
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(
                f"data length {len(self.data)} != size {self.size}")

    @property
    def request_wire_bytes(self) -> int:
        """Bytes this op adds to a request batch."""
        payload = self.size if not self.is_read else 0
        return self.weight * (OP_HEADER_BYTES + payload)

    @property
    def response_wire_bytes(self) -> int:
        """Bytes this op adds to a response batch."""
        payload = self.size if self.is_read else 0
        return self.weight * (RESP_HEADER_BYTES + payload)


@dataclass
class OpResult:
    """Outcome of one :class:`EngineOp`, as ``CacheDataPath.io`` returns it."""

    ok: bool
    data: Optional[bytes] = None
    error: Optional[str] = None
    latency: float = 0.0


@dataclass
class RequestBatch:
    """A batch of requests sent to a cache server in one RDMA write.

    Its sizes are summed once, here: the client posts ``wire_bytes``,
    the server counts ``total_ops`` and answers with ``response_bytes``.
    """

    ops: List[EngineOp]
    created_at: float
    #: Issued by the posting connection's own counter, so ids repeat
    #: exactly across same-seed runs in one interpreter (as the fabric's
    #: QP and region ids do).
    batch_id: int
    total_ops: int = field(init=False)
    wire_bytes: int = field(init=False)
    response_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        total_ops = wire_bytes = response_bytes = 0
        for op in self.ops:
            total_ops += op.weight
            wire_bytes += op.request_wire_bytes
            response_bytes += op.response_wire_bytes
        self.total_ops = total_ops
        self.wire_bytes = wire_bytes
        self.response_bytes = response_bytes


@dataclass
class ResponseBatch:
    """Results for one request batch, written back into the client's ring."""

    ops: List[EngineOp]
    results: List[OpResult]
    #: The request batch this answers (for outstanding-batch tracking).
    batch_id: int = 0

    def __post_init__(self) -> None:
        if len(self.ops) != len(self.results):
            raise ValueError("ops/results length mismatch")


@dataclass
class ConnectRequest:
    """Client -> server *Connect* message (§4.2).

    Carries "the number of physical regions the cache uses on the VM and
    the RDMA configuration": how many data regions to allocate, their
    size, whether communication is one-sided or two-sided, and -- if
    two-sided -- how many server cores the cache may use.  The client
    also passes the tokens of its response rings so the server can write
    results back.
    """

    client_name: str
    n_regions: int
    region_size: int
    server_threads: int
    queue_depth: int
    connections: int
    response_ring_tokens: Sequence[AccessToken]
    backed: bool = True

    def __post_init__(self) -> None:
        if self.n_regions < 0:
            raise ValueError("n_regions must be >= 0")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if len(self.response_ring_tokens) != self.connections:
            raise ValueError(
                "need exactly one response-ring token per connection")


@dataclass
class ConnectReply:
    """Server -> client reply: access tokens, one per region (§4.2)."""

    region_tokens: List[AccessToken]
    request_ring_tokens: List[AccessToken]
