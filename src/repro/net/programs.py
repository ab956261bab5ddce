"""Remote-side verb programs: a dependent read in one round trip.

A FASTER GET through a remote region classically pays two dependent
fabric round trips -- READ the hash bucket, then READ the log record the
bucket points at.  "RDMA is Turing complete" shows such dependent access
sequences can execute entirely at the remote NIC as chained work
requests, a later one taking its remote offset from an earlier one's
returned data.

Redy posts one such chain, the dependent read, and a
:class:`VerbProgram` is its descriptor: READ the pointer word at
``pointer_offset``, READ ``read_bytes`` at the offset that word holds,
and with ``verify`` re-read the pointer word after the remote service
window as a compare-and-swap guard that aborts the read when the
pointer moved underneath it.  The descriptor travels to the remote NIC
in **one** request message, each step is charged
:attr:`~repro.hardware.nic.NicSpec.program_step_latency` plus its DMA
cost, and **one** response carries the payloads -- so the dependent
read costs one round trip plus remote service time instead of two
round trips.  ``repro.net.qp._ProgramVerb`` executes it; this module
owns the descriptor, its validation, its wire sizes and the
pointer-deref rule the two-hop fallback shares.

Failure semantics: a READ that faults (revoked token, out-of-bounds
deref) or a guard that observes a changed pointer aborts the read.  The
requester still gets exactly one :class:`~repro.net.verbs.Completion`
-- ``ok=False``, with ``cas_aborted`` set when the guard fired -- so no
acked work is ever silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CAS_WORD_BYTES",
    "POINTER_BYTES",
    "PROGRAM_HEADER_BYTES",
    "PROGRAM_STATUS_BYTES",
    "ProgramError",
    "STEP_DESCRIPTOR_BYTES",
    "VerbProgram",
    "chase_target",
]

#: Wire framing of the program descriptor itself (opcode, step count,
#: token, flags).
PROGRAM_HEADER_BYTES = 16

#: Per-step wire descriptor (opcode, offset/offset-source, length,
#: compare-source).
STEP_DESCRIPTOR_BYTES = 24

#: Status trailer on the response (steps completed, abort reason).
PROGRAM_STATUS_BYTES = 8

#: CAS operands are a single machine word.
CAS_WORD_BYTES = 8

#: Width of the pointer word every dependent read chases: one machine
#: word, so the CAS guard can re-check it.
POINTER_BYTES = CAS_WORD_BYTES


class ProgramError(ValueError):
    """A verb program has a negative offset or size."""


def chase_target(pointer: Optional[bytes], fallback_offset: int) -> int:
    """The record offset a dependent read chases: the little-endian u64
    the pointer READ returned, or ``fallback_offset`` when no bytes came
    back (size-only measurement regions), so the timing path is the same
    with and without backing."""
    if not pointer:
        return fallback_offset
    return int.from_bytes(pointer[:POINTER_BYTES], "little")


@dataclass(frozen=True)
class VerbProgram:
    """The dependent read: pointer READ, record READ at the chased
    offset, then the optional CAS guard on the pointer word.

    ``verify=True`` adds the guard: after the service window the remote
    NIC re-reads the pointer and compares it against what the first
    READ saw -- the self-verifying read that makes dependent GETs safe
    against concurrent migration/compaction moving the record after the
    pointer was sampled.  ``fallback_offset`` is the record offset used
    when the pointer word has no backing bytes (:func:`chase_target`).
    """

    pointer_offset: int
    read_bytes: int
    fallback_offset: int = 0
    verify: bool = False

    def __post_init__(self) -> None:
        for name in ("pointer_offset", "read_bytes", "fallback_offset"):
            if getattr(self, name) < 0:
                raise ProgramError(f"{name} must be >= 0")

    @property
    def step_count(self) -> int:
        """Chained steps the remote NIC runs: two READs, plus the guard."""
        return 3 if self.verify else 2

    @property
    def request_wire_bytes(self) -> int:
        """One descriptor message: header + a descriptor per READ; the
        guard is framed as a CAS WQE whose compare and swap operand
        slots ride inline."""
        guard = STEP_DESCRIPTOR_BYTES + 2 * CAS_WORD_BYTES
        return (PROGRAM_HEADER_BYTES + 2 * STEP_DESCRIPTOR_BYTES
                + (guard if self.verify else 0))

    @property
    def response_wire_bytes(self) -> int:
        """One response message: status trailer + pointer word + record
        (+ the guard's observed word)."""
        return self.response_bytes_through(self.step_count)

    def response_bytes_through(self, executed: int) -> int:
        """Response size when the read aborted after ``executed`` ok
        steps (partial completions return only what executed)."""
        produced = (POINTER_BYTES, self.read_bytes, CAS_WORD_BYTES)
        return PROGRAM_STATUS_BYTES + sum(produced[:executed])
