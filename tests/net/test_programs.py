"""Verb programs: the dependent read executed in one round trip.

Covers the descriptor (validation + wire sizes), the pointer-deref rule
it shares with the two-hop fallback, the QP-side executor
(`QueuePair.post_program`), the self-verifying CAS guard, partial
completions on faults, and per-request context propagation.
"""

import struct

import pytest

from repro.hardware import AZURE_HPC
from repro.net import (
    Fabric,
    MemoryRegion,
    Placement,
    QueuePair,
    RdmaOp,
    WorkRequest,
)
from repro.net.programs import ProgramError, VerbProgram, chase_target
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment, US


def make_pair(depth=4, region_size=1 << 20, backing=True, metrics=None):
    env = Environment()
    if metrics is not None:
        metrics.install(env)
    fabric = Fabric(env, AZURE_HPC)
    client = fabric.add_endpoint("client", Placement(cluster=0, rack=0))
    server = fabric.add_endpoint("server", Placement(cluster=0, rack=0))
    region = server.register(MemoryRegion(region_size, backing=backing))
    qp = QueuePair(env, client, server, max_depth=depth)
    return env, fabric, client, server, region, qp


def chase(pointer_offset=64, read_bytes=32, verify=False):
    return VerbProgram(pointer_offset=pointer_offset, read_bytes=read_bytes,
                       verify=verify)


RECORD = bytes(range(32))

#: Every outcome a dependent read can have, pinned exactly: completion
#: instant, completion fields and the QP's program counters.
#: ``pointer`` is the word stored at the pointer offset; ``disturb``
#: lands a pointer swing ("move") or a revocation ("revoke") 20 us into
#: the remote service window.
OUTCOME_CASES = {
    "ok": dict(),
    "ok-verify": dict(verify=True),
    "zero-byte-record": dict(read_bytes=0),
    "pointer-fault": dict(region_size=8192, pointer_offset=8188),
    "record-fault": dict(region_size=8192, pointer=1 << 40),
    "record-fault-verify": dict(region_size=8192, pointer=1 << 40,
                                verify=True),
    "guard-abort": dict(region_size=4 << 20, read_bytes=1 << 20,
                        verify=True, disturb="move"),
    "revoked-mid-service": dict(region_size=4 << 20, read_bytes=1 << 20,
                                disturb="revoke"),
    "revoked-mid-service-verify": dict(region_size=4 << 20,
                                       read_bytes=1 << 20, verify=True,
                                       disturb="revoke"),
    "unbacked": dict(backing=False),
    "unbacked-verify": dict(backing=False, verify=True),
}


def run_outcome(region_size=1 << 20, backing=True, pointer_offset=64,
                pointer=4096, read_bytes=32, verify=False, disturb=None):
    metrics = MetricsRegistry()
    env, _, _, _, region, qp = make_pair(
        region_size=region_size, backing=backing, metrics=metrics)
    if pointer_offset + 8 <= region_size:
        region.local_write(pointer_offset, struct.pack("<Q", pointer))
    if 4096 + len(RECORD) <= region_size:
        region.local_write(4096, RECORD)
    program = chase(pointer_offset=pointer_offset, read_bytes=read_bytes,
                    verify=verify)

    def disturber(env):
        yield env.timeout(20 * US)
        if disturb == "move":
            region.local_write(pointer_offset, struct.pack("<Q", 8192))
        else:
            region.revoke()

    def proc(env):
        if disturb is not None:
            env.process(disturber(env))
        return (yield qp.post_program(program, region.token))

    completion = env.run_process(proc(env))
    counters = tuple(int(metrics.counter(name).value) for name in (
        "qp.programs_posted", "qp.program_steps", "qp.program_cas_aborts"))
    return completion, counters


OUTSIDE = "outside region of size 8192"
REVOKED = "region 1 token revoked (VM gone?)"


@pytest.mark.parametrize("case,expected", [
    # (completed_at, ok, error, cas_aborted, data,
    #  (programs_posted, program_steps, program_cas_aborts))
    ("ok", (4.321226666666668e-06, True, None, False, RECORD, (1, 2, 0))),
    ("ok-verify", (4.8256e-06, True, None, False, RECORD, (1, 3, 0))),
    ("zero-byte-record",
     (3.916533333333334e-06, True, None, False, b"", (1, 2, 0))),
    ("pointer-fault", (3.665893333333333e-06, False,
                       "access [8188, 8196) " + OUTSIDE, False, None,
                       (1, 1, 0))),
    ("record-fault", (4.318666666666667e-06, False,
                      "access [1099511627776, 1099511627808) " + OUTSIDE,
                      False, None, (1, 2, 0))),
    ("record-fault-verify", (4.321866666666667e-06, False,
                             "access [1099511627776, 1099511627808) "
                             + OUTSIDE, False, None, (1, 2, 0))),
    ("guard-abort", (0.00015861141333333334, False,
                     "program aborted by CAS guard at step 2", True, None,
                     (1, 3, 1))),
    ("revoked-mid-service", (0.00015810768000000002, False, REVOKED, False,
                             None, (1, 2, 0))),
    ("revoked-mid-service-verify", (0.00015861141333333334, False, REVOKED,
                                    False, None, (1, 2, 0))),
    ("unbacked", (4.321226666666668e-06, True, None, False, None, (1, 2, 0))),
    ("unbacked-verify", (4.8256e-06, True, None, False, None, (1, 3, 0))),
])
def test_program_outcome_is_pinned(case, expected):
    """Completion instant (exact float: same service-time sum in the
    same order, same partial response size), completion fields and
    program counters of every dependent-read outcome."""
    completion, counters = run_outcome(**OUTCOME_CASES[case])
    assert (completion.completed_at, completion.ok, completion.error,
            completion.cas_aborted, completion.data, counters) == expected


class TestProgramValidation:
    @pytest.mark.parametrize("field", [
        "pointer_offset", "read_bytes", "fallback_offset"])
    def test_negative_operands_rejected(self, field):
        operands = dict(pointer_offset=64, read_bytes=32, fallback_offset=0)
        operands[field] = -1
        with pytest.raises(ProgramError):
            VerbProgram(**operands)

    @pytest.mark.parametrize("verify,sizes", [
        (False, (64, 48)),
        (True, (104, 56)),
    ])
    def test_dependent_read_wire_bytes_are_pinned(self, verify, sizes):
        """The GET-path chain's wire sizes (request, response) feed every
        dependent-read timing; they must not move."""
        program = chase(read_bytes=32, verify=verify)
        assert (program.request_wire_bytes,
                program.response_wire_bytes) == sizes

    def test_chase_target_derefs_little_endian_word(self):
        assert chase_target(struct.pack("<Q", 4096), 5) == 4096
        # Unbacked pointer word (size-only region): static fallback offset.
        assert chase_target(None, 5) == 5
        assert chase_target(b"", 5) == 5


class TestProgramExecution:
    def test_dependent_read_chases_the_pointer(self):
        env, _, _, _, region, qp = make_pair()
        payload = bytes(range(32))
        region.local_write(4096, payload)
        region.local_write(64, struct.pack("<Q", 4096))

        def proc(env):
            completion = yield qp.post_program(chase(), region.token)
            return completion

        completion = env.run_process(proc(env))
        assert completion.ok
        # The record READ targeted the *dereffed* offset.
        assert completion.data == payload
        assert not completion.cas_aborted

    def test_one_round_trip_beats_two_sequential_reads(self):
        env, _, _, _, region, qp = make_pair()
        region.local_write(64, struct.pack("<Q", 4096))

        def program_proc(env):
            yield qp.post_program(chase(), region.token)
            return env.now

        program_time = env.run_process(program_proc(env))

        env2, _, _, _, region2, qp2 = make_pair()
        region2.local_write(64, struct.pack("<Q", 4096))

        def two_hop_proc(env):
            first = yield qp2.post(
                WorkRequest(RdmaOp.READ, region2.token, 64, 8))
            offset = struct.unpack("<Q", first.data)[0]
            yield qp2.post(WorkRequest(RdmaOp.READ, region2.token,
                                       offset, 32))
            return env.now

        two_hop_time = env2.run_process(two_hop_proc(env2))
        # The dependent hop costs remote service time, not a round trip.
        assert program_time < two_hop_time - AZURE_HPC.fabric.round_trip_base(1)

    def test_verify_guard_passes_on_quiet_memory(self):
        env, _, _, _, region, qp = make_pair()
        region.local_write(4096, b"y" * 32)
        region.local_write(64, struct.pack("<Q", 4096))

        def proc(env):
            return (yield qp.post_program(chase(verify=True), region.token))

        completion = env.run_process(proc(env))
        assert completion.ok
        assert not completion.cas_aborted
        assert completion.data == b"y" * 32

    def test_cas_guard_aborts_when_pointer_moves_mid_program(self):
        """The self-verifying read: guards re-sample *after* the service
        window, so a pointer swung while the chain executes aborts it."""
        env, _, _, _, region, qp = make_pair(region_size=4 << 20)
        region.local_write(4096, b"old" + b"\0" * 29)
        region.local_write(64, struct.pack("<Q", 4096))
        # A large record makes the service window long enough (~70us of
        # responder DMA) to land a concurrent write inside it.
        program = chase(read_bytes=1 << 20, verify=True)

        def mover(env):
            yield env.timeout(20 * US)
            region.local_write(64, struct.pack("<Q", 8192))

        def proc(env):
            env.process(mover(env))
            return (yield qp.post_program(program, region.token))

        completion = env.run_process(proc(env))
        assert not completion.ok
        assert completion.cas_aborted
        assert "guard" in completion.error
        assert completion.data is None  # aborted chains deliver no payload

    def test_mid_chain_fault_yields_partial_completion(self):
        env, _, _, _, region, qp = make_pair(region_size=8192)
        # Pointer word points far outside the region: step 1 faults.
        region.local_write(64, struct.pack("<Q", 1 << 40))

        def proc(env):
            return (yield qp.post_program(chase(), region.token))

        completion = env.run_process(proc(env))
        assert not completion.ok
        assert not completion.cas_aborted
        assert "outside region" in completion.error

    def test_revoked_region_mid_service_aborts_cleanly(self):
        env, _, _, _, region, qp = make_pair(region_size=4 << 20)
        region.local_write(64, struct.pack("<Q", 4096))
        program = chase(read_bytes=1 << 20, verify=True)

        def revoker(env):
            yield env.timeout(20 * US)
            region.revoke()

        def proc(env):
            env.process(revoker(env))
            return (yield qp.post_program(program, region.token))

        completion = env.run_process(proc(env))
        assert not completion.ok
        assert "revoked" in completion.error

    def test_unbacked_region_keeps_the_timing_path(self):
        """Size-only measurement regions run the same chain shape: the
        deref falls back to the static offset, timing identical."""
        env, _, _, _, region, qp = make_pair(backing=False)

        def proc(env):
            return (yield qp.post_program(chase(), region.token)), env.now

        completion, unbacked_time = env.run_process(proc(env))
        assert completion.ok
        assert completion.data is None

        env2, _, _, _, region2, qp2 = make_pair(backing=True)
        region2.local_write(64, struct.pack("<Q", 4096))

        def proc2(env):
            return (yield qp2.post_program(chase(), region2.token)), env.now

        _, backed_time = env2.run_process(proc2(env2))
        assert unbacked_time == backed_time


class TestMultiStepSubmission:
    def test_zero_byte_read_inside_a_chain(self):
        """Regression: a zero-length record READ (pure existence probe)
        completes ok with empty bytes, not the pointer word."""
        env, _, _, _, region, qp = make_pair()
        region.local_write(4096, b"z" * 16)
        region.local_write(64, struct.pack("<Q", 4096))

        def proc(env):
            return (yield qp.post_program(chase(read_bytes=0), region.token))

        completion = env.run_process(proc(env))
        assert completion.ok
        assert completion.data == b""

    def test_context_propagates_per_request(self):
        """Concurrent programs on one QP keep per-request correlation:
        each completion carries its own ``context``, in post order."""
        env, _, _, _, region, qp = make_pair()
        region.local_write(4096, b"a" * 32)
        region.local_write(64, struct.pack("<Q", 4096))

        def post(tag):
            program = chase()
            return qp.post(WorkRequest(
                RdmaOp.PROGRAM, region.token, 0, program.request_wire_bytes,
                context=tag, program=program))

        def proc(env):
            events = [post(tag) for tag in ("first", "second")]
            yield env.all_of(events)
            return [event.value for event in events]

        completions = env.run_process(proc(env))
        assert [c.context for c in completions] == ["first", "second"]
        assert all(c.ok and c.data == b"a" * 32 for c in completions)
