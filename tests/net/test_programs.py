"""Verb programs: chained one-sided verbs executed in one round trip.

Covers the descriptor (validation + wire-cost accounting), the QP-side
execution engine (`QueuePair.post_program`), the self-verifying CAS
guard, partial completions on mid-chain faults, and per-request context
propagation.
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
from repro.net.programs import (
    CAS_WORD_BYTES,
    MAX_PROGRAM_STEPS,
    PROGRAM_HEADER_BYTES,
    PROGRAM_STATUS_BYTES,
    STEP_DESCRIPTOR_BYTES,
    ProgramError,
    ProgramStep,
    StepOp,
    VerbProgram,
    resolve_offset,
)
from repro.sim import Environment, US


def make_pair(depth=4, region_size=1 << 20, backing=True):
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    client = fabric.add_endpoint("client", Placement(cluster=0, rack=0))
    server = fabric.add_endpoint("server", Placement(cluster=0, rack=0))
    region = server.register(MemoryRegion(region_size, backing=backing))
    qp = QueuePair(env, client, server, max_depth=depth)
    return env, fabric, client, server, region, qp


def chase(pointer_offset=64, read_bytes=32, verify=False):
    return VerbProgram.dependent_read(
        pointer_offset=pointer_offset, read_bytes=read_bytes, verify=verify)


class TestProgramValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            VerbProgram(steps=())

    def test_chain_bound_enforced(self):
        steps = tuple(ProgramStep(op=StepOp.READ, length=8)
                      for _ in range(MAX_PROGRAM_STEPS + 1))
        with pytest.raises(ProgramError):
            VerbProgram(steps=steps)
        VerbProgram(steps=steps[:MAX_PROGRAM_STEPS])  # at the bound: fine

    def test_offset_from_must_name_an_earlier_step(self):
        with pytest.raises(ProgramError):
            VerbProgram(steps=(
                ProgramStep(op=StepOp.READ, length=8, offset_from=0),))
        with pytest.raises(ProgramError):
            VerbProgram(steps=(
                ProgramStep(op=StepOp.READ, length=8),
                ProgramStep(op=StepOp.READ, length=8, offset_from=1),))

    def test_cas_operand_shapes_enforced(self):
        with pytest.raises(ProgramError):
            ProgramStep(op=StepOp.CAS, length=4, compare_from=0).validate(1)
        # A CAS step is a guard: it must compare against an earlier step.
        with pytest.raises(ProgramError):
            ProgramStep(op=StepOp.CAS, length=8).validate(1)
        with pytest.raises(ProgramError):
            ProgramStep(op=StepOp.CAS, length=8, compare_from=1).validate(1)
        with pytest.raises(ProgramError):
            ProgramStep(op=StepOp.READ, length=8, compare_from=0).validate(1)

    def test_wire_byte_accounting(self):
        program = VerbProgram(steps=(
            ProgramStep(op=StepOp.READ, offset=0, length=8),
            ProgramStep(op=StepOp.READ, offset=64, length=16,
                        offset_from=0),
            ProgramStep(op=StepOp.CAS, offset=0, length=8, compare_from=0),
        ))
        assert program.request_wire_bytes == (
            PROGRAM_HEADER_BYTES
            + 2 * STEP_DESCRIPTOR_BYTES       # two READs
            + STEP_DESCRIPTOR_BYTES + 2 * CAS_WORD_BYTES)
        assert program.response_wire_bytes == (
            PROGRAM_STATUS_BYTES + 8 + 16 + CAS_WORD_BYTES)
        # A chain that aborted after the first step returns only its data.
        assert program.response_bytes_through(1) == PROGRAM_STATUS_BYTES + 8

    @pytest.mark.parametrize("verify,sizes", [
        (False, (64, 40, 48)),
        (True, (104, 64, 56)),
    ])
    def test_dependent_read_wire_bytes_are_pinned(self, verify, sizes):
        """The GET-path chain's wire sizes (request, cached-shape request,
        response) feed every dependent-read timing; they must not move
        when the step vocabulary changes."""
        program = chase(read_bytes=32, verify=verify)
        assert (program.request_wire_bytes,
                program.cached_request_wire_bytes,
                program.response_wire_bytes) == sizes

    def test_resolve_offset_derefs_little_endian_word(self):
        step = ProgramStep(op=StepOp.READ, offset=5, length=8,
                           offset_from=0)
        assert resolve_offset(step, (struct.pack("<Q", 4096),)) == 4096
        # Unbacked source (size-only region): static fallback offset.
        assert resolve_offset(step, (None,)) == 5
        assert resolve_offset(step, (b"",)) == 5


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
        assert completion.data == payload
        assert completion.steps_completed == 2
        assert not completion.cas_aborted
        # Per-step outcomes: the second READ targeted the *dereffed* offset.
        assert completion.step_results[1].offset == 4096

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
        assert completion.steps_completed == 3

    def test_cas_guard_aborts_when_pointer_moves_mid_program(self):
        """The self-verifying read: guards re-sample *after* the service
        window, so a pointer swung while the chain executes aborts it."""
        env, _, _, _, region, qp = make_pair(region_size=4 << 20)
        region.local_write(4096, b"old" + b"\0" * 29)
        region.local_write(64, struct.pack("<Q", 4096))
        # A large record makes the service window long enough (~70us of
        # responder DMA) to land a concurrent write inside it.
        program = VerbProgram.dependent_read(
            pointer_offset=64, read_bytes=1 << 20, verify=True)

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
        # Both READs executed; only the guard failed.
        assert completion.steps_completed == 2
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
        assert completion.steps_completed == 1
        assert "outside region" in completion.error

    def test_revoked_region_mid_service_aborts_cleanly(self):
        env, _, _, _, region, qp = make_pair(region_size=4 << 20)
        region.local_write(64, struct.pack("<Q", 4096))
        program = VerbProgram.dependent_read(
            pointer_offset=64, read_bytes=1 << 20, verify=True)

        def revoker(env):
            yield env.timeout(20 * US)
            region.revoke()

        def proc(env):
            env.process(revoker(env))
            return (yield qp.post_program(program, region.token))

        completion = env.run_process(proc(env))
        assert not completion.ok
        assert "revoked" in completion.error

    def test_non_supporting_endpoint_yields_error_completion(self):
        env, _, _, server, region, qp = make_pair()
        server.supports_programs = False
        region.local_write(64, struct.pack("<Q", 4096))

        def proc(env):
            return (yield qp.post_program(chase(), region.token))

        completion = env.run_process(proc(env))
        assert not completion.ok
        assert "does not support verb programs" in completion.error

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
        """Regression: a zero-length READ step (pure existence probe)
        must complete ok, produce empty bytes, and not clobber the data
        payload of the chain's real READ."""
        env, _, _, _, region, qp = make_pair()
        payload = b"z" * 16
        region.local_write(4096, payload)
        region.local_write(64, struct.pack("<Q", 4096))
        program = VerbProgram(steps=(
            ProgramStep(op=StepOp.READ, offset=64, length=8),
            ProgramStep(op=StepOp.READ, offset=0, length=0),
            ProgramStep(op=StepOp.READ, offset=0, length=16,
                        offset_from=0),
        ))

        def proc(env):
            return (yield qp.post_program(program, region.token))

        completion = env.run_process(proc(env))
        assert completion.ok
        assert completion.steps_completed == 3
        assert completion.step_results[1].data == b""
        # The *last* successful READ's payload is the completion data.
        assert completion.data == payload

    def test_context_propagates_per_request(self):
        """Concurrent programs on one QP keep per-request correlation:
        each completion carries its own ``context``, in post order."""
        env, _, _, _, region, qp = make_pair()
        region.local_write(4096, b"a" * 32)
        region.local_write(64, struct.pack("<Q", 4096))

        def proc(env):
            events = [qp.post_program(chase(), region.token, context=tag)
                      for tag in ("first", "second")]
            yield env.all_of(events)
            return [event.value for event in events]

        completions = env.run_process(proc(env))
        assert [c.context for c in completions] == ["first", "second"]
        assert all(c.ok and c.data == b"a" * 32 for c in completions)
