"""Verb programs are *program-scoped* kernel events.

The whole remote-side chain folds into a single service timeout, so
the happens-before detector and the replay sanitizer see one
trigger->resume edge per program -- not one per hop.  Pinned here:

* the ``measure`` gate entry, whose second half is a verb-program
  measurement, replays bit-identically (``repro gate`` runs it too);
* a program chase traces strictly fewer kernel events than the
  equivalent two-hop chase;
* growing the chain (adding the CAS verify step) adds *zero* kernel
  events -- per-step costs are service time, not scheduler traffic.
"""

import struct

from repro.analysis import sanitize
from repro.analysis.sanitize import KernelMonitor
from repro.gates import SCENARIOS
from repro.hardware import AZURE_HPC
from repro.net import Fabric, MemoryRegion, Placement, QueuePair
from repro.net.programs import VerbProgram
from repro.sim.kernel import Environment


def test_measure_programs_workload_is_deterministic():
    report = sanitize(SCENARIOS["measure"].run)
    assert report.deterministic
    assert report.events_a == report.events_b > 500


class _EdgeCounter(KernelMonitor):
    def __init__(self):
        self.triggers = 0
        self.resumes = 0

    def on_trigger(self, event):
        self.triggers += 1

    def on_resume(self, process, event):
        self.resumes += 1


def _chase_edges(*, verify, two_hop=False):
    """Kernel trigger/resume edges for one dependent chase."""
    env = Environment()
    counter = _EdgeCounter()
    env.monitor = counter
    fabric = Fabric(env, AZURE_HPC)
    client = fabric.add_endpoint("client", Placement())
    server = fabric.add_endpoint("server", Placement())
    region = server.register(MemoryRegion(1 << 20, backing=True))
    region.local_write(4096, b"x" * 32)
    region.local_write(64, struct.pack("<Q", 4096))
    qp = QueuePair(env, client, server, max_depth=4)

    def proc(env):
        if two_hop:
            from repro.net import RdmaOp, WorkRequest
            first = yield qp.post(
                WorkRequest(RdmaOp.READ, region.token, 64, 8))
            offset = struct.unpack("<Q", first.data)[0]
            second = yield qp.post(
                WorkRequest(RdmaOp.READ, region.token, offset, 32))
            assert second.ok
        else:
            program = VerbProgram(pointer_offset=64, read_bytes=32,
                                  verify=verify)
            completion = yield qp.post_program(program, region.token)
            assert completion.ok

    env.run_process(proc(env))
    return counter.triggers, counter.resumes


def test_program_chase_traces_fewer_edges_than_two_hop():
    program_triggers, program_resumes = _chase_edges(verify=False)
    two_hop_triggers, two_hop_resumes = _chase_edges(verify=False,
                                                     two_hop=True)
    assert program_triggers < two_hop_triggers
    assert program_resumes < two_hop_resumes


def test_longer_chains_add_no_kernel_edges():
    """Service time grows with the chain; scheduler traffic does not."""
    assert _chase_edges(verify=False) == _chase_edges(verify=True)
