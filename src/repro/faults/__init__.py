"""Deterministic fault injection for the simulated testbed.

The fault plane that exercises Redy's §6 robustness machinery: frozen
fault specs composed into :class:`FaultSchedule`\\ s, applied by a
:class:`FaultInjector` through the same interfaces organic faults use
(allocator reclaim/fail, QP error states, fabric knobs), and recorded
in an append-only :class:`FaultLog` whose digest makes same-seed runs
bit-comparable.  ``repro.faults.scenarios`` packages end-to-end chaos
runs for the gate registry (:mod:`repro.gates`) and the availability
benchmark.
"""

from repro.faults.injector import FaultInjector
from repro.faults.log import FaultEvent, FaultLog
from repro.faults.scenarios import ChaosReport, churn_run
from repro.faults.spec import (
    FaultSchedule,
    FaultSpec,
    LatencySpike,
    LinkDown,
    SlowNode,
    VmEviction,
    VmKill,
)

__all__ = [
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultSchedule",
    "FaultSpec",
    "LatencySpike",
    "LinkDown",
    "SlowNode",
    "VmEviction",
    "VmKill",
    "churn_run",
]
