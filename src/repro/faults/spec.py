"""Composable fault specifications and schedules.

A :class:`FaultSpec` says *what* goes wrong and *when* (simulated
seconds); a :class:`FaultSchedule` is an ordered bag of specs the
:class:`~repro.faults.injector.FaultInjector` compiles into sim-kernel
events.  Specs are frozen dataclasses: a schedule is pure data, so the
same schedule applied to the same world is the same fault trace.

The taxonomy mirrors how spot memory actually degrades:

* :class:`VmEviction` -- the §3.2 reclamation notice (30-120 s warning,
  then termination), the fault Redy's migration machinery is built for;
* :class:`VmKill` -- the §6.2 hard failure: no warning, regions gone;
* :class:`LinkDown` -- a transient transport fault: every QP touching
  the endpoint enters the RDMA error state (posts flush with error
  completions) until the link heals, the event-stream view of
  connection failure Swift (arXiv:2501.19051) takes;
* :class:`LatencySpike` -- fabric-wide extra propagation delay for a
  window (congestion / PFC storm), RDCA's (arXiv:2211.05975) last-mile
  degradation rather than binary link death;
* :class:`SlowNode` -- one endpoint serializes slower by a factor
  (thermal throttling, noisy neighbour).

Schedules are hand-built or drawn from a seeded RNG
(:meth:`FaultSchedule.poisson_evictions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "FaultSchedule",
    "FaultSpec",
    "LatencySpike",
    "LinkDown",
    "SlowNode",
    "VmEviction",
    "VmKill",
]


@dataclass(frozen=True)
class FaultSpec:
    """Base: one fault at one simulated instant."""

    #: Simulated time (seconds) at which the fault fires.
    at: float

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")

    @property
    def kind(self) -> str:
        return _KIND_BY_TYPE[type(self)]


@dataclass(frozen=True)
class VmEviction(FaultSpec):
    """Spot-VM reclamation with an early-warning notice (§3.2)."""

    #: Which VM of the target cache dies: index into its alive,
    #: not-yet-warned spot VMs at fire time (mod count), so a schedule
    #: stays valid as VMs come and go.
    vm_index: int = 0
    #: Notice window, seconds; ``None`` uses the allocator's default.
    notice_s: Optional[float] = None


@dataclass(frozen=True)
class VmKill(FaultSpec):
    """Abrupt VM termination -- no warning, regions lost (§6.2)."""

    vm_index: int = 0


@dataclass(frozen=True)
class LinkDown(FaultSpec):
    """Transient link/QP failure on one endpoint."""

    #: Endpoint whose QPs (both directions) enter the error state.
    endpoint: str = ""
    #: Seconds until the link heals and QPs reconnect.
    duration_s: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.duration_s <= 0:
            raise ValueError("LinkDown duration_s must be positive")


@dataclass(frozen=True)
class LatencySpike(FaultSpec):
    """Fabric-wide extra one-way latency for a window."""

    duration_s: float = 0.1
    extra_s: float = 50e-6

    def __post_init__(self):
        super().__post_init__()
        if self.duration_s <= 0 or self.extra_s <= 0:
            raise ValueError("LatencySpike needs positive duration and extra")


@dataclass(frozen=True)
class SlowNode(FaultSpec):
    """One endpoint's transmit path runs ``factor`` x slower."""

    endpoint: str = ""
    duration_s: float = 0.1
    factor: float = 8.0

    def __post_init__(self):
        super().__post_init__()
        if self.duration_s <= 0:
            raise ValueError("SlowNode duration_s must be positive")
        if self.factor < 1.0:
            raise ValueError("SlowNode factor must be >= 1")


_KIND_BY_TYPE = {
    VmEviction: "vm-eviction",
    VmKill: "vm-kill",
    LinkDown: "link-down",
    LatencySpike: "latency-spike",
    SlowNode: "slow-node",
}


class FaultSchedule:
    """An ordered, immutable collection of fault specs."""

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"not a FaultSpec: {spec!r}")
        #: Sorted by fire time; ties keep the given order (stable sort),
        #: so composition order is part of the schedule's identity.
        self.specs: Tuple[FaultSpec, ...] = tuple(
            sorted(specs, key=lambda spec: spec.at))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        """Compose two schedules into one merged timeline."""
        return FaultSchedule(self.specs + other.specs)

    @property
    def horizon(self) -> float:
        """When the last fault (including its recovery window) is over."""
        end = 0.0
        for spec in self.specs:
            end = max(end, spec.at + getattr(spec, "duration_s", 0.0))
        return end

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------

    @classmethod
    def poisson_evictions(cls, *, rate_per_s: float, duration_s: float,
                          rng, start_at: float = 0.0,
                          notice_s: Optional[float] = None,
                          kill_fraction: float = 0.0) -> "FaultSchedule":
        """Memoryless spot churn: evictions at ``rate_per_s``.

        ``rng`` is a seeded ``numpy`` generator (use
        ``RngRegistry.stream("faults")``), which makes the schedule a
        pure function of the seed.  ``kill_fraction`` of the events are
        abrupt :class:`VmKill`\\ s instead of noticed evictions,
        modelling the provider's failure-to-warn rate.
        """
        if rate_per_s <= 0 or duration_s <= 0:
            raise ValueError("need positive rate_per_s and duration_s")
        if not 0.0 <= kill_fraction <= 1.0:
            raise ValueError("kill_fraction must be in [0, 1]")
        specs = []
        t = start_at
        index = 0
        while True:
            t += float(rng.exponential(1.0 / rate_per_s))
            if t >= start_at + duration_s:
                break
            if float(rng.random()) < kill_fraction:
                specs.append(VmKill(at=t, vm_index=index))
            else:
                specs.append(VmEviction(at=t, vm_index=index,
                                        notice_s=notice_s))
            index += 1
        return cls(specs)

    def __repr__(self) -> str:
        return (f"<FaultSchedule {len(self.specs)} faults, "
                f"horizon {self.horizon:.3f}s>")
