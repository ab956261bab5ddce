"""The determinism rule catalog.

Each rule carries the repository-specific rationale and a fix-it hint;
the linter (:mod:`repro.analysis.linter`) attaches both to every
finding.  Suppress a deliberate exception per line with::

    risky_call()  # repro-lint: disable=D001  -- wall-clock benchmarking

The catalog is the single source of truth: the docs table in
``docs/determinism-rules.md`` and the ``--rules`` CLI filter both key
off these ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["RULES", "Rule"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, severity, and how to fix a finding."""

    id: str
    title: str
    severity: str  # "error" | "warning"
    hint: str
    rationale: str


_CATALOG = (
    Rule(
        id="D001",
        title="wall-clock read in sim-driven code",
        severity="error",
        hint="use env.now (simulated seconds); wall-clock benchmarking "
             "must be isolated and suppressed with a reason",
        rationale="time.time()/datetime.now() values differ per run, so "
                  "any digest, log, or scheduling decision they reach "
                  "breaks bit-identical replay",
    ),
    Rule(
        id="D002",
        title="module-level or unseeded randomness",
        severity="error",
        hint="draw from a named repro.sim.rng.RngRegistry stream "
             "(rngs.stream('component')) so randomness is seeded and "
             "per-component isolated",
        rationale="global `random` / `numpy.random` state is seeded from "
                  "OS entropy and shared across components; one extra "
                  "draw anywhere perturbs every consumer",
    ),
    Rule(
        id="D003",
        title="iteration over an unordered set/dict.keys()",
        severity="error",
        hint="wrap the iterable in sorted(...) or keep an explicitly "
             "ordered structure (list, dict in insertion order)",
        rationale="set iteration order depends on the per-process hash "
                  "seed; when it reaches scheduling, digests, or emitted "
                  "JSON, two identical runs diverge",
    ),
    Rule(
        id="D004",
        title="blocking call inside a sim process",
        severity="error",
        hint="yield env.timeout(delay) for simulated waits; move real "
             "I/O out of generator-based sim processes",
        rationale="time.sleep() and real I/O stall the single-threaded "
                  "kernel without advancing simulated time, and their "
                  "latency leaks nondeterminism into measurements",
    ),
    Rule(
        id="D005",
        title="mutable default argument / frozen-spec field",
        severity="warning",
        hint="default to None and construct inside the body, or use "
             "dataclasses.field(default_factory=...)",
        rationale="a shared mutable default aliases state across calls "
                  "and across frozen spec instances, so one workload's "
                  "mutation silently leaks into the next",
    ),
    Rule(
        id="D006",
        title="digest JSON without sort_keys",
        severity="error",
        hint="json.dumps(..., sort_keys=True, separators=(',', ':')) is "
             "the canonical form every digest must hash",
        rationale="dict insertion order is an implementation detail of "
                  "the run that produced it; hashing unsorted JSON makes "
                  "equal states fingerprint differently",
    ),
    # -- L: resource lifecycle (repro.analysis.lifecycle) ---------------
    Rule(
        id="L003",
        title="metrics instrument constructed outside a registry",
        severity="error",
        hint="use registry_of(env).counter/gauge/histogram(name) so the "
             "instrument participates in snapshots and resets",
        rationale="a directly-constructed Counter/Gauge/Histogram is "
                  "invisible to MetricsRegistry.snapshot(), so its "
                  "series silently vanishes from benchmarks and gates",
    ),
    Rule(
        id="L006",
        title="sim process spawned and discarded inside a process",
        severity="warning",
        hint="keep the Process handle and yield/join it, or attach a "
             "failure hook (see repro.core.guard); top-level drivers "
             "may suppress with a reason",
        rationale="a child process whose handle is dropped fails "
                  "invisibly: its exception unwinds in the kernel with "
                  "no parent to observe, join, or clean up after it",
    ),
)

RULES: Dict[str, Rule] = {rule.id: rule for rule in _CATALOG}
