"""Determinism & sim-safety analysis suite.

Two prongs guard the repository's determinism contract (bit-identical
fault logs, shard replays, and content-addressed sweep caching):

* **Static** -- :mod:`repro.analysis.linter`, an AST linter with
  repo-specific rules (wall-clock use, unseeded randomness, unordered
  iteration, blocking I/O in sim processes, mutable spec defaults,
  unsorted digest JSON).  Run it as ``python -m repro lint``.
* **Dynamic** -- :mod:`repro.analysis.sanitize`, a replay-divergence
  sanitizer that runs a workload twice from one seed and bisects the
  first diverging kernel event; its recorder also checks every dispatch
  against a reference ``(when, insertion)`` heap and names every sim
  ``Resource`` a run leaves holding a slot or a waiter.  ``python -m
  repro gate`` (:mod:`repro.gates`) runs every registered scenario
  through it, and tier-1 runs the same balance check on every test.

Both prongs report through :mod:`repro.analysis.report` (text or JSON)
and share the exit-code contract: 0 clean, 1 findings, 2 internal error.
"""

from repro.analysis.linter import lint_paths, lint_source
from repro.analysis.report import Finding, format_findings
from repro.analysis.rules import RULES, Rule
from repro.analysis.sanitize import DivergenceReport, sanitize

__all__ = [
    "DivergenceReport",
    "Finding",
    "RULES",
    "Rule",
    "format_findings",
    "lint_paths",
    "lint_source",
    "sanitize",
]
