"""L-rules: syntactic resource-lifecycle checks.

Each rule reads one module or one function; none needs a control-flow
graph:

* **L003** metrics instrument constructed directly instead of through
  a ``MetricsRegistry`` (orphan series never reach snapshots).
* **L006** sim process spawned from inside another process with the
  handle discarded: its failure can never be joined or observed.

Acquire/release balance -- a slot or a QP freed on every path,
exception unwinds included -- is checked where the program runs,
including the grants a completion callback frees: the
resource-balance check of :func:`repro.analysis.sanitize.tracked_resources`
in every tier-1 test and every gate entry, plus the throw-in tests of
``tests/test_release_on_throw.py``.  Callback detach is checked by the
combinator leak tests of ``tests/sim/test_combinator_leaks.py``
(docs/lifecycle-rules.md, "Retired rules").
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis import flow
from repro.analysis.flow import Resolver
from repro.analysis.report import Finding
from repro.analysis.rules import RULES

__all__ = ["analyze_lifecycle"]

#: Direct metrics-instrument constructors (canonical, import-resolved).
_METRIC_TYPES = {"Counter", "Gauge", "Histogram"}
_METRIC_CANONICAL_PREFIX = "repro.obs.metrics."


def _check_metrics(path: str, tree: ast.Module, resolver: Resolver,
                   findings: List[Finding]) -> None:
    """L003: direct metrics-instrument construction."""
    if path.replace("\\", "/").endswith("obs/metrics.py"):
        return  # the registry's own definition site
    rule = RULES["L003"]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = resolver.resolve(node.func)
        if resolved is None:
            continue
        tail = resolved.rsplit(".", 1)[-1]
        if tail not in _METRIC_TYPES:
            continue
        if not resolved.startswith(_METRIC_CANONICAL_PREFIX):
            continue
        findings.append(Finding(
            rule="L003", severity=rule.severity, path=path,
            line=node.lineno, col=node.col_offset,
            message=f"{tail} constructed directly; instruments must come "
                    f"from a MetricsRegistry so snapshots and resets see "
                    f"them",
            hint=rule.hint, detail={}))


def _check_spawns(path: str, qualname: str, func: flow.FuncDef,
                  findings: List[Finding]) -> None:
    """L006: discarded process spawn inside a sim process."""
    if not flow.statement_yields(func):
        return
    rule = RULES["L006"]
    for stmt in ast.walk(func):
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            continue
        call = stmt.value
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr == "process"):
            continue
        base = flow.dotted_name(call.func.value) or ""
        if not (base == "env" or base.endswith(".env")):
            continue
        findings.append(Finding(
            rule="L006", severity=rule.severity, path=path,
            line=call.lineno, col=call.col_offset,
            message=f"process spawned inside sim process {qualname}() "
                    f"with its handle discarded: failures can never be "
                    f"joined or observed",
            hint=rule.hint, detail={"function": qualname}))


def analyze_lifecycle(tree: ast.Module, path: str,
                      resolver: Resolver) -> List[Finding]:
    """Run every L-rule over one parsed module."""
    findings: List[Finding] = []
    _check_metrics(path, tree, resolver, findings)
    for qualname, func, _cls in flow.iter_functions(tree):
        _check_spawns(path, qualname, func, findings)
    return findings
