"""L-rules: syntactic resource-lifecycle checks.

Each rule reads one function (or, for L002, the local helpers it
calls); none needs a control-flow graph:

* **L002** Event callback registered on a foreign event with no detach
  anywhere in the function (the leak class of AnyOf/AllOf's losing
  children).
* **L003** metrics instrument constructed directly instead of through
  a ``MetricsRegistry`` (orphan series never reach snapshots).
* **L006** sim process spawned from inside another process with the
  handle discarded: its failure can never be joined or observed.

Acquire/release balance -- a slot or a QP freed on every path,
exception unwinds included -- is checked where the program runs,
including the grants a completion callback frees: the
resource-balance check of :func:`repro.analysis.sanitize.tracked_resources`
in every tier-1 test and every gate entry, plus the throw-in tests of
``tests/test_release_on_throw.py`` (docs/lifecycle-rules.md, "Retired
rules").
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis import flow
from repro.analysis.flow import ModuleGraph, Resolver
from repro.analysis.report import Finding
from repro.analysis.rules import RULES

__all__ = ["analyze_lifecycle"]

#: Direct metrics-instrument constructors (canonical, import-resolved).
_METRIC_TYPES = {"Counter", "Gauge", "Histogram"}
_METRIC_CANONICAL_PREFIX = "repro.obs.metrics."

#: Callback detach spellings that satisfy L002.
_DETACH_ATTRS = {"remove", "discard", "clear", "remove_callback", "detach"}


def _head(dotted: str) -> str:
    return dotted.split(".", 1)[0]


def _check_callbacks(path: str, qualname: str, func: flow.FuncDef,
                     cls: Optional[str], graph: ModuleGraph,
                     findings: List[Finding]) -> None:
    """L002: callback registered on a foreign event, no detach in
    reach (this function or any local helper it calls)."""
    owned: Set[str] = set()
    registers: List[Tuple[ast.Call, str]] = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            owned.add(node.targets[0].id)
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        base = node.func.value
        if (attr == "append" and isinstance(base, ast.Attribute)
                and base.attr == "callbacks"):
            target = flow.dotted_name(base.value)
            if target is not None:
                registers.append((node, target))
        # on_trigger() is deliberately NOT a registration: in this
        # codebase it is the EventMonitor notification hook (it takes
        # the fired event, not a callable).
        elif attr == "add_callback" and node.args:
            target = flow.dotted_name(node.func.value)
            if target is not None:
                registers.append((node, target))
    if not registers:
        return
    reach = {qualname} | graph.transitive_callees(qualname)
    if "." in qualname:
        # Register-here / detach-there lifecycle split: any sibling
        # method of the same class may carry the detach duty (the
        # combinator pattern registers in __init__, removes in
        # _resolve).
        prefix = qualname.rsplit(".", 1)[0] + "."
        reach |= {n for n in graph.functions if n.startswith(prefix)}
    detaches = False
    for name in sorted(reach):
        body = graph.functions.get(name)
        if body is None and name == qualname:
            body = func
        if body is None:
            continue
        for node in ast.walk(body):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DETACH_ATTRS):
                detaches = True
                break
        if detaches:
            break
    if detaches:
        return
    rule = RULES["L002"]
    for call, target in registers:
        if _head(target) in owned:
            continue  # wiring an event this function just created
        findings.append(Finding(
            rule="L002", severity=rule.severity, path=path,
            line=call.lineno, col=call.col_offset,
            message=f"callback registered on {target} with no detach "
                    f"reachable from {qualname}(): losing branches leak "
                    f"the callback",
            hint=rule.hint, detail={"function": qualname}))


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
    graph = ModuleGraph(tree, resolver.imports)
    findings: List[Finding] = []
    _check_metrics(path, tree, resolver, findings)
    for qualname, func, cls in flow.iter_functions(tree):
        _check_callbacks(path, qualname, func, cls, graph, findings)
        _check_spawns(path, qualname, func, findings)
    return findings
