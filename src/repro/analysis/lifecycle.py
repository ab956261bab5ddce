"""L-rules: resource-lifecycle analyzers on the flow CFG.

Every rule here is about a resource whose acquire/release must balance
on *every* path -- normal completion and exception unwind, including
the failed event the kernel throws into a sim process at any yield.
The obligation analysis runs the forward dataflow engine with may-join:
an acquire arms an obligation keyed by the resource expression; a
matching release (or an escape -- returning/storing/passing the
resource hands ownership elsewhere) discharges it; any obligation still
live at the normal or exceptional exit is a leak, reported at the
acquire site so a suppression comment on that line applies.

The CFG's abrupt-edge semantics do the subtle work: an ``except``
edge carries the state from *before* its statement, so a failure of
``yield x.acquire()`` itself (nothing held yet) is not a leak, while a
failure at the next suspension point (slot held) is -- which is
exactly the discipline the production fix demands::

    yield window.acquire()
    try:
        yield do_work()        # a failure here runs the finally
    finally:
        window.release()

Rules:

* **L001** QueuePair/endpoint acquired and dropped without
  ``reclaim``/``detach``/``close`` on some path.
* **L002** Event callback registered on a foreign event with no detach
  anywhere in the function (the AnyOf/AllOf losing-children leak
  class PR 6 fixed by hand).
* **L003** metrics instrument constructed directly instead of through
  a ``MetricsRegistry`` (orphan series never reach snapshots).
* **L005** ``yield x.acquire()`` without a ``finally``-protected
  ``x.release()`` covering every later suspension point.
* **L006** sim process spawned from inside another process with the
  handle discarded: its failure can never be joined or observed.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis import flow
from repro.analysis.flow import Cfg, CfgNode, ModuleGraph, Resolver, State
from repro.analysis.report import Finding
from repro.analysis.rules import RULES

__all__ = ["analyze_lifecycle"]

#: Method names that release/retire each resource class.
_QP_ACQUIRE_CALLS = {"create_qp", "attach"}
_QP_RELEASES = {"reclaim", "detach", "close"}
_LOCK_RELEASES = {"release"}

#: Direct metrics-instrument constructors (canonical, import-resolved).
_METRIC_TYPES = {"Counter", "Gauge", "Histogram"}
_METRIC_CANONICAL_PREFIX = "repro.obs.metrics."

#: Callback detach spellings that satisfy L002.
_DETACH_ATTRS = {"remove", "discard", "clear", "remove_callback", "detach"}


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Call nodes in ``node``, not descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    if isinstance(node, ast.Call):
        yield node
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(item, ast.Call):
            yield item
        stack.extend(ast.iter_child_nodes(item))


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _arg_names(call: ast.Call) -> Set[str]:
    """Simple names passed (possibly nested) as arguments to ``call``."""
    out: Set[str] = set()
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        out.update(_names_in(arg))
    return out


def _head(dotted: str) -> str:
    return dotted.split(".", 1)[0]


def _yielded_call(stmt: ast.stmt) -> Optional[ast.Call]:
    """The call inside ``yield <call>`` / ``yield from <call>`` when
    ``stmt`` is an expression statement or simple assignment of one."""
    value: Optional[ast.expr] = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        value = stmt.value
    if isinstance(value, ast.Yield) and isinstance(value.value, ast.Call):
        return value.value
    if isinstance(value, ast.YieldFrom) and isinstance(value.value, ast.Call):
        return value.value
    return None


def _key(rule: str, resource: str) -> str:
    """Obligation state key ``rule|resource``."""
    return f"{rule}|{resource}"


def _split(key: str) -> Tuple[str, str]:
    rule, _, resource = key.partition("|")
    return rule, resource


class _FunctionLifecycle:
    """Obligation dataflow (L001/L005) over one function."""

    def __init__(self, path: str, qualname: str, func: flow.FuncDef,
                 cls: Optional[str], graph: ModuleGraph,
                 resolver: Resolver):
        self.path = path
        self.qualname = qualname
        self.func = func
        self.cls = cls
        self.graph = graph
        self.resolver = resolver
        self.cfg: Cfg = flow.build_cfg(func, qualname)
        #: acquire node id -> (lineno, col) the finding is reported at
        self.anchors: Dict[int, Tuple[int, int]] = {}

    # -- acquire recognition ------------------------------------------

    def _acquires(self, stmt: ast.stmt) -> List[str]:
        """State keys of the obligations armed by ``stmt``."""
        out: List[str] = []
        # L005: `yield <base>.acquire()` (bare or assigned).
        call = _yielded_call(stmt)
        if (call is not None and isinstance(call.func, ast.Attribute)):
            attr = call.func.attr
            base = flow.dotted_name(call.func.value)
            # Inside a `*acquire*`-named helper the bare acquire IS the
            # function's contract; the obligation is charged at each
            # call site instead (see the helper branch below).
            own_name = self.qualname.rsplit(".", 1)[-1]
            if (attr == "acquire" and base is not None
                    and "acquire" not in own_name):
                out.append(_key("L005", base))
            elif ("acquire" in attr and attr != "acquire"
                  and self._is_local_call(call)):
                # `yield from self._acquire_slot(tenant)`: a local
                # helper acquires on the caller's behalf; the paired
                # local `...release...(same arg)` discharges it.
                res = self._helper_resource(call)
                if res is not None:
                    out.append(_key("L005", res))
        # L001 arms on assignments.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if isinstance(target, ast.Name) and isinstance(value, ast.Call):
                resolved = self.resolver.resolve(value.func) or ""
                attr = (value.func.attr
                        if isinstance(value.func, ast.Attribute) else "")
                if (resolved.rsplit(".", 1)[-1] == "QueuePair"
                        or attr in _QP_ACQUIRE_CALLS):
                    out.append(_key("L001", target.id))
        return out

    def _is_local_call(self, call: ast.Call) -> bool:
        return self.graph.resolve_call(call.func, self.cls) is not None

    def _helper_resource(self, call: ast.Call) -> Optional[str]:
        """Resource key for an acquire-helper call: its first simple
        argument, else the helper's own dotted base."""
        for arg in call.args:
            dotted = flow.dotted_name(arg)
            if dotted is not None:
                return dotted
        if isinstance(call.func, ast.Attribute):
            return flow.dotted_name(call.func.value)
        return None

    # -- kill recognition ---------------------------------------------

    def _released(self, stmt: ast.stmt) -> Set[str]:
        """Resources whose release/reclaim runs in ``stmt``."""
        out: Set[str] = set()
        for call in _calls_in(stmt):
            if not isinstance(call.func, ast.Attribute):
                continue
            attr = call.func.attr
            base = flow.dotted_name(call.func.value)
            if attr in _LOCK_RELEASES | _QP_RELEASES and base is not None:
                out.add(base)
            elif "release" in attr:
                # Helper form: self._release_slot(tenant) discharges
                # the obligation keyed by its first simple argument.
                for arg in call.args:
                    dotted = flow.dotted_name(arg)
                    if dotted is not None:
                        out.add(dotted)
                if base is not None:
                    out.add(base)
        return out

    def _escaped_heads(self, stmt: ast.stmt) -> Set[str]:
        """Head names whose resources escape ownership in ``stmt``:
        returned, yielded as a value, stored into an attribute or
        container, or passed to a call as an argument."""
        out: Set[str] = set()
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            out.update(_names_in(stmt.value))
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    out.update(_names_in(stmt.value))
        for call in _calls_in(stmt):
            out.update(_arg_names(call))
        return out

    # -- dataflow ------------------------------------------------------

    def _transfer(self, node: CfgNode, state: State) -> State:
        if node.is_structural or node.stmt is None:
            return state
        stmt = node.stmt
        if node.label in ("if", "while", "for", "with"):
            # Headers: only the test/iter/items run here, and the
            # acquire/release idioms are simple statements; skip.
            return state
        assert isinstance(stmt, ast.stmt)
        new: Dict[str, FrozenSet[object]] = dict(state)
        released = self._released(stmt)
        escaped = self._escaped_heads(stmt)
        returned: Set[str] = set()
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            returned = _names_in(stmt.value)
        for key in list(new):
            rule, resource = _split(key)
            if resource in released:
                del new[key]
            elif rule == "L001" and _head(resource) in escaped:
                # Handing the QP/endpoint to another owner (stored,
                # passed, returned) transfers the reclaim duty.
                del new[key]
            elif rule == "L005" and _head(resource) in returned:
                # Returning the held resource hands the release duty to
                # the caller; merely passing it to a call does not
                # (slots routinely travel into helpers while held).
                del new[key]
        for key in self._acquires(stmt):
            new[key] = frozenset({node.id})
            self.anchors[node.id] = (node.lineno,
                                     getattr(stmt, "col_offset", 0))
        return new

    def _refine(self, node: CfgNode, kind: str,
                state: State) -> Optional[State]:
        """``if not <base>.reclaimed:`` -- on the arm where the QP is
        already gone, discharge any obligation on that base (the idiom
        cplane.pool uses to guard repeat teardown)."""
        if node.label != "if" or not isinstance(node.stmt, ast.If):
            return None
        guard, negated = node.stmt.test, False
        if isinstance(guard, ast.UnaryOp) and isinstance(guard.op, ast.Not):
            guard, negated = guard.operand, True
        if not (isinstance(guard, ast.Attribute)
                and guard.attr == "reclaimed"):
            return None
        base = flow.dotted_name(guard.value)
        if base is None or kind != ("false" if negated else "true"):
            return None
        new = {k: v for k, v in state.items() if _split(k)[1] != base}
        return new if len(new) != len(state) else None

    def run(self) -> List[Finding]:
        in_states, _out = flow.forward(self.cfg, {}, self._transfer,
                                       refine_edge=self._refine)
        leaks: Dict[int, Tuple[str, str, bool]] = {}
        for exit_id, on_raise in ((self.cfg.exit, False),
                                  (self.cfg.raise_exit, True)):
            for key, anchor_ids in in_states.get(exit_id, {}).items():
                rule, resource = _split(key)
                for anchor in anchor_ids:
                    assert isinstance(anchor, int)
                    prior = leaks.get(anchor)
                    if prior is None or (on_raise and not prior[2]):
                        leaks[anchor] = (rule, resource, on_raise)
        findings: List[Finding] = []
        for anchor, (rule, resource, on_raise) in sorted(leaks.items()):
            lineno, col = self.anchors[anchor]
            path_kind = ("exception paths" if on_raise
                         else "some path")
            message = {
                "L001": f"{resource} is acquired in {self.qualname}() but "
                        f"not reclaimed/detached on {path_kind}",
                "L005": f"{resource} is acquired without a finally-"
                        f"protected release covering {path_kind}",
            }[rule]
            findings.append(self._finding(rule, lineno, col, message))
        return findings

    def _finding(self, rule_id: str, lineno: int, col: int,
                 message: str) -> Finding:
        rule = RULES[rule_id]
        return Finding(rule=rule_id, severity=rule.severity, path=self.path,
                       line=lineno, col=col, message=message, hint=rule.hint,
                       detail={"function": self.qualname})


# ----------------------------------------------------------------------
# Syntactic L-rules (no dataflow needed)
# ----------------------------------------------------------------------

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
        analysis = _FunctionLifecycle(path, qualname, func, cls, graph,
                                      resolver)
        findings.extend(analysis.run())
        _check_callbacks(path, qualname, func, cls, graph, findings)
        _check_spawns(path, qualname, func, findings)
    return findings
