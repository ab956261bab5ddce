"""P-rules: API protocol state machines on the flow CFG.

Each rule declares the legal call-order protocol of one production API
and checks it with a may-typestate dataflow (union join: a state is
possible if any path produces it), refined by the branch conditions the
code actually guards with (``if qp.reclaimed: ...``).  The QueuePair
rule is additionally *interprocedural*: a module-local helper that
posts on a parameter without establishing it first is summarized, and
the violation is reported at the call site that passed an unconnected
QP -- the caller holds the state machine, the helper just runs it.

* **P001** ``QueuePair``: construct (``deferred=True`` starts
  unestablished) -> ``establish``/``reconnect`` -> ``post*`` ->
  ``reclaim``; no post before establishment or after reclaim, no
  establish after reclaim, no double reclaim.
* **P002** ``Rebalancer``: ``plan_rebalance`` -> ``execute`` exactly
  once; an unexecuted plan at function exit means the membership
  change it encodes silently never streams.
* **P003** ``TenantTier`` degradation: ``degraded = True`` ->
  flush -> ``degraded = False``; re-promoting without the flush
  abandons dirty chunks in the mirror.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis import flow
from repro.analysis.flow import Cfg, CfgNode, ModuleGraph, Resolver, State
from repro.analysis.report import Finding
from repro.analysis.rules import RULES

__all__ = ["analyze_protocols"]

_POST_ATTRS = {"post", "post_program"}
_ESTABLISH_ATTRS = {"establish", "reconnect", "connect"}

_QP = "qp|"        # state-key prefixes, one namespace per rule
_PLAN = "plan|"
_TENANT = "deg|"


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
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


def _qp_summaries(graph: ModuleGraph) -> Dict[str, Set[str]]:
    """Per local function: parameter names posted on without a local
    ``establish`` -- including transitively, through other local
    helpers the parameter is forwarded to."""
    params: Dict[str, List[str]] = {}
    for qualname, func in graph.functions.items():
        names = [a.arg for a in func.args.args if a.arg not in
                 ("self", "cls")]
        params[qualname] = names
    summaries: Dict[str, Set[str]] = {name: set() for name in
                                      graph.functions}
    for qualname, func in graph.functions.items():
        established: Set[str] = set()
        for call in _calls_in(func):
            if (isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.attr in _ESTABLISH_ATTRS):
                established.add(call.func.value.id)
        for call in _calls_in(func):
            if (isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.attr in _POST_ATTRS):
                name = call.func.value.id
                if name in params[qualname] and name not in established:
                    summaries[qualname].add(name)
    # Propagate through straight argument forwarding, to a fixpoint.
    for _ in range(len(graph.functions)):
        changed = False
        for qualname, func in graph.functions.items():
            cls = graph.owner_class[qualname]
            established = set()  # re-derive cheap guard
            for call in _calls_in(func):
                if (isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name)
                        and call.func.attr in _ESTABLISH_ATTRS):
                    established.add(call.func.value.id)
            for call in _calls_in(func):
                callee = graph.resolve_call(call.func, cls)
                if callee is None:
                    continue
                callee_params = params.get(callee, [])
                for index, arg in enumerate(call.args):
                    if not isinstance(arg, ast.Name):
                        continue
                    if index >= len(callee_params):
                        continue
                    if callee_params[index] not in summaries[callee]:
                        continue
                    name = arg.id
                    if (name in params[qualname]
                            and name not in established
                            and name not in summaries[qualname]):
                        summaries[qualname].add(name)
                        changed = True
        if not changed:
            break
    return summaries


class _FunctionProtocols:
    def __init__(self, path: str, qualname: str, func: flow.FuncDef,
                 cls: Optional[str], graph: ModuleGraph,
                 resolver: Resolver, qp_summaries: Dict[str, Set[str]]):
        self.path = path
        self.qualname = qualname
        self.func = func
        self.cls = cls
        self.graph = graph
        self.resolver = resolver
        self.qp_summaries = qp_summaries
        self.cfg: Cfg = flow.build_cfg(func, qualname)
        self.findings: List[Finding] = []
        self._emitted: Set[Tuple[str, int, str]] = set()
        #: plan anchor node id -> (lineno, col, var)
        self.plan_anchors: Dict[int, Tuple[int, int, str]] = {}

    # -- emit ----------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        key = (rule_id, lineno, message)
        if key in self._emitted:
            return
        self._emitted.add(key)
        rule = RULES[rule_id]
        self.findings.append(Finding(
            rule=rule_id, severity=rule.severity, path=self.path,
            line=lineno, col=getattr(node, "col_offset", 0),
            message=message, hint=rule.hint,
            detail={"function": self.qualname}))

    # -- transfer ------------------------------------------------------

    def _transfer(self, node: CfgNode, state: State) -> State:
        if node.is_structural or node.stmt is None:
            return state
        if node.label in ("while", "for", "with"):
            return state
        stmt = node.stmt
        new: Dict[str, FrozenSet[object]] = dict(state)
        if isinstance(stmt, ast.Assign):
            self._assign(stmt, node, new)
        if node.label != "if":
            for call in _calls_in(stmt):
                self._call(call, new)
        self._escapes(stmt, new)
        return new

    def _assign(self, stmt: ast.Assign, node: CfgNode,
                new: Dict[str, FrozenSet[object]]) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        value = stmt.value
        # P003: <base>.degraded = True / False
        if (isinstance(target, ast.Attribute) and target.attr == "degraded"
                and isinstance(value, ast.Constant)):
            base = flow.dotted_name(target.value)
            if base is not None:
                key = _TENANT + base
                held = new.get(key, frozenset())
                if value.value is True:
                    new[key] = frozenset({"degraded"})
                elif value.value is False:
                    if "degraded" in held and "flushed" not in held:
                        self._emit(
                            "P003", stmt,
                            f"{base} re-promoted (degraded = False) "
                            f"without flushing its dirty mirror first")
                    new.pop(key, None)
            return
        if not isinstance(target, ast.Name):
            return
        var = target.id
        inner = value.value if isinstance(
            value, (ast.Yield, ast.YieldFrom)) else value
        if not isinstance(inner, ast.Call):
            # Rebinding a tracked name to something untracked.
            for prefix in (_QP, _PLAN):
                new.pop(prefix + var, None)
            return
        resolved = self.resolver.resolve(inner.func) or ""
        tail = resolved.rsplit(".", 1)[-1]
        if tail == "QueuePair" or (
                isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "create_qp"):
            deferred = False
            dynamic = False
            for kw in inner.keywords:
                if kw.arg == "deferred":
                    if isinstance(kw.value, ast.Constant):
                        deferred = bool(kw.value.value)
                    else:
                        dynamic = True
            if dynamic:
                new[_QP + var] = frozenset({"deferred", "established"})
            elif deferred:
                new[_QP + var] = frozenset({"deferred"})
            else:
                new[_QP + var] = frozenset({"established"})
            return
        if tail == "plan_rebalance" or (
                isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "plan_rebalance"):
            new[_PLAN + var] = frozenset({("planned", id(stmt))})
            self.plan_anchors[id(stmt)] = (stmt.lineno, stmt.col_offset,
                                           var)
            return

    def _call(self, call: ast.Call,
              new: Dict[str, FrozenSet[object]]) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            self._interprocedural(call, new)
            return
        attr = func.attr
        base = func.value
        var = base.id if isinstance(base, ast.Name) else None
        # -- P001 -----------------------------------------------------
        if var is not None and _QP + var in new:
            states = new[_QP + var]
            if attr in _POST_ATTRS:
                if "deferred" in states and "established" not in states:
                    self._emit("P001", call,
                               f"{attr}() on {var} before it is "
                               f"established: the QP is still deferred "
                               f"on some path")
                elif states == frozenset({"reclaimed"}):
                    self._emit("P001", call,
                               f"{attr}() on {var} after reclaim: the "
                               f"QP is gone from its endpoints")
            elif attr in _ESTABLISH_ATTRS:
                if states == frozenset({"reclaimed"}):
                    self._emit("P001", call,
                               f"{attr}() on {var} after reclaim: a "
                               f"reclaimed QP can never be "
                               f"re-established")
                new[_QP + var] = frozenset({"established"})
            elif attr == "reclaim":
                if states == frozenset({"reclaimed"}):
                    self._emit("P001", call,
                               f"reclaim() on {var} twice: guard with "
                               f"`if not {var}.reclaimed`")
                new[_QP + var] = frozenset({"reclaimed"})
        # -- P002 -----------------------------------------------------
        if attr == "execute":
            for arg in call.args:
                if not isinstance(arg, ast.Name):
                    continue
                key = _PLAN + arg.id
                if key not in new:
                    continue
                if any(isinstance(s, tuple) and s[0] == "consumed"
                       for s in new[key]):
                    self._emit("P002", call,
                               f"rebalance plan {arg.id} executed "
                               f"twice: each plan's write gates and "
                               f"stream arcs are single-use")
                new[key] = frozenset({("consumed",)})
        # -- P003: flush marks the tenant re-promotable ----------------
        if "flush" in attr:
            marks: List[str] = []
            receiver = flow.dotted_name(base)
            if receiver is not None:
                marks.append(receiver)
            for arg in call.args:
                dotted = flow.dotted_name(arg)
                if dotted is not None:
                    marks.append(dotted)
            for mark in marks:
                key = _TENANT + mark
                if key in new and "degraded" in new[key]:
                    new[key] = new[key] | {"flushed"}
        self._interprocedural(call, new)

    def _interprocedural(self, call: ast.Call,
                         new: Dict[str, FrozenSet[object]]) -> None:
        """P001 across helpers: passing a may-unestablished QP to a
        local function summarized as posting on that parameter."""
        callee = self.graph.resolve_call(call.func, self.cls)
        if callee is None:
            return
        callee_func = self.graph.functions.get(callee)
        if callee_func is None:
            return
        callee_params = [a.arg for a in callee_func.args.args
                         if a.arg not in ("self", "cls")]
        posts_on = self.qp_summaries.get(callee, set())
        for index, arg in enumerate(call.args):
            if not isinstance(arg, ast.Name):
                continue
            key = _QP + arg.id
            if key not in new or index >= len(callee_params):
                continue
            if callee_params[index] not in posts_on:
                continue
            states = new[key]
            if "deferred" in states and "established" not in states:
                self._emit("P001", call,
                           f"{callee}() posts on {arg.id}, which is "
                           f"still deferred on some path at this call "
                           f"site")
            elif states == frozenset({"reclaimed"}):
                self._emit("P001", call,
                           f"{callee}() posts on {arg.id} after it was "
                           f"reclaimed")

    def _protocol_consumed(self, call: ast.Call) -> bool:
        """Calls whose arguments the typestate transfer itself models;
        their arguments must stay tracked past this statement."""
        return (isinstance(call.func, ast.Attribute)
                and call.func.attr == "execute")

    def _escapes(self, stmt: ast.stmt,
                 new: Dict[str, FrozenSet[object]]) -> None:
        """Ownership transfers end local tracking (may-analysis stays
        sound: we only ever *stop* reporting)."""
        escaped: Set[str] = set()
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            escaped |= _names_in(stmt.value)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    escaped |= _names_in(stmt.value)
        for call in _calls_in(stmt):
            if self._protocol_consumed(call):
                continue
            func_names: Set[str] = set()
            if isinstance(call.func, ast.Attribute):
                func_names = _names_in(call.func.value)
            for arg in list(call.args) + [kw.value for kw in
                                          call.keywords]:
                for name in _names_in(arg):
                    if name not in func_names:
                        escaped.add(name)
        for name in escaped:
            new.pop(_QP + name, None)
            new.pop(_PLAN + name, None)

    # -- branch refinement --------------------------------------------

    def _refine(self, node: CfgNode, kind: str,
                state: State) -> Optional[State]:
        """`if qp.reclaimed:` / `if not qp.reclaimed:` refine the QP
        typestate down each arm."""
        if node.label != "if" or not isinstance(node.stmt, ast.If):
            return None
        test = node.stmt.test
        negated = False
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            negated = True
            test = test.operand
        if not (isinstance(test, ast.Attribute)
                and test.attr == "reclaimed"
                and isinstance(test.value, ast.Name)):
            return None
        key = _QP + test.value.id
        if key not in state:
            return None
        reclaimed_arm = (kind == "true") != negated
        new = dict(state)
        if reclaimed_arm:
            new[key] = frozenset({"reclaimed"})
        else:
            remaining = new[key] - {"reclaimed"}
            new[key] = remaining if remaining else frozenset(
                {"established"})
        return new

    def run(self) -> List[Finding]:
        in_states, _out = flow.forward(
            self.cfg, {}, self._transfer, refine_edge=self._refine)
        # P002 leak check: plans still `planned` at the normal exit.
        # The raise exit is deliberately excluded -- an exception raised
        # while driving execute(plan) is a failed execution, not a
        # dropped plan, and the whole rebalance unwinds with it.
        reported: Set[int] = set()
        for exit_id in (self.cfg.exit,):
            for key, states in in_states.get(exit_id, {}).items():
                if not key.startswith(_PLAN):
                    continue
                for item in states:
                    if (isinstance(item, tuple) and item
                            and item[0] == "planned"):
                        anchor = item[1]
                        assert isinstance(anchor, int)
                        if anchor in reported:
                            continue
                        reported.add(anchor)
                        lineno, col, var = self.plan_anchors.get(
                            anchor, (0, 0, key[len(_PLAN):]))
                        rule = RULES["P002"]
                        self.findings.append(Finding(
                            rule="P002", severity=rule.severity,
                            path=self.path, line=lineno, col=col,
                            message=f"rebalance plan {var} is never "
                                    f"executed on some path: the "
                                    f"membership change silently does "
                                    f"not stream",
                            hint=rule.hint,
                            detail={"function": self.qualname}))
        return self.findings


def analyze_protocols(tree: ast.Module, path: str,
                      resolver: Resolver) -> List[Finding]:
    """Run every P-rule over one parsed module."""
    graph = ModuleGraph(tree, resolver.imports)
    qp_summaries = _qp_summaries(graph)
    findings: List[Finding] = []
    for qualname, func, cls in flow.iter_functions(tree):
        analysis = _FunctionProtocols(path, qualname, func, cls, graph,
                                      resolver, qp_summaries)
        findings.extend(analysis.run())
    return findings
