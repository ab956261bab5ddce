"""AST -> CFG dataflow framework for the repo's lifecycle analyzers.

Three layers, all pure stdlib:

* :class:`ImportTable` / :class:`Resolver` -- alias-to-canonical name
  resolution.  The import table handles ``import numpy as np`` and
  ``from time import perf_counter as pc``; the resolver extends it with
  *assignment aliases* (``_clock = time.perf_counter``) so a callable
  hidden behind a local binding still resolves to its canonical dotted
  path (the intra-file false negative the per-file linter had).

* :func:`build_cfg` -- a per-function control-flow graph with one node
  per statement.  Covered constructs: ``if``/``while``/``for`` (with
  ``break``/``continue``/``else``), ``try``/``except``/``else``/
  ``finally``, ``with``, ``return``/``raise``, ``match``, and --
  critically for a discrete-event codebase built on generator
  processes -- **suspension points**: every statement containing a
  ``yield``/``yield from`` gets an ``except`` edge to the innermost
  exception continuation, because the kernel throws a failed event's
  exception into the generator at exactly those points.  Exception
  edges carry the state from *before* the raising statement (its
  effect never completed), which is what makes ``yield x.acquire()``
  analyzable: a failure of the wait itself holds nothing, a failure at
  the next yield holds the slot.

  ``finally`` bodies are built once, with edges in from the normal
  ends, from every routed abrupt jump (``return``/``break``/
  ``continue``/raise), and edges out that continue each
  jump toward its ultimate target.  Distinct jump *targets* get
  distinct out-edges, but same-target paths merge inside the body; the
  resulting over-approximation only ever *adds* paths, so a "released
  on every path" proof stays sound.

* :func:`forward` -- a forward worklist dataflow engine over the CFG,
  generic over a ``{key: frozenset}`` state with union (may) or
  intersection (must) joins, plus a per-edge refinement hook so branch
  conditions (``if verdict != ADMIT:``, ``if qp.reclaimed:``) can gate
  the state flowing down each arm.

* :class:`ModuleGraph` -- the module-level call graph: local functions
  and methods by qualified name, the local calls each makes (resolved
  through ``self.``/``cls.`` and class names), and transitive
  closures, so analyzers can summarize helpers and flag call sites.
"""

from __future__ import annotations

import ast
from typing import (Callable, Dict, FrozenSet, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

__all__ = [
    "Cfg",
    "CfgNode",
    "Edge",
    "FuncDef",
    "ImportTable",
    "ModuleGraph",
    "Resolver",
    "STRUCTURAL_LABELS",
    "build_cfg",
    "dotted_name",
    "forward",
    "iter_functions",
    "statement_yields",
]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Edge kinds.
NEXT = "next"            # sequential fall-through
TRUE = "true"            # branch / loop-entry arm
FALSE = "false"          # branch-not-taken / loop-exhausted arm
LOOP = "loop"            # back edge to a loop header
#: Exception propagation (raise / assert / cleanup / a failed event
#: thrown in at a yield).  The source statement did *not* complete, so
#: the edge carries the source node's pre-state through the dataflow
#: engine.
EXCEPT = "except"

#: Synthetic structural nodes that reference a statement for position
#: only; analyzers must not re-apply statement effects at them.
STRUCTURAL_LABELS = frozenset(
    {"finally", "except-dispatch", "except", "with-exit"})

State = Mapping[str, FrozenSet[object]]

#: Open ends during CFG construction: (node id, kind of the edge that
#: will leave it).
Ends = List[Tuple[int, str]]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportTable:
    """Alias -> canonical dotted-path resolution for one module."""

    def __init__(self, tree: ast.AST):
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else
                        alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    def resolve(self, node: ast.AST) -> Optional[str]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical_head = self.aliases.get(head, head)
        return f"{canonical_head}.{rest}" if rest else canonical_head


class Resolver:
    """Import-alias resolution extended with assignment aliases.

    ``_clock = time.perf_counter`` binds ``_clock`` to the canonical
    ``time.perf_counter``; a later ``_clock()`` then resolves the same
    as the direct call.  Only bindings whose right-hand side already
    resolves *through the import table* (or through an earlier binding)
    are recorded -- ``x = foo.bar`` for a local object ``foo`` stays
    unresolved, so local state is never mistaken for a module path.
    """

    def __init__(self, tree: ast.AST):
        self.imports = ImportTable(tree)
        self.bindings: Dict[str, str] = {}
        self._collect(tree)

    def _collect(self, tree: ast.AST) -> None:
        # Two passes so an alias of an alias resolves regardless of the
        # order ast.walk visits the defining assignments.
        for _ in range(2):
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    continue
                value = node.value
                if not isinstance(value, (ast.Name, ast.Attribute)):
                    continue
                head_node: ast.AST = value
                while isinstance(head_node, ast.Attribute):
                    head_node = head_node.value
                if not isinstance(head_node, ast.Name):
                    continue
                head = head_node.id
                if (head not in self.imports.aliases
                        and head not in self.bindings):
                    continue
                canonical = self._expand(self.imports.resolve(value))
                if canonical is not None:
                    self.bindings[node.targets[0].id] = canonical

    def _expand(self, dotted: Optional[str]) -> Optional[str]:
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        via = self.bindings.get(head)
        if via is not None:
            return f"{via}.{rest}" if rest else via
        return dotted

    def resolve(self, node: ast.AST) -> Optional[str]:
        return self._expand(self.imports.resolve(node))


# ----------------------------------------------------------------------
# Control-flow graph
# ----------------------------------------------------------------------

class CfgNode:
    """One CFG node: a statement, or a synthetic structural node."""

    __slots__ = ("id", "stmt", "label", "lineno")

    def __init__(self, node_id: int, stmt: Optional[ast.AST], label: str):
        self.id = node_id
        self.stmt = stmt
        self.label = label
        self.lineno = getattr(stmt, "lineno", 0) if stmt is not None else 0

    @property
    def is_structural(self) -> bool:
        return self.stmt is None or self.label in STRUCTURAL_LABELS

    def __repr__(self) -> str:
        return f"<CfgNode {self.id} {self.label}@{self.lineno}>"


class Edge:
    __slots__ = ("src", "dst", "kind")

    def __init__(self, src: int, dst: int, kind: str):
        self.src = src
        self.dst = dst
        self.kind = kind

    def __repr__(self) -> str:
        return f"<Edge {self.src}-{self.kind}->{self.dst}>"


class Cfg:
    """Per-function control-flow graph.

    ``entry`` and ``exit`` bracket normal control flow; ``raise_exit``
    is the exceptional exit every uncaught exception (a failed event
    thrown in at a yield included) reaches.  :meth:`edge_set` renders
    the graph as ``(src_key, kind, dst_key)`` triples -- statement nodes
    keyed by line number, structural nodes by ``label@Lline``, the
    three boundary nodes by bare label -- which is what the
    construct-level tests assert against.
    """

    def __init__(self, name: str, func: Optional[FuncDef]):
        self.name = name
        self.func = func
        self.nodes: Dict[int, CfgNode] = {}
        self.succs: Dict[int, List[Edge]] = {}
        self.preds: Dict[int, List[Edge]] = {}
        self.entry = -1
        self.exit = -1
        self.raise_exit = -1
        self.is_generator = False

    def node(self, node_id: int) -> CfgNode:
        return self.nodes[node_id]

    def key(self, node_id: int) -> str:
        node = self.nodes[node_id]
        if node.stmt is None:
            return node.label
        if node.label in STRUCTURAL_LABELS:
            return f"{node.label}@L{node.lineno}"
        return f"L{node.lineno}"

    def edge_set(self) -> Set[Tuple[str, str, str]]:
        out: Set[Tuple[str, str, str]] = set()
        for edges in self.succs.values():
            for edge in edges:
                out.add((self.key(edge.src), edge.kind, self.key(edge.dst)))
        return out


def statement_yields(node: ast.AST) -> bool:
    """Does ``node`` contain a yield outside nested defs/lambdas?

    The top-level node itself may be a function def (when asking "is
    this function a generator"); only *nested* defs are opaque.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(item))
    return False


def _contains_call(stmt: ast.AST) -> bool:
    """True when the statement performs any call (a may-raise site)."""
    return any(isinstance(node, ast.Call) for node in ast.walk(stmt))


class _LoopCtx:
    __slots__ = ("header", "fin_depth", "break_ends")

    def __init__(self, header: int, fin_depth: int):
        self.header = header
        self.fin_depth = fin_depth
        self.break_ends: Ends = []


class _FinallyCtx:
    """An active ``finally`` body: one subgraph, many continuations."""

    __slots__ = ("entry", "exits", "routed")

    def __init__(self, entry: int, exits: Ends):
        self.entry = entry
        self.exits = exits          # open ends of the finally body
        self.routed: Set[int] = set()  # targets already wired outward


class _CfgBuilder:
    def __init__(self, func: FuncDef, name: str):
        self.cfg = Cfg(name, func)
        self._next_id = 0
        self.cfg.entry = self._new(None, "entry")
        self.cfg.exit = self._new(None, "exit")
        self.cfg.raise_exit = self._new(None, "raise")
        #: Innermost-last exception continuations, each recording how
        #: many finally contexts were active when it was pushed (jumps
        #: to it unwind only the finals opened after that point).
        self._exc_stack: List[Tuple[int, int]] = [(self.cfg.raise_exit, 0)]
        self._loops: List[_LoopCtx] = []
        self._finals: List[_FinallyCtx] = []
        self._cleanup_depth = 0
        self.cfg.is_generator = statement_yields(func)

    # -- plumbing ------------------------------------------------------

    def _new(self, stmt: Optional[ast.AST], label: str) -> int:
        node_id = self._next_id
        self._next_id += 1
        self.cfg.nodes[node_id] = CfgNode(node_id, stmt, label)
        self.cfg.succs[node_id] = []
        self.cfg.preds[node_id] = []
        return node_id

    def _connect(self, src: int, dst: int, kind: str) -> None:
        for edge in self.cfg.succs[src]:
            if edge.dst == dst and edge.kind == kind:
                return
        edge = Edge(src, dst, kind)
        self.cfg.succs[src].append(edge)
        self.cfg.preds[dst].append(edge)

    def _connect_ends(self, ends: Ends, dst: int,
                      override: Optional[str] = None) -> None:
        for src, kind in ends:
            self._connect(src, dst, override or kind)

    def _route(self, src: int, kind: str, target: int,
               through: Sequence[_FinallyCtx]) -> None:
        """Connect ``src`` to ``target`` with ``kind``, unwinding
        through the given (innermost-first) finally bodies.  Only the
        first hop keeps ``kind``; continuation hops out of a finally
        use each exit's natural kind, so the finally body's own effects
        (e.g. a release) stay visible on the continued path."""
        if not through:
            self._connect(src, target, kind)
            return
        ctx = through[0]
        self._connect(src, ctx.entry, kind)
        if target in ctx.routed:
            return
        ctx.routed.add(target)
        for end, end_kind in ctx.exits:
            self._route(end, end_kind, target, through[1:])

    def _raise_to(self, src: int) -> None:
        """Route an exception from ``src`` to the innermost exception
        continuation, through intervening finally bodies."""
        target, depth = self._exc_stack[-1]
        self._route(src, EXCEPT, target,
                    list(reversed(self._finals[depth:])))

    def _push_exc(self, target: int) -> None:
        self._exc_stack.append((target, len(self._finals)))

    def _pop_exc(self) -> None:
        self._exc_stack.pop()

    # -- statement walk ------------------------------------------------

    def build(self) -> Cfg:
        func = self.cfg.func
        ends = self._body(list(func.body) if func is not None else [],
                          [(self.cfg.entry, NEXT)])
        self._connect_ends(ends, self.cfg.exit)
        return self.cfg

    def _body(self, stmts: Sequence[ast.stmt], ends: Ends) -> Ends:
        for stmt in stmts:
            ends = self._stmt(stmt, ends)
            if not ends:
                break
        return ends

    def _stmt(self, stmt: ast.stmt, ends: Ends) -> Ends:
        handler = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if handler is not None:
            result: Ends = handler(stmt, ends)
            return result
        return self._simple(stmt, ends)

    def _place(self, stmt: ast.AST, ends: Ends, label: str) -> int:
        node = self._new(stmt, label)
        self._connect_ends(ends, node)
        return node

    def _simple(self, stmt: ast.stmt, ends: Ends) -> Ends:
        node = self._place(stmt, ends, "stmt")
        if statement_yields(stmt) or isinstance(stmt, ast.Assert):
            self._raise_to(node)
        elif self._in_handler_scope() and _contains_call(stmt):
            # Inside a try/with the author signalled exception
            # awareness: calls must reach the handler/cleanup, or the
            # except bodies would be dead code in the dataflow.  Plain
            # statements outside any try stay non-raising -- failures
            # thrown in at yields are the hazard this CFG models there.
            self._raise_to(node)
        return [(node, NEXT)]

    def _in_handler_scope(self) -> bool:
        """True when some try/except, try/finally, or with is open --
        but not while building cleanup code, which is non-raising."""
        if self._cleanup_depth:
            return False
        return len(self._exc_stack) > 1 or bool(self._finals)

    # -- branches and loops --------------------------------------------

    def _stmt_If(self, stmt: ast.If, ends: Ends) -> Ends:
        test = self._place(stmt, ends, "if")
        if statement_yields(stmt.test):
            self._raise_to(test)
        out = self._body(stmt.body, [(test, TRUE)])
        if stmt.orelse:
            out = out + self._body(stmt.orelse, [(test, FALSE)])
        else:
            out = out + [(test, FALSE)]
        return out

    def _stmt_While(self, stmt: ast.While, ends: Ends) -> Ends:
        header = self._place(stmt, ends, "while")
        if statement_yields(stmt.test):
            self._raise_to(header)
        ctx = _LoopCtx(header, len(self._finals))
        self._loops.append(ctx)
        body_ends = self._body(stmt.body, [(header, TRUE)])
        self._loops.pop()
        self._connect_ends(body_ends, header, override=LOOP)
        out: Ends = []
        if stmt.orelse:
            out.extend(self._body(stmt.orelse, [(header, FALSE)]))
        else:
            out.append((header, FALSE))
        out.extend(ctx.break_ends)
        return out

    def _loop_stmt(self, stmt: Union[ast.For, ast.AsyncFor],
                   ends: Ends) -> Ends:
        header = self._place(stmt, ends, "for")
        if statement_yields(stmt.iter):
            self._raise_to(header)
        ctx = _LoopCtx(header, len(self._finals))
        self._loops.append(ctx)
        body_ends = self._body(stmt.body, [(header, TRUE)])
        self._loops.pop()
        self._connect_ends(body_ends, header, override=LOOP)
        out: Ends = []
        if stmt.orelse:
            out.extend(self._body(stmt.orelse, [(header, FALSE)]))
        else:
            out.append((header, FALSE))
        out.extend(ctx.break_ends)
        return out

    _stmt_For = _loop_stmt
    _stmt_AsyncFor = _loop_stmt

    def _stmt_Break(self, stmt: ast.Break, ends: Ends) -> Ends:
        node = self._place(stmt, ends, "break")
        if self._loops:
            ctx = self._loops[-1]
            through = list(reversed(self._finals[ctx.fin_depth:]))
            if through:
                # The loop exit is not built yet: run the finals now
                # and surface their exits as the break's open ends.
                self._connect(node, through[0].entry, NEXT)
                ctx.break_ends.extend(self._chain_exits(through))
            else:
                ctx.break_ends.append((node, NEXT))
        return []

    def _chain_exits(self, through: Sequence[_FinallyCtx]) -> Ends:
        """Wire consecutive finally bodies together and return the open
        ends of the outermost one."""
        for inner, outer in zip(through, through[1:]):
            self._connect_ends(inner.exits, outer.entry)
        return list(through[-1].exits)

    def _stmt_Continue(self, stmt: ast.Continue, ends: Ends) -> Ends:
        node = self._place(stmt, ends, "continue")
        if self._loops:
            ctx = self._loops[-1]
            through = list(reversed(self._finals[ctx.fin_depth:]))
            self._route(node, LOOP, ctx.header, through)
        return []

    # -- return / raise ------------------------------------------------

    def _stmt_Return(self, stmt: ast.Return, ends: Ends) -> Ends:
        node = self._place(stmt, ends, "return")
        if stmt.value is not None and statement_yields(stmt.value):
            self._raise_to(node)
        self._route(node, NEXT, self.cfg.exit, list(reversed(self._finals)))
        return []

    def _stmt_Raise(self, stmt: ast.Raise, ends: Ends) -> Ends:
        node = self._place(stmt, ends, "raise-stmt")
        self._raise_to(node)
        return []

    # -- with ----------------------------------------------------------

    def _with_stmt(self, stmt: Union[ast.With, ast.AsyncWith],
                   ends: Ends) -> Ends:
        enter = self._place(stmt, ends, "with")
        if any(statement_yields(item.context_expr) for item in stmt.items):
            self._raise_to(enter)
        # __exit__ runs on both the normal and the exceptional path;
        # exceptions then continue outward from the cleanup node.
        cleanup = self._new(stmt, "with-exit")
        self._push_exc(cleanup)
        body_ends = self._body(stmt.body, [(enter, NEXT)])
        self._pop_exc()
        self._connect_ends(body_ends, cleanup)
        self._raise_to(cleanup)
        return [(cleanup, NEXT)]

    _stmt_With = _with_stmt
    _stmt_AsyncWith = _with_stmt

    # -- try -----------------------------------------------------------

    def _stmt_Try(self, stmt: ast.Try, ends: Ends) -> Ends:
        fin_ctx: Optional[_FinallyCtx] = None
        if stmt.finalbody:
            fin_entry = self._new(stmt, "finally")
            # Cleanup code is modelled as non-raising: a release() that
            # itself fails is out of scope, and an except edge here
            # would carry a pre-state in which the cleanup "never ran",
            # flagging every correctly nested try/finally.
            self._cleanup_depth += 1
            fin_exits = self._body(stmt.finalbody, [(fin_entry, NEXT)])
            self._cleanup_depth -= 1
            fin_ctx = _FinallyCtx(fin_entry, fin_exits)
            self._finals.append(fin_ctx)

        dispatch: Optional[int] = None
        if stmt.handlers:
            dispatch = self._new(stmt, "except-dispatch")
            self._push_exc(dispatch)
        body_ends = self._body(stmt.body, ends)
        if dispatch is not None:
            self._pop_exc()
        if stmt.orelse:
            # `else` runs only on normal completion, outside the
            # handlers' protection.
            body_ends = self._body(stmt.orelse, body_ends)
        normal_ends = list(body_ends)

        if dispatch is not None:
            for handler in stmt.handlers:
                h_entry = self._new(handler, "except")
                self._connect(dispatch, h_entry, EXCEPT)
                normal_ends.extend(self._body(handler.body,
                                              [(h_entry, NEXT)]))
            # No handler matched: the exception continues outward,
            # running this try's finally (still on self._finals) first.
            self._raise_to(dispatch)

        if fin_ctx is not None:
            self._finals.pop()
            self._connect_ends(normal_ends, fin_ctx.entry)
            return list(fin_ctx.exits)
        return normal_ends

    # -- match (3.10+) -------------------------------------------------

    def _stmt_Match(self, stmt: ast.Match, ends: Ends) -> Ends:
        header = self._place(stmt, ends, "match")
        out: Ends = [(header, FALSE)]
        for case in stmt.cases:
            out.extend(self._body(case.body, [(header, TRUE)]))
        return out


def build_cfg(func: FuncDef, name: Optional[str] = None) -> Cfg:
    """Build the control-flow graph of one function/method."""
    return _CfgBuilder(func, name or func.name).build()


# ----------------------------------------------------------------------
# Dataflow engine
# ----------------------------------------------------------------------

def _join(states: Sequence[State]) -> Dict[str, FrozenSet[object]]:
    """Union join: a fact holds if any incoming path has it."""
    keys: Set[str] = set()
    for state in states:
        keys.update(state)
    out: Dict[str, FrozenSet[object]] = {}
    for key in keys:
        merged = frozenset().union(
            *(state.get(key, frozenset()) for state in states))
        if merged:
            out[key] = merged
    return out


def forward(
    cfg: Cfg,
    init: State,
    transfer: Callable[[CfgNode, State], State],
    refine_edge: Optional[Callable[[CfgNode, str, State],
                                   Optional[State]]] = None,
) -> Tuple[Dict[int, State], Dict[int, State]]:
    """Forward worklist dataflow; returns ``(in_states, out_states)``.

    ``transfer(node, in_state)`` computes a node's post-state.  Normal
    edges propagate the post-state; ``except`` edges propagate the
    *pre*-state (the statement's effect never completed).
    ``refine_edge(node, kind, state)`` may sharpen the state flowing
    down one edge (branch-condition awareness) or return None to keep
    it unchanged.  States join by union, so they track may-facts.
    """
    in_states: Dict[int, State] = {cfg.entry: dict(init)}
    out_states: Dict[int, State] = {}
    worklist: List[int] = [cfg.entry]
    steps = 0
    while worklist:
        steps += 1
        if steps > 100_000:
            break  # defensive: terminate conservatively
        node_id = worklist.pop()
        node = cfg.nodes[node_id]
        in_state = in_states.get(node_id, {})
        out_state = transfer(node, in_state)
        out_states[node_id] = out_state
        for edge in cfg.succs[node_id]:
            base = in_state if edge.kind == EXCEPT else out_state
            if refine_edge is not None:
                refined = refine_edge(node, edge.kind, base)
                if refined is not None:
                    base = refined
            old = in_states.get(edge.dst)
            if old is None:
                in_states[edge.dst] = dict(base)
            else:
                merged = _join([old, base])
                if merged == dict(old):
                    continue
                in_states[edge.dst] = merged
            worklist.append(edge.dst)
    return in_states, out_states


# ----------------------------------------------------------------------
# Module call graph
# ----------------------------------------------------------------------

class ModuleGraph:
    """Call graph over one module's local functions and methods.

    Functions are keyed by qualified name (``helper`` /
    ``Class.method``).  Calls resolve ``helper(...)``,
    ``self.method(...)``/``cls.method(...)`` (within the defining
    class), and ``ClassName.method(...)``; anything else -- external
    calls, dynamic dispatch across classes -- is outside the graph.
    """

    def __init__(self, tree: ast.Module,
                 imports: Optional[ImportTable] = None):
        self.tree = tree
        self.imports = imports if imports is not None else ImportTable(tree)
        self.functions: Dict[str, FuncDef] = {}
        self.owner_class: Dict[str, Optional[str]] = {}
        self.calls: Dict[str, Set[str]] = {}
        self._collect(tree.body, prefix="", cls=None)
        for qualname, func in self.functions.items():
            self.calls[qualname] = self._local_calls(qualname, func)

    def _collect(self, body: Sequence[ast.stmt], prefix: str,
                 cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                self.functions[qualname] = node
                self.owner_class[qualname] = cls
            elif isinstance(node, ast.ClassDef):
                self._collect(node.body, prefix=f"{node.name}.",
                              cls=node.name)

    def _local_calls(self, qualname: str, func: FuncDef) -> Set[str]:
        cls = self.owner_class[qualname]
        callees: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = self.resolve_call(node.func, cls)
            if target is not None:
                callees.add(target)
        return callees

    def resolve_call(self, func: ast.AST,
                     cls: Optional[str]) -> Optional[str]:
        """Qualified name of the *local* function ``func`` refers to,
        from the body of a method of ``cls`` (or a module function when
        ``cls`` is None); None when the target is not in this module."""
        if isinstance(func, ast.Name):
            if func.id in self.functions:
                return func.id
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            if func.value.id in ("self", "cls") and cls is not None:
                qualname = f"{cls}.{func.attr}"
            else:
                qualname = f"{func.value.id}.{func.attr}"
            if qualname in self.functions:
                return qualname
        return None

    def transitive_callees(self, qualname: str) -> Set[str]:
        """Every local function reachable from ``qualname`` within
        eight calls."""
        seen: Set[str] = set()
        frontier = {qualname}
        for _ in range(8):
            nxt: Set[str] = set()
            for name in sorted(frontier):
                for callee in self.calls.get(name, ()):
                    if callee not in seen:
                        seen.add(callee)
                        nxt.add(callee)
            if not nxt:
                break
            frontier = nxt
        return seen

    def summarize(
        self,
        per_function: Callable[[str, FuncDef], FrozenSet[object]],
    ) -> Dict[str, FrozenSet[object]]:
        """Transitive closure of a per-function fact set.

        ``per_function`` computes each function's *direct* facts; the
        result maps every function to the union of its own facts and
        those of everything it (transitively) calls.
        """
        direct = {name: per_function(name, func)
                  for name, func in self.functions.items()}
        out: Dict[str, FrozenSet[object]] = {}
        for name in self.functions:
            facts = frozenset(direct[name])
            for callee in self.transitive_callees(name):
                facts |= direct.get(callee, frozenset())
            out[name] = facts
        return out


def iter_functions(
        tree: ast.Module) -> List[Tuple[str, FuncDef, Optional[str]]]:
    """(qualname, func, owning class) for every def in the module."""
    entries: List[Tuple[str, FuncDef, Optional[str]]] = []

    def walk(body: Sequence[ast.stmt], prefix: str,
             cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                entries.append((f"{prefix}{node.name}", node, cls))
                # Nested defs are analyzed independently.
                walk(node.body, f"{prefix}{node.name}.<locals>.", cls)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{node.name}.", node.name)

    walk(tree.body, "", None)
    return entries
