"""Name resolution and the module call graph for the linter's rules.

Two layers, both pure stdlib:

* :class:`ImportTable` / :class:`Resolver` -- alias-to-canonical name
  resolution.  The import table handles ``import numpy as np`` and
  ``from time import perf_counter as pc``; the resolver extends it with
  *assignment aliases* (``_clock = time.perf_counter``) so a callable
  hidden behind a local binding still resolves to its canonical dotted
  path (the intra-file false negative the per-file linter had).

* :class:`ModuleGraph` -- the module-level call graph: local functions
  and methods by qualified name, the local calls each makes (resolved
  through ``self.``/``cls.`` and class names), and transitive
  closures, so analyzers can summarize helpers and flag call sites
  (D004's blocking helpers).

Resource balance -- a slot or QP acquired and released on every path --
is checked at run time instead, where callback-released grants are
visible: :func:`repro.analysis.sanitize.tracked_resources`.
"""

from __future__ import annotations

import ast
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple, Union)

__all__ = [
    "FuncDef",
    "ImportTable",
    "ModuleGraph",
    "Resolver",
    "dotted_name",
    "iter_functions",
    "statement_yields",
]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


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
