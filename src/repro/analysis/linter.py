"""``repro-lint``: the AST linter behind ``python -m repro lint``.

Pure-stdlib static analysis with repository-specific determinism rules
(catalog in :mod:`repro.analysis.rules`):

* **D001** wall-clock reads (``time.time``, ``datetime.now``, ...);
* **D002** module-level / unseeded randomness (``random.*``,
  ``numpy.random.*`` outside explicitly-seeded constructors);
* **D003** iteration over ``set`` expressions (or ``for k in d.keys()``)
  in ordering-sensitive contexts without ``sorted()``;
* **D004** blocking calls in sim code (``time.sleep`` anywhere, real
  I/O inside generator-based sim processes);
* **D005** mutable default arguments and mutable frozen-dataclass
  fields;
* **D006** ``json.dumps`` without ``sort_keys=True`` feeding a digest.

Beside the D rules run two syntactic resource-lifecycle L rules
(:mod:`repro.analysis.lifecycle`; catalog in
``docs/lifecycle-rules.md``): registry-owned metrics (L003) and spawn
join (L006).  Acquire/release balance is
checked at run time instead
(:func:`repro.analysis.sanitize.tracked_resources`).

Suppress a deliberate exception on its own line::

    started = perf_counter()  # repro-lint: disable=D001 -- wall timing
    env.process(spin())       # repro-lint: disable=D004,L006 -- multiple
    hook = attach()           # repro-lint: disable=L* -- family glob

The linter resolves import aliases (``import numpy as np``, ``from time
import perf_counter as pc``) and local assignment aliases
(``_clock = time.perf_counter``) so renamed entry points are still
caught, infers set-typed locals/attributes from their assignments so
``shards = set(...); for s in shards:`` is a finding even though the
loop itself mentions no set, and consults the module call graph so a
blocking helper is charged at its sim-process call site.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
import re
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.analysis import flow
from repro.analysis.flow import Resolver
from repro.analysis.lifecycle import analyze_lifecycle
from repro.analysis.report import Finding
from repro.analysis.rules import RULES

__all__ = ["expand_rules", "lint_paths", "lint_source"]


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<ids>[A-Z0-9*?,\s]+))?")

_GLOB_CHARS = ("*", "?", "[")

#: Wall-clock entry points (canonical dotted names after alias resolution).
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: numpy.random attributes that *construct* explicitly-seeded generators
#: (fine) rather than draw from hidden global state (not fine).
_NP_RANDOM_OK = {
    "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}

#: Real-world blocking entry points that must not run inside a sim
#: process (a generator driven by the kernel).
_BLOCKING_IN_PROCESS = {
    "open", "input",
    "socket.socket", "socket.create_connection",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "os.system", "os.popen",
    "urllib.request.urlopen",
}
_BLOCKING_PREFIXES = ("requests.",)

#: Set methods that return another set (for set-expression inference).
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference", "copy"}

#: Constructors whose result is mutable (for D005 default checking).
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray",
                  "collections.defaultdict", "collections.deque",
                  "collections.OrderedDict", "collections.Counter"}

_DIGEST_FUNC_RE = re.compile(
    r"digest|fingerprint|cache_key|canonical|checksum|content_hash|_hash$")


def _parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        ids = match.group("ids")
        if ids is None:
            table[lineno] = None
        else:
            table[lineno] = {part.strip() for part in ids.split(",")
                             if part.strip()}
    return table


class _SetInference:
    """Tracks which names / ``self.attr``s hold set values."""

    def __init__(self, imports: Resolver):
        self._imports = imports
        self.local_names: Set[str] = set()
        self.self_attrs: Set[str] = set()

    def seed_from_class(self, cls: ast.ClassDef) -> None:
        for node in ast.walk(cls):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                    and self.is_set_expr(node.value)):
                self.self_attrs.add(node.targets[0].attr)
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Attribute)
                  and isinstance(node.target.value, ast.Name)
                  and node.target.value.id == "self"
                  and self._is_set_annotation(node.annotation)):
                self.self_attrs.add(node.target.attr)

    def seed_from_function(
            self, func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self.local_names = set()
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self.is_set_expr(node.value)):
                self.local_names.add(node.targets[0].id)

    @staticmethod
    def _is_set_annotation(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        dotted = flow.dotted_name(annotation)
        return dotted in {"set", "frozenset", "Set", "FrozenSet",
                          "typing.Set", "typing.FrozenSet"}

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.local_names
        if isinstance(node, ast.Attribute):
            return (isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in self.self_attrs)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SET_METHODS
                    and self.is_set_expr(func.value)):
                return True
        return False


class _Analyzer(ast.NodeVisitor):
    """One pass over a module, emitting findings into ``self.findings``."""

    def __init__(self, path: str, imports: Resolver):
        self.path = path
        self.imports = imports
        self.findings: List[Finding] = []
        self.sets = _SetInference(imports)
        self._func_stack: List[Tuple[str, bool]] = []  # (name, is_generator)
        self._class_set_stack: List[Set[str]] = []

    # -- helpers -----------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, message: str,
              **detail: object) -> None:
        rule = RULES[rule_id]
        self.findings.append(Finding(
            rule=rule_id, severity=rule.severity, path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message, hint=rule.hint,
            detail={str(k): v for k, v in detail.items()}))

    def _in_generator(self) -> bool:
        return any(is_gen for _name, is_gen in self._func_stack)

    def _enclosing_digest_func(self) -> bool:
        return any(_DIGEST_FUNC_RE.search(name)
                   for name, _is_gen in self._func_stack)

    # -- scopes ------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.sets.seed_from_class(node)
        self._class_set_stack.append(set(self.sets.self_attrs))
        self._check_frozen_dataclass(node)
        self.generic_visit(node)
        self._class_set_stack.pop()
        self.sets.self_attrs = (set(self._class_set_stack[-1])
                                if self._class_set_stack else set())

    def _visit_function(
            self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._check_mutable_defaults(node)
        outer_locals = self.sets.local_names
        self.sets.seed_from_function(node)
        self._func_stack.append((node.name, flow.statement_yields(node)))
        self.generic_visit(node)
        self._func_stack.pop()
        self.sets.local_names = outer_locals

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- D005: mutable defaults -------------------------------------------

    def _is_mutable_value(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self.imports.resolve(node.func) in _MUTABLE_CALLS
        return False

    def _check_mutable_defaults(
            self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable_value(default):
                self._emit("D005", default,
                           f"mutable default argument in {node.name}()",
                           function=node.name)

    def _check_frozen_dataclass(self, node: ast.ClassDef) -> None:
        if not any(self._is_frozen_decorator(dec)
                   for dec in node.decorator_list):
            return
        for stmt in node.body:
            value = None
            if isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            elif isinstance(stmt, ast.Assign):
                value = stmt.value
            if value is not None and self._is_mutable_value(value):
                self._emit("D005", value,
                           f"mutable field default on frozen spec class "
                           f"{node.name}",
                           cls=node.name)

    def _is_frozen_decorator(self, dec: ast.AST) -> bool:
        if not isinstance(dec, ast.Call):
            return False
        if self.imports.resolve(dec.func) not in {
                "dataclass", "dataclasses.dataclass"}:
            return False
        return any(kw.arg == "frozen"
                   and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True
                   for kw in dec.keywords)

    # -- D003: unordered iteration ----------------------------------------

    def _flag_if_unordered(self, iterable: ast.AST, context: str) -> None:
        if self.sets.is_set_expr(iterable):
            self._emit("D003", iterable,
                       f"iterating a set in {context}: order depends on "
                       f"the per-process hash seed",
                       context=context)
            return
        if (isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr == "keys"
                and not iterable.args and not iterable.keywords
                and context in {"a for loop", "a comprehension"}):
            self._emit("D003", iterable,
                       f"iterating .keys() in {context}: use sorted(...) "
                       f"for canonical order, or iterate the dict "
                       f"directly if insertion order is intended",
                       context=context)

    def visit_For(self, node: ast.For) -> None:
        self._flag_if_unordered(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        # SetComp output is itself unordered, so its input order is moot.
        if not isinstance(node, ast.SetComp):
            for generator in node.generators:  # type: ignore[attr-defined]
                self._flag_if_unordered(generator.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_SetComp = _visit_comp

    # -- calls: D001 / D002 / D003(list/tuple) / D004 / D006 ---------------

    def visit_Call(self, node: ast.Call) -> None:
        canonical = self.imports.resolve(node.func)
        if canonical:
            self._check_wall_clock(node, canonical)
            self._check_randomness(node, canonical)
            self._check_blocking(node, canonical)
            self._check_ordering_sinks(node, canonical)
        self._check_digest_json(node, canonical)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, canonical: str) -> None:
        if canonical in _WALL_CLOCK:
            self._emit("D001", node,
                       f"wall-clock read {canonical}() in sim-driven code",
                       callee=canonical)

    def _check_randomness(self, node: ast.Call, canonical: str) -> None:
        if canonical.startswith("random."):
            tail = canonical[len("random."):]
            if tail == "Random" and node.args:
                return  # random.Random(seed): explicitly seeded
            self._emit("D002", node,
                       f"{canonical}() draws from the global random state",
                       callee=canonical)
            return
        if canonical.startswith("numpy.random."):
            tail = canonical[len("numpy.random."):]
            if tail in _NP_RANDOM_OK:
                return
            if tail == "default_rng" and (node.args or node.keywords):
                return  # explicitly seeded construction
            self._emit("D002", node,
                       f"{canonical}() is module-level/unseeded randomness",
                       callee=canonical)

    def _check_blocking(self, node: ast.Call, canonical: str) -> None:
        if canonical == "time.sleep":
            self._emit("D004", node,
                       "time.sleep() stalls the sim kernel without "
                       "advancing simulated time",
                       callee=canonical)
            return
        if not self._in_generator():
            return
        if (canonical in _BLOCKING_IN_PROCESS
                or canonical.startswith(_BLOCKING_PREFIXES)):
            self._emit("D004", node,
                       f"blocking call {canonical}() inside a sim process",
                       callee=canonical)

    def _check_ordering_sinks(self, node: ast.Call, canonical: str) -> None:
        """list()/tuple()/enumerate()/iter()/join() over a set expression."""
        if canonical in {"list", "tuple", "enumerate", "iter"} and node.args:
            self._flag_if_unordered(node.args[0], f"{canonical}()")
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "join" and node.args):
            self._flag_if_unordered(node.args[0], "str.join()")

    # -- D006: digest JSON -------------------------------------------------

    @staticmethod
    def _has_sort_keys(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                return not (isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is False)
            if keyword.arg is None:
                return True  # **kwargs: give it the benefit of the doubt
        return False

    def _dumps_argument(self, node: ast.AST) -> Optional[ast.Call]:
        """The ``json.dumps(...)`` call inside ``node``, unwrapping
        ``.encode(...)``."""
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "encode"):
            node = node.func.value
        if (isinstance(node, ast.Call)
                and self.imports.resolve(node.func) == "json.dumps"):
            return node
        return None

    def _check_digest_json(self, node: ast.Call,
                           canonical: Optional[str]) -> None:
        # Pattern 1: hashlib.<algo>(json.dumps(...).encode()) directly.
        if canonical and canonical.startswith("hashlib."):
            for arg in node.args:
                dumps = self._dumps_argument(arg)
                if dumps is not None and not self._has_sort_keys(dumps):
                    self._emit("D006", dumps,
                               "json.dumps() without sort_keys=True is "
                               "hashed into a digest")
            return
        # Pattern 2: any json.dumps inside a digest-flavored function.
        if (canonical == "json.dumps"
                and not self._has_sort_keys(node)
                and self._enclosing_digest_func()):
            self._emit("D006", node,
                       "json.dumps() without sort_keys=True inside a "
                       "digest/fingerprint function")


def expand_rules(rules: Iterable[str]) -> Set[str]:
    """Expand rule ids and globs (``L*``, ``D00?``) against the
    catalog; unknown ids and globs matching nothing raise ValueError."""
    enabled: Set[str] = set()
    for rule_id in rules:
        if any(ch in rule_id for ch in _GLOB_CHARS):
            matches = {known for known in RULES
                       if fnmatch.fnmatchcase(known, rule_id)}
            if not matches:
                raise ValueError(
                    f"rule glob {rule_id!r} matches no known rule")
            enabled |= matches
        elif rule_id in RULES:
            enabled.add(rule_id)
        else:
            raise ValueError(f"unknown rule id(s): {rule_id}")
    return enabled


def _callgraph_blocking(tree: ast.Module, path: str, resolver: Resolver,
                        findings: List[Finding]) -> None:
    """Call-graph-aware D004: a generator process calling a module-local
    (non-generator) helper that blocks is flagged at the call site --
    the helper alone is legal, running it on the kernel's thread is
    not."""
    graph = flow.ModuleGraph(tree, resolver.imports)

    def direct(_name: str, func: flow.FuncDef) -> FrozenSet[object]:
        facts: Set[object] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            canonical = resolver.resolve(node.func)
            if canonical and (canonical == "time.sleep"
                              or canonical in _BLOCKING_IN_PROCESS
                              or canonical.startswith(_BLOCKING_PREFIXES)):
                facts.add(canonical)
        return frozenset(facts)

    summaries = graph.summarize(direct)
    is_gen = {name: flow.statement_yields(func)
              for name, func in graph.functions.items()}
    rule = RULES["D004"]
    for name, func in graph.functions.items():
        if not is_gen[name]:
            continue
        cls = graph.owner_class[name]
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = graph.resolve_call(node.func, cls)
            if callee is None or is_gen.get(callee, False):
                continue
            blocked = summaries.get(callee) or frozenset()
            if not blocked:
                continue
            culprit = sorted(str(item) for item in blocked)[0]
            findings.append(Finding(
                rule="D004", severity=rule.severity, path=path,
                line=node.lineno, col=node.col_offset,
                message=f"{callee}() performs blocking I/O ({culprit}) "
                        f"and is called from sim process {name}()",
                hint=rule.hint,
                detail={"callee": callee, "blocking": culprit}))


def lint_source(source: str, path: str = "<memory>",
                rules: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    enabled = expand_rules(rules) if rules is not None else set(RULES)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="PARSE", severity="error", path=path,
                        line=exc.lineno or 0, col=(exc.offset or 1) - 1,
                        message=f"syntax error: {exc.msg}")]
    resolver = Resolver(tree)
    findings: List[Finding] = []
    if any(rule_id.startswith("D") for rule_id in enabled):
        analyzer = _Analyzer(path, resolver)
        analyzer.visit(tree)
        findings.extend(analyzer.findings)
        _callgraph_blocking(tree, path, resolver, findings)
    if any(rule_id.startswith("L") for rule_id in enabled):
        findings.extend(analyze_lifecycle(tree, path, resolver))
    suppressions = _parse_suppressions(source)
    kept: List[Finding] = []
    for finding in findings:
        if finding.rule not in enabled:
            continue
        if _is_suppressed(finding, suppressions):
            continue
        kept.append(finding)
    return kept


def _is_suppressed(finding: Finding,
                   table: Dict[int, Optional[Set[str]]]) -> bool:
    if finding.line not in table:
        return False
    ids = table[finding.line]
    if ids is None:
        return True
    return any(fnmatch.fnmatchcase(finding.rule, pattern)
               for pattern in ids)


def lint_paths(paths: Sequence[Union[str, pathlib.Path]],
               rules: Optional[Iterable[str]] = None,
               ) -> Tuple[List[Finding], List[pathlib.Path]]:
    """Lint files/directories; returns (findings, files scanned)."""
    files: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(p for p in sorted(path.rglob("*.py"))
                         if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            files.append(path)
    findings: List[Finding] = []
    for file in files:
        findings.extend(lint_source(file.read_text(), path=str(file),
                                    rules=rules))
    return findings, files
