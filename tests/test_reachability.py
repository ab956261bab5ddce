"""Every ``src/repro`` module and public function must be reachable.

Modules: the entry points are the CLI (``repro.__main__``), the gate
registry (``repro.gates``), the figure and perf benchmarks
(``benchmarks/``) and the example apps (``examples/``).  Imports are
followed statically, including function-local ones.  A name imported
from a package resolves to the submodule that defines it, so a package
``__init__`` re-export does not by itself keep a module alive: a module
only tests import fails this check.

Functions, methods and top-level classes: every public one defined in
``src/repro`` must be named somewhere in ``src/``, ``benchmarks/`` or
``examples/``: a function or class as any identifier, a method or
property only as an attribute (``x.name``), so a local variable or
keyword of the same name does not keep a method alive.  A package
``__init__`` re-export does not count: it names what the package
offers, not a use.  The check is by name, so it is blind to a dead
method sharing its name with a live attribute; it still catches every
uniquely named one that only tests call.  Read-only observation points
and test fakes that tests check live behaviour through are the
exceptions, listed in :data:`OBSERVATION_POINTS` with their reasons.

Options: every defaulted parameter of a public function, method or
constructor, and every defaulted ``@dataclass`` field, must be set by
some call in ``src/`` or ``benchmarks/``, not counting tests and
examples.  An option only its default and tests ever reach is a
constant; the calibration profiles are exempt
(:data:`OPTION_EXEMPT_CLASSES`), and the few kept on purpose are listed
in :data:`KEPT_OPTIONS` with their reasons.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _modules():
    """Dotted name -> path for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _is_package(name, modules):
    return modules.get(name, Path()).name == "__init__.py"


def _absolute(node, current, modules):
    """The module an ``ImportFrom`` names, with relative levels resolved."""
    if not node.level:
        return node.module
    base = current.split(".")
    if not _is_package(current, modules):
        base.pop()
    base = base[:len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _defining_module(package, name, modules, seen=frozenset()):
    """Follow ``from package import name`` through ``__init__``
    re-exports to the module that defines ``name``."""
    if f"{package}.{name}" in modules:
        return f"{package}.{name}"
    if not _is_package(package, modules) or package in seen:
        return package
    tree = ast.parse(modules[package].read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    source = _absolute(node, package, modules)
                    if source in modules:
                        return _defining_module(source, alias.name, modules,
                                                seen | {package})
    return package


def _imports(path, current, modules):
    """``src/repro`` modules one file imports (anywhere in its body)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name in modules)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, current, modules)
            if source not in modules:
                continue
            for alias in node.names:
                found.add(_defining_module(source, alias.name, modules))
    return found


def test_every_module_is_reached_from_an_entry_point():
    modules = _modules()
    roots = [modules["repro.__main__"], modules["repro.gates"]]
    roots += sorted((ROOT / "benchmarks").rglob("*.py"))
    roots += sorted((ROOT / "examples").rglob("*.py"))
    reached = {"repro.__main__", "repro.gates"}
    frontier = set()
    for path in roots:
        frontier |= _imports(path, "", modules)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        if not _is_package(name, modules):
            # A package __init__ holds only re-exports, which
            # _defining_module already resolved for the importer.
            frontier |= _imports(modules[name], name, modules)
    unreached = sorted(name for name in modules
                       if name not in reached
                       and not _is_package(name, modules))
    assert not unreached, (
        "modules no entry point imports (delete them, or wire them into "
        f"a CLI command, gate, benchmark or example): {unreached}")


#: Public functions and classes only tests reference, kept on purpose.
#: Each entry must still exist and still be unreferenced by live code.
OBSERVATION_POINTS = {
    "ConfigSpace.iter_preorder":
        "exhaustive oracle the SLO-search property test checks "
        "optimality against",
    "RegionMapping.reads_paused":
        "how tests check the paper's reads-unpaused migration claim",
    "RegionMapping.writes_paused":
        "how tests check the paper's writes-paused migration claim",
    "VmAllocator.total_stranded_memory_gb":
        "how tests check the allocator's stranded-memory accounting",
    "VmAllocator.utilization":
        "how tests check the allocator's core and memory accounting, "
        "beside the stranded memory it leaves (the premise of Figs 1-2)",
    "VmType.memory_per_core":
        "how tests check the VM menu's memory:core mix (Figs 1-2)",
    "CacheAllocation.total_regions":
        "how tests check a cache's region count across VMs",
    "QueuePair.backlog_length":
        "how tests check the QP backlog beyond the queue depth",
    "QueuePair.in_flight":
        "how tests check the QP's in-flight depth under the queue depth",
    "QpPool.qp_ids":
        "how tests check deterministic session-to-QP assignment",
    "QpContextCache.resident_ids":
        "how tests check the NIC context cache's LRU residency",
    "FasterKv.log_size":
        "how tests check the hybrid log's size after a load",
    "_BufferedDevice.watermark":
        "how tests check that a device's spill watermark tracks the "
        "log head",
    "Process.is_alive":
        "how kernel tests check a process finished exactly once",
    "OpStages.durations":
        "how tests check the per-op stage ledger: the one-sided stages "
        "sum to the op's latency and reconcile with the analytic model",
    "FaultLog.kinds":
        "how tests check which faults the injector acted on, by kind",
    "HashRing.ranges":
        "how tests check that the owner arcs tile the ring",
    "TokenBucket.level":
        "how tests check the admission bucket's refill and burst cap",
    "PerfModel.known":
        "how tests check that serial and batched campaigns measure the "
        "same grid points",
    "LocalMemoryDevice":
        "a test fake: the instant device FASTER tests spill to when the "
        "device's own latency is not under test",
    "sanitize":
        "how tests drive the run-versus-replay trace diff the gate makes "
        "per entry (_record, then _compare) on deliberately leaky "
        "workloads",
}


def _live_identifiers():
    """``(names, attributes)`` live code names: every identifier (Name,
    Attribute, import alias, but not an alias a ``src/repro`` package
    ``__init__`` re-exports), and the attribute names alone."""
    names, attributes = set(), set()
    paths = sorted((SRC / "repro").rglob("*.py"))
    paths += sorted((ROOT / "benchmarks").rglob("*.py"))
    paths += sorted((ROOT / "examples").rglob("*.py"))
    for path in paths:
        reexports = path.name == "__init__.py" and SRC in path.parents
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias) and not reexports:
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
    return names, attributes


def _name_of(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _is_node_visitor(cls):
    return any(_name_of(base) == "NodeVisitor" for base in cls.bases)


def _public_functions():
    """``(qualified name, name, is method)`` of every public module-level
    function and class and every public class method under ``src/repro``.
    ``visit_*`` methods of an ``ast.NodeVisitor`` are skipped: the
    visitor dispatches them by building their names at run time."""
    found = []

    def scan(body, owner=None, visitor=False):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if owner is None and not node.name.startswith("_"):
                    found.append((node.name, node.name, False))
                scan(node.body, node.name, _is_node_visitor(node))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")
                  and not (visitor and node.name.startswith("visit_"))):
                qualified = f"{owner}.{node.name}" if owner else node.name
                found.append((qualified, node.name, owner is not None))

    for path in sorted((SRC / "repro").rglob("*.py")):
        scan(ast.parse(path.read_text()).body)
    return found


def test_every_public_function_is_named_by_live_code():
    names, attributes = _live_identifiers()
    dead = {qualified for qualified, name, is_method in _public_functions()
            if name not in (attributes if is_method else names)}
    unreferenced = sorted(dead - set(OBSERVATION_POINTS))
    assert not unreferenced, (
        "public functions and classes only tests (or nothing) use: delete "
        "them, or list a kept observation point with its reason: "
        f"{unreferenced}")
    stale = sorted(set(OBSERVATION_POINTS) - dead)
    assert not stale, (
        f"allowlisted but gone or now referenced by live code: {stale}")


#: Classes whose defaulted fields are not options, with the reason.
_CALIBRATION = ("a calibration profile: each field is a measured or "
                "fitted constant, set in one place and kept settable for "
                "sensitivity studies")
OPTION_EXEMPT_CLASSES = {
    "CpuSpec": _CALIBRATION,
    "NicSpec": _CALIBRATION,
    "FabricSpec": _CALIBRATION,
    "SsdSpec": _CALIBRATION,
    "TestbedProfile": _CALIBRATION,
    "FasterCosts": _CALIBRATION,
    "TraceConfig": "its shape parameters are the free variables of the "
                   "fit of the synthetic trace to the paper's §2.1 "
                   "marginals",
}

#: Options no live call sets, kept on purpose.  Each entry must still be an
#: option that no call sets.
KEPT_OPTIONS = {
    "make_testbed_measurer(profile=)":
        "the entry point a testbed-measured model grid for the cache "
        "manager goes through, built on the manager's own profile",
    "make_testbed_measurer(switch_hops=)":
        "the same entry point, for the manager's per-distance models",
    "main(argv=)":
        "the CLI entry point: ``python -m repro`` calls it bare to parse "
        "the command line, and the CLI tests pass their argument lists",
}

#: Factories whose fields start empty: such a field is state, not an
#: option.
_EMPTY_FACTORIES = {"list", "dict", "set", "deque", "defaultdict"}


def _is_dataclass(cls):
    return any(_name_of(getattr(d, "func", d)) == "dataclass"
               for d in cls.decorator_list)


def _init_fields(cls, classes):
    """``(owner, name, value)`` of a dataclass's ``__init__`` fields in
    order, inherited dataclass fields first."""
    fields = []
    for base in cls.bases:
        if _name_of(base) in classes and _is_dataclass(classes[_name_of(base)]):
            fields += _init_fields(classes[_name_of(base)], classes)
    for stmt in cls.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)):
            value = stmt.value
            keywords = ({k.arg: k.value for k in value.keywords}
                        if isinstance(value, ast.Call)
                        and _name_of(value.func) == "field" else {})
            if getattr(keywords.get("init"), "value", True) is not False:
                fields.append((cls.name, stmt.target.id, value))
    return fields


def _is_option(value):
    """A field default that makes the field an option: a value or a
    factory, but not ``field()`` without one nor an empty container."""
    if value is None:
        return False
    if not (isinstance(value, ast.Call) and _name_of(value.func) == "field"):
        return True
    keywords = {k.arg: k.value for k in value.keywords}
    factory = keywords.get("default_factory")
    if factory is not None:
        return _name_of(factory) not in _EMPTY_FACTORIES
    return "default" in keywords


def _options():
    """``(option, callable names, parameter, position, class family)``
    for every option under ``src/repro``.  ``position`` is the index a
    positional argument lands on (None for keyword-only); the family is
    set only for dataclass fields, whose attribute stores count.  Also
    returns the exempt dataclasses found."""
    trees = [ast.parse(path.read_text())
             for path in sorted((SRC / "repro").rglob("*.py"))]
    classes = {node.name: node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    subclasses = {}
    for cls in classes.values():
        for base in cls.bases:
            subclasses.setdefault(_name_of(base), set()).add(cls.name)

    def family(name):
        return {name}.union(*(family(sub)
                              for sub in subclasses.get(name, ())))

    found, exempt = [], set()

    def function(node, owner):
        if node.name == "__init__" and not owner.name.startswith("_"):
            label, names = owner.name, family(owner.name)
        elif not node.name.startswith("_"):
            label = f"{owner.name}.{node.name}" if owner else node.name
            names = {node.name}
        else:
            return
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(_name_of(d) == "staticmethod"
                     for d in node.decorator_list)
        shift = 1 if owner is not None and not static else 0
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            found.append((f"{label}({arg.arg}=)", names, arg.arg,
                          index - shift, None))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((f"{label}({arg.arg}=)", names, arg.arg,
                              None, None))

    def scan(body, owner=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if node.name in OPTION_EXEMPT_CLASSES and _is_dataclass(node):
                    exempt.add(node.name)
                elif _is_dataclass(node) and not node.name.startswith("_"):
                    fields = _init_fields(node, classes)
                    for index, (owner_name, name, value) in enumerate(fields):
                        if owner_name == node.name and _is_option(value):
                            found.append((
                                f"{node.name}.{name}",
                                family(node.name) | {"replace"}, name,
                                index, family(node.name)))
                scan(node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(node, owner)

    for tree in trees:
        scan(tree.body)
    return found, exempt


class _CallScan(ast.NodeVisitor):
    """What one file's calls and attribute stores set, by name."""

    def __init__(self, tree, keywords, positional, stores, forwards):
        self.keywords, self.positional = keywords, positional
        self.stores, self.forwards = stores, forwards
        self.cls = self.func = None
        # Keys each name is given as a dict: displays, dict(...) calls,
        # subscript stores, .update(...) keywords and loops over tables
        # of dicts, anywhere here.
        self.dict_keys, tables = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._keys(target.id).update(
                            self._literal_keys(node.value, nested=True))
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            tables.setdefault(target.id, set()).update(
                                *(self._literal_keys(item)
                                  for item in ast.walk(node.value)))
                    elif (isinstance(target, ast.Subscript)
                          and isinstance(target.value, ast.Name)
                          and isinstance(target.slice, ast.Constant)):
                        self._keys(target.value.id).add(target.slice.value)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "update"
                  and isinstance(node.func.value, ast.Name)):
                self._keys(node.func.value.id).update(
                    k.arg for k in node.keywords if k.arg)
        # A ``for`` loop over a list or tuple table gives its loop names
        # the keys of every dict inside the table.
        for node in ast.walk(tree):
            if (isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
                    and node.iter.id in tables):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        self._keys(name.id).update(tables[node.iter.id])
        self.visit(tree)

    def _keys(self, name):
        return self.dict_keys.setdefault(name, set())

    def _literal_keys(self, node, nested=False):
        keys = set()
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:
                    keys |= self._spread_keys(value)
                elif isinstance(key, ast.Constant):
                    keys.add(key.value)
                if nested:
                    keys |= self._literal_keys(value)
        elif isinstance(node, ast.Call) and _name_of(node.func) == "dict":
            keys.update(k.arg for k in node.keywords if k.arg)
        return keys

    def _spread_keys(self, node):
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return set(self.dict_keys.get(node.id, ()))
        return self._literal_keys(node)

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node
        self.generic_visit(node)
        self.func = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _store(self, target):
        for node in ast.walk(target):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                             ast.Store):
                owner = (self.cls.name if self.cls is not None
                         and _name_of(node.value) == "self" else None)
                self.stores.add((owner, node.attr))

    def visit_Assign(self, node):
        for target in node.targets:
            self._store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._store(node.target)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Call(self, node):
        func = node.func
        if (_name_of(func) == "__init__" and isinstance(func.value, ast.Call)
                and _name_of(func.value.func) == "super"):
            names = {_name_of(base) for base in self.cls.bases}
        elif _name_of(func) == "cls" and self.cls is not None:
            names = {self.cls.name}
        else:
            names = {_name_of(func)}
        count = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                count = float("inf")
                break
            count += 1
        keys = {k.arg for k in node.keywords if k.arg}
        spreads = [k.value for k in node.keywords if k.arg is None]
        caller = self.func
        for spread in spreads:
            keys |= self._spread_keys(spread)
        if spreads and caller is not None and caller.args.kwarg:
            source = (self.cls.name if caller.name == "__init__"
                      and self.cls is not None else caller.name)
            self.forwards.update((source, name) for name in names)
        for name in names:
            self.keywords.setdefault(name, set()).update(keys)
            self.positional[name] = max(self.positional.get(name, 0), count)
        self.generic_visit(node)


def _settings():
    """``(keywords, positional, stores)``: per callable name, the
    keywords some call in ``src/`` or ``benchmarks/`` passes and the
    most positional arguments one passes; and every ``(class or None,
    attribute)`` stored there."""
    keywords, positional, stores, forwards = {}, {}, set(), set()
    for folder in ("src", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            _CallScan(ast.parse(path.read_text()), keywords, positional,
                      stores, forwards)
    changed = True
    while changed:  # a **kwargs pass-through forwards its callers' keys
        changed = False
        for source, target in forwards:
            new = keywords.get(source, set()) - keywords.get(target, set())
            if new:
                keywords.setdefault(target, set()).update(new)
                changed = True
    return keywords, positional, stores


def test_every_option_is_set_somewhere():
    """Every defaulted parameter and dataclass field is set by some call
    in ``src/`` or ``benchmarks/``.

    A call sets a parameter when it is to a callable of that name and
    passes the parameter by keyword or by position; for a constructor
    the name is the class or a subclass that inherits it (and
    ``super().__init__`` inside one), for a dataclass field also
    ``replace`` or a store to an attribute of that name.  The scan is
    by name, so it is blind where names collide: a call to any callable
    sharing the name counts, and so does a store to any other object's
    attribute of a field's name (a store through ``self`` counts only
    inside the field's class).  A ``*args`` argument counts as passing
    every positional parameter.  A ``**`` argument passes the keys that
    the same file gives that name as a dict (displays, ``dict(...)``,
    subscript stores, ``update`` keywords, a ``for`` over a list or
    tuple of dicts) and, inside a function that takes ``**`` itself,
    every keyword its callers pass; a key built at run time is
    invisible.  Fields whose default is an empty container
    are state, not options, and are skipped.
    """
    keywords, positional, stores = _settings()
    options, exempt = _options()
    assert exempt == set(OPTION_EXEMPT_CLASSES)

    def is_set(names, parameter, position, family):
        if any(parameter in keywords.get(name, ())
               or (position is not None
                   and positional.get(name, 0) > position)
               for name in names):
            return True
        return family is not None and any(
            (owner, parameter) in stores for owner in family | {None})

    unset = sorted(option for option, names, parameter, position, family
                   in options
                   if not is_set(names, parameter, position, family))
    unexpected = [option for option in unset if option not in KEPT_OPTIONS]
    assert not unexpected, (
        "options no call sets: make each a constant (or a literal at its "
        f"one use), or list a kept one with its reason: {unexpected}")
    stale = sorted(set(KEPT_OPTIONS) - set(unset))
    assert not stale, f"kept but now set, or gone: {stale}"
    assert len(KEPT_OPTIONS) <= 10
