"""Every ``src/repro`` module and public function must be reachable.

Modules: the entry points are the CLI (``repro.__main__``), the gate
registry (``repro.gates``), the figure and perf benchmarks
(``benchmarks/``) and the example apps (``examples/``).  Imports are
followed statically, including function-local ones.  A name imported
from a package resolves to the submodule that defines it, so a package
``__init__`` re-export does not by itself keep a module alive: a module
only tests import fails this check.

Functions and methods: every public one defined in ``src/repro`` must
be named, as an identifier, somewhere in ``src/``, ``benchmarks/`` or
``examples/``.  The check is by name, so it is blind to a dead method
sharing its name with a live one; it still catches every uniquely
named one that only tests call.  Read-only observation points that
tests check live behaviour through are the exceptions, listed in
:data:`OBSERVATION_POINTS` with their reasons.
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


#: Public functions only tests reference, kept on purpose.  Each entry
#: must still exist and still be unreferenced by live code.
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
    "QpPool.qp_ids":
        "how tests check deterministic session-to-QP assignment",
    "QpContextCache.resident_ids":
        "how tests check the NIC context cache's LRU residency",
    "FasterKv.log_size":
        "how tests check the hybrid log's size after a load",
    "_BufferedDevice.watermark":
        "how tests check that a device's spill watermark tracks the "
        "log head",
    "Cfg.edge_set":
        "how tests check the control-flow graph the lifecycle rules "
        "walk",
    "Process.is_alive":
        "how kernel tests check a process finished exactly once",
    "TokenBucket.level":
        "how tests check the admission bucket's refill and burst cap",
}


def _live_identifiers():
    """Every identifier live code names: Name, Attribute, import alias."""
    names = set()
    paths = sorted((SRC / "repro").rglob("*.py"))
    paths += sorted((ROOT / "benchmarks").rglob("*.py"))
    paths += sorted((ROOT / "examples").rglob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
    return names


def _is_node_visitor(cls):
    return any(getattr(base, "id", getattr(base, "attr", None))
               == "NodeVisitor" for base in cls.bases)


def _public_functions():
    """``(qualified name, name)`` of every public module-level function
    and class method under ``src/repro``.  ``visit_*`` methods of an
    ``ast.NodeVisitor`` are skipped: the visitor dispatches them by
    building their names at run time."""
    found = []

    def scan(body, owner=None, visitor=False):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, node.name, _is_node_visitor(node))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")
                  and not (visitor and node.name.startswith("visit_"))):
                qualified = f"{owner}.{node.name}" if owner else node.name
                found.append((qualified, node.name))

    for path in sorted((SRC / "repro").rglob("*.py")):
        scan(ast.parse(path.read_text()).body)
    return found


def test_every_public_function_is_named_by_live_code():
    live = _live_identifiers()
    functions = _public_functions()
    unreferenced = sorted(qualified for qualified, name in functions
                          if name not in live
                          and qualified not in OBSERVATION_POINTS)
    assert not unreferenced, (
        "public functions only tests (or nothing) call: delete them, or "
        f"list a kept observation point with its reason: {unreferenced}")
    stale = sorted(set(OBSERVATION_POINTS) - {
        qualified for qualified, name in functions if name not in live})
    assert not stale, (
        f"allowlisted but gone or now referenced by live code: {stale}")
