"""Every ``src/repro`` module must be reachable from a real entry point.

The entry points are the CLI (``repro.__main__``), the gate registry
(``repro.gates``), the figure and perf benchmarks (``benchmarks/``) and
the example apps (``examples/``).  Imports are followed statically,
including function-local ones.  A name imported from a package
resolves to the submodule that defines it, so a package ``__init__``
re-export does not by itself keep a module alive: a module only tests
import fails this check.
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
