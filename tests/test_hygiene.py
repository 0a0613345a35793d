"""Dead-code and global-switch guards for src/gaindex, stdlib ast only.

Every name a module imports must be used in that module, and every
module-level private function or class must be referenced somewhere in the
package outside its own definition. No module imports an `_`-prefixed name
from another gaindex module, so each private helper serves its own module
only. `__init__.py` is skipped: its imports are the package's re-exports.
No function may rebind a module global, except the allowlisted switches
below. Only graph.py calls the Graph
constructor, reads adjacency, builds a CycleStructure or writes a Graph
value's cached fields, its classify memo or a structure's root record. A CycleStructure is plain data: no lazy
field, and graph.py seeds only a value's degrees and cycle.
Every module parses under the oldest Python that pyproject.toml allows.
No module imports `dataclasses`, whose import (with `inspect`) was the
largest share of the CLI's start-up; a fresh `import gaindex.cli` loads
neither.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaindex"
MODULES = {p.name: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _references(node) -> list:
    """Every identifier read under node: bare names and attribute names."""
    refs = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.append(sub.attr)
    return refs


# how often each identifier is read across the whole package
PACKAGE_REFERENCES = Counter(r for tree in MODULES.values() for r in _references(tree))


def test_modules_were_found():
    assert {"graph.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = set(_references(tree))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(name)
    assert unused == [], f"{module} imports names it never uses"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_helper_is_referenced(module):
    unreferenced = []
    for node in MODULES[module].body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")):
            continue
        if PACKAGE_REFERENCES[node.name] == _references(node).count(node.name):
            unreferenced.append(node.name)
    assert unreferenced == [], f"{module} defines private helpers nothing references"


def _private_imports(tree) -> list:
    """`module.name` for each `_`-prefixed name imported from a gaindex module
    under tree, at any depth."""
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "gaindex")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_another_modules_private_names(module):
    assert _private_imports(MODULES[module]) == [], f"{module} imports private names"


# (module, function, name) for each `global` statement still allowed. The
# runtime-check switch is the last one. The benchmark harness calls it, so it
# goes in a benchmark change, which replaces it with an explicit check_tol
# argument and empties this set.
ALLOWED_GLOBALS = {("transforms.py", "set_runtime_checks", "_runtime_check_tol")}


def _globals(node, scope):
    """(scope, name) for each name in a `global` statement under node; scope
    is the innermost enclosing function's name, None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Global):
            yield from ((scope, name) for name in child.names)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _globals(child, inner)


def test_no_global_switches():
    found = {(module, scope, name)
             for module, tree in MODULES.items() for scope, name in _globals(tree, None)}
    assert found - ALLOWED_GLOBALS == set(), "src/gaindex rebinds module globals"


def _calls_graph(node) -> bool:
    """True for a call of `Graph(...)` or `x.Graph(...)`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Graph"
            or isinstance(func, ast.Attribute) and func.attr == "Graph")


def test_only_graph_calls_the_graph_constructor():
    # a Graph value comes from an edge list (build_graph), a ring (ring_graph)
    # or a rewrite (rehang); the unchecked constructor stays
    # inside graph.py
    callers = sorted({module for module, tree in MODULES.items() if module != "graph.py"
                      for node in ast.walk(tree) if _calls_graph(node)})
    assert callers == [], "modules other than graph.py call Graph(...)"


def test_only_graph_reads_adjacency():
    # every other module reads structure (cycle, parents, pendant trees)
    # from the values graph.py computes once per Graph
    readers = sorted({module for module, tree in MODULES.items() if module != "graph.py"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("neighbors", "adjacency")})
    assert readers == [], "modules other than graph.py walk adjacency"


def _writes_cache(node) -> bool:
    """True for a node that builds a CycleStructure or can write a cached
    field: `__dict__`, `vars`, the classify memo, a store to `.root`, or a
    `setattr` that names the memo or `root`."""
    if isinstance(node, ast.Attribute):
        return (node.attr in ("__dict__", "_vertex_classes")
                or node.attr == "root" and isinstance(node.ctx, (ast.Store, ast.Del)))
    if not isinstance(node, ast.Call):
        return False
    func = _references(node.func)
    if func[:1] in (["setattr"], ["__setattr__"]):
        return any(isinstance(a, ast.Constant) and a.value in ("root", "_vertex_classes")
                   for a in node.args)
    return func[:1] in (["vars"], ["CycleStructure"])


def test_only_graph_builds_cycle_structures_and_seeds_caches():
    # a Graph value's cached fields (its cycle structure with the pendant
    # trees and roots, and its classify memo) come from its own edges or, for
    # a rewrite's result, from Graph.rehang; no other module writes them
    writers = sorted({module for module, tree in MODULES.items() if module != "graph.py"
                      for node in ast.walk(tree) if _writes_cache(node)})
    assert writers == [], "modules other than graph.py build CycleStructure or seed Graph caches"


def _cycle_structure_class() -> ast.ClassDef:
    return next(node for node in MODULES["graph.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "CycleStructure")


def test_cycle_structure_has_no_lazy_fields():
    # every field is set by the constructor; nothing is computed on first read
    lazy = [node.name for node in _cycle_structure_class().body
            if isinstance(node, ast.FunctionDef)
            and {"cached_property", "property"} & {r for d in node.decorator_list
                                                   for r in _references(d)}]
    assert lazy == [], "CycleStructure computes fields on first read"


def _dict_writes(tree) -> tuple:
    """(the constant keys stored through `x.__dict__[key]`, the number of
    `x.__dict__.update(...)` calls) under tree."""
    keys, updates = set(), 0
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"):
            keys.add(node.slice.value if isinstance(node.slice, ast.Constant) else None)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "__dict__"):
            updates += 1
    return keys, updates


def test_graph_seeds_only_degrees_and_cycle():
    # rehang seeds a result's degrees and cycle structure;
    # a structure's own fields all go through its constructor
    assert _dict_writes(MODULES["graph.py"]) == ({"degrees", "cycle"}, 0)


def _python_floor() -> tuple:
    """(3, minor) from pyproject.toml's requires-python = ">=3.minor"."""
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    return (3, int(re.search(r'^requires-python = ">=3\.(\d+)"$', text, re.M).group(1)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_under_the_declared_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    probe = "import sys, gaindex.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
