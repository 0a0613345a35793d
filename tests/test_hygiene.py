"""Dead-code guard for src/gaindex, stdlib ast only.

Every name a module imports must be used in that module, and every
module-level private function or class must be referenced somewhere in the
package outside its own definition. `__init__.py` is skipped: its imports
are the package's re-exports.
"""

import ast
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
