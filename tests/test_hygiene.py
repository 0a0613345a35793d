"""Dead-code and global-switch guards for src/gaindex, stdlib ast only.

Every name a module imports must be used in that module, except the
allowlisted re-exports (RE_EXPORTS); every module-level private function or
class, dunders aside, must be referenced somewhere in the package outside
its own definition. No module imports an `_`-prefixed name from another
gaindex module, so each private helper serves its own module only.
`__init__.py` is skipped: its imports are the package's re-exports.
No function may rebind a module global, except the allowlisted switches
below. No module, graph.py included, reads an `adjacency` or `neighbors`
attribute. Only graph.build_graph, graph.Graph.rehang and rings.ring_graph
call the Graph constructor; only those and the peel, graph.Graph.cycle,
build a CycleStructure; only graph.py writes a Graph value's cached fields
or a structure's root record. A Graph value holds n, m, its degrees and
its ends as plain fields and caches only its edges, cycle and GA (the
exact sum and its float), and Graph defines no property; a
CycleStructure is plain data: no lazy field. build_graph, the peel and the
GA sum read no edge set and make no normalized edge tuple.
GA has one definition: only graph.py assigns SCALE and defines a GA term
function, and math.fsum is read only by indices.ag_index. Only graph.py
imports json, and only its json_text calls json.dumps; only its rises_above
compares a rise divided by SCALE with a tolerance, and only graph.py turns a
float into an exact ratio. graph.py writes no `__dict__` key: the
constructor fills a cache by assigning the field.
No rewrite operator in transforms.py calls another, directly or through
the module's helpers: each is its guards plus one Graph.rehang. And
enumeration.py imports from transforms nothing at module level and only
operator_applications inside functions, rings.py nothing, and neither
names a rewrite operator: the monotonicity sweep evaluates each one as an
edit of a ring, and rings.ring_edits builds no dict or set and copies no
list, so each edit stays O(1) arithmetic, and makes no function object
(no nested def, lambda, comprehension or generator expression) per ring.
rings.py imports only graph from the package, and no other module defines
ring generation, a shape or sum table, ring_graph or the ring edits, or
memoizes a function other than the GA term and the CLI's parser.
Only set_runtime_checks and reduction_pipeline name the runtime-check switch,
and no operator reaches it through the helpers: the pipeline checks each
step where it records it.
Every module parses under the oldest Python that pyproject.toml allows.
No module imports `dataclasses`, whose import (with `inspect`) was the
largest share of the CLI's start-up; a fresh `import gaindex.cli` loads
neither, and `gaindex verify` does not load transforms, whose names the
package root and enumeration resolve on first access.
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


# the one import kept for other modules to read: the operator names live in
# rings.py, and transforms re-exports them for its readers
RE_EXPORTS = {("transforms.py", "OPERATOR_NAMES")}


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
                if name not in used and (module, name) not in RE_EXPORTS:
                    unused.append(name)
    assert unused == [], f"{module} imports names it never uses"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_helper_is_referenced(module):
    unreferenced = []
    for node in MODULES[module].body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):  # the interpreter calls these
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
# goes in a benchmark change, which replaces it with a check_tol argument on
# reduction_pipeline, its one reader (the operators need none), and empties
# this set.
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


def _calls(node, name: str) -> bool:
    """True for a call of `name(...)` or `x.name(...)`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def _callers(name: str) -> set:
    """(module, qualified name of the innermost function or class, None at
    module level) around each call of name(...) in the package."""
    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if _calls(child, name):
                yield module, scope
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope is None else f"{scope}.{child.name}"
            yield from walk(child, module, inner)

    return {site for module, tree in MODULES.items() for site in walk(tree, module, None)}


def test_only_the_three_builders_call_the_graph_constructor():
    # a Graph value comes from an edge list (build_graph), a rewrite (rehang)
    # or a ring (ring_graph); the unchecked constructor stays in those three
    assert _callers("Graph") == {("graph.py", "build_graph"), ("graph.py", "Graph.rehang"),
                                 ("rings.py", "ring_graph")}


def test_no_module_reads_neighbor_lists():
    # no Graph value holds neighbor lists: modules read structure (cycle,
    # parents, pendant trees) from the values graph.py computes once per
    # Graph, and graph.py peels from degrees and neighbor-id sums
    readers = sorted({module for module, tree in MODULES.items()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("neighbors", "adjacency")})
    assert readers == [], "modules read an adjacency or neighbors attribute"


def _writes_cache(node) -> bool:
    """True for a node that can write a cached field: `__dict__`, `vars`, a
    store to `.root`, or a `setattr` that names `root`."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "__dict__"
                or node.attr == "root" and isinstance(node.ctx, (ast.Store, ast.Del)))
    if not isinstance(node, ast.Call):
        return False
    func = _references(node.func)
    if func[:1] in (["setattr"], ["__setattr__"]):
        return any(isinstance(a, ast.Constant) and a.value == "root" for a in node.args)
    return func[:1] == ["vars"]


def test_three_builders_make_cycle_structures_and_only_graph_seeds_caches():
    # a Graph value's cached fields (its cycle structure with the pendant
    # trees and roots among them) come from its own edges (the peel), from
    # its ring or, for a rewrite's result, from Graph.rehang; no other
    # function builds a structure, and no other module writes a cache
    assert _callers("CycleStructure") == {
        ("graph.py", "Graph.cycle"), ("graph.py", "Graph.rehang"), ("rings.py", "ring_graph")}
    writers = sorted({module for module, tree in MODULES.items() if module != "graph.py"
                      for node in ast.walk(tree) if _writes_cache(node)})
    assert writers == [], "modules other than graph.py seed Graph caches"


def _graph_class(name: str) -> ast.ClassDef:
    return next(node for node in MODULES["graph.py"].body
                if isinstance(node, ast.ClassDef) and node.name == name)


def test_graph_caches_only_its_structure_and_ga():
    # per-value memos for what other modules decide stay out of Graph
    cached = [node.name for node in _graph_class("Graph").body
              if isinstance(node, ast.FunctionDef)
              and any("cached_property" in _references(d) for d in node.decorator_list)]
    assert cached == ["edges", "cycle", "ga_sum", "ga"]


def _graph_function(qualname: str) -> ast.FunctionDef:
    """A function of graph.py by its qualified name: `name` or `Class.name`."""
    *cls, name = qualname.split(".")
    body = _graph_class(cls[0]).body if cls else MODULES["graph.py"].body
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize("qualname", ["build_graph", "Graph.cycle", "Graph.ga_sum"])
def test_the_reduce_path_builds_no_edge_set(qualname):
    # reduce validates, peels and sums an input over its two lists of ends;
    # an `.edges` read or a norm_edge call there would rebuild the tuple set
    refs = set(_references(_graph_function(qualname)))
    assert refs & {"edges", "norm_edge"} == set(), f"{qualname} builds edge tuples"


def _sites(match) -> set:
    """(module, name of the module-level function or class, None for other
    statements) for each node under which match holds."""
    return {(module, getattr(top, "name", None)) for module, tree in MODULES.items()
            for top in tree.body for node in ast.walk(top) if match(node)}


def _is(node, name: str) -> bool:
    """True when node itself is `name`: a bare name, an attribute, an import
    alias or a definition."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None))


def test_ga_has_one_scale_one_term_function_and_no_float_sum():
    # every GA reader sums graph.py's exact terms; fsum is left to AG's float terms
    assert _sites(lambda node: _is(node, "SCALE")
                  and isinstance(getattr(node, "ctx", None), ast.Store)) == {("graph.py", None)}
    assert _sites(lambda node: isinstance(node, ast.FunctionDef)
                  and node.name.endswith("term")) == {("graph.py", "ga_term")}
    assert _sites(lambda node: _is(node, "fsum")) == {("indices.py", "ag_index")}


def _divides_by_scale(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and _is(node.right, "SCALE")


def test_json_layout_and_tolerance_tests_have_one_definition_each():
    # one JSON layout, graph.json_text; one float test of an exact rise
    # against tol, graph.rises_above; and floats made exact ratios only by
    # graph.py, for a GA term and for verify_bounds's exact tol
    assert _sites(lambda node: isinstance(node, (ast.Import, ast.ImportFrom))
                  and "json" in [getattr(node, "module", None), *(a.name for a in node.names)]
                  ) == {("graph.py", None)}
    assert _sites(lambda node: _is(node, "dumps")) == {("graph.py", "json_text")}
    assert _sites(lambda node: isinstance(node, ast.Compare)
                  and any(map(_divides_by_scale, [node.left, *node.comparators]))) == {
        ("graph.py", "rises_above")}
    assert {module for module, _ in _sites(lambda node: _is(node, "as_integer_ratio"))} == {
        "graph.py"}


def test_graph_defines_no_property():
    # n, m and the degrees are plain fields set by the constructor
    props = [node.name for node in _graph_class("Graph").body
             if isinstance(node, ast.FunctionDef)
             and "property" in {r for d in node.decorator_list for r in _references(d)}]
    assert props == [], "Graph computes a field through a property"


def test_cycle_structure_has_no_lazy_fields():
    # every field is set by the constructor; nothing is computed on first read
    lazy = [node.name for node in _graph_class("CycleStructure").body
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


def test_graph_writes_no_dict_key():
    # a value's fields, and a structure's, all go through their constructors
    assert _dict_writes(MODULES["graph.py"]) == (set(), 0)


def _module_functions(tree) -> dict:
    """Each module-level function's name, with the names its body calls."""
    return {node.name: {sub.func.id for sub in ast.walk(node)
                        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def _operator_reach() -> dict:
    """Each name in rings.OPERATOR_NAMES, with every transforms.py function
    it reaches through that module's helpers."""
    tree = MODULES["transforms.py"]
    operators = next(ast.literal_eval(node.value) for node in MODULES["rings.py"].body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets] == ["OPERATOR_NAMES"])
    calls = _module_functions(tree)
    assert set(operators) <= calls.keys()
    reach = {}
    for op in operators:
        reached, stack = set(), [op]
        while stack:
            for name in calls[stack.pop()] & (calls.keys() - reached):
                reached.add(name)
                stack.append(name)
        reach[op] = reached
    return reach


def test_no_rewrite_operator_calls_another():
    reach = _operator_reach()
    for op, reached in reach.items():
        assert reached & (reach.keys() - {op}) == set(), f"{op} calls another operator"


def _from_transforms(nodes) -> list:
    """The names that the import statements among nodes take from
    transforms, sorted; asserts that none imports the module itself."""
    imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not any(alias.name.split(".")[-1] == "transforms"
                   for node in imports for alias in node.names)
    return sorted(alias.name for node in imports
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "transforms"
                  for alias in node.names)


def test_the_monotonicity_sweep_runs_no_rewrite_operator():
    # the sweep evaluates every operator as a ring edit: enumeration.py takes
    # the operator names from rings.py and nothing from transforms at module
    # level; it imports the graph-level choices only where it lists a
    # violating class's applications and where its module __getattr__
    # resolves enumeration.operator_applications. rings.py takes nothing,
    # and neither names an operator, so the sweep cannot fall back to the
    # graph operators unnoticed
    enumeration = MODULES["enumeration.py"]
    assert _from_transforms(enumeration.body) == []
    assert _from_transforms(ast.walk(enumeration)) == ["operator_applications"] * 2
    assert _from_transforms(ast.walk(MODULES["rings.py"])) == []
    for module in ("enumeration.py", "rings.py"):
        assert set(_references(MODULES[module])) & _operator_reach().keys() == set(), module


RING_EDITS = next(node for node in MODULES["rings.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "ring_edits")


def test_ring_edits_allocate_no_dict_or_set_per_edit():
    # each star and relocation edit is one-position arithmetic: ring_edits
    # builds no dict or set and copies no list
    built = [type(node).__name__ for node in ast.walk(RING_EDITS)
             if isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp))
             or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "copy")]
    assert built == []


def test_ring_edits_makes_no_function_per_ring():
    # a nested def, lambda, comprehension or generator expression is a
    # function object made anew on each call, once per ring: ring_edits
    # evaluates a ring in its own generator frame
    nested = [type(node).__name__ for node in ast.walk(RING_EDITS) if node is not RING_EDITS
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                    ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp))]
    assert nested == []


def test_ring_edits_reads_no_shape_table():
    # a ring's rows carry each position's size, tree sum and degree, so
    # ring_edits looks up no shape and runs on a ring of any order
    assert {"_shapes", "_hung_shapes", "_shape_sums"} & set(_references(RING_EDITS)) == set()


# the shapes, the sum tables, the least rings, the graph of a ring and the
# ring edits: every function that decides something about rings
RING_FUNCTIONS = {"_shapes", "_led_by", "_necklaces", "_dihedral", "_stabilizer",
                  "_hung_shapes", "_cycle_terms", "_star_sums", "ring_classes",
                  "ring_graph", "ring_edits", "edit_key"}


def _package_imports(tree) -> set:
    """The gaindex modules imported under tree, each by its last name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names
                         if alias.name.split(".")[0] == "gaindex")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gaindex"):
            found.update([node.module.split(".")[-1]] if node.module
                         else [alias.name for alias in node.names])
    return found


def test_rings_imports_only_graph_and_no_other_module_defines_ring_code():
    # rings.py sits on graph alone, so families and enumeration can both read
    # it with no import cycle, and every ring decision has this one home
    assert _package_imports(MODULES["rings.py"]) == {"graph"}
    defined = {(module, node.name) for module, tree in MODULES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in RING_FUNCTIONS}
    assert defined == {("rings.py", name) for name in RING_FUNCTIONS}
    # the ring tables are memos: elsewhere only the GA term and the CLI's
    # parser are, so no other module keeps a table of its own
    memoized = {(module, node.name) for module, tree in MODULES.items() if module != "rings.py"
                for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and {"cache", "lru_cache"} & {r for d in node.decorator_list
                                               for r in _references(d)}}
    assert memoized == {("graph.py", "ga_term"), ("cli.py", "build_parser")}


def test_only_the_pipeline_reads_the_check_switch():
    # so replacing the switch takes a check_tol argument on reduction_pipeline only
    readers = {(module, node.name) for module, tree in MODULES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and "_runtime_check_tol" in _references(node)}
    assert readers == {("transforms.py", "set_runtime_checks"),
                       ("transforms.py", "reduction_pipeline")}
    for op, reached in _operator_reach().items():
        assert {name for _, name in readers} & (reached | {op}) == set(), f"{op} reads the switch"


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


def _fresh(probe: str) -> str:
    """The stdout of probe run in a fresh interpreter that imports gaindex from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, gaindex.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh(probe) == "[]\n"


def test_verify_loads_no_rewrite_code():
    probe = ("import contextlib, io, sys\n"
             "from gaindex.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['verify', '3..8', '--format', 'json'])\n"
             "print(code, 'gaindex.transforms' in sys.modules)")
    assert _fresh(probe) == "0 False\n"


def test_transforms_names_resolve_on_first_access():
    probe = ("import contextlib, io, sys\n"
             "import gaindex\n"
             "print('gaindex.transforms' in sys.modules)\n"
             "print(gaindex.star_transform is gaindex.transforms.star_transform,\n"
             "      gaindex.enumeration.operator_applications\n"
             "      is gaindex.transforms.operator_applications)\n"
             "from gaindex.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    code = main(['reduce', '--random', '12', '--seed', '3'])\n"
             "print(code, out.getvalue().startswith('input: n=12 '))")
    assert _fresh(probe) == "False\nTrue True\n0 True\n"
