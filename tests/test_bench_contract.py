"""The benchmark's reach into the package, checked without running it.

bench/ reads gaindex through `gx.<module>.<name>`, through local aliases
bound to `gx.<module>` and through `from gaindex import ...`; most of those
reads happen only in a traced run (`bench/run.py --trace 1`). This reads
the benchmark's sources with ast and checks that each such name resolves on
the package, and that the benchmark's pinned operator names and
monotonicity counts are the test suite's.
"""

import ast
import importlib

import pytest

from gaindex import transforms
from gaindex.enumeration import OPERATOR_NAMES

from _helpers import REPO, load_module

BENCH_SOURCES = ("bench/layers.py", "bench/workloads.py", "bench/test_bench.py")
PACKAGE = "gaindex"
HANDLE = "gx"  # the benchmark's name for the freshly imported package


def _is_handle_module(node) -> bool:
    """True for `gx.<module>`."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == HANDLE)


def _aliases(tree) -> dict:
    """{alias: module} for each name bound to `gx.<module>`, tuple
    assignments such as `graph, transforms = gx.graph, gx.transforms` included."""
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if isinstance(name, ast.Name) and _is_handle_module(value):
                    assert aliases.setdefault(name.id, value.attr) == value.attr, name.id
    return aliases


def package_reads(tree) -> set:
    """(module, name) for each name the source reads on the package; name is
    "" for a bare `gx.<module>`, module "" for the package itself."""
    aliases = _aliases(tree)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            module = node.module.partition(".")[2]
            reads.update((module, alias.name) for alias in node.names)
        elif _is_handle_module(node):
            reads.add((node.attr, ""))
        elif isinstance(node, ast.Attribute):
            if _is_handle_module(node.value):
                reads.add((node.value.attr, node.attr))
            elif isinstance(node.value, ast.Name) and node.value.id in aliases:
                reads.add((aliases[node.value.id], node.attr))
    return reads


def _parse(relpath: str):
    path = REPO / relpath
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("relpath", BENCH_SOURCES)
def test_every_package_name_the_benchmark_reads_resolves(relpath):
    reads = package_reads(_parse(relpath))
    assert reads, f"{relpath} reads nothing from the package"
    missing = []
    for module, name in sorted(reads):
        target = PACKAGE + "." + module if module else PACKAGE
        try:
            found = importlib.import_module(target)
        except ImportError:
            missing.append(target)
            continue
        if name and not hasattr(found, name):
            missing.append(f"{target}.{name}")
    assert missing == [], f"{relpath} reads names the package does not have"


def test_the_reads_include_the_traced_probes():
    # the names only a traced run reaches, through aliases and `gx.` chains
    reads = package_reads(_parse("bench/layers.py"))
    assert {("enumeration", "operator_applications"), ("transforms", "PreconditionError"),
            ("transforms", "set_runtime_checks"), ("graph", "canonical_form"),
            ("graph", "find_cycle"), ("cli", "main")} <= reads


def test_the_benchmark_pins_the_suites_operators_and_counts():
    # imported here, so a broken package import fails this test, not the module
    from test_enumeration import EXPECTED_COUNTS, MONOTONICITY_APPLICATIONS

    gates = load_module("bench/gates.py")
    assert gates.OPERATORS == OPERATOR_NAMES
    # the replay calls getattr(transforms, op) for each trace step's op
    assert all(callable(getattr(transforms, op)) for op in gates.OPERATORS)
    assert gates.MONOTONICITY_APPLICATIONS == {n: MONOTONICITY_APPLICATIONS[n] for n in range(5, 11)}
    assert gates.A001429 == EXPECTED_COUNTS
