"""Shared hypothesis strategies, pendant-tree views and module loading for the test suite."""

import importlib.util
from pathlib import Path

from hypothesis import strategies as st

from gaindex import build_graph, pendant_tree
from gaindex.graph import norm_edge


@st.composite
def unicyclic_graphs(draw, min_n=3, max_n=9):
    """A random unicyclic graph: a cycle plus randomly parented tree vertices."""
    n = draw(st.integers(min_n, max_n))
    girth = draw(st.integers(3, n))
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    for w in range(girth, n):
        edges.append((draw(st.integers(0, w - 1)), w))
    return build_graph(n, edges)


@st.composite
def graph_with_permutation(draw, min_n=3, max_n=9):
    g = draw(unicyclic_graphs(min_n, max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, list(perm)


def tree_edges(g, v) -> set:
    """The edges of the pendant tree at cycle vertex v, read from the peel's parents."""
    parent = g.cycle.parent
    return {norm_edge(z, parent[z]) for z in pendant_tree(g, v)[1:]}


def is_star(g, v) -> bool:
    """True when every edge of the pendant tree at v is incident to v."""
    return all(v in e for e in tree_edges(g, v))


REPO = Path(__file__).resolve().parent.parent


def load_module(relpath: str):
    """Import a repository file that is not on the path (such as bench/gates.py) by its path."""
    path = REPO / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
