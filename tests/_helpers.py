"""Shared hypothesis strategies and module loading for the test suite."""

import importlib.util
from pathlib import Path

from hypothesis import strategies as st

from gaindex import build_graph


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


REPO = Path(__file__).resolve().parent.parent


def load_module(relpath: str):
    """Import a repository file that is not on the path (bench/, scripts/) by its path."""
    path = REPO / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
