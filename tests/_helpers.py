"""Shared hypothesis strategies, pendant-tree views, the local-extreme
guard's verdicts, a structure comparison, sweep fault injection and module
loading for the test suite."""

import importlib.util
from pathlib import Path

from hypothesis import strategies as st

from gaindex import build_graph, enumeration, pendant_tree, transforms
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


def extreme_flags(g, v) -> tuple:
    """(local maximum, local minimum): whether the rewrite guards accept
    cycle vertex v as each."""
    flags = []
    for kind in ("maximum", "minimum"):
        try:
            transforms._require_local_extreme(g, v, kind)
        except transforms.PreconditionError:
            flags.append(False)
        else:
            flags.append(True)
    return tuple(flags)


def assert_same_structure(g, fresh) -> None:
    """g carries the order, size, degrees and cycle structure of fresh, a
    value built from an edge list, field by field: vertices, parents and
    roots (`==`), the position index, and pendant trees with the
    same vertex set per root, the root first and each vertex after its
    parent."""
    assert (g.n, g.m) == (fresh.n, fresh.m)
    assert g.degrees == fresh.degrees
    assert g.cycle == fresh.cycle
    assert g.cycle.position == fresh.cycle.position
    parent = g.cycle.parent
    trees, fresh_trees = g.cycle.trees, fresh.cycle.trees
    assert trees.keys() == fresh_trees.keys()
    assert g.cycle.root == fresh.cycle.root
    for r, tree in trees.items():
        assert len(tree) == len(set(tree)) and set(tree) == set(fresh_trees[r])
        assert tree[0] == r
        seen = {r}
        for z in tree[1:]:
            assert parent[z] in seen
            seen.add(z)


def replace_finishing_moves(monkeypatch, faulty) -> None:
    """Make verify_monotonicity take faulty(g, v) as the result of each
    finishing move it tries on a class's graph g; every other operator stays
    as it is."""
    monkeypatch.setattr("gaindex.enumeration.finish_two_neighbors_deg2",
                        lambda g, v: faulty(g, v))
    monkeypatch.setattr("gaindex.enumeration.finish_one_neighbor_deg2",
                        lambda g, v, u: faulty(g, v))


def lift_ring_edits(monkeypatch, lift) -> None:
    """Make verify_monotonicity read lift(choice, op, where, rise) as the
    exact rise of each ring edit (op, where, count, rise) of each class's ring
    choice; a rejected edit has rise None. The edits themselves, and the
    finishing moves, stay as they are."""
    edits = enumeration._ring_edits

    def patched(choice, n):
        for op, where, count, rise in edits(choice, n):
            yield op, where, count, lift(choice, op, where, rise)

    monkeypatch.setattr("gaindex.enumeration._ring_edits", patched)


def lift_ring_sums(monkeypatch, lift) -> None:
    """Make verify_bounds read each ring's exact GA sum plus lift(choice),
    in units of 1/SCALE; the rings themselves stay as they are."""
    rings = enumeration._rings

    def patched(n):
        for choice, total in rings(n):
            yield choice, total + lift(choice)

    monkeypatch.setattr("gaindex.enumeration._rings", patched)


REPO = Path(__file__).resolve().parent.parent


def load_module(relpath: str):
    """Import a repository file that is not on the path (such as bench/gates.py) by its path."""
    path = REPO / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
