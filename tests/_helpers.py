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
def ring_shape_tuples(draw, min_n=20, max_n=60, max_girth=10):
    """The shapes of a random ring, least among its images or not: each tree
    vertex joins a position left nonempty, and a position's tree is a star
    or has each vertex hung on a random earlier one."""
    n = draw(st.integers(min_n, max_n))
    girth = draw(st.integers(3, max_girth))
    kept = [i for i, keep in enumerate(draw(st.lists(st.booleans(), min_size=girth,
                                                     max_size=girth))) if keep] or [0]
    sizes = [0] * girth
    for _ in range(n - girth):
        sizes[draw(st.sampled_from(kept))] += 1

    def shape(children, v):  # the sorted tuple of v's child shapes
        return tuple(sorted(shape(children, c) for c in children[v]))

    shapes = []
    for size in sizes:
        star = draw(st.booleans())
        children = [[] for _ in range(size + 1)]  # 0 is the root
        for w in range(1, size + 1):
            children[0 if star else draw(st.integers(0, w - 1))].append(w)
        shapes.append(shape(children, 0))
    return tuple(shapes)


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


def ring_shapes(ring: tuple) -> tuple:
    """The shapes of a ring given as the rows ring_classes yields, as
    ring_graph takes them."""
    return tuple(row[0] for row in ring)


def lift_ring_edits(monkeypatch, lift) -> None:
    """Make verify_monotonicity read lift(ring, op, where, rise) as the
    exact rise of each ring edit (op, where, count, rise) of each class's
    ring, its rows; a rejected edit has rise None. The edits themselves stay
    as they are."""
    edits = enumeration.ring_edits

    def patched(ring, n):
        for op, where, count, rise in edits(ring, n):
            yield op, where, count, lift(ring, op, where, rise)

    monkeypatch.setattr("gaindex.enumeration.ring_edits", patched)


def lift_ring_sums(monkeypatch, lift) -> None:
    """Make verify_bounds read each ring's exact GA sum plus lift(ring), the
    ring's rows, in units of 1/SCALE; the rings themselves stay as they are."""
    rings = enumeration.ring_classes

    def patched(n):
        for ring, total in rings(n):
            yield ring, total + lift(ring)

    monkeypatch.setattr("gaindex.enumeration.ring_classes", patched)


REPO = Path(__file__).resolve().parent.parent


def load_module(relpath: str):
    """Import a repository file that is not on the path (such as bench/gates.py) by its path."""
    path = REPO / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
