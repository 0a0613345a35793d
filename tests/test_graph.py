import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaindex import (
    EdgeListError,
    GraphError,
    NotUnicyclicError,
    build_graph,
    canonical_form,
    classify_cycle_vertex,
    find_cycle,
    format_edge_list,
    is_isomorphic,
    is_unicyclic,
    make_family,
    FamilySpec,
    parse_edge_list,
    pendant_tree,
    relabel,
)

from gaindex.graph import MAX_VERTICES

from _helpers import graph_with_permutation, unicyclic_graphs


def paw():
    return build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.m == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_build_paw():
    g = paw()
    assert sorted(g.degree(v) for v in range(4)) == [1, 2, 2, 3]


@pytest.mark.parametrize(
    "n, edges, fragment",
    [
        (3, [(0, 1), (0, 1)], "duplicate edge (0, 1)"),
        (3, [(0, 1), (1, 0)], "duplicate edge (1, 0)"),
        (3, [(0, 0)], "self-loop (0, 0)"),
        (3, [(0, 3)], "out of range"),
        (3, [(-1, 2)], "out of range"),
    ],
)
def test_build_rejects_bad_edges(n, edges, fragment):
    with pytest.raises(GraphError, match=None) as exc:
        build_graph(n, edges)
    assert fragment in str(exc.value)


@given(unicyclic_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_replace_edges_is_pure():
    g = paw()
    h = g.replace_edges(remove=[(0, 3)], add=[(1, 3)])
    assert g.has_edge(0, 3) and not g.has_edge(1, 3)
    assert h.has_edge(1, 3) and not h.has_edge(0, 3)


# ---------------------------------------------------------------------------
# unicyclic recognition and cycle extraction
# ---------------------------------------------------------------------------


def test_is_unicyclic_cycle():
    assert is_unicyclic(make_family(FamilySpec("cycle", (5,))))


def test_is_unicyclic_rejects_path():
    assert not is_unicyclic(build_graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_is_unicyclic_needs_connectivity():
    # two disjoint triangles: |E| = |V| = 6 but not connected
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_unicyclic(g)
    with pytest.raises(NotUnicyclicError):
        find_cycle(g)


def test_find_cycle_paw():
    cyc = find_cycle(paw())
    assert cyc.vertices == (0, 1, 2)
    assert cyc.girth == 3


def test_find_cycle_c6():
    assert find_cycle(make_family(FamilySpec("cycle", (6,)))).girth == 6


def test_find_cycle_spq4_has_girth_4():
    assert find_cycle(make_family(FamilySpec("spq4", (2, 3)))).girth == 4


def test_cycle_order_convention():
    # relabeled C_5: order always starts at the smallest id, toward its
    # smaller cycle neighbor
    g = build_graph(5, [(3, 1), (1, 4), (4, 0), (0, 2), (2, 3)])
    cyc = find_cycle(g)
    assert cyc.vertices[0] == 0
    assert cyc.vertices[1] == min(g.neighbors(0))
    assert set(cyc.vertices) == set(range(5))


def test_cycle_position_and_walk():
    # relabeled C_5 with cyclic order (0, 2, 3, 1, 4)
    cyc = find_cycle(build_graph(5, [(3, 1), (1, 4), (4, 0), (0, 2), (2, 3)]))
    assert cyc.position == {0: 0, 2: 1, 3: 2, 1: 3, 4: 4}
    assert cyc.walk(3, 1) == (3, 1, 4, 0, 2)
    assert cyc.walk(3, 2) == (3, 2, 0, 4, 1)
    assert cyc.walk(0, 4) == (0, 4, 1, 3, 2)
    assert cyc.walk(4, 0) == (4, 0, 2, 3, 1)
    with pytest.raises(GraphError):
        cyc.walk(3, 0)


def test_cycle_is_computed_once_per_graph():
    g = paw()
    assert find_cycle(g) is find_cycle(g)


def test_replace_edges_gets_its_own_cycle():
    g = make_family(FamilySpec("cycle", (6,)))
    assert find_cycle(g).girth == 6
    h = g.replace_edges([(2, 3)], [(0, 2)])
    assert find_cycle(h).vertices == (0, 1, 2)
    assert find_cycle(g).girth == 6


def test_non_unicyclic_raises_on_every_access():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    for _ in range(2):
        with pytest.raises(NotUnicyclicError):
            find_cycle(g)


@given(graph_with_permutation())
def test_cycle_set_invariant_under_relabeling(data):
    g, perm = data
    before = {perm[v] for v in find_cycle(g).position}
    after = set(find_cycle(relabel(g, perm)).position)
    assert before == set(after)


# ---------------------------------------------------------------------------
# pendant trees
# ---------------------------------------------------------------------------


def test_pendant_tree_paw_center():
    tree = pendant_tree(paw(), 0)
    assert tree.edge_count == 1
    assert tree.vertices == frozenset({0, 3})


def test_pendant_tree_trivial_on_cycle():
    g = make_family(FamilySpec("cycle", (7,)))
    for v in range(7):
        assert pendant_tree(g, v).edge_count == 0


def test_pendant_tree_sn3_center_star():
    n = 8
    tree = pendant_tree(make_family(FamilySpec("sn3", (n,))), 0)
    assert tree.edge_count == n - 3
    assert tree.is_star()


def test_pendant_tree_rejects_non_cycle_vertex():
    with pytest.raises(GraphError):
        pendant_tree(paw(), 3)


@given(unicyclic_graphs())
def test_pendant_trees_partition_the_graph(g):
    cyc = find_cycle(g)
    tree_edges = set()
    seen_vertices = []
    for v in cyc.vertices:
        tree = pendant_tree(g, v)
        assert tree_edges.isdisjoint(tree.edges)
        tree_edges |= tree.edges
        seen_vertices.extend(tree.vertices)
    assert tree_edges | set(cyc.cycle_edges()) == set(g.edges)
    assert sorted(seen_vertices) == list(range(g.n))


# ---------------------------------------------------------------------------
# local extremes
# ---------------------------------------------------------------------------


def test_classify_cycle_all_equal():
    g = make_family(FamilySpec("cycle", (6,)))
    for v in range(6):
        assert classify_cycle_vertex(g, v) == (True, True)


def test_classify_sn3_center_and_rim():
    g = make_family(FamilySpec("sn3", (6,)))
    assert classify_cycle_vertex(g, 0) == (True, False)
    assert classify_cycle_vertex(g, 1) == (False, True)


def test_classify_rejects_pendant():
    with pytest.raises(GraphError):
        classify_cycle_vertex(paw(), 3)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonical_c4_relabelings_agree():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = build_graph(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    assert canonical_form(g) == canonical_form(h)


def test_canonical_separates_paw_from_c4():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert canonical_form(paw()) != canonical_form(c4)


def test_canonical_swapped_attachment_counts():
    # triangle with (1, 2) pendants vs (2, 1): isomorphic by swapping roles
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (1, 5)])
    h = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (1, 5)])
    assert canonical_form(g) == canonical_form(h)
    assert is_isomorphic(g, h)


@settings(max_examples=60)
@given(graph_with_permutation())
def test_canonical_invariant_under_relabeling(data):
    g, perm = data
    assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_canonical_separates_all_order_6_classes(unicyclic):
    keys = [canonical_form(g) for g in unicyclic(6)]
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------


def test_edge_list_round_trip():
    g = make_family(FamilySpec("srk3", (3, 2)))
    assert parse_edge_list(format_edge_list(g)) == g


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("3\n", 1),
        ("3 2\n0 1\n1 x\n", 3),
        ("3 2\n0 1\n", 2),
        ("2 1\n0 1 2\n", 2),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list(text)
    assert exc.value.line == line


def test_edge_list_validation_propagates():
    with pytest.raises(EdgeListError, match="self-loop"):
        parse_edge_list("3 1\n1 1\n")


def test_edge_list_rejects_order_above_limit():
    with pytest.raises(EdgeListError, match=f"limit of {MAX_VERTICES}"):
        parse_edge_list(f"{MAX_VERTICES + 1} 1\n0 1\n")
