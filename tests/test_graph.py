import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaindex import (
    EdgeListError,
    GraphError,
    NotUnicyclicError,
    PreconditionError,
    build_graph,
    canonical_form,
    enumerate_unicyclic,
    find_cycle,
    format_edge_list,
    is_connected,
    is_unicyclic,
    make_family,
    FamilySpec,
    parse_edge_list,
    pendant_tree,
    reduction_pipeline,
    relocate_min,
    star_transform,
)

import gaindex.graph
from gaindex.cli import _random_unicyclic
from gaindex.graph import MAX_VERTICES, SCALE, ga_term, json_text, rises_above, scaled_tol
from gaindex.rings import ring_classes, ring_graph
from gaindex.transforms import _local_extremes

import _oracles
from _helpers import (
    assert_same_structure,
    extreme_flags,
    graph_with_permutation,
    is_star,
    ring_shapes,
    tree_edges,
    unicyclic_graphs,
)
from _oracles import (
    reference_canonical_form,
    reference_cycle_order,
    reference_ga_sum,
    reference_is_connected,
    reference_pendant_tree,
    reference_ring_edges,
    relabel,
)


def paw():
    return build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.m == 3
    assert all(g.degrees[v] == 2 for v in range(3))


def test_build_paw():
    g = paw()
    assert sorted(g.degrees[v] for v in range(4)) == [1, 2, 2, 3]


@pytest.mark.parametrize(
    "n, edges, fragment",
    [
        (3, [(0, 1), (0, 1)], "duplicate edge (0, 1)"),
        (3, [(0, 1), (1, 0)], "duplicate edge (1, 0)"),
        (3, [(0, 0)], "self-loop (0, 0)"),
        (3, [(0, 3)], "out of range"),
        (3, [(-1, 2)], "out of range"),
        (3.5, [(0, 1), (1, 2), (0, 2)], "vertex count must be an integer, got 3.5"),
        (3, [(0, 1.5)], "non-integer vertex in edge (0, 1.5)"),
        (3, [(0, True)], "non-integer vertex in edge (0, True)"),
        (3, [(0, "1")], "non-integer vertex in edge (0, '1')"),
        (3, [(3, 0)], "out of range"),
    ],
)
def test_build_rejects_bad_edges(n, edges, fragment):
    with pytest.raises(GraphError, match=None) as exc:
        build_graph(n, edges)
    assert fragment in str(exc.value)


@given(unicyclic_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees[v] for v in range(g.n)) == 2 * g.m


def test_rehang_is_pure():
    g = paw()
    h = g.rehang({3: 1})
    assert g.has_edge(0, 3) and not g.has_edge(1, 3)
    assert h.has_edge(1, 3) and not h.has_edge(0, 3)


@pytest.mark.parametrize("moves, cycle, degrees", [
    pytest.param({1: 3, 2: 3}, (0, 3, 4, 5), (2, 1, 1, 4, 2, 2), id="interior-arc"),
    pytest.param({0: 2, 1: 2}, (2, 3, 4, 5), (1, 1, 4, 2, 2, 2), id="least-vertex-dropped"),
    pytest.param({5: 1, 0: 1}, (1, 2, 3, 4), (1, 4, 2, 2, 2, 1), id="wrap-around"),
])
def test_rehang_closes_the_cycle_over_moved_cycle_vertices(moves, cycle, degrees):
    h = ring_graph(((),) * 6).rehang(moves)
    fresh = build_graph(h.n, h.edges)
    assert h.cycle.vertices == cycle and h.degrees == degrees
    assert h.cycle == fresh.cycle and h.degrees == fresh.degrees


# ---------------------------------------------------------------------------
# a ring's value reads its structure off the ring
# ---------------------------------------------------------------------------


def family_rings() -> list:
    """(spec, ring) for cycle and sn3 at n = 3..30 and spq4 and srk3 at
    parameters 0..7, each ring written out here: a cycle vertex with k
    pendants carries the shape of k leaves, the larger count first."""
    leaves = [((),) * k for k in range(8)]
    found = [(FamilySpec("cycle", (n,)), ((),) * n) for n in range(3, 31)]
    found += [(FamilySpec("sn3", (n,)), (((),) * (n - 3), (), ())) for n in range(3, 31)]
    for p, q in itertools.combinations_with_replacement(range(8), 2):
        a, b = leaves[q], leaves[p]
        found += [(FamilySpec("spq4", (p, q)), (a, (), b, ())),
                  (FamilySpec("srk3", (p, q)), (a, b, ()))]
    return found


def assert_matches_the_ring_oracle(g, ring) -> None:
    """g holds its degrees and cycle structure but no edge set yet; its
    edges are the reference listing's, and its structure is a peel's of a
    value built from that listing."""
    assert {"degrees", "cycle"} <= vars(g).keys()
    assert "edges" not in vars(g)
    reference = reference_ring_edges(ring)
    assert_same_structure(g, build_graph(g.n, reference))
    assert g.edges == reference


@pytest.mark.parametrize("n", range(3, 11))
def test_every_class_matches_the_ring_oracle(n):
    for g, (ring, _) in zip(enumerate_unicyclic(n), ring_classes(n), strict=True):
        assert_matches_the_ring_oracle(g, ring_shapes(ring))


def test_every_family_matches_the_ring_oracle():
    for spec, ring in family_rings():
        g = make_family(spec)
        assert_matches_the_ring_oracle(g, ring)
        assert g.n == spec.n


@pytest.mark.parametrize("ring", [(), ((),), ((), (((),),))])
def test_ring_graph_rejects_short_rings(ring):
    with pytest.raises(GraphError, match="at least 3 shapes"):
        ring_graph(ring)


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


@pytest.mark.parametrize("edges, n", [
    ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], 5),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (4, 5)], 6),
    # the P3's middle vertex drops to degree 0 before its turn in the leaf queue
    ([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (4, 5), (5, 6)], 7),
], ids=["two-triangles", "k4-minus-e-plus-isolated-vertex", "k4-minus-e-plus-k2",
        "k4-minus-e-plus-p3"])
def test_cycle_rejects_n_edge_graphs_that_are_not_unicyclic(edges, n):
    g = build_graph(n, edges)
    assert g.m == g.n and not is_unicyclic(g)
    with pytest.raises(NotUnicyclicError, match=r"^graph is not unicyclic \(connected with \|E\| = \|V\|\)$"):
        find_cycle(g)


@pytest.mark.parametrize("n", range(1, 6))
def test_is_connected_matches_a_search_on_every_edge_subset(n):
    # every subset of the edges of K_n, forests and isolated vertices among
    # them: 1,024 graphs at n = 5
    pairs = list(itertools.combinations(range(n), 2))
    for m in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, m):
            g = build_graph(n, edges)
            assert is_connected(g) == reference_is_connected(g), edges


@pytest.mark.parametrize("n", range(3, 7))
def test_cycle_decides_unicyclicity_on_every_n_edge_graph(n):
    # every n-subset of the edges of K_n: 5,005 graphs at n = 6; with m == n,
    # connectivity alone decides unicyclicity, independently of the peeling
    for edges in itertools.combinations(itertools.combinations(range(n), 2), n):
        g = build_graph(n, edges)
        assert is_unicyclic(g) == is_connected(g)
        if is_unicyclic(g):
            cyc = find_cycle(g)
            assert len(set(cyc.vertices)) == cyc.girth >= 3
            assert all(g.has_edge(*e) for e in cyc.cycle_edges())
        else:
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
    assert cyc.vertices[1] == 2  # 0's cycle neighbors are 2 and 4
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


def test_rehang_that_changes_nothing_keeps_the_value():
    g = paw()
    cyc = find_cycle(g)
    h = g.rehang({3: 0}, cycle=(0, 1, 2))
    assert h is g and find_cycle(h) is cyc


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
# edge order: an edge-list value peels and sums its ends in input order, and
# the edge set's iteration order depends on insertion history; no structure
# may depend on either
# ---------------------------------------------------------------------------


def _rebuilt(g, rng, copies=3):
    """Rebuilds of g from its edges shuffled, each pair in a random orientation."""
    for _ in range(copies):
        edges = [e if rng.random() < 0.5 else e[::-1] for e in g.edges]
        rng.shuffle(edges)
        yield build_graph(g.n, edges)


def _pipeline_json(g):
    return reduction_pipeline(g).to_json(include_edges=True) if g.n >= 5 else None


def _assert_structure_ignores_edge_order(g, rng) -> int:
    """Check every rebuild of g (and of a relabeling of g) against it; return
    how many rebuilds iterate their edge set in another order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    r = relabel(g, perm)
    assert r.ga == g.ga
    assert {perm[v] for v in g.cycle.vertices} == set(r.cycle.vertices)
    assert all(r.cycle.parent[perm[z]] == perm[g.cycle.parent[z]]
               for z in range(g.n) if g.cycle.parent[z] is not None)
    reordered = 0
    for base in (g, r):
        expected = _pipeline_json(base)
        for h in _rebuilt(base, rng):
            assert h == base
            reordered += list(h.edges) != list(base.edges)
            assert h.cycle == base.cycle  # vertices, girth, parent and root
            assert h.ga == base.ga
            assert sum(h.degrees) == 2 * h.m
            ends = Counter(itertools.chain.from_iterable(h.edges))
            for v in range(h.n):
                assert h.degrees[v] == ends[v]
            assert _pipeline_json(h) == expected
    return reordered


def test_structure_ignores_edge_order_on_every_small_class(unicyclic):
    rng = random.Random(12)
    reordered = sum(_assert_structure_ignores_edge_order(g, rng)
                    for n in range(3, 9) for g in unicyclic(n))
    assert reordered > 0, "no rebuild changed the edge order; the test checks nothing"


@pytest.mark.parametrize("seed", range(3))
def test_structure_ignores_edge_order_on_large_random_graphs(seed):
    rng = random.Random(seed)
    reordered = 0
    for n in (60, 150, 300):
        girth = rng.randint(3, n)
        edges = [(i, (i + 1) % girth) for i in range(girth)]
        edges.extend((rng.randrange(w), w) for w in range(girth, n))
        reordered += _assert_structure_ignores_edge_order(build_graph(n, edges), rng)
    assert reordered > 0, "no rebuild changed the edge order; the test checks nothing"


# The least cycle vertex 2 of this graph has tree children 3 and 4 of greater
# id, both listed before its cycle edges, and a child 1 of lesser id; its
# cycle neighbors are 6 and 10, so the cycle is walked 2, 6, 9, 5, 10.
_TREE_EDGES = [(2, 3), (2, 4), (1, 2), (3, 8), (4, 7), (0, 1)]
_CYCLE_EDGES = [(6, 9), (9, 5), (5, 10)]


@pytest.mark.parametrize("lesser_first", [True, False], ids=["to-6-first", "to-10-first"])
@pytest.mark.parametrize("flip", [False, True], ids=["lesser-end-first", "greater-end-first"])
def test_the_walk_leaves_the_least_cycle_vertex_past_its_tree_children(lesser_first, flip):
    at_start = [(2, 6), (2, 10)] if lesser_first else [(2, 10), (2, 6)]
    edges = _TREE_EDGES + at_start + _CYCLE_EDGES
    g = build_graph(11, [(v, u) for u, v in edges] if flip else edges)
    assert g.cycle.vertices == reference_cycle_order(g) == (2, 6, 9, 5, 10)
    _assert_structure_ignores_edge_order(g, random.Random(lesser_first + 2 * flip))


@given(graph_with_permutation(max_n=40))
def test_the_cycle_order_matches_the_reference_peel(gp):
    g, perm = gp
    r = relabel(g, perm)
    assert r.cycle.vertices == reference_cycle_order(r)


def test_reducing_an_edge_list_value_builds_no_edge_set():
    g = parse_edge_list(format_edge_list(_random_unicyclic(200, random.Random(5))))
    trace = reduction_pipeline(g)
    trace.to_json()
    assert trace.steps and "edges" not in vars(g)
    assert all("edges" not in vars(s.graph) for s in trace.steps)


def _assert_equal_values(a, b) -> None:
    assert a == b and b == a and hash(a) == hash(b)


def test_edge_list_values_equal_the_ring_and_rewrite_values_of_their_graph(unicyclic):
    for n in range(3, 9):
        built = [build_graph(n, sorted(reference_ring_edges(ring_shapes(ring)), reverse=True))
                 for ring, _ in ring_classes(n)]
        for g, b, other in zip(unicyclic(n), built, built[1:] + built[:1], strict=True):
            _assert_equal_values(b, g)
            assert len(built) == 1 or b != other and g != other
            if n >= 5:
                for step in reduction_pipeline(g).steps:
                    h = step.graph
                    _assert_equal_values(build_graph(n, [(v, u) for u, v in h.edges]), h)


# ---------------------------------------------------------------------------
# pendant trees
# ---------------------------------------------------------------------------


def test_pendant_tree_paw_center():
    g = paw()
    assert len(tree_edges(g, 0)) == 1
    assert pendant_tree(g, 0) == (0, 3)


def test_pendant_tree_trivial_on_cycle():
    g = make_family(FamilySpec("cycle", (7,)))
    for v in range(7):
        assert len(tree_edges(g, v)) == 0


def test_pendant_tree_sn3_center_star():
    n = 8
    g = make_family(FamilySpec("sn3", (n,)))
    assert len(tree_edges(g, 0)) == n - 3
    assert is_star(g, 0)


def test_pendant_tree_rejects_non_cycle_vertex():
    with pytest.raises(GraphError):
        pendant_tree(paw(), 3)


@given(unicyclic_graphs())
def test_pendant_trees_partition_the_graph(g):
    cyc = find_cycle(g)
    covered = set()
    seen_vertices = []
    for v in cyc.vertices:
        edges = tree_edges(g, v)
        assert covered.isdisjoint(edges)
        covered |= edges
        seen_vertices.extend(pendant_tree(g, v))
    assert covered | set(cyc.cycle_edges()) == set(g.edges)
    assert sorted(seen_vertices) == list(range(g.n))


def _assert_trees_match_the_reference(g):
    parent = g.cycle.parent
    for v in g.cycle.vertices:
        tree = pendant_tree(g, v)
        vertices, edges = reference_pendant_tree(g, v)
        assert len(tree) == len(vertices) and set(tree) == vertices
        assert tree_edges(g, v) == edges
        assert tree[0] == v
        listed = {v}
        for z in tree[1:]:
            assert parent[z] in listed, "a vertex is listed before its parent"
            listed.add(z)


@pytest.mark.parametrize("n", range(3, 11))
def test_pendant_trees_match_the_reference_walk(unicyclic, n):
    for g in unicyclic(n):
        _assert_trees_match_the_reference(g)


@given(graph_with_permutation())
def test_pendant_trees_match_the_reference_walk_under_relabeling(gp):
    g, perm = gp
    _assert_trees_match_the_reference(relabel(g, perm))


# ---------------------------------------------------------------------------
# local extremes of the cycle's degrees, as the rewrites read them
# ---------------------------------------------------------------------------


def test_classify_cycle_all_equal():
    g = make_family(FamilySpec("cycle", (6,)))
    for v in range(6):
        assert extreme_flags(g, v) == (True, True)
    assert _local_extremes(g) == (list(g.cycle.vertices), list(g.cycle.vertices))


def test_classify_sn3_center_and_rim():
    g = make_family(FamilySpec("sn3", (6,)))
    assert extreme_flags(g, 0) == (True, False)
    assert extreme_flags(g, 1) == (False, True)
    assert _local_extremes(g) == ([0], [1, 2])


def test_classify_rejects_pendant():
    g = paw()
    with pytest.raises(PreconditionError, match="vertex 3 is not a cycle vertex"):
        star_transform(g, 3)
    for u, v in ((3, 0), (1, 3)):
        with pytest.raises(PreconditionError, match="vertex 3 is not a cycle vertex"):
            relocate_min(g, u, v)


# ---------------------------------------------------------------------------
# tolerance tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("diff, tol, expected", [
    (0, 0.0, False),
    (0, -1.0, True),
    (SCALE >> 61, 0.0, True),  # 2**-61: every GA term, so every difference of two, is a multiple
    (-(SCALE >> 61), 0.0, False),
    (SCALE, math.nan, False),
    (-SCALE, math.nan, False),
    (5 * SCALE, math.inf, False),
    (-5 * SCALE, -math.inf, True),
], ids=["zero", "zero-below-negative-tol", "least-rise", "least-fall", "nan", "nan-negative",
        "inf", "minus-inf"])
def test_rises_above(diff, tol, expected):
    assert rises_above(diff, tol) is expected


def test_rises_above_is_the_float_comparison():
    diffs = [-5 * SCALE, -SCALE, -(SCALE // 3), -(SCALE >> 61), -1, 0, 1, SCALE >> 61,
             SCALE // 10**9, SCALE // 3, SCALE, 5 * SCALE]
    tols = [-math.inf, -10.0, -1.0, -1e-3, -5e-324, 0.0, 5e-324, 1e-9, 1 / 3, 1.0, 4.0,
            math.inf, math.nan]
    for diff, tol in itertools.product(diffs, tols):
        assert rises_above(diff, tol) == (diff / SCALE > tol), (diff, tol)


@pytest.mark.parametrize("tol", [1e-9, 0.0, -10.0, 5e-324])
def test_scaled_tol_is_exact(tol):
    assert scaled_tol(tol) == math.floor(Fraction(tol) * SCALE)


def test_scaled_tol_keeps_every_integer_comparison():
    # an integer x exceeds tol * SCALE exactly when it exceeds its floor, so
    # verify_bounds decides each exact sum as it would against tol itself
    for tol in (1e-9, 0.0, -10.0, 5e-324, -5e-324, 1 / 3, -1e-3, 1e300, -1e300):
        t = scaled_tol(tol)
        for x in range(t - 3, t + 4):
            assert (x > t) == (Fraction(x) > Fraction(tol) * SCALE), (tol, x)
            assert (x <= t) == (Fraction(x) <= Fraction(tol) * SCALE), (tol, x)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_scaled_tol_rejects_a_non_finite_tol(tol):
    with pytest.raises(ValueError, match=f"^tol must be finite, got {tol!r}$"):
        scaled_tol(tol)


# ---------------------------------------------------------------------------
# exact GA terms
# ---------------------------------------------------------------------------


def test_ga_terms_are_exact_up_to_the_vertex_limit():
    # the least term of a graph within MAX_VERTICES, at degrees 1 and
    # MAX_VERTICES - 1, is at least 2**-9, so every term's float is a
    # multiple of 2**-61, a multiple of 1/SCALE
    least = _oracles.float_ga_term(1, MAX_VERTICES - 1)
    assert least >= 2**-9 and SCALE % (1 << 61) == 0
    assert SCALE % Fraction(least).denominator == 0
    assert ga_term.__wrapped__(1, MAX_VERTICES - 1) == Fraction(least) * SCALE


def test_a_term_finer_than_the_scale_is_rejected():
    with pytest.raises(ValueError, match="^the GA term of degrees 1 and 1000000000 is finer "
                                         "than 1/SCALE$"):
        ga_term.__wrapped__(1, 10**9)


def test_ga_terms_are_the_scaled_floats():
    for du in range(1, 201):
        for dv in range(du, 201):
            assert ga_term.__wrapped__(du, dv) == Fraction(_oracles.float_ga_term(du, dv)) * SCALE


def _within_two_roundings(du: int, dv: int) -> bool:
    """Whether ga_term(du, dv) is within a relative 2**-52 of the real
    R = 2*sqrt(du*dv)*SCALE/(du+dv), which r/s2 <= R < (r+1)/s2 encloses."""
    s2 = (du + dv) << 64
    r = math.isqrt(4 * du * dv * (SCALE << 64) ** 2)
    t = ga_term.__wrapped__(du, dv) * s2 << 52  # the term times s2 * 2**52
    return (r + 1) * ((1 << 52) - 1) <= t <= r * ((1 << 52) + 1)


def test_each_term_is_within_two_roundings_of_the_real_term():
    pairs = [(du, dv) for du in range(1, 65) for dv in range(du, 65)]
    pairs.append((1, MAX_VERTICES - 1))
    assert all(_within_two_roundings(du, dv) for du, dv in pairs)


# ---------------------------------------------------------------------------
# exact GA sums: over the ends of an edge-list value, tree by tree for a
# structure value, each star in closed form
# ---------------------------------------------------------------------------


def _assert_ga_sum(g) -> None:
    """g's exact GA sum, and that of the edge-list value of g's edges, is the
    edge-by-edge reference."""
    expected = reference_ga_sum(g.degrees, g.edges)
    assert g.ga_sum == expected
    assert build_graph(g.n, list(g.edges)).ga_sum == expected


def _tree_kinds(g) -> set:
    """The kinds of pendant tree g's structure value sums: a root of degree
    2, a star hub or a tree summed edge by edge."""
    deg = g.degrees
    return {"degree-2 root" if deg[r] == 2 else "star hub" if len(t) == deg[r] - 1
            else "non-star tree" for r, t in g.cycle.trees.items()}


@pytest.mark.parametrize("n", range(3, 11))
def test_ring_sums_match_the_reference(n):
    for ring, total in ring_classes(n):
        shapes = ring_shapes(ring)
        g = ring_graph(shapes)
        assert g.ga_sum == total == reference_ga_sum(g.degrees, reference_ring_edges(shapes))
        assert build_graph(n, reference_ring_edges(shapes)).ga_sum == total


@pytest.mark.parametrize("n", range(5, 11))
def test_ga_sums_match_the_reference_at_every_pipeline_step(unicyclic, n):
    kinds = set()
    for g in unicyclic(n):  # ring values, and the pipeline's rewrite values
        for h in [g, *(step.graph for step in reduction_pipeline(g).steps)]:
            _assert_ga_sum(h)
            kinds |= _tree_kinds(h)
    assert kinds == {"degree-2 root", "star hub", "non-star tree"}


def test_ga_sums_match_the_reference_on_random_graphs():
    kinds = set()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(5, 300), st.integers(0, 2**32))
    def check(n, seed):
        g = _random_unicyclic(n, random.Random(seed))
        _assert_ga_sum(g)
        for step in reduction_pipeline(g).steps:
            _assert_ga_sum(step.graph)
            kinds.update(_tree_kinds(step.graph))

    check()
    assert kinds == {"degree-2 root", "star hub", "non-star tree"}


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


@settings(max_examples=60)
@given(graph_with_permutation())
def test_canonical_invariant_under_relabeling(data):
    g, perm = data
    assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_canonical_form_rejects_256_vertices():
    c256 = build_graph(256, [(i, (i + 1) % 256) for i in range(256)])
    with pytest.raises(GraphError, match="fewer than 256 vertices"):
        canonical_form(c256)


def test_canonical_separates_all_order_6_classes(unicyclic):
    keys = [canonical_form(g) for g in unicyclic(6)]
    assert len(keys) == len(set(keys))


def _relabeled(g, rng):
    return relabel(g, rng.sample(range(g.n), g.n))


def _cycle(n):
    return make_family(FamilySpec("cycle", (n,)))


SYMMETRIC_GRAPHS = {
    "K4": build_graph(4, itertools.combinations(range(4), 2)),
    "K3,3": build_graph(6, itertools.product(range(3), range(3, 6))),
    "Petersen": build_graph(10, [p for i in range(5)
                                 for p in ((i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5))]),
    "3-cube": build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]),
    "prism": build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "2C4": build_graph(8, [(i + o, (i + 1) % 4 + o) for o in (0, 4) for i in range(4)]),
    "empty3": build_graph(3, []),
    "C40": _cycle(40),
}


@pytest.mark.parametrize("n", range(3, 11))
def test_canonical_form_matches_the_unpruned_search_on_every_class(unicyclic, n):
    rng = random.Random(n)
    for g in unicyclic(n):
        for h in (g, _relabeled(g, rng)):
            assert canonical_form(h) == reference_canonical_form(h), format_edge_list(h)


@pytest.mark.parametrize("n", range(3, 15))
def test_canonical_form_matches_the_unpruned_search_on_the_witnesses(n):
    for family in ("cycle", "sn3"):
        g = make_family(FamilySpec(family, (n,)))
        assert canonical_form(g) == reference_canonical_form(g), family


@pytest.mark.parametrize("name", SYMMETRIC_GRAPHS)
def test_canonical_form_matches_the_unpruned_search_on_symmetric_graphs(name):
    g = SYMMETRIC_GRAPHS[name]
    for h in (g, _relabeled(g, random.Random(name))):
        assert canonical_form(h) == reference_canonical_form(h)


def test_canonical_form_matches_the_unpruned_search_on_random_graphs():
    rng = random.Random(22)
    for _ in range(300):
        n, p = rng.randint(1, 9), rng.random()
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        assert canonical_form(g) == reference_canonical_form(g), sorted(g.edges)


def _refinements(monkeypatch, module, name, canon, g) -> int:
    """How many times canon(g) calls module.name, its refinement function."""
    calls = []
    real = getattr(module, name)
    with monkeypatch.context() as m:
        m.setattr(module, name, lambda adj, colors: calls.append(colors) or real(adj, colors))
        canon(g)
    return len(calls)


def test_canonical_form_prunes_automorphic_root_branches(monkeypatch):
    # the unpruned search refines once per node: on C_n the root, its n
    # branches and their 2n leaves; the pruned one stops after two root branches
    def pruned(g):
        return _refinements(monkeypatch, gaindex.graph, "_refine", canonical_form, g)

    def reference(g):
        return _refinements(monkeypatch, _oracles, "reference_refine", reference_canonical_form, g)

    assert reference(_cycle(12)) == 37
    assert pruned(_cycle(12)) <= 10
    assert pruned(_cycle(100)) <= 10
    sn3 = make_family(FamilySpec("sn3", (12,)))
    assert pruned(sn3) <= reference(sn3) == 10


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
        # a wrong edge count is blamed on the last pair, not on trailing blank
        # lines, and on the header when there is no pair
        ("3 3\n0 1\n1 2\n\n\n", 3),
        ("3 1\n\n\n", 1),
        ("2 1\n0 1 2\n", 2),
        # a bad pair is blamed on its own line, not on the file's last one
        ("5 5\n0 1\n1 1\n2 3\n3 4\n4 0\n", 3),
        ("3 3\n0 1\n1 0\n1 2\n", 3),
        ("3 3\n0 1\n1 3\n0 2\n", 3),
        ("3 2\n0 1\n2 2\n\n\n", 3),
        # of two faults the first line's is blamed, as the pairs are read
        ("3 3\n1 1\n0 x\n1 2\n", 2),
        ("3 3\n0 1\n1 0\n0 5\n", 3),
        # a bad header is blamed on line 1
        (f"{MAX_VERTICES + 1} 1\n0 1\n", 1),
        ("0 0\n\n", 1),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text, message", [
    ("3 3\n1 1\n0 x\n1 2\n", "line 2: self-loop (1, 1)"),
    ("3 3\n0 1\n1 0\n0 5\n", "line 3: duplicate edge (1, 0)"),
    ("3 3\n0 1\n2 0\n0 2\n", "line 4: duplicate edge (0, 2)"),
    ("3 2\n0 1\n0 3\n", "line 3: vertex out of range in edge (0, 3) for n=3"),
    ("3 2\n0 1\n-1 2\n", "line 3: vertex out of range in edge (-1, 2) for n=3"),
    ("3 2\n0 1\n1 x\n", "line 3: expected two integers, got '1 x'"),
    ("3 2\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'"),
    ("3 3\n0 1\n1 2\n", "line 3: header declares 3 edges but 2 were given"),
])
def test_edge_list_error_messages_are_pinned(text, message):
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_json_text_layout():
    assert json_text({"b": [1, None], "a": {"d": 0.5, "c": True}}) == (
        '{\n  "a": {\n    "c": true,\n    "d": 0.5\n  },\n  "b": [\n    1,\n    null\n  ]\n}\n')


def test_edge_list_validation_propagates():
    with pytest.raises(EdgeListError, match="self-loop"):
        parse_edge_list("3 1\n1 1\n")


def test_edge_list_rejects_order_above_limit():
    with pytest.raises(EdgeListError, match=f"limit of {MAX_VERTICES}"):
        parse_edge_list(f"{MAX_VERTICES + 1} 1\n0 1\n")


def test_the_order_limit_admits_exactly_max_vertices(monkeypatch):
    # a small patched limit keeps the boundary cheap: an order at it is
    # accepted by every entry point, one above it rejected by each
    limit = 6
    monkeypatch.setattr("gaindex.graph.MAX_VERTICES", limit)
    monkeypatch.setattr("gaindex.families.MAX_VERTICES", limit)
    for n, accepted in ((limit, True), (limit + 1, False)):
        edges = [(i, (i + 1) % n) for i in range(n)]
        text = f"{n} {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        spec = FamilySpec("sn3", (n,))
        for build, error in ((lambda: build_graph(n, edges), GraphError),
                             (lambda: parse_edge_list(text), EdgeListError),
                             (lambda: make_family(spec), ValueError)):
            if accepted:
                assert build().n == n
            else:
                with pytest.raises(error, match=f"limit of {limit}"):
                    build()
