import hashlib
import json
import math
import random
import time

import pytest

from gaindex import (
    FamilySpec,
    Graph,
    NotUnicyclicError,
    MonotonicityError,
    PreconditionError,
    SmallOrderError,
    arc_transform,
    build_graph,
    classify_family,
    find_cycle,
    finish_one_neighbor_deg2,
    finish_two_neighbors_deg2,
    ga_index,
    ga_sn3_closed,
    ga_spq4_closed,
    ga_srk3_closed,
    is_unicyclic,
    make_family,
    parse_edge_list,
    reduction_pipeline,
    relocate_min,
    set_runtime_checks,
    star_transform,
    verify_monotonicity,
)
from gaindex import transforms
from gaindex.graph import CycleStructure, GraphError, classify_cycle_vertex, ga_term
from gaindex.indices import edge_contribution
from gaindex.transforms import _arc_path, operator_applications

from _helpers import is_star, load_module, tree_edges
from _oracles import edit_oracle


def triangle_with_path():
    # triangle 0,1,2 with the path 0-3-4 hanging at 0
    return build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])


def c6_plus_pendant():
    return build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6)])


# ---------------------------------------------------------------------------
# star_transform
# ---------------------------------------------------------------------------


def test_star_fixed_point():
    g = make_family(FamilySpec("sn3", (6,)))
    assert star_transform(g, 0) == g


def test_star_fixed_point_on_cycle():
    g = make_family(FamilySpec("cycle", (5,)))
    assert star_transform(g, 2) == g


def test_star_flattens_path():
    g = triangle_with_path()
    before = 3 * (2 * math.sqrt(6) / 5) + 1 + 2 * math.sqrt(2) / 3
    assert ga_index(g) == pytest.approx(before, abs=1e-12)
    h = star_transform(g, 0)
    assert classify_family(h) == FamilySpec("sn3", (5,))
    assert ga_index(h) == pytest.approx(ga_sn3_closed(5), abs=1e-12)
    assert ga_index(h) < ga_index(g)
    assert is_star(h, 0)


def test_star_requires_local_max():
    g = make_family(FamilySpec("sn3", (5,)))
    with pytest.raises(PreconditionError, match="local maximum"):
        star_transform(g, 1)


def test_star_requires_cycle_vertex():
    with pytest.raises(PreconditionError):
        star_transform(make_family(FamilySpec("sn3", (5,))), 4)


# ---------------------------------------------------------------------------
# relocate_min
# ---------------------------------------------------------------------------


def test_relocate_empty_tree_is_noop():
    g = make_family(FamilySpec("sn3", (6,)))
    assert relocate_min(g, 1, 0) == g


def relocation_witness():
    # triangle 0,1,2; pendant 3 at 0; pendant 4 at 2; path 1-5-6
    return build_graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 4), (1, 5), (5, 6)])


def test_relocate_moves_two_edge_tree():
    g = relocation_witness()
    before = 3 + 2 * (2 * math.sqrt(3) / 4) + (2 * math.sqrt(6) / 5) + 2 * math.sqrt(2) / 3
    assert ga_index(g) == pytest.approx(before, abs=1e-12)
    h = relocate_min(g, 1, 0)
    assert h.degree(1) == 2
    assert classify_family(h) == FamilySpec("srk3", (3, 1))
    assert ga_index(h) == pytest.approx(ga_srk3_closed(3, 1), abs=1e-12)
    assert ga_index(h) < ga_index(g)


def test_relocate_edge_accounting():
    g = relocation_witness()
    t_v, t_u = tree_edges(g, 0), tree_edges(g, 1)
    h = relocate_min(g, 1, 0)
    assert len(tree_edges(h, 0)) == len(t_v) + len(t_u)


def test_relocate_requires_star_at_target():
    g = triangle_with_path()
    with pytest.raises(PreconditionError, match="star"):
        relocate_min(g, 1, 0)


def test_relocate_requires_local_min():
    # vertex 2 in the witness has degree 3 with a degree-2 neighbor: not a minimum
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (2, 5)])
    with pytest.raises(PreconditionError, match="local minimum"):
        relocate_min(g, 2, 0)


def test_relocate_requires_distinct_vertices():
    g = make_family(FamilySpec("sn3", (6,)))
    with pytest.raises(PreconditionError):
        relocate_min(g, 0, 0)


# ---------------------------------------------------------------------------
# arc_transform
# ---------------------------------------------------------------------------


def test_arc_on_bare_c5():
    g = make_family(FamilySpec("cycle", (5,)))
    h = arc_transform(g, 0, (1, 2), 2)
    assert is_unicyclic(h) and h.n == 5
    assert find_cycle(h).girth == 4
    expected = 2 * (2 * math.sqrt(6) / 5) + 2 + 2 * math.sqrt(3) / 4
    assert ga_index(h) == pytest.approx(expected, abs=1e-12)
    assert ga_index(h) == pytest.approx(ga_spq4_closed(1, 0), abs=1e-12)
    assert ga_index(h) < 5


def test_arc_on_c6_with_pendant():
    g = c6_plus_pendant()
    before = 2 * (2 * math.sqrt(6) / 5) + 2 * math.sqrt(3) / 4 + 4
    assert ga_index(g) == pytest.approx(before, abs=1e-12)
    h = arc_transform(g, 3, (0, 1), 0)
    assert find_cycle(h).girth == 4
    assert h.has_edge(0, 3) and h.degree(3) == 2
    assert ga_index(h) == pytest.approx(ga_spq4_closed(3, 0), abs=1e-12)
    assert ga_index(h) < ga_index(g)


def test_arc_relocated_vertices_become_pendants():
    g = c6_plus_pendant()
    h = arc_transform(g, 3, (0, 1), 0)
    assert h.degree(1) == 1 and h.degree(2) == 1
    assert h.has_edge(0, 1) and h.has_edge(0, 2)


def test_arc_degree_ordering_violation_names_witness():
    # C_5 with a pendant at 2; arc from 3 through the side containing 2
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)])
    with pytest.raises(PreconditionError, match=r"arc vertex 2"):
        arc_transform(g, 3, (1, 2), 0)


def test_arc_other_side_is_fine():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)])
    h = arc_transform(g, 3, (0, 4), 0)
    assert find_cycle(h).girth == 4
    assert ga_index(h) <= ga_index(g) + 1e-9


def test_arc_rejects_adjacent_endpoints():
    g = make_family(FamilySpec("cycle", (6,)))
    with pytest.raises(PreconditionError, match="adjacent"):
        arc_transform(g, 0, (0, 1), 1)


def test_arc_rejects_non_cycle_edge():
    g = c6_plus_pendant()
    with pytest.raises(PreconditionError, match="cycle edge"):
        arc_transform(g, 3, (0, 6), 0)


def test_arc_requires_star_target():
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6)])
    with pytest.raises(PreconditionError, match="star"):
        arc_transform(g, 2, (0, 1), 0)


def test_arc_guards_v_after_the_path_and_before_the_degrees():
    # C6 with a pendant at 1: v = 0 is no local maximum, and the arc
    # 3-2-1-0 also breaks the degree ordering at 1
    g = build_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(1, 6)])
    with pytest.raises(PreconditionError, match="cycle edge"):
        arc_transform(g, 3, (1, 6), 0)
    with pytest.raises(PreconditionError, match="vertex 0 is not a local maximum"):
        arc_transform(g, 3, (1, 2), 0)


# ---------------------------------------------------------------------------
# relocated-edge ratio growth (the single-edge mechanism behind every proof)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5, 8))
def test_relocated_edges_never_lower_their_ratio(unicyclic, n):
    for g in unicyclic(n):
        cyc = find_cycle(g)
        for v in cyc.vertices:
            try:
                h = star_transform(g, v)
            except PreconditionError:
                continue
            for e in tree_edges(g, v):
                assert edge_contribution(g, e).rd <= h.degree(v) + 1e-12
        for u in cyc.vertices:
            for v in cyc.vertices:
                if u == v:
                    continue
                try:
                    h = relocate_min(g, u, v)
                except PreconditionError:
                    continue
                for e in tree_edges(g, u):
                    assert edge_contribution(g, e).rd <= h.degree(v) + 1e-12
        for u in cyc.vertices:
            for v in cyc.vertices:
                if u == v or g.has_edge(u, v):
                    continue
                for e in cyc.cycle_edges():
                    try:
                        h = arc_transform(g, u, e, v)
                    except PreconditionError:
                        continue
                    path = _arc_path(g, u, e, v)
                    relocated = set()
                    for w in path[1:-1]:
                        relocated |= tree_edges(g, w)
                    relocated |= {
                        tuple(sorted((path[i], path[i + 1]))) for i in range(1, len(path) - 1)
                    }
                    for re in relocated:
                        assert edge_contribution(g, re).rd <= h.degree(v) + 1e-12
                    # the surviving edge at u: ratio also grows
                    x = path[1]
                    assert edge_contribution(g, (u, x)).rd <= h.degree(v) / h.degree(u) + 1e-12


# ---------------------------------------------------------------------------
# finishing moves
# ---------------------------------------------------------------------------


def test_finish_two_fixed_point():
    g = make_family(FamilySpec("spq4", (2, 1)))
    assert finish_two_neighbors_deg2(g, 0) == g


def test_finish_two_collapses_c6_with_two_stars():
    g = build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                        (0, 6), (0, 7), (3, 8)])
    before = 2 * (4 * math.sqrt(2) / 6) + 2 * 0.8 + 2 + 2 * (2 * math.sqrt(6) / 5) + 2 * math.sqrt(3) / 4
    assert ga_index(g) == pytest.approx(before, abs=1e-12)
    h = finish_two_neighbors_deg2(g, 0)
    assert classify_family(h) == FamilySpec("spq4", (3, 2))
    assert ga_index(h) == pytest.approx(ga_spq4_closed(3, 2), abs=1e-12)
    assert ga_index(h) < ga_index(g)


def test_finish_two_girth5_single_arc():
    # girth 5, star at 0, lone extra pendant two steps away
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (0, 6), (2, 7)])
    h = finish_two_neighbors_deg2(g, 0)
    assert find_cycle(h).girth == 4
    assert classify_family(h).family == "spq4"
    assert ga_index(h) <= ga_index(g) + 1e-9


def test_finish_two_rejects_girth_3():
    g = make_family(FamilySpec("sn3", (6,)))
    with pytest.raises(PreconditionError, match="girth-3"):
        finish_two_neighbors_deg2(g, 0)


def test_finish_two_rejects_heavy_neighbor():
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7)])
    with pytest.raises(PreconditionError, match="degree 2"):
        finish_two_neighbors_deg2(g, 0)


def test_finish_one_case1():
    # triangle 0,1,2; star at 0; path of two edges at 2
    g = build_graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (2, 5), (5, 6)])
    before = (4 * math.sqrt(2) / 6 + 2 * (2 * math.sqrt(6) / 5) + 4 * math.sqrt(3) / 7
              + 1.6 + 2 * math.sqrt(2) / 3)
    assert ga_index(g) == pytest.approx(before, abs=1e-12)
    h = finish_one_neighbor_deg2(g, 0, 1)
    assert classify_family(h) == FamilySpec("srk3", (3, 1))
    assert ga_index(h) == pytest.approx(ga_srk3_closed(3, 1), abs=1e-12)
    assert ga_index(h) < ga_index(g)


def heavy_branch_witness():
    # triangle 0,1,2; pendants 3,8 at 0; at 2 a child 4 that outweighs it
    return build_graph(9, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 8),
                           (2, 4), (4, 5), (4, 6), (4, 7)])


def test_finish_one_case2():
    g = heavy_branch_witness()
    h = finish_one_neighbor_deg2(g, 0, 1)
    assert find_cycle(h).girth == 4
    assert classify_family(h) == FamilySpec("spq4", (3, 2))
    assert ga_index(h) == pytest.approx(ga_spq4_closed(3, 2), abs=1e-12)
    assert ga_index(h) < ga_index(g)


DEEP = 10_000


@pytest.mark.parametrize("paths, terminal", [
    (3, FamilySpec("spq4", (3 * DEEP, 1))),
    (1, FamilySpec("srk3", (DEEP + 1, 1))),
])
def test_finish_one_is_linear_on_deep_trees(paths, terminal):
    # triangle v=0, u=1, vt=2; pendant 3 at v; child 4 under vt carrying
    # `paths` pendant paths of DEEP vertices: three make 4 outweigh vt
    # (heavy branch, spq4), one does not (light branch, srk3)
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (2, 4)]
    for p in range(paths):
        top = 5 + p * DEEP
        edges += [(4, top)] + [(z, z + 1) for z in range(top, top + DEEP - 1)]
    g = build_graph(5 + paths * DEEP, edges)
    set_runtime_checks(1e-9)
    try:
        start = time.perf_counter()
        h = finish_one_neighbor_deg2(g, 0, 1)
        elapsed = time.perf_counter() - start
    finally:
        set_runtime_checks(None)
    assert classify_family(h) == terminal
    assert elapsed < 5


def test_finish_one_fixed_point():
    g = make_family(FamilySpec("srk3", (2, 1)))
    assert finish_one_neighbor_deg2(g, 0, 2) == g


def test_finish_one_arcs_to_girth_3():
    # girth 4: star at 0, degrees 2, 3, 4 along the rest of the cycle
    g = build_graph(9, [(0, 1), (1, 2), (2, 3), (0, 3),
                        (0, 4), (0, 5), (2, 6), (3, 7), (3, 8)])
    before = ga_index(g)
    h = finish_one_neighbor_deg2(g, 0, 1)
    assert find_cycle(h).girth == 3
    assert classify_family(h) == FamilySpec("srk3", (4, 2))
    assert ga_index(h) == pytest.approx(ga_srk3_closed(4, 2), abs=1e-12)
    assert ga_index(h) <= before + 1e-9


def test_finish_one_rejects_second_minimum():
    g = build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                        (0, 5), (0, 6), (4, 7), (4, 8)])
    with pytest.raises(PreconditionError, match="second local minimum"):
        finish_one_neighbor_deg2(g, 0, 1)


def test_finish_one_rejects_two_deg2_neighbors():
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (0, 6)])
    with pytest.raises(PreconditionError, match="two degree-2"):
        finish_one_neighbor_deg2(g, 0, 1)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def test_pipeline_sn3_is_a_fixed_point():
    g = make_family(FamilySpec("sn3", (6,)))
    trace = reduction_pipeline(g)
    assert trace.terminal_family == FamilySpec("sn3", (6,))
    assert trace.terminal_graph == g
    assert all(s.ga_after == pytest.approx(s.ga_before, abs=1e-12) for s in trace.steps)


def test_pipeline_cycle_terminates_immediately():
    g = make_family(FamilySpec("cycle", (8,)))
    trace = reduction_pipeline(g)
    assert trace.steps == ()
    assert trace.terminal_family == FamilySpec("cycle", (8,))


def test_pipeline_reduces_triangle_with_path():
    trace = reduction_pipeline(triangle_with_path())
    assert trace.terminal_family == FamilySpec("sn3", (5,))
    assert trace.ga_terminal == pytest.approx(ga_sn3_closed(5), abs=1e-9)


def test_pipeline_monotone_steps_order_8(unicyclic):
    for g in unicyclic(8):
        trace = reduction_pipeline(g)
        assert trace.terminal_family.family in ("sn3", "spq4", "srk3", "cycle")
        for s in trace.steps:
            assert s.ga_after <= s.ga_before + 1e-9
            assert is_unicyclic(s.graph) and s.graph.n == 8


def test_pipeline_is_linear_on_long_cycles():
    # girth 30,000 with the weight at 0 and a second local minimum near it:
    # every cycle lookup the operators make must be constant time
    k = 30_000
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(0, k), (0, k + 1), (0, k + 2), (k - 1, k + 3)]
    g = build_graph(k + 4, edges)
    set_runtime_checks(1e-9)
    try:
        start = time.perf_counter()
        trace = reduction_pipeline(g)
        elapsed = time.perf_counter() - start
    finally:
        set_runtime_checks(None)
    assert [s.op for s in trace.steps] == [
        "star_transform", "relocate_min", "relocate_min", "arc_transform"]
    assert trace.terminal_family == FamilySpec("sn3", (k + 4,))
    assert elapsed < 5


def test_trace_replays_step_by_step(unicyclic):
    # a trace is its own replay script: op(previous graph, **params)
    for n in range(5, 10):
        for g in unicyclic(n):
            prev = g
            for s in reduction_pipeline(g).steps:
                assert getattr(transforms, s.op)(prev, **s.params) == s.graph
                prev = s.graph


# sha256 over reduction_pipeline(g).to_json(include_edges=True) for every
# class of the given orders in enumeration order, with the trace count: any
# refactor of the rewrite layer must reproduce every step, parameter, GA
# value and edge set. Order 10 is pinned on its own because it is the
# first to reach the t > 1 relocation of finish_one_neighbor_deg2 (twice)
# and reaches the middle-vbar case of finish_two_neighbors_deg2 five
# times, against once for all of 5..9.
PIPELINE_DIGESTS = {
    range(5, 10): (380, "c6e4d4325e2317214296f508f768faa00304ef28b9752775dd86d5f4e4320d5b"),
    range(10, 11): (657, "36338c1304e5408ffae3e4d1e5d3e5a8b4a500a66cbfb819f118d538554d96f5"),
}


def test_pipeline_traces_are_pinned_for_every_class(unicyclic):
    for orders, (count, digest) in PIPELINE_DIGESTS.items():
        h = hashlib.sha256()
        traces = 0
        for n in orders:
            for g in unicyclic(n):
                h.update(reduction_pipeline(g).to_json(include_edges=True).encode())
                traces += 1
        assert (traces, h.hexdigest()) == (count, digest), f"orders {orders}"


@pytest.mark.parametrize(
    "edges, case",
    [
        ([(0, 1), (1, 2), (0, 2)], "C3"),
        ([(0, 1), (1, 2), (2, 3), (0, 3)], "C4"),
        ([(0, 1), (1, 2), (0, 2), (0, 3)], "paw"),
    ],
)
def test_pipeline_small_orders(edges, case):
    g = build_graph(max(max(e) for e in edges) + 1, edges)
    with pytest.raises(SmallOrderError) as exc:
        reduction_pipeline(g)
    assert exc.value.case == case


def test_pipeline_rejects_trees():
    with pytest.raises(NotUnicyclicError):
        reduction_pipeline(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))


# ---------------------------------------------------------------------------
# traces and runtime checks
# ---------------------------------------------------------------------------


def test_trace_json_round_trip():
    trace = reduction_pipeline(c6_plus_pendant())
    text = trace.to_json()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    doc = json.loads(text)
    assert doc["terminal_family"]["family"] in ("sn3", "spq4", "srk3", "cycle")
    assert doc["ga_terminal"] <= doc["ga_input"] + 1e-9
    assert all(s["ga_after"] <= s["ga_before"] + 1e-9 for s in doc["steps"])


def test_trace_text_rendering():
    trace = reduction_pipeline(c6_plus_pendant())
    text = trace.to_text()
    assert text.startswith("input: n=7")
    assert "terminal:" in text
    detailed = trace.to_text(include_edges=True)
    assert "edges:" in detailed


def test_runtime_checks_fire_when_forced():
    # with an impossible negative slack any strict decrease trips the check
    set_runtime_checks(-1.0)
    try:
        with pytest.raises(MonotonicityError):
            star_transform(triangle_with_path(), 0)
    finally:
        set_runtime_checks(None)


def test_runtime_checks_accept_real_runs():
    set_runtime_checks(1e-9)
    try:
        trace = reduction_pipeline(relocation_witness())
        assert trace.terminal_family.family in ("sn3", "spq4", "srk3")
    finally:
        set_runtime_checks(None)


def test_runtime_checks_evaluate_ga_once_per_graph(unicyclic, monkeypatch):
    evaluated = []
    compute = Graph.ga.func

    def counting(g):
        evaluated.append(g)
        return compute(g)

    monkeypatch.setattr(Graph.ga, "func", counting)
    saw_nested = False
    set_runtime_checks(1e-9)
    try:
        for g in unicyclic(8):
            evaluated.clear()
            # a fresh value, so that no GA is cached from an earlier test
            trace = reduction_pipeline(Graph(g.n, g.edges))
            assert len(set(evaluated)) == len(evaluated)
            assert {s.graph for s in trace.steps} <= set(evaluated)
            saw_nested |= any(s.op == "finish_two_neighbors_deg2" for s in trace.steps)
    finally:
        set_runtime_checks(None)
    assert saw_nested


# ---------------------------------------------------------------------------
# rewrites inherit their input's cycle structure
# ---------------------------------------------------------------------------


def reduce_inputs() -> list:
    """Fresh values, never peeled: seeded random graphs of order 50..600 from
    the benchmark's corpus generator, plus a graph whose pipeline takes the
    heavy branch of finish_one_neighbor_deg2, which the corpus misses."""
    corpus = load_module("bench/corpus.py")
    return [parse_edge_list(t) for t in corpus.make_corpus(11, 40)] + [heavy_branch_witness()]


def assert_inherits_a_fresh_structure(h: Graph) -> None:
    """h carries degrees and a cycle structure equal to a fresh value's, field
    by field: vertices, girth, parents and roots (`==`), the position index,
    and pendant trees with the same vertex set per root, the root first and
    each vertex after its parent."""
    assert {"degrees", "cycle"} <= vars(h).keys()
    fresh = Graph(h.n, h.edges)
    assert h.degrees == fresh.degrees
    assert h.cycle == fresh.cycle
    assert h.cycle.position == fresh.cycle.position
    parent = h.cycle.parent
    trees, fresh_trees = h.cycle.trees, fresh.cycle.trees
    assert trees.keys() == fresh_trees.keys()
    assert h.cycle.root == fresh.cycle.root
    for r, tree in trees.items():
        assert len(tree) == len(set(tree)) and set(tree) == set(fresh_trees[r])
        assert tree[0] == r
        seen = {r}
        for z in tree[1:]:
            assert parent[z] in seen
            seen.add(z)


class Rehanged(list):
    """The new values Graph.rehang returned, in call order; `calls` maps the
    id of each to the (input, moves, remove, add) that made it."""

    def __init__(self):
        super().__init__()
        self.calls = {}


@pytest.fixture
def rehanged(monkeypatch):
    """Every new value Graph.rehang returns, nested rewrites included."""
    results = Rehanged()
    rehang = Graph.rehang

    def recording(g, moves, remove=(), add=(), cycle=None):
        remove, add = list(remove), list(add)  # arc relocations pass iterators
        h = rehang(g, moves, remove, add, cycle)
        if h is not g:
            results.append(h)
            results.calls[id(h)] = (g, dict(moves), remove, add)
        return h

    monkeypatch.setattr(Graph, "rehang", recording)
    return results


def accepted_applications(graphs) -> list:
    """The result of every operator application on graphs that its
    precondition accepts."""
    accepted = []
    for g in graphs:
        for _, _, thunk in operator_applications(g):
            try:
                accepted.append(thunk())
            except PreconditionError:
                pass
    assert accepted
    return accepted


@pytest.mark.parametrize("n", range(3, 10))
def test_every_accepted_application_inherits_a_fresh_peel(unicyclic, rehanged, n):
    for h in accepted_applications(unicyclic(n)) + rehanged:
        assert_inherits_a_fresh_structure(h)


@pytest.mark.parametrize("n", range(3, 8))
def test_every_accepted_application_hashes_like_a_fresh_value(unicyclic, n):
    # a rewrite's trees may list siblings in another order than a fresh
    # peel's, so equality and hashing read only the order-free fields:
    # vertices, girth, parent and root, not trees or the position object
    cyc = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (3, 5)]).cycle
    fields = vars(cyc)

    def variant(**changes):
        return CycleStructure(**{**fields, **changes})

    siblings_swapped = tuple({3: 4, 4: 3}.get(z, z) for z in cyc.trees[0])
    for same in (variant(trees={**cyc.trees, 0: siblings_swapped}),
                 variant(position=dict(reversed(cyc.position.items())))):
        assert same == cyc and hash(same) == hash(cyc)
    for other in (variant(parent=cyc.parent[:5] + (4,)), variant(root=cyc.root[:5] + (1,))):
        assert other != cyc and hash(other) != hash(cyc)
    for h in accepted_applications(unicyclic(n)):
        fresh = Graph(h.n, h.edges).cycle
        assert h.cycle == fresh and hash(h.cycle) == hash(fresh)


def test_every_pipeline_step_inherits_a_fresh_peel(rehanged):
    for g in reduce_inputs():
        for step in reduction_pipeline(g).steps:
            assert_inherits_a_fresh_structure(step.graph)
    # the heavy branch is the one rewrite that moves a tree vertex onto the cycle
    assert any(h.cycle.girth == 4 and classify_family(h) == FamilySpec("spq4", (3, 2))
               for h in rehanged)
    for h in rehanged:
        assert_inherits_a_fresh_structure(h)


def assert_matches_the_edit_oracle(h: Graph, calls: dict) -> None:
    """h, which holds no edge set yet, has the edges the set-edit oracle
    gives for the call that made it, the degrees and cycle structure of a
    value built from those edges, and their GA to the last bit."""
    assert "edges" not in vars(h)
    ga = h.ga  # from the structure, before h builds its edge set
    edges = edit_oracle(*calls[id(h)])
    assert h.edges == edges
    fresh = build_graph(h.n, h.edges)
    assert h.degrees == fresh.degrees and h.cycle == fresh.cycle
    deg = fresh.degrees
    assert ga == math.fsum(ga_term(deg[u], deg[v]) for u, v in edges)


@pytest.mark.parametrize("n", range(4, 10))
def test_every_accepted_application_matches_the_edit_oracle(unicyclic, rehanged, n):
    accepted_applications(unicyclic(n))
    assert rehanged
    for h in rehanged:
        assert_matches_the_edit_oracle(h, rehanged.calls)


def test_every_golden_reduce_step_matches_the_edit_oracle(rehanged):
    corpus, gates = load_module("bench/corpus.py"), load_module("bench/gates.py")
    for text in corpus.make_corpus(gates.GOLDEN_SEED, len(gates.GOLDEN_REDUCE_SHA256)):
        g = parse_edge_list(text)
        assert {id(s.graph) for s in reduction_pipeline(g).steps} - {id(g)} <= rehanged.calls.keys()
    assert rehanged
    for h in rehanged:
        assert_matches_the_edit_oracle(h, rehanged.calls)


def test_a_reduction_builds_no_edge_set_for_its_steps():
    # with runtime checks on, as `gaindex reduce` runs, a step's GA, degrees
    # and adjacency tests all read its structure
    rng = random.Random(2000)
    n, girth = 2000, rng.randint(3, 1000)
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    edges += [(rng.randrange(w), w) for w in range(girth, n)]
    g = build_graph(n, edges)
    set_runtime_checks(1e-9)
    try:
        trace = reduction_pipeline(g)
    finally:
        set_runtime_checks(None)
    steps = [s.graph for s in trace.steps if s.graph is not g]  # a no-op step returns g
    assert len(steps) >= 3
    assert not any("edges" in vars(h) for h in steps)


@pytest.fixture
def peeled(monkeypatch):
    """Every graph value whose cycle structure a fresh leaf peel computes; the
    peel also builds that value's pendant trees and roots, so this counts
    tree passes too."""
    compute = Graph.cycle.func
    graphs = []

    def counting(g):
        graphs.append(g)
        return compute(g)

    monkeypatch.setattr(Graph.cycle, "func", counting)
    return graphs


def test_a_reduction_peels_only_its_input(peeled, rehanged):
    # one peel, and so one tree pass, per reduction: its input's; every
    # step's structure, pendant trees included, comes from Graph.rehang
    for g in reduce_inputs():
        peeled.clear()
        rehanged.clear()
        trace = reduction_pipeline(g)
        assert len(peeled) == 1 and peeled[0] is g
        assert {id(s.graph) for s in trace.steps} - {id(g)} <= {id(h) for h in rehanged}


def test_the_monotonicity_sweep_peels_only_the_classes(peeled, rehanged):
    # one peel, and so one tree pass, per class; no rewrite result is peeled
    report = verify_monotonicity(7)
    assert report.total_applications > 0 and rehanged
    assert len(peeled) == report.graphs
    results = {id(h) for h in rehanged}
    assert not any(id(g) in results for g in peeled)


@pytest.fixture
def tree_passes(monkeypatch):
    """Every cycle structure whose pendant trees and roots a fresh pass over
    the leaf peel builds: the structures `Graph.cycle` computes."""
    compute = Graph.cycle.func
    structures = []

    def counting(g):
        structures.append(compute(g))
        return structures[-1]

    monkeypatch.setattr(Graph.cycle, "func", counting)
    return structures


def test_a_reduction_walks_the_trees_of_its_input_only(tree_passes):
    for g in reduce_inputs():
        tree_passes.clear()
        reduction_pipeline(g)
        assert len(tree_passes) == 1 and tree_passes[0] is g.cycle


def test_the_monotonicity_sweep_walks_no_result_trees(rehanged, tree_passes):
    report = verify_monotonicity(7)
    assert report.total_applications > 0 and rehanged
    results = {id(h.cycle) for h in rehanged}
    assert not any(id(cyc) in results for cyc in tree_passes)
    assert len(tree_passes) == report.graphs


# ---------------------------------------------------------------------------
# degree counts and the classify memo stand in for scans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 10))
def test_count_tests_and_the_classify_memo_match_their_definitions(unicyclic, n):
    for g in unicyclic(n):
        cyc = g.cycle
        tree_vertices = [z for z in range(n) if cyc.parent[z] is not None]
        # every off-cycle vertex hangs on the cycle: the parent scan, and the
        # degree count classify_family uses in its place
        scan = all(cyc.parent[z] in cyc.position for z in tree_vertices)
        assert (sum(g.degree(v) - 2 for v in cyc.vertices) == n - cyc.girth) == scan
        if not scan:
            assert classify_family(g) is None
        for v in cyc.vertices:
            star = all(cyc.parent[z] == v for z in cyc.trees[v][1:])
            try:
                transforms._require_star(g, v)
            except PreconditionError:
                assert not star
            else:
                assert star
            a, b = cyc.cycle_neighbors(v)
            d, da, db = g.degree(v), g.degree(a), g.degree(b)
            direct = (d >= max(da, db), d <= min(da, db))
            assert classify_cycle_vertex(g, v) == direct
            assert classify_cycle_vertex(g, v) is classify_cycle_vertex(g, v)  # memoized
        for z in tree_vertices[:1]:
            for _ in range(2):
                with pytest.raises(GraphError, match="not a cycle vertex"):
                    classify_cycle_vertex(g, z)
