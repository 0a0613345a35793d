import json
import math
import time

import pytest

from gaindex import (
    FamilySpec,
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
    pendant_tree,
    reduction_pipeline,
    relocate_min,
    set_runtime_checks,
    star_transform,
)
from gaindex import transforms
from gaindex.indices import edge_contribution
from gaindex.transforms import _arc_path


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
    assert pendant_tree(h, 0).is_star()


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
    t_v, t_u = pendant_tree(g, 0), pendant_tree(g, 1)
    h = relocate_min(g, 1, 0)
    assert pendant_tree(h, 0).edge_count == t_v.edge_count + t_u.edge_count


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
            tree = pendant_tree(g, v)
            for e in tree.edges:
                assert edge_contribution(g, e).rd <= h.degree(v) + 1e-12
        for u in cyc.vertices:
            for v in cyc.vertices:
                if u == v:
                    continue
                try:
                    h = relocate_min(g, u, v)
                except PreconditionError:
                    continue
                for e in pendant_tree(g, u).edges:
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
                        relocated |= pendant_tree(g, w).edges
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


def test_finish_one_case2():
    # triangle 0,1,2; pendants 3,8 at 0; at 2 a child 4 that outweighs it
    g = build_graph(9, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 8),
                        (2, 4), (4, 5), (4, 6), (4, 7)])
    h = finish_one_neighbor_deg2(g, 0, 1)
    assert find_cycle(h).girth == 4
    assert classify_family(h) == FamilySpec("spq4", (3, 2))
    assert ga_index(h) == pytest.approx(ga_spq4_closed(3, 2), abs=1e-12)
    assert ga_index(h) < ga_index(g)


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
