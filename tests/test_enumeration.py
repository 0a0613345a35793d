import itertools
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaindex import (
    FamilySpec,
    Graph,
    build_graph,
    canonical_form,
    enumerate_unicyclic,
    format_edge_list,
    ga_index,
    ga_sn3_closed,
    is_unicyclic,
    make_family,
    verify_bounds,
    verify_monotonicity,
)
from gaindex import enumeration, transforms
from gaindex.enumeration import (
    MAX_BOUND_ORDER,
    OPERATOR_NAMES,
    _edit_key,
    _finishing_moves,
    _ring_edits,
    _rings,
    operator_applications,
)
from gaindex.graph import SCALE, ga_term, ring_graph
from gaindex.transforms import PreconditionError

from _helpers import lift_ring_edits, lift_ring_sums, replace_finishing_moves
from _oracles import (
    enumerate_unicyclic_by_chords,
    float_ga_term,
    free_trees,
    fsum_ga,
    least_rings,
    syntactic_applications,
)

# counts established by two independent generators here plus a labeled
# brute force below; they also match the known unicyclic counting sequence
EXPECTED_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}
# accepted applications per operator (star_transform, relocate_min,
# arc_transform, finish_two_neighbors_deg2, finish_one_neighbor_deg2),
# as the unfiltered sweep of every syntactic parameter choice counted them
# (n <= 11) and as running the graph operators at every choice counted them
# (n = 12); n = 13 is the ring sweep's count
MONOTONICITY_APPLICATIONS = {
    5: (11, 29, 54, 6, 2),
    6: (27, 65, 134, 10, 2),
    7: (64, 129, 296, 14, 6),
    8: (171, 306, 666, 25, 10),
    9: (456, 717, 1449, 44, 25),
    10: (1256, 1846, 3544, 90, 53),
    11: (3470, 4787, 8751, 195, 129),
    12: (9796, 13127, 23827, 472, 306),
    13: (27615, 36057, 65026, 1154, 761),
}
# the same sequence (OEIS A001429) beyond the graph enumeration's cap, which
# only verify_bounds reaches
BOUND_ONLY_COUNTS = {13: 13999, 14: 39260}


@pytest.mark.parametrize("n", sorted(EXPECTED_COUNTS))
def test_class_counts(unicyclic, n):
    assert len(unicyclic(n)) == EXPECTED_COUNTS[n]


@pytest.mark.parametrize("n", range(3, 10))
def test_generators_agree(unicyclic, n):
    keys_girth = {canonical_form(g) for g in unicyclic(n)}
    keys_chords = {canonical_form(g) for g in enumerate_unicyclic_by_chords(n)}
    assert keys_girth == keys_chords


@pytest.mark.parametrize("n", (5, 6))
def test_labeled_brute_force_agrees(unicyclic, n):
    # third route: every n-edge labeled graph on n vertices, deduplicated
    keys = set()
    for sub in itertools.combinations(list(itertools.combinations(range(n), 2)), n):
        g = build_graph(n, sub)
        if is_unicyclic(g):
            keys.add(canonical_form(g))
    assert keys == {canonical_form(g) for g in unicyclic(n)}


def test_enumerated_graphs_are_unicyclic_and_distinct(unicyclic):
    graphs = unicyclic(7)
    keys = [canonical_form(g) for g in graphs]
    assert len(set(keys)) == len(keys)
    assert all(is_unicyclic(g) and g.n == 7 for g in graphs)


def test_generation_needs_no_canonical_labeling(monkeypatch):
    def refuse(g):
        raise AssertionError("canonical_form called while generating")

    monkeypatch.setattr("gaindex.enumeration.canonical_form", refuse)
    assert len(list(enumerate_unicyclic(9))) == EXPECTED_COUNTS[9]


@pytest.mark.parametrize("n", range(3, 12))
def test_rings_match_the_reference_filter(n):
    # a ring's sizes are its shapes' sizes, so the choices say it all
    assert [choice for choice, _ in _rings(n)] == [choice for _, choice in least_rings(n)]


@pytest.mark.parametrize("n", range(3, 13))
def test_ring_ga_equals_graph_ga(n):
    # the ring's sum, built with the ring, is its graph's; both round like fsum
    for choice, total in _rings(n):
        g = ring_graph(choice)
        assert total == g.ga_sum
        assert total / SCALE == g.ga == fsum_ga(g.degrees, g.edges)


degree_pairs = st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)), max_size=40)


@given(degree_pairs)
def test_scaled_sums_round_like_fsum(pairs):
    # __wrapped__: keep these random degrees out of the memo
    terms = [ga_term.__wrapped__(du, dv) for du, dv in pairs]
    assert [t / SCALE for t in terms] == [float_ga_term(du, dv) for du, dv in pairs]
    assert sum(terms) / SCALE == math.fsum(float_ga_term(du, dv) for du, dv in pairs)


def test_verify_bounds_labels_only_witnesses(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr("gaindex.enumeration.canonical_form", counting)
    rep = verify_bounds(9)
    assert len(calls) == len(rep.min_witnesses) + len(rep.max_witnesses)


def test_verify_bounds_builds_graphs_only_for_witnesses(monkeypatch):
    built = []

    def counting(ring):
        built.append(ring)
        return ring_graph(ring)

    monkeypatch.setattr("gaindex.enumeration.ring_graph", counting)
    rep = verify_bounds(9)
    assert len(built) == len(rep.min_witnesses) + len(rep.max_witnesses)


def test_order_limits():
    with pytest.raises(ValueError):
        list(enumerate_unicyclic(2))
    with pytest.raises(ValueError):
        list(enumerate_unicyclic(13))
    with pytest.raises(ValueError):
        enumerate_unicyclic_by_chords(13)


def test_free_tree_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
    for n, count in expected.items():
        assert len(free_trees(n)) == count


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_verify_bounds_matches_a_plain_sweep(unicyclic, n):
    rep = verify_bounds(n)
    gas = [g.ga for g in unicyclic(n)]
    assert (rep.count, rep.min_ga, rep.max_ga) == (len(gas), min(gas), max(gas))


@pytest.mark.parametrize("n", range(3, 13))
def test_verify_bounds_family_flags_match_canonical_keys(n):
    rep = verify_bounds(n)
    cycle_key = canonical_form(make_family(FamilySpec("cycle", (n,)))).hex()
    sn3_key = canonical_form(make_family(FamilySpec("sn3", (n,)))).hex()
    assert rep.max_only_cycle == (rep.max_witnesses == (cycle_key,) and abs(rep.max_ga - n) <= 1e-9)
    assert rep.min_attained_by_sn3 == (sn3_key in rep.min_witnesses)
    assert rep.max_only_cycle and rep.min_attained_by_sn3


def test_verify_bounds_lists_violators_in_generation_order(monkeypatch, unicyclic):
    # lifted by n, every class rises above the upper bound n; dropped by n,
    # every class but sn3, whose ring sum is the lower bound, falls below it
    n, sn3 = 7, ((), (), ((),) * 4)
    sn3_key = canonical_form(ring_graph(sn3))
    for lift, spared in ((n * SCALE, None), (-n * SCALE, sn3_key)):
        with monkeypatch.context() as patch:
            lift_ring_sums(patch, lambda choice: 0 if spared and choice == sn3 else lift)
            rep = verify_bounds(n)
        assert rep.violations == tuple((format_edge_list(g), (g.ga_sum + lift) / SCALE)
                                       for g in unicyclic(n) if canonical_form(g) != spared)
        assert len(rep.violations) == EXPECTED_COUNTS[n] - (spared is not None)


@pytest.mark.parametrize("n", sorted(BOUND_ONLY_COUNTS))
def test_verify_bounds_beyond_the_graph_cap(n):
    rep = verify_bounds(n)
    assert rep.count == BOUND_ONLY_COUNTS[n]
    assert rep.min_unique and rep.min_attained_by_sn3 and rep.max_only_cycle
    assert rep.min_ga == pytest.approx(ga_sn3_closed(n), abs=1e-9)
    assert not rep.violations
    # the extremes read from the ring sums are their witnesses' Graph.ga
    for ring, ga, witnesses in ((((), (), ((),) * (n - 3)), rep.min_ga, rep.min_witnesses),
                                (((),) * n, rep.max_ga, rep.max_witnesses)):
        g = ring_graph(ring)
        assert (g.ga, (canonical_form(g).hex(),)) == (ga, witnesses)


def test_verify_bounds_order_limits():
    assert MAX_BOUND_ORDER == max(BOUND_ONLY_COUNTS)
    with pytest.raises(ValueError):
        verify_bounds(2)
    with pytest.raises(ValueError):
        verify_bounds(MAX_BOUND_ORDER + 1)


def test_verify_bounds_order_3():
    rep = verify_bounds(3)
    assert rep.count == 1
    assert rep.min_ga == pytest.approx(3.0, abs=1e-12)
    assert rep.max_ga == pytest.approx(3.0, abs=1e-12)
    assert not rep.violations


def test_verify_bounds_order_4():
    rep = verify_bounds(4)
    paw_ga = 1 + 2 * (2 * math.sqrt(6) / 5) + 2 * math.sqrt(3) / 4
    assert rep.count == 2
    assert rep.min_ga == pytest.approx(paw_ga, abs=1e-12)
    assert rep.max_ga == pytest.approx(4.0, abs=1e-12)
    assert rep.max_only_cycle
    assert rep.min_attained_by_sn3 and rep.min_unique
    assert not rep.violations


def test_verify_bounds_order_5():
    rep = verify_bounds(5)
    assert rep.count == 5
    assert rep.min_ga == pytest.approx(ga_sn3_closed(5), abs=1e-9)
    assert rep.max_ga == pytest.approx(5.0, abs=1e-12)
    assert rep.max_only_cycle and rep.min_attained_by_sn3
    assert not rep.violations


def test_verify_bounds_witnesses_are_canonical_keys():
    rep = verify_bounds(6)
    sn3_key = canonical_form(make_family(FamilySpec("sn3", (6,)))).hex()
    cyc_key = canonical_form(make_family(FamilySpec("cycle", (6,)))).hex()
    assert rep.min_witnesses == (sn3_key,)
    assert rep.max_witnesses == (cyc_key,)


def test_bound_report_is_deterministic_and_json_stable():
    a, b = verify_bounds(6), verify_bounds(6)
    assert a == b and a.to_dict() == b.to_dict()
    text = json.dumps(a.to_dict(), indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == a.to_dict()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


# ---------------------------------------------------------------------------
# monotonicity sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", sorted(MONOTONICITY_APPLICATIONS))
def test_monotonicity_sweep_clean(n):
    rep = verify_monotonicity(n)
    assert rep.violations == ()
    assert rep.worst_slack <= 1e-12
    assert tuple(rep.applications[name] for name in OPERATOR_NAMES) == MONOTONICITY_APPLICATIONS[n]


FINISHING_MOVES = OPERATOR_NAMES[3:]  # the finishing moves, the sweep's graph results


def test_monotonicity_sweep_checks_the_result_edges(monkeypatch):
    # rehang derives its edits from its moves and cannot add a stray edge,
    # so the bad result is built from an edge list; only its edge count
    # shows the extra cycle
    def add_an_edge(g, v):
        extra = next((a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b))
        return build_graph(g.n, [*g.edges, extra])

    replace_finishing_moves(monkeypatch, add_an_edge)
    rep = verify_monotonicity(5, tol=math.inf)
    assert len(rep.violations) == sum(rep.applications[op] for op in FINISHING_MOVES)
    assert {(v["op"], v["problem"]) for v in rep.violations} == {
        (op, "result is not unicyclic: 6 edges on 5 vertices") for op in FINISHING_MOVES}


def test_monotonicity_sweep_checks_the_result_order(monkeypatch):
    # a path on six vertices has five edges, so only its order is wrong
    def path_on_six(g, v):
        return build_graph(6, [(i, i + 1) for i in range(5)])

    replace_finishing_moves(monkeypatch, path_on_six)
    rep = verify_monotonicity(5, tol=math.inf)
    assert len(rep.violations) == sum(rep.applications[op] for op in FINISHING_MOVES)
    assert {(v["op"], v["problem"]) for v in rep.violations} == {
        (op, "order changed to 6") for op in FINISHING_MOVES}


def test_the_sweep_reads_its_choices_from_transforms():
    # the filter lives beside the operator guards it mirrors; the sweep lists
    # a violating class's applications through it, and the benchmark reads it
    assert operator_applications is transforms.operator_applications
    assert OPERATOR_NAMES is transforms.OPERATOR_NAMES


def _arc_entries(g):
    """The (params, thunk) of each arc_transform application the sweep yields for g."""
    return [(params, thunk) for name, params, thunk in operator_applications(g)
            if name == "arc_transform"]


def _result_or_message(call):
    """The graph a call returns, or the message of the PreconditionError it raises."""
    try:
        return call()
    except PreconditionError as exc:
        return str(exc)


def test_monotonicity_sweep_relocates_each_arc_path_once(unicyclic, monkeypatch):
    # arc_transform's edge only picks one of the two u-v arcs, so the
    # applications of one (u, v) pair relocate each distinct arc once
    relocated = []
    share = transforms._shared_arc

    def counted(g, path, shared):
        if path not in shared:
            relocated.append(path)
        return share(g, path, shared)

    monkeypatch.setattr("gaindex.transforms._shared_arc", counted)
    thunks = distinct = 0
    arcs = set()
    for n in range(5, 9):
        for (choice, _), g in zip(_rings(n), unicyclic(n)):
            relocated.clear()
            paths = set()
            for params, thunk in _arc_entries(g):
                paths.add((params["u"], params["v"], transforms._arc_path(g, **params)))
                arcs.add((choice, _edit_key("arc_transform", params, g.cycle.girth)))
                _result_or_message(thunk)
                thunks += 1
            assert sorted((p[0], p[-1], p) for p in relocated) == sorted(paths), format_edge_list(g)
            distinct += len(paths)
    assert distinct < thunks
    # the ring sweep edits each of those arcs once, as one (u, v, ahead)
    edited = []
    edits = enumeration._ring_edits

    def logged(choice, n):
        for op, where, count, rise in edits(choice, n):
            if op == "arc_transform":
                edited.append((choice, where))
            yield op, where, count, rise

    monkeypatch.setattr("gaindex.enumeration._ring_edits", logged)
    for n in range(5, 9):
        verify_monotonicity(n)
    assert len(edited) == len(set(edited)) == len(arcs) == distinct
    assert set(edited) == arcs


def test_arc_thunks_leave_the_v_guard_to_the_filter(unicyclic, monkeypatch):
    # operator_applications yields arc thunks only at local-maximum stars v,
    # so relocating an arc does not test v again
    def refuse(g, v):
        raise AssertionError(f"v = {v} guarded again")

    monkeypatch.setattr(transforms, "_require_local_max_star", refuse)
    for n in range(5, 9):
        for g in unicyclic(n):
            for _, thunk in _arc_entries(g):
                _result_or_message(thunk)


def test_each_arc_thunk_relocates_the_arc_of_its_edge(unicyclic, monkeypatch):
    # each thunk on its own maps its edge to the path arc_transform picks,
    # the wrap-around cycle edge and both orientations of the arc included
    monkeypatch.setattr("gaindex.transforms._arc_relocate", lambda g, path: ("path", path))
    seen = set()
    for n in range(5, 10):
        for g in unicyclic(n):
            cvs = g.cycle.vertices
            wrap = tuple(sorted((cvs[0], cvs[-1])))
            for params, thunk in _arc_entries(g):
                path = transforms._arc_path(g, **params)
                assert thunk() == ("path", path), (params, format_edge_list(g))
                ahead = g.cycle.cycle_neighbors(params["u"])[1]
                seen.add((tuple(params["e"]) == wrap, path[1] == ahead))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("n", range(5, 8))
def test_shared_arc_outcomes_do_not_depend_on_call_order(unicyclic, n):
    # every thunk gives what arc_transform gives for its params, in any
    # order and on every call, and each rejection is a fresh exception
    for g in unicyclic(n):
        expected = [_result_or_message(lambda: transforms.arc_transform(g, **params))
                    for params, _ in _arc_entries(g)]
        assert [_result_or_message(thunk) for _, thunk in _arc_entries(g)] == expected
        backward = []
        for _, thunk in reversed(_arc_entries(g)):
            first, second = _result_or_message(thunk), _result_or_message(thunk)
            assert first == second, format_edge_list(g)
            backward.append(first)
        assert backward[::-1] == expected, format_edge_list(g)
        raised = []
        for _, thunk in _arc_entries(g):
            for _ in range(2):
                try:
                    thunk()
                except PreconditionError as exc:
                    raised.append(exc)
        assert len({id(exc) for exc in raised}) == len(raised)


def test_monotonicity_sweep_reports_shared_arc_violations_per_application(unicyclic, monkeypatch):
    # a bad arc edit is computed once per arc but reported once for every
    # (u, e, v) that picks that arc, each with its own params: every arc,
    # rejected or not, is made to raise GA by 1
    lift_ring_edits(monkeypatch, lambda choice, op, where, rise:
                    SCALE if op == "arc_transform" else rise)
    rep = verify_monotonicity(6)
    expected = []
    shared = 0
    for g in unicyclic(6):
        params = [p for p, _ in _arc_entries(g)]
        expected += [(format_edge_list(g), p) for p in params]
        shared += len(params) - len({transforms._arc_path(g, **p) for p in params})
    assert shared > 0
    assert [(v["input"], v["params"]) for v in rep.violations] == expected
    assert {(v["op"], v["problem"]) for v in rep.violations} == {
        ("arc_transform", "GA increased by 1.0")}
    assert len(rep.violations) == rep.applications["arc_transform"]


@pytest.mark.parametrize("n", range(5, 12))
def test_ring_edits_match_the_graph_operators(n):
    # at every choice operator_applications yields on a ring's graph, the ring
    # sweep accepts what the graph operator accepts, and an accepted edit's
    # exact sum is op(graph, **params).ga_sum bit for bit: the star, relocation
    # and arc edits of the ring, and the finishing moves run on its graph
    accepted = dict.fromkeys(OPERATOR_NAMES, 0)
    for choice, total in _rings(n):
        g = ring_graph(choice)
        ring = {(op, where): [None if rise is None else total + rise] * count
                for op, where, count, rise in _ring_edits(choice, n)}
        ring |= {(op, where): [h.ga_sum] for op, where, h in _finishing_moves(choice)}
        graph = {}
        for op, params, _ in operator_applications(g):
            try:
                outcome = getattr(transforms, op)(g, **params).ga_sum
            except PreconditionError:
                outcome = None
            else:
                accepted[op] += 1
            graph.setdefault((op, _edit_key(op, params, len(choice))), []).append(outcome)
        # a rejected finishing move is tried on the graph but lists no edit
        assert ring == {key: outcomes for key, outcomes in graph.items()
                        if key in ring or outcomes != [None] * len(outcomes)}, choice
    assert tuple(accepted.values()) == MONOTONICITY_APPLICATIONS[n]


def test_worst_slack_is_the_largest_exact_rise(monkeypatch):
    # a no-op star edit lifted by x: worst_slack reads x, and that application
    # alone is reported when tol is below x
    n, x = 7, SCALE // 3
    choice, where = next((choice, where) for choice, _ in _rings(n)
                         for op, where, _, rise in _ring_edits(choice, n)
                         if op == "star_transform" and rise == 0)
    lift_ring_edits(monkeypatch, lambda c, op, w, rise:
                    rise + x if (c, op, w) == (choice, "star_transform", where) else rise)
    rep = verify_monotonicity(n, tol=x / SCALE / 2)
    assert rep.worst_slack == x / SCALE
    assert rep.violations == ({"op": "star_transform", "params": {"v": where[0]},
                               "input": format_edge_list(ring_graph(choice)),
                               "problem": f"GA increased by {x / SCALE!r}"},)
    assert tuple(rep.applications.values()) == MONOTONICITY_APPLICATIONS[n]
    assert verify_monotonicity(n, tol=x / SCALE).violations == ()


def test_a_tol_of_minus_infinity_reports_every_application():
    # a rise at or below 0 is divided only when tol is negative
    rep = verify_monotonicity(6, tol=-math.inf)
    assert len(rep.violations) == rep.total_applications > 0


def test_the_monotonicity_sweep_builds_graphs_only_for_finishing_moves(unicyclic, monkeypatch):
    # star, relocation and arc results are ring edits: a class's graph is
    # built only when operator_applications yields a finishing move on it, and
    # GA is summed only for the finishing moves' results
    candidates = [g for g in unicyclic(10)
                  if any(op in FINISHING_MOVES for op, _, _ in operator_applications(g))]
    built, summed = [], []
    build, ga_sum = enumeration.ring_graph, Graph.ga_sum.func

    def counted_build(choice):
        built.append(choice)
        return build(choice)

    def counted_sum(g):
        summed.append(g)
        return ga_sum(g)

    monkeypatch.setattr("gaindex.enumeration.ring_graph", counted_build)
    monkeypatch.setattr(Graph.ga_sum, "func", counted_sum)
    rep = verify_monotonicity(10)
    assert [ring_graph(choice) for choice in built] == candidates
    assert len(built) < rep.graphs
    assert 0 < len(summed) <= sum(rep.applications[op] for op in FINISHING_MOVES)


def _outcome(call):
    """The graph a call returns, or PreconditionError when it does not apply."""
    try:
        return call()
    except PreconditionError:
        return PreconditionError


def test_operator_applications_replay_their_params(unicyclic):
    # a violation report names (op, params); that call must be the one the
    # sweep made, so replaying it gives the same graph or the same rejection
    applications = 0
    for n in range(5, 9):
        for g in unicyclic(n):
            for name, params, thunk in operator_applications(g):
                replay = _outcome(lambda: getattr(transforms, name)(g, **params))
                assert replay == _outcome(thunk), (name, params, format_edge_list(g))
                applications += 1
    # choices yielded, accepted or not; the filter on u dropped 421 of 3,076
    assert applications == 2_655


@pytest.mark.parametrize("n", range(5, 10))
def test_operator_applications_drop_only_rejections(unicyclic, n):
    # the package's choices are the syntactic ones in the same order, less
    # some that the operator rejects, so the sweep's counts cannot change
    for g in unicyclic(n):
        kept = [(name, params) for name, params, _ in operator_applications(g)]
        i = 0
        for name, params, thunk in syntactic_applications(g):
            if i < len(kept) and kept[i] == (name, params):
                i += 1
            else:
                assert _outcome(thunk) is PreconditionError, (name, params, format_edge_list(g))
        assert i == len(kept), format_edge_list(g)


@pytest.mark.parametrize("n", range(5, 10))
def test_operator_applications_leave_only_the_expensive_guards(unicyclic, n):
    # the filter covers every guard on the targets but the arc's degree
    # ordering and finish_one_neighbor_deg2's search for a second local
    # minimum, so no other rejected choice is yielded
    left = {"arc_transform": "arc vertex ", "finish_one_neighbor_deg2": "second local minimum "}
    rejected = dict.fromkeys(left, 0)
    for g in unicyclic(n):
        for name, params, thunk in operator_applications(g):
            try:
                thunk()
            except PreconditionError as exc:
                assert name in left and str(exc).startswith(left[name]), (
                    name, params, str(exc), format_edge_list(g))
                rejected[name] += 1
    assert rejected["arc_transform"] > 0
    assert rejected["finish_one_neighbor_deg2"] > 0 or n < 7


def test_star_fixed_points_have_zero_slack(unicyclic):
    # graphs whose pendant trees are all stars: star_transform changes nothing
    from gaindex import find_cycle, star_transform
    from gaindex.transforms import PreconditionError
    from _helpers import is_star

    seen = 0
    for g in unicyclic(6):
        cyc = find_cycle(g)
        if not all(is_star(g, v) for v in cyc.vertices):
            continue
        for v in cyc.vertices:
            try:
                h = star_transform(g, v)
            except PreconditionError:
                continue
            seen += 1
            assert h == g
    assert seen > 0


def test_monotonicity_report_rendering():
    rep = verify_monotonicity(5)
    text = rep.to_text()
    assert "n=5" in text and "violations" in text
    doc = rep.to_dict()
    assert doc["total_applications"] == sum(doc["applications"].values())
