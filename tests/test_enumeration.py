import itertools
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaindex import (
    FamilySpec,
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
from gaindex import transforms
from gaindex.enumeration import (
    MAX_BOUND_ORDER,
    OPERATOR_NAMES,
    SCALE,
    _rings,
    _term,
    operator_applications,
)
from gaindex.graph import ga_term, ring_graph
from gaindex.transforms import PreconditionError

from _helpers import replace_star_thunks
from _oracles import enumerate_unicyclic_by_chords, free_trees, least_rings, syntactic_applications

# counts established by two independent generators here plus a labeled
# brute force below; they also match the known unicyclic counting sequence
EXPECTED_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}
# accepted applications per operator (star_transform, relocate_min,
# arc_transform, finish_two_neighbors_deg2, finish_one_neighbor_deg2),
# as the unfiltered sweep of every syntactic parameter choice counted them
MONOTONICITY_APPLICATIONS = {
    5: (11, 29, 54, 6, 2),
    6: (27, 65, 134, 10, 2),
    7: (64, 129, 296, 14, 6),
    8: (171, 306, 666, 25, 10),
    9: (456, 717, 1449, 44, 25),
    10: (1256, 1846, 3544, 90, 53),
    11: (3470, 4787, 8751, 195, 129),
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
    for choice, total in _rings(n):
        assert total / SCALE == ring_graph(choice).ga


degree_pairs = st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)), max_size=40)


@given(degree_pairs)
def test_scaled_sums_round_like_fsum(pairs):
    # __wrapped__: the memo is sized for ring degrees, not for these
    exact = sum(_term.__wrapped__(du, dv) for du, dv in pairs)
    assert exact / SCALE == math.fsum(ga_term(du, dv) for du, dv in pairs)


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
    # a lower bound above every order's cycle: each class violates it
    monkeypatch.setattr("gaindex.enumeration.bound_interval", lambda n: (n + 1.0, float(n)))
    rep = verify_bounds(7)
    assert rep.violations == tuple((format_edge_list(g), g.ga) for g in unicyclic(7))


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
    assert a == b
    text = a.to_json()
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


def test_monotonicity_sweep_checks_the_result_edges(monkeypatch):
    # rehang rejects an edit that leaves two cycles, so the bad result is
    # built from an edge list; only its edge count shows the extra cycle
    def add_an_edge(g, v):
        extra = next((a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b))
        return build_graph(g.n, [*g.edges, extra])

    replace_star_thunks(monkeypatch, add_an_edge)
    rep = verify_monotonicity(5, tol=math.inf)
    assert len(rep.violations) == rep.applications["star_transform"] > 0
    assert {(v["op"], v["problem"]) for v in rep.violations} == {
        ("star_transform", "result is not unicyclic: 6 edges on 5 vertices")}


def test_the_sweep_reads_its_choices_from_transforms():
    # the filter lives beside the operator guards it mirrors
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
    for n in range(5, 9):
        for g in unicyclic(n):
            relocated.clear()
            paths = set()
            for params, thunk in _arc_entries(g):
                paths.add((params["u"], params["v"], transforms._arc_path(g, **params)))
                _result_or_message(thunk)
                thunks += 1
            assert sorted((p[0], p[-1], p) for p in relocated) == sorted(paths), format_edge_list(g)
            distinct += len(paths)
    assert distinct < thunks
    relocated.clear()
    for n in range(5, 9):
        verify_monotonicity(n)
    assert len(relocated) == distinct


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
    # a bad relocation is computed once per path but reported once for
    # every (u, e, v) that maps to that path, each with its own params
    def add_an_edge(g, path):
        extra = next((a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b))
        return build_graph(g.n, [*g.edges, extra])

    share = transforms._shared_arc

    def faulty(g, path, shared):
        if path not in shared:
            shared[path] = add_an_edge(g, path)
        return share(g, path, shared)

    monkeypatch.setattr("gaindex.transforms._shared_arc", faulty)
    rep = verify_monotonicity(6, tol=math.inf)
    expected = []
    shared = 0
    for g in unicyclic(6):
        params = [p for p, _ in _arc_entries(g)]
        expected += [(format_edge_list(g), p) for p in params]
        shared += len(params) - len({transforms._arc_path(g, **p) for p in params})
    assert shared > 0
    assert [(v["input"], v["params"]) for v in rep.violations] == expected
    assert {(v["op"], v["problem"]) for v in rep.violations} == {
        ("arc_transform", "result is not unicyclic: 7 edges on 6 vertices")}
    assert len(rep.violations) == rep.applications["arc_transform"]


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
