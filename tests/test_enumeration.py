import hashlib
import inspect
import itertools
import json
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaindex import (
    FamilySpec,
    Graph,
    build_graph,
    canonical_form,
    enumerate_unicyclic,
    format_edge_list,
    ga_index,
    classify_family,
    ga_sn3_closed,
    is_unicyclic,
    make_family,
    verify_bounds,
    verify_monotonicity,
)
from gaindex import enumeration, rings, transforms
from gaindex.enumeration import MAX_BOUND_ORDER, OPERATOR_NAMES, operator_applications
from gaindex.graph import SCALE, ga_term, json_text
from gaindex.rings import (_hung_shapes, _necklaces, _shapes, _stabilizer, edit_key,
                           ring_classes, ring_edits, ring_graph)
from gaindex.transforms import PreconditionError

from _helpers import (assert_same_structure, lift_ring_edits, lift_ring_sums, ring_shape_tuples,
                      ring_shapes)
from _oracles import (
    compositions,
    enumerate_unicyclic_by_chords,
    float_ga_term,
    free_trees,
    fsum_ga,
    hung_rows,
    kept_sizes,
    least_rings,
    reference_arc_edits,
    reference_forests,
    reference_hung_shapes,
    reference_verify_bounds,
    syntactic_applications,
)

# counts established by two independent generators here plus a labeled
# brute force below; they also match the known unicyclic counting sequence
EXPECTED_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}
# accepted applications per operator (star_transform, relocate_min,
# arc_transform, finish_two_neighbors_deg2, finish_one_neighbor_deg2),
# as the unfiltered sweep of every syntactic parameter choice counted them
# (n <= 11) and as running the graph operators at every choice counted them
# (n = 12); n = 13 and 14 are the ring sweep's counts
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
    14: (78656, 101576, 185813, 2969, 1903),
}
FINISHING_MOVES = OPERATOR_NAMES[3:]  # the two finishing moves

# the same sequence (OEIS A001429) beyond the graph enumeration's cap, which
# only verify_bounds reaches
BOUND_ONLY_COUNTS = {13: 13999, 14: 39260, 15: 110381, 16: 311_465}


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
    # a ring's sizes are its shapes' sizes, so the shapes say it all
    assert [ring_shapes(ring) for ring, _ in ring_classes(n)] == [
        choice for _, choice in least_rings(n)]


@pytest.mark.parametrize("size", range(11))
def test_shape_tables_match_the_set_and_sort_reference(size):
    assert tuple(forest for forest, _ in _shapes(size)) == reference_forests(size)
    assert _hung_shapes(size) == reference_hung_shapes(size)


@pytest.mark.parametrize("n", range(3, MAX_BOUND_ORDER + 1))
def test_necklaces_give_exactly_the_kept_sizes_in_order(n):
    for girth in range(3, n + 1):
        extra = n - girth
        necklaces = _necklaces(extra, girth)
        assert [c for c, _ in necklaces] == [c for c in compositions(extra, girth)
                                             if all(c <= c[k:] + c[:k] for k in range(girth))]
        assert all(p == next(k for k in range(1, girth + 1) if c[k:] + c[:k] == c)
                   for c, p in necklaces)
        assert [c for c, p in necklaces if _stabilizer(c, p) is not None] == list(
            kept_sizes(extra, girth))


@pytest.mark.parametrize("n", range(3, MAX_BOUND_ORDER + 1))
def test_the_first_ring_is_sn3(n):
    # verify_bounds reads the lower bound off the first ring it is given
    sn3 = ((), (), ((),) * (n - 3))  # n-3 leaves on the last triangle vertex
    assert next(ring_classes(n)) == (hung_rows(sn3), ring_graph(sn3).ga_sum)


@pytest.mark.parametrize("n", range(3, 13))
def test_ring_ga_equals_graph_ga(n):
    # the ring's sum, built with the ring, is its graph's; both round like
    # fsum. Each of its rows is its shape's, summed edge by edge
    for ring, total in ring_classes(n):
        shapes = ring_shapes(ring)
        assert ring == hung_rows(shapes)
        g = ring_graph(shapes)
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


@pytest.mark.parametrize("tol", [1e-9, 0, 5e-324, -1e-3, -0.2, 0.2, 1e300])
@pytest.mark.parametrize("n", range(3, 12))
def test_verify_bounds_matches_the_list_reference(n, tol):
    # negative tols give violators and no witnesses, positive ones several
    # witnesses: the running extremes must keep the same rings as a scan
    assert verify_bounds(n, tol).to_dict() == reference_verify_bounds(n, tol).to_dict()


def test_verify_bounds_keeps_no_class_list():
    verify_bounds(14)  # the shape and sum tables are built once, outside the trace
    tracemalloc.start()
    try:
        verify_bounds(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_verify_bounds_lists_violators_in_generation_order(monkeypatch, unicyclic):
    # lifted by n, every class rises above the upper bound n; dropped by n,
    # every class but sn3, whose ring sum is the lower bound, falls below it
    n, sn3 = 7, ((), (), ((),) * 4)
    sn3_key = canonical_form(ring_graph(sn3))
    for lift, spared in ((n * SCALE, None), (-n * SCALE, sn3_key)):
        with monkeypatch.context() as patch:
            lift_ring_sums(patch, lambda ring: 0 if spared and ring_shapes(ring) == sn3 else lift)
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_verify_bounds_rejects_a_non_finite_tol(tol):
    with pytest.raises(ValueError, match=f"tol must be finite, got {tol!r}"):
        verify_bounds(5, tol=tol)


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


def test_monotonicity_sweep_reports_each_finishing_violation(unicyclic, monkeypatch):
    # every accepted finishing edit is made to raise GA by 1: one violation
    # per finishing application, with its own params and input, in the order
    # operator_applications yields them; a rejected one stays unreported
    lift_ring_edits(monkeypatch, lambda choice, op, where, rise:
                    SCALE if op in FINISHING_MOVES and rise is not None else rise)
    rep = verify_monotonicity(8)
    tried = [(g, op, params, _outcome(thunk)) for g in unicyclic(8)
             for op, params, thunk in operator_applications(g) if op in FINISHING_MOVES]
    expected = [{"op": op, "params": params, "input": format_edge_list(g),
                 "problem": "GA increased by 1.0"}
                for g, op, params, outcome in tried if outcome is not PreconditionError]
    assert len(expected) < len(tried)
    assert list(rep.violations) == expected
    assert len(expected) == sum(rep.applications[op] for op in FINISHING_MOVES)
    assert tuple(rep.applications.values()) == MONOTONICITY_APPLICATIONS[8]


def test_the_sweep_reads_its_choices_from_transforms():
    # the filter lives beside the operator guards it mirrors; the sweep lists
    # a violating class's applications through it, and the benchmark reads it
    assert operator_applications is transforms.operator_applications
    assert OPERATOR_NAMES is transforms.OPERATOR_NAMES is rings.OPERATOR_NAMES


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
    # applications of one (u, v) pair name fewer arcs than they have edges
    thunks = distinct = 0
    arcs = set()
    for n in range(5, 9):
        for (ring, _), g in zip(ring_classes(n), unicyclic(n)):
            paths = set()
            for params, _ in _arc_entries(g):
                paths.add(transforms._arc_path(g, **params))
                arcs.add((ring, edit_key("arc_transform", params, g.cycle.girth)))
                thunks += 1
            distinct += len(paths)
    assert distinct < thunks
    # the ring sweep edits each of those arcs once, as one (u, v, ahead)
    edited = []
    edits = enumeration.ring_edits

    def logged(ring, n):
        for op, where, count, rise in edits(ring, n):
            if op == "arc_transform":
                edited.append((ring, where))
            yield op, where, count, rise

    monkeypatch.setattr("gaindex.enumeration.ring_edits", logged)
    for n in range(5, 9):
        verify_monotonicity(n)
    assert len(edited) == len(set(edited)) == len(arcs) == distinct
    assert set(edited) == arcs


def test_each_arc_thunk_relocates_the_arc_of_its_edge(unicyclic, monkeypatch):
    # each accepted thunk hangs on v the interior of the path its edge picks,
    # with the interior's pendant trees, the wrap-around cycle edge and both
    # orientations of the arc included; a rejected thunk moves nothing
    moved = []
    monkeypatch.setattr(Graph, "rehang", lambda g, moves, cycle=None: moved.append(moves))
    seen = set()
    for n in range(5, 10):
        for g in unicyclic(n):
            cvs, root = g.cycle.vertices, g.cycle.root
            wrap = tuple(sorted((cvs[0], cvs[-1])))
            for params, thunk in _arc_entries(g):
                path = transforms._arc_path(g, **params)
                moved.clear()
                if isinstance(_result_or_message(thunk), str):
                    assert moved == [], (params, format_edge_list(g))
                    continue
                interior = set(path[1:-1])
                expected = {z: params["v"] for z in range(g.n) if root[z] in interior}
                assert moved == [expected], (params, format_edge_list(g))
                ahead = g.cycle.cycle_neighbors(params["u"])[1]
                seen.add((tuple(params["e"]) == wrap, path[1] == ahead))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("n", range(5, 9))
def test_each_thunk_calls_its_operator_once_with_its_params(unicyclic, monkeypatch, n):
    # a thunk is its operator on the graph and its params, called once, and
    # it returns what the operator returns
    calls = []
    for name in OPERATOR_NAMES:
        signature = inspect.signature(getattr(transforms, name))

        def recorded(*args, name=name, signature=signature, **kwargs):
            arguments = dict(signature.bind(*args, **kwargs).arguments)
            calls.append((name, arguments.pop("g"), arguments))
            return name

        monkeypatch.setattr(transforms, name, recorded)
    for g in unicyclic(n):
        for op, params, thunk in operator_applications(g):
            calls.clear()
            assert thunk() == op
            assert calls == [(op, g, params)], (op, params, format_edge_list(g))
            assert calls[0][1] is g


@pytest.mark.parametrize("n", range(5, 8))
def test_arc_thunk_outcomes_do_not_depend_on_call_order(unicyclic, n):
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
    # exact sum is op(graph, **params).ga_sum bit for bit. An accepted
    # result has the order, size, degrees and cycle structure of the graph
    # its edge list builds: every finishing result, and the others to n = 10
    # (at n = 11 they would add about a second)
    accepted = dict.fromkeys(OPERATOR_NAMES, 0)
    for ring, total in ring_classes(n):
        g = ring_graph(ring_shapes(ring))
        edits = {(op, where): [None if rise is None else total + rise] * count
                 for op, where, count, rise in ring_edits(ring, n)}
        graph = {}
        for op, params, _ in operator_applications(g):
            try:
                h = getattr(transforms, op)(g, **params)
            except PreconditionError:
                outcome = None
            else:
                if n <= 10 or op in FINISHING_MOVES:
                    assert_same_structure(h, build_graph(h.n, h.edges))
                outcome = h.ga_sum
                accepted[op] += 1
            graph.setdefault((op, edit_key(op, params, len(ring))), []).append(outcome)
        assert edits == graph, ring
    assert tuple(accepted.values()) == MONOTONICITY_APPLICATIONS[n]


@settings(max_examples=300, deadline=None)
@given(ring_shape_tuples())
def test_ring_edits_match_the_graph_operators_on_random_rings(shapes):
    # past the sweep's orders and off its least rings: rings of 20 to 60
    # vertices, girth 3 to 10, whose rows are summed edge by edge, with no
    # table of the package. At every choice operator_applications yields,
    # the ring edit accepts what the graph operator accepts, with its sum
    g = ring_graph(shapes)
    edits = {(op, where): [None if rise is None else g.ga_sum + rise] * count
             for op, where, count, rise in ring_edits(hung_rows(shapes), g.n)}
    graph = {}
    for op, params, _ in operator_applications(g):
        try:
            outcome = getattr(transforms, op)(g, **params).ga_sum
        except PreconditionError:
            outcome = None
        graph.setdefault((op, edit_key(op, params, len(shapes))), []).append(outcome)
    assert edits == graph


@pytest.mark.parametrize("n", range(5, 13))
def test_the_sinks_are_the_paper_families(n):
    # a sink is a class no accepted edit lowers, where every chain of strict
    # decreases ends: exactly sn3(n), each srk3(r, k) with k >= 1 and each
    # spq4(p, q) with q >= 1, one class each
    sinks = Counter(classify_family(ring_graph(ring_shapes(ring)))
                    for ring, _ in ring_classes(n)
                    if not any(rise is not None and rise < 0
                               for _, _, _, rise in ring_edits(ring, n)))
    expected = ([FamilySpec("sn3", (n,))]
                + [FamilySpec("srk3", (n - 3 - k, k)) for k in range(1, (n - 3) // 2 + 1)]
                + [FamilySpec("spq4", (n - 4 - q, q)) for q in range(1, (n - 4) // 2 + 1)])
    assert sinks == Counter(expected)
    assert sinks.total() == 1 + (n - 3) // 2 + (n - 4) // 2


@pytest.mark.parametrize("n", [12, 13])
def test_arc_edits_match_the_per_arc_sums(n):
    # past the graph operators' reach: each arc the walks from a star yield,
    # its count and its rise, is the arc summed on its own
    for ring, _ in ring_classes(n):
        walked = {where: (count, rise) for op, where, count, rise in ring_edits(ring, n)
                  if op == "arc_transform"}
        assert walked == reference_arc_edits(ring_shapes(ring)), ring


# sha256 over the rings of ring_classes(n), in order, of each ring's edits
# as sorted reprs, one per line, closed by a blank line
EDIT_DIGESTS = {
    12: "795d95e89884a7923d2d5b753d08b97a3ffd2574459244ceb585fd5acab29400",
    13: "df8d9afedf64007289e6971ce29590d4ec47345b2436ed3f28a71addd0da7d3d",
}


@pytest.mark.parametrize("n", sorted(EDIT_DIGESTS))
def test_ring_edits_are_pinned_past_the_graph_operators(n):
    # the graph operators check every edit only to n = 11 and the per-arc
    # sums only the arcs: every edit, its where, count and exact rise, is
    # pinned here as it was computed at n = 12 and 13
    digest = hashlib.sha256()
    for ring, _ in ring_classes(n):
        digest.update(("\n".join(sorted(map(repr, ring_edits(ring, n)))) + "\n\n").encode())
    assert digest.hexdigest() == EDIT_DIGESTS[n]


@pytest.mark.parametrize("n", range(5, 12))
def test_the_edits_a_ring_cannot_have(n):
    # every relocation, arc and finishing edit ends at a star on a local
    # maximum, a finishing one at a star of the largest degree, and an arc
    # has inner positions on both sides: a ring with no such star yields
    # only star edits, and a triangle no arc edit
    for ring, _ in ring_classes(n):
        choice = ring_shapes(ring)
        k, deg = len(choice), [len(shape) + 2 for shape in choice]
        max_stars = [v for v in range(k) if not any(choice[v])
                     and deg[v] >= max(deg[v - 1], deg[(v + 1) % k])]
        edits = [(op, where) for op, where, _, _ in ring_edits(ring, n)]
        if not max_stars:
            assert {op for op, _ in edits} <= {"star_transform"}, choice
        if k == 3:
            assert all(op != "arc_transform" for op, _ in edits), choice
        for op, where in edits:
            if op in FINISHING_MOVES:
                assert where[0] in max_stars and deg[where[0]] == max(deg), choice


LEAF, PAIR, TRIPLE = ((),), ((),) * 2, ((),) * 3  # stars of one, two and three leaves


@pytest.mark.parametrize("choice, u, v", [
    ((LEAF,) * 4, 0, 3),  # across the edge from position 3 to 0
    ((LEAF,) * 4, 3, 0),
    ((LEAF,) * 3, 0, 1),
    ((LEAF,) * 3, 0, 2),  # across a triangle's edge from position 2 to 0
    # u's two cycle neighbors differ in degree, so each edge's term is its own
    ((LEAF, PAIR, TRIPLE), 0, 2),
    ((LEAF, PAIR, LEAF, TRIPLE), 0, 1),
    ((LEAF, PAIR, LEAF, TRIPLE), 0, 3),
    ((LEAF, PAIR, LEAF, TRIPLE), 2, 1),
    ((LEAF, PAIR, LEAF, TRIPLE), 2, 3),
    ((LEAF, TRIPLE, PAIR, PAIR), 0, 1),  # v's two cycle neighbors differ too
    ((LEAF, TRIPLE, PAIR, PAIR), 0, 3),
])
def test_adjacent_relocations_count_their_shared_edge_once(choice, u, v):
    # u's and v's one-position edits each replace the edge between them; the
    # rise puts it back once, at degrees 2 and v's new degree
    n = len(choice) + sum(map(len, choice))
    g = ring_graph(choice)
    rises = [rise for op, where, _, rise in ring_edits(hung_rows(choice), n)
             if (op, where) == ("relocate_min", (u, v))]
    assert rises == [transforms.relocate_min(g, u=u, v=v).ga_sum - g.ga_sum]


def test_star_and_relocation_identities_read_exactly_zero():
    # a star_transform at a star and a relocate_min of an empty tree return
    # their input: each is an application whose rise is exactly 0
    choice, n = ((), (), PAIR), 5
    g = ring_graph(choice)
    edits = {(op, where): (count, rise)
             for op, where, count, rise in ring_edits(hung_rows(choice), n)}
    for op, params in [("star_transform", {"v": 2}), ("relocate_min", {"u": 0, "v": 2}),
                       ("relocate_min", {"u": 1, "v": 2})]:
        count, rise = edits[op, tuple(params.values())]
        assert (count, type(rise), rise) == (1, int, 0)
        assert getattr(transforms, op)(g, **params) is g


def test_a_finishing_edit_takes_the_first_heaviest_child():
    # two children of vt of largest degree first differ in size at n = 16,
    # beyond the sweep's cap: the edit rebuilds the 4-cycle on the first of
    # them in the shape's order, the least id, as the graph operator does,
    # and counts that child's vertices off its shape
    leaves = ((),) * 4
    vt = (leaves, leaves[:3] + (((),),))  # two children of degree 5, of 5 and 6 vertices
    choice, n = (leaves[:2], (), vt), 16
    g = ring_graph(choice)
    h = transforms.finish_one_neighbor_deg2(g, 0, 1)
    assert h.cycle.girth == 4 and 5 in h.cycle.vertices  # w is vt's first child, 5
    assert [(where, g.ga_sum + rise) for op, where, _, rise in ring_edits(hung_rows(choice), n)
            if op in FINISHING_MOVES] == [((0, 1), h.ga_sum)]


def test_worst_slack_is_the_largest_exact_rise(monkeypatch):
    # a no-op star edit lifted by x: worst_slack reads x, and that application
    # alone is reported when tol is below x
    n, x = 7, SCALE // 3
    ring, where = next((ring, where) for ring, _ in ring_classes(n)
                       for op, where, _, rise in ring_edits(ring, n)
                       if op == "star_transform" and rise == 0)
    lift_ring_edits(monkeypatch, lambda r, op, w, rise:
                    rise + x if (r, op, w) == (ring, "star_transform", where) else rise)
    rep = verify_monotonicity(n, tol=x / SCALE / 2)
    assert rep.worst_slack == x / SCALE
    assert rep.violations == ({"op": "star_transform", "params": {"v": where[0]},
                               "input": format_edge_list(ring_graph(ring_shapes(ring))),
                               "problem": f"GA increased by {x / SCALE!r}"},)
    assert tuple(rep.applications.values()) == MONOTONICITY_APPLICATIONS[n]
    assert verify_monotonicity(n, tol=x / SCALE).violations == ()


def test_a_tol_of_minus_infinity_reports_every_application():
    # a rise at or below 0 is divided only when tol is negative
    rep = verify_monotonicity(6, tol=-math.inf)
    assert len(rep.violations) == rep.total_applications > 0


@pytest.mark.parametrize("n", range(5, 9))
@pytest.mark.parametrize("tol", [-1e-3, -0.2])
def test_a_finite_negative_tol_reports_the_applications_above_it(n, tol):
    # every application whose exact rise, divided once, exceeds tol, in the
    # order operator_applications yields it: the no-ops at -1e-3, as every
    # fall to n = 8 is at least 0.17, and some falls too at -0.2
    expected = []
    for ring, _ in ring_classes(n):
        g = ring_graph(ring_shapes(ring))
        for op, params, _ in operator_applications(g):
            try:
                rise = getattr(transforms, op)(g, **params).ga_sum - g.ga_sum
            except PreconditionError:
                continue
            if rise / SCALE > tol:
                expected.append({"op": op, "params": params, "input": format_edge_list(g),
                                 "problem": f"GA increased by {rise / SCALE!r}"})
    rep = verify_monotonicity(n, tol=tol)
    assert list(rep.violations) == expected
    noops = sum(v["problem"] == "GA increased by 0.0" for v in expected)
    assert 0 < noops and (noops < len(expected)) == (tol == -0.2)
    assert len(expected) < rep.total_applications


# sha256 of json_text of the monotonicity reports for n = 3..9 at each tol:
# every no-op (and at -10 every fall) listed in order, with the counts and worst_slack
NEGATIVE_TOL_REPORT_DIGESTS = {
    -10: "9ed34e7ade01b6a5a8cfaa9173f36387cb7d6a89861d02770c37fdd1229c36b2",
    -1e-3: "5314645cefa9e2d85f96b2fbc71a85dbd3761f09584aa6915ca422deb300d706",
}


@pytest.mark.parametrize("tol", sorted(NEGATIVE_TOL_REPORT_DIGESTS))
def test_the_negative_tol_reports_are_pinned(tol):
    # the oracle above stops at n = 8: these reports, as computed at n = 3..9,
    # pin each listed violation and its order one order further
    text = json_text([verify_monotonicity(n, tol).to_dict() for n in range(3, 10)])
    assert hashlib.sha256(text.encode()).hexdigest() == NEGATIVE_TOL_REPORT_DIGESTS[tol]


def test_a_nan_tol_is_rejected_by_the_monotonicity_sweep(monkeypatch):
    # no rise exceeds a NaN tol, so it would hide every violation
    lift_ring_edits(monkeypatch, lambda choice, op, where, rise:
                    None if rise is None else rise + SCALE)
    assert len(verify_monotonicity(6).violations) > 0
    assert verify_monotonicity(6, tol=math.inf).violations == ()
    with pytest.raises(ValueError, match="tol must be a number, got nan"):
        verify_monotonicity(6, tol=math.nan)


def test_the_monotonicity_sweep_builds_a_graph_only_for_a_violating_class(monkeypatch):
    # every operator is a ring edit: a clean sweep builds no graph, sums no
    # GA and walks each class's edits once; a violating class walks them
    # again to collect its violations and builds its one graph to list them
    built, summed, walked = [], [], Counter()
    build, ga_sum, edits = enumeration.ring_graph, Graph.ga_sum.func, enumeration.ring_edits

    def counted_build(shapes):
        built.append(shapes)
        return build(shapes)

    def counted_sum(g):
        summed.append(g)
        return ga_sum(g)

    def counted_edits(ring, n):
        walked[ring] += 1
        return edits(ring, n)

    monkeypatch.setattr("gaindex.enumeration.ring_graph", counted_build)
    monkeypatch.setattr(Graph.ga_sum, "func", counted_sum)
    monkeypatch.setattr("gaindex.enumeration.ring_edits", counted_edits)
    classes = [ring for ring, _ in ring_classes(10)]
    assert verify_monotonicity(10).violations == ()
    assert built == summed == []
    assert walked == dict.fromkeys(classes, 1)
    ring, where = next((ring, where) for ring in classes
                       for op, where, _, rise in ring_edits(ring, 10)
                       if op == "finish_one_neighbor_deg2" and rise is not None)
    lift_ring_edits(monkeypatch, lambda r, op, w, rise:
                    SCALE if (r, op, w) == (ring, "finish_one_neighbor_deg2", where)
                    else rise)
    walked.clear()
    assert len(verify_monotonicity(10).violations) == 1
    assert built == [ring_shapes(ring)]
    assert walked == {r: 1 + (r == ring) for r in classes}


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
