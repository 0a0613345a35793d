import itertools
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaindex import (
    FamilySpec,
    bound_interval,
    build_graph,
    canonical_form,
    classify_family,
    compare_AB,
    compare_CD,
    find_cycle,
    ga_index,
    ga_sn3_closed,
    ga_spq4_closed,
    ga_srk3_closed,
    is_unicyclic,
    make_family,
)
from gaindex.families import (
    B_Q1_LOWER_BOUND,
    TABLES,
    a_diagonal_lower_bound,
    c_diagonal_lower_bound,
    closed_form,
)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_sn3_of_order_4_is_the_paw():
    paw = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert canonical_form(make_family(FamilySpec("sn3", (4,)))) == canonical_form(paw)


def test_spq4_without_pendants_is_c4():
    g = make_family(FamilySpec("spq4", (0, 0)))
    assert canonical_form(g) == canonical_form(make_family(FamilySpec("cycle", (4,))))


def test_srk3_2_1_degrees():
    g = make_family(FamilySpec("srk3", (2, 1)))
    assert sorted(g.degrees[v] for v in range(g.n)) == [1, 1, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "family, params, girth",
    [("sn3", (7,), 3), ("srk3", (2, 2), 3), ("spq4", (3, 1), 4), ("cycle", (9,), 9)],
)
def test_family_girths(family, params, girth):
    g = make_family(FamilySpec(family, params))
    assert is_unicyclic(g)
    assert find_cycle(g).girth == girth


def test_spec_normalizes_parameter_order():
    assert FamilySpec("spq4", (1, 4)).params == (4, 1)
    assert FamilySpec("srk3", (0, 2)).params == (2, 0)
    assert FamilySpec("spq4", (2, 1)).params == (2, 1)
    assert FamilySpec("sn3", (7,)).params == (7,)


@pytest.mark.parametrize(
    "family, params, bad",
    [("spq4", (1.5, 2), 1.5), ("srk3", (True, 2.9), 2.9), ("sn3", ("7",), "7"),
     ("spq4", (True, False), True), ("srk3", (4, True), True)],
)
def test_spec_rejects_parameters_that_are_not_integers(family, params, bad):
    # int() would have truncated or parsed the first three into (2, 1), (2, 1)
    # and (7,); operator.index takes the bools in the last two as 1 and 0
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        FamilySpec(family, params)


@pytest.mark.parametrize(
    "family, params",
    [("sn3", (2,)), ("cycle", (2,)), ("spq4", (-1, 0)), ("srk3", (1,)), ("nope", (3,))],
)
def test_spec_validation(family, params):
    with pytest.raises(ValueError):
        FamilySpec(family, params)


# ---------------------------------------------------------------------------
# closed forms against direct edge summation
# ---------------------------------------------------------------------------


def test_sn3_closed_form_collapses_to_cycle_at_3():
    assert ga_sn3_closed(3) == pytest.approx(3.0, abs=1e-12)


def test_sn3_closed_matches_direct_up_to_200():
    for n in range(3, 201):
        direct = ga_index(make_family(FamilySpec("sn3", (n,))))
        assert abs(ga_sn3_closed(n) - direct) <= 1e-9


def test_spq4_closed_matches_direct_up_to_200():
    for n in range(4, 201):
        for q in range(0, (n - 4) // 2 + 1):
            p = n - 4 - q
            direct = ga_index(make_family(FamilySpec("spq4", (p, q))))
            assert abs(ga_spq4_closed(p, q) - direct) <= 1e-9


def test_srk3_closed_matches_direct_up_to_200():
    for n in range(3, 201):
        for k in range(0, (n - 3) // 2 + 1):
            r = n - 3 - k
            direct = ga_index(make_family(FamilySpec("srk3", (r, k))))
            assert abs(ga_srk3_closed(r, k) - direct) <= 1e-9


@pytest.mark.parametrize("family", ["cycle", "sn3", "spq4", "srk3"])
def test_closed_form_matches_built_family(family):
    if family in ("cycle", "sn3"):
        grid = [(n,) for n in range(3, 13)]
    else:
        grid = itertools.product(range(6), repeat=2)
    for params in grid:
        spec = FamilySpec(family, params)
        assert closed_form(spec) == pytest.approx(ga_index(make_family(spec)), abs=1e-9)


@pytest.mark.parametrize("closed, args", [
    (ga_sn3_closed, (2,)),
    (ga_spq4_closed, (-1, 0)),
    (ga_srk3_closed, (0, -1)),
], ids=["sn3", "spq4", "srk3"])
def test_closed_forms_reject_parameters_out_of_range(closed, args):
    with pytest.raises(ValueError):
        closed(*args)


def test_spq4_trivial_and_paw_values():
    assert ga_spq4_closed(0, 0) == pytest.approx(4.0, abs=1e-12)
    paw = 1 + 2 * (2 * math.sqrt(6) / 5) + 2 * math.sqrt(3) / 4
    assert ga_srk3_closed(1, 0) == pytest.approx(paw, abs=1e-12)


def test_bound_interval():
    assert bound_interval(3) == pytest.approx((3.0, 3.0), abs=1e-12)
    lo, hi = bound_interval(5)
    assert hi == 5.0
    assert lo == pytest.approx(ga_sn3_closed(5), abs=0)
    assert bound_interval(4)[0] == pytest.approx(1 + 2 * (2 * math.sqrt(6) / 5) + 2 * math.sqrt(3) / 4, abs=1e-12)
    with pytest.raises(ValueError):
        bound_interval(2)


# ---------------------------------------------------------------------------
# the gap decompositions A, B, C, D
# ---------------------------------------------------------------------------


def test_compare_ab_2_2_exact():
    a, b = compare_AB(2, 2)
    assert a == pytest.approx(16 / 5 - math.sqrt(7), abs=1e-12)
    expected_b = (8 * math.sqrt(2) / 3) - (4 * math.sqrt(14) / 9) - (math.sqrt(7) / 4)
    assert b == pytest.approx(expected_b, abs=1e-12)


def test_parameter_order_enforced():
    with pytest.raises(ValueError):
        compare_AB(2, 3)
    with pytest.raises(ValueError):
        compare_CD(3, 0)


def test_ab_identity_on_grid():
    for p in range(0, 21):
        for q in range(0, p + 1):
            a, b = compare_AB(p, q)
            gap = ga_spq4_closed(p, q) - ga_sn3_closed(p + q + 4)
            assert abs(gap - (a + b - 1)) <= 1e-9


def test_cd_identity_on_grid():
    for r in range(1, 21):
        for k in range(1, r + 1):
            c, d = compare_CD(r, k)
            gap = ga_srk3_closed(r, k) - ga_sn3_closed(r + k + 3)
            assert abs(gap - (c + d - 1)) <= 1e-9


@given(st.integers(0, 60), st.integers(0, 60))
def test_ab_identity_property(x, y):
    p, q = max(x, y), min(x, y)
    a, b = compare_AB(p, q)
    gap = ga_spq4_closed(p, q) - ga_sn3_closed(p + q + 4)
    assert abs(gap - (a + b - 1)) <= 1e-9


def test_gap_example_p2_q2():
    a, b = compare_AB(2, 2)
    assert ga_spq4_closed(2, 2) - ga_sn3_closed(8) == pytest.approx(a + b - 1, abs=1e-12)
    assert a + b - 1 == pytest.approx(1.0011, abs=2e-4)


def test_ab_positive():
    for p in range(0, 61):
        for q in range(0, p + 1):
            a, b = compare_AB(p, q)
            assert a >= 0  # a = 0 only at p = q = 0
            assert b > 0
            if p > 0:
                assert a > 0


def test_cd_positive():
    for r in range(1, 61):
        for k in range(1, r + 1):
            c, d = compare_CD(r, k)
            assert c > 0
            assert d > 0


@pytest.mark.parametrize("q", range(2, 11))
def test_a_increasing_in_p(q):
    prev = None
    for p in range(q, 61):
        a, _ = compare_AB(p, q)
        if prev is not None:
            assert a > prev
        prev = a


@pytest.mark.parametrize("k", range(2, 11))
def test_c_increasing_in_r(k):
    prev = None
    for r in range(k, 61):
        c, _ = compare_CD(r, k)
        if prev is not None:
            assert c > prev
        prev = c


def test_sn3_strictly_below_spq4():
    for n in range(4, 61):
        for q in range(0, (n - 4) // 2 + 1):
            p = n - 4 - q
            assert ga_sn3_closed(n) < ga_spq4_closed(p, q)


def test_sn3_strictly_below_srk3():
    for n in range(5, 61):
        for k in range(1, (n - 3) // 2 + 1):
            r = n - 3 - k
            assert ga_sn3_closed(n) < ga_srk3_closed(r, k)


# ---------------------------------------------------------------------------
# named proof-anchor constants
# ---------------------------------------------------------------------------


def test_diagonal_lower_bound_values():
    assert a_diagonal_lower_bound(5) == pytest.approx(1.0188, abs=5e-5)
    assert c_diagonal_lower_bound(6) == pytest.approx(1.1118, abs=5e-5)
    assert B_Q1_LOWER_BOUND == pytest.approx(1.2142, abs=5e-5)
    assert compare_CD(1, 1)[0] == pytest.approx(0.1321, abs=5e-5)
    assert 2 * math.sqrt(6) / 5 == pytest.approx(0.9798, abs=5e-5)


def test_diagonal_bounds_sit_below_diagonal_values():
    for q in range(5, 41):
        assert a_diagonal_lower_bound(q) < compare_AB(q, q)[0]
        assert a_diagonal_lower_bound(q) > 1
    for k in range(6, 41):
        assert c_diagonal_lower_bound(k) < compare_CD(k, k)[0]
        assert c_diagonal_lower_bound(k) > 1


# ---------------------------------------------------------------------------
# tabulation and recognition
# ---------------------------------------------------------------------------


def test_table_shapes():
    t1 = TABLES[1].cells(TABLES[1].rows, TABLES[1].cols)
    assert [row for row, _ in t1] == list(range(2, 8))
    assert t1[0][1][3] is None  # p=2, q=3 not defined
    assert t1[1][1][3] is not None
    t2 = TABLES[2].cells(TABLES[2].rows, TABLES[2].cols)
    assert [row for row, _ in t2] == list(range(2, 14))


@pytest.mark.parametrize(
    "family, params",
    [("cycle", (6,)), ("sn3", (7,)), ("spq4", (3, 2)), ("spq4", (2, 0)), ("srk3", (4, 1))],
)
def test_classify_family_round_trip(family, params):
    spec = FamilySpec(family, params)
    assert classify_family(make_family(spec)) == spec


def test_classify_family_rejects_non_families():
    # girth-5 graph with a pendant
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    assert classify_family(g) is None
    # pendants on adjacent C_4 vertices
    h = build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)])
    assert classify_family(h) is None
    # depth-2 pendant tree
    d = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    assert classify_family(d) is None
    # three carriers on a triangle
    t = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    assert classify_family(t) is None
    # not unicyclic: a path, and two disjoint triangles
    assert classify_family(build_graph(4, [(0, 1), (1, 2), (2, 3)])) is None
    assert classify_family(build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])) is None


# classes per order that classify_family names: the cycle, from n = 4 on
# sn3(n) (the paw at n = 4), and from n = 5 on the srk3(r, k) with
# r >= k >= 1 and the spq4(p, q) with p >= q >= 0, p >= 1
CLASSIFIED_COUNTS = {3: 1, 4: 2, 5: 4, 6: 5, 7: 6, 8: 7, 9: 8, 10: 9}


@pytest.mark.parametrize("n", sorted(CLASSIFIED_COUNTS))
def test_classify_family_on_every_class(unicyclic, n):
    classified = 0
    for g in unicyclic(n):
        spec = classify_family(g)
        if spec is None:
            continue
        classified += 1
        assert canonical_form(make_family(spec)) == canonical_form(g), spec
    assert classified == CLASSIFIED_COUNTS[n]
