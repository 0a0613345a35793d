import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaindex import (
    FamilySpec,
    GraphError,
    ag_index,
    build_graph,
    edge_contribution,
    f_eval,
    g_eval,
    ga_index,
    make_family,
    star_transform,
)


def cycle(n):
    return make_family(FamilySpec("cycle", (n,)))


# ---------------------------------------------------------------------------
# per-edge contributions
# ---------------------------------------------------------------------------


def test_equal_degree_edge_contributes_one():
    c = edge_contribution(cycle(5), (0, 1))
    assert c.du == c.dv == 2
    assert c.rd == 1.0
    assert c.ga == 1.0


def test_s53_pendant_edge():
    g = make_family(FamilySpec("sn3", (5,)))
    c = edge_contribution(g, (0, 3))  # degrees 4 and 1
    assert (c.du, c.dv) == (1, 4)
    assert c.ga == pytest.approx(2 * math.sqrt(4) / 5, abs=1e-15)  # = 0.8


def test_s53_cycle_edge():
    g = make_family(FamilySpec("sn3", (5,)))
    c = edge_contribution(g, (1, 0))  # degrees 2 and 4, normalized
    assert (c.du, c.dv) == (2, 4)
    assert c.rd == pytest.approx(2.0)
    assert c.ga == pytest.approx(4 * math.sqrt(2) / 6, abs=1e-15)


def test_edge_contribution_rejects_absent_edge():
    with pytest.raises(GraphError):
        edge_contribution(cycle(4), (0, 2))


# ---------------------------------------------------------------------------
# the two indices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 65))
def test_ga_of_cycle_is_n(n):
    assert abs(ga_index(cycle(n)) - n) <= 1e-12


def test_ga_paw():
    expected = 1 + 2 * (2 * math.sqrt(6) / 5) + 2 * math.sqrt(3) / 4
    assert ga_index(make_family(FamilySpec("sn3", (4,)))) == pytest.approx(expected, abs=1e-12)


def test_ga_s53():
    # 2 pendant edges (1,4), 2 cycle edges (2,4), 1 cycle edge (2,2)
    expected = 2 * 0.8 + 2 * (4 * math.sqrt(2) / 6) + 1
    assert ga_index(make_family(FamilySpec("sn3", (5,)))) == pytest.approx(expected, abs=1e-12)


def test_ag_of_cycle_is_n():
    assert ag_index(cycle(9)) == pytest.approx(9.0, abs=1e-12)


def test_ag_star_k13():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert ag_index(g) == pytest.approx(3 * 4 / (2 * math.sqrt(3)), abs=1e-12)


def test_ag_paw():
    expected = 2 * (5 / (2 * math.sqrt(6))) + 1 + 4 / (2 * math.sqrt(3))
    assert ag_index(make_family(FamilySpec("sn3", (4,)))) == pytest.approx(expected, abs=1e-12)


def test_ga_index_builds_no_edge_set_for_a_rewrite_result():
    # the emptiness test reads the edge count, which a rewrite's result
    # knows without building its edge set
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    h = star_transform(g, 2)  # 4 moves from 3 to 2
    assert "edges" not in h.__dict__
    assert ga_index(h) == ga_index(build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4)]))
    assert "edges" not in h.__dict__


def test_indices_need_an_edge():
    g = build_graph(2, [])
    with pytest.raises(GraphError):
        ga_index(g)
    with pytest.raises(GraphError):
        ag_index(g)


# ---------------------------------------------------------------------------
# the scalar functions f and g
# ---------------------------------------------------------------------------


def test_f_at_one():
    assert f_eval(1) == 1.0


def test_g_at_two():
    assert g_eval(2) == pytest.approx(1.0, abs=1e-15)


def test_two_g3_minus_f5():
    assert 2 * g_eval(3) - f_eval(5) == pytest.approx(1.2142, abs=5e-5)


def test_domains():
    with pytest.raises(ValueError):
        f_eval(0.5)
    with pytest.raises(ValueError):
        g_eval(1.9)


def test_f_nonincreasing_on_grid():
    xs = [1 + 0.01 * i for i in range(4901)]
    vals = [f_eval(x) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@given(st.floats(1, 50), st.floats(1, 50))
def test_f_monotone_pairs(x1, x2):
    lo, hi = sorted((x1, x2))
    assert f_eval(lo) >= f_eval(hi) - 1e-12


def test_g_dominates_f_on_grid():
    for i in range(4801):
        x = 2 + 0.01 * i
        assert g_eval(x) > f_eval(x)


# ---------------------------------------------------------------------------
# structural inequalities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 10))
def test_edge_contribution_bounds(unicyclic, n):
    lo = 2 * math.sqrt(n - 1) / n
    for g in unicyclic(n):
        for e in g.edges:
            ga = edge_contribution(g, e).ga
            assert lo - 1e-12 <= ga <= 1 + 1e-12


@pytest.mark.parametrize("n", range(3, 10))
def test_ga_index_equals_per_edge_sum(unicyclic, n):
    # ga_index sums degree pairs directly; the per-edge path is the reference
    for g in unicyclic(n):
        assert ga_index(g) == math.fsum(edge_contribution(g, e).ga for e in g.edges)


def test_ga_is_computed_once_per_graph():
    g = make_family(FamilySpec("spq4", (2, 3)))
    assert ga_index(g) is ga_index(g) is g.ga


@pytest.mark.parametrize("n", range(3, 8))
def test_ga_ag_cauchy_schwarz(unicyclic, n):
    for g in unicyclic(n):
        assert ga_index(g) * ag_index(g) >= g.m**2 - 1e-9
