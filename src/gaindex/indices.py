"""Degree-based edge indices.

The geometric-arithmetic (GA) index sums, over all edges, the ratio of the
geometric to the arithmetic mean of the endpoint degrees; the
arithmetic-geometric (AG) index sums the reciprocal ratio. Per edge the GA
contribution equals f(rd) where rd >= 1 is the larger endpoint degree over
the smaller and f(x) = 2*sqrt(x)/(1+x).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graph import SCALE, Graph, GraphError, ga_term, norm_edge


def f_eval(x: float) -> float:
    """2*sqrt(x)/(x+1), decreasing on [1, inf), f(1) = 1."""
    if x < 1:
        raise ValueError(f"f is defined on [1, inf), got {x}")
    return 2.0 * math.sqrt(x) / (x + 1.0)


def g_eval(x: float) -> float:
    """2*sqrt(2)*sqrt(x)/(x+2), decreasing on [2, inf), g(2) = 1."""
    if x < 2:
        raise ValueError(f"g is defined on [2, inf), got {x}")
    return 2.0 * math.sqrt(2.0) * math.sqrt(x) / (x + 2.0)


class EdgeContribution(NamedTuple):
    edge: tuple
    du: int
    dv: int
    rd: float
    ga: float


def edge_contribution(g: Graph, e) -> EdgeContribution:
    """Per-edge GA contribution with endpoint degrees normalized so du <= dv."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) not in graph")
    du, dv = sorted((g.degrees[u], g.degrees[v]))
    return EdgeContribution(
        edge=norm_edge(u, v),
        du=du,
        dv=dv,
        rd=dv / du,
        ga=ga_term(du, dv) / SCALE,  # the float term, exactly
    )


def ga_index(g: Graph) -> float:
    """GA of g, computed once per graph value (see Graph.ga)."""
    if not g.m:
        raise GraphError("GA index needs at least one edge")
    return g.ga


def ag_index(g: Graph) -> float:
    if not g.m:
        raise GraphError("AG index needs at least one edge")
    terms = []
    for u, v in g.edges:
        du, dv = g.degrees[u], g.degrees[v]
        # arithmetic over geometric mean: halving is exact, the division and the sqrt each round
        terms.append((du + dv) / 2.0 / math.sqrt(du * dv))
    return math.fsum(terms)
