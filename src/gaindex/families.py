"""Extremal unicyclic families and their closed-form GA values.

Four families appear as endpoints of the rewrite pipeline:

* ``cycle``  C_n, the unique GA maximizer (GA = n);
* ``sn3``    a triangle with all n-3 pendant vertices at one cycle vertex,
  the GA minimizer;
* ``spq4``   a 4-cycle with p and q pendants on two opposite vertices;
* ``srk3``   a triangle with r and k pendants on two of its vertices.

:func:`make_family` builds each as a ring (``rings.ring_graph``): a cycle
vertex with k pendants carries the shape of k leaves.

The comparison functions compare_AB / compare_CD decompose the GA gap
between spq4 / srk3 and sn3 of the same order; both gaps are strictly
positive, which pins sn3 as the unique family minimum.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

from .graph import MAX_VERTICES, Graph, NotUnicyclicError
from .indices import f_eval, g_eval
from .rings import ring_graph

FAMILY_NAMES = ("cycle", "sn3", "spq4", "srk3")


# FamilySpec's fields; a NamedTuple may not define __new__ in its own body,
# so the validating constructor lives in the subclass
class _FamilyFields(NamedTuple):
    family: str
    params: tuple


class FamilySpec(_FamilyFields):
    """A family name plus its integer parameters, normalized for symmetry."""

    __slots__ = ()

    def __new__(cls, family: str, params: tuple):
        if family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {family!r}, expected one of {FAMILY_NAMES}")
        try:
            p = tuple(map(operator.index, params))
        except TypeError:
            p = None
        # operator.index, not int(): 1.5 or "7" is a caller's error, not a count,
        # and so is a bool, which operator.index takes as 0 or 1
        if p is None or any(isinstance(x, bool) for x in params):
            raise ValueError(f"{family} takes integer parameters, got {params}")
        if family in ("cycle", "sn3"):
            if len(p) != 1 or p[0] < 3:
                raise ValueError(f"{family} takes a single order n >= 3, got {params}")
        else:
            if len(p) != 2 or min(p) < 0:
                raise ValueError(f"{family} takes two nonnegative pendant counts, got {params}")
            # attachment vertices are exchangeable, so order the counts
            p = tuple(sorted(p, reverse=True))
        return super().__new__(cls, family, p)

    @property
    def n(self) -> int:
        if self.family in ("cycle", "sn3"):
            return self.params[0]
        base = 4 if self.family == "spq4" else 3
        return self.params[0] + self.params[1] + base

    def label(self) -> str:
        return f"{self.family}({', '.join(str(x) for x in self.params)})"


def make_family(spec: FamilySpec) -> Graph:
    """Build the named graph from its ring, so ring_graph numbers the cycle
    first, then the pendants in ring order."""
    n, fam = spec.n, spec.family
    if n > MAX_VERTICES:
        raise ValueError(f"{spec.label()} has {n} vertices, above the limit of {MAX_VERTICES}")
    if fam == "cycle":
        return ring_graph(((),) * n)
    if fam == "sn3":
        return ring_graph((((),) * (n - 3), (), ()))
    a, b = (((),) * k for k in spec.params)  # the shapes of a and b pendant leaves
    return ring_graph((a, (), b, ()) if fam == "spq4" else (a, b, ()))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def ga_sn3_closed(n: int) -> float:
    """GA of the triangle with n-3 pendants at one vertex, in closed form."""
    if n < 3:
        raise ValueError(f"sn3 needs n >= 3, got {n}")
    return 1.0 + (2.0 * n * n + 4.0 * (math.sqrt(2.0) - 1.0) * n - 6.0) * math.sqrt(n - 1.0) / (n * (n + 1.0))


def ga_spq4_closed(p: int, q: int) -> float:
    if p < 0 or q < 0:
        raise ValueError(f"pendant counts must be nonnegative, got ({p}, {q})")
    return p * f_eval(p + 2) + 2.0 * g_eval(p + 2) + 2.0 * g_eval(q + 2) + q * f_eval(q + 2)


def ga_srk3_closed(r: int, k: int) -> float:
    if r < 0 or k < 0:
        raise ValueError(f"pendant counts must be nonnegative, got ({r}, {k})")
    return (
        r * f_eval(r + 2)
        + g_eval(r + 2)
        + g_eval(k + 2)
        + k * f_eval(k + 2)
        + 2.0 * math.sqrt(r + 2.0) * math.sqrt(k + 2.0) / (r + k + 4.0)
    )


def closed_form(spec: FamilySpec) -> float:
    """GA of make_family(spec), from the family's closed form."""
    forms = {"cycle": float, "sn3": ga_sn3_closed, "spq4": ga_spq4_closed, "srk3": ga_srk3_closed}
    return forms[spec.family](*spec.params)


def bound_interval(n: int) -> tuple[float, float]:
    """(lower, upper) GA bounds over all unicyclic graphs of order n."""
    if n < 3:
        raise ValueError(f"unicyclic graphs need n >= 3, got {n}")
    return ga_sn3_closed(n), float(n)


# ---------------------------------------------------------------------------
# Gap decompositions:
#   GA(spq4(p,q)) - GA(sn3(p+q+4)) = A(p,q) + B(p,q) - 1
#   GA(srk3(r,k)) - GA(sn3(r+k+3)) = C(r,k) + D(r,k) - 1
# ---------------------------------------------------------------------------


def compare_AB(p: int, q: int) -> tuple[float, float]:
    if not p >= q >= 0:
        raise ValueError(f"compare_AB needs p >= q >= 0, got ({p}, {q})")
    a = p * (f_eval(p + 2) - f_eval(p + q + 3)) + q * (f_eval(q + 2) - f_eval(p + q + 3))
    b = 2.0 * g_eval(p + 2) + 2.0 * g_eval(q + 2) - 2.0 * g_eval(p + q + 3) - f_eval(p + q + 3)
    return a, b


def compare_CD(r: int, k: int) -> tuple[float, float]:
    if not r >= k >= 1:
        raise ValueError(f"compare_CD needs r >= k >= 1, got ({r}, {k})")
    c = r * (f_eval(r + 2) - f_eval(r + k + 2)) + k * (f_eval(k + 2) - f_eval(r + k + 2))
    d = (
        g_eval(r + 2)
        + g_eval(k + 2)
        - 2.0 * g_eval(r + k + 2)
        + 2.0 * math.sqrt(r + 2.0) * math.sqrt(k + 2.0) / (r + k + 4.0)
    )
    return c, d


def a_diagonal_lower_bound(q: int) -> float:
    """q*(q+1)^2 / ((q+2)^2 * sqrt(2q+3)); below A(q,q), exceeds 1 from q = 5 on."""
    return q * (q + 1.0) ** 2 / ((q + 2.0) ** 2 * math.sqrt(2.0 * q + 3.0))


def c_diagonal_lower_bound(k: int) -> float:
    """2*k^2*(2k+1) / ((2k+3)^2 * sqrt(2k+2)); below C(k,k), exceeds 1 from k = 6 on."""
    return 2.0 * k * k * (2.0 * k + 1.0) / ((2.0 * k + 3.0) ** 2 * math.sqrt(2.0 * k + 2.0))


# B(p,1) > 2 g(3) - f(5) for every p >= 1, so the q = 1 gap stays above 1
B_Q1_LOWER_BOUND = 2.0 * g_eval(3) - f_eval(5)


# ---------------------------------------------------------------------------
# The paper's Tables 1 (A, B) and 2 (C, D), which the CLI prints at 4 decimals
# ---------------------------------------------------------------------------


class GapTable(NamedTuple):
    """A gap table: compare(row, col) for row >= col >= least, the printed
    extents rows and cols, and the names of the row, the column and the gaps."""

    compare: Callable
    rows: tuple
    cols: tuple
    least: int
    names: tuple

    def cells(self, rows, cols) -> list:
        """Rows of (row, {col: compare(row, col) or None}); cells with row < col are None."""
        return [(r, {c: (self.compare(r, c) if r >= c else None) for c in cols}) for r in rows]


TABLES = {
    1: GapTable(compare_AB, tuple(range(2, 8)), (2, 3, 4), 0, ("p", "q", "A", "B")),
    2: GapTable(compare_CD, tuple(range(2, 14)), (2, 3, 4, 5), 1, ("r", "k", "C", "D")),
}


# ---------------------------------------------------------------------------
# Structural recognition, used to name rewrite-pipeline terminals
# ---------------------------------------------------------------------------


def classify_family(g: Graph) -> FamilySpec | None:
    """Match g against the four families; None when it is none of them."""
    try:
        cyc = g.cycle
    except NotUnicyclicError:
        return None
    if cyc.girth == g.n:
        return FamilySpec("cycle", (g.n,))
    carriers = [v for v in cyc.vertices if g.degrees[v] > 2]
    counts = sorted((g.degrees[v] - 2 for v in carriers), reverse=True)
    # the cycle vertices have sum(counts) tree neighbors, so all n - girth
    # tree vertices are pendants on the cycle exactly when the two agree
    if sum(counts) != g.n - cyc.girth:
        return None
    if cyc.girth == 3:
        if len(carriers) == 1:
            return FamilySpec("sn3", (g.n,))
        if len(carriers) == 2:
            return FamilySpec("srk3", tuple(counts))
        return None
    if cyc.girth == 4:
        if len(carriers) == 1:
            return FamilySpec("spq4", (counts[0], 0))
        if len(carriers) == 2 and not cyc.adjacent(*carriers):
            return FamilySpec("spq4", tuple(counts))
        return None
    return None
