"""Extremal unicyclic families and their closed-form GA values.

Four families appear as endpoints of the rewrite pipeline:

* ``cycle``  C_n, the unique GA maximizer (GA = n);
* ``sn3``    a triangle with all n-3 pendant vertices at one cycle vertex,
  the GA minimizer;
* ``spq4``   a 4-cycle with p and q pendants on two opposite vertices;
* ``srk3``   a triangle with r and k pendants on two of its vertices.

The comparison functions compare_AB / compare_CD decompose the GA gap
between spq4 / srk3 and sn3 of the same order; both gaps are strictly
positive, which pins sn3 as the unique family minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph, is_unicyclic, norm_edge
from .indices import f_eval, g_eval

FAMILY_NAMES = ("cycle", "sn3", "spq4", "srk3")


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameters, normalized for symmetry."""

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILY_NAMES}")
        p = tuple(int(x) for x in self.params)
        if self.family in ("cycle", "sn3"):
            if len(p) != 1 or p[0] < 3:
                raise ValueError(f"{self.family} takes a single order n >= 3, got {self.params}")
        else:
            if len(p) != 2 or min(p) < 0:
                raise ValueError(f"{self.family} takes two nonnegative pendant counts, got {self.params}")
            # attachment vertices are exchangeable, so order the counts
            p = tuple(sorted(p, reverse=True))
        object.__setattr__(self, "params", p)

    @property
    def n(self) -> int:
        if self.family in ("cycle", "sn3"):
            return self.params[0]
        base = 4 if self.family == "spq4" else 3
        return self.params[0] + self.params[1] + base

    def label(self) -> str:
        return f"{self.family}({', '.join(str(x) for x in self.params)})"


def make_family(spec: FamilySpec) -> Graph:
    """Build the named graph with deterministic ids: cycle first, then pendants."""
    if spec.n > MAX_VERTICES:
        raise ValueError(f"{spec.label()} has {spec.n} vertices, above the limit of {MAX_VERTICES}")
    fam, params = spec.family, spec.params
    if fam == "cycle":
        n = params[0]
        return Graph(n, frozenset(norm_edge(i, (i + 1) % n) for i in range(n)))
    if fam == "sn3":
        n = params[0]
        edges = {(0, 1), (1, 2), (0, 2)}
        edges.update(norm_edge(0, w) for w in range(3, n))
        return Graph(n, frozenset(edges))
    if fam == "spq4":
        p, q = params
        n = p + q + 4
        edges = {(0, 1), (1, 2), (2, 3), (0, 3)}
        edges.update(norm_edge(0, w) for w in range(4, 4 + p))
        edges.update(norm_edge(2, w) for w in range(4 + p, n))
        return Graph(n, frozenset(edges))
    r, k = params
    n = r + k + 3
    edges = {(0, 1), (1, 2), (0, 2)}
    edges.update(norm_edge(0, w) for w in range(3, 3 + r))
    edges.update(norm_edge(1, w) for w in range(3 + r, n))
    return Graph(n, frozenset(edges))


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
# Tabulation (4-decimal layout used by the CLI and golden files)
# ---------------------------------------------------------------------------

TABLE_AB_ROWS = tuple(range(2, 8))
TABLE_AB_COLS = (2, 3, 4)
TABLE_CD_ROWS = tuple(range(2, 14))
TABLE_CD_COLS = (2, 3, 4, 5)


def table_ab(rows=TABLE_AB_ROWS, cols=TABLE_AB_COLS):
    """Rows of (p, {q: (A, B) or None}); cells with p < q are None."""
    out = []
    for p in rows:
        cells = {q: (compare_AB(p, q) if p >= q else None) for q in cols}
        out.append((p, cells))
    return out


def table_cd(rows=TABLE_CD_ROWS, cols=TABLE_CD_COLS):
    out = []
    for r in rows:
        cells = {k: (compare_CD(r, k) if r >= k else None) for k in cols}
        out.append((r, cells))
    return out


# ---------------------------------------------------------------------------
# Structural recognition, used to name rewrite-pipeline terminals
# ---------------------------------------------------------------------------


def classify_family(g: Graph) -> FamilySpec | None:
    """Match g against the four families; None when it is none of them."""
    if not is_unicyclic(g):
        return None
    if all(g.degree(v) == 2 for v in range(g.n)):
        return FamilySpec("cycle", (g.n,))
    cyc = g.cycle
    # every off-cycle vertex must be a pendant hanging directly on the cycle
    for v in range(g.n):
        if v in cyc.position:
            continue
        if g.degree(v) != 1 or g.neighbors(v)[0] not in cyc.position:
            return None
    carriers = [v for v in cyc.vertices if g.degree(v) > 2]
    counts = sorted((g.degree(v) - 2 for v in carriers), reverse=True)
    if cyc.girth == 3:
        if len(carriers) == 1:
            return FamilySpec("sn3", (g.n,))
        if len(carriers) == 2:
            return FamilySpec("srk3", tuple(counts))
        return None
    if cyc.girth == 4:
        if len(carriers) == 1:
            return FamilySpec("spq4", (counts[0], 0))
        if len(carriers) == 2 and not g.has_edge(*carriers):
            return FamilySpec("spq4", tuple(counts))
        return None
    return None
