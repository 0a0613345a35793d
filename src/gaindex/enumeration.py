"""Exhaustive generation of non-isomorphic unicyclic graphs and the
brute-force verification of the GA bounds and rewrite monotonicity.

A unicyclic graph is a ring: the rooted-tree shapes hung on its cycle.
:func:`enumerate_unicyclic` keeps the least ring of each class under
rotation and reflection, so it yields one graph per class with no
isomorphism test, built by :func:`gaindex.graph.ring_graph` with its
degrees and cycle structure read off the ring, so no graph is peeled. The
tests check it against a chord-based reference generator and known counts.

:func:`verify_bounds` sweeps the rings themselves. Each ring's GA is built
with the ring, position by position, as the ring graph's exact
``Graph.ga_sum``: ``ga_term`` of each cycle edge from a table by degrees,
plus each hung shape's memoized sum. The bounds are exact too, sn3's ring
sum and n * SCALE, so every comparison is an exact difference, and only
the extremes and violators are divided. Only the witnesses and the
violators it reports become graphs, which is why it reaches order
MAX_BOUND_ORDER while the sweeps that need every graph stop at MAX_ORDER.
Here the canonical labeling keys only those witnesses.

:func:`verify_monotonicity` applies each rewrite at every choice
:func:`gaindex.transforms.operator_applications` yields, and takes each
GA slack as an exact difference, so a no-op reads exactly 0.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .families import bound_interval
from .graph import SCALE, canonical_form, format_edge_list, ga_term, ring_graph
from .transforms import OPERATOR_NAMES, PreconditionError, operator_applications

MAX_ORDER = 12
# verify_bounds reads GA from the rings and builds a Graph only for the
# witnesses, so it reaches further than the sweeps that need every graph.
MAX_BOUND_ORDER = 14


def _check_order(n: int, cap: int = MAX_ORDER) -> None:
    if not 3 <= n <= cap:
        raise ValueError(f"order must be between 3 and {cap}, got {n}")


# ---------------------------------------------------------------------------
# Rooted tree shapes: a shape is the sorted tuple of its child shapes.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _forests(total: int) -> tuple:
    """All multisets of rooted-tree shapes with vertex counts summing to total."""
    if total == 0:
        return ((),)
    found = set()
    for first in range(1, total + 1):
        for tree in _rooted_trees(first):
            for rest in _forests(total - first):
                found.add(tuple(sorted((tree,) + rest)))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _rooted_trees(size: int) -> tuple:
    """All rooted-tree shapes on `size` vertices (a tree is its child forest)."""
    return _forests(size - 1)


def _compositions_from(total: int, parts: int, low: int):
    """Compositions of total into parts, each at least low, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(low, total - low * (parts - 1) + 1):
        for rest in _compositions_from(total - head, parts - 1, low):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# Rings: a unicyclic graph is the tuple of rooted-tree shapes hung on its
# cycle, and rings equal up to rotation and reflection <=> isomorphic graphs.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _dihedral(girth: int) -> tuple:
    """The rotations and reflections of a ring of this girth, identity excluded,
    each as an itemgetter that returns the image of a tuple."""
    maps = []
    for k in range(girth):
        if k:
            maps.append([(i + k) % girth for i in range(girth)])
        maps.append([girth - 1 - (i + k) % girth for i in range(girth)])
    return tuple(itemgetter(*p) for p in maps)


def _stabilizer(sizes: tuple) -> tuple | None:
    """The symmetries that fix sizes, or None when one maps sizes below itself."""
    fixing = []
    for sym in _dihedral(len(sizes)):
        image = sym(sizes)
        if image < sizes:
            return None
        if image == sizes:
            fixing.append(sym)
    return tuple(fixing)


@lru_cache(maxsize=None)
def _tree_sum(shape: tuple, root_degree: int) -> int:
    """The scaled GA sum of the edges of a shape whose root has the given degree."""
    return sum(ga_term(root_degree, len(child) + 1) + _tree_sum(child, len(child) + 1)
               for child in shape)


@lru_cache(maxsize=None)
def _hung_shapes(size: int) -> tuple:
    """(shape, scaled GA sum of its edges, root degree) for each shape on `size`
    vertices hung on a cycle vertex, which adds two to its root's degree."""
    return tuple((shape, _tree_sum(shape, len(shape) + 2), len(shape) + 2)
                 for shape in _rooted_trees(size))


@lru_cache(maxsize=None)
def _cycle_terms(n: int) -> tuple:
    """ga_term(du, dv) at [du][dv] for the degrees of cycle vertices of order n
    (2..n-1), as nested lists for fast lookup while rings are built."""
    return tuple([ga_term(du, dv) if du > 1 and dv > 1 else 0 for dv in range(n)]
                 for du in range(n))


def _rings(n: int):
    """Yield (choice, total) for the least ring of each class of order n.

    choice[i] is the shape hung on cycle vertex i, and total the ga_sum of
    the ring's graph. Rings compare their sizes (each shape's number of
    tree vertices) first, so the sizes of a least ring are least among their
    images, they start with their least part, and only the symmetries that
    fix them can map its choice below itself. Girths ascend, and sizes and
    choices come in lexicographic product order. Each ring's sum grows with
    it: a level holds (sum so far, last degree, first degree, choice prefix).
    """
    terms = _cycle_terms(n)
    for girth in range(3, n + 1):
        extra = n - girth
        for head in range(extra // girth + 1):
            for rest in _compositions_from(extra - head, girth - 1, head):
                sizes = (head,) + rest
                fixing = _stabilizer(sizes)
                if fixing is None:
                    continue
                first, *others = [_hung_shapes(s + 1) for s in sizes]
                level = [(t, d, d, (c,)) for c, t, d in first]
                for options in others:
                    level = [(t + u + terms[p][d], d, f, prefix + (c,))
                             for t, p, f, prefix in level for c, u, d in options]
                rings = [(choice, t + terms[p][f]) for t, p, f, choice in level]
                if fixing:
                    rings = [r for r in rings if all(sym(r[0]) >= r[0] for sym in fixing)]
                yield from rings


def enumerate_unicyclic(n: int):
    """Yield one representative per isomorphism class of unicyclic graphs on n vertices."""
    _check_order(n)
    for choice, _ in _rings(n):
        yield ring_graph(choice)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


class BoundReport(NamedTuple):
    """Result of sweeping one order: extremes, witnesses, violations."""

    n: int
    count: int
    min_ga: float
    max_ga: float
    min_witnesses: tuple
    max_witnesses: tuple
    violations: tuple
    max_only_cycle: bool
    min_attained_by_sn3: bool
    min_unique: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "min_ga": round(self.min_ga, 9),
            "max_ga": round(self.max_ga, 9),
            "lower_bound": round(bound_interval(self.n)[0], 9),
            "upper_bound": self.n,
            "min_witnesses": list(self.min_witnesses),
            "max_witnesses": list(self.max_witnesses),
            "violations": [{"edge_list": e, "ga": round(v, 9)} for e, v in self.violations],
            "max_only_cycle": self.max_only_cycle,
            "min_attained_by_sn3": self.min_attained_by_sn3,
            "min_unique": self.min_unique,
        }

    def to_text(self) -> str:
        status = "ok" if not self.violations else f"{len(self.violations)} VIOLATIONS"
        lines = [
            f"n={self.n}: {self.count} classes, GA in [{self.min_ga:.9f}, {self.max_ga:.9f}], {status}",
            f"  bounds: [{bound_interval(self.n)[0]:.9f}, {self.n}]",
            f"  max attained only by the cycle: {self.max_only_cycle}",
            f"  min attained by sn3: {self.min_attained_by_sn3} (unique: {self.min_unique})",
        ]
        for edge_list, ga in self.violations:
            lines.append(f"  violation: GA={ga!r} for {edge_list.strip()!r}")
        return "\n".join(lines) + "\n"


def verify_bounds(n: int, tol: float = 1e-9) -> BoundReport:
    """Check GA(sn3(n)) <= GA(G) <= n, the bound_interval(n), over every
    unicyclic class of order n, within a finite tol.

    GA and the bounds, sn3's ring sum and n * SCALE, are exact sums from the
    rings, compared by exact differences; only the two extremes and the
    violators are divided to floats. Only the witnesses and the violators
    become graphs, for their canonical keys and edge lists.
    """
    _check_order(n, MAX_BOUND_ORDER)
    entries = list(_rings(n))
    cycle = ((),) * n
    sn3 = ((), (), ((),) * (n - 3))  # n-3 leaves on the last triangle vertex
    lower, upper = next(t for c, t in entries if c == sn3), n * SCALE  # girth 3 comes first
    num, den = tol.as_integer_ratio()  # den divides SCALE, so this is tol exactly
    slack = num * SCALE // den  # never tol * SCALE: a float overflow
    low, high = min(t for _, t in entries), max(t for _, t in entries)
    min_rings = [choice for choice, total in entries if total - low <= slack]
    max_rings = [choice for choice, total in entries if high - total <= slack]
    violations = tuple(
        (format_edge_list(ring_graph(choice)), total / SCALE)
        for choice, total in entries
        if lower - total > slack or total - upper > slack
    )

    def keys(rings):
        return tuple(sorted(canonical_form(ring_graph(choice)).hex() for choice in rings))

    return BoundReport(
        n=n,
        count=len(entries),
        min_ga=low / SCALE,
        max_ga=high / SCALE,
        min_witnesses=keys(min_rings),
        max_witnesses=keys(max_rings),
        violations=violations,
        max_only_cycle=(max_rings == [cycle] and abs(high - upper) <= slack),
        min_attained_by_sn3=sn3 in min_rings,
        min_unique=len(min_rings) == 1,
    )


# ---------------------------------------------------------------------------
# Monotonicity sweep
# ---------------------------------------------------------------------------


class MonotonicityReport(NamedTuple):
    n: int
    graphs: int
    applications: dict
    worst_slack: float
    violations: tuple

    @property
    def total_applications(self) -> int:
        return sum(self.applications.values())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "graphs": self.graphs,
            "applications": dict(self.applications),
            "total_applications": self.total_applications,
            "worst_slack": self.worst_slack,
            "violations": list(self.violations),
        }

    def to_text(self) -> str:
        lines = [f"n={self.n}: {self.graphs} graphs, "
                 f"{self.total_applications} operator applications, "
                 f"worst GA slack {self.worst_slack:.3e}, "
                 f"{len(self.violations)} violations"]
        for name in OPERATOR_NAMES:
            lines.append(f"  {name}: {self.applications.get(name, 0)}")
        return "\n".join(lines) + "\n"


def verify_monotonicity(n: int, tol: float = 1e-9) -> MonotonicityReport:
    """Apply every operator wherever its preconditions hold; GA must not rise."""
    _check_order(n)
    applications = {name: 0 for name in OPERATOR_NAMES}
    worst = float("-inf")
    violations = []
    graphs = 0
    for g in enumerate_unicyclic(n):
        graphs += 1
        base = g.ga_sum
        for name, params, thunk in operator_applications(g):
            try:
                h = thunk()
            except PreconditionError:
                continue
            applications[name] += 1
            slack = (h.ga_sum - base) / SCALE  # exact until rounded: a no-op reads 0
            worst = max(worst, slack)
            problem = None
            if slack > tol:
                problem = f"GA increased by {slack!r}"
            elif h.m != n:
                problem = f"result is not unicyclic: {h.m} edges on {n} vertices"
            elif h.n != n:
                problem = f"order changed to {h.n}"
            if problem:
                violations.append({
                    "op": name,
                    "params": params,
                    "input": format_edge_list(g),
                    "problem": problem,
                })
    if worst == float("-inf"):
        worst = 0.0
    return MonotonicityReport(n, graphs, applications, worst, tuple(violations))
