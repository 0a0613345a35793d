"""Exhaustive generation of non-isomorphic unicyclic graphs and the
brute-force verification of the GA bounds and rewrite monotonicity.

:func:`enumerate_unicyclic` hangs rooted trees on each girth's cycle and
keeps the least ring of rooted-tree shapes under rotation and reflection,
so it yields one graph per class without any isomorphism test. The test
suite checks it against a reference generator (every free tree plus one
chord, deduplicated by canonical labeling) and against the known counts
for small orders. Here the canonical labeling keys only the bound
witnesses that :func:`verify_bounds` reports.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from .families import FamilySpec, ga_sn3_closed, make_family
from .graph import Graph, canonical_form, format_edge_list, is_unicyclic, norm_edge
from .indices import ga_index
from .transforms import (
    PreconditionError,
    arc_transform,
    finish_one_neighbor_deg2,
    finish_two_neighbors_deg2,
    relocate_min,
    star_transform,
)

MAX_ORDER = 12

OPERATOR_NAMES = (
    "star_transform",
    "relocate_min",
    "arc_transform",
    "finish_two_neighbors_deg2",
    "finish_one_neighbor_deg2",
)


def _check_order(n: int) -> None:
    if not 3 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 3 and {MAX_ORDER}, got {n}")


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
    if size < 1:
        return ()
    return _forests(size - 1)


def _attach(edges: list, root: int, children: tuple, next_id: int) -> int:
    for child in children:
        cid = next_id
        next_id += 1
        edges.append((root, cid))
        next_id = _attach(edges, cid, child, next_id)
    return next_id


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _is_least_ring(sizes: tuple, choice: tuple) -> bool:
    """True when the ring (sizes, choice) is the least of its rotations and reflections.

    Rings equal up to rotation and reflection <=> isomorphic graphs, so
    exactly one ring per class passes; sizes compare first, so it is the
    one the enumeration loop reaches first.
    """
    ring = (sizes, choice)
    for s, c in (ring, (sizes[::-1], choice[::-1])):
        for k in range(len(s)):
            if (s[k:] + s[:k], c[k:] + c[:k]) < ring:
                return False
    return True


def enumerate_unicyclic(n: int):
    """Yield one representative per isomorphism class of unicyclic graphs on n vertices."""
    _check_order(n)
    for girth in range(3, n + 1):
        for sizes in _compositions(n - girth, girth):
            for choice in itertools.product(*[_rooted_trees(s + 1) for s in sizes]):
                if not _is_least_ring(sizes, choice):
                    continue
                edges = [(i, (i + 1) % girth) for i in range(girth)]
                next_id = girth
                for pos in range(girth):
                    next_id = _attach(edges, pos, choice[pos], next_id)
                yield Graph(n, frozenset(norm_edge(*e) for e in edges))


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
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
            "lower_bound": round(ga_sn3_closed(self.n), 9),
            "upper_bound": self.n,
            "min_witnesses": list(self.min_witnesses),
            "max_witnesses": list(self.max_witnesses),
            "violations": [{"edge_list": e, "ga": round(v, 9)} for e, v in self.violations],
            "max_only_cycle": self.max_only_cycle,
            "min_attained_by_sn3": self.min_attained_by_sn3,
            "min_unique": self.min_unique,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        status = "ok" if not self.violations else f"{len(self.violations)} VIOLATIONS"
        lines = [
            f"n={self.n}: {self.count} classes, GA in [{self.min_ga:.9f}, {self.max_ga:.9f}], {status}",
            f"  bounds: [{ga_sn3_closed(self.n):.9f}, {self.n}]",
            f"  max attained only by the cycle: {self.max_only_cycle}",
            f"  min attained by sn3: {self.min_attained_by_sn3} (unique: {self.min_unique})",
        ]
        for edge_list, ga in self.violations:
            lines.append(f"  violation: GA={ga!r} for {edge_list.strip()!r}")
        return "\n".join(lines) + "\n"


def verify_bounds(n: int, tol: float = 1e-9) -> BoundReport:
    """Check ga_sn3_closed(n) <= GA(G) <= n over every unicyclic class of order n."""
    _check_order(n)
    entries = [(ga_index(g), g) for g in enumerate_unicyclic(n)]
    lower, upper = ga_sn3_closed(n), float(n)
    min_ga = min(ga for ga, _ in entries)
    max_ga = max(ga for ga, _ in entries)
    min_wit = tuple(sorted(canonical_form(g).hex() for ga, g in entries if ga <= min_ga + tol))
    max_wit = tuple(sorted(canonical_form(g).hex() for ga, g in entries if ga >= max_ga - tol))
    violations = tuple(
        (format_edge_list(g), ga)
        for ga, g in entries
        if ga < lower - tol or ga > upper + tol
    )
    cycle_key = canonical_form(make_family(FamilySpec("cycle", (n,)))).hex()
    sn3_key = canonical_form(make_family(FamilySpec("sn3", (n,)))).hex()
    return BoundReport(
        n=n,
        count=len(entries),
        min_ga=min_ga,
        max_ga=max_ga,
        min_witnesses=min_wit,
        max_witnesses=max_wit,
        violations=violations,
        max_only_cycle=(max_wit == (cycle_key,) and abs(max_ga - upper) <= tol),
        min_attained_by_sn3=sn3_key in min_wit,
        min_unique=len(min_wit) == 1,
    )


# ---------------------------------------------------------------------------
# Monotonicity sweep
# ---------------------------------------------------------------------------


def operator_applications(g: Graph):
    """Yield (op, params, thunk) for every syntactic parameter choice.

    Thunks raise PreconditionError when the operator does not apply; the
    sweep counts only successful applications.
    """
    cyc = g.cycle
    cvs = cyc.vertices
    cycle_edges = cyc.cycle_edges()
    for v in cvs:
        yield "star_transform", {"v": v}, (lambda v=v: star_transform(g, v))
    for u in cvs:
        for v in cvs:
            if u != v:
                yield "relocate_min", {"u": u, "v": v}, (lambda u=u, v=v: relocate_min(g, u, v))
    for u in cvs:
        for v in cvs:
            if u == v:
                continue
            for e in cycle_edges:
                yield ("arc_transform", {"u": u, "e": list(e), "v": v},
                       (lambda u=u, e=e, v=v: arc_transform(g, u, e, v)))
    for v in cvs:
        yield ("finish_two_neighbors_deg2", {"v": v},
               (lambda v=v: finish_two_neighbors_deg2(g, v)))
    for v in cvs:
        for u in cyc.cycle_neighbors(v):
            yield ("finish_one_neighbor_deg2", {"v": v, "u": u},
                   (lambda v=v, u=u: finish_one_neighbor_deg2(g, v, u)))


@dataclass(frozen=True)
class MonotonicityReport:
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
        ga0 = ga_index(g)
        for name, params, thunk in operator_applications(g):
            try:
                h = thunk()
            except PreconditionError:
                continue
            applications[name] += 1
            slack = ga_index(h) - ga0
            worst = max(worst, slack)
            problem = None
            if slack > tol:
                problem = f"GA increased by {slack!r}"
            elif not is_unicyclic(h):
                problem = "result is not unicyclic"
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
