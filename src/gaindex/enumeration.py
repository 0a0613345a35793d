"""Exhaustive generation of non-isomorphic unicyclic graphs and the
brute-force verification of the GA bounds and rewrite monotonicity, over
the least ring of each class (:func:`gaindex.rings.ring_classes`).

Both sweeps read each ring's GA as the exact ``Graph.ga_sum`` of its graph,
so every comparison is an exact difference and a no-op reads exactly 0.
:func:`verify_bounds` builds a graph only for the witnesses and violators it
reports. :func:`verify_monotonicity` evaluates every operator as an edit of
the ring's sum and tests the tolerance once per ring, on its largest
accepted rise: a clean ring's edits are walked once, and a violating
ring's a second time to list its violating edits' applications
(:func:`gaindex.rings.edit_applications`). Neither sweep loads the
rewrites: ``enumeration.operator_applications`` resolves on first access,
only for bench/layers.py until ROADMAP directions 14 and 18.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .families import bound_interval
from .graph import SCALE, canonical_form, format_edge_list, rises_above, scaled_tol
from .rings import OPERATOR_NAMES, edit_applications, ring_classes, ring_edits, ring_graph

MAX_ORDER = 12
# verify_bounds reads GA from the rings and builds a Graph only for the
# witnesses, and verify_monotonicity edits the rings and builds one only for
# a violating class, so both reach further than enumerate_unicyclic, which
# builds every graph.
MAX_BOUND_ORDER = 16
MAX_MONOTONICITY_ORDER = 14


def __getattr__(name: str):
    """operator_applications, imported from transforms on first access: only
    bench/layers.py reads it here, until ROADMAP directions 14 and 18."""
    if name == "operator_applications":
        from .transforms import operator_applications

        return operator_applications
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_order(n: int, cap: int = MAX_ORDER) -> None:
    if not 3 <= n <= cap:
        raise ValueError(f"order must be between 3 and {cap}, got {n}")


def enumerate_unicyclic(n: int):
    """Yield one representative per isomorphism class of unicyclic graphs on n vertices."""
    _check_order(n)
    for ring, _ in ring_classes(n):
        yield ring_graph(next(zip(*ring)))  # the shapes, the rows' first column


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
    violators are divided to floats. The rings are read in one pass, which
    keeps the running extremes, the rings within slack of each (filtered
    again when an extreme moves) and the violators, in generation order.
    Only the witnesses and the violators become graphs, for their canonical
    keys and edge lists: only there are a ring's shapes read off its rows.
    """
    _check_order(n, MAX_BOUND_ORDER)
    slack = scaled_tol(tol)
    rings = ring_classes(n)
    sn3, lower = next(rings)  # girth 3, least sizes, least shape: n-3 leaves on one vertex
    upper = n * SCALE
    low = high = lower
    min_rings, max_rings, violators = [], [], []
    for count, (ring, total) in enumerate(chain([(sn3, lower)], rings), 1):
        if total < low:
            low = total
            min_rings = [r for r in min_rings if r[1] - low <= slack]
        elif total > high:
            high = total
            max_rings = [r for r in max_rings if high - r[1] <= slack]
        if total - low <= slack:
            min_rings.append((ring, total))
        if high - total <= slack:
            max_rings.append((ring, total))
        if lower - total > slack or total - upper > slack:
            violators.append((ring, total))

    shapes = {ring: next(zip(*ring)) for ring, _ in chain(min_rings, max_rings)}  # keyed once
    key = {ring: canonical_form(ring_graph(s)).hex() for ring, s in shapes.items()}
    return BoundReport(
        n=n,
        count=count,
        min_ga=low / SCALE,
        max_ga=high / SCALE,
        min_witnesses=tuple(sorted(key[ring] for ring, _ in min_rings)),
        max_witnesses=tuple(sorted(key[ring] for ring, _ in max_rings)),
        violations=tuple((format_edge_list(ring_graph(next(zip(*ring)))), total / SCALE)
                         for ring, total in violators),
        # the cycle is the one ring of girth n
        max_only_cycle=([len(r) for r, _ in max_rings] == [n] and abs(high - upper) <= slack),
        min_attained_by_sn3=min_rings[:1] == [(sn3, lower)],
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
    """Apply every operator wherever its preconditions hold; GA must not rise.

    The sweep edits each class's ring, its rows (ring_edits), and keeps its
    largest accepted rise. rises_above is monotone in the rise, so it tests
    that one: when it fires, the ring's edits are walked again, and each
    application (edit_applications) of a rise above tol is reported with its
    params and the input's edge list, in the order operator_applications
    yields them. worst_slack is the largest exact rise divided once. tol may
    be infinite, not NaN.
    """
    _check_order(n, MAX_MONOTONICITY_ORDER)
    if math.isnan(tol):  # every slack > nan is false: no rise would be reported
        raise ValueError(f"tol must be a number, got {tol!r}")
    applications = dict.fromkeys(OPERATOR_NAMES, 0)
    floor = float("-inf")  # below every rise
    worst = floor
    violations = []
    graphs = 0

    for ring, _ in ring_classes(n):
        graphs += 1
        top = floor  # the ring's largest accepted rise
        for op, _, count, rise in ring_edits(ring, n):
            if rise is not None:
                applications[op] += count
                if rise > top:
                    top = rise
        if top > worst:
            worst = top
        if rises_above(top, tol):  # monotone in the rise: some edit is above tol
            found = sorted(((rank, op, params, rise) for op, where, _, rise in ring_edits(ring, n)
                            if rise is not None and rises_above(rise, tol)
                            for rank, params in edit_applications(op, where, len(ring))),
                           key=itemgetter(0))
            source = format_edge_list(ring_graph(next(zip(*ring))))  # shapes: rows' first column
            violations += [{"op": op, "params": params, "input": source,
                            "problem": f"GA increased by {rise / SCALE!r}"}
                           for _, op, params, rise in found]
    worst_slack = 0.0 if worst == floor else worst / SCALE
    return MonotonicityReport(n, graphs, applications, worst_slack, tuple(violations))
