"""GA-decreasing rewrites on unicyclic graphs and the reduction pipeline.

Each operator takes a unicyclic graph and returns a new unicyclic graph of
the same order whose GA index is no larger. The pipeline chains them until
the graph lands in one of the extremal families (or is a bare cycle, which
no operator can improve). Vertex ids are stable across every rewrite:
relocated vertices keep their ids and reappear as pendants of the target
vertex, so consecutive trace states can be diffed edge by edge. Each
operator is its guards plus one call, `Graph.rehang`, that moves vertices
of its input to new parents; none calls another. So a result inherits the
input's degrees and cycle structure, and no edge set: a reduction peels
its input once and builds a result's edge set only to compare or hash it.

Each operator raises PreconditionError outside its case's conditions.
Whether a cycle vertex is a local maximum or minimum of the cycle's
degrees is decided in two places that compare alike: one O(1) guard at a
given vertex for star_transform, relocate_min and arc_transform, and one
scan of the whole cycle for the sweep's choices, the pipeline and
finish_one_neighbor_deg2.
:func:`operator_applications` yields the monotonicity sweep's choices on
a graph, testing beside these guards what they test on the target
vertices: star_transform at a local maximum v; relocate_min at a local
minimum u with a local-maximum star v; arc_transform with such a v not
adjacent to u; the finishing moves at a maximal-degree star v, with both
cycle neighbors of degree 2 at girth above 3 (finish_two_neighbors_deg2)
or u the one degree-2 cycle neighbor (finish_one_neighbor_deg2). Every
choice it drops is one the operator rejects, so the sweep counts what
trying every syntactic choice counts. Only the arc's degree ordering and
the search for a second local minimum reject what it yields. The sweep
itself, verify_monotonicity, makes the same choices on each class's ring
and edits the ring's GA sum for all but the finishing moves; it calls
operator_applications only to list a violating class's applications.
operator_applications is the graph-level oracle that the tests check the
ring edits against at every choice, and the benchmark's per-operator probe
times its thunks.

Operators read no switch: reduction_pipeline re-checks GA monotonicity
at runtime for each step where it records it, when set_runtime_checks has
switched the check on. The CLI's `reduce` does; verify_monotonicity
compares GA itself. Both compare the exact sums `Graph.ga_sum`, so a no-op
rises by exactly 0. GA is cached per graph value, so the check reads the
values the step records and adds no GA evaluations.
"""

from __future__ import annotations

import json
from itertools import compress
from operator import ge, le, neg
from typing import NamedTuple

from .families import FamilySpec, classify_family
from .graph import SCALE, Graph, NotUnicyclicError, norm_edge, pendant_tree


class PreconditionError(ValueError):
    """An operator was invoked outside its stated precondition."""


class MonotonicityError(RuntimeError):
    """Runtime check caught a GA increase (should be impossible)."""


class SmallOrderError(ValueError):
    """Orders 3 and 4 are settled by inspection, not by the pipeline."""

    def __init__(self, case: str, n: int):
        super().__init__(f"order {n} is a small-order case ({case}); no reduction applies")
        self.case = case
        self.n = n


_runtime_check_tol: float | None = None


def set_runtime_checks(tol: float | None) -> None:
    """Enable (tol as slack) or disable (None) the GA check that
    reduction_pipeline makes on each step; operators are never checked."""
    global _runtime_check_tol
    _runtime_check_tol = tol


def _heaviest(g: Graph, vs: tuple) -> int:
    """The vertex of vs of largest degree, the least id among ties."""
    return min(zip(map(neg, map(g.degrees.__getitem__, vs)), vs))[1]


def _local_extremes(g: Graph) -> tuple:
    """The cycle's local maxima and minima, in order: the whole-cycle scan
    whose per-vertex form is _require_local_extreme."""
    ds = list(map(g.degrees.__getitem__, cvs := g.cycle.vertices))
    prev, succ = ds[-1:] + ds[:-1], ds[1:] + ds[:1]
    return (list(compress(cvs, map(ge, ds, map(max, prev, succ)))),
            list(compress(cvs, map(le, ds, map(min, prev, succ)))))


def _require_local_extreme(g: Graph, v: int, kind: str) -> None:
    """Reject cycle vertex v unless its degree is a local `kind` ("maximum"
    or "minimum") of the cycle's degrees: _local_extremes at one vertex, in O(1)."""
    deg = g.degrees
    d, (a, b) = deg[v], g.cycle.cycle_neighbors(v)
    if not (d >= max(deg[a], deg[b]) if kind == "maximum" else d <= min(deg[a], deg[b])):
        raise PreconditionError(f"vertex {v} is not a local {kind} on the cycle")


def _require_on_cycle(g: Graph, *xs: int) -> None:
    for x in xs:
        if x not in g.cycle.position:
            raise PreconditionError(f"vertex {x} is not a cycle vertex")


def _is_star(g: Graph, v: int) -> bool:
    """True when the pendant tree at cycle vertex v is a star centred at v."""
    # v has deg(v) - 2 children; a star when they are its whole tree
    return len(pendant_tree(g, v)) == g.degrees[v] - 1


def _require_star(g: Graph, v: int) -> None:
    if not _is_star(g, v):
        raise PreconditionError(f"pendant tree at {v} is not a star")


def _require_local_max_star(g: Graph, v: int) -> None:
    _require_local_extreme(g, v, "maximum")
    _require_star(g, v)


def _require_max_degree_star(g: Graph, v: int) -> None:
    if g.degrees[v] != max(map(g.degrees.__getitem__, g.cycle.vertices)):
        raise PreconditionError(f"vertex {v} is not of maximal cycle degree")
    _require_star(g, v)


# ---------------------------------------------------------------------------
# Primitive operators
# ---------------------------------------------------------------------------


def star_transform(g: Graph, v: int) -> Graph:
    """Flatten the pendant tree at local-maximum cycle vertex v into a star at v."""
    _require_on_cycle(g, v)
    _require_local_extreme(g, v, "maximum")
    return g.rehang(dict.fromkeys(pendant_tree(g, v)[1:], v))


def relocate_min(g: Graph, u: int, v: int) -> Graph:
    """Move the whole pendant tree of local-minimum u to pendants at v.

    Requires v to be a local maximum whose pendant tree is already a star;
    afterwards u has degree 2.
    """
    if u == v:
        raise PreconditionError("u and v must be distinct cycle vertices")
    _require_on_cycle(g, u, v)
    _require_local_max_star(g, v)
    _require_local_extreme(g, u, "minimum")
    return g.rehang(dict.fromkeys(pendant_tree(g, u)[1:], v))


def _arc_path(g: Graph, u: int, e, v: int) -> tuple:
    """The cycle path u..v through edge e; validates u, v, e against the cycle."""
    _require_on_cycle(g, u, v)
    if u == v:
        raise PreconditionError("arc endpoints must differ")
    cyc = g.cycle
    if cyc.adjacent(u, v):
        raise PreconditionError(f"vertices {u} and {v} are adjacent; no arc between them")
    e = norm_edge(*e)
    if not cyc.is_cycle_edge(*e):
        raise PreconditionError(f"edge {e} is not a cycle edge")
    pos, k = cyc.position, cyc.girth
    # d = steps from u to v in the cycle order; e lies on that forward arc
    # exactly when both of its ends are at most d steps ahead of u
    iu = pos[u]
    d = (pos[v] - iu) % k
    back, ahead = cyc.cycle_neighbors(u)
    if max((pos[x] - iu) % k for x in e) <= d:
        return cyc.walk(u, ahead)[:d + 1]
    return cyc.walk(u, back)[:k - d + 1]


def _arc_relocate(g: Graph, path: tuple) -> Graph:
    """arc_transform once its path=(u, ..., v) is chosen and v is known to be
    a local-maximum star: the guard on the interior degrees, then one rehang
    that hangs the interior cycle vertices and their pendant trees on v."""
    u, v = path[0], path[-1]
    du, dv = g.degrees[u], g.degrees[v]
    for w in path[1:-1]:
        if not du <= g.degrees[w] <= dv:
            raise PreconditionError(
                f"arc vertex {w} breaks the degree ordering: "
                f"need d({u})={du} <= d({w})={g.degrees[w]} <= d({v})={dv}"
            )
    moves = {z: v for w in path[1:-1] for z in pendant_tree(g, w)}
    return g.rehang(moves)


def arc_transform(g: Graph, u: int, e, v: int) -> Graph:
    """Relocate the (u, v)-arc through e onto local-maximum v.

    Every interior arc vertex w must satisfy d(u) <= d(w) <= d(v), and the
    pendant tree at v must be a star. The cycle gets strictly shorter; u
    ends up adjacent to v with its degree unchanged.
    """
    path = _arc_path(g, u, e, v)
    _require_local_max_star(g, v)
    return _arc_relocate(g, path)


# ---------------------------------------------------------------------------
# Finishing moves into the extremal families
# ---------------------------------------------------------------------------


def finish_two_neighbors_deg2(g: Graph, v: int) -> Graph:
    """Collapse a girth >= 4 graph whose maximal vertex v has two degree-2
    cycle neighbors into spq4 shape.

    The paper stars the heaviest remaining cycle vertex vbar, then relocates
    the one or two arcs beside it onto vbar, leaving a 4-cycle with pendants
    only at v and vbar. That chain is one rehang: every other vertex of the
    remaining cycle, their pendant trees and vbar's own tree hang on vbar.
    The chain's guards cannot fail: vbar is a local maximum, and as v's
    neighbors have degree 2, every arc vertex w has 2 <= d(w) <= d(vbar).
    """
    cyc = g.cycle
    if cyc.girth == 3:
        raise PreconditionError("girth-3 input is already in sn3 shape; nothing to finish")
    _require_on_cycle(g, v)
    _require_max_degree_star(g, v)
    a, b = cyc.cycle_neighbors(v)
    if g.degrees[a] != 2 or g.degrees[b] != 2:
        raise PreconditionError(f"both cycle neighbors of {v} must have degree 2")
    rest = cyc.walk(v, a)[2:-1]  # the cycle without v and its two neighbors
    vbar = _heaviest(g, rest)
    moves = {z: vbar for w in rest for z in pendant_tree(g, w) if z != vbar}
    return g.rehang(moves)


def finish_one_neighbor_deg2(g: Graph, v: int, u: int) -> Graph:
    """Collapse the one-degree-2-neighbor configuration into srk3 or spq4 shape.

    Requires: v of maximal cycle degree with star pendant tree, u its unique
    degree-2 cycle neighbor, and no local minimum besides u (so degrees
    grow weakly along the rest of the cycle). The paper relocates the arc
    from u to the last cycle vertex vt, bringing the girth to 3, then splits
    vt's tree between vt and v (srk3) or, when one of vt's children
    outweighs it, rebuilds it around that child on a 4-cycle (spq4). Each
    branch is one rehang that makes both moves.
    """
    _require_on_cycle(g, u, v)
    _require_max_degree_star(g, v)
    cyc = g.cycle
    a, b = cyc.cycle_neighbors(v)
    if u not in (a, b) or g.degrees[u] != 2:
        raise PreconditionError(f"vertex {u} is not a degree-2 cycle neighbor of {v}")
    other = b if u == a else a
    if g.degrees[other] == 2:
        raise PreconditionError(f"{v} has two degree-2 cycle neighbors; wrong finishing move")
    for w in _local_extremes(g)[1]:
        if w != u:
            raise PreconditionError(f"second local minimum present at vertex {w}")

    rest = cyc.walk(v, u)[2:]  # v_1 .. v_t with v_t adjacent to v
    vt = rest[-1]
    # the arc relocation hangs these on vt as leaves. It skips arc_transform's
    # gate: degrees grow weakly toward vt, which need not be a local maximum
    inner = [z for w in rest[:-1] for z in pendant_tree(g, w)]
    tree, parent, deg = pendant_tree(g, vt), cyc.parent, g.degrees
    heavy = [w for w in tree if parent[w] == vt and deg[w] > deg[vt] + len(inner)]
    if not heavy:
        # vt keeps its children and gains inner; everything deeper becomes a pendant at v
        return g.rehang({z: v for z in tree[1:] if parent[z] != vt} | dict.fromkeys(inner, vt))
    w = _heaviest(g, heavy)
    below = {w}  # w and its descendants; the tree lists parents first
    for z in tree:
        if parent[z] in below:
            below.add(z)
    # w takes vt's cycle edge to u and stars its branch; inner and the
    # rest of the tree at vt become pendants at v
    moves = {z: w if z in below else v for z in tree[1:] if z != w}
    return g.rehang(moves | dict.fromkeys(inner, v), cycle=(u, w, vt, v))


# ---------------------------------------------------------------------------
# The monotonicity sweep's choices
# ---------------------------------------------------------------------------


OPERATOR_NAMES = (
    "star_transform",
    "relocate_min",
    "arc_transform",
    "finish_two_neighbors_deg2",
    "finish_one_neighbor_deg2",
)


def operator_applications(g: Graph):
    """Yield (op, params, thunk) for each parameter choice whose targets
    pass the operator's cheap guards (see the module docstring), in the
    full syntactic sweep's order. A thunk raises PreconditionError when a
    guard the filter leaves to the operator fails.

    The two u-v arcs of each arc_transform pair are computed once and each
    thunk is bound to the arc its edge lies on. The pair's thunks share a
    dict from arc to result or rejection message, so each arc is relocated
    once and every thunk returns the same graph or raises a fresh
    PreconditionError with the same message, in any call order.
    """
    cyc = g.cycle
    cvs, pos, k = cyc.vertices, cyc.position, cyc.girth
    deg = g.degrees
    local_max, local_min = _local_extremes(g)
    local_max_stars = [v for v in local_max if _is_star(g, v)]
    top = max(deg[v] for v in cvs)
    max_degree_stars = [v for v in cvs if deg[v] == top and _is_star(g, v)]
    for v in local_max:
        yield "star_transform", {"v": v}, (lambda v=v: star_transform(g, v))
    for u in local_min:
        for v in local_max_stars:
            if u != v:
                yield "relocate_min", {"u": u, "v": v}, (lambda u=u, v=v: relocate_min(g, u, v))
    cycle_edges = cyc.cycle_edges()
    for u in cvs:
        iu = pos[u]
        back, ahead = cyc.cycle_neighbors(u)
        forward, backward = cyc.walk(u, ahead), cyc.walk(u, back)
        for v in local_max_stars:
            d = (pos[v] - iu) % k  # v is d steps ahead of u
            if not 1 < d < k - 1:  # u == v, or u and v are adjacent
                continue
            # edge i joins positions i and i + 1, so it lies on the forward
            # arc exactly when it starts fewer than d steps ahead of u
            arcs = (backward[:k - d + 1], forward[:d + 1])
            shared = {}
            for i, e in enumerate(cycle_edges):
                yield ("arc_transform", {"u": u, "e": list(e), "v": v},
                       (lambda path=arcs[(i - iu) % k < d], shared=shared:
                        _shared_arc(g, path, shared)))
    neighbors = [(v, *cyc.cycle_neighbors(v)) for v in max_degree_stars]
    for v, a, b in neighbors:
        if k > 3 and deg[a] == deg[b] == 2:
            yield ("finish_two_neighbors_deg2", {"v": v},
                   (lambda v=v: finish_two_neighbors_deg2(g, v)))
    for v, a, b in neighbors:
        for u, other in ((a, b), (b, a)):
            if deg[u] == 2 != deg[other]:
                yield ("finish_one_neighbor_deg2", {"v": v, "u": u},
                       (lambda v=v, u=u: finish_one_neighbor_deg2(g, v, u)))


def _shared_arc(g: Graph, path: tuple, shared: dict) -> Graph:
    """arc_transform once its edge has picked path=(u, ..., v) and the filter
    has kept only local-maximum stars as v, relocating each path once per
    shared dict."""
    out = shared.get(path)
    if out is None:
        try:
            out = _arc_relocate(g, path)
        except PreconditionError as exc:
            out = str(exc)
        shared[path] = out
    if isinstance(out, str):
        raise PreconditionError(out)
    return out


# ---------------------------------------------------------------------------
# The reduction pipeline
# ---------------------------------------------------------------------------


class TraceStep(NamedTuple):
    op: str
    params: dict
    ga_before: float
    ga_after: float
    graph: Graph


class TransformTrace(NamedTuple):
    input_graph: Graph
    steps: tuple
    terminal_family: FamilySpec

    @property
    def terminal_graph(self) -> Graph:
        return self.steps[-1].graph if self.steps else self.input_graph

    @property
    def ga_input(self) -> float:
        return self.input_graph.ga

    @property
    def ga_terminal(self) -> float:
        return self.terminal_graph.ga

    def to_dict(self, include_edges: bool = False) -> dict:
        def step_dict(s: TraceStep) -> dict:
            d = {
                "op": s.op,
                "params": s.params,
                "ga_before": round(s.ga_before, 9),
                "ga_after": round(s.ga_after, 9),
            }
            if include_edges:
                d["edges"] = [list(e) for e in s.graph.sorted_edges()]
            return d

        return {
            "n": self.input_graph.n,
            "ga_input": round(self.ga_input, 9),
            "steps": [step_dict(s) for s in self.steps],
            "terminal_family": {"family": self.terminal_family.family,
                                "params": list(self.terminal_family.params)},
            "ga_terminal": round(self.ga_terminal, 9),
        }

    def to_json(self, include_edges: bool = False) -> str:
        return json.dumps(self.to_dict(include_edges), indent=2, sort_keys=True) + "\n"

    def to_text(self, include_edges: bool = False) -> str:
        lines = [f"input: n={self.input_graph.n} m={self.input_graph.m} GA={self.ga_input:.9f}"]
        for i, s in enumerate(self.steps, start=1):
            params = ", ".join(f"{k}={v}" for k, v in s.params.items())
            lines.append(f"step {i}: {s.op}({params})  GA {s.ga_before:.9f} -> {s.ga_after:.9f}")
            if include_edges:
                lines.append("  edges: " + " ".join(f"{u}-{v}" for u, v in s.graph.sorted_edges()))
        lines.append(f"terminal: {self.terminal_family.label()}  GA={self.ga_terminal:.9f}")
        return "\n".join(lines) + "\n"


def reduction_pipeline(g: Graph) -> TransformTrace:
    """Drive g down to sn3 / spq4 / srk3 (or report a bare cycle).

    Orders 3 and 4 raise SmallOrderError: the bound there is settled by
    listing all graphs (C_3; C_4 and the paw).
    """
    try:
        bare_cycle = g.cycle.girth == g.n
    except NotUnicyclicError:
        raise NotUnicyclicError("reduction pipeline needs a unicyclic input") from None
    if g.n < 5:
        # C_3 is the only graph of order 3; order 4 has C_4 and the paw
        raise SmallOrderError(f"C{g.n}" if bare_cycle else "paw", g.n)

    if bare_cycle:
        # a bare cycle is the GA maximum; every cycle vertex is at once a
        # local minimum and maximum and no rewrite strictly applies
        return TransformTrace(g, (), FamilySpec("cycle", (g.n,)))

    steps = []
    cur = g

    def apply(op, **params) -> None:
        # params are exactly the call's keyword arguments, so each trace
        # step replays as op(previous graph, **params)
        nonlocal cur
        nxt = op(cur, **params)
        if _runtime_check_tol is not None and (nxt.ga_sum - cur.ga_sum) / SCALE > _runtime_check_tol:
            raise MonotonicityError(f"{op.__name__} raised GA from {cur.ga!r} to {nxt.ga!r}")
        steps.append(TraceStep(op.__name__, params, cur.ga, nxt.ga, nxt))
        cur = nxt

    v = _heaviest(cur, cur.cycle.vertices)
    apply(star_transform, v=v)

    cvs = cur.cycle.vertices  # the least degree other than v's, the least id among ties
    u = min(compress(zip(map(cur.degrees.__getitem__, cvs), cvs), map(v.__ne__, cvs)))[1]
    apply(relocate_min, u=u, v=v)

    if not cur.cycle.adjacent(u, v):
        apply(arc_transform, u=u, e=[v, min(cur.cycle.cycle_neighbors(v))], v=v)

    for _ in range(g.n):
        cyc = cur.cycle
        a, b = cyc.cycle_neighbors(v)
        if cur.degrees[a] == 2 and cur.degrees[b] == 2:
            if cyc.girth > 3:
                apply(finish_two_neighbors_deg2, v=v)
            break
        minima = [w for w in _local_extremes(cur)[1] if w not in (u, v)]
        if not minima:
            apply(finish_one_neighbor_deg2, v=v, u=u)
            break
        ubar = min(minima)
        apply(relocate_min, u=ubar, v=v)
        if not cur.cycle.adjacent(ubar, v):
            na, nb = cur.cycle.cycle_neighbors(v)
            apply(arc_transform, u=ubar, e=[v, nb if na == u else na], v=v)
    else:  # pragma: no cover - the loop settles in at most two passes
        raise RuntimeError("local-minimum elimination failed to converge")

    terminal = classify_family(cur)
    if terminal is None:  # pragma: no cover - would be a pipeline bug
        raise RuntimeError(f"pipeline terminal is not a recognized family: {cur!r}")
    return TransformTrace(g, tuple(steps), terminal)
