"""GA-decreasing rewrites on unicyclic graphs and the reduction pipeline.

Each operator takes a unicyclic graph and returns a new unicyclic graph of
the same order whose GA index is no larger. The pipeline chains them until
the graph lands in one of the extremal families (or is a bare cycle, which
no operator can improve). Vertex ids are stable across every rewrite:
relocated vertices keep their ids and reappear as pendants of the target
vertex, so consecutive trace states can be diffed edge by edge. Each
rewrite moves vertices to new parents through one call, `Graph.rehang`,
so its result inherits the input's degrees and cycle structure, and no
edge set: a reduction peels its input once and builds a result's edges
only to print, compare or hash it.

Each operator raises PreconditionError outside its case's conditions.
:func:`operator_applications` yields the monotonicity sweep's choices,
testing beside these guards what they test on the target vertices:
star_transform at a local maximum v; relocate_min at a local minimum u
with a local-maximum star v; arc_transform with such a v not adjacent to
u; the finishing moves at a maximal-degree star v, with both cycle
neighbors of degree 2 at girth above 3 (finish_two_neighbors_deg2) or u
the one degree-2 cycle neighbor (finish_one_neighbor_deg2). Every choice
it drops is one the operator rejects, so the sweep counts what trying
every syntactic choice counts. Only the arc's degree ordering and the
search for a second local minimum reject what it yields.

Operators optionally re-check GA monotonicity at runtime (see
set_runtime_checks); the CLI's `reduce` and the benchmark's replay of its
trace switch the check on, while verify_monotonicity compares GA itself.
GA is cached per graph value, so the checks read the same values the
pipeline records and add no GA evaluations.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .families import FamilySpec, classify_family
from .graph import (
    Graph,
    NotUnicyclicError,
    classify_cycle_vertex,
    norm_edge,
    pendant_tree,
)


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
    """Enable (tol as slack) or disable (None) per-operator GA checks."""
    global _runtime_check_tol
    _runtime_check_tol = tol


def _check_monotone(op: str, before: Graph, after: Graph) -> Graph:
    if _runtime_check_tol is not None and after.ga > before.ga + _runtime_check_tol:
        raise MonotonicityError(f"{op} raised GA from {before.ga!r} to {after.ga!r}")
    return after


def _require_on_cycle(g: Graph, *xs: int) -> None:
    for x in xs:
        if x not in g.cycle.position:
            raise PreconditionError(f"vertex {x} is not a cycle vertex")


def _is_star(g: Graph, v: int) -> bool:
    """True when the pendant tree at cycle vertex v is a star centred at v."""
    # v has deg(v) - 2 children; a star when they are its whole tree
    return len(pendant_tree(g, v)) == g.degree(v) - 1


def _require_star(g: Graph, v: int) -> None:
    if not _is_star(g, v):
        raise PreconditionError(f"pendant tree at {v} is not a star")


def _require_local_max_star(g: Graph, v: int) -> None:
    if not classify_cycle_vertex(g, v).local_max:
        raise PreconditionError(f"vertex {v} is not a local maximum on the cycle")
    _require_star(g, v)


def _require_max_degree_star(g: Graph, v: int) -> None:
    if g.degree(v) != max(g.degree(w) for w in g.cycle.vertices):
        raise PreconditionError(f"vertex {v} is not of maximal cycle degree")
    _require_star(g, v)


# ---------------------------------------------------------------------------
# Primitive operators
# ---------------------------------------------------------------------------


def star_transform(g: Graph, v: int) -> Graph:
    """Flatten the pendant tree at local-maximum cycle vertex v into a star at v."""
    _require_on_cycle(g, v)
    if not classify_cycle_vertex(g, v).local_max:
        raise PreconditionError(f"vertex {v} is not a local maximum on the cycle")
    return _check_monotone("star_transform", g, g.rehang(dict.fromkeys(pendant_tree(g, v)[1:], v)))


def relocate_min(g: Graph, u: int, v: int) -> Graph:
    """Move the whole pendant tree of local-minimum u to pendants at v.

    Requires v to be a local maximum whose pendant tree is already a star;
    afterwards u has degree 2.
    """
    if u == v:
        raise PreconditionError("u and v must be distinct cycle vertices")
    _require_on_cycle(g, u, v)
    _require_local_max_star(g, v)
    if not classify_cycle_vertex(g, u).local_min:
        raise PreconditionError(f"vertex {u} is not a local minimum on the cycle")
    return _check_monotone("relocate_min", g, g.rehang(dict.fromkeys(pendant_tree(g, u)[1:], v)))


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


def _arc_rewire(g: Graph, path: tuple) -> Graph:
    """Structural arc relocation along path=(u, ..., v), without GA preconditions.

    Interior pendant trees and interior cycle vertices become pendants of v;
    v takes over the cycle position next to u, shortening the cycle by
    len(path) - 2 edges. A two-vertex path (u, v) changes nothing and
    returns g itself.
    """
    u, *interiors, v = path
    moves = {z: v for w in interiors for z in pendant_tree(g, w)}
    cycle = (u,) + g.cycle.walk(u, path[1])[len(path) - 1:]  # u, v, ... without interiors
    return g.rehang(moves, remove=zip(path, path[1:]), add=[(u, v)], cycle=cycle)


def _arc_relocate(g: Graph, path: tuple) -> Graph:
    """arc_transform once its path=(u, ..., v) is chosen and v is known to be
    a local-maximum star: the guard on the interior degrees, then the rewire."""
    u, v = path[0], path[-1]
    du, dv = g.degree(u), g.degree(v)
    for w in path[1:-1]:
        if not du <= g.degree(w) <= dv:
            raise PreconditionError(
                f"arc vertex {w} breaks the degree ordering: "
                f"need d({u})={du} <= d({w})={g.degree(w)} <= d({v})={dv}"
            )
    return _check_monotone("arc_transform", g, _arc_rewire(g, path))


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

    The heaviest remaining cycle vertex gets starred, then one or two arc
    relocations pull the rest of the cycle onto it, leaving a 4-cycle with
    pendants only at v and at that vertex.
    """
    cyc = g.cycle
    if cyc.girth == 3:
        raise PreconditionError("girth-3 input is already in sn3 shape; nothing to finish")
    _require_on_cycle(g, v)
    _require_max_degree_star(g, v)
    a, b = cyc.cycle_neighbors(v)
    if g.degree(a) != 2 or g.degree(b) != 2:
        raise PreconditionError(f"both cycle neighbors of {v} must have degree 2")
    u, ubar = min(a, b), max(a, b)
    rest = cyc.walk(v, u)[2:-1]  # v_1 .. v_t, v_1 adjacent to u, v_t to ubar
    vbar = min(rest, key=lambda w: (-g.degree(w), w))
    cur = star_transform(g, vbar)
    if vbar != rest[0]:
        cur = arc_transform(cur, u, (u, rest[0]), vbar)
    if vbar != rest[-1]:
        cur = arc_transform(cur, ubar, (ubar, rest[-1]), vbar)
    return _check_monotone("finish_two_neighbors_deg2", g, cur)


def finish_one_neighbor_deg2(g: Graph, v: int, u: int) -> Graph:
    """Collapse the one-degree-2-neighbor configuration into srk3 or spq4 shape.

    Requires: v of maximal cycle degree with star pendant tree, u its unique
    degree-2 cycle neighbor, and no local minimum besides u (so degrees
    grow weakly along the rest of the cycle). An arc relocation brings the
    girth to 3 with all remaining weight on the last cycle vertex; its tree
    is then split between itself and v (srk3) or, when one of its tree
    neighbors outweighs it, rebuilt around that neighbor on a 4-cycle (spq4).
    """
    _require_on_cycle(g, u, v)
    _require_max_degree_star(g, v)
    cyc = g.cycle
    a, b = cyc.cycle_neighbors(v)
    if u not in (a, b) or g.degree(u) != 2:
        raise PreconditionError(f"vertex {u} is not a degree-2 cycle neighbor of {v}")
    other = b if u == a else a
    if g.degree(other) == 2:
        raise PreconditionError(f"{v} has two degree-2 cycle neighbors; wrong finishing move")
    for w in cyc.vertices:
        if w != u and classify_cycle_vertex(g, w).local_min:
            raise PreconditionError(f"second local minimum present at vertex {w}")

    rest = cyc.walk(v, u)[2:]  # v_1 .. v_t with v_t adjacent to v
    # degrees grow weakly toward rest[-1]; this arc relocation is the one
    # place the target need not be a local maximum, hence no arc_transform
    # precondition gate here
    cur = _arc_rewire(g, (u,) + rest)
    vt = rest[-1]

    tree = pendant_tree(cur, vt)
    parent = cur.cycle.parent
    heavy = [w for w in tree if parent[w] == vt and cur.degree(w) > cur.degree(vt)]
    if not heavy:
        # keep vt's direct children, everything deeper becomes a pendant at v
        cur = cur.rehang({z: v for z in tree[1:] if parent[z] != vt})
    else:
        w = min(heavy, key=lambda x: (-cur.degree(x), x))
        below = {w}  # w and its descendants; the tree lists parents first
        for z in tree:
            if parent[z] in below:
                below.add(z)
        # w takes vt's cycle edge to u and stars its branch; the rest of the
        # tree at vt becomes pendants at v
        moves = {z: w if z in below else v for z in tree[1:] if z != w}
        cur = cur.rehang(moves, remove=[(u, vt)], add=[(u, w)], cycle=(u, w, vt, v))
    return _check_monotone("finish_one_neighbor_deg2", g, cur)


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
    classes = [classify_cycle_vertex(g, v) for v in cvs]
    local_max = [v for v, c in zip(cvs, classes) if c.local_max]
    local_min = [v for v, c in zip(cvs, classes) if c.local_min]
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
                d["edges"] = [list(e) for e in sorted(s.graph.edges)]
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
                lines.append("  edges: " + " ".join(f"{u}-{v}" for u, v in sorted(s.graph.edges)))
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
        steps.append(TraceStep(op.__name__, params, cur.ga, nxt.ga, nxt))
        cur = nxt

    v = min(cur.cycle.vertices, key=lambda w: (-cur.degree(w), w))
    apply(star_transform, v=v)

    u = min((w for w in cur.cycle.vertices if w != v), key=lambda w: (cur.degree(w), w))
    apply(relocate_min, u=u, v=v)

    if not cur.cycle.adjacent(u, v):
        apply(arc_transform, u=u, e=[v, min(cur.cycle.cycle_neighbors(v))], v=v)

    config = None
    for _ in range(g.n):
        cyc = cur.cycle
        a, b = cyc.cycle_neighbors(v)
        if cur.degree(a) == 2 and cur.degree(b) == 2:
            config = "both"
            break
        minima = [w for w in cyc.vertices
                  if w not in (u, v) and classify_cycle_vertex(cur, w).local_min]
        if not minima:
            config = "one"
            break
        ubar = min(minima)
        apply(relocate_min, u=ubar, v=v)
        if not cur.cycle.adjacent(ubar, v):
            na, nb = cur.cycle.cycle_neighbors(v)
            apply(arc_transform, u=ubar, e=[v, nb if na == u else na], v=v)
    else:  # pragma: no cover - the loop settles in at most two passes
        raise RuntimeError("local-minimum elimination failed to converge")

    if config == "both":
        if cur.cycle.girth > 3:
            apply(finish_two_neighbors_deg2, v=v)
    else:
        apply(finish_one_neighbor_deg2, v=v, u=u)

    terminal = classify_family(cur)
    if terminal is None:  # pragma: no cover - would be a pipeline bug
        raise RuntimeError(f"pipeline terminal is not a recognized family: {cur!r}")
    return TransformTrace(g, tuple(steps), terminal)
