"""GA-decreasing rewrites on unicyclic graphs and the reduction pipeline.

Each operator takes a unicyclic graph and returns a new unicyclic graph of
the same order whose GA index is no larger. The pipeline chains them until
the graph lands in one of the extremal families (or is a bare cycle, which
no operator can improve). Vertex ids are stable across every rewrite:
relocated vertices keep their ids and reappear as pendants of the target
vertex, so consecutive trace states can be diffed edge by edge.

Operators optionally re-check GA monotonicity at runtime (see
set_runtime_checks), which turns the decrease guarantees into executable
assertions during long sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .families import FamilySpec, classify_family
from .graph import (
    Graph,
    NotUnicyclicError,
    classify_cycle_vertex,
    is_unicyclic,
    norm_edge,
    pendant_tree,
)
from .indices import ga_index


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
    if _runtime_check_tol is not None:
        ga0, ga1 = ga_index(before), ga_index(after)
        if ga1 > ga0 + _runtime_check_tol:
            raise MonotonicityError(f"{op} raised GA from {ga0!r} to {ga1!r}")
    return after


def _require_on_cycle(g: Graph, *xs: int) -> None:
    for x in xs:
        if x not in g.cycle.position:
            raise PreconditionError(f"vertex {x} is not a cycle vertex")


def _require_local_max_star(g: Graph, v: int) -> None:
    if not classify_cycle_vertex(g, v).local_max:
        raise PreconditionError(f"vertex {v} is not a local maximum on the cycle")
    if not pendant_tree(g, v).is_star():
        raise PreconditionError(f"pendant tree at {v} is not a star")


def _require_max_degree_star(g: Graph, v: int) -> None:
    if g.degree(v) != max(g.degree(w) for w in g.cycle.vertices):
        raise PreconditionError(f"vertex {v} is not of maximal cycle degree")
    if not pendant_tree(g, v).is_star():
        raise PreconditionError(f"pendant tree at {v} is not a star")


# ---------------------------------------------------------------------------
# Primitive operators
# ---------------------------------------------------------------------------


def star_transform(g: Graph, v: int) -> Graph:
    """Flatten the pendant tree at local-maximum cycle vertex v into a star at v."""
    _require_on_cycle(g, v)
    if not classify_cycle_vertex(g, v).local_max:
        raise PreconditionError(f"vertex {v} is not a local maximum on the cycle")
    tree = pendant_tree(g, v)
    new = g.replace_edges(tree.edges, ((v, w) for w in tree.vertices if w != v))
    return _check_monotone("star_transform", g, new)


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
    tree = pendant_tree(g, u)
    new = g.replace_edges(tree.edges, ((v, w) for w in tree.vertices if w != u))
    return _check_monotone("relocate_min", g, new)


def _arc_path(g: Graph, u: int, e, v: int) -> tuple:
    """The cycle path u..v through edge e; validates u, v, e against the cycle."""
    _require_on_cycle(g, u, v)
    if u == v:
        raise PreconditionError("arc endpoints must differ")
    if g.has_edge(u, v):
        raise PreconditionError(f"vertices {u} and {v} are adjacent; no arc between them")
    e = norm_edge(*e)
    cyc = g.cycle
    pos, k = cyc.position, cyc.girth
    if not (e[0] in pos and e[1] in pos and (pos[e[0]] - pos[e[1]]) % k in (1, k - 1)):
        raise PreconditionError(f"edge {e} is not a cycle edge")
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
    len(path) - 2 edges.
    """
    u, v = path[0], path[-1]
    interiors = path[1:-1]
    removed = {norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1)}
    added = {norm_edge(u, v)}
    added.update(norm_edge(v, w) for w in interiors)
    for w in interiors:
        tree = pendant_tree(g, w)
        removed |= tree.edges
        added.update(norm_edge(v, z) for z in tree.vertices if z != w)
    return g.replace_edges(removed, added)


def arc_transform(g: Graph, u: int, e, v: int) -> Graph:
    """Relocate the (u, v)-arc through e onto local-maximum v.

    Every interior arc vertex w must satisfy d(u) <= d(w) <= d(v), and the
    pendant tree at v must be a star. The cycle gets strictly shorter; u
    ends up adjacent to v with its degree unchanged.
    """
    path = _arc_path(g, u, e, v)
    _require_local_max_star(g, v)
    du, dv = g.degree(u), g.degree(v)
    for w in path[1:-1]:
        if not du <= g.degree(w) <= dv:
            raise PreconditionError(
                f"arc vertex {w} breaks the degree ordering: "
                f"need d({u})={du} <= d({w})={g.degree(w)} <= d({v})={dv}"
            )
    new = _arc_rewire(g, path)
    return _check_monotone("arc_transform", g, new)


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
    vbar = min((w for w in rest), key=lambda w: (-g.degree(w), w))
    cur = star_transform(g, vbar)
    if len(rest) > 1:
        if vbar == rest[0]:
            cur = arc_transform(cur, ubar, (ubar, rest[-1]), vbar)
        elif vbar == rest[-1]:
            cur = arc_transform(cur, u, (u, rest[0]), vbar)
        else:
            cur = arc_transform(cur, u, (u, rest[0]), vbar)
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
    if len(rest) == 1:
        cur = g
    else:
        # degrees grow weakly toward rest[-1]; the arc relocation below is the
        # one place the target need not be a local maximum, hence no
        # arc_transform precondition gate here
        path = (u,) + rest
        cur = _arc_rewire(g, path)
    vt = rest[-1]

    tree = pendant_tree(cur, vt)
    children = [w for w in cur.neighbors(vt) if w in tree.vertices]
    heavy = [w for w in children if cur.degree(w) > cur.degree(vt)]
    if not heavy:
        # keep vt's direct children, everything deeper becomes a pendant at v
        removed = {e for e in tree.edges if vt not in e}
        moved = [z for z in tree.vertices if z != vt and z not in children]
        cur = cur.replace_edges(removed, ((v, z) for z in moved))
    else:
        w = min(heavy, key=lambda x: (-cur.degree(x), x))
        # subtree of the tree at vt hanging below w
        sub_vertices = {w}
        stack = [w]
        while stack:
            x = stack.pop()
            for y in cur.neighbors(x):
                if y in tree.vertices and y != vt and y not in sub_vertices:
                    sub_vertices.add(y)
                    stack.append(y)
        sub_edges = {e for e in tree.edges if e[0] in sub_vertices and e[1] in sub_vertices}
        moved_to_v = tree.edges - sub_edges - {norm_edge(w, vt)}
        moved_vertices = [z for z in tree.vertices if z != vt and z not in sub_vertices]
        removed = {norm_edge(u, vt)} | moved_to_v | sub_edges
        added = {norm_edge(u, w)}
        added.update(norm_edge(v, z) for z in moved_vertices)
        added.update(norm_edge(w, z) for z in sub_vertices if z != w)
        cur = cur.replace_edges(removed, added)
    return _check_monotone("finish_one_neighbor_deg2", g, cur)


# ---------------------------------------------------------------------------
# The reduction pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    op: str
    params: dict
    ga_before: float
    ga_after: float
    graph: Graph


@dataclass(frozen=True)
class TransformTrace:
    input_graph: Graph
    steps: tuple
    terminal_family: FamilySpec

    @property
    def terminal_graph(self) -> Graph:
        return self.steps[-1].graph if self.steps else self.input_graph

    @property
    def ga_input(self) -> float:
        return self.steps[0].ga_before if self.steps else ga_index(self.input_graph)

    @property
    def ga_terminal(self) -> float:
        return self.steps[-1].ga_after if self.steps else self.ga_input

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
    if not is_unicyclic(g):
        raise NotUnicyclicError("reduction pipeline needs a unicyclic input")
    if g.n < 5:
        if g.n == 3:
            case = "C3"
        else:
            case = "C4" if all(g.degree(v) == 2 for v in range(g.n)) else "paw"
        raise SmallOrderError(case, g.n)

    if all(g.degree(v) == 2 for v in range(g.n)):
        # a bare cycle is the GA maximum; every cycle vertex is at once a
        # local minimum and maximum and no rewrite strictly applies
        return TransformTrace(g, (), FamilySpec("cycle", (g.n,)))

    steps = []
    cur, ga_cur = g, ga_index(g)

    def apply(op, **params) -> None:
        # params are exactly the call's keyword arguments, so each trace
        # step replays as op(previous graph, **params)
        nonlocal cur, ga_cur
        nxt = op(cur, **params)
        ga_nxt = ga_index(nxt)
        steps.append(TraceStep(op.__name__, params, ga_cur, ga_nxt, nxt))
        cur, ga_cur = nxt, ga_nxt

    v = min(cur.cycle.vertices, key=lambda w: (-cur.degree(w), w))
    apply(star_transform, v=v)

    u = min((w for w in cur.cycle.vertices if w != v), key=lambda w: (cur.degree(w), w))
    apply(relocate_min, u=u, v=v)

    if not cur.has_edge(u, v):
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
        if not cur.has_edge(ubar, v):
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
