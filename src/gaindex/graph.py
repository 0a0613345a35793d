"""Simple undirected graphs with a unicyclic-structure toolkit.

Vertices are the integers 0..n-1. Graph values are immutable: every
structural operation returns a new Graph, so intermediate states of a
rewrite sequence can be kept side by side and compared edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple


class GraphError(ValueError):
    """Invalid graph input (bad edge, malformed edge list, ...)."""


class EdgeListError(GraphError):
    """Edge-list text could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotUnicyclicError(GraphError):
    """The operation requires a connected graph with exactly one cycle."""


# Upper bound on the order of a graph read from outside: per-vertex structures
# (adjacency, cycle search) are allocated from n, so an unchecked header
# would let a two-line file ask for gigabytes.
MAX_VERTICES = 10**6


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    @cached_property
    def adjacency(self) -> tuple:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def cycle(self) -> CycleStructure:
        """The unique cycle; raises NotUnicyclicError (on every access) otherwise."""
        if not is_unicyclic(self):
            raise NotUnicyclicError("graph is not unicyclic (connected with |E| = |V|)")
        deg = [self.degree(v) for v in range(self.n)]
        alive = [True] * self.n
        stack = [v for v in range(self.n) if deg[v] == 1]
        while stack:
            v = stack.pop()
            alive[v] = False
            for w in self.neighbors(v):
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        stack.append(w)
        on_cycle = [v for v in range(self.n) if alive[v]]
        start = min(on_cycle)
        cycle_set = set(on_cycle)
        order = [start, min(w for w in self.neighbors(start) if w in cycle_set)]
        while True:
            prev, cur = order[-2], order[-1]
            nxt = next(w for w in self.neighbors(cur) if w in cycle_set and w != prev)
            if nxt == start:
                break
            order.append(nxt)
        return CycleStructure(tuple(order), len(order))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def replace_edges(self, remove: Iterable = (), add: Iterable = ()) -> "Graph":
        """New graph of the same order with `remove` deleted, then `add` inserted."""
        edges = set(self.edges)
        edges.difference_update(norm_edge(*e) for e in remove)
        edges.update(norm_edge(*e) for e in add)
        return Graph(self.n, frozenset(edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def build_graph(n: int, edge_list: Iterable) -> Graph:
    """Validate an edge list and return the Graph it describes.

    Rejects a vertex count outside 1..MAX_VERTICES, out-of-range vertex ids,
    self-loops and duplicate pairs, naming the offending pair in the error
    message.
    """
    if n < 1:
        raise GraphError(f"vertex count must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex out of range in edge ({u}, {v}) for n={n}")
        e = norm_edge(u, v)
        if e in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(e)
    return Graph(n, frozenset(seen))


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_unicyclic(g: Graph) -> bool:
    """True iff g is connected with exactly one cycle (|E| = |V|)."""
    return g.m == g.n and is_connected(g)


@dataclass(frozen=True)
class CycleStructure:
    """The unique cycle of a unicyclic graph, in a fixed cyclic order.

    The order starts at the smallest cycle vertex id and proceeds toward the
    smaller of its two cycle neighbors, which makes downstream traces
    deterministic.
    """

    vertices: tuple
    girth: int

    @cached_property
    def position(self) -> dict:
        """Cycle vertex -> its index in `vertices`; also the membership test."""
        return {v: i for i, v in enumerate(self.vertices)}

    def cycle_neighbors(self, v: int) -> tuple[int, int]:
        """(previous, next) of cycle vertex v in the fixed cyclic order."""
        i = self.position[v]
        return self.vertices[i - 1], self.vertices[(i + 1) % self.girth]

    def walk(self, v: int, toward: int) -> tuple:
        """Every cycle vertex once, starting at v and stepping first to its
        cycle neighbor `toward`."""
        i = self.position[v]
        seq = self.vertices
        if toward == seq[(i + 1) % self.girth]:
            return seq[i:] + seq[:i]
        if toward == seq[i - 1]:
            return seq[i::-1] + seq[:i:-1]
        raise GraphError(f"vertex {toward} is not a cycle neighbor of {v}")

    def cycle_edges(self) -> tuple:
        k = self.girth
        return tuple(norm_edge(self.vertices[i], self.vertices[(i + 1) % k]) for i in range(k))


def find_cycle(g: Graph) -> CycleStructure:
    """Return the unique cycle of a unicyclic graph (cached on the graph)."""
    return g.cycle


@dataclass(frozen=True)
class PendantTree:
    """The maximal subtree hanging off one cycle vertex (the root)."""

    root: int
    vertices: frozenset
    edges: frozenset

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_star(self) -> bool:
        """True when every tree edge is incident to the root."""
        return all(self.root in e for e in self.edges)


def pendant_tree(g: Graph, v: int) -> PendantTree:
    """The maximal connected subgraph containing cycle vertex v and no other cycle vertex."""
    cycle = g.cycle
    if v not in cycle.position:
        raise GraphError(f"vertex {v} is not a cycle vertex")
    vertices = {v}
    edges = set()
    stack = [v]
    while stack:
        x = stack.pop()
        for w in g.neighbors(x):
            if w in cycle.position or w in vertices:
                continue
            vertices.add(w)
            edges.add(norm_edge(x, w))
            stack.append(w)
    return PendantTree(v, frozenset(vertices), frozenset(edges))


class VertexClass(NamedTuple):
    local_max: bool
    local_min: bool


def classify_cycle_vertex(g: Graph, v: int) -> VertexClass:
    """Compare deg(v) against its two cycle neighbors; both flags may hold at once."""
    cycle = g.cycle
    if v not in cycle.position:
        raise GraphError(f"vertex {v} is not a cycle vertex")
    a, b = cycle.cycle_neighbors(v)
    d, da, db = g.degree(v), g.degree(a), g.degree(b)
    return VertexClass(d >= max(da, db), d <= min(da, db))


def relabel(g: Graph, perm) -> Graph:
    """Apply the vertex permutation perm (old id -> new id)."""
    return Graph(g.n, frozenset(norm_edge(perm[u], perm[v]) for u, v in g.edges))


# ---------------------------------------------------------------------------
# Canonical labeling: iterated color refinement plus individualization
# backtracking, with twin pruning. Sized for graphs up to a dozen vertices.
# ---------------------------------------------------------------------------


def _refine(adj: tuple, colors: tuple) -> tuple:
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(len(adj))]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(rank[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def canonical_form(g: Graph) -> bytes:
    """A byte key equal for two graphs iff they are isomorphic."""
    n = g.n
    if n >= 256:
        raise GraphError("canonical_form supports graphs with fewer than 256 vertices")
    adj = g.adjacency
    nbr_sets = [set(a) for a in adj]
    npairs = n * (n - 1) // 2
    best: bytes | None = None

    def leaf_signature(colors: tuple) -> bytes:
        bits = bytearray((npairs + 7) // 8)
        for u, v in g.edges:
            i, j = colors[u], colors[v]
            if i > j:
                i, j = j, i
            idx = i * (2 * n - i - 1) // 2 + (j - i - 1)
            bits[idx >> 3] |= 1 << (idx & 7)
        return bytes(bits)

    def search(colors: tuple) -> None:
        nonlocal best
        colors = _refine(adj, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            sig = leaf_signature(colors)
            if best is None or sig < best:
                best = sig
            return
        # branches that individualize mutual twins are automorphic; keep one
        reps: list[int] = []
        for v in target:
            if not any(nbr_sets[v] - {u} == nbr_sets[u] - {v} for u in reps):
                reps.append(v)
        for v in reps:
            branch = list(colors)
            branch[v] = n
            search(tuple(branch))

    search(tuple([0] * n))
    assert best is not None
    return bytes([n]) + best


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-based).
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EdgeListError("expected header 'n m'", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"expected header 'n m', got {lines[0]!r}", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(f"expected two integers in header, got {lines[0]!r}", 1) from None
    edges = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"expected two integers, got {raw!r}", lineno) from None
        edges.append((u, v))
    if len(edges) != m:
        raise EdgeListError(f"header declares {m} edges but {len(edges)} were given", lineno)
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        raise EdgeListError(str(exc), lineno) from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
