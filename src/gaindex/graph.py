"""Simple undirected graphs with a unicyclic-structure toolkit.

Vertices are the integers 0..n-1. Graph values are immutable: every
structural operation returns a new Graph, so intermediate states of a
rewrite sequence can be kept side by side and compared edge by edge.
Each value is built by one constructor, Graph(degrees, ends=None,
cycle=None), from its degrees and its ends or cycle structure: here from an
edge list (`build_graph`, which hands over each edge's lesser and greater
end as two int lists) or by a rewrite (`Graph.rehang`); the rings module
builds a ring's value the same way. Only an edge list's value peels: one
leaf peeling finds the cycle, each tree vertex's parent toward it and the
pendant trees. A ring's value reads them off the ring and a rewrite's
result derives them from its input's. No value holds an edge set
from the start: each builds its frozenset of edge tuples only when it is
compared, hashed or read. No value holds neighbor lists: the peel sums
each vertex's live-neighbor ids over the lists of ends, and other modules
read pendant trees and adjacency from the structure. GA is summed over the
lists of ends, or over the cycle and then tree by tree, a star in closed
form.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable


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
# (degrees, the peel's neighbor-id sums) are allocated from n, so an unchecked
# header would let a two-line file ask for gigabytes.
MAX_VERTICES = 10**6

_NOT_UNICYCLIC = "graph is not unicyclic (connected with |E| = |V|)"


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# GA sums are exact integers in units of 1/SCALE. For degrees below
# MAX_VERTICES every term is at least that of degrees 1 and MAX_VERTICES - 1,
# about 0.0019999990 > 2**-9, so its float has an exponent of -9 or more and
# is a multiple of 2**-61: each term converts without rounding, and a sum of
# up to 10**6 terms stays below 2**84. int true division rounds correctly, as
# math.fsum does, so sum / SCALE is the correctly rounded GA.
SCALE = 1 << 64


@lru_cache(maxsize=1 << 12)  # bounded: outside graphs bring degrees up to MAX_VERTICES
def ga_term(du: int, dv: int) -> int:
    """The GA term 2*sqrt(du*dv)/(du+dv) of an edge whose ends have degrees
    du and dv, the correctly rounded float times SCALE: an exact integer.

    The product du*dv is exact below 2**53, and the sqrt and the division
    each round once to nearest, so the term is within a relative 2**-52 of
    the real 2*sqrt(du*dv)/(du+dv). Raises ValueError when the float is not
    a multiple of 1/SCALE, which no pair of degrees below MAX_VERTICES gives."""
    num, den = (2.0 * math.sqrt(du * dv) / (du + dv)).as_integer_ratio()
    if den > SCALE:
        raise ValueError(f"the GA term of degrees {du} and {dv} is finer than 1/SCALE")
    return num * (SCALE // den)


def scaled_tol(tol: float) -> int:
    """tol times SCALE, rounded down, for verify_bounds: an integer x exceeds
    tol * SCALE exactly when it exceeds this. Raises ValueError unless tol is finite."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    num, den = tol.as_integer_ratio()
    return num * SCALE // den  # never tol * SCALE: a float overflow


def rises_above(diff: int, tol: float) -> bool:
    """diff / SCALE > tol, dividing only when it can hold: the test of an exact
    GA rise in the monotonicity sweep and the pipeline. NaN is never exceeded."""
    return (diff > 0 or tol < 0) and diff / SCALE > tol


class Graph:
    """An immutable simple graph on vertices 0..n-1. It holds n, m, its
    degrees and its ends, and caches its frozenset of edges (u, v) with
    u < v, which decide equality and the hash and are built on first read,
    its cycle structure and its GA, exact and as a float. `ends` is the pair
    of int lists (lo, hi) whose i-th entries are the i-th input edge's
    lesser and greater end, or None for a unicyclic value built from its
    cycle structure, which the constructor stores as the cached cycle."""

    def __init__(self, degrees: tuple, ends: tuple | None = None,
                 cycle: CycleStructure | None = None):
        self.n, self.degrees, self.ends = len(degrees), degrees, ends
        if cycle is None:
            self.m = len(ends[0])
        else:
            self.cycle, self.m = cycle, self.n  # unicyclic

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def _pairs(self):
        """Every edge once as (u, v) with u < v: the ends zipped, or a structure
        value's cycle edges and parent edges."""
        if self.ends is not None:
            return zip(*self.ends)
        cyc = self.cycle  # given to the constructor
        vs = cyc.vertices
        pairs = chain(zip(vs, vs[1:] + vs[:1]),
                      ((z, p) for z, p in enumerate(cyc.parent) if p is not None))
        return ((u, v) if u < v else (v, u) for u, v in pairs)

    @cached_property
    def edges(self) -> frozenset:  # built on first read: ==, hash, has_edge, ...
        return frozenset(self._pairs())

    def sorted_edges(self) -> list:
        """The edges in order, sorted from the ends or the structure, with no set."""
        return sorted(self._pairs())

    @cached_property
    def cycle(self) -> CycleStructure:  # an edge-list value's: others set it in __init__
        """The unique cycle; raises NotUnicyclicError (on every access) otherwise.

        Peeling leaves deletes every tree component and leaves the 2-core of
        every other component, with deg[v] the degree of v in it (0 off it).
        Each tree component has one edge fewer than vertices, so with m == n
        the graph is connected and unicyclic exactly when what remains is one cycle.
        link[v] is the sum of the ids of v's live neighbors: a leaf's is its
        one live neighbor, its parent in its pendant tree, and a cycle
        vertex's the sum of its two cycle neighbors, so the walk steps to
        link[cur] - prev. The least cycle vertex is the lesser end of both
        its cycle edges: the first edge at it in `lo` whose other end is not
        peeled gives one, link[start] less that one the other. The peel
        reversed lists each tree vertex after its parent: one pass over it
        gives every vertex's root and every pendant tree.
        """
        n = self.n
        if self.m != n:
            raise NotUnicyclicError(_NOT_UNICYCLIC)
        deg = list(self.degrees)
        link = [0] * n
        lo, hi = self.ends
        for u, v in zip(lo, hi):
            link[u] += v
            link[v] += u
        parent = [None] * n
        leaves = [v for v in range(n) if deg[v] == 1]
        for v in leaves:  # the list grows as peeling exposes new leaves
            if deg[v]:  # 0 when its one neighbor, also a leaf, was peeled first
                w = parent[v] = link[v]
                deg[v] = 0
                deg[w] -= 1
                link[w] -= v
                if deg[w] == 1:
                    leaves.append(w)
        on_cycle = [v for v in range(n) if deg[v]]
        if not on_cycle or any(deg[v] != 2 for v in on_cycle):
            raise NotUnicyclicError(_NOT_UNICYCLIC)
        start = on_cycle[0]
        i = lo.index(start)
        while not deg[hi[i]]:  # a peeled child of start
            i = lo.index(start, i + 1)
        first = hi[i]
        prev, cur = start, min(first, link[start] - first)
        order = [start]
        while cur != start:
            order.append(cur)
            prev, cur = cur, link[cur] - prev
        if len(order) != len(on_cycle):
            raise NotUnicyclicError(_NOT_UNICYCLIC)
        root = list(range(n))
        trees = {v: [v] for v in order}
        for z in reversed(leaves):
            r = root[z] = root[parent[z]]
            trees[r].append(z)
        return CycleStructure(tuple(order), tuple(parent), tuple(root),
                              {v: tuple(t) for v, t in trees.items()},
                              {v: i for i, v in enumerate(order)})

    @cached_property
    def ga_sum(self) -> int:
        """The GA index times SCALE, exactly: the sum of ga_term over the edges.
        A structure value sums its cycle edges, then tree by tree: a root of
        degree 2 has no tree edge, and a star root of degree d has d - 2
        edges to leaves, each of term ga_term(d, 1)."""
        deg = self.degrees
        if self.ends is not None:
            return sum([ga_term(deg[u], deg[v]) for u, v in zip(*self.ends)])
        cyc = self.cycle
        vs, parent = cyc.vertices, cyc.parent
        total = sum([ga_term(deg[u], deg[v]) for u, v in zip(vs, vs[1:] + vs[:1])])
        for r, tree in cyc.trees.items():
            d = deg[r]
            if d == 2:
                continue
            if len(tree) == d - 1:  # a star: its d - 2 children are leaves
                total += (d - 2) * ga_term(d, 1)
            else:
                for z in tree[1:]:
                    total += ga_term(deg[z], deg[parent[z]])
        return total

    @cached_property
    def ga(self) -> float:
        """The GA index, ga_sum / SCALE correctly rounded (0.0 without edges)."""
        return self.ga_sum / SCALE

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def rehang(self, moves: dict, cycle: tuple | None = None) -> "Graph":
        """Hang each vertex z in `moves` as a leaf on moves[z], a cycle vertex
        of the result; a tree vertex in `moves` loses the edge to its parent.

        A moved cycle vertex leaves the cycle, and the remaining cycle
        vertices close up in their old order. `cycle` is passed only when a
        tree vertex joins the cycle: it is the new cycle in cyclic order, its
        gained vertices are not in `moves` and the cycle vertices it drops
        are. Every descendant of a moved or gained vertex is in `moves`. The
        edge edits come from comparing the old cycle with the new one: an old
        cycle edge the new cycle lacks is removed, and a new cycle edge that
        is not an edge of this value is added. As every cycle vertex has two
        cycle edges, the edits change the degrees of three kinds of vertex
        only: a dropped vertex loses its two, a gained one trades its parent
        edge for two, and a gained one's parent loses that child. The
        result's degrees and structure are derived from this value's: trees
        are filtered by new root and extended by their new leaves, and an
        unchanged cycle shares `position`. A move onto a vertex's own parent
        edits no edge but may change its root, so it is kept. A no-op
        returns self.
        """
        cyc = self.cycle
        parent, root, deg = list(cyc.parent), list(cyc.root), list(self.degrees)
        sources, leaves, dropped, moved = set(), {}, [], False
        for z, p in moves.items():
            q, r = parent[z], root[z]
            if q != p:
                moved = True
                deg[p] += 1
                if q is None:  # z leaves the cycle: one parent edge for two cycle edges
                    deg[z] -= 1
                    dropped.append(z)
                else:
                    deg[q] -= 1
            if r != p:
                sources.add(r)
                leaves.setdefault(p, []).append(z)
            parent[z] = root[z] = p
        vertices, position = cyc.vertices, cyc.position
        gained = () if cycle is None else set(cycle).difference(position)
        if not (moved or gained):
            return self
        trees = dict(cyc.trees)
        if dropped or gained:
            if cycle is None:
                cycle = [v for v in vertices if parent[v] is None]
            for z in gained:  # two cycle edges for its parent edge, which its parent loses
                deg[z] += 1
                deg[parent[z]] -= 1
                sources.add(root[z])
                parent[z], root[z], trees[z] = None, z, (z,)
            for z in dropped:
                del trees[z]
            i = cycle.index(min(cycle))  # the fixed order, as Graph.cycle walks it
            vertices = tuple(cycle[i:] + cycle[:i])
            if vertices[-1] < vertices[1]:
                vertices = vertices[:1] + vertices[:0:-1]
            position = {v: i for i, v in enumerate(vertices)}
        for r in sources:
            if r in trees:  # a source tree still on the cycle
                trees[r] = tuple(z for z in trees[r] if root[z] == r)
        for p, zs in leaves.items():
            trees[p] += tuple(zs)
        return Graph(tuple(deg), cycle=CycleStructure(vertices, tuple(parent), tuple(root),
                                                      trees, position))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def build_graph(n: int, edge_list: Iterable) -> Graph:
    """Validate an edge list and return the Graph it describes.

    Rejects a vertex count that is not an int in 1..MAX_VERTICES, vertex ids
    that are not ints in 0..n-1 (a bool is not an int here), self-loops and
    duplicate pairs, naming the offending value or pair in the error message.
    """
    if n.__class__ is not int:
        raise GraphError(f"vertex count must be an integer, got {n!r}")
    if n < 1:
        raise GraphError(f"vertex count must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    seen: set[int] = set()  # u * n + v for each edge (u, v) with u < v
    deg = [0] * n
    lo, hi = [], []
    for u, v in edge_list:
        if u.__class__ is not int or v.__class__ is not int:
            raise GraphError(f"non-integer vertex in edge ({u!r}, {v!r})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex out of range in edge ({u}, {v}) for n={n}")
        if u < v:
            a, b = u, v
        else:
            a, b = v, u
        key = a * n + b
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        lo.append(a)
        hi.append(b)
        deg[u] += 1
        deg[v] += 1
    return Graph(tuple(deg), (lo, hi))


def is_connected(g: Graph) -> bool:
    """True iff g has one component: a union-find over the edges, with path halving."""
    boss, parts = list(range(g.n)), g.n
    for u, v in g.edges:
        while boss[u] != u:
            boss[u] = u = boss[boss[u]]
        while boss[v] != v:
            boss[v] = v = boss[boss[v]]
        if u != v:
            boss[u] = v
            parts -= 1
    return parts == 1


def is_unicyclic(g: Graph) -> bool:
    """True iff g is connected with exactly one cycle (|E| = |V|), as g.cycle decides."""
    try:
        g.cycle
    except NotUnicyclicError:
        return False
    return True


class CycleStructure:
    """The unique cycle of a unicyclic graph, in a fixed cyclic order, and the
    pendant trees hanging off it; plain data, built only by Graph.cycle (the
    peel of a value built from an edge list), Graph.rehang and rings.ring_graph.

    The order starts at the smallest cycle vertex id and proceeds toward the
    smaller of its two cycle neighbors, which makes downstream traces
    deterministic. `parent[z]` is the neighbor of tree vertex z toward the
    cycle (None on the cycle), and `root[z]` the cycle vertex whose pendant
    tree holds z. `trees` maps each cycle vertex to the vertices of its
    pendant tree, the root first and each vertex after its parent, and
    `position` each cycle vertex to its index in `vertices` (also the
    membership test), and `girth` is the length of `vertices`. Equality and
    hashing read `vertices`, `parent` and `root` only: not `trees`, whose
    sibling order depends on how the value was built, nor `position` and
    `girth`, which `vertices` determines.
    """

    def __init__(self, vertices: tuple, parent: tuple, root: tuple, trees: dict,
                 position: dict):
        self.vertices = vertices
        self.girth = len(vertices)
        self.parent = parent
        self.root = root
        self.trees = trees
        self.position = position

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices == other.vertices and self.parent == other.parent
                and self.root == other.root)

    def __hash__(self):
        return hash((self.vertices, self.parent, self.root))

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

    def is_cycle_edge(self, u: int, v: int) -> bool:
        pos, k = self.position, self.girth
        return u in pos and v in pos and (pos[u] - pos[v]) % k in (1, k - 1)

    def adjacent(self, u: int, v: int) -> bool:
        """True when uv is an edge: a parent edge or a cycle edge."""
        return self.parent[u] == v or self.parent[v] == u or self.is_cycle_edge(u, v)

    def cycle_edges(self) -> tuple:
        k = self.girth
        return tuple(norm_edge(self.vertices[i], self.vertices[(i + 1) % k]) for i in range(k))


def find_cycle(g: Graph) -> CycleStructure:
    """Return the unique cycle of a unicyclic graph (cached on the graph)."""
    return g.cycle


def pendant_tree(g: Graph, v: int) -> tuple:
    """The vertices of the maximal connected subgraph containing cycle vertex v
    and no other cycle vertex: v first, each vertex after its parent."""
    cycle = g.cycle
    if v not in cycle.position:
        raise GraphError(f"vertex {v} is not a cycle vertex")
    return cycle.trees[v]


# ---------------------------------------------------------------------------
# Canonical labeling: iterated color refinement plus individualization
# backtracking, with twin pruning and root branches pruned by the orbits of
# the automorphisms equal leaves give. Sized for graphs up to a dozen vertices.
# ---------------------------------------------------------------------------


def _refine(nbrs: list, colors: tuple) -> tuple:
    while True:
        sigs = [(c, tuple(sorted(map(colors.__getitem__, ws)))) for c, ws in zip(colors, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(rank[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def canonical_form(g: Graph) -> bytes:
    """A byte key equal for two graphs iff they are isomorphic: the least leaf
    signature of the search. Equal leaves give an automorphism, each vertex
    of one mapped to the vertex of its color in the other. Every automorphism
    fixes the root's refined partition and maps a root branch onto one with
    the same leaf signatures, so the root skips a branch in the orbit of one
    it has explored, and the key stays that of the full search."""
    n = g.n
    if n >= 256:
        raise GraphError("canonical_form supports graphs with fewer than 256 vertices")
    nbrs: list[set] = [set() for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    npairs = n * (n - 1) // 2
    best: bytes | None = None
    best_leaf: tuple = ()
    orbit = list(range(n))  # union-find over the orbits found so far

    def find(v: int) -> int:
        return v if orbit[v] == v else find(orbit[v])

    def leaf_signature(colors: tuple) -> bytes:
        bits = bytearray((npairs + 7) // 8)
        for u, v in g.edges:
            i, j = colors[u], colors[v]
            if i > j:
                i, j = j, i
            idx = i * (2 * n - i - 1) // 2 + (j - i - 1)
            bits[idx >> 3] |= 1 << (idx & 7)
        return bytes(bits)

    def search(colors: tuple, root: bool = False) -> None:
        nonlocal best, best_leaf
        colors = _refine(nbrs, colors)
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
                best, best_leaf = sig, colors
            elif sig == best:
                at = {c: v for v, c in enumerate(colors)}
                for v, c in enumerate(best_leaf):
                    orbit[find(v)] = find(at[c])
            return
        # branches that individualize mutual twins are automorphic; keep one
        reps: list[int] = []
        for v in target:
            if not any(nbrs[v] - {u} == nbrs[u] - {v} for u in reps):
                reps.append(v)
        explored: list[int] = []
        for v in reps:
            if root and find(v) in {find(u) for u in explored}:
                continue
            explored.append(v)
            branch = list(colors)
            branch[v] = n
            search(tuple(branch))

    search(tuple([0] * n), root=True)
    assert best is not None
    return bytes([n]) + best


# ---------------------------------------------------------------------------
# Byte-pinned text: edge lists (a line "n m", then m lines "u v", 0-based), JSON
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
    lineno = last = 1

    def pairs():
        # lineno is the line being read, so an error build_graph raises for a
        # pair, or for the header before it reads any pair, names its line;
        # last is the line of the last pair read (1 before any)
        nonlocal lineno, last
        for lineno, raw in enumerate(lines[1:], start=2):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise EdgeListError(f"expected 'u v', got {raw!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListError(f"expected two integers, got {raw!r}", lineno) from None
            last = lineno
            yield u, v

    try:
        g = build_graph(n, pairs())
    except EdgeListError:
        raise
    except GraphError as exc:
        raise EdgeListError(str(exc), lineno) from exc
    if g.m != m:  # build_graph rejects duplicates, so g.m counts the pairs
        raise EdgeListError(f"header declares {m} edges but {g.m} were given", last)
    return g


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """The layout of every JSON document the package writes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
