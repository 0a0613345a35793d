"""Reference implementations the tests compare the package against.

The package generates unicyclic graphs one per class by construction
(`gaindex.enumerate_unicyclic`); the generator here takes an independent
route, every free tree plus one chord, deduplicated by canonical labeling.
The package's ring generator draws only the compositions least among
their rotations, from a necklace recursion, and compares each candidate
only under the symmetries that fix its sizes; the reference filter here
takes every composition and compares every candidate under every rotation
and reflection, and the reference size loop takes every composition whose
first part is least and rejects it when a rotation or reflection maps it
lower.
The package generates the shapes in order, each forest once as its least
tree followed by a forest of trees no less, with its edge sum carried
beside it; the reference here collects every tree-plus-forest in a set,
sorts them, and sums each shape's edges through a memo on whole shapes.
The package's bound sweep reads the rings in one pass and keeps only the
witnesses and violators; the reference here lists every class first and
scans the list.
The package reads pendant trees from the parents its leaf peeling records;
the reference here walks each tree by depth-first search.
The package reads a ring's degrees and cycle structure off the ring and
builds its edge set only when read; the reference here lists the ring's
edges one by one, for the tests to peel.
The package's monotonicity sweep tries each operator only at targets its
guards accept; the reference here yields every syntactic parameter choice.
The package derives a rewrite's result from its input's cycle structure
and holds no edge set for it; the reference here edits the input's edge
set.
The package decides connectivity by a union-find over the edges; the
reference here runs a breadth-first search from vertex 0.
The package makes each finishing move one rewrite of its input; the
references here run the paper's chains of moves: a star transformation
and up to two arc relocations for finish_two_neighbors_deg2, an arc
relocation and then a split of the last vertex's tree for
finish_one_neighbor_deg2.
The package's canonical labeling skips the root branches that the
automorphisms it has found map onto explored ones; the reference here is
the search without that pruning, which walks every branch twin pruning
leaves.
The package sums GA exactly, as integers in units of 1/SCALE; the
reference here is math.fsum over float terms. The package sums a value
built from an edge list over its lists of ends and a structure value tree
by tree, each star's leaf edges in closed form; the exact reference here
adds ga_term edge by edge over an edge set.
The package finds the cycle by peeling leaves over neighbor-id sums and
steps off the least cycle vertex through the first unpeeled edge at it;
the reference here peels neighbor lists and compares both cycle neighbors.
The package's ring sweep reads every arc that ends at a star off two
walks from the star, with terms and tree sums from its memoized tables;
the reference here sums each arc on its own, from its start to the star's
other cycle neighbor, with each term from ga_term and each tree summed
edge by edge.
The package's rings carry each position's row of its shape table; the
rows here are summed shape by shape, edge by edge.
"""

import itertools
import math
from functools import lru_cache

from gaindex import (
    Graph,
    arc_transform,
    build_graph,
    canonical_form,
    finish_one_neighbor_deg2,
    finish_two_neighbors_deg2,
    format_edge_list,
    relocate_min,
    star_transform,
)
from gaindex import transforms
from gaindex.enumeration import MAX_ORDER, BoundReport
from gaindex.graph import SCALE, GraphError, ga_term, norm_edge, pendant_tree, scaled_tol
from gaindex.rings import ring_classes, ring_graph
from gaindex.transforms import PreconditionError

from _helpers import ring_shapes


def float_ga_term(du: int, dv: int) -> float:
    """The GA term of an edge whose ends have degrees du and dv, as a float."""
    return 2.0 * math.sqrt(du * dv) / (du + dv)


def fsum_ga(degrees, edges) -> float:
    """GA of the edges under these degrees: math.fsum over the float terms."""
    return math.fsum(float_ga_term(degrees[u], degrees[v]) for u, v in edges)


def reference_ga_sum(degrees, edges) -> int:
    """The exact GA sum of the edges under these degrees, edge by edge."""
    return sum(ga_term(degrees[u], degrees[v]) for u, v in edges)


def relabel(g: Graph, perm) -> Graph:
    """Apply the vertex permutation perm (old id -> new id)."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def neighbor_lists(g: Graph) -> list:
    """Each vertex's neighbors in increasing order, read off the edge set."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(a) for a in nbrs]


def reference_cycle_order(g: Graph) -> tuple:
    """The cycle of a unicyclic g in the package's order: peel leaves off the
    neighbor lists, then walk from the least cycle vertex toward the lesser
    of its two cycle neighbors."""
    nbrs = [set(a) for a in neighbor_lists(g)]
    leaves = [v for v in range(g.n) if len(nbrs[v]) == 1]
    for v in leaves:  # the list grows as peeling exposes new leaves
        for w in nbrs[v]:
            nbrs[w].discard(v)
            if len(nbrs[w]) == 1:
                leaves.append(w)
        nbrs[v] = set()
    start = min(v for v in range(g.n) if nbrs[v])
    order, prev, cur = [start], start, min(nbrs[start])
    while cur != start:
        order.append(cur)
        prev, cur = cur, min(nbrs[cur] - {prev})
    return tuple(order)


def reference_is_connected(g: Graph) -> bool:
    """True iff a breadth-first search from vertex 0 reaches every vertex."""
    if g.n == 0:
        return False
    nbrs = neighbor_lists(g)
    seen, queue = {0}, [0]
    for x in queue:  # the queue grows as the search reaches new vertices
        for w in nbrs[x]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def free_trees(n: int) -> tuple:
    """All non-isomorphic trees on n vertices, grown by leaf attachment."""
    point = build_graph(1, [])
    level = {canonical_form(point): point}
    for size in range(2, n + 1):
        grown: dict[bytes, Graph] = {}
        for tree in level.values():
            for v in range(tree.n):
                bigger = build_graph(size, tree.edges | {(v, size - 1)})
                grown.setdefault(canonical_form(bigger), bigger)
        level = grown
    return tuple(level[k] for k in sorted(level))


def enumerate_unicyclic_by_chords(n: int) -> tuple:
    """Reference generator: every spanning tree plus one chord, deduplicated."""
    if not 3 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 3 and {MAX_ORDER}, got {n}")
    seen: dict[bytes, Graph] = {}
    for tree in free_trees(n):
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in tree.edges:
                    continue
                g = build_graph(n, tree.edges | {(u, v)})
                seen.setdefault(canonical_form(g), g)
    return tuple(seen[k] for k in sorted(seen))


def compositions(total: int, parts: int):
    """Every composition of total into parts nonnegative parts, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def is_least_ring(sizes: tuple, choice: tuple) -> bool:
    """True when the ring (sizes, choice) is the least of its rotations and reflections."""
    ring = (sizes, choice)
    for s, c in (ring, (sizes[::-1], choice[::-1])):
        for k in range(len(s)):
            if (s[k:] + s[:k], c[k:] + c[:k]) < ring:
                return False
    return True


def least_rings(n: int):
    """Yield every (sizes, choice) of order n that is_least_ring keeps, over
    the full product of shapes, in the package's generation order."""
    for girth in range(3, n + 1):
        for sizes in compositions(n - girth, girth):
            for choice in itertools.product(*[reference_forests(s) for s in sizes]):
                if is_least_ring(sizes, choice):
                    yield sizes, choice


@lru_cache(maxsize=None)
def reference_forests(total: int) -> tuple:
    """All multisets of rooted-tree shapes with vertex counts summing to
    total: every tree followed by every forest, each sorted, deduplicated in
    a set and sorted."""
    if total == 0:
        return ((),)
    found = set()
    for first in range(1, total + 1):
        for tree in reference_forests(first - 1):
            for rest in reference_forests(total - first):
                found.add(tuple(sorted((tree,) + rest)))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def reference_tree_sum(shape: tuple, root_degree: int) -> int:
    """The scaled GA sum of the edges of a shape whose root has the given degree."""
    return sum(ga_term(root_degree, len(child) + 1) + reference_tree_sum(child, len(child) + 1)
               for child in shape)


def reference_hung_shapes(below: int) -> tuple:
    """(shape, scaled GA sum of its edges, root degree, size) for each shape
    with size = `below` vertices under its root hung on a cycle vertex."""
    return tuple((shape, reference_tree_sum(shape, len(shape) + 2), len(shape) + 2, below)
                 for shape in reference_forests(below))


def compositions_from(total: int, parts: int, low: int):
    """Compositions of total into parts, each at least low, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(low, total - low * (parts - 1) + 1):
        for rest in compositions_from(total - head, parts - 1, low):
            yield (head,) + rest


def kept_sizes(total: int, parts: int):
    """Yield the compositions of total into parts that a least ring's sizes
    can be, in lexicographic order: each whose first part is least, unless a
    rotation or reflection maps it lower."""
    for head in range(total // parts + 1):
        for rest in compositions_from(total - head, parts - 1, head):
            sizes = (head,) + rest
            rotations = [sizes[k:] + sizes[:k] for k in range(parts)]
            if all(sizes <= image and sizes <= image[::-1] for image in rotations):
                yield sizes


def reference_verify_bounds(n: int, tol: float = 1e-9) -> BoundReport:
    """verify_bounds over a list of every class, scanned once per quantity."""
    slack = scaled_tol(tol)
    entries = [(ring_shapes(ring), total) for ring, total in ring_classes(n)]
    cycle = ((),) * n
    sn3 = ((), (), ((),) * (n - 3))
    lower, upper = next(t for c, t in entries if c == sn3), n * SCALE
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


def reference_pendant_tree(g: Graph, v: int) -> tuple:
    """(vertices, edges) of the tree at cycle vertex v, by a depth-first search
    from v that never enters another cycle vertex."""
    stop = g.cycle.position
    nbrs = neighbor_lists(g)
    vertices = {v}
    edges = set()
    stack = [v]
    while stack:
        x = stack.pop()
        for w in nbrs[x]:
            if w in stop or w in vertices:
                continue
            vertices.add(w)
            edges.add(norm_edge(x, w))
            stack.append(w)
    return frozenset(vertices), frozenset(edges)


def reference_ring_edges(ring: tuple) -> frozenset:
    """The edge set of a ring's graph: the cycle on 0..len(ring)-1, then each
    shape's vertices numbered depth first, each joined to its parent."""
    girth = len(ring)
    edges = [(i, i + 1) for i in range(girth - 1)] + [(0, girth - 1)]
    next_id = girth

    def attach(root: int, children: tuple) -> None:
        nonlocal next_id
        for child in children:
            cid = next_id
            next_id += 1
            edges.append((root, cid))
            attach(cid, child)

    for pos in range(girth):
        attach(pos, ring[pos])
    return frozenset(edges)


def syntactic_applications(g: Graph):
    """Yield (op, params, thunk) for every syntactic parameter choice of the
    five operators on g, in the package's sweep order; thunks raise
    PreconditionError where the operator does not apply."""
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


def hung_shape(shape: tuple) -> tuple:
    """(vertices below the root, exact GA sum of the edges) of a shape hung
    on a cycle vertex, which adds two to its root's degree: edge by edge,
    from a stack of (shape, degree of its root)."""
    size = total = 0
    stack = [(shape, len(shape) + 2)]
    while stack:
        node, d = stack.pop()
        for child in node:
            size += 1
            total += ga_term(d, len(child) + 1)
            stack.append((child, len(child) + 1))
    return size, total


def hung_rows(shapes: tuple) -> tuple:
    """The rows (shape, tree sum, root degree, size) of the ring of these
    shapes, as ring_edits reads them, each from hung_shape."""
    return tuple((shape, total, len(shape) + 2, size)
                 for shape in shapes for size, total in [hung_shape(shape)])


def reference_arc_edits(choice: tuple) -> dict:
    """(u, v, ahead) -> (count, rise) for the arc_transform edits the ring
    sweep makes on the ring `choice`: for each start u and each local
    maximum v that is a star, neither equal nor adjacent, the arc ahead of u
    and the arc behind it, each summed on its own. Every term comes from
    ga_term, and every tree sum, the result's star at v included, from
    hung_shape; no table of the package is read."""
    k = len(choice)
    deg = [len(shape) + 2 for shape in choice]
    size, tree = zip(*map(hung_shape, choice))
    max_stars = [v for v in range(k) if not any(choice[v])
                 and deg[v] >= max(deg[v - 1], deg[(v + 1) % k])]

    def relocate(u: int, step: int, length: int):
        run = [(u + step * j) % k for j in range(length + 2)]  # the arc, then v's other neighbor
        v, inner = run[length], run[1:length]
        du, dv = deg[u], deg[v]
        if not all(du <= deg[w] <= dv for w in inner):
            return None
        d = dv + len(inner) + sum(size[w] for w in inner)
        # out: the arc's edges, v's other cycle edge and the trees at inner and v
        return (ga_term(du, d) + ga_term(d, deg[run[-1]]) + hung_shape(((),) * (d - 2))[1]
                - sum(ga_term(deg[a], deg[b]) for a, b in zip(run, run[1:]))
                - sum(tree[w] for w in inner) - tree[v])

    edits = {}
    for u in range(k):
        for v in max_stars:
            d = (v - u) % k  # v is d steps ahead of u
            if 1 < d < k - 1:
                edits[u, v, True] = d, relocate(u, 1, d)
                edits[u, v, False] = k - d, relocate(u, -1, k - d)
    return edits


def edit_oracle(g: Graph, moves: dict, cycle=None) -> frozenset:
    """The edge set of g.rehang(moves, cycle), by set edits on g.edges: each
    moved tree vertex's edge to its parent and each old cycle edge the new
    cycle lacks go, each move's edge and each new cycle edge come, and an
    edge both taken and given stays. Without `cycle` the new cycle is the
    old one without the moved vertices."""
    cyc = g.cycle
    if cycle is None:
        cycle = tuple(v for v in cyc.vertices if v not in moves)

    def ring(vs) -> set:
        return {norm_edge(*e) for e in zip(vs, vs[1:] + vs[:1])}

    old, new = ring(cyc.vertices), ring(cycle)
    cut = [(z, cyc.parent[z]) for z in moves if cyc.parent[z] is not None]
    put = {norm_edge(*e) for e in moves.items()} | (new - old)
    gone = ({norm_edge(*e) for e in cut} | (old - new)) - put
    return (g.edges - gone) | put


def _relocate_arc(g: Graph, path: tuple) -> Graph:
    """The interior cycle vertices of path=(u, ..., v) and their pendant
    trees become pendants of v, with no degree guard."""
    v = path[-1]
    return g.rehang({z: v for w in path[1:-1] for z in pendant_tree(g, w)})


def reference_finish_two_neighbors_deg2(g: Graph, v: int) -> Graph:
    """finish_two_neighbors_deg2 as the paper's chain: star_transform at the
    heaviest remaining cycle vertex vbar, then an arc_transform onto vbar
    from u and from ubar, each when its arc has an interior."""
    cyc = g.cycle
    if cyc.girth == 3:
        raise PreconditionError("girth-3 input is already in sn3 shape; nothing to finish")
    transforms._require_on_cycle(g, v)
    transforms._require_max_degree_star(g, v)
    a, b = cyc.cycle_neighbors(v)
    if g.degrees[a] != 2 or g.degrees[b] != 2:
        raise PreconditionError(f"both cycle neighbors of {v} must have degree 2")
    u, ubar = min(a, b), max(a, b)
    rest = cyc.walk(v, u)[2:-1]  # v_1 .. v_t, v_1 adjacent to u, v_t to ubar
    vbar = transforms._heaviest(g, rest)
    cur = star_transform(g, vbar)
    if vbar != rest[0]:
        cur = arc_transform(cur, u, (u, rest[0]), vbar)
    if vbar != rest[-1]:
        cur = arc_transform(cur, ubar, (ubar, rest[-1]), vbar)
    return cur


def reference_finish_one_neighbor_deg2(g: Graph, v: int, u: int) -> Graph:
    """finish_one_neighbor_deg2 as the paper's chain: relocate the arc from u
    to the last cycle vertex vt, then split vt's tree between vt and v, or
    rebuild it around a heavier child of vt on a 4-cycle."""
    transforms._require_on_cycle(g, u, v)
    transforms._require_max_degree_star(g, v)
    cyc = g.cycle
    a, b = cyc.cycle_neighbors(v)
    if u not in (a, b) or g.degrees[u] != 2:
        raise PreconditionError(f"vertex {u} is not a degree-2 cycle neighbor of {v}")
    other = b if u == a else a
    if g.degrees[other] == 2:
        raise PreconditionError(f"{v} has two degree-2 cycle neighbors; wrong finishing move")
    for w in transforms._local_extremes(g)[1]:
        if w != u:
            raise PreconditionError(f"second local minimum present at vertex {w}")
    rest = cyc.walk(v, u)[2:]  # v_1 .. v_t with v_t adjacent to v
    cur = _relocate_arc(g, (u,) + rest)
    vt = rest[-1]
    tree = pendant_tree(cur, vt)
    parent = cur.cycle.parent
    heavy = [w for w in tree if parent[w] == vt and cur.degrees[w] > cur.degrees[vt]]
    if not heavy:
        return cur.rehang({z: v for z in tree[1:] if parent[z] != vt})
    w = transforms._heaviest(cur, heavy)
    below = {w}
    for z in tree:
        if parent[z] in below:
            below.add(z)
    moves = {z: w if z in below else v for z in tree[1:] if z != w}
    return cur.rehang(moves, cycle=(u, w, vt, v))


def reference_refine(adj: tuple, colors: tuple) -> tuple:
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(len(adj))]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(rank[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def reference_canonical_form(g: Graph) -> bytes:
    """A byte key equal for two graphs iff they are isomorphic, by the full
    individualization search with twin pruning only."""
    n = g.n
    if n >= 256:
        raise GraphError("canonical_form supports graphs with fewer than 256 vertices")
    adj = neighbor_lists(g)
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
        colors = reference_refine(adj, colors)
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
