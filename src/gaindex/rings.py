"""A unicyclic graph is a ring: the rooted-tree shapes hung on its cycle,
where a shape is the sorted tuple of its child shapes. Rings equal up to
rotation and reflection are isomorphic graphs, so keeping the least ring
of each class yields one graph per class with no isomorphism test.

Here are the shapes and the tables of their exact GA sums, the least rings
(:func:`ring_classes`), the graph of a ring (:func:`ring_graph`, cycle
vertex i at position i) and the operators, named once in
:data:`OPERATOR_NAMES`, as edits of a ring's sum (:func:`ring_edits`,
:func:`edit_key`), which rely on that numbering.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter

from .graph import CycleStructure, Graph, GraphError, ga_term


@lru_cache(maxsize=None)
def _shapes(total: int) -> tuple:
    """(forest, the scaled GA sum of the edges under its trees' roots) for
    every multiset of rooted-tree shapes with vertex counts summing to total,
    in shape order (tuple order). A shape is its child forest: the shapes on
    s vertices are the forests of _shapes(s - 1). Each forest comes once, as
    its least tree followed by a forest of trees no less, in blocks that
    share the least tree, merged in its order."""
    from heapq import merge  # here, not at import: only the shape tables use it

    if total == 0:
        return (((), 0),)
    found = []
    for _, block in merge(*(_led_by(size, total) for size in range(1, total + 1))):
        found += block
    return tuple(found)


def _led_by(size: int, total: int):
    """Yield (tree, block) in shape order for each tree of `size` vertices,
    where block holds the _shapes(total) entries whose least tree it is: the
    tree followed by each forest of total - size whose trees are no less (a
    suffix of them), or by none when size is total."""
    rests, start = _shapes(total - size), 0
    for tree, under in _shapes(size - 1):
        d = len(tree) + 1  # the tree's root, with its parent
        inner = under + sum(ga_term(d, len(child) + 1) for child in tree)
        if size == total:
            yield tree, [((tree,), inner)]
            continue
        start = bisect_left(rests, ((tree,),), start)  # a forest below (tree,) starts lower
        if start == len(rests):
            return
        yield tree, [((tree,) + rest, inner + rest_under) for rest, rest_under in rests[start:]]


def _necklaces(total: int, parts: int) -> list:
    """(composition, its least period) for the compositions of total into
    parts nonnegative parts that are least among their rotations, in
    lexicographic order: the FKM recursion (Ruskey, Savage and Wang,
    J. Algorithms 13, 1992) extends a prefix of the given period by a part
    no less than the one a period back, and keeps a composition whose period
    divides parts. A prefix stops growing where the parts still to come,
    each at least the first, would exceed what is left."""
    found = []

    def grow(prefix: tuple, period: int, left: int) -> None:
        t = len(prefix)
        low = prefix[t - period]
        if t == parts - 1:  # the last part takes what is left
            if left > low:
                found.append((prefix + (left,), parts))
            elif left == low and parts % period == 0:
                found.append((prefix + (left,), period))
            return
        for part in range(low, left - prefix[0] * (parts - 1 - t) + 1):
            grow(prefix + (part,), period if part == low else t + 1, left - part)

    for head in range(total // parts + 1):
        grow((head,), 1, total - head)
    return found


@lru_cache(maxsize=None)
def _dihedral(girth: int) -> tuple:
    """(rotations, reflections) of a ring of this girth, each symmetry an
    itemgetter that returns the image of a tuple: the rotation by k steps at
    [k - 1] (the identity excluded), and the girth reflections."""
    steps = range(girth)
    return (tuple(itemgetter(*[(i + k) % girth for i in steps]) for k in range(1, girth)),
            tuple(itemgetter(*[girth - 1 - (i + k) % girth for i in steps]) for k in steps))


def _stabilizer(sizes: tuple, period: int) -> tuple | None:
    """For sizes least among their rotations, of this least period: the
    symmetries that fix sizes and move a position of size 2 or more, or None
    when a reflection maps sizes below itself. The rotations that fix sizes
    are those by a multiple of the period; a size below 2 has one shape, so
    a symmetry that moves only such positions fixes every choice."""
    rotations, reflections = _dihedral(len(sizes))
    fixing = list(rotations[period - 1::period])
    for sym in reflections:
        image = sym(sizes)
        if image < sizes:
            return None
        if image == sizes:
            fixing.append(sym)
    # each position of size 2 or more by its index, the others all alike
    many = tuple(i if s > 1 else -1 for i, s in enumerate(sizes)) if fixing else ()
    return tuple(sym for sym in fixing if sym(many) != many)


@lru_cache(maxsize=None)
def _hung_shapes(below: int) -> tuple:
    """(shape, scaled GA sum of its edges, root degree) for each shape with
    `below` vertices under its root hung on a cycle vertex, which adds two
    to its root's degree."""
    return tuple((shape, under + sum(ga_term(d, len(child) + 1) for child in shape), d)
                 for shape, under in _shapes(below) for d in (len(shape) + 2,))


@lru_cache(maxsize=None)
def _cycle_terms(n: int) -> tuple:
    """ga_term(du, dv) at [du][dv] for the degrees of cycle vertices of order n
    (2..n-1), as nested lists for fast lookup while rings are built."""
    return tuple([ga_term(du, dv) if du > 1 and dv > 1 else 0 for dv in range(n)]
                 for du in range(n))


@lru_cache(maxsize=None)
def _star_sums(n: int) -> tuple:
    """(d - 2) * ga_term(d, 1) at [d] for the degrees of cycle vertices of order
    n (2..n-1): the scaled GA sum of the edges of a star hung on a cycle vertex
    of degree d."""
    return (0, 0) + tuple((d - 2) * ga_term(d, 1) for d in range(2, n))


@lru_cache(maxsize=None)
def _shape_sums(n: int) -> dict:
    """shape -> (its number of vertices below the root, its _hung_shapes sum)
    for every shape that a ring of order n hangs on a cycle vertex."""
    return {shape: (size, total) for size in range(n - 2)
            for shape, total, _ in _hung_shapes(size)}


def ring_classes(n: int):
    """Yield (choice, total) for the least ring of each class of order n.

    choice[i] is the shape hung on cycle vertex i, and total the ga_sum of
    the ring's graph. Rings compare their sizes (each shape's number of
    tree vertices) first, so the sizes of a least ring are least among their
    images: _necklaces yields those least among their rotations, _stabilizer
    drops those a reflection maps lower, and only the symmetries that fix
    them can map its choice below itself. Girths ascend, and sizes and
    choices come in lexicographic product order. Each ring's sum grows with
    it: a level holds (sum so far, last degree, first degree, choice prefix).
    """
    terms = _cycle_terms(n)
    for girth in range(3, n + 1):
        for sizes, period in _necklaces(n - girth, girth):
            fixing = _stabilizer(sizes, period)
            if fixing is None:
                continue
            first, *others, last = [_hung_shapes(s) for s in sizes]
            level = [(t, d, d, (c,)) for c, t, d in first]
            for options in others:
                level = [(t + u + terms[p][d], d, f, prefix + (c,))
                         for t, p, f, prefix in level for c, u, d in options]
            rings = [(prefix + (c,), t + u + terms[p][d] + terms[d][f])
                     for t, p, f, prefix in level for c, u, d in last]
            if fixing:
                rings = [r for r in rings if all(sym(r[0]) >= r[0] for sym in fixing)]
            yield from rings


def ring_graph(ring: tuple) -> Graph:
    """The graph of a ring, the rooted-tree shapes hung on a cycle in order
    (a shape is the sorted tuple of its child shapes): cycle vertices
    0..len(ring)-1 in cycle order, then each tree's vertices depth first, as
    the structure read off the ring lists them. Raises GraphError below three."""
    girth = len(ring)
    if girth < 3:
        raise GraphError(f"a ring needs at least 3 shapes, got {girth}")
    deg = [len(shape) + 2 for shape in ring]
    parent, root, trees = [None] * girth, list(range(girth)), {}

    def hang(p: int, shape: tuple) -> None:  # numbers each child next, then its subtree
        for child in shape:
            parent.append(p)
            deg.append(len(child) + 1)
            if child:
                hang(len(deg) - 1, child)

    for r, shape in enumerate(ring):
        start = len(deg)
        hang(r, shape)
        root += [r] * (len(deg) - start)
        trees[r] = (r, *range(start, len(deg)))
    cycle = tuple(range(girth))  # the order Graph.cycle walks: from 0 toward 1
    return Graph(tuple(deg), cycle=CycleStructure(cycle, tuple(parent), tuple(root), trees,
                                                  dict(zip(cycle, cycle))))


# the rewrite operators, in the order ring_edits and operator_applications yield them
OPERATOR_NAMES = (
    "star_transform",
    "relocate_min",
    "arc_transform",
    "finish_two_neighbors_deg2",
    "finish_one_neighbor_deg2",
)


def ring_edits(choice: tuple, n: int):
    """Yield (op, where, count, rise) for each choice that operator_applications
    yields for ring_graph(choice), whose cycle vertex i is the ring's position
    i. where is the params' values, but (u, v, ahead) for the arc from u to v
    that runs ahead of u in the cycle order (ahead) or behind it; count is the
    number of applications it stands for, one per cycle edge on an arc; rise
    is the exact ga_sum of the operator's result less the graph's, or None
    when the operator rejects the choice.

    A rise edits the ring's sum: the cycle terms and tree sums at the
    positions the rewrite changes go out, and those of the result come in.
    star_transform gives v a star of its size; relocate_min empties u's tree
    and gives v, a star, that many more leaves. Each is a one-position edit,
    or two whose shared edge, for adjacent u and v, counts once; an identity,
    a star at v or an empty tree at u, reads 0 with no arithmetic.
    arc_transform hangs the arc's inner positions and their trees on v as
    leaves and joins u to v. The finishing moves leave a 4-cycle or a
    triangle with two stars, whose sum is read off their degrees. So each
    edit costs O(1): the arcs that end at a star v come from two walks from
    v, one each way. The choices are operator_applications' own, read off
    the degrees; the arc's degree ordering and a second local minimum for
    finish_one_neighbor_deg2 are the guards left that can reject one.

    One pass over the positions sets the ring up: its cycle terms, local
    maxima, local minima and the stars among the maxima. A ring pays only
    for the edits it can have. Every relocation, arc and finishing edit
    ends at a star on a local maximum, so a ring with none stops after its
    star edits. An arc meets u 2..k-2 steps from v, so a triangle walks no
    arc. The ring's total and largest degree, which only the finishing
    moves read, come after both.
    """
    terms, stars, shapes = _cycle_terms(n), _star_sums(n), _shape_sums(n)
    k = len(choice)
    deg = [len(shape) + 2 for shape in choice]
    size, tree = zip(*map(shapes.__getitem__, choice))
    succ = deg[1:] + deg[:1]
    cyc, local_max, local_min, max_stars = [], [], [], []  # cyc[i]: the edge from i to i + 1
    a = deg[-1]  # the degree a step behind d, and succ's b a step ahead
    for i, d, b, s in zip(range(k), deg, succ, size):
        cyc.append(terms[d][b])
        if d >= a and d >= b:
            local_max.append(i)
            if d == s + 2:  # a star: each child is a leaf
                max_stars.append(i)
        if d <= a and d <= b:
            local_min.append(i)
        a = d

    def one(x: int, d: int) -> int:
        """The rise when position x alone takes degree d with a star."""
        return (terms[deg[x - 1]][d] + terms[d][succ[x]] - cyc[x - 1] - cyc[x]
                + stars[d] - tree[x])

    for v in local_max:
        d = size[v] + 2  # d == deg[v]: v holds a star already, so the result is the input
        yield "star_transform", (v,), 1, 0 if d == deg[v] else one(v, d)
    if not max_stars:  # every other edit ends at a star on a local maximum
        return
    for u in local_min:
        s = size[u]  # moving an empty tree changes nothing
        rest = one(u, 2) if s else 0
        for v in max_stars:
            if u != v:
                rise = 0
                if s:
                    d = deg[v] + s
                    rise = rest + one(v, d)
                    j = (v - u) % k
                    if j == 1 or j == k - 1:  # both halves edited the shared edge
                        rise += (cyc[u if j == 1 else v] + terms[2][d]
                                 - terms[2][deg[v]] - terms[deg[u]][d])
                yield "relocate_min", (u, v), 1, rise

    def arcs(v: int, step: int):
        """The arc_transform edits of the arcs that end at v, from one walk
        from v that steps ahead (step 1) or behind (-1) and meets u at 2..k-2
        steps; from v behind, the arc from u runs ahead of u. The walk carries
        the cycle terms and trees that go out, the inner sizes and the least
        and largest inner degree, so each arc costs O(1)."""
        dv, dw, ahead = deg[v], deg[(v - step) % k], step < 0  # w: v's other cycle neighbor
        into = cyc if ahead else cyc[-1:] + cyc[:-1]  # into[x]: the edge passed to reach x
        out, inner, low, high = into[v] + tree[v], 0, dv, 0
        for j in range(1, k - 1):
            x = (v + step * j) % k
            out += into[x]
            du = deg[x]
            if j > 1:
                d = dv + j - 1 + inner
                yield ("arc_transform", (x, v, ahead), j,  # None unless du <= inner degrees <= dv
                       terms[du][d] + terms[d][dw] + stars[d] - out if du <= low and high <= dv
                       else None)
            out += tree[x]
            inner += size[x]
            if du < low:
                low = du
            if du > high:
                high = du

    if k > 3:  # an arc meets u at 2..k-2 steps from v: a triangle has none
        for v in max_stars:
            yield from arcs(v, -1)
            yield from arcs(v, 1)
    total, d = sum(cyc) + sum(tree), max(deg)

    def square(a: int, b: int) -> int:
        """The sum of a 4-cycle of degrees a, 2, b, 2 with stars at a and b."""
        return 2 * terms[a][2] + 2 * terms[2][b] + stars[a] + stars[b]

    def finish_one(d: int, vt: int) -> int:
        """The sum of finish_one_neighbor_deg2's result at a star of degree d
        whose other cycle neighbor is vt: the arc from u to vt hangs the
        other positions and their trees, `inner` vertices, on vt. When a
        child of vt then has a higher degree than vt, the first of largest
        degree becomes w on the 4-cycle (u, w, vt, v)."""
        shape, inner = choice[vt], n - 1 - d - size[vt]
        dt = deg[vt] + inner
        dw = max(len(child) + 1 for child in shape)  # vt, not of degree 2, has children
        if dw <= dt:  # the triangle (v, u, vt)
            dv = d + size[vt] - len(shape)
            return terms[dv][2] + terms[2][dt] + terms[dt][dv] + stars[dt] + stars[dv]
        sw = 1 + next(shapes[child][0] for child in shape if len(child) + 1 == dw)
        return square(1 + sw, n - 1 - sw)

    for v in (v for v in max_stars if deg[v] == d):  # the maximal-degree stars
        a, b = (v - 1) % k, (v + 1) % k
        if k > 3 and deg[a] == deg[b] == 2:
            yield "finish_two_neighbors_deg2", (v,), 1, square(d, n - d) - total
        for u, vt in ((a, b), (b, a)):
            if deg[u] == 2 != deg[vt]:  # u, of degree 2, is a local minimum
                yield ("finish_one_neighbor_deg2", (v, u), 1,
                       finish_one(d, vt) - total if local_min == [u] else None)


def edit_key(op: str, params: dict, girth: int) -> tuple:
    """The `where` under which ring_edits lists the application of op with
    these params to a ring's graph of this girth: the params' values, but
    (u, v, ahead) for arc_transform, whose edge e picks the arc that runs
    ahead of u exactly when it starts fewer than d(u, v) steps ahead of u."""
    if op != "arc_transform":
        return tuple(params.values())
    u, (a, b), v = params["u"], params["e"], params["v"]
    edge = a if b == a + 1 else b  # cycle edge i joins positions i and i + 1
    return u, v, (edge - u) % girth < (v - u) % girth
