"""A unicyclic graph is a ring: the rooted-tree shapes hung on its cycle,
where a shape is the sorted tuple of its child shapes. Rings equal up to
rotation and reflection are isomorphic graphs, so keeping the least ring
of each class yields one graph per class with no isomorphism test.

Here are the shapes and the tables of their exact GA sums, the least rings
(:func:`ring_classes`), the graph of a ring (:func:`ring_graph`, cycle
vertex i at position i) and the operators, named once in
:data:`OPERATOR_NAMES`, as edits of a ring's sum (:func:`ring_edits`) and
as graph applications (:func:`edit_applications`), which rely on that numbering.
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
    a symmetry that moves only such positions fixes every ring of them."""
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
    """A row (shape, scaled GA sum of its edges, root degree, size) for each
    shape with size = `below` vertices under its root hung on a cycle
    vertex, which adds two to its root's degree."""
    return tuple((shape, under + sum(ga_term(d, len(child) + 1) for child in shape), d, below)
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
def _skeleton(n: int) -> tuple:
    """(rows, fixing) for the sizes of each least ring of order n, in
    ring_classes' order: rows[i] holds the _hung_shapes rows of sizes[i] and
    fixing the symmetries _stabilizer gives, the sizes it drops left out."""
    skeleton = []
    for girth in range(3, n + 1):
        for sizes, period in _necklaces(n - girth, girth):
            fixing = _stabilizer(sizes, period)
            if fixing is not None:
                skeleton.append((tuple(map(_hung_shapes, sizes)), fixing))
    return tuple(skeleton)


def ring_classes(n: int):
    """Yield (ring, total) for the least ring of each class of order n.

    ring[i] is the _hung_shapes row (shape, tree sum, root degree, size) of
    cycle vertex i, and total the ga_sum of the ring's graph. Rings compare
    their sizes first, so the sizes of a least ring are least among their
    images: _necklaces yields those least among their rotations, _stabilizer
    drops those a reflection maps lower, and only the symmetries that fix
    them can map its rows below themselves; a shape has one row, so rows
    compare as their shapes. Those compositions, their rows and their
    stabilizers are built once per order and process (_skeleton), so a call
    only builds the rings. Girths ascend, and sizes and rows come in
    lexicographic product order. Each ring's sum grows with it: a level
    holds (sum so far, last degree, first degree, prefix of rows).
    """
    terms = _cycle_terms(n)
    for (first, *others, last), fixing in _skeleton(n):
        level = [(row[1], row[2], row[2], (row,)) for row in first]
        for options in others:
            level = [(t + row[1] + terms[p][row[2]], row[2], f, prefix + (row,))
                     for t, p, f, prefix in level for row in options]
        rings = [(prefix + (row,), t + row[1] + terms[p][row[2]] + terms[row[2]][f])
                 for t, p, f, prefix in level for row in last]
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


# the rewrite operators, in the order ring_edits and operator_applications
# yield them, and the names of each one's params
OPERATOR_NAMES = ("star_transform", "relocate_min", "arc_transform",
                  "finish_two_neighbors_deg2", "finish_one_neighbor_deg2")
_PARAMS = (("v",), ("u", "v"), ("u", "e", "v"), ("v",), ("v", "u"))


def edit_applications(op: str, where: tuple, girth: int):
    """Yield (rank, params) for each application of op that ring_edits lists
    under `where` for a ring of this girth: one, with where's values, or one
    per cycle edge i on the arc (u, v, ahead), e = [i, i + 1] or [0, i] for
    the last. Sorted stably by rank, a ring's come in operator_applications'
    order on its graph."""
    rank = OPERATOR_NAMES.index(op)
    if op != "arc_transform":
        yield (rank,), dict(zip(_PARAMS[rank], where))
        return
    u, v, ahead = where
    first, last = (u, v) if ahead else (v, u)  # the arc ahead of u has edges u..v-1
    for i in range(first, first + (last - first) % girth):
        i %= girth
        yield (rank, u, v, i), {"u": u, "e": [i, i + 1] if i + 1 < girth else [0, i], "v": v}


def ring_edits(ring: tuple, n: int):
    """Yield (op, where, count, rise) for each choice operator_applications
    yields for the graph of a ring of order n, least or not, given as its
    rows (shape, tree sum, root degree, size): ring_graph of its shapes,
    cycle vertex i at position i. where is the params' values, but
    (u, v, ahead) for the arc from u to v that runs ahead of u in the cycle
    order (ahead) or behind it; count is the number of applications it
    stands for, one per cycle edge on an arc, which edit_applications lists
    with their params; rise is the exact ga_sum of the result less the
    graph's, or None when the operator rejects the choice.

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

    A ring is evaluated in this one generator frame, with no helper function
    or comprehension to build per ring and no shape looked up: one
    transposition of the rows gives each position's size, tree sum and
    degree. One pass over the positions yields the star edits and keeps the
    cycle terms, the local minima and the stars among the local maxima. A
    ring pays only for the edits it can have: every relocation, arc and
    finishing edit ends at such a star, so a ring with none stops after its
    star edits, and an arc meets u 2..k-2 steps from v, so a triangle walks
    no arc. The ring's total and largest degree, which only the finishing
    moves read, come last.
    """
    terms, stars = _cycle_terms(n), _star_sums(n)
    k = len(ring)
    shape, tree, deg, size = zip(*ring)
    succ = deg[1:] + deg[:1]
    cyc, local_min, max_stars = [], [], []  # cyc[i]: the edge from i to i + 1
    a = deg[-1]  # the degree a step behind d and c its edge, and succ's b a step ahead
    c = terms[a][deg[0]]
    for i, d, b, s in zip(range(k), deg, succ, size):
        e = terms[d][b]
        cyc.append(e)
        if d >= a and d >= b:
            if d == s + 2:  # i holds a star already, so the result is the input
                max_stars.append(i)
                yield "star_transform", (i,), 1, 0
            else:  # a star of s leaves at i alone
                yield ("star_transform", (i,), 1,
                       terms[a][s + 2] + terms[s + 2][b] - c - e + stars[s + 2] - tree[i])
        if d <= a and d <= b:
            local_min.append(i)
        a, c = d, e
    if not max_stars:  # every other edit ends at a star on a local maximum
        return
    for u in local_min:
        s = size[u]
        if not s:  # moving an empty tree changes nothing
            for v in max_stars:
                if u != v:
                    yield "relocate_min", (u, v), 1, 0
            continue
        rest = terms[deg[u - 1]][2] + terms[2][succ[u]] - cyc[u - 1] - cyc[u] - tree[u]
        for v in max_stars:
            if u != v:  # u empties its tree and v, of degree d, takes a star of it
                d = deg[v] + s
                rise = (rest + terms[deg[v - 1]][d] + terms[d][succ[v]] - cyc[v - 1] - cyc[v]
                        + stars[d] - tree[v])
                j = (v - u) % k
                if j == 1 or j == k - 1:  # both halves edited the shared edge
                    rise += (cyc[u if j == 1 else v] + terms[2][d]
                             - terms[2][deg[v]] - terms[deg[u]][d])
                yield "relocate_min", (u, v), 1, rise
    if k > 3:  # an arc meets u at 2..k-2 steps from v: a triangle has none
        back = cyc[-1:] + cyc[:-1]  # back[x]: the edge from x - 1 to x
        for v in max_stars:
            # the walk behind v meets each u whose arc runs ahead of u, then
            # the walk ahead of v; w is v's other cycle neighbor and into[x]
            # the edge passed to reach x. A walk carries the cycle terms and
            # trees that go out, d, the inner sizes and the least and largest
            # inner degree, so each arc costs O(1); x runs below 0, as an index
            dv = deg[v]
            for ahead, into, dw, walk in ((True, cyc, succ[v], range(v - 1, v + 1 - k, -1)),
                                          (False, back, deg[v - 1], range(v + 1 - k, v - 1))):
                out, d, low, high = into[v] + tree[v], dv, dv, 0
                for j, x in enumerate(walk, 1):
                    out += into[x]
                    du = deg[x]
                    if j > 1:  # None unless du <= inner degrees <= dv
                        yield ("arc_transform", (x % k, v, ahead), j,
                               terms[du][d] + terms[d][dw] + stars[d] - out
                               if du <= low and high <= dv else None)
                    out += tree[x]
                    d += size[x] + 1
                    if du < low:
                        low = du
                    if du > high:
                        high = du
    total, d = sum(cyc) + sum(tree), max(deg)
    for v in max_stars:
        if deg[v] != d:  # the finishing moves act at a star of the largest degree
            continue
        a, b = (v - 1) % k, (v + 1) % k
        if k > 3 and deg[a] == deg[b] == 2:  # the 4-cycle d, 2, n - d, 2 with two stars
            yield ("finish_two_neighbors_deg2", (v,), 1, 2 * terms[d][2] + 2 * terms[2][n - d]
                   + stars[d] + stars[n - d] - total)
        for u, vt in ((a, b), (b, a)):
            if deg[u] != 2 or deg[vt] == 2:  # a choice: u of degree 2, a local minimum, vt not
                continue
            rise = None  # unless u is the only local minimum
            if local_min == [u]:
                # the arc from u to vt hangs the other positions and their
                # trees on vt, of degree dt then. When a child of vt has a
                # higher degree, the first of largest degree, w of sw
                # vertices, goes on the 4-cycle (u, w, vt, v); else the
                # result is the triangle (v, u, vt)
                kids = shape[vt]
                lens = [*map(len, kids)]  # vt, not of degree 2, has children
                dt, most = deg[vt] + n - 1 - d - size[vt], max(lens)
                if most < dt:
                    dv = d + size[vt] - len(kids)
                    rise = terms[dv][2] + terms[2][dt] + terms[dt][dv] + stars[dt] + stars[dv]
                else:
                    sw, todo = 0, [kids[lens.index(most)]]  # w's subtree, vertex by vertex
                    while todo:
                        sw += 1
                        todo += todo.pop()
                    rise = (2 * terms[1 + sw][2] + 2 * terms[2][n - 1 - sw]
                            + stars[1 + sw] + stars[n - 1 - sw])
                rise -= total
            yield "finish_one_neighbor_deg2", (v, u), 1, rise
