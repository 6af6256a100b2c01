"""Recognizers for the graph classes this package completes from or into.

Each recognizer returns a structural certificate (creation sequence, rooted
forest, spine decomposition, split partition) that the completion algorithms
consume directly, or ``None`` when the graph is not in the class.  Ties are
broken by smallest vertex id (the later LexBFS sweeps of the proper-interval
test by the previous sweep's order), so certificates are deterministic.

The three certificates a completer runs on (creation sequence, rooted forest,
spine decomposition) are cached on the graph they were computed from, so a
completer calls its recognizer again at no cost after ``complete`` has probed
the class, and no certificate is ever taken from outside.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import wraps
from itertools import accumulate, compress
from operator import itemgetter, sub
from typing import Sequence

from .errors import GraphInputError
from .graph import Edge, Graph, build_graph

ISOLATED = "i"
DOMINATING = "d"

_MISSING = object()


def _cached(recognize):
    """Keep ``recognize(g)`` on g, None included, and return it on every later call.

    A Graph never changes, so its certificate cannot go stale.  The result is
    stored in ``g.__dict__`` like the cached ``Graph.masks``, under the
    recognizer's dotted name, which no Graph attribute can have, so ``==``
    and ``hash`` ignore it.  A miss calls ``__wrapped__``, the undecorated
    recognizer, looked up at each miss so that a replacement of it, such as
    a test's counter, sees every recognition that runs.
    """
    key = f"{recognize.__module__}.{recognize.__qualname__}"

    @wraps(recognize)
    def cached(g: Graph):
        store = g.__dict__
        cert = store.get(key, _MISSING)
        if cert is _MISSING:
            cert = store[key] = cached.__wrapped__(g)
        return cert

    return cached


# ---------------------------------------------------------------------------
# proper interval graphs


@dataclass(frozen=True)
class PigVerdict:
    """Outcome of a proper-interval test; carries a certificate either way.

    On failure ``witness_kind`` is one of ``claw``, ``net``, ``tent`` or
    ``chordless-cycle`` and ``witness`` lists the vertices involved (in cycle
    order for cycles).  On success ``order`` is an umbrella order: every
    closed neighbourhood is a run of consecutive vertices in it.
    """

    is_pig: bool
    witness_kind: str | None = None
    witness: tuple[int, ...] | None = None
    order: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.is_pig


def _find_claw(masks: tuple[int, ...] | list[int], n: int) -> tuple[int, int, int, int] | None:
    """First (center, a, b, c) with a,b,c pairwise nonadjacent neighbors of center."""
    for v in range(n):
        nbm = masks[v]
        rest_a = nbm
        while rest_a:
            low = rest_a & -rest_a
            a = low.bit_length() - 1
            rest_a ^= low
            cand_b = rest_a & ~masks[a]
            while cand_b:
                lb = cand_b & -cand_b
                b = lb.bit_length() - 1
                cand_b ^= lb
                cand_c = cand_b & ~masks[b]
                if cand_c:
                    c = (cand_c & -cand_c).bit_length() - 1
                    return (v, a, b, c)
    return None


def _peo_violation(masks, n: int, sweep: list[int]) -> tuple[int, int, int] | None:
    """None iff the reversed ``sweep`` is a perfect elimination order of the rows.

    ``sweep`` is ``_lbfs(masks, n)``, the first sweep of the 3-sweep test,
    so None holds iff the graph is chordal.  On failure returns (v, u, w):
    u, w are later neighbors of v, u the earliest, and w not adjacent to u.
    As in Tarjan and Yannakakis (*Simple linear-time algorithms to test
    chordality of graphs*, SIAM J. Comput. 13, 1984), the violation closes a
    chordless cycle v, u, ..., w (see ``_cycle_through``).
    """
    order = sweep[::-1]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    remaining = (1 << n) - 1
    for v in order:
        remaining &= ~(1 << v)
        later = masks[v] & remaining
        if not later:
            continue
        u = -1
        best_pos = n
        mm = later
        while mm:
            low = mm & -mm
            w = low.bit_length() - 1
            mm ^= low
            if pos[w] < best_pos:
                best_pos = pos[w]
                u = w
        bad = later & ~masks[u] & ~(1 << u)
        if bad:
            w = (bad & -bad).bit_length() - 1
            return (v, u, w)
    return None


def _cycle_through(masks, n: int, v: int, u: int, w: int) -> tuple[int, ...] | None:
    """Chordless cycle v,u,...,w from a path u->w avoiding N[v] \\ {u, w}."""
    blocked = (masks[v] | 1 << v) & ~(1 << u) & ~(1 << w)
    prev: dict[int, int | None] = {u: None}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            mm = masks[x] & ~blocked
            while mm:
                low = mm & -mm
                y = low.bit_length() - 1
                mm ^= low
                if y in prev:
                    continue
                prev[y] = x
                if y == w:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])  # type: ignore[arg-type]
                    path.reverse()
                    return tuple([v] + path)
                nxt.append(y)
        frontier = nxt
    return None


def _iter_triangles(masks, n: int):
    # only vertices with a non-neighbor can belong to a net/tent triangle
    full = (1 << n) - 1
    eligible = [v for v in range(n) if (masks[v] | 1 << v) != full]
    emask = sum(1 << v for v in eligible)
    for a in eligible:
        mm = masks[a] & emask & ~((1 << (a + 1)) - 1)
        while mm:
            low = mm & -mm
            b = low.bit_length() - 1
            mm ^= low
            common = masks[a] & masks[b] & emask & ~((1 << (b + 1)) - 1)
            while common:
                lc = common & -common
                yield a, b, lc.bit_length() - 1
                common ^= lc


def _independent_triple(masks, xs: int, ys: int, zs: int) -> tuple[int, int, int] | None:
    """First pairwise nonadjacent (x, y, z) from the disjoint sets xs, ys, zs."""
    if not (ys and zs):
        return None
    while xs:
        lx = xs & -xs
        x = lx.bit_length() - 1
        xs ^= lx
        my = ys & ~masks[x]
        while my:
            ly = my & -my
            y = ly.bit_length() - 1
            my ^= ly
            mz = zs & ~masks[x] & ~masks[y]
            if mz:
                return (x, y, (mz & -mz).bit_length() - 1)
    return None


def _find_net_or_tent(masks, n: int) -> tuple[str, tuple[int, ...]] | None:
    """First net, else first tent, in one walk over the triangles.

    A net hangs a private pendant on each corner, a tent puts on each side a
    vertex adjacent to exactly that side; the three outer vertices are
    independent.  The walk keeps the first tent for when no net follows.
    """
    tent = None
    for a, b, c in _iter_triangles(masks, n):
        ca, cb, cc = masks[a] | 1 << a, masks[b] | 1 << b, masks[c] | 1 << c
        triple = _independent_triple(masks, ca & ~cb & ~cc, cb & ~ca & ~cc, cc & ~ca & ~cb)
        if triple is not None:
            return "net", (a, b, c) + triple
        if tent is None:
            triple = _independent_triple(masks, ca & cb & ~cc, cb & cc & ~ca, ca & cc & ~cb)
            if triple is not None:
                tent = (a, b, c) + triple
    return None if tent is None else ("tent", tent)


def pig_mask_check(masks, n: int) -> bool:
    """Fast proper-interval membership test on raw adjacency masks: no claw,
    no failed elimination step of the reversed LexBFS order, no net or tent."""
    return (
        _find_claw(masks, n) is None
        and _peo_violation(masks, n, _lbfs(masks, n)) is None
        and _find_net_or_tent(masks, n) is None
    )


def _lbfs(masks, n: int) -> list[int]:
    """One LexBFS sweep over rows in rank space; ties go to the smallest rank.

    Partition refinement on bitmask blocks: ``blocks`` holds the reached but
    unvisited vertices as classes of equal label, the class to visit next
    last, and ``rest`` the vertices whose label is still empty.
    """
    order: list[int] = []
    rest = (1 << n) - 1
    labelled = 0
    blocks: list[int] = []
    for _ in range(n):
        if blocks:
            b = blocks[-1]
            low = b & -b
            if b == low:
                blocks.pop()
            else:
                blocks[-1] = b ^ low
            labelled ^= low
        else:
            low = rest & -rest
            rest ^= low
        v = low.bit_length() - 1
        order.append(v)
        nb = masks[v]
        hit = nb & labelled
        i = len(blocks) - 1
        while hit:
            b = blocks[i]
            inside = b & hit
            if inside:
                hit ^= inside
                if inside != b:
                    blocks[i] = b ^ inside
                    blocks.insert(i + 1, inside)
            i -= 1
        new = nb & rest
        if new:
            rest ^= new
            labelled |= new
            blocks.insert(0, new)
    return order


def _rank_masks(neighbors, order) -> list[int]:
    """Rows of ``order[0], order[1], ...`` with bit i standing for ``order[i]``."""
    bit = [0] * len(order)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    return [sum(map(bit.__getitem__, neighbors[v])) for v in order]


def _is_peo(masks, n: int) -> bool:
    """True iff 0, 1, ..., n-1 is a perfect elimination order of the rows."""
    above = 0
    for v in range(n - 1, -1, -1):
        later = masks[v] & above
        above |= 1 << v
        if later:
            low = later & -later
            others = later ^ low
            if others & masks[low.bit_length() - 1] != others:
                return False
    return True


def _three_sweep_order(g: Graph, sigma: list[int]) -> tuple[int, ...] | None:
    """Corneil's 3-sweep LexBFS order from its first sweep, or None when g is not chordal.

    ``sigma`` is sigma1 = ``_lbfs(g.masks, g.n)``, ties by smallest id.
    sigma2 = LBFS+(sigma1) and sigma3 = LBFS+(sigma2), where LBFS+ breaks
    ties towards the vertex that came latest in the previous sweep.  sigma3
    is an umbrella order whenever g is a proper interval graph; callers
    still check that it is one.
    """
    n, neighbors = g.n, g.neighbors
    for sweep in range(2):
        prev = sigma[::-1]  # rank 0 is the vertex that came latest
        masks = _rank_masks(neighbors, prev)
        # rank order is reversed sigma1, a perfect elimination order iff g is chordal
        if sweep == 0 and not _is_peo(masks, n):
            return None
        sigma = [prev[r] for r in _lbfs(masks, n)]
    return tuple(sigma)


def is_umbrella_order(g: Graph, order, fill: Sequence[Edge] = ()) -> bool:
    """True iff ``order`` is an umbrella order of g plus the ``fill`` pairs.

    That is a permutation of the vertices in which every closed neighbourhood
    is consecutive.  Only proper interval graphs have such an order (Roberts
    1971), so a True answer certifies membership.  The fill must name each
    pair once, within range and with no loop, and no edge of g; the callers
    check that first.

    Decided by a reach count in O(n + m + |fill|), without building g plus
    the fill.  Let R(i) be the largest position among positions <= i and
    their neighbours.  The pairs i < k <= R(i) hold every edge, and they are
    exactly the edges of a graph with this umbrella order, which is the
    least one.  So ``order`` is an umbrella order iff there are no more such
    pairs than edges: the sum of R(i) - i equals m + |fill|.
    """
    n = g.n
    if len(order) != n or set(order) != set(range(n)):
        return False
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    at = pos.__getitem__
    # reach[i]: the largest position of a neighbour of order[i] in g or the fill
    # (max's default= keyword costs more than the whole row on small graphs)
    reach = [max(map(at, nb)) if nb else -1 for nb in map(g.neighbors.__getitem__, order)]
    for u, v in fill:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        if reach[a] < b:
            reach[a] = b
    # R(i) is the running maximum of reach, and at least i
    return sum(map(max, accumulate(reach, max), range(n))) - n * (n - 1) // 2 == g.m + len(fill)


def is_proper_interval(g: Graph) -> PigVerdict:
    """Proper-interval test with a certificate for either answer.

    The graph first gets the 3-sweep LexBFS order of Corneil (*A simple
    3-sweep LBFS algorithm for the recognition of unit interval graphs*,
    Discrete Appl. Math. 138, 2004); it is accepted iff every closed
    neighbourhood is consecutive in that order, the umbrella
    characterisation of Looges and Olariu (*Optimal greedy algorithms for
    indifference graphs*, Comput. Math. Appl. 25, 1993).  The order is
    returned as the certificate.  Such an order exists only for proper
    interval graphs (Roberts, *On the compatibility between a graph and a
    simple order*, J. Combin. Theory B 11, 1971), so an accept needs no
    forbidden-subgraph scan.  A rejected graph gets a witness from the
    forbidden-subgraph characterisation (chordal and free of induced claw,
    net and tent): a claw, then a chordless cycle, then a net, then a tent.
    The first LexBFS sweep decides chordality: the cycle is closed at the
    first vertex where the reversed sweep fails as a perfect elimination
    order (``_peo_violation``), and that sweep runs once for both paths.
    """
    masks, n = g.masks, g.n
    sweep = _lbfs(masks, n)
    order = _three_sweep_order(g, sweep)
    if order is not None and is_umbrella_order(g, order):
        return PigVerdict(True, order=order)
    claw = _find_claw(masks, n)
    if claw is not None:
        return PigVerdict(False, "claw", claw)
    violation = _peo_violation(masks, n, sweep)
    if violation is not None:
        cycle = _cycle_through(masks, n, *violation)
        if cycle is None:  # pragma: no cover - a failed LexBFS order closes a cycle
            raise AssertionError("the LexBFS elimination order failed without a chordless cycle")
        return PigVerdict(False, "chordless-cycle", cycle)
    found = _find_net_or_tent(masks, n)
    if found is None:
        raise AssertionError(
            "the 3-sweep order is not an umbrella order, yet no claw, net, tent or chordless cycle was found"
        )
    return PigVerdict(False, *found)


# ---------------------------------------------------------------------------
# threshold graphs


@dataclass(frozen=True)
class CreationSequence:
    """Order in which a threshold graph is grown one vertex at a time.

    Each step is ``(vertex, tag)`` with tag ``"i"`` (added isolated) or
    ``"d"`` (added dominating, i.e. connected to everything before it).
    """

    steps: tuple[tuple[int, str], ...]

    def tags(self) -> str:
        return "".join(t for _, t in self.steps)

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def replay_creation_sequence(seq: CreationSequence) -> Graph:
    """Rebuild the graph a creation sequence describes."""
    n = len(seq.steps)
    if sorted(seq.vertices()) != list(range(n)):
        raise ValueError("creation sequence must mention each of 0..n-1 exactly once")
    edges = []
    before: list[int] = []
    for v, tag in seq.steps:
        if tag == DOMINATING:
            edges.extend((v, w) for w in before)
        elif tag != ISOLATED:
            raise ValueError(f"unknown creation tag {tag!r}")
        before.append(v)
    return build_graph(n, edges)


@_cached
def threshold_creation_sequence(g: Graph) -> CreationSequence | None:
    """Creation sequence of a threshold graph, or None.

    Peels a currently-universal vertex when one exists (else a currently
    isolated one), smallest id first, and reverses the peel order.  A final
    lone vertex peels as isolated, so sequences start with an ``i`` tag.

    Runs in O(n + m) on degree buckets.  The first peel needs a vertex of
    degree 0 or n - 1, so a graph with neither (any caterpillar that is not
    a star) is rejected after one scan of the degrees.  A peeled dominating
    vertex was adjacent to every remaining vertex and a peeled isolated one
    to none, so a remaining vertex's current degree is its degree minus
    ``off``, the number of dominating peels so far: the universal candidates
    are bucket ``size - 1 + off`` and the isolated ones bucket ``off``.  Only
    the smallest id of a bucket is ever peeled, so each bucket is an
    ascending queue read through a head index.
    """
    n = g.n
    degree = list(map(len, g.neighbors))
    if n and 0 not in degree and n - 1 not in degree:
        return None
    buckets: list[list[int]] = [[] for _ in range(n)]
    deque(map(list.append, map(buckets.__getitem__, degree), range(n)), 0)
    head = [0] * n
    off = 0
    peel: list[tuple[int, str]] = []
    for size in range(n, 0, -1):
        d = size - 1 + off
        if size > 1 and head[d] < len(buckets[d]):
            peel.append((buckets[d][head[d]], DOMINATING))
            head[d] += 1
            off += 1
        elif head[off] < len(buckets[off]):
            peel.append((buckets[off][head[off]], ISOLATED))
            head[off] += 1
        else:
            return None
    peel.reverse()
    return CreationSequence(tuple(peel))


# ---------------------------------------------------------------------------
# quasi-threshold graphs


@dataclass(frozen=True)
class QtForest:
    """Rooted forest whose strict ancestor pairs are exactly the edges.

    Caches subtree sizes; children lists are sorted by id.
    """

    parent: tuple[int | None, ...]
    roots: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    subtree_size: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)


def forest_from_parents(parents: list[int | None]) -> QtForest:
    """Assemble a QtForest (with size caches) from a parent array.

    Raises GraphInputError when a parent is out of range or the parent links
    form a cycle.
    """
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v, p in enumerate(parents):  # ascending v: every list here comes out ascending
        if p is None:
            roots.append(v)
        elif 0 <= p < n:
            children[p].append(v)
        else:
            raise GraphInputError(f"parent {p} of vertex {v} out of range for n={n}")
    size = [1] * n
    order = _forest_postorder(children, roots)
    if len(order) != n:
        raise GraphInputError("parent array has a cycle")
    for v in order:
        for c in children[v]:
            size[v] += size[c]
    return QtForest(
        parent=tuple(parents),
        roots=tuple(roots),
        children=tuple(map(tuple, children)),
        subtree_size=tuple(size),
    )


def _forest_postorder(children: list[list[int]] | tuple[tuple[int, ...], ...], roots) -> list[int]:
    order = []
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
        else:
            stack.append((v, True))
            for c in reversed(children[v]):
                stack.append((c, False))
    return order


def qt_forest_postorder(f: QtForest) -> list[int]:
    return _forest_postorder(f.children, f.roots)


def qt_forest_graph(f: QtForest) -> Graph:
    """Graph realized by a forest: u ~ v iff one is a strict ancestor of the other.

    Each neighbour tuple is built directly, with no edge list and no set: in
    a preorder, v's strict descendants are the subtree_size(v) - 1 vertices
    right after v, and its ancestors are the root path the walk holds when it
    reaches v, so a row is those two runs, sorted.
    """
    parent, children, size = f.parent, f.children, f.subtree_size
    pre: list[int] = []
    stack = list(reversed(f.roots))
    while stack:
        v = stack.pop()
        pre.append(v)
        stack += reversed(children[v])
    rows: list[tuple[int, ...]] = [()] * f.n
    depth = [0] * f.n
    path: list[int] = []  # the ancestors of the vertex being visited, root first
    for i, v in enumerate(pre):
        p = parent[v]
        depth[v] = 0 if p is None else depth[p] + 1
        del path[depth[v] :]
        rows[v] = tuple(sorted(path + pre[i + 1 : i + size[v]]))
        path.append(v)
    return Graph(f.n, tuple(rows))


@_cached
def quasi_threshold_forest(g: Graph) -> QtForest | None:
    """Certifying forest of a quasi-threshold graph, or None.

    The degree-order rule of Yan, Chen and Chang (*Quasi-threshold graphs*,
    Discrete Appl. Math. 69, 1996): vertices are taken by degree, highest
    first and ties by smallest id, and each vertex's parent is its neighbour
    taken last before it.  A vertex passes when its earlier neighbours are
    exactly its parent and the parent's ancestors: there are depth(parent) + 1
    of them and every ancestor of the parent is one.  When all vertices pass,
    the edges are exactly the ancestor pairs.  The root of each connected
    piece is its smallest universal vertex.  O(n + m) on the neighbour tuples
    after the degree sort.
    """
    n, neighbors = g.n, g.neighbors
    rank = [-1] * n
    parents: list[int | None] = [None] * n
    depth = [0] * n
    seen_by = [-1] * n
    for i, v in enumerate(sorted(range(n), key=list(map(len, neighbors)).__getitem__, reverse=True)):
        rank[v] = i
        earlier = [w for w in neighbors[v] if rank[w] >= 0]
        if not earlier:
            continue
        p = max(earlier, key=rank.__getitem__)
        if len(earlier) != depth[p] + 1:
            return None
        for w in earlier:
            seen_by[w] = v
        a = parents[p]
        while a is not None:
            if seen_by[a] != v:
                return None
            a = parents[a]
        parents[v] = p
        depth[v] = len(earlier)
    return forest_from_parents(parents)


# ---------------------------------------------------------------------------
# caterpillars


@dataclass(frozen=True)
class CaterpillarDecomposition:
    """Spine path plus, per spine vertex, the bucket of leaves hanging off it."""

    spine: tuple[int, ...]
    buckets: tuple[tuple[int, ...], ...]

    @property
    def bucket_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.buckets)

    def reversed(self) -> "CaterpillarDecomposition":
        return CaterpillarDecomposition(self.spine[::-1], self.buckets[::-1])


def caterpillar_graph(d: CaterpillarDecomposition) -> Graph:
    edges = list(zip(d.spine, d.spine[1:]))
    for v, bucket in zip(d.spine, d.buckets):
        edges.extend((v, leaf) for leaf in bucket)
    n = len(d.spine) + sum(len(b) for b in d.buckets)
    return build_graph(n, edges)


@_cached
def caterpillar_decomposition(g: Graph) -> CaterpillarDecomposition | None:
    """Spine decomposition of a caterpillar, or None.

    The graph must be a tree whose non-leaf vertices induce a path.  Degenerate
    cases: a single vertex or a star use that one internal vertex as the spine;
    an edge uses its smaller endpoint.  The spine starts at its smaller-id end.

    Runs in O(n) as bulk passes over the neighbour tuples, with no search for
    connectivity.  Every cycle runs through inner (degree >= 2) vertices
    only, so when the inner vertices induce one path the graph is a forest,
    and with m = n - 1 edges a forest is one tree.  An inner vertex's degree
    on the path is its degree minus its hanging leaves, and the path is
    walked through ``link[v]``, the sum of v's path neighbours padded with -1
    to two of them, so the vertex after ``prev`` is ``link[v] - prev``.
    """
    n = g.n
    neighbors = g.neighbors
    if n == 0 or g.m != n - 1:
        return None
    if n <= 2:
        return CaterpillarDecomposition((0,), ((),) if n == 1 else ((1,),))
    degree = list(map(len, neighbors))
    leaves = list(compress(range(n), map((1).__eq__, degree)))
    parent = list(map(itemgetter(0), map(neighbors.__getitem__, leaves)))
    hanging: list[list[int]] = [[] for _ in range(n)]
    deque(map(list.append, map(hanging.__getitem__, parent), leaves), 0)
    inner = list(compress(range(n), map((1).__lt__, degree)))
    inner_hanging = list(map(hanging.__getitem__, inner))
    path_degree = list(map(sub, map(degree.__getitem__, inner), map(len, inner_hanging)))
    if max(path_degree) > 2:
        return None
    ends = list(compress(inner, map((2).__gt__, path_degree)))
    if not ends:
        return None  # the inner vertices form cycles
    link = [0] * n
    path_sums = map(sub, map(sum, map(neighbors.__getitem__, inner)), map(sum, inner_hanging))
    deque(map(link.__setitem__, inner, map(sub, path_sums, map((2).__sub__, path_degree))), 0)
    prev, v = -1, ends[0]
    spine = []
    while v >= 0:
        spine.append(v)
        prev, v = v, link[v] - prev
    if len(spine) != len(inner):
        return None
    return CaterpillarDecomposition(tuple(spine), tuple(map(tuple, map(hanging.__getitem__, spine))))


# ---------------------------------------------------------------------------
# split graphs


@dataclass(frozen=True)
class SplitPartition:
    """Clique side and independent side, with no independent vertex complete to the clique."""

    clique: tuple[int, ...]
    independent: tuple[int, ...]


def split_partition(g: Graph) -> SplitPartition | None:
    """Split partition via the degree-sequence criterion, or None.

    Hammer and Simeone (*The splittance of a graph*, Combinatorica 1, 1981):
    with degrees d_1 >= ... >= d_n and h the largest i with d_i >= i - 1,
    the graph is split iff sum_{i<=h} d_i = h(h - 1) + sum_{i>h} d_i.

    The top h vertices are the clique and the rest the independent side.  No
    independent vertex is complete to the clique: it would have degree at
    least h, so d_{h+1} >= h and h would not be the largest such index.
    Reads the neighbour tuples only: ``inside[w]`` counts w's neighbours in
    the clique.
    """
    n = g.n
    neighbors = g.neighbors
    degree = list(map(len, neighbors))
    order = sorted(range(n), key=degree.__getitem__, reverse=True)  # stable: ties by id
    degs = [degree[v] for v in order]
    h = 0
    for i in range(1, n + 1):
        if degs[i - 1] >= i - 1:
            h = i
        else:
            break
    if sum(degs[:h]) != h * (h - 1) + sum(degs[h:]):
        return None
    in_clique = bytearray(n)
    for v in order[:h]:
        in_clique[v] = 1
    inside = [sum(map(in_clique.__getitem__, nb)) for nb in neighbors]
    clique, indep = order[:h], order[h:]
    # Equality in the criterion forces the top h to be a clique and the rest
    # independent, and the largest h leaves no independent vertex complete to it
    if any(inside[v] != h - 1 for v in clique) or any(inside[u] != degree[u] or inside[u] == h for u in indep):
        raise AssertionError("the Hammer-Simeone degree criterion held without a split partition")
    return SplitPartition(tuple(sorted(clique)), tuple(sorted(indep)))
