"""Recognizers for the graph classes this package completes from or into.

Each recognizer returns a structural certificate (creation sequence, rooted
forest, spine decomposition, split partition) that the completion algorithms
consume directly, or ``None`` when the graph is not in the class.  Ties are
broken by smallest vertex id (the later LexBFS sweeps of the proper-interval
test by the previous sweep's order), so certificates are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError
from .graph import Graph, build_graph

ISOLATED = "i"
DOMINATING = "d"


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


def _mcs_elimination_order(masks, n: int) -> list[int]:
    """Maximum-cardinality-search visit order, reversed into an elimination order."""
    weight = [0] * n
    visited = 0
    visit: list[int] = []
    for _ in range(n):
        best = -1
        bw = -1
        for v in range(n):
            if not visited >> v & 1 and weight[v] > bw:
                best, bw = v, weight[v]
        visited |= 1 << best
        visit.append(best)
        mm = masks[best] & ~visited
        while mm:
            low = mm & -mm
            weight[low.bit_length() - 1] += 1
            mm ^= low
    visit.reverse()
    return visit


def _peo_violation(masks, n: int) -> tuple[int, int, int] | None:
    """None iff the MCS order is a perfect elimination order (iff chordal).

    On failure returns (v, u, w): u, w are later neighbors of v, u the
    earliest, and w not adjacent to u.
    """
    order = _mcs_elimination_order(masks, n)
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


def _find_chordless_cycle(masks, n: int, hint: tuple[int, int, int] | None = None) -> tuple[int, ...] | None:
    if hint is not None:
        cyc = _cycle_through(masks, n, *hint)
        if cyc is not None:
            return cyc
    for v in range(n):
        nb = []
        mm = masks[v]
        while mm:
            low = mm & -mm
            nb.append(low.bit_length() - 1)
            mm ^= low
        for i, u in enumerate(nb):
            for w in nb[i + 1 :]:
                if masks[u] >> w & 1:
                    continue
                cyc = _cycle_through(masks, n, v, u, w)
                if cyc is not None:
                    return cyc
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


def _find_net(masks, n: int) -> tuple[int, ...] | None:
    """Triangle with a private pendant on each corner, all pendants independent."""
    for a, b, c in _iter_triangles(masks, n):
        pa = masks[a] & ~masks[b] & ~masks[c] & ~(1 << b) & ~(1 << c)
        if not pa:
            continue
        pb = masks[b] & ~masks[a] & ~masks[c] & ~(1 << a) & ~(1 << c)
        pc = masks[c] & ~masks[a] & ~masks[b] & ~(1 << a) & ~(1 << b)
        if not pb or not pc:
            continue
        ma = pa
        while ma:
            la = ma & -ma
            x = la.bit_length() - 1
            ma ^= la
            mb = pb & ~masks[x]
            while mb:
                lb = mb & -mb
                y = lb.bit_length() - 1
                mb ^= lb
                mc = pc & ~masks[x] & ~masks[y]
                if mc:
                    z = (mc & -mc).bit_length() - 1
                    return (a, b, c, x, y, z)
    return None


def _find_tent(masks, n: int) -> tuple[int, ...] | None:
    """Triangle with an independent vertex on each side adjacent to exactly that side."""
    for a, b, c in _iter_triangles(masks, n):
        qab = masks[a] & masks[b] & ~masks[c] & ~(1 << c)
        if not qab:
            continue
        qbc = masks[b] & masks[c] & ~masks[a] & ~(1 << a)
        qac = masks[a] & masks[c] & ~masks[b] & ~(1 << b)
        if not qbc or not qac:
            continue
        ma = qab
        while ma:
            la = ma & -ma
            x = la.bit_length() - 1
            ma ^= la
            mb = qbc & ~masks[x]
            while mb:
                lb = mb & -mb
                y = lb.bit_length() - 1
                mb ^= lb
                mc = qac & ~masks[x] & ~masks[y]
                if mc:
                    z = (mc & -mc).bit_length() - 1
                    return (a, b, c, x, y, z)
    return None


def pig_mask_check(masks, n: int) -> bool:
    """Fast proper-interval membership test on raw adjacency masks."""
    if _find_claw(masks, n) is not None:
        return False
    if _peo_violation(masks, n) is not None:
        return False
    if _find_net(masks, n) is not None:
        return False
    return _find_tent(masks, n) is None


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


def _three_sweep_order(g: Graph) -> tuple[int, ...] | None:
    """Corneil's 3-sweep LexBFS order, or None when g is not chordal.

    sigma1 breaks ties by smallest id, sigma2 = LBFS+(sigma1) and
    sigma3 = LBFS+(sigma2), where LBFS+ breaks ties towards the vertex that
    came latest in the previous sweep.  sigma3 is an umbrella order whenever
    g is a proper interval graph; callers still check that it is one.
    """
    n, neighbors = g.n, g.neighbors
    sigma = _lbfs(g.masks, n)  # rank space of sigma1 is the ids
    for sweep in range(2):
        prev = sigma[::-1]  # rank 0 is the vertex that came latest
        masks = _rank_masks(neighbors, prev)
        # rank order is reversed sigma1, a perfect elimination order iff g is chordal
        if sweep == 0 and not _is_peo(masks, n):
            return None
        sigma = [prev[r] for r in _lbfs(masks, n)]
    return tuple(sigma)


def _is_umbrella(neighbors, order) -> bool:
    """True iff every closed neighbourhood is consecutive in ``order``."""
    bit = 1
    for row in _rank_masks(neighbors, order):
        closed = row | bit
        if (closed + (closed & -closed)) & closed:
            return False
        bit <<= 1
    return True


def is_proper_interval(g: Graph) -> PigVerdict:
    """Proper-interval test with a certificate for either answer.

    A claw scan runs first.  A claw-free graph gets the 3-sweep LexBFS order
    of Corneil (*A simple 3-sweep LBFS algorithm for the recognition of unit
    interval graphs*, Discrete Appl. Math. 138, 2004); it is accepted iff
    every closed neighbourhood is consecutive in that order, the umbrella
    characterisation of Looges and Olariu (*Optimal greedy algorithms for
    indifference graphs*, Comput. Math. Appl. 25, 1993).  The order is
    returned as the certificate.  A rejected graph gets a witness from the
    forbidden-subgraph characterisation (chordal and free of induced claw,
    net and tent): a chordless cycle, then a net, then a tent.
    """
    masks, n = g.masks, g.n
    claw = _find_claw(masks, n)
    if claw is not None:
        return PigVerdict(False, "claw", claw)
    order = _three_sweep_order(g)
    if order is not None and _is_umbrella(g.neighbors, order):
        return PigVerdict(True, order=order)
    violation = _peo_violation(masks, n)
    if violation is not None:
        cycle = _find_chordless_cycle(masks, n, hint=violation)
        if cycle is None:  # pragma: no cover - impossible for non-chordal graphs
            raise AssertionError("non-chordal graph without a chordless cycle")
        return PigVerdict(False, "chordless-cycle", cycle)
    net = _find_net(masks, n)
    if net is not None:
        return PigVerdict(False, "net", net)
    tent = _find_tent(masks, n)
    if tent is not None:
        return PigVerdict(False, "tent", tent)
    raise AssertionError(
        "the 3-sweep order is not an umbrella order, yet no claw, net, tent or chordless cycle was found"
    )


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


def threshold_creation_sequence(g: Graph) -> CreationSequence | None:
    """Creation sequence of a threshold graph, or None.

    Peels a currently-universal vertex when one exists (else a currently
    isolated one), smallest id first, and reverses the peel order.  A final
    lone vertex peels as isolated, so sequences start with an ``i`` tag.

    Runs in O(n + m) on degree buckets.  A peeled dominating vertex was
    adjacent to every remaining vertex and a peeled isolated one to none, so
    a remaining vertex's current degree is its degree minus ``off``, the
    number of dominating peels so far: the universal candidates are bucket
    ``size - 1 + off`` and the isolated ones bucket ``off``.  Only the
    smallest id of a bucket is ever peeled, so each bucket is an ascending
    queue read through a head index.
    """
    n = g.n
    buckets: list[list[int]] = [[] for _ in range(n)]
    for v, nb in enumerate(g.neighbors):
        buckets[len(nb)].append(v)
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

    Caches subtree sizes and child counts; children lists are sorted by id.
    """

    parent: tuple[int | None, ...]
    roots: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    subtree_size: tuple[int, ...]
    child_count: tuple[int, ...]

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
    for v, p in enumerate(parents):
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
        roots=tuple(sorted(roots)),
        children=tuple(tuple(sorted(c)) for c in children),
        subtree_size=tuple(size),
        child_count=tuple(len(c) for c in children),
    )


def _forest_postorder(children: list[list[int]] | tuple[tuple[int, ...], ...], roots) -> list[int]:
    order = []
    stack = [(r, False) for r in sorted(roots, reverse=True)]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
        else:
            stack.append((v, True))
            for c in sorted(children[v], reverse=True):
                stack.append((c, False))
    return order


def qt_forest_postorder(f: QtForest) -> list[int]:
    return _forest_postorder(f.children, f.roots)


def qt_forest_graph(f: QtForest) -> Graph:
    """Graph realized by a forest: u ~ v iff one is a strict ancestor of the other."""
    edges = []
    for v in range(f.n):
        p = f.parent[v]
        while p is not None:
            edges.append((v, p))
            p = f.parent[p]
    return build_graph(f.n, edges)


def _mask_components(masks, mask: int) -> list[int]:
    comps = []
    rem = mask
    while rem:
        start = rem & -rem
        comp = start
        frontier = start
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            frontier ^= low
            new = masks[v] & mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        rem &= ~comp
    return comps


def quasi_threshold_forest(g: Graph) -> QtForest | None:
    """Certifying forest of a quasi-threshold graph, or None.

    Per connected piece the smallest universal vertex becomes the root, then
    the remainder's pieces are rooted recursively.  A piece with no universal
    vertex disproves membership.
    """
    n = g.n
    masks = g.masks
    parents: list[int | None] = [None] * n
    stack = [(comp, None) for comp in reversed(_mask_components(masks, (1 << n) - 1))]
    while stack:
        comp, par = stack.pop()
        size = comp.bit_count()
        root = -1
        mm = comp
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            if (masks[v] & comp).bit_count() == size - 1:
                root = v
                break
        if root < 0:
            return None
        parents[root] = par  # type: ignore[assignment]
        rest = comp & ~(1 << root)
        if rest:
            stack.extend((sub, root) for sub in reversed(_mask_components(masks, rest)))
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


def caterpillar_decomposition(g: Graph) -> CaterpillarDecomposition | None:
    """Spine decomposition of a caterpillar, or None.

    The graph must be a tree whose non-leaf vertices induce a path.  Degenerate
    cases: a single vertex or a star use that one internal vertex as the spine;
    an edge uses its smaller endpoint.  The spine starts at its smaller-id end.
    Runs in O(n) on the neighbour tuples.
    """
    n = g.n
    neighbors = g.neighbors
    if n == 0 or g.m != n - 1:
        return None
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        for w in neighbors[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                reached += 1
                stack.append(w)
    if reached != n:
        return None
    if n == 1:
        return CaterpillarDecomposition((0,), ((),))
    if n == 2:
        return CaterpillarDecomposition((0,), ((1,),))
    inner = bytearray(len(nb) >= 2 for nb in neighbors)
    spine_set = [v for v in range(n) if inner[v]]
    ends = []
    for v in spine_set:
        sdeg = sum(inner[w] for w in neighbors[v])
        if sdeg > 2:
            return None
        if sdeg <= 1:
            ends.append(v)
    if len(spine_set) == 1:
        spine = [spine_set[0]]
    else:
        prev = -1
        spine = [min(ends)]
        while True:
            nxt = next((w for w in neighbors[spine[-1]] if inner[w] and w != prev), None)
            if nxt is None:
                break
            prev = spine[-1]
            spine.append(nxt)
    buckets = tuple(tuple(w for w in neighbors[v] if len(neighbors[w]) == 1) for v in spine)
    return CaterpillarDecomposition(tuple(spine), buckets)


# ---------------------------------------------------------------------------
# split graphs


@dataclass(frozen=True)
class SplitPartition:
    """Clique side and independent side, with no independent vertex complete to the clique."""

    clique: tuple[int, ...]
    independent: tuple[int, ...]


def split_partition(g: Graph) -> SplitPartition | None:
    """Split partition via the degree-sequence criterion, or None.

    The raw top-degree clique is normalized by absorbing any independent
    vertex that is complete to it (there is at most one at a time).
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    h = 0
    for i in range(1, n + 1):
        if degs[i - 1] >= i - 1:
            h = i
        else:
            break
    if sum(degs[:h]) != h * (h - 1) + sum(degs[h:]):
        return None
    clique = set(order[:h])
    indep = set(order[h:])
    cmask = sum(1 << v for v in clique)
    for v in clique:
        if (g.masks[v] & cmask).bit_count() != len(clique) - 1:
            return None  # defensive; the degree criterion should guarantee this
    for u in indep:
        if g.masks[u] & sum(1 << v for v in indep):
            return None  # defensive
    moved = True
    while moved:
        moved = False
        for v in sorted(indep):
            if g.masks[v] & cmask == cmask:
                indep.remove(v)
                clique.add(v)
                cmask |= 1 << v
                moved = True
                break
    return SplitPartition(tuple(sorted(clique)), tuple(sorted(indep)))
