"""Exhaustive reference solvers used as ground truth in tests and cross-checks.

These search the whole space (fill-edge subsets, bipartitions, vertex
subsets).  One piece is shared with the fast algorithms they certify: the PIG
oracle tests candidates with ``recognition.pig_mask_check``, the claw,
chordless-cycle, net and tent search that the proper-interval recognizer runs
only to name the witness of a rejection.  The recognizer's accept path, the
3-sweep LexBFS umbrella order, is not shared, and the claws and C4s the
oracle prunes by come from its own finder.  The PIG oracle skips only
branches with fewer picks left than it has induced claws and chordless C4s
with pairwise disjoint non-edge sets, or that leave one of them unfixed; no
answer lies in them.  It looks for them through given pairs only: at the
root through every non-edge, since each claw and C4 holds one, and at each
child of a search node through the pair just picked and the pairs its
parent's packing stopped blocking.  The other searches enumerate
everything.  A ``max_n`` budget makes the exponential cost explicit: inputs
over budget are refused, never truncated.

Each forbidden induced subgraph is one edge list, and each family the shapes
it forbids; a shape's labelled codes are built from its edges on first use.
The scans walk one family at a time and name a witness: the first subset, by
size and then lexicographically, whose code is one of the family's.  The
hereditary membership tables answer only whether one exists, for every graph
on n vertices at once.  A graph is free of a family's minimal obstructions
iff each of its one-vertex deletions is and the whole graph is not one.  So
each entry comes from the table of size n - 1 and a lookup of the graph's
own code.  The recognition sweep reads them; the tests hold them to the scans.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from typing import Iterable

from .errors import OracleBudgetError
from .graph import Edge, Graph, non_edges_within
from .recognition import pig_mask_check


def _require(n: int, max_n: int, what: str) -> None:
    if max_n < 1:
        raise OracleBudgetError("budget must allow at least one vertex")
    if n > max_n:
        raise OracleBudgetError(
            f"{what} refuses n={n} over budget {max_n}; raise the budget explicitly"
        )


# ---------------------------------------------------------------------------
# minimum proper-interval completion


def brute_min_pig(g: Graph, max_n: int = 8) -> tuple[int, tuple[Edge, ...]]:
    """Minimum proper-interval completion by escalating fill size.

    For k = 0, 1, 2, ... the k-subsets of non-edges are tried in lexicographic
    order and the first subset that passes ``pig_mask_check`` is returned, so
    the witness is deterministic.  The fill is a strictly ascending tuple of
    ``u < v`` pairs, as the picks ascend.  More than ``max_n`` vertices are
    refused.

    The subsets are walked depth first, one ascending non-edge index per level
    (see ``_first_picks``), and a branch is skipped only when it holds no
    passing subset.  Proper interval graphs are claw-free and chordal, and
    every induced subgraph of one is again proper interval.  So each induced
    claw or C4 of the graph built so far needs a pick among its own
    non-edges, and induced claws and C4s whose non-edge sets are pairwise
    disjoint need a pick each (as in the bounded search of Kaplan, Shamir and
    Tarjan, SIAM J. Comput. 28, 1999).  A greedy packing of them is a lower
    bound on the picks left; the packing of G is one on the cost, so k starts
    there.  G's packing looks around every non-edge, as each claw and C4
    holds one; every node below keeps its packing maximal by looking only
    around the pairs that changed since its parent.  Picks are tried in
    ascending order and no skipped branch holds a passing subset, so the
    first subset accepted is the one plain enumeration would return.
    """
    _require(g.n, max_n, "brute_min_pig")
    n = g.n
    non_edges = non_edges_within(g, range(n))
    inc = [0] * n  # inc[v]: bits of the non-edge indices at v
    for i, (u, v) in enumerate(non_edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    masks = list(g.masks)
    packing = _packing(masks, non_edges, inc, 0, [], len(non_edges), (1 << len(non_edges)) - 1)
    for k in range(len(packing), len(non_edges) + 1):
        picks = _first_picks(masks, n, non_edges, inc, 0, k, packing, 0)
        if picks is not None:
            return k, tuple(map(non_edges.__getitem__, picks))
    raise AssertionError("unreachable: the complete graph is proper interval")


def _first_picks(
    masks: list[int], n: int, non_edges: tuple[Edge, ...], inc: list[int], p: int, rem: int, held: list[int], fresh: int
) -> tuple[int, ...] | None:
    """Lexicographically first ``rem`` ascending non-edge indices from p on whose
    edges, added to ``masks``, pass ``pig_mask_check``; None if there are none.

    ``held`` lists the non-edge index sets of induced claws and C4s of
    ``masks`` that are pairwise disjoint from p on.  A node extends it with
    ``_packing`` and skips every branch that cannot hit each set.  A set that
    the next pick misses keeps its obstruction induced, so the child inherits
    it; a set with no index left is a dead branch, and so is a packing larger
    than ``rem``, at a leaf too.  The next pick hits or precedes every set, so
    it is at most the smallest top index of a set.  With exactly ``rem`` sets
    each pick must hit a different one, so indices in no set are skipped.
    Only branches without a passing subset are cut and the picks ascend, so
    the answer is the lexicographically first one.  ``masks`` is restored
    before returning.

    Every packing a node returns is maximal: each claw and C4 meets a held pair.
    So after the pick e, a claw or C4 that the child's sets leave free holds
    the new edge or a pair that the child no longer blocks: a pair of the set
    e hits, or a held pair with index from p to e.  Those indices are the
    child's ``fresh``, the only pairs its ``_packing`` looks around; the root
    of each k passes 0, since the caller's packing, built around every
    non-edge, is maximal already.
    """
    held = _packing(masks, non_edges, inc, p, held, rem, fresh)
    if held is None:
        return None
    if rem == 0:
        return () if pig_mask_check(masks, n) else None
    last = len(non_edges) - rem
    live = 0
    for s in held:
        last = min(last, s.bit_length() - 1)
        live |= s
    live = live >> p << p
    hit = live if len(held) == rem else -1  # with fewer sets, any index may be picked
    for e in range(p, last + 1):
        if not hit >> e & 1:
            continue
        u, v = non_edges[e]
        owner = next((s for s in held if s >> e & 1), 0)  # the set e hits, if any
        fresh = live & (owner | (2 << e) - 1) | 1 << e
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        rest = _first_picks(masks, n, non_edges, inc, e + 1, rem - 1, [s for s in held if not s >> e & 1], fresh)
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        if rest is not None:
            return (e, *rest)
    return None


def _packing(
    masks: list[int], non_edges: tuple[Edge, ...], inc: list[int], p: int, held: list[int], rem: int, fresh: int
) -> list[int] | None:
    """``held`` extended greedily by induced claws and C4s of ``masks`` whose
    non-edges avoid the indices from p on that it holds; None once a set
    added has no index from p on or the sets outnumber ``rem``.

    Each added set holds only the indices from p on of its obstruction.  Only
    claws and C4s through a pair of ``non_edges`` with its index in ``fresh``
    are looked for (the pair may be an edge of ``masks``), so the packing
    returned is maximal if every other claw and C4 meets a pair that ``held``
    blocks; with every index in ``fresh`` it is maximal, as each claw and C4
    holds a non-edge.
    """
    held = held.copy()
    blocked = masks.copy()  # masks plus the held pairs: the finder's non-edges avoid both
    taken = 0
    for s in held:
        taken |= s
    taken = taken >> p << p
    while True:
        while taken:
            low = taken & -taken
            taken ^= low
            u, v = non_edges[low.bit_length() - 1]
            blocked[u] |= 1 << v
            blocked[v] |= 1 << u
        if len(held) > rem:
            return None
        while fresh:
            found = _free_claw_or_c4_at(masks, blocked, *non_edges[(fresh & -fresh).bit_length() - 1])
            if found is not None:
                break
            fresh &= fresh - 1
        else:
            return held
        taken = _non_edges_inside(found, inc) >> p << p
        if not taken:
            return None
        held.append(taken)


def _non_edges_inside(vertices: int, inc: list[int]) -> int:
    """Bits of the non-edge indices with both ends in the vertex mask."""
    out = 0
    seen = 0
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        row = inc[low.bit_length() - 1]
        out |= row & seen
        seen |= row
    return out


def _free_claw_or_c4_at(masks, blocked, a: int, b: int) -> int | None:
    """Vertex mask of an induced claw or C4 of ``masks`` that holds a and b and
    whose non-edges are not in ``blocked``; None if there is none.

    For an edge ab, a or b is the claw's centre or ab is a side of the C4;
    for a non-edge, a and b are two leaves of the claw or opposite corners.
    """
    ab = 1 << a | 1 << b
    if masks[a] >> b & 1:
        by_a = masks[a] & ~blocked[b] & ~ab  # a's neighbours free of b: leaves of a claw at a, or a's C4 side
        by_b = masks[b] & ~blocked[a] & ~ab
        found = _free_pair(blocked, by_a) or _free_pair(blocked, by_b) or _linked(masks, by_b, by_a)
    elif blocked[a] >> b & 1:
        return None
    else:
        common = masks[a] & masks[b]  # claw centres and C4 corners
        found = _linked(masks, common, ~(blocked[a] | blocked[b] | ab)) or _free_pair(blocked, common)
    return ab | found if found else None


def _free_pair(blocked, among: int) -> int:
    """Mask of the first two vertices of ``among`` not in ``blocked`` together; 0 if none."""
    while among:
        y = among & -among
        among ^= y
        z = among & ~blocked[y.bit_length() - 1]
        if z:
            return y | z & -z
    return 0


def _linked(masks, among: int, to: int) -> int:
    """Mask of the first vertex of ``among`` with a neighbour in ``to``, and of its first such neighbour; 0 if none."""
    while among:
        y = among & -among
        among ^= y
        z = masks[y.bit_length() - 1] & to
        if z:
            return y | z & -z
    return 0


# ---------------------------------------------------------------------------
# bipartition sweeps (co-bipartite completion, max-cut)


def _set_lex_less(a_mask: int, b_mask: int) -> bool:
    """Strict order on vertex sets: whichever holds the smallest non-shared
    vertex is smaller (sorted lists compared with an infinite pad), so
    {0,1,2} < {0,1} < {0,2}."""
    diff = a_mask ^ b_mask
    if not diff:
        return False
    return bool(a_mask & (diff & -diff))


Parts = tuple[tuple[int, ...], tuple[int, ...]]


def _best_bipartition(g: Graph, max_n: int, maximize_cut: bool, what: str) -> tuple[int, Parts]:
    """Exhaustive Gray-code sweep over all bipartitions with vertex 0 fixed in A.

    Returns (best score, (A, B)).  Score is the cut size when ``maximize_cut``
    else the number of non-edges within the two parts.  Ties resolve to the
    lexicographically least A (see ``_set_lex_less``).
    """
    _require(g.n, max_n, what)
    n = g.n
    if n == 0:
        return 0, ((), ())
    masks = g.masks
    a_mask = (1 << n) - 1
    b_mask = 0
    score = 0 if maximize_cut else n * (n - 1) // 2 - g.m
    best, best_a = score, a_mask
    for t in range(1, 1 << (n - 1)):
        v = (t & -t).bit_length()  # flipped vertex: trailing zeros of t, shifted past vertex 0
        bit = 1 << v
        adj = masks[v]
        if b_mask & bit:
            src, dst = b_mask, a_mask
        else:
            src, dst = a_mask, b_mask
        deg_src = (adj & src).bit_count()
        deg_dst = (adj & dst).bit_count()
        if maximize_cut:
            score += deg_src - deg_dst
        else:
            score += dst.bit_count() - deg_dst - (src.bit_count() - 1 - deg_src)
        a_mask ^= bit
        b_mask ^= bit
        better = score > best if maximize_cut else score < best
        if better or (score == best and _set_lex_less(a_mask, best_a)):
            best, best_a = score, a_mask
    a = tuple(v for v in range(n) if best_a >> v & 1)
    b = tuple(v for v in range(n) if not best_a >> v & 1)
    return best, (a, b)


def brute_min_cobipartite(g: Graph, max_n: int = 20) -> tuple[int, Parts]:
    """Minimum fill turning the graph into two cliques, over all bipartitions.

    Ties resolve to the lexicographically least part containing vertex 0.
    """
    return _best_bipartition(g, max_n, False, "brute_min_cobipartite")


def brute_max_cut(g: Graph, max_n: int = 20) -> tuple[int, Parts]:
    """Maximum cut over all bipartitions, same tie rule as the co-bipartite sweep."""
    return _best_bipartition(g, max_n, True, "brute_max_cut")


# ---------------------------------------------------------------------------
# forbidden induced subgraphs


_MAX_SHAPE = 7  # the recognition sweep's limit; longer cycles are tested subset by subset

# Each forbidden shape once, as its edges on the vertices 0, 1, ...; Ck is the chordless k-cycle.
_CYCLES = {f"C{k}": tuple((i, (i + 1) % k) for i in range(k)) for k in range(4, _MAX_SHAPE + 1)}
_SHAPES = {
    "2K2": ((0, 1), (2, 3)),
    "P4": ((0, 1), (1, 2), (2, 3)),
    "claw": ((0, 1), (0, 2), (0, 3)),
    "net": ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)),  # a triangle, a pendant at each corner
    "tent": ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)),  # a triangle, an ear on each side
    **_CYCLES,
}
_SIZE = {shape: 1 + max(map(max, edges)) for shape, edges in _SHAPES.items()}

# Each family once: the shapes it forbids, each with the kind its witness
# reports.  A family that forbids the longest cycle here forbids every
# longer one too (pig: all chordless cycles).
_FORBIDS = {
    "threshold": {"2K2": "2K2", "C4": "C4", "P4": "P4"},
    "quasi-threshold": {"P4": "P4", "C4": "C4"},
    "split": {"2K2": "2K2", "C4": "C4", "C5": "C5"},
    "pig": {"claw": "claw", "net": "net", "tent": "tent", **dict.fromkeys(_CYCLES, "chordless-cycle")},
}

FAMILIES = {family: tuple(dict.fromkeys(kinds.values())) for family, kinds in _FORBIDS.items()}


@cache
def _shape_codes(k: int) -> dict[int, str]:
    """Code -> shape, for every labelling of every shape on k vertices.

    Bit i of a code is pair i of ``combinations(range(k), 2)``.  The codes are
    built from the edge lists by the k! permutations when first asked for, so
    importing the package builds none.
    """
    bit = {}
    for i, (a, b) in enumerate(combinations(range(k), 2)):
        bit[a, b] = bit[b, a] = 1 << i
    shapes = [(shape, edges) for shape, edges in _SHAPES.items() if _SIZE[shape] == k]
    return {sum(bit[p[u], p[v]] for u, v in edges): shape for shape, edges in shapes for p in permutations(range(k))}


@cache
def _family_codes(family: str, k: int) -> tuple[dict[int, str], frozenset[int]]:
    """Code -> kind for the family's shapes on k vertices, and their codes cut to the first k - 1 positions."""
    kinds = _FORBIDS[family]
    codes = {code: kinds[shape] for code, shape in _shape_codes(k).items() if shape in kinds}
    head = sum(bit for _, _, bit in _code_bits(k)[0])
    return codes, frozenset(code & head for code in codes)


@cache
def _code_bits(k: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """(i, j, code bit) for the pairs i < j < k - 1, then the code bits of the pairs (i, k - 1)."""
    pairs = list(enumerate(combinations(range(k), 2)))
    return tuple((i, j, 1 << b) for b, (i, j) in pairs if j < k - 1), tuple(1 << b for b, (_, j) in pairs if j == k - 1)


Witness = tuple[str, tuple[int, ...]]


def _first_subset(masks: tuple[int, ...], n: int, k: int, family: str) -> Witness | None:
    """First k-subset, in lexicographic order, that induces one of the family's shapes, with its kind.

    A subset v_0 < ... < v_(k-1) has the code bit of pair (i, j) iff v_i v_j
    is an edge.  The bits among the first k - 1 vertices are read once per
    prefix, and a prefix that no shape starts with is not extended.
    """
    kinds, heads = _family_codes(family, k)
    head, last = _code_bits(k)
    for prefix in combinations(range(n - 1), k - 1):
        rows = [masks[u] for u in prefix]
        code = 0
        for i, j, bit in head:
            if rows[i] >> prefix[j] & 1:
                code |= bit
        if code not in heads:
            continue
        row_bits = list(zip(rows, last))
        for v in range(prefix[-1] + 1, n):
            c = code
            for row, bit in row_bits:
                if row >> v & 1:
                    c |= bit
            if c in kinds:
                return kinds[c], (*prefix, v)
    return None


def _induced_cycle(masks: tuple[int, ...], subset: tuple[int, ...]) -> bool:
    """The subset induces one chordless cycle: every degree is 2 and it is connected."""
    smask = sum(1 << v for v in subset)
    if any((masks[v] & smask).bit_count() != 2 for v in subset):
        return False
    seen = 1 << subset[0]
    frontier = [subset[0]]
    while frontier:
        v = frontier.pop()
        mm = masks[v] & smask & ~seen
        while mm:
            low = mm & -mm
            seen |= low
            frontier.append(low.bit_length() - 1)
            mm ^= low
    return seen == smask


WITNESS_CAP = 64  # the scans are quartic: recognizers skip them on larger rejected inputs


def forbidden_subgraph_scan(g: Graph, family: str) -> Witness | None:
    """First induced forbidden subgraph of one family, in lexicographic subset order.

    Families: ``threshold`` {2K2, C4, P4}; ``quasi-threshold`` {P4, C4};
    ``split`` {2K2, C4, C5}; ``pig`` {claw, net, tent} plus chordless cycles of
    any length (so an empty scan is exactly proper-interval membership).  The
    witness is ``(kind, vertices)``, or None when the graph has none.

    The subsets are walked by size, over the sizes of the family's shapes, and
    looked up by their codes; pig's cycles past ``_MAX_SHAPE`` vertices are
    tested subset by subset.
    """
    kinds = _FORBIDS.get(family)
    if kinds is None:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    n, masks = g.n, g.masks
    for k in sorted({_SIZE[shape] for shape in kinds}):
        found = _first_subset(masks, n, k, family)
        if found is not None:
            return found
    cycle = kinds.get(f"C{_MAX_SHAPE}")
    if cycle is not None:
        for k in range(_MAX_SHAPE + 1, n + 1):
            for subset in combinations(range(n), k):
                if _induced_cycle(masks, subset):
                    return cycle, subset
    return None


def forbidden_subgraph_scans(g: Graph, families: Iterable[str] = tuple(FAMILIES)) -> dict[str, Witness | None]:
    """``forbidden_subgraph_scan`` of each family, keyed by family; an unknown family is refused before any scan."""
    families = tuple(families)
    if unknown := [family for family in families if family not in FAMILIES]:
        raise ValueError(f"unknown family {unknown[0]!r}; choose from {sorted(FAMILIES)}")
    return {family: forbidden_subgraph_scan(g, family) for family in families}


# ---------------------------------------------------------------------------
# hereditary membership tables


# A membership entry holds one bit per family, set iff the graph has no
# induced obstruction of it: iff ``forbidden_subgraph_scan`` finds no witness.
_FAMILY_BITS = {family: 1 << i for i, family in enumerate(_FORBIDS)}
_THRESHOLD, _QT, _SPLIT, _PIG = _FAMILY_BITS.values()
_ALL = sum(_FAMILY_BITS.values())


@cache
def _obstruction_bits(n: int) -> dict[int, int]:
    """Code of each obstruction on n vertices -> the bits of the families it is one of."""
    return {
        code: sum(bit for family, bit in _FAMILY_BITS.items() if shape in _FORBIDS[family])
        for code, shape in _shape_codes(n).items()
    }


def _members(n: int, start: int, count: int, below: bytes) -> bytes:
    """Membership entries of graphs start, ..., start + count - 1 on n <= ``_MAX_SHAPE`` vertices.

    Graph k has pair i of ``combinations(range(n), 2)`` iff bit i of k is
    set.  ``below`` is the table of size n - 1, and count is a power of two
    that divides start.  Every family's obstructions are minimal and closed
    under relabelling, so g is free of them iff each g - v is and g is not
    one itself.  g - v keeps the pairs that miss v in their order, so its
    code packs those bits of k downwards.  Per v, the codes of the block's
    deletions are built by doubling over the free low bits, looked up as one
    byte string and ANDed with the others as one integer.  Then the block's
    obstructions, looked up by code, drop their families' bits.
    """
    pairs = list(combinations(range(n), 2))
    inherited = int.from_bytes(bytes([_ALL]) * count, "little")
    for v in range(n):
        kept = [i for i, pair in enumerate(pairs) if v not in pair]
        rank = {i: j for j, i in enumerate(kept)}  # pair i of g is pair rank[i] of g - v
        codes = [sum(1 << j for i, j in rank.items() if start >> i & 1)]
        for i in range(count.bit_length() - 1):
            if i in rank:
                bit = 1 << rank[i]
                codes += [c | bit for c in codes]
            else:
                codes += codes
        inherited &= int.from_bytes(bytes(map(below.__getitem__, codes)), "little")
    entries = bytearray(inherited.to_bytes(count, "little"))
    for code, bits in _obstruction_bits(n).items():
        if start <= code < start + count:
            entries[code - start] &= ~bits
    return bytes(entries)


def _member_tables(top: int) -> list[bytes]:
    """Membership tables of every size below ``top``: entry k of table n is graph k's."""
    tables = [bytes([_ALL])]  # the graph on no vertices
    for n in range(1, top):
        tables.append(_members(n, 0, 1 << n * (n - 1) // 2, tables[n - 1]))
    return tables
