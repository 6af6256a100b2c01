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
answer lies in them.  The other searches enumerate everything.  A ``max_n``
budget makes the exponential cost explicit: inputs over budget are refused,
never truncated.

The forbidden-subgraph scans name a witness.  The hereditary membership
tables answer only whether one exists, for every graph on n vertices at
once.  A graph is free of a family's minimal obstructions iff each of its
one-vertex deletions is and the whole graph is not one.  So each entry comes
from the table of size n - 1 and the scans' own tests on the whole vertex set.
The exhaustive recognition sweep reads these tables, and the tests hold them
equal to the scans.
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
    there.  Picks are tried in ascending order and no skipped branch holds a
    passing subset, so the first subset accepted is the one plain enumeration
    would return.
    """
    _require(g.n, max_n, "brute_min_pig")
    n = g.n
    non_edges = non_edges_within(g, range(n))
    inc = [0] * n  # inc[v]: bits of the non-edge indices at v
    for i, (u, v) in enumerate(non_edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    masks = list(g.masks)
    packing = _packing(masks, n, non_edges, inc, 0, [], len(non_edges))
    for k in range(len(packing), len(non_edges) + 1):
        picks = _first_picks(masks, n, non_edges, inc, 0, k, packing)
        if picks is not None:
            return k, tuple(map(non_edges.__getitem__, picks))
    raise AssertionError("unreachable: the complete graph is proper interval")


def _first_picks(
    masks: list[int], n: int, non_edges: tuple[Edge, ...], inc: list[int], p: int, rem: int, held: list[int]
) -> tuple[int, ...] | None:
    """Lexicographically first ``rem`` ascending non-edge indices from p on whose
    edges, added to ``masks``, pass ``pig_mask_check``; None if there are none.

    ``held`` lists the non-edge index sets of induced claws and C4s of
    ``masks`` that are pairwise disjoint from p on.  A node extends it with
    ``_packing`` and skips every branch that cannot hit each set.  A set that
    the next pick misses keeps its obstruction induced, so the child inherits
    it; a set with no index left is a dead branch, and so is a packing larger
    than ``rem``.  The next pick hits or precedes every set, so it is at most
    the smallest top index of a set.  With exactly ``rem`` sets each pick
    must hit a different one, so indices in no set are skipped.  Only
    branches without a passing subset are cut and the picks ascend, so the
    answer is the lexicographically first one.  ``masks`` is restored before
    returning.
    """
    if rem == 0:
        return None if held or not pig_mask_check(masks, n) else ()
    held = _packing(masks, n, non_edges, inc, p, held, rem)
    if held is None:
        return None
    last = len(non_edges) - rem
    hit = 0
    for s in held:
        last = min(last, s.bit_length() - 1)
        hit |= s
    if len(held) < rem:
        hit = -1  # any index may be picked
    for e in range(p, last + 1):
        if not hit >> e & 1:
            continue
        u, v = non_edges[e]
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        rest = _first_picks(masks, n, non_edges, inc, e + 1, rem - 1, [s for s in held if not s >> e & 1])
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        if rest is not None:
            return (e, *rest)
    return None


def _packing(
    masks: list[int], n: int, non_edges: tuple[Edge, ...], inc: list[int], p: int, held: list[int], rem: int
) -> list[int] | None:
    """``held`` extended greedily by induced claws and C4s of ``masks`` whose
    non-edges avoid the indices from p on that it holds; None once a set
    added has no index from p on or the sets outnumber ``rem``.

    Each added set holds only the indices from p on of its obstruction.
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
        found = _free_claw_or_c4(masks, blocked, n)
        if found is None:
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


def _free_claw_or_c4(masks, blocked, n: int) -> int | None:
    """Vertex mask of an induced claw of ``masks``, else of an induced C4, whose
    non-edges are not in ``blocked``; None if there is none.

    ``blocked`` holds ``masks`` and more pairs: edges are read from ``masks``,
    non-edges from ``blocked``.  Claws come in order of (center, leaves), C4s
    in order of the first vertex, its non-neighbour and their first common
    neighbour.
    """
    for c in range(n):
        rest = masks[c]
        while rest:
            a = rest & -rest
            rest ^= a
            cand_b = rest & ~blocked[a.bit_length() - 1]
            while cand_b:
                b = cand_b & -cand_b
                cand_b ^= b
                cand_d = cand_b & ~blocked[b.bit_length() - 1]
                if cand_d:
                    return 1 << c | a | b | (cand_d & -cand_d)
    full = (1 << n) - 1
    for a in range(n):
        far = ~blocked[a] >> (a + 1) << (a + 1) & full
        while far:
            b = far & -far
            far ^= b
            common = masks[a] & masks[b.bit_length() - 1]
            while common:
                x = common & -common
                common ^= x
                y = common & ~blocked[x.bit_length() - 1]
                if y:
                    return 1 << a | b | x | (y & -y)
    return None


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
# forbidden induced subgraph scans


_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PATTERNS4 = {
    "2K2": ((0, 1), (2, 3)),
    "C4": ((0, 1), (1, 2), (2, 3), (0, 3)),
    "P4": ((0, 1), (1, 2), (2, 3)),
    "claw": ((0, 1), (0, 2), (0, 3)),
}


def _build_class4_table() -> dict[int, str]:
    table: dict[int, str] = {}
    pair_index = {p: i for i, p in enumerate(_PAIRS4)}
    for name, edges in _PATTERNS4.items():
        for perm in permutations(range(4)):
            mask = 0
            for u, v in edges:
                a, b = perm[u], perm[v]
                mask |= 1 << pair_index[(a, b) if a < b else (b, a)]
            table[mask] = name
    return table


_CLASS4 = _build_class4_table()

FAMILIES = {
    "threshold": ("2K2", "C4", "P4"),
    "quasi-threshold": ("P4", "C4"),
    "split": ("2K2", "C4", "C5"),
    "pig": ("claw", "net", "tent", "chordless-cycle"),
}

# family -> {4-vertex class: the kind reported for it}; pig names its C4 a chordless cycle
_QUAD_KINDS = {
    "threshold": {"2K2": "2K2", "C4": "C4", "P4": "P4"},
    "quasi-threshold": {"P4": "P4", "C4": "C4"},
    "split": {"2K2": "2K2", "C4": "C4"},
    "pig": {"claw": "claw", "C4": "chordless-cycle"},
}


def _induced_cycle(masks: tuple[int, ...], subset: tuple[int, ...]) -> bool:
    smask = sum(1 << v for v in subset)
    for v in subset:
        if (masks[v] & smask).bit_count() != 2:
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


def _net_or_tent(masks: tuple[int, ...], subset: tuple[int, ...]) -> str | None:
    smask = sum(1 << v for v in subset)
    degs = sorted((masks[v] & smask).bit_count() for v in subset)
    if degs == [1, 1, 1, 3, 3, 3]:
        want_triangle, want_other, kind = 3, 1, "net"
    elif degs == [2, 2, 2, 4, 4, 4]:
        want_triangle, want_other, kind = 4, 2, "tent"
    else:
        return None
    tri = [v for v in subset if (masks[v] & smask).bit_count() == want_triangle]
    rest = [v for v in subset if (masks[v] & smask).bit_count() == want_other]
    for a, b in combinations(tri, 2):
        if not masks[a] >> b & 1:
            return None
    for a, b in combinations(rest, 2):
        if masks[a] >> b & 1:
            return None
    attach = [tuple(sorted(t for t in tri if masks[w] >> t & 1)) for w in rest]
    if kind == "net":
        if sorted(len(a) for a in attach) != [1, 1, 1] or len(set(attach)) != 3:
            return None
    else:
        if sorted(len(a) for a in attach) != [2, 2, 2] or len(set(attach)) != 3:
            return None
    return kind


Witness = tuple[str, tuple[int, ...]]


@cache
def _quad_closers(families: tuple[str, ...]) -> tuple[tuple[tuple[str, str], ...], ...]:
    """Quad pattern -> the (family, kind) pairs among ``families`` its class closes."""
    return tuple(
        tuple((fam, _QUAD_KINDS[fam][cls]) for fam in families if cls in _QUAD_KINDS[fam])
        for cls in map(_CLASS4.get, range(64))
    )


def _scan_quads(masks: tuple[int, ...], n: int, found: dict[str, Witness | None]) -> None:
    """Record in ``found`` each open family's first quad witness, in lexicographic order.

    A quad's 6-bit pattern is read from the rows (bit i for ``_PAIRS4[i]``),
    the part fixed by its first two or three vertices once per prefix.
    """
    closers = _quad_closers(tuple(found))
    for a in range(n):
        ra = masks[a]
        for b in range(a + 1, n):
            rb = masks[b]
            p2 = ra >> b & 1
            for c in range(b + 1, n):
                rc = masks[c]
                p3 = p2 | (ra >> c & 1) << 1 | (rb >> c & 1) << 3
                for d in range(c + 1, n):
                    hit = closers[p3 | (ra >> d & 1) << 2 | (rb >> d & 1) << 4 | (rc >> d & 1) << 5]
                    if hit:
                        for fam, kind in hit:
                            found[fam] = kind, (a, b, c, d)
                        still_open = tuple(f for f, w in found.items() if w is None)
                        if not still_open:
                            return
                        closers = _quad_closers(still_open)


def forbidden_subgraph_scans(
    g: Graph, families: Iterable[str] = tuple(FAMILIES)
) -> dict[str, Witness | None]:
    """First induced forbidden subgraph of each family, in lexicographic subset order.

    Families: ``threshold`` {2K2, C4, P4}; ``quasi-threshold`` {P4, C4};
    ``split`` {2K2, C4, C5}; ``pig`` {claw, net, tent} plus chordless cycles of
    any length (so an empty scan is exactly proper-interval membership).  A
    family's witness is ``(kind, vertices)``, or None when the graph has none.

    The 4-subsets are walked once for all families; 5-subsets only while split
    or pig is open, one cycle test serving both, and larger subsets only for pig.
    """
    found: dict[str, Witness | None] = {}
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
        found[family] = None
    n = g.n
    masks = g.masks
    _scan_quads(masks, n, found)
    fives = [fam for fam in ("split", "pig") if fam in found and found[fam] is None]
    if fives and n >= 5:
        for five in combinations(range(n), 5):
            if _induced_cycle(masks, five):
                for fam in fives:
                    found[fam] = ("C5" if fam == "split" else "chordless-cycle"), five
                break
    if "pig" in found and found["pig"] is None:
        found["pig"] = _pig_large_subsets(masks, n)
    return found


def _pig_large_subsets(masks: tuple[int, ...], n: int) -> Witness | None:
    """First net, tent or chordless cycle on six or more vertices (net/tent first at six)."""
    for size in range(6, n + 1):
        for subset in combinations(range(n), size):
            if size == 6:
                kind = _net_or_tent(masks, subset)
                if kind is not None:
                    return kind, subset
            if _induced_cycle(masks, subset):
                return "chordless-cycle", subset
    return None


WITNESS_CAP = 64  # the scans are quartic: recognizers skip them on larger rejected inputs


def forbidden_subgraph_scan(g: Graph, family: str) -> Witness | None:
    """First induced forbidden subgraph for one family; see ``forbidden_subgraph_scans``."""
    return forbidden_subgraph_scans(g, (family,))[family]


# ---------------------------------------------------------------------------
# hereditary membership tables


# A membership entry holds one bit per family, set iff the graph has no
# induced obstruction of it: iff ``forbidden_subgraph_scans`` finds no witness.
_THRESHOLD, _QT, _SPLIT, _PIG = 1, 2, 4, 8
_ALL = _THRESHOLD | _QT | _SPLIT | _PIG
_FAMILY_BITS = {"threshold": _THRESHOLD, "quasi-threshold": _QT, "split": _SPLIT, "pig": _PIG}

# graph k on 4 vertices (its code is its ``_CLASS4`` pattern) -> the families it is an obstruction of
_QUAD_BITS = tuple(
    sum(bit for fam, bit in _FAMILY_BITS.items() if cls in _QUAD_KINDS[fam]) for cls in map(_CLASS4.get, range(64))
)


def _whole_set_bits(pairs: list[Edge], n: int, k: int, open_bits: int) -> int:
    """The families among ``open_bits`` of which graph k on n vertices is itself an obstruction.

    Graph k has ``pairs[i]`` iff bit i of k is set.  Only the whole vertex
    set is tested, with the scans' own tests: its 4-vertex class; a chordless
    cycle, which at n = 5 is split's C5 as well; a net or tent at n = 6.  A
    chordless n-cycle has n edges and a tent 9 (a net has 6), so other edge
    counts skip the tests.
    """
    if n == 4:
        return _QUAD_BITS[k] & open_bits
    m = k.bit_count()
    bits = open_bits & (_SPLIT | _PIG if n == 5 else _PIG)  # the open families with obstructions this large
    if n < 5 or not bits or m != n and not (n == 6 and m == 9):
        return 0
    masks = [0] * n
    while k:
        low = k & -k
        u, v = pairs[low.bit_length() - 1]
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        k ^= low
    everything = tuple(range(n))
    if m == n and _induced_cycle(masks, everything) or n == 6 and _net_or_tent(masks, everything):
        return bits
    return 0


def _members(n: int, start: int, count: int, below: bytes) -> bytes:
    """Membership entries of graphs start, ..., start + count - 1 on n vertices.

    Graph k has pair i of ``combinations(range(n), 2)`` iff bit i of k is
    set.  ``below`` is the table of size n - 1, and count is a power of two
    that divides start.  Every family's obstructions are minimal and closed
    under relabelling, so g is free of them iff each g - v is and g is not
    one itself.  g - v keeps the pairs that miss v in their order, so its
    code packs those bits of k downwards.  Per v, the codes of the block's
    deletions are built by doubling over the free low bits, looked up as one
    byte string and ANDed with the others as one integer.
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
    return bytes(
        bits & ~_whole_set_bits(pairs, n, start + p, bits) if bits else 0
        for p, bits in enumerate(inherited.to_bytes(count, "little"))
    )


def _member_tables(top: int) -> list[bytes]:
    """Membership tables of every size below ``top``: entry k of table n is graph k's."""
    tables = [bytes([_ALL])]  # the graph on no vertices
    for n in range(1, top):
        tables.append(_members(n, 0, 1 << n * (n - 1) // 2, tables[n - 1]))
    return tables
