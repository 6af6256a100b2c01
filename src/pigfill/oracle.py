"""Exhaustive reference solvers used as ground truth in tests and cross-checks.

These deliberately enumerate the whole search space (fill-edge subsets,
bipartitions, vertex subsets) and never share code with the fast algorithms
they certify.  Budgets make the exponential cost explicit: inputs over budget
are refused, never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import OracleBudgetError
from .graph import EdgeSet, Graph, iter_non_edges
from .recognition import pig_mask_check


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 8
    max_fill: int | None = None


def _require(n: int, budget: OracleBudget, what: str) -> None:
    if budget.max_vertices < 1:
        raise OracleBudgetError("budget must allow at least one vertex")
    if n > budget.max_vertices:
        raise OracleBudgetError(
            f"{what} refuses n={n} over budget {budget.max_vertices}; raise the budget explicitly"
        )


# ---------------------------------------------------------------------------
# minimum proper-interval completion


def brute_min_pig(g: Graph, budget: OracleBudget | None = None) -> tuple[int, EdgeSet]:
    """Minimum proper-interval completion by escalating fill size.

    For k = 0, 1, 2, ... the k-subsets of non-edges are tried in lexicographic
    order and the first passing subset is returned, so the witness is
    deterministic.
    """
    budget = budget or OracleBudget(max_vertices=8)
    _require(g.n, budget, "brute_min_pig")
    non_edges = list(iter_non_edges(g))
    base = list(g.masks)
    n = g.n
    for k in range(len(non_edges) + 1):
        if budget.max_fill is not None and k > budget.max_fill:
            raise OracleBudgetError(f"no completion within the fill cap {budget.max_fill}")
        for combo in combinations(non_edges, k):
            masks = base.copy()
            for u, v in combo:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            if pig_mask_check(masks, n):
                return k, frozenset(combo)
    raise AssertionError("unreachable: the complete graph is proper interval")


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


def _sweep_bipartitions(g: Graph, maximize_cut: bool) -> tuple[int, int]:
    """Exhaustive Gray-code sweep over all bipartitions with vertex 0 fixed in A.

    Returns (best score, best A-mask).  Score is the cut size when
    ``maximize_cut`` else the number of non-edges within the two parts.
    """
    n = g.n
    masks = g.masks
    full = (1 << n) - 1
    a_mask = full
    b_mask = 0
    if maximize_cut:
        score = 0
    else:
        score = n * (n - 1) // 2 - g.m
    best, best_a = score, a_mask
    steps = 1 << max(n - 1, 0)
    for t in range(1, steps):
        v = (t & -t).bit_length()  # flipped vertex: trailing zeros of t, shifted past vertex 0
        bit = 1 << v
        adj = masks[v]
        if b_mask & bit:  # v moves B -> A
            deg_b = (adj & b_mask).bit_count()
            deg_a = (adj & a_mask).bit_count()
            if maximize_cut:
                score += deg_b - deg_a
            else:
                size_b = b_mask.bit_count()
                size_a = a_mask.bit_count()
                score -= size_b - 1 - deg_b
                score += size_a - deg_a
            b_mask &= ~bit
            a_mask |= bit
        else:  # v moves A -> B
            deg_a = (adj & a_mask).bit_count()
            deg_b = (adj & b_mask).bit_count()
            if maximize_cut:
                score += deg_a - deg_b
            else:
                size_a = a_mask.bit_count()
                size_b = b_mask.bit_count()
                score -= size_a - 1 - deg_a
                score += size_b - deg_b
            a_mask &= ~bit
            b_mask |= bit
        better = score > best if maximize_cut else score < best
        if better or (score == best and _set_lex_less(a_mask, best_a)):
            best, best_a = score, a_mask
    return best, best_a


def _parts_from_mask(n: int, a_mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a = tuple(v for v in range(n) if a_mask >> v & 1)
    b = tuple(v for v in range(n) if not a_mask >> v & 1)
    return a, b


def brute_min_cobipartite(
    g: Graph, budget: OracleBudget | None = None
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Minimum fill turning the graph into two cliques, over all bipartitions.

    Ties resolve to the lexicographically least part containing vertex 0.
    """
    budget = budget or OracleBudget(max_vertices=20)
    _require(g.n, budget, "brute_min_cobipartite")
    if g.n == 0:
        return 0, ((), ())
    cost, a_mask = _sweep_bipartitions(g, maximize_cut=False)
    return cost, _parts_from_mask(g.n, a_mask)


def brute_max_cut(
    g: Graph, budget: OracleBudget | None = None
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Maximum cut over all bipartitions, same tie rule as the co-bipartite sweep."""
    budget = budget or OracleBudget(max_vertices=20)
    _require(g.n, budget, "brute_max_cut")
    if g.n == 0:
        return 0, ((), ())
    size, a_mask = _sweep_bipartitions(g, maximize_cut=True)
    return size, _parts_from_mask(g.n, a_mask)


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


def _subset_mask4(masks: tuple[int, ...], quad: tuple[int, ...]) -> int:
    mask = 0
    for i, (a, b) in enumerate(_PAIRS4):
        if masks[quad[a]] >> quad[b] & 1:
            mask |= 1 << i
    return mask


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


def forbidden_subgraph_scan(g: Graph, family: str) -> tuple[str, tuple[int, ...]] | None:
    """First induced forbidden subgraph for the family, in lexicographic subset order.

    Families: ``threshold`` {2K2, C4, P4}; ``quasi-threshold`` {P4, C4};
    ``split`` {2K2, C4, C5}; ``pig`` {claw, net, tent} plus chordless cycles of
    any length (so an empty scan is exactly proper-interval membership).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    wanted = FAMILIES[family]
    n = g.n
    masks = g.masks
    if family in ("threshold", "quasi-threshold"):
        for quad in combinations(range(n), 4):
            kind = _CLASS4.get(_subset_mask4(masks, quad))
            if kind in wanted:
                return kind, quad
        return None
    if family == "split":
        for quad in combinations(range(n), 4):
            kind = _CLASS4.get(_subset_mask4(masks, quad))
            if kind in ("2K2", "C4"):
                return kind, quad
        for five in combinations(range(n), 5):
            if _induced_cycle(masks, five):
                return "C5", five
        return None
    # pig
    for quad in combinations(range(n), 4):
        kind = _CLASS4.get(_subset_mask4(masks, quad))
        if kind == "claw":
            return "claw", quad
        if kind == "C4":
            return "chordless-cycle", quad
    for size in range(5, n + 1):
        for subset in combinations(range(n), size):
            if size == 6:
                kind = _net_or_tent(masks, subset)
                if kind is not None:
                    return kind, subset
            if _induced_cycle(masks, subset):
                return "chordless-cycle", subset
    return None
