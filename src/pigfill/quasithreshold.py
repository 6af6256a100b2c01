"""Minimum co-bipartite completion of quasi-threshold graphs by tree DP.

The certifying rooted forest drives a knapsack-style merge: for a vertex v
with children v_1..v_c, cell ``C(v, i, j)`` is the cheapest way to split the
vertices of the first i child subtrees into two cliques with j on side 1.
Merging child i in means choosing how many of its subtree vertices (j - k) go
to side 1:

    C(v, i, j) = min over k of  C(v, i-1, k) + D(v_i, j-k)
                 + k*(j-k) + (x_{i-1} - k)*(n_i - (j-k))

where the two products pay for the missing edges between the child subtree
and the previously merged subtrees inside each side (subtrees hanging off
different children are pairwise non-adjacent).  ``D(v, j)`` absorbs v itself:
v is adjacent to its whole subtree, so it joins whichever side is cheaper,
D(v, j) = min(C(v, c, j-1), C(v, c, j)), and every C row is a palindrome
(swapping the two cliques).

On a connected input the root is universal, so every proper-interval
supergraph is co-bipartite: the minimum co-bipartite completion is a lower
bound for the minimum proper-interval completion, but not always equal to it.

Disconnected inputs are merged under a virtual super-root that contributes no
vertex; the cross products then charge exactly the missing inter-component
pairs.  A proper-interval completion never needs those pairs, so such a cost
bounds the PIG optimum only when it charges none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClassMembershipError, GraphInputError
from .graph import Graph, non_edges_within, strictly_ascending
from .oracle import forbidden_subgraph_scan
from .recognition import (
    QtForest,
    forest_from_parents,
    qt_forest_graph,
    qt_forest_postorder,
    quasi_threshold_forest,
)
from .results import CliqueBipartition, CompletionResult

_WITNESS_CAP = 64
_SUPER_ROOT = -1


@dataclass(frozen=True)
class DpTables:
    """DP state: D rows per vertex, the top-level row, argmin records.

    Only the finished row per (vertex, child-index) survives when
    ``keep_cells`` was requested; otherwise rows are dropped as soon as the
    next child is merged, leaving O(n) live cost cells plus the choice map.
    ``prefix[v][i]`` is the combined size of the first i child subtrees.
    """

    d: dict[int, tuple[int, ...]]
    root_row: tuple[int, ...]
    prefix: dict[int, tuple[int, ...]]
    choice: dict[tuple[int, int, int], int]
    d_side: dict[tuple[int, int], int]  # (v, j) -> side v itself takes (1 or 2)
    cells: dict[tuple[int, int], tuple[int, ...]] | None
    eval_count: int


def build_dp_tables(f: QtForest, *, keep_cells: bool = False) -> DpTables:
    """Fill the tables bottom-up, children in id order, smallest-k tie-break."""
    d: dict[int, tuple[int, ...]] = {}
    prefix: dict[int, tuple[int, ...]] = {}
    choice: dict[tuple[int, int, int], int] = {}
    d_side: dict[tuple[int, int], int] = {}
    cells: dict[tuple[int, int], tuple[int, ...]] | None = {} if keep_cells else None
    evals = 0

    def combine(v: int, kids: tuple[int, ...]) -> tuple[int, ...]:
        nonlocal evals
        prev: tuple[int, ...] = (0,)
        x_prev = 0
        xs = [0]
        if cells is not None:
            cells[(v, 0)] = prev
        for i, ch in enumerate(kids, start=1):
            n_ch = f.subtree_size[ch]
            d_ch = d[ch]
            x_i = x_prev + n_ch
            cur = [0] * (x_i + 1)
            for j in range(x_i + 1):
                lo = j - n_ch if j > n_ch else 0
                hi = j if j < x_prev else x_prev
                best = None
                best_k = lo
                for k in range(lo, hi + 1):
                    evals += 1
                    val = prev[k] + d_ch[j - k] + k * (j - k) + (x_prev - k) * (n_ch - j + k)
                    if best is None or val < best:
                        best, best_k = val, k
                cur[j] = best  # type: ignore[assignment]
                choice[(v, i, j)] = best_k
            prev = tuple(cur)
            x_prev = x_i
            xs.append(x_i)
            if cells is not None:
                cells[(v, i)] = prev
        prefix[v] = tuple(xs)
        return prev

    for v in qt_forest_postorder(f):
        row = combine(v, f.children[v])  # C(v, c_v, .), indices 0..n_v-1
        n_v = f.subtree_size[v]
        drow = [row[0]]
        d_side[(v, 0)] = 2
        for j in range(1, n_v):
            if row[j - 1] <= row[j]:
                drow.append(row[j - 1])
                d_side[(v, j)] = 1
            else:
                drow.append(row[j])
                d_side[(v, j)] = 2
        drow.append(row[n_v - 1])
        d_side[(v, n_v)] = 1
        d[v] = tuple(drow)
    root_row = combine(_SUPER_ROOT, f.roots)
    return DpTables(d, root_row, prefix, choice, d_side, cells, evals)


def _subtree_vertices(f: QtForest, v: int) -> list[int]:
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(f.children[u])
    return out


def _backtrack(f: QtForest, tables: DpTables, j_star: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    side = [2] * f.n
    # ("C", v, i, j): split j side-1 slots over the first i children of v;
    # ("D", v, j): give j vertices of v's subtree to side 1.
    stack: list[tuple[str, int, int, int]] = [("C", _SUPER_ROOT, len(f.roots), j_star)]
    while stack:
        kind, v, i, j = stack.pop()
        if kind == "C":
            if i == 0:
                continue
            k = tables.choice[(v, i, j)]
            kids = f.roots if v == _SUPER_ROOT else f.children[v]
            stack.append(("C", v, i - 1, k))
            stack.append(("D", kids[i - 1], 0, j - k))
        else:
            v_, share = v, j
            n_v = f.subtree_size[v_]
            if share == 0:
                continue  # whole subtree stays on side 2
            if share == n_v:
                for u in _subtree_vertices(f, v_):
                    side[u] = 1
                continue
            if tables.d_side[(v_, share)] == 1:
                side[v_] = 1
                stack.append(("C", v_, f.child_count[v_], share - 1))
            else:
                stack.append(("C", v_, f.child_count[v_], share))
    s1 = tuple(w for w in range(f.n) if side[w] == 1)
    s2 = tuple(w for w in range(f.n) if side[w] == 2)
    return s1, s2


def qt_cobipartite_completion(
    g: Graph, forest: QtForest | None = None, *, cost_only: bool = False
) -> CompletionResult:
    """Minimum co-bipartite completion with an explicit clique bipartition.

    Computes the rooted forest if not supplied; a supplied one must rebuild g.
    The result is labeled a lower bound for the minimum proper-interval
    completion when the cost equals the sum of the components' own
    co-bipartite optima: always on a connected input, and on a disconnected
    one only when no pair between components is charged.  Ties resolve to the
    smallest side-1 size.
    The fill is an ascending tuple; with ``cost_only`` it is not materialized
    and ``fill`` is None.
    """
    if forest is None:
        forest = quasi_threshold_forest(g)
        if forest is None:
            witness = forbidden_subgraph_scan(g, "quasi-threshold") if g.n <= _WITNESS_CAP else None
            raise ClassMembershipError("quasi-threshold", witness)
    elif forest != forest_from_parents(list(forest.parent)) or qt_forest_graph(forest) != g:
        raise GraphInputError("quasi-threshold forest does not rebuild the input graph")
    tables = build_dp_tables(forest)
    cost = min(tables.root_row)
    j_star = tables.root_row.index(cost)
    s1, s2 = _backtrack(forest, tables, j_star)
    if len(s1) != j_star:
        raise AssertionError("backtracked side size disagrees with the argmin")
    fill = None
    if not cost_only:
        # each side's pairs are one ascending run, which timsort merges in linear time
        fill = tuple(sorted(non_edges_within(g, s1) + non_edges_within(g, s2)))
        if len(fill) != cost:
            raise AssertionError("DP cost disagrees with the materialized fill")
        if not strictly_ascending(fill):
            raise AssertionError("materialized fill repeats a pair")
    # A connected qt graph's co-bipartite optimum bounds its PIG optimum, and
    # PIG optima add over components; the super-root's cross terms do not.
    is_pig_bound = cost == sum(min(tables.d[r]) for r in forest.roots)
    return CompletionResult(
        fill,
        cost,
        CliqueBipartition(s1, s2),
        "qt-cobipartite",
        lower_bound_for="pig-completion" if is_pig_bound else None,
    )
