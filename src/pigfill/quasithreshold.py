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

The argmin k of each merge is kept in one row per merged child, and one byte
per (v, j) records whether v joins side 1; the backtrack walks a single stack
of (vertex, side-1 count) pairs down those rows.

On a connected input the root is universal, so every proper-interval
supergraph is co-bipartite: the minimum co-bipartite completion is a lower
bound for the minimum proper-interval completion, but not always equal to it.

Disconnected inputs are merged under a virtual super-root, vertex index n,
that contributes no vertex; the cross products then charge exactly the
missing inter-component pairs.  A proper-interval completion never needs
those pairs, so such a cost bounds the PIG optimum only when it charges none
of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClassMembershipError
from .graph import Graph, non_edges_within
from .oracle import WITNESS_CAP, forbidden_subgraph_scan
from .recognition import QtForest, qt_forest_postorder, quasi_threshold_forest
from .results import CliqueBipartition, CompletionResult


@dataclass(frozen=True)
class DpTables:
    """DP state: D rows per vertex, the top-level row, argmins per merged child.

    Vertex index n stands for the super-root, whose children are ``f.roots``.
    ``choice[v][i][j]`` is the argmin k that merged child i of v (0-based) into
    C(v, i+1, j); ``joins[v][j]`` is 1 where v itself takes side 1 in D(v, j).
    Only with ``keep_cells`` does the finished row per (vertex, child count)
    survive; otherwise each row is dropped once the next child is merged,
    leaving O(n) live cost cells beside the argmin rows.
    """

    d: tuple[tuple[int, ...], ...]
    root_row: tuple[int, ...]
    choice: tuple[tuple[tuple[int, ...], ...], ...]
    joins: tuple[bytes, ...]
    cells: dict[tuple[int, int], tuple[int, ...]] | None
    eval_count: int


def build_dp_tables(f: QtForest, *, keep_cells: bool = False) -> DpTables:
    """Fill the tables bottom-up, children in id order, smallest-k tie-break."""
    n = f.n
    d: list[tuple[int, ...]] = [()] * n
    choice: list[tuple[tuple[int, ...], ...]] = [()] * (n + 1)
    joins: list[bytes] = [b""] * n
    cells: dict[tuple[int, int], tuple[int, ...]] | None = {} if keep_cells else None
    evals = 0

    def combine(v: int, kids: tuple[int, ...]) -> tuple[int, ...]:
        nonlocal evals
        prev: tuple[int, ...] = (0,)
        x_prev = 0
        rows = []
        if cells is not None:
            cells[(v, 0)] = prev
        for i, ch in enumerate(kids, start=1):
            n_ch = f.subtree_size[ch]
            d_ch = d[ch]
            x_i = x_prev + n_ch
            evals += (x_prev + 1) * (n_ch + 1)  # the (j, k) pairs tried below
            cur = [0] * (x_i + 1)
            picks = [0] * (x_i + 1)
            for j in range(x_i + 1):
                lo = j - n_ch if j > n_ch else 0
                hi = j if j < x_prev else x_prev
                best = None
                best_k = lo
                for k in range(lo, hi + 1):
                    val = prev[k] + d_ch[j - k] + k * (j - k) + (x_prev - k) * (n_ch - j + k)
                    if best is None or val < best:
                        best, best_k = val, k
                cur[j] = best  # type: ignore[assignment]
                picks[j] = best_k
            prev = tuple(cur)
            rows.append(tuple(picks))
            x_prev = x_i
            if cells is not None:
                cells[(v, i)] = prev
        choice[v] = tuple(rows)
        return prev

    for v in qt_forest_postorder(f):
        row = combine(v, f.children[v])  # C(v, c_v, .), indices 0..n_v-1
        n_v = f.subtree_size[v]
        # v joins side 1 where that is no dearer; always at j = n_v, never at 0
        join = bytearray(n_v + 1)
        drow = [row[0]]
        for j in range(1, n_v):
            join[j] = row[j - 1] <= row[j]
            drow.append(row[j - 1] if join[j] else row[j])
        join[n_v] = 1
        drow.append(row[n_v - 1])
        d[v] = tuple(drow)
        joins[v] = bytes(join)
    root_row = combine(n, f.roots)
    return DpTables(tuple(d), root_row, tuple(choice), tuple(joins), cells, evals)


def _backtrack(f: QtForest, tables: DpTables, j_star: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sides of the split that C(super-root, all roots, j_star) charges, side 1 of size j_star."""
    n = f.n
    in_s1 = bytearray(n)
    stack = [(n, j_star)]  # (vertex, vertices of its subtree on side 1)
    while stack:
        v, j = stack.pop()
        if v == n:
            kids = f.roots
        else:
            kids = f.children[v]
            if tables.joins[v][j]:
                in_s1[v] = 1
                j -= 1
        rows = tables.choice[v]
        for i in range(len(kids) - 1, -1, -1):
            k = rows[i][j]
            stack.append((kids[i], j - k))
            j = k
    s1 = tuple(w for w in range(n) if in_s1[w])
    s2 = tuple(w for w in range(n) if not in_s1[w])
    return s1, s2


def qt_cobipartite_completion(g: Graph, *, cost_only: bool = False) -> CompletionResult:
    """Minimum co-bipartite completion with an explicit clique bipartition.

    Runs on g's rooted forest; ClassMembershipError when g is not
    quasi-threshold.  The result is labeled a lower bound for the minimum
    proper-interval completion when the cost equals the sum of the
    components' own co-bipartite optima: always on a connected input, and on
    a disconnected one only when no pair between components is charged.
    Ties resolve to the smallest side-1 size.
    The fill is an ascending tuple; with ``cost_only`` it is not materialized
    and ``fill`` is None.
    """
    forest = quasi_threshold_forest(g)
    if forest is None:
        witness = forbidden_subgraph_scan(g, "quasi-threshold") if g.n <= WITNESS_CAP else None
        raise ClassMembershipError("quasi-threshold", witness)
    tables = build_dp_tables(forest)
    cost = min(tables.root_row)
    j_star = tables.root_row.index(cost)
    s1, s2 = _backtrack(forest, tables, j_star)
    if len(s1) != j_star:
        raise AssertionError("backtracked side size disagrees with the argmin")
    fill = None
    if not cost_only:
        fill = non_edges_within(g, s1, s2)
        if len(fill) != cost:
            raise AssertionError("DP cost disagrees with the materialized fill")
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
