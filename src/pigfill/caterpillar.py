"""Minimum proper-interval completion of caterpillars via leaf placement.

An optimal completion can always be realized by a model where spine vertex
``v_i`` is the unit interval [i, i+1] and every leaf of ``v_i`` sits on the
integer point i (a "left son") or i+1 (a "right son").  All vertices sharing a
point form a clique, and a leaf on point t also meets the one or two spine
intervals covering t.  Splitting bucket i as j left sons therefore prices the
junction at point i+1 as C(w+1, 2) with w = (|V_i| - j) + |V_{i+1}-left|:
C(w, 2) pairs inside the point plus w cross edges to the two adjacent spine
vertices, one of which is always the leaf's own father.

The table ``N[i][j]`` holds the optimal fill to the right of point i given
that bucket i sends j leaves left; filling right-to-left and closing with
min over j of C(j, 2) + N[0][j] costs O(sum of s_i * s_{i+1}) evaluations,
where s_i is the size of bucket i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import itemgetter

from .errors import ClassMembershipError, GraphInputError
from .graph import Edge, Graph
from .recognition import CaterpillarDecomposition, caterpillar_decomposition
from .results import CompletionResult, PointPlacement


@dataclass(frozen=True)
class PlacementTables:
    """Right-to-left DP rows plus argmin records for backtracking."""

    rows: tuple[tuple[int, ...], ...]
    choice: tuple[tuple[int, ...], ...]  # choice[i][j]: left-son count of bucket i+1
    answer: int
    best_j0: int
    eval_count: int


def build_placement_tables(d: CaterpillarDecomposition) -> PlacementTables:
    """Fill N right-to-left; ties break to the smallest left-son count."""
    sizes = d.bucket_sizes
    k = len(d.spine) - 1
    evals = 0
    rows: list[tuple[int, ...]] = [()] * (k + 1)
    rows[k] = tuple(comb(sizes[k] - j, 2) for j in range(sizes[k] + 1))
    evals += sizes[k] + 1
    choice: list[tuple[int, ...]] = [()] * k
    for i in range(k - 1, -1, -1):
        row = []
        picks = []
        nxt = rows[i + 1]
        evals += (sizes[i] + 1) * (sizes[i + 1] + 1)
        for j in range(sizes[i] + 1):
            best = None
            best_jp = 0
            for jp in range(sizes[i + 1] + 1):
                val = comb(sizes[i] - j + jp + 1, 2) + nxt[jp]
                if best is None or val < best:
                    best, best_jp = val, jp
            row.append(best)
            picks.append(best_jp)
        rows[i] = tuple(row)  # type: ignore[assignment]
        choice[i] = tuple(picks)
    answer = None
    best_j0 = 0
    evals += sizes[0] + 1
    for j in range(sizes[0] + 1):
        val = comb(j, 2) + rows[0][j]
        if answer is None or val < answer:
            answer, best_j0 = val, j
    if answer is None:
        raise AssertionError("placement DP found no start count")
    return PlacementTables(tuple(rows), tuple(choice), answer, best_j0, evals)


def placement_from_tables(d: CaterpillarDecomposition, tables: PlacementTables) -> PointPlacement:
    """Backtrack the left-son counts into integer points for every leaf.

    The points go into a leaf-indexed array, which lists them by leaf id in
    O(n) without a sort.
    """
    point_of = [-1] * (len(d.spine) + sum(d.bucket_sizes))
    j = tables.best_j0
    for i, bucket in enumerate(d.buckets):
        if i:
            j = tables.choice[i - 1][j]
        for leaf in bucket[:j]:
            point_of[leaf] = i
        for leaf in bucket[j:]:
            point_of[leaf] = i + 1
    return PointPlacement(d.spine, tuple((leaf, t) for leaf, t in enumerate(point_of) if t >= 0))


def materialize_fill_edges(g: Graph, p: PointPlacement) -> tuple[Edge, ...]:
    """Edges the point model requires beyond E(g), as an ascending tuple.

    All vertices on one point become a clique, and a leaf on point t gains the
    spine vertices whose interval covers t (indices t-1 and t when they
    exist).  Nothing else is added.  Each leaf is placed once, so no pair is
    produced twice.

    The placement is checked in bulk (set and min/max passes) and re-read
    entry by entry only when it is bad, so the first bad entry names the
    error.  One pass over the leaves then pairs each leaf with the leaves
    placed on its point before it and with its one or two spine vertices; a
    leaf's neighbour tuple has one entry, so each membership test is O(1).
    """
    spine = p.spine
    k = len(spine) - 1
    points = p.points
    placed = set(map(itemgetter(0), points))
    where = list(map(itemgetter(1), points))
    if not placed.isdisjoint(spine) or (where and not (0 <= min(where) and max(where) <= k + 1)):
        _reject_placement(spine, points)
    if len(placed) != len(points):
        raise GraphInputError("a leaf is placed more than once")
    nb = g.neighbors
    on_point: list[list[int] | None] = [None] * (k + 2)
    fill: list[Edge] = []
    for a, t in points:
        row = nb[a]
        earlier = on_point[t]
        if earlier is None:
            on_point[t] = [a]
        else:
            for b in earlier:
                if b not in row:
                    fill.append((a, b) if a < b else (b, a))
            earlier.append(a)
        if t:
            sv = spine[t - 1]
            if sv not in row:
                fill.append((a, sv) if a < sv else (sv, a))
        if t <= k:
            sv = spine[t]
            if sv not in row:
                fill.append((a, sv) if a < sv else (sv, a))
    fill.sort()
    return tuple(fill)


def _reject_placement(spine: tuple[int, ...], points: tuple[tuple[int, int], ...]) -> None:
    """Raise the error of the first entry that places a spine vertex or leaves points 0..k+1."""
    on_spine = set(spine)
    for leaf, point in points:
        if leaf in on_spine:
            raise GraphInputError(f"vertex {leaf} is on the spine and cannot be a placed leaf")
        if not 0 <= point <= len(spine):
            raise GraphInputError(f"point {point} outside 0..{len(spine)}")
    raise AssertionError("a placement was rejected without a bad entry")


def _placement_order(p: PointPlacement) -> tuple[int, ...]:
    """Umbrella order of g plus the placement's fill, in O(n) and without a sort.

    For t = 0..k+1: the leaves on point t, then ``spine[t]``.  A leaf on t
    sees ``spine[t-1]``, the leaves on t and ``spine[t]``; ``spine[t]`` sees
    ``spine[t-1]``, the leaves on t and on t+1 and ``spine[t+1]``.  Each is a
    run of this order.  ``p.points`` is sorted by leaf, so each point's
    leaves come in ascending id.
    """
    spine = p.spine
    groups: list[list[int]] = [[] for _ in range(len(spine) + 1)]
    for leaf, point in p.points:
        groups[point].append(leaf)
    order: list[int] = []
    for group, v in zip(groups, spine):
        order += group
        order.append(v)
    order += groups[-1]
    return tuple(order)


def caterpillar_pig_completion(g: Graph, *, cost_only: bool = False) -> CompletionResult:
    """Minimum proper-interval completion of a caterpillar, on its spine decomposition.

    Raises ClassMembershipError when g is not a caterpillar.  With
    ``cost_only`` the fill is not materialized and ``fill`` and ``order`` are
    None; otherwise ``order`` is an umbrella order of g plus the fill.
    """
    d = caterpillar_decomposition(g)
    if d is None:
        raise ClassMembershipError("caterpillar")
    tables = build_placement_tables(d)
    placement = placement_from_tables(d, tables)
    if cost_only:
        return CompletionResult(None, tables.answer, placement, "caterpillar")
    fill = materialize_fill_edges(g, placement)
    if len(fill) != tables.answer:
        raise AssertionError("DP answer disagrees with the materialized fill")
    return CompletionResult(fill, tables.answer, placement, "caterpillar", order=_placement_order(placement))
