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
min over j of C(j, 2) + N[0][j] is quadratic overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ClassMembershipError, GraphInputError
from .graph import EdgeSet, Graph, edge
from .recognition import CaterpillarDecomposition, caterpillar_decomposition
from .results import CompletionResult, PointPlacement


@dataclass(frozen=True)
class PlacementTables:
    """Right-to-left DP rows plus argmin records for backtracking."""

    rows: tuple[tuple[int, ...], ...]
    choice: dict[tuple[int, int], int]  # (i, j) -> left-son count of bucket i+1
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
    choice: dict[tuple[int, int], int] = {}
    for i in range(k - 1, -1, -1):
        row = []
        nxt = rows[i + 1]
        for j in range(sizes[i] + 1):
            best = None
            best_jp = 0
            for jp in range(sizes[i + 1] + 1):
                evals += 1
                val = comb(sizes[i] - j + jp + 1, 2) + nxt[jp]
                if best is None or val < best:
                    best, best_jp = val, jp
            row.append(best)
            choice[(i, j)] = best_jp
        rows[i] = tuple(row)  # type: ignore[assignment]
    answer = None
    best_j0 = 0
    for j in range(sizes[0] + 1):
        evals += 1
        val = comb(j, 2) + rows[0][j]
        if answer is None or val < answer:
            answer, best_j0 = val, j
    if answer is None:
        raise AssertionError("placement DP found no start count")
    return PlacementTables(tuple(rows), choice, answer, best_j0, evals)


def placement_from_tables(d: CaterpillarDecomposition, tables: PlacementTables) -> PointPlacement:
    """Backtrack the left-son counts into integer points for every leaf."""
    left_counts = [tables.best_j0]
    for i in range(len(d.spine) - 1):
        left_counts.append(tables.choice[(i, left_counts[-1])])
    points = []
    for i, bucket in enumerate(d.buckets):
        j = left_counts[i]
        points.extend((leaf, i) for leaf in bucket[:j])
        points.extend((leaf, i + 1) for leaf in bucket[j:])
    return PointPlacement(d.spine, tuple(sorted(points)))


def materialize_fill_edges(g: Graph, p: PointPlacement) -> EdgeSet:
    """Edges the point model requires beyond E(g).

    All vertices on one point become a clique, and a leaf on point t gains the
    spine vertices whose interval covers t (indices t-1 and t when they
    exist).  Nothing else is added.
    """
    k = len(p.spine) - 1
    on_spine = set(p.spine)
    groups: dict[int, list[int]] = {}
    for leaf, point in p.points:
        if leaf in on_spine:
            raise GraphInputError(f"vertex {leaf} is on the spine and cannot be a placed leaf")
        if not 0 <= point <= k + 1:
            raise GraphInputError(f"point {point} outside 0..{k + 1}")
        groups.setdefault(point, []).append(leaf)
    fill = set()
    for point, group in groups.items():
        for a_idx, a in enumerate(group):
            for b in group[a_idx + 1 :]:
                if not g.has_edge(a, b):
                    fill.add(edge(a, b))
        for idx in (point - 1, point):
            if 0 <= idx <= k:
                sv = p.spine[idx]
                for a in group:
                    if not g.has_edge(a, sv):
                        fill.add(edge(a, sv))
    return frozenset(fill)


def _describes(d: CaterpillarDecomposition, g: Graph) -> bool:
    """True iff d names each vertex of g once and its edges are exactly E(g).

    Compares edge lists instead of building the graph d describes, whose
    n-bit masks would double the peak memory on long caterpillars.
    """
    named = list(d.spine) + [leaf for bucket in d.buckets for leaf in bucket]
    if not d.spine or len(d.buckets) != len(d.spine) or sorted(named) != list(range(g.n)):
        return False
    pairs = list(zip(d.spine, d.spine[1:]))
    for v, bucket in zip(d.spine, d.buckets):
        pairs.extend((v, leaf) for leaf in bucket)
    return sorted(edge(u, v) for u, v in pairs) == g.edges()


def caterpillar_pig_completion(g: Graph, d: CaterpillarDecomposition | None = None) -> CompletionResult:
    """Minimum proper-interval completion of a caterpillar.

    Computes the spine decomposition if not supplied; a supplied one must
    describe g exactly.
    """
    if d is None:
        d = caterpillar_decomposition(g)
        if d is None:
            raise ClassMembershipError("caterpillar")
    elif not _describes(d, g):
        raise GraphInputError("caterpillar decomposition does not describe the input graph")
    tables = build_placement_tables(d)
    placement = placement_from_tables(d, tables)
    fill = materialize_fill_edges(g, placement)
    if len(fill) != tables.answer:
        raise AssertionError("DP answer disagrees with the materialized fill")
    return CompletionResult(fill, tables.answer, placement, "caterpillar")
