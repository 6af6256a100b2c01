"""Linear-time minimum proper-interval completion for threshold graphs.

For a connected threshold graph the optimum equals the cheapest way of
covering the vertices by two cliques, so the algorithm just assigns vertices
to sides S1/S2 while walking the creation sequence: a dominating vertex always
joins S1; an isolated vertex joins S1 exactly when more isolated vertices
remain to be added than S1 currently holds, else S2.  Each isolated vertex
pays the size of the side it joins, which totals the number of non-edges
inside the two sides.

Vertices that are isolated in the input graph are irrelevant to the optimum
(the completion never needs to touch them) and are kept outside both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClassMembershipError
from .graph import Graph, non_edges_within
from .oracle import WITNESS_CAP, forbidden_subgraph_scan
from .recognition import DOMINATING, ISOLATED, CreationSequence, threshold_creation_sequence
from .results import CliqueBipartition, CompletionResult


@dataclass(frozen=True)
class ThresholdRun:
    """Trace of one assignment pass over the non-degenerate creation steps."""

    sequence: CreationSequence
    side: tuple[int, ...]  # 1 or 2 per step
    cost: int
    stripped: tuple[int, ...]  # vertices isolated in the input, left untouched

    @property
    def step_count(self) -> int:
        return len(self.side)


def _assign(steps: tuple[tuple[int, str], ...]) -> tuple[list[int], int]:
    iso_after = [0] * (len(steps) + 1)
    for p in range(len(steps) - 1, -1, -1):
        iso_after[p] = iso_after[p + 1] + (steps[p][1] == ISOLATED)
    side: list[int] = []
    s1 = s2 = cost = 0
    for p, (_, tag) in enumerate(steps):
        if tag == DOMINATING:
            side.append(1)
            s1 += 1
        elif iso_after[p + 1] > s1:
            side.append(1)
            cost += s1
            s1 += 1
        else:
            side.append(2)
            cost += s2
            s2 += 1
    return side, cost


def threshold_run(g: Graph) -> ThresholdRun:
    """Run the assignment loop on g's creation sequence; ClassMembershipError if g is not threshold."""
    sequence = threshold_creation_sequence(g)
    if sequence is None:
        witness = forbidden_subgraph_scan(g, "threshold") if g.n <= WITNESS_CAP else None
        raise ClassMembershipError("threshold", witness)
    active = tuple(step for step in sequence.steps if g.degree(step[0]) > 0)
    stripped = tuple(v for v, _ in sequence.steps if g.degree(v) == 0)
    side, cost = _assign(active)
    return ThresholdRun(CreationSequence(active), tuple(side), cost, tuple(sorted(stripped)))


def _clique_pair_order(g: Graph, s1: tuple[int, ...], s2: tuple[int, ...], rest: tuple[int, ...]) -> tuple[int, ...]:
    """Umbrella order of g once s1 and s2 are cliques, in O(n + m).

    s1 by ascending count of s2-neighbours, then s2 by descending count of
    s1-neighbours, ties by id (both sides are ascending), then ``rest``, which
    has no edge.  A threshold graph's neighbourhoods are nested, so the
    s2-neighbours of a vertex of s1 are a prefix of the s2 run and the
    s1-neighbours of a vertex of s2 a suffix of the s1 run: every closed
    neighbourhood is consecutive.  Counting buckets keep it free of sorts.
    """
    neighbors = g.neighbors
    order: list[int] = []
    for part, other, descending in ((s1, s2, False), (s2, s1, True)):
        inside = bytearray(g.n)
        for v in other:
            inside[v] = 1
        buckets: list[list[int]] = [[] for _ in range(len(other) + 1)]
        for v in part:
            buckets[sum(map(inside.__getitem__, neighbors[v]))].append(v)
        for bucket in reversed(buckets) if descending else buckets:
            order += bucket
    return tuple(order) + rest


def threshold_pig_completion(g: Graph, *, cost_only: bool = False) -> CompletionResult:
    """Minimum proper-interval completion of a threshold graph.

    Returns the fill edges (non-edges inside the two sides, as an ascending
    tuple), the cost, the CliqueBipartition certificate and an umbrella
    order of g plus the fill.  With ``cost_only`` the fill is not
    materialized and ``fill`` and ``order`` are None.
    """
    run = threshold_run(g)
    s1 = tuple(sorted(v for (v, _), s in zip(run.sequence.steps, run.side) if s == 1))
    s2 = tuple(sorted(v for (v, _), s in zip(run.sequence.steps, run.side) if s == 2))
    cert = CliqueBipartition(s1, s2)
    if cost_only:
        return CompletionResult(None, run.cost, cert, "threshold")
    fill = non_edges_within(g, s1, s2)
    if len(fill) != run.cost:
        raise AssertionError("incremental cost disagrees with materialized fill")
    return CompletionResult(fill, run.cost, cert, "threshold", order=_clique_pair_order(g, s1, s2, run.stripped))
