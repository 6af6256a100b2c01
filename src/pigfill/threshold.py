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

from .errors import ClassMembershipError, GraphInputError
from .graph import Graph, complement, induced_subgraph, non_edges_within
from .oracle import OracleBudget, brute_max_cut, forbidden_subgraph_scan
from .recognition import (
    DOMINATING,
    ISOLATED,
    CreationSequence,
    replay_creation_sequence,
    threshold_creation_sequence,
)
from .results import CliqueBipartition, CompletionResult

_WITNESS_CAP = 64  # forbidden-subgraph scans are quartic; skip them on big inputs


@dataclass(frozen=True)
class ThresholdRun:
    """Trace of one assignment pass over the non-degenerate creation steps."""

    sequence: CreationSequence
    side: tuple[int, ...]  # 1 or 2 per step
    running_sizes: tuple[tuple[int, int], ...]
    cost: int
    stripped: tuple[int, ...]  # vertices isolated in the input, left untouched

    @property
    def step_count(self) -> int:
        return len(self.side)


def _assign(steps: tuple[tuple[int, str], ...]) -> tuple[list[int], list[tuple[int, int]], int]:
    iso_after = [0] * (len(steps) + 1)
    for p in range(len(steps) - 1, -1, -1):
        iso_after[p] = iso_after[p + 1] + (steps[p][1] == ISOLATED)
    side: list[int] = []
    sizes: list[tuple[int, int]] = []
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
        sizes.append((s1, s2))
    return side, sizes, cost


def threshold_run(g: Graph, sequence: CreationSequence | None = None) -> ThresholdRun:
    """Run the assignment loop; computes and validates the sequence if not supplied."""
    if sequence is None:
        sequence = threshold_creation_sequence(g)
        if sequence is None:
            witness = forbidden_subgraph_scan(g, "threshold") if g.n <= _WITNESS_CAP else None
            raise ClassMembershipError("threshold", witness)
    elif replay_creation_sequence(sequence) != g:
        raise GraphInputError("creation sequence does not replay to the input graph")
    active = tuple(step for step in sequence.steps if g.degree(step[0]) > 0)
    stripped = tuple(v for v, _ in sequence.steps if g.degree(v) == 0)
    side, sizes, cost = _assign(active)
    return ThresholdRun(CreationSequence(active), tuple(side), tuple(sizes), cost, tuple(sorted(stripped)))


def threshold_pig_completion(
    g: Graph, sequence: CreationSequence | None = None, *, cost_only: bool = False
) -> CompletionResult:
    """Minimum proper-interval completion of a threshold graph.

    Returns the fill edges (non-edges inside the two sides), the cost, and the
    CliqueBipartition certificate.  With ``cost_only`` the fill is not
    materialized and ``fill`` is None.
    """
    run = threshold_run(g, sequence)
    s1 = tuple(sorted(v for (v, _), s in zip(run.sequence.steps, run.side) if s == 1))
    s2 = tuple(sorted(v for (v, _), s in zip(run.sequence.steps, run.side) if s == 2))
    cert = CliqueBipartition(s1, s2)
    if cost_only:
        return CompletionResult(None, run.cost, cert, "threshold")
    fill = non_edges_within(g, s1) | non_edges_within(g, s2)
    if len(fill) != run.cost:
        raise AssertionError("incremental cost disagrees with materialized fill")
    return CompletionResult(frozenset(fill), run.cost, cert, "threshold")


def partition_cost(g: Graph, parts: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """Non-edges inside the two parts of a bipartition of V."""
    a, b = parts
    if set(a) & set(b) or len(a) + len(b) != g.n or set(a) | set(b) != set(range(g.n)):
        raise GraphInputError("parts do not partition the vertex set")
    return len(non_edges_within(g, a)) + len(non_edges_within(g, b))


@dataclass(frozen=True)
class MaxcutIdentityReport:
    """Cross-check of fill minimization against max-cut in the complement.

    Computed on the vertices that are not isolated in the input (the only ones
    the completion touches): min_fill must equal pairs - edges - max cut of the
    complement of that induced subgraph.
    """

    min_fill: int
    max_cut_complement: int
    pairs: int
    edges: int
    component_size: int
    identity_holds: bool


def maxcut_identity_check(g: Graph, budget: OracleBudget | None = None) -> MaxcutIdentityReport:
    run = threshold_run(g)
    active = sorted(v for v in range(g.n) if g.degree(v) > 0)
    sub, _ = induced_subgraph(g, active)
    cut, _ = brute_max_cut(complement(sub), budget)
    pairs = sub.n * (sub.n - 1) // 2
    return MaxcutIdentityReport(
        min_fill=run.cost,
        max_cut_complement=cut,
        pairs=pairs,
        edges=sub.m,
        component_size=sub.n,
        identity_holds=run.cost == pairs - sub.m - cut,
    )
