"""Completion results and their certificates."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, non_edges_within, strictly_ascending
from .recognition import is_umbrella_order


@dataclass(frozen=True)
class CliqueBipartition:
    """Two vertex sets that are cliques in the completed graph."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]


@dataclass(frozen=True)
class PointPlacement:
    """Integer-point model of a completed caterpillar.

    Spine vertex ``spine[i]`` occupies the unit interval [i, i+1]; every leaf
    sits on an integer point and ``points`` lists (leaf, point) pairs sorted by
    leaf id.
    """

    spine: tuple[int, ...]
    points: tuple[tuple[int, int], ...]


Certificate = CliqueBipartition | PointPlacement


@dataclass(frozen=True)
class CompletionResult:
    """Fill edges, their number, and the structure that produced them.

    ``fill`` is a strictly ascending tuple of canonical ``u < v`` pairs, or
    None only in cost-only mode.  For a CliqueBipartition certificate the fill
    is exactly the non-edges inside the two parts; any vertex outside both
    parts was isolated in the input and untouched.

    ``order``, when present, is an umbrella order of the graph plus the fill:
    every closed neighbourhood is consecutive in it.  It certifies that the
    completed graph is proper interval and is checked in O(n + m).  The PIG
    completers set it whenever they materialize the fill.
    """

    fill: tuple[Edge, ...] | None
    cost: int
    certificate: Certificate | None
    algorithm: str
    lower_bound_for: str | None = None
    order: tuple[int, ...] | None = None


def validate_completion(g: Graph, result: CompletionResult) -> None:
    """Raise ValueError when a result's fill/cost/certificate/order are inconsistent."""
    fill = result.fill
    if fill is None:
        return
    if not isinstance(fill, tuple):
        raise ValueError(f"fill is a {type(fill).__name__}, not an ascending tuple")
    if result.cost != len(fill):
        raise ValueError(f"cost {result.cost} != |fill| {len(fill)}")
    for u, v in fill:
        if not (0 <= u < v < g.n):
            raise ValueError(f"fill edge ({u}, {v}) not canonical for n={g.n}")
        if g.has_edge(u, v):
            raise ValueError(f"fill edge ({u}, {v}) already in the graph")
    if not strictly_ascending(fill):
        raise ValueError("fill pairs are not strictly ascending")
    cert = result.certificate
    if isinstance(cert, CliqueBipartition):
        s1, s2 = set(cert.s1), set(cert.s2)
        if s1 & s2:
            raise ValueError("certificate parts overlap")
        outside = set(range(g.n)) - s1 - s2
        if any(g.degree(v) > 0 for v in outside):
            raise ValueError("non-isolated vertex missing from both parts")
        if non_edges_within(g, cert.s1, cert.s2) != fill:
            raise ValueError("fill does not match the non-edges inside the parts")
    elif isinstance(cert, PointPlacement):
        from .caterpillar import materialize_fill_edges

        if materialize_fill_edges(g, cert) != fill:
            raise ValueError("fill does not match the point placement")
    if result.order is not None and not is_umbrella_order(g, result.order, fill):
        raise ValueError("order is not an umbrella order of the graph plus the fill")
