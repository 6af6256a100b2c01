"""Immutable undirected simple graphs: sorted adjacency tuples, bitmask rows on demand.

Vertices are the integers ``0..n-1``.  A graph is its sorted neighbour tuples;
the n-bit bitmask rows that the small-n scans use are built on first read of
``Graph.masks`` and cached, so sparse inputs never pay O(n^2) bits unless a
mask-based routine runs on them.  Every operation returns a new value;
nothing here mutates.  Edge sets are plain ``frozenset``s of ``(u, v)`` pairs
in canonical ``u < v`` form, sorted lexicographically whenever they are
serialized or printed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import GraphInputError

Edge = tuple[int, int]
EdgeSet = frozenset[Edge]


def edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an edge."""
    return (u, v) if u < v else (v, u)


def sorted_edges(edges: Iterable[Edge]) -> list[Edge]:
    return sorted(edges)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph.

    ``neighbors[v]`` is the sorted tuple of neighbors of ``v``.  Adjacency is
    symmetric and loop-free by construction.  ``masks`` is derived from
    ``neighbors`` and not a field, so equality and hashing ignore whether it
    has been built.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """``masks[v]`` is ``neighbors[v]`` as a bitmask; built on first read."""
        return tuple(sum(1 << w for w in nb) for nb in self.neighbors)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in self.neighbors[u] if u < v]

    def vertices(self) -> range:
        return range(self.n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def _finish(n: int, adj: list[set[int]]) -> Graph:
    return Graph(n, tuple(tuple(sorted(s)) for s in adj))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse.

    Raises GraphInputError on out-of-range endpoints or self-loops.
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return _finish(n, adj)


def graph_from_masks(masks: list[int]) -> Graph:
    """Build a graph directly from adjacency bitmasks (symmetry is trusted-but-verified).

    The given rows become the graph's cached ``masks``.
    """
    n = len(masks)
    neighbors = []
    for v, m in enumerate(masks):
        if m >> n:
            raise GraphInputError(f"mask of vertex {v} addresses vertices >= n")
        if m >> v & 1:
            raise GraphInputError(f"self-loop at vertex {v}")
        row = []
        while m:
            low = m & -m
            row.append(low.bit_length() - 1)
            m ^= low
        neighbors.append(tuple(row))
    for v in range(n):
        for w in neighbors[v]:
            if not masks[w] >> v & 1:
                raise GraphInputError(f"asymmetric adjacency between {v} and {w}")
    g = Graph(n, tuple(neighbors))
    g.__dict__["masks"] = tuple(masks)
    return g


def complement(g: Graph) -> Graph:
    """Graph with edge uv present iff absent in g.  An involution."""
    full = (1 << g.n) - 1
    masks = [full & ~g.masks[v] & ~(1 << v) for v in range(g.n)]
    return graph_from_masks(masks)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``s``, relabeled 0..|s|-1.

    Returns the subgraph together with the index map: new vertex ``i``
    corresponds to original vertex ``index_map[i]`` (ascending order).
    """
    keep = sorted(set(s))
    _check_subset(g, keep)
    pos = {v: i for i, v in enumerate(keep)}
    adj: list[set[int]] = [set() for _ in keep]
    for i, v in enumerate(keep):
        for w in g.neighbors[v]:
            if w in pos:
                adj[i].add(pos[w])
    return _finish(len(keep), adj), tuple(keep)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Partition of V into maximal connected vertex sets, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def non_edges_within(g: Graph, s: Iterable[int]) -> EdgeSet:
    """All unordered pairs within ``s`` that are not edges of g."""
    keep = sorted(set(s))
    _check_subset(g, keep)
    out = set()
    for i, u in enumerate(keep):
        mu = g.masks[u]
        for v in keep[i + 1 :]:
            if not mu >> v & 1:
                out.add((u, v))
    return frozenset(out)


def _check_subset(g: Graph, s: list[int]) -> None:
    if s and (s[0] < 0 or s[-1] >= g.n):
        bad = s[0] if s[0] < 0 else s[-1]
        raise GraphInputError(f"vertex {bad} out of range for n={g.n}")


def apply_fill(g: Graph, fill: Iterable[Edge]) -> Graph:
    """Supergraph of g with the given fill edges added."""
    masks = list(g.masks)
    for u, v in fill:
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            raise GraphInputError(f"bad fill edge ({u}, {v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return graph_from_masks(masks)


def iter_non_edges(g: Graph) -> Iterator[Edge]:
    """Non-edges of g in lexicographic order."""
    for u in range(g.n):
        mu = g.masks[u]
        for v in range(u + 1, g.n):
            if not mu >> v & 1:
                yield (u, v)
