"""Immutable undirected simple graphs: sorted adjacency tuples, bitmask rows on demand.

Vertices are the integers ``0..n-1``.  A graph is its sorted neighbour tuples;
the n-bit bitmask rows that the small-n scans use are built on first read of
``Graph.masks`` and cached, so sparse inputs never pay O(n^2) bits unless a
mask-based routine runs on them.  The class certificates that the completers
run on (creation sequence, rooted forest, spine decomposition) are cached on
the graph in the same way by their recognizers, so one graph is recognized
once per class.  Every operation returns a new value that carries none of
its input's cached entries; nothing here mutates.  Edges are ``(u, v)``
pairs in canonical ``u < v`` form.  ``build_graph`` is the one validating
constructor and ``non_edges_within`` the one builder of non-edge lists: a
completion's fill, the brute-force oracle's included, is a strictly
ascending tuple of such pairs, built in that order, so it is serialized as
it is.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import lt
from typing import Iterable

from .errors import GraphInputError

Edge = tuple[int, int]

_TEXT_CHUNK = 1 << 14  # pairs per chunk of ``Graph.text``: few joins, and a chunk's tuples stay small beside the text


def edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an edge."""
    return (u, v) if u < v else (v, u)


def strictly_ascending(pairs: tuple[Edge, ...]) -> bool:
    """True iff every pair is less than the next one: sorted, with no repeat."""
    return all(map(lt, pairs, islice(pairs, 1, None)))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph.

    ``neighbors[v]`` is the sorted tuple of neighbors of ``v``.  Adjacency is
    symmetric and loop-free by construction.  ``masks`` is derived from
    ``neighbors`` and not a field, so equality and hashing ignore whether it
    has been built; so are the cached edge count ``m`` and edge-list ``text``,
    and the certificates that ``recognition``'s class recognizers store in
    the instance dict.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """``masks[v]`` is ``neighbors[v]`` as a bitmask; built on first read."""
        return tuple(sum(1 << w for w in nb) for nb in self.neighbors)

    @cached_property
    def m(self) -> int:
        """Edge count; computed on first read and cached, like ``masks``."""
        return sum(map(len, self.neighbors)) // 2

    @cached_property
    def text(self) -> str:
        """The native edge-list text: n, then one ``u v`` line per edge, ascending.

        Cached like ``masks``.  A graph read from text already in this form
        keeps that text, so writing or hashing it costs no serialization.
        The pairs are formatted ``_TEXT_CHUNK`` at a time and no list of all
        edges is built, so the peak is about twice the text's length.
        """
        neighbors = self.neighbors
        pairs = ((u, v) for u in range(self.n) for v in neighbors[u] if u < v)
        chunks = iter(lambda: tuple(islice(pairs, _TEXT_CHUNK)), ())
        return "".join([f"{self.n}\n", *("".join(map("%d %d\n".__mod__, chunk)) for chunk in chunks)])

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


def complement(g: Graph) -> Graph:
    """Graph with edge uv present iff absent in g.  An involution."""
    return build_graph(g.n, non_edges_within(g, range(g.n)))


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


def non_edges_within(g: Graph, s1: Iterable[int], s2: Iterable[int] = ()) -> tuple[Edge, ...]:
    """The pairs that make the disjoint sides s1 and s2 cliques: non-edges inside each, ascending.

    Each vertex u of either side is followed by its later non-neighbours on
    its own side, and the rows are read in ascending u, so the pairs come out
    ascending with no repeat and no sort; ``non_edges_within(g, range(g.n))``
    is every non-edge in lexicographic order.  Reads the neighbour tuples
    only; no bitmask row is built.  Raises GraphInputError when the sides
    share a vertex or a vertex is out of range.
    """
    sides = sorted(set(s1)), sorted(set(s2))
    shared = set(sides[0]).intersection(sides[1])
    if shared:
        raise GraphInputError(f"vertex {min(shared)} is on both sides")
    neighbors = g.neighbors
    rows: list[Iterable[Edge]] = [()] * g.n
    for keep in sides:
        _check_subset(g, keep)
        for i, u in enumerate(keep):
            adjacent = set(neighbors[u])
            rows[u] = [(u, v) for v in keep[i + 1 :] if v not in adjacent]
    return tuple(chain.from_iterable(rows))


def _check_subset(g: Graph, s: list[int]) -> None:
    if s and (s[0] < 0 or s[-1] >= g.n):
        bad = s[0] if s[0] < 0 else s[-1]
        raise GraphInputError(f"vertex {bad} out of range for n={g.n}")


def apply_fill(g: Graph, fill: Iterable[Edge]) -> Graph:
    """Supergraph of g with the given fill edges added; repeats and edges of g collapse.

    Only the neighbour tuples a fill pair touches are rebuilt, and no bitmask
    row is built.
    """
    n = g.n
    extra: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in fill:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphInputError(f"bad fill edge ({u}, {v})")
        extra[u].add(v)
        extra[v].add(u)
    neighbors = list(g.neighbors)
    for v, added in extra.items():
        added.update(neighbors[v])
        neighbors[v] = tuple(sorted(added))
    return Graph(n, tuple(neighbors))
