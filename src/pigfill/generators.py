"""Seeded instance generators, exhaustive small-n enumerators, and the
split-graph gadget that doubles a split instance around one large clique.

Same seed, same instance: all randomness flows through ``random.Random(seed)``
and every tie-break is fixed, so generated graphs serialize identically across
runs.  Rooted forests come from the level sequences of Beyer and Hedetniemi
(*Constant time generation of rooted trees*, SIAM J. Comput. 9, 1980).

An instance that could not be parsed back (more than ``graphio.MAX_VERTICES``
vertices) or, for the dense threshold, split and gadget families, one with
more than ``MAX_PAIRS`` vertex pairs is refused with GraphInputError before
anything is drawn or allocated for it.  A quasi-threshold forest with more
than ``MAX_PAIRS`` edges is refused after its parents are drawn, before any
graph row is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator

from .errors import ClassMembershipError, GraphInputError
from .graph import Graph, build_graph, connected_components
from .graphio import MAX_VERTICES
from .oracle import forbidden_subgraph_scan
from .recognition import (
    DOMINATING,
    ISOLATED,
    CaterpillarDecomposition,
    CreationSequence,
    QtForest,
    SplitPartition,
    caterpillar_graph,
    forest_from_parents,
    qt_forest_graph,
    replay_creation_sequence,
    split_partition,
)

# gen threshold --n 2000 (989 723 edges) peaks near 230 MB, the 31-vertex gadget near 90 MB,
# and gen quasi-threshold at 2·10^6 edges (n = 204 024, seed 1) near 140 MB
MAX_PAIRS = 2 * 10**6


def _check_size(n: int, dense: bool = False) -> None:
    """Refuse an instance of n vertices above MAX_VERTICES or, when dense, above MAX_PAIRS pairs."""
    if n > MAX_VERTICES:
        raise GraphInputError(f"the instance would have {n} vertices, above the limit of {MAX_VERTICES}")
    if dense and n * (n - 1) // 2 > MAX_PAIRS:
        raise GraphInputError(
            f"the instance would have {n} vertices, so up to {n * (n - 1) // 2} edges,"
            f" above the limit of {MAX_PAIRS} vertex pairs"
        )


# ---------------------------------------------------------------------------
# threshold


def gen_threshold(n: int, p_dominating: float = 0.5, seed: int = 0) -> tuple[Graph, CreationSequence]:
    """Random creation sequence; the last tag is forced dominating so the
    graph is connected (for n >= 2)."""
    if n < 1:
        raise GraphInputError("n must be at least 1")
    if not 0.0 <= p_dominating <= 1.0:
        raise GraphInputError("p_dominating must be in [0, 1]")
    _check_size(n, dense=True)
    rng = random.Random(seed)
    tags = [ISOLATED]
    tags += [DOMINATING if rng.random() < p_dominating else ISOLATED for _ in range(n - 1)]
    if n >= 2:
        tags[-1] = DOMINATING
    seq = CreationSequence(tuple((v, t) for v, t in enumerate(tags)))
    return replay_creation_sequence(seq), seq


def enumerate_threshold(n: int) -> Iterator[tuple[Graph, CreationSequence]]:
    """All 2^(n-1) creation sequences on n vertices (first tag fixed isolated,
    last tag free, so disconnected graphs are covered)."""
    if n < 1:
        raise GraphInputError("n must be at least 1")
    for rest in product((ISOLATED, DOMINATING), repeat=n - 1):
        seq = CreationSequence(tuple((v, t) for v, t in enumerate((ISOLATED,) + rest)))
        yield replay_creation_sequence(seq), seq


# ---------------------------------------------------------------------------
# quasi-threshold


def gen_quasi_threshold(n: int, seed: int = 0) -> tuple[Graph, QtForest]:
    """Uniform random parent array (each vertex picks a root slot or any
    smaller-id parent); edges are the strict ancestor pairs.

    A vertex has as many strict ancestors as its depth, and a parent's depth
    is known when its child is drawn, so a forest with more than ``MAX_PAIRS``
    edges is refused before any graph row is built.
    """
    if n < 1:
        raise GraphInputError("n must be at least 1")
    _check_size(n)
    rng = random.Random(seed)
    parents: list[int | None] = [None]
    depth = [0]
    for v in range(1, n):
        r = rng.randrange(v + 1)
        parents.append(None if r == v else r)
        depth.append(0 if r == v else depth[r] + 1)
    m = sum(depth)
    if m > MAX_PAIRS:
        raise GraphInputError(f"the forest drawn has {m} edges, above the limit of {MAX_PAIRS} vertex pairs")
    forest = forest_from_parents(parents)
    return qt_forest_graph(forest), forest


def enumerate_rooted_forests(n: int) -> Iterator[QtForest]:
    """All rooted forests on n vertices up to isomorphism, as parent arrays
    labeled in preorder (so children lists come out sorted).

    Each is a rooted tree on n + 1 vertices with the root dropped, walked as
    its canonical level sequence (depths in preorder) from the path to the
    star: the successor takes the last level p above 1 and the last earlier
    level q one below it, and from p on repeats the block q..p-1.
    """
    if n < 0:
        raise GraphInputError("n must be nonnegative")
    levels = list(range(n + 1))
    while True:
        last: list[int | None] = [None] * (n + 1)  # last[d]: latest vertex at depth d
        parents: list[int | None] = []
        for v, depth in enumerate(levels[1:]):
            parents.append(last[depth - 1])
            last[depth] = v
        yield forest_from_parents(parents)
        p = n
        while p > 0 and levels[p] <= 1:
            p -= 1
        if p == 0:
            return
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n + 1):
            levels[i] = levels[i - (p - q)]


# ---------------------------------------------------------------------------
# caterpillar


def caterpillar_from_buckets(bucket_sizes: list[int] | tuple[int, ...]) -> tuple[Graph, CaterpillarDecomposition]:
    """Spine 0..s-1 with the requested number of leaves per spine vertex."""
    s = len(bucket_sizes)
    if s < 1:
        raise GraphInputError("need at least one spine vertex")
    nxt = s
    buckets = []
    for size in bucket_sizes:
        buckets.append(tuple(range(nxt, nxt + size)))
        nxt += size
    d = CaterpillarDecomposition(tuple(range(s)), tuple(buckets))
    return caterpillar_graph(d), d


def gen_caterpillar(spine_len: int, max_leaves: int, seed: int = 0) -> tuple[Graph, CaterpillarDecomposition]:
    if spine_len < 1:
        raise GraphInputError("spine_len must be at least 1")
    if max_leaves < 0:
        raise GraphInputError("max_leaves must be nonnegative")
    _check_size(spine_len * (1 + max_leaves))
    rng = random.Random(seed)
    sizes = [rng.randint(0, max_leaves) for _ in range(spine_len)]
    return caterpillar_from_buckets(sizes)


# ---------------------------------------------------------------------------
# split + gadget


def gen_split(n: int, seed: int = 0) -> tuple[Graph, SplitPartition]:
    """Connected split graph: a clique, plus independent vertices that each
    pick a nonempty neighbor set inside the clique."""
    if n < 1:
        raise GraphInputError("n must be at least 1")
    _check_size(n, dense=True)
    rng = random.Random(seed)
    c = 1 if n == 1 else rng.randint(1, n - 1)
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    for w in range(c, n):
        mask = rng.randrange(1, 1 << c)
        edges.extend((u, w) for u in range(c) if mask >> u & 1)
    g = build_graph(n, edges)
    part = split_partition(g)
    if part is None:
        raise AssertionError("generated split graph has no split partition")
    return g, part


@dataclass(frozen=True)
class GadgetResult:
    """Doubled split instance: two copies of the input sharing one big clique.

    ``copy_maps[i][v]`` is the gadget vertex carrying input vertex v in copy i.
    ``big_clique`` holds both clique copies plus the two fresh n^2-cliques.
    """

    graph: Graph
    copy_maps: tuple[tuple[int, ...], tuple[int, ...]]
    big_clique: tuple[int, ...]
    independent_copies: tuple[tuple[int, ...], tuple[int, ...]]


def split_pig_reduction_gadget(g: Graph) -> GadgetResult:
    """Build the doubled instance on 2|C| + 2n^2 + 2|I| vertices.

    Layout: copy 1 keeps the input ids, copy 2 is shifted by n, then the two
    fresh cliques of size n^2 follow.  Both clique copies and both fresh
    cliques form one clique; each independent copy keeps its original
    adjacency into its own clique copy and nothing else.  The neighbour
    tuples are built directly: a member of the big clique gets the others
    (slices of one ascending list, so the int objects are shared) plus its
    independent neighbours.  A non-split input, a disconnected one and one
    whose gadget has more than ``MAX_PAIRS`` vertex pairs (base n above 31)
    are refused, in that order.
    """
    part = split_partition(g)
    if part is None:
        witness = forbidden_subgraph_scan(g, "split") if g.n <= 40 else None
        raise ClassMembershipError("split", witness)
    if len(connected_components(g)) != 1:
        raise GraphInputError("the gadget requires a connected split graph")
    n = g.n
    total = 2 * n + 2 * n * n
    _check_size(total, dense=True)
    big = [*part.clique, *(n + c for c in part.clique), *range(2 * n, total)]  # ascending
    copies = (part.independent, tuple(n + u for u in part.independent))
    extra: list[list[int]] = [[] for _ in range(total)]
    for shift in (0, n):
        for u in part.independent:
            for w in g.neighbors[u]:
                extra[u + shift].append(w + shift)
                extra[w + shift].append(u + shift)
    neighbors: list[tuple[int, ...]] = [()] * total
    for i, v in enumerate(big):
        neighbors[v] = tuple(sorted(big[:i] + big[i + 1 :] + extra[v]))
    for u in chain(*copies):
        neighbors[u] = tuple(sorted(extra[u]))
    return GadgetResult(
        graph=Graph(total, tuple(neighbors)),
        copy_maps=(tuple(range(n)), tuple(range(n, 2 * n))),
        big_clique=tuple(big),
        independent_copies=copies,
    )
