"""Seeded instance generators, exhaustive small-n enumerators, and the
split-graph gadget that doubles a split instance around one large clique.

Same seed, same instance: all randomness flows through ``random.Random(seed)``
and every tie-break is fixed, so generated graphs serialize identically across
runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator

from .errors import ClassMembershipError, GraphInputError
from .graph import Graph, build_graph, connected_components, graph_from_masks
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


# ---------------------------------------------------------------------------
# threshold


def gen_threshold(n: int, p_dominating: float = 0.5, seed: int = 0) -> tuple[Graph, CreationSequence]:
    """Random creation sequence; the last tag is forced dominating so the
    graph is connected (for n >= 2)."""
    if n < 1:
        raise GraphInputError("n must be at least 1")
    if not 0.0 <= p_dominating <= 1.0:
        raise GraphInputError("p_dominating must be in [0, 1]")
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
    smaller-id parent); edges are the strict ancestor pairs."""
    if n < 1:
        raise GraphInputError("n must be at least 1")
    rng = random.Random(seed)
    parents: list[int | None] = [None]
    for v in range(1, n):
        r = rng.randrange(v + 1)
        parents.append(None if r == v else r)
    forest = forest_from_parents(parents)
    return qt_forest_graph(forest), forest


def _tree_forms(max_size: int) -> list[list[tuple]]:
    """trees[k] = canonical forms of rooted trees on k vertices."""
    trees: list[list[tuple]] = [[] for _ in range(max_size + 1)]
    if max_size >= 1:
        trees[1] = [()]
    for k in range(2, max_size + 1):
        trees[k] = [form for form in _forest_forms_list(k - 1, trees)]
    return trees


def _forest_forms_list(total: int, trees: list[list[tuple]]) -> list[tuple]:
    out: list[tuple] = []

    def rec(remaining: int, bound: tuple[int, int], acc: list[tuple]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        hi_size = min(remaining, bound[0])
        for size in range(hi_size, 0, -1):
            idx_top = len(trees[size]) - 1 if size < bound[0] else min(bound[1], len(trees[size]) - 1)
            for idx in range(idx_top, -1, -1):
                acc.append(trees[size][idx])
                rec(remaining - size, (size, idx), acc)
                acc.pop()

    rec(total, (total, 10**9), [])
    return out


@lru_cache(maxsize=None)
def _forests_cached(n: int) -> tuple[tuple, ...]:
    trees = _tree_forms(n)
    return tuple(_forest_forms_list(n, trees))


def enumerate_rooted_forests(n: int) -> Iterator[QtForest]:
    """All rooted forests on n vertices up to isomorphism, as parent arrays
    labeled in preorder (so children lists come out sorted)."""
    if n < 0:
        raise GraphInputError("n must be nonnegative")
    for forest in _forests_cached(n):
        parents: list[int | None] = []

        def lay(form: tuple, parent: int | None) -> None:
            me = len(parents)
            parents.append(parent)
            for child in form:
                lay(child, me)

        for tree in forest:
            lay(tree, None)
        yield forest_from_parents(parents)


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
    adjacency into its own clique copy and nothing else.
    """
    part = split_partition(g)
    if part is None:
        witness = forbidden_subgraph_scan(g, "split") if g.n <= 40 else None
        raise ClassMembershipError("split", witness)
    if len(connected_components(g)) != 1:
        raise GraphInputError("the gadget requires a connected split graph")
    n = g.n
    total = 2 * n + 2 * n * n
    big = [c for c in part.clique] + [n + c for c in part.clique] + list(range(2 * n, total))
    big_mask = sum(1 << v for v in big)
    masks = [0] * total
    for v in big:
        masks[v] = big_mask & ~(1 << v)
    for u in part.independent:
        for shift in (0, n):
            uu = u + shift
            for w in g.neighbors[u]:
                masks[uu] |= 1 << (w + shift)
                masks[w + shift] |= 1 << uu
    graph = graph_from_masks(masks)
    copy1 = tuple(range(n))
    copy2 = tuple(range(n, 2 * n))
    return GadgetResult(
        graph=graph,
        copy_maps=(copy1, copy2),
        big_clique=tuple(sorted(big)),
        independent_copies=(
            tuple(part.independent),
            tuple(n + u for u in part.independent),
        ),
    )
