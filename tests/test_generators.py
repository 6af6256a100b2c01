from __future__ import annotations

import tracemalloc
from itertools import combinations

import pytest

from pigfill import (
    ClassMembershipError,
    GraphInputError,
    build_graph,
    caterpillar_decomposition,
    caterpillar_graph,
    enumerate_rooted_forests,
    enumerate_threshold,
    gen_caterpillar,
    gen_quasi_threshold,
    gen_split,
    gen_threshold,
    induced_subgraph,
    qt_forest_graph,
    quasi_threshold_forest,
    replay_creation_sequence,
    serialize_graph,
    split_partition,
    split_pig_reduction_gadget,
    threshold_creation_sequence,
)
from pigfill.generators import MAX_PAIRS, _check_size
from pigfill.graphio import MAX_VERTICES


class TestThresholdGen:
    def test_deterministic(self):
        a = serialize_graph(gen_threshold(12, 0.4, seed=7)[0])
        b = serialize_graph(gen_threshold(12, 0.4, seed=7)[0])
        assert a == b
        assert a != serialize_graph(gen_threshold(12, 0.4, seed=8)[0])

    def test_certificate_replays(self):
        for seed in range(5):
            g, seq = gen_threshold(9, 0.5, seed)
            assert replay_creation_sequence(seq) == g
            assert threshold_creation_sequence(g) is not None

    def test_connected_for_n_at_least_two(self):
        for seed in range(5):
            g, seq = gen_threshold(6, 0.1, seed)
            assert seq.steps[-1][1] == "d"
            assert all(g.degree(v) > 0 for v in range(g.n))

    def test_enumerate_counts(self):
        assert sum(1 for _ in enumerate_threshold(3)) == 4
        assert sum(1 for _ in enumerate_threshold(6)) == 32
        tags = [seq.tags() for _, seq in enumerate_threshold(3)]
        assert tags == ["iii", "iid", "idi", "idd"]

    def test_enumerate_replay(self):
        for g, seq in enumerate_threshold(5):
            assert replay_creation_sequence(seq) == g


class TestQuasiThresholdGen:
    def test_certificate_reconstructs(self):
        for seed in range(6):
            g, forest = gen_quasi_threshold(10, seed)
            assert qt_forest_graph(forest) == g
            assert quasi_threshold_forest(g) is not None

    def test_chain_gives_complete_graph(self):
        from pigfill import forest_from_parents

        forest = forest_from_parents([None, 0, 1, 2])
        assert qt_forest_graph(forest).m == 6

    def test_forest_of_chains_gives_cliques(self):
        from pigfill import connected_components, forest_from_parents

        forest = forest_from_parents([None, 0, None, 2])
        g = qt_forest_graph(forest)
        assert [len(c) for c in connected_components(g)] == [2, 2] and g.m == 2


def _has_ancestor(forest, w, v):
    """v is w or one of its ancestors."""
    while w is not None and w != v:
        w = forest.parent[w]
    return w == v


class TestRootedForestEnumeration:
    def test_counts(self):
        # rooted forests on n vertices == rooted trees on n+1 vertices
        assert [sum(1 for _ in enumerate_rooted_forests(n)) for n in range(1, 9)] == [
            1, 2, 4, 9, 20, 48, 115, 286,
        ]

    def test_all_distinct_graphs_at_4(self):
        seen = set()
        for forest in enumerate_rooted_forests(4):
            seen.add(tuple(forest.parent))
        assert len(seen) == 9

    def test_counts_classes_and_preorder_labels_to_10(self):
        # rooted trees on n + 1 vertices (OEIS A000081)
        expected = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842]
        for n, count in enumerate(expected):
            forms = []
            for forest in enumerate_rooted_forests(n):
                def form(v):
                    return "(" + "".join(sorted(form(c) for c in forest.children[v])) + ")"

                forms.append("".join(sorted(form(r) for r in forest.roots)))
                for v, p in enumerate(forest.parent):
                    assert p is None or p < v, (n, forest.parent)
                    below = {w for w in range(n) if _has_ancestor(forest, w, v)}
                    assert below == set(range(v, v + forest.subtree_size[v])), (n, forest.parent, v)
            assert len(forms) == len(set(forms)) == count, n  # every class once, no two isomorphic


class TestCaterpillarGen:
    def test_deterministic_and_valid(self):
        g1, d1 = gen_caterpillar(5, 3, seed=11)
        g2, _ = gen_caterpillar(5, 3, seed=11)
        assert serialize_graph(g1) == serialize_graph(g2)
        assert caterpillar_graph(d1) == g1
        assert caterpillar_decomposition(g1) is not None

    def test_bare_path(self):
        g, _ = gen_caterpillar(4, 0, seed=0)
        assert (g.n, g.m) == (4, 3)


class TestSplitGen:
    def test_valid_and_connected(self):
        from pigfill import connected_components

        for seed in range(6):
            g, part = gen_split(12, seed)
            assert split_partition(g) is not None
            assert len(connected_components(g)) == 1
            c = set(part.clique)
            assert all(g.has_edge(u, v) for u in c for v in c if u < v)


class TestGadget:
    def test_k2_example(self):
        # on K2 the normalized partition is C = both endpoints, I = empty,
        # so the big clique is the whole 12-vertex gadget
        k2 = build_graph(2, [(0, 1)])
        gadget = split_pig_reduction_gadget(k2)
        n, c = 2, 2
        assert gadget.graph.n == 2 * c + 2 * n * n + 0
        assert len(gadget.big_clique) == 2 * c + 2 * n * n

    def test_structure_random(self):
        for seed in (1, 2, 3):
            g, part = gen_split(9, seed)
            gadget = split_pig_reduction_gadget(g)
            n, c, i = g.n, len(part.clique), len(part.independent)
            assert gadget.graph.n == 2 * c + 2 * n * n + 2 * i
            assert len(gadget.big_clique) == 2 * c + 2 * n * n
            big = gadget.big_clique
            assert all(
                gadget.graph.has_edge(u, v) for bi, u in enumerate(big) for v in big[bi + 1 :]
            )
            part2 = split_partition(gadget.graph)
            assert part2 is not None

    def test_copy_maps_are_isomorphisms(self):
        g, _ = gen_split(7, seed=5)
        gadget = split_pig_reduction_gadget(g)
        for cm in gadget.copy_maps:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert g.has_edge(u, v) == gadget.graph.has_edge(cm[u], cm[v])

    def test_first_copy_is_induced_original(self):
        g, _ = gen_split(6, seed=9)
        gadget = split_pig_reduction_gadget(g)
        sub, idx = induced_subgraph(gadget.graph, gadget.copy_maps[0])
        assert idx == tuple(range(g.n))
        assert sub == g

    def test_equals_the_definition_built_by_build_graph(self):
        for n in range(1, 13):
            for seed in range(4):
                g, part = gen_split(n, seed)
                gadget = split_pig_reduction_gadget(g)
                total = 2 * n + 2 * n * n
                big = tuple(sorted([*part.clique, *(n + c for c in part.clique), *range(2 * n, total)]))
                copies = (part.independent, tuple(n + u for u in part.independent))
                edges = list(combinations(big, 2))
                for shift, copy in zip((0, n), copies):
                    edges += [(u, w + shift) for u in copy for w in g.neighbors[u - shift]]
                assert gadget.graph == build_graph(total, edges), (n, seed)
                assert gadget.big_clique == big
                assert gadget.independent_copies == copies
                assert gadget.copy_maps == (tuple(range(n)), tuple(range(n, 2 * n)))

    def test_rejects_non_split(self, c4):
        with pytest.raises(ClassMembershipError):
            split_pig_reduction_gadget(c4)

    def test_rejects_disconnected_split(self):
        g = build_graph(3, [(0, 1)])  # K2 plus an isolated vertex is split
        assert split_partition(g) is not None
        with pytest.raises(GraphInputError):
            split_pig_reduction_gadget(g)

    def test_input_validation(self):
        with pytest.raises(GraphInputError):
            gen_threshold(0)
        with pytest.raises(GraphInputError):
            gen_caterpillar(0, 2)
        with pytest.raises(GraphInputError):
            gen_split(0)


def _peak_bytes(call):
    """Peak traced allocation while ``call`` raises GraphInputError."""
    tracemalloc.start()
    try:
        with pytest.raises(GraphInputError, match="above the limit"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeLimits:
    """Instances that would not fit are refused before anything is allocated for them."""

    def test_pair_limit_boundaries(self):
        _check_size(2000, dense=True)  # threshold and split, n = 2000
        _check_size(2 * 31 + 2 * 31 * 31, dense=True)  # the gadget of a 31-vertex split graph
        _check_size(MAX_VERTICES)
        assert 2000 * 1999 // 2 <= MAX_PAIRS < 2001 * 2000 // 2
        for n, dense in ((2001, True), (2 * 32 + 2 * 32 * 32, True), (MAX_VERTICES + 1, False)):
            with pytest.raises(GraphInputError, match="above the limit"):
                _check_size(n, dense)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gen_threshold(2001),
            lambda: gen_threshold(100_000),
            lambda: gen_split(2001),
            lambda: gen_split(100_000),
            lambda: gen_quasi_threshold(MAX_VERTICES + 1),
            lambda: gen_caterpillar(MAX_VERTICES // 3 + 1, 2),
            lambda: gen_caterpillar(10**12, 10**12),
        ],
        ids=["threshold-2001", "threshold-1e5", "split-2001", "split-1e5", "qt", "caterpillar", "caterpillar-huge"],
    )
    def test_generator_refuses_before_allocating(self, call):
        assert _peak_bytes(call) < 100_000

    def test_qt_edge_limit_refuses_before_building_rows(self):
        # 3 057 427 edges at seed 1: its rows would hold at least 2 * 8 bytes per edge, 49 MB;
        # what the refusal keeps is the parent and depth arrays
        assert _peak_bytes(lambda: gen_quasi_threshold(300_000, 1)) < 25_000_000

    def test_qt_edge_limit_boundary(self):
        # at seed 1 the depths of the first 204 024 vertices sum to 1 999 996; the next adds 9
        g, _ = gen_quasi_threshold(204_024, 1)
        assert g.m == 1_999_996
        with pytest.raises(GraphInputError, match="2000005 edges, above the limit"):
            gen_quasi_threshold(204_025, 1)

    @pytest.mark.parametrize("n", [32, 100])
    def test_gadget_refuses_before_allocating(self, n):
        g, _ = gen_split(n, seed=1)
        assert _peak_bytes(lambda: split_pig_reduction_gadget(g)) < 1_000_000

    def test_gadget_checks_class_and_connectivity_first(self):
        big_non_split = build_graph(40, [(i, i + 1) for i in range(39)] + [(0, 39)])  # C40
        with pytest.raises(ClassMembershipError):
            split_pig_reduction_gadget(big_non_split)
        with pytest.raises(GraphInputError, match="connected split graph"):
            split_pig_reduction_gadget(build_graph(40, [(0, 1)]))
