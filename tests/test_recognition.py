from __future__ import annotations

import pytest

from pigfill import (
    build_graph,
    caterpillar_decomposition,
    caterpillar_graph,
    enumerate_threshold,
    forbidden_subgraph_scan,
    is_proper_interval,
    qt_forest_graph,
    quasi_threshold_forest,
    replay_creation_sequence,
    split_partition,
    threshold_creation_sequence,
)


class TestProperInterval:
    def test_claw_witness(self, claw):
        verdict = is_proper_interval(claw)
        assert not verdict
        assert verdict.witness_kind == "claw"
        assert sorted(verdict.witness) == [0, 1, 2, 3]

    def test_p4_is_pig(self, p4):
        assert is_proper_interval(p4).is_pig

    def test_c4_chordless_cycle(self, c4):
        verdict = is_proper_interval(c4)
        assert verdict.witness_kind == "chordless-cycle"
        cyc = verdict.witness
        assert len(cyc) == 4
        for i, u in enumerate(cyc):
            assert c4.has_edge(u, cyc[(i + 1) % len(cyc)])
        assert not c4.has_edge(cyc[0], cyc[2]) and not c4.has_edge(cyc[1], cyc[3])

    def test_long_cycle_witness(self):
        c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        verdict = is_proper_interval(c6)
        assert verdict.witness_kind == "chordless-cycle"
        assert len(verdict.witness) == 6

    def test_net_and_tent(self):
        net = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        tent = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)])
        assert is_proper_interval(net).witness_kind == "net"
        assert is_proper_interval(tent).witness_kind == "tent"

    def test_trivial_cases(self):
        assert is_proper_interval(build_graph(0, [])).is_pig
        assert is_proper_interval(build_graph(1, [])).is_pig


class TestThresholdRecognizer:
    def test_claw_sequence(self, claw):
        seq = threshold_creation_sequence(claw)
        assert seq.tags() == "iiid"
        assert seq.steps[-1] == (0, "d")  # universal center peels first
        assert replay_creation_sequence(seq) == claw

    def test_p4_rejected(self, p4):
        assert threshold_creation_sequence(p4) is None

    def test_k3(self):
        k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert threshold_creation_sequence(k3).tags() == "idd"

    def test_k1(self):
        assert threshold_creation_sequence(build_graph(1, [])).tags() == "i"

    def test_replay_rejects_bad_tag(self):
        from pigfill import CreationSequence

        with pytest.raises(ValueError):
            replay_creation_sequence(CreationSequence(((0, "x"),)))

    def test_replay_rejects_bad_vertex_set(self):
        from pigfill import CreationSequence

        with pytest.raises(ValueError):
            replay_creation_sequence(CreationSequence(((0, "i"), (2, "i"))))
        with pytest.raises(ValueError):
            replay_creation_sequence(CreationSequence(((0, "i"), (0, "d"))))


class TestQuasiThresholdRecognizer:
    def test_claw_tree(self, claw):
        f = quasi_threshold_forest(claw)
        assert f.roots == (0,)
        assert f.children[0] == (1, 2, 3)
        assert f.subtree_size[0] == 4 and f.child_count[0] == 3

    def test_p4_rejected(self, p4):
        assert quasi_threshold_forest(p4) is None

    def test_p3_rooted_at_middle(self):
        f = quasi_threshold_forest(build_graph(3, [(0, 1), (1, 2)]))
        assert f.roots == (1,)
        assert f.children[1] == (0, 2)

    def test_reconstruction(self, claw):
        assert qt_forest_graph(quasi_threshold_forest(claw)) == claw


class TestCaterpillarRecognizer:
    def test_p4(self, p4):
        d = caterpillar_decomposition(p4)
        assert d.spine == (1, 2)
        assert d.bucket_sizes == (1, 1)

    def test_star_degenerate(self, claw):
        d = caterpillar_decomposition(claw)
        assert d.spine == (0,)
        assert d.buckets == ((1, 2, 3),)

    def test_c4_rejected(self, c4):
        assert caterpillar_decomposition(c4) is None

    def test_k1_k2(self):
        assert caterpillar_decomposition(build_graph(1, [])).spine == (0,)
        d = caterpillar_decomposition(build_graph(2, [(0, 1)]))
        assert d.spine == (0,) and d.buckets == ((1,),)

    def test_spine_starts_at_smaller_end(self):
        # path 4-2-0-1-3 relabels the spine ends to 3 and 4
        g = build_graph(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
        d = caterpillar_decomposition(g)
        assert d.spine[0] < d.spine[-1]
        assert caterpillar_graph(d) == g

    def test_reconstruction(self, p4):
        assert caterpillar_graph(caterpillar_decomposition(p4)) == p4


class TestSplitRecognizer:
    def test_k3_all_clique(self):
        part = split_partition(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert part.clique == (0, 1, 2) and part.independent == ()

    def test_claw_normalized(self, claw):
        part = split_partition(claw)
        c, i = set(part.clique), set(part.independent)
        assert c | i == {0, 1, 2, 3} and not c & i
        for u in c:
            for v in c:
                assert u == v or claw.has_edge(u, v)
        for u in i:
            for v in i:
                assert u == v or not claw.has_edge(u, v)
        cm = part.clique
        assert all(any(not claw.has_edge(u, w) for w in cm) for u in i), "an independent vertex is complete to the clique"

    def test_c4_rejected(self, c4):
        assert split_partition(c4) is None
        assert forbidden_subgraph_scan(c4, "split") is not None

    def test_normalization_absorbs_complete_vertex(self):
        # K2: both endpoints must land in the clique, the independent side empties
        part = split_partition(build_graph(2, [(0, 1)]))
        assert part.clique == (0, 1) and part.independent == ()


class TestClassInclusions:
    def test_threshold_inside_qt_and_split(self):
        for n in range(1, 7):
            for g, _ in enumerate_threshold(n):
                assert quasi_threshold_forest(g) is not None
                assert split_partition(g) is not None


class TestPigAgreementSampledAt7:
    def test_recognizer_matches_scan_on_sample(self):
        # the n <= 6 sweep is exhaustive (see the acceptance suite); at n = 7
        # a seeded sample keeps the runtime reasonable
        import random

        rng = random.Random(7_2026)
        pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        for _ in range(4000):
            mask = rng.randrange(1 << len(pairs))
            g = build_graph(7, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert is_proper_interval(g).is_pig == (forbidden_subgraph_scan(g, "pig") is None)

