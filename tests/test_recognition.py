from __future__ import annotations

import time
from itertools import combinations

import pytest

from pigfill import (
    apply_fill,
    build_graph,
    caterpillar_pig_completion,
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
from pigfill import recognition
from pigfill.generators import gen_caterpillar

# Independent checkers for the recognizer's certificates; they read the graph
# through has_edge only.


def assert_umbrella_order(g, order):
    """order is a permutation of V and every closed neighbourhood is consecutive in it."""
    assert sorted(order) == list(range(g.n))
    for v in g.vertices():
        spots = [i for i, w in enumerate(order) if w == v or g.has_edge(v, w)]
        assert spots == list(range(spots[0], spots[-1] + 1)), (v, order)


def _pattern_edges(kind, k):
    """Edges of the named subgraph on 0..k-1, in the order the recognizer lists it."""
    if kind == "chordless-cycle":
        return {(i, (i + 1) % k) for i in range(k)}
    triangle = {(0, 1), (0, 2), (1, 2)}
    return {
        "claw": {(0, 1), (0, 2), (0, 3)},  # center, then three leaves
        "net": triangle | {(0, 3), (1, 4), (2, 5)},  # triangle, then a pendant per corner
        # triangle, then one vertex per side ab, bc, ac
        "tent": triangle | {(0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)},
    }[kind]


def assert_forbidden_witness(g, kind, witness):
    """witness induces the subgraph named by kind."""
    k = len(witness)
    assert len(set(witness)) == k
    if kind == "chordless-cycle":
        assert k >= 4
    else:
        assert k == {"claw": 4, "net": 6, "tent": 6}[kind]
    want = {frozenset(p) for p in _pattern_edges(kind, k)}
    for i, j in combinations(range(k), 2):
        assert g.has_edge(witness[i], witness[j]) == (frozenset((i, j)) in want), (kind, witness)


def _all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


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
        assert is_proper_interval(build_graph(0, [])).order == ()
        assert is_proper_interval(build_graph(1, [])).order == (0,)

    def test_certificates_exhaustive_to_6(self):
        kinds = set()
        for n in range(1, 7):
            for g in _all_graphs(n):
                verdict = is_proper_interval(g)
                if verdict.is_pig:
                    assert verdict.witness is None
                    assert_umbrella_order(g, verdict.order)
                else:
                    assert verdict.order is None
                    assert_forbidden_witness(g, verdict.witness_kind, verdict.witness)
                    kinds.add(verdict.witness_kind)
        assert kinds == {"claw", "net", "tent", "chordless-cycle"}

    def test_completed_caterpillar_at_10k_is_fast(self):
        g, d = gen_caterpillar(5000, 2, seed=3)
        h = apply_fill(g, caterpillar_pig_completion(g, d).fill)
        assert h.n > 9000
        start = time.perf_counter()
        verdict = is_proper_interval(h)
        elapsed = time.perf_counter() - start
        assert verdict.is_pig and len(verdict.order) == h.n
        assert elapsed < 5.0, f"{elapsed:.1f} s"

    def test_bad_sweep_order_raises(self, p4, monkeypatch):
        # (0, 2, 1, 3) splits N[0] = {0, 1}; p4 has no witness, so the
        # recognizer must fail loudly rather than accept without a certificate
        monkeypatch.setattr(recognition, "_three_sweep_order", lambda g: (0, 2, 1, 3))
        with pytest.raises(AssertionError, match="umbrella"):
            is_proper_interval(p4)


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
            verdict = is_proper_interval(g)
            assert verdict.is_pig == (forbidden_subgraph_scan(g, "pig") is None)
            if verdict.is_pig:
                assert_umbrella_order(g, verdict.order)



# Reference copies of the bitmask probes that the O(n + m) recognizers
# replaced; the sparse versions must return the same certificates.


def _threshold_sequence_on_masks(g):
    n, masks = g.n, g.masks
    rem = (1 << n) - 1
    size = n
    peel = []
    while size:
        if size == 1:
            peel.append(((rem & -rem).bit_length() - 1, "i"))
            break
        universal = isolated = -1
        mm = rem
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            d = (masks[v] & rem).bit_count()
            if d == size - 1:
                universal = v
                break
            if d == 0 and isolated < 0:
                isolated = v
        if universal >= 0:
            peel.append((universal, "d"))
            rem &= ~(1 << universal)
        elif isolated >= 0:
            peel.append((isolated, "i"))
            rem &= ~(1 << isolated)
        else:
            return None
        size -= 1
    return tuple(reversed(peel))


def _caterpillar_on_masks(g):
    n, masks = g.n, g.masks
    if n == 0 or g.m != n - 1:
        return None
    comp = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & ~comp
        comp |= new
        frontier |= new
    if comp != (1 << n) - 1:
        return None
    if n == 1:
        return (0,), ((),)
    if n == 2:
        return (0,), ((1,),)
    spine_set = [v for v in range(n) if g.degree(v) >= 2]
    smask = sum(1 << v for v in spine_set)
    ends = []
    for v in spine_set:
        sdeg = (masks[v] & smask).bit_count()
        if sdeg > 2:
            return None
        if sdeg <= 1:
            ends.append(v)
    spine = [min(ends)] if len(spine_set) > 1 else [spine_set[0]]
    prev = -1
    while len(spine_set) > 1:
        nxt = masks[spine[-1]] & smask & ~(1 << prev if prev >= 0 else 0)
        if not nxt:
            break
        prev = spine[-1]
        spine.append((nxt & -nxt).bit_length() - 1)
    buckets = tuple(tuple(w for w in g.neighbors[v] if g.degree(w) == 1) for v in spine)
    return tuple(spine), buckets


def _assert_probes_match_reference(g):
    seq = threshold_creation_sequence(g)
    assert (None if seq is None else seq.steps) == _threshold_sequence_on_masks(g), g.edges()
    d = caterpillar_decomposition(g)
    assert (None if d is None else (d.spine, d.buckets)) == _caterpillar_on_masks(g), g.edges()


def _relabelled(g, seed):
    import random

    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestSparseProbesMatchMaskReference:
    def test_exhaustive_to_6(self):
        for n in range(7):
            for g in _all_graphs(n):
                _assert_probes_match_reference(g)

    def test_sampled_at_7(self):
        import random

        rng = random.Random(4_2026)
        pairs = list(combinations(range(7), 2))
        for _ in range(4000):
            mask = rng.randrange(1 << len(pairs))
            _assert_probes_match_reference(build_graph(7, [p for i, p in enumerate(pairs) if mask >> i & 1]))

    def test_generated_members(self):
        from pigfill.generators import gen_threshold

        for seed in range(60):
            g, _ = gen_threshold(5 + seed, 0.5, seed)
            c, _ = gen_caterpillar(1 + seed % 30, 3, seed)
            for h in (g, _relabelled(g, seed)):
                assert threshold_creation_sequence(h) is not None
                _assert_probes_match_reference(h)
            for h in (c, _relabelled(c, seed)):
                assert caterpillar_decomposition(h) is not None
                _assert_probes_match_reference(h)
