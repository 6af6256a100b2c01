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
    parse_graph,
    qt_forest_graph,
    quasi_threshold_forest,
    replay_creation_sequence,
    serialize_graph,
    split_partition,
    threshold_creation_sequence,
    threshold_pig_completion,
)
from pigfill import recognition
from pigfill.generators import gen_caterpillar, gen_split, gen_threshold
from pigfill.graph import Graph
from pigfill.recognition import SplitPartition
from pigfill.xcheck import _all_graphs

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
                _assert_claw_verdict(g, verdict)
                if verdict.is_pig:
                    assert verdict.witness is None
                    assert_umbrella_order(g, verdict.order)
                else:
                    assert verdict.order is None
                    assert_forbidden_witness(g, verdict.witness_kind, verdict.witness)
                    kinds.add(verdict.witness_kind)
        assert kinds == {"claw", "net", "tent", "chordless-cycle"}

    def test_completed_caterpillar_at_10k_is_fast(self):
        g, _ = gen_caterpillar(5000, 2, seed=3)
        h = apply_fill(g, caterpillar_pig_completion(g).fill)
        assert h.n > 9000
        start = time.perf_counter()
        verdict = is_proper_interval(h)
        elapsed = time.perf_counter() - start
        assert verdict.is_pig and len(verdict.order) == h.n
        assert elapsed < 5.0, f"{elapsed:.1f} s"

    def test_completed_threshold_at_800_is_fast(self):
        g, _ = gen_threshold(800, 0.5, 1)
        h = apply_fill(g, threshold_pig_completion(g).fill)
        start = time.perf_counter()
        verdict = is_proper_interval(h)
        elapsed = time.perf_counter() - start
        assert verdict.is_pig and len(verdict.order) == h.n
        assert elapsed < 2.0, f"{elapsed:.1f} s"

    def test_bad_sweep_order_raises(self, p4, monkeypatch):
        # (0, 2, 1, 3) splits N[0] = {0, 1}; p4 has no witness, so the
        # recognizer must fail loudly rather than accept without a certificate
        monkeypatch.setattr(recognition, "_three_sweep_order", lambda g, sigma: (0, 2, 1, 3))
        with pytest.raises(AssertionError, match="umbrella"):
            is_proper_interval(p4)

    def test_first_sweep_runs_once(self, p4, monkeypatch):
        # a non-chordal graph is rejected on the first sweep alone, and a
        # chordal one runs the three sweeps and no more
        lbfs, calls = recognition._lbfs, []
        monkeypatch.setattr(recognition, "_lbfs", lambda masks, n: calls.append(n) or lbfs(masks, n))
        c5, c6 = (build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 6))
        net = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        for g, kind, sweeps in [(c5, "chordless-cycle", 1), (c6, "chordless-cycle", 1), (p4, None, 3), (net, "net", 3)]:
            calls.clear()
            assert is_proper_interval(g).witness_kind == kind
            assert len(calls) == sweeps, (g, kind)


def _assert_claw_verdict(g, verdict):
    """Whenever the claw scan finds a claw, the verdict names exactly that claw."""
    claw = recognition._find_claw(g.masks, g.n)
    if claw is not None:
        assert (verdict.is_pig, verdict.witness_kind, verdict.witness) == (False, "claw", claw)


def _refuse_claw_scan(masks, n):
    raise RuntimeError("the claw scan ran on the accept path")


class TestAcceptWithoutClawScan:
    def test_every_pig_to_6(self, monkeypatch):
        orders = [(g, v.order) for n in range(7) for g in _all_graphs(n) if (v := is_proper_interval(g)).is_pig]
        assert len(orders) > 1000
        monkeypatch.setattr(recognition, "_find_claw", _refuse_claw_scan)
        for g, order in orders:
            assert is_proper_interval(g).order == order

    def test_completed_threshold_and_caterpillar(self, monkeypatch):
        g, _ = gen_threshold(120, 0.5, 2)
        c, _ = gen_caterpillar(200, 3, seed=2)
        completed = [
            apply_fill(g, threshold_pig_completion(g).fill),
            apply_fill(c, caterpillar_pig_completion(c).fill),
        ]
        monkeypatch.setattr(recognition, "_find_claw", _refuse_claw_scan)
        for h in completed:
            verdict = is_proper_interval(h)
            assert verdict.is_pig
            assert_umbrella_order(h, verdict.order)


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
        assert f.subtree_size[0] == 4 and len(f.children[0]) == 3

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


CACHED_RECOGNIZERS = (threshold_creation_sequence, caterpillar_decomposition, quasi_threshold_forest)


class TestCertificateCache:
    @pytest.mark.parametrize("recognize", CACHED_RECOGNIZERS, ids=lambda f: f.__name__)
    def test_second_call_returns_the_same_object(self, claw, recognize, probe_counts):
        first = recognize(claw)
        assert first is not None and recognize(claw) is first
        assert probe_counts == {recognize.__name__: 1}

    def test_none_is_cached(self, p4, c4, probe_counts):
        assert threshold_creation_sequence(p4) is None and threshold_creation_sequence(p4) is None
        assert quasi_threshold_forest(c4) is None and quasi_threshold_forest(c4) is None
        assert caterpillar_decomposition(c4) is None and caterpillar_decomposition(c4) is None
        assert probe_counts == {"threshold_creation_sequence": 1, "quasi_threshold_forest": 1, "caterpillar_decomposition": 1}

    def test_new_graphs_carry_no_certificate(self, claw, probe_counts):
        for recognize in CACHED_RECOGNIZERS:
            recognize(claw)
        rebuilt = (
            build_graph(claw.n, claw.edges()),
            apply_fill(claw, ()),
            apply_fill(claw, [(1, 2)]),
            parse_graph(serialize_graph(claw)),
        )
        for g in rebuilt:
            probe_counts.clear()
            for recognize in CACHED_RECOGNIZERS:
                recognize(g)
            assert sum(probe_counts.values()) == 3, g

    def test_equality_and_hash_ignore_the_cache(self, claw):
        fresh = build_graph(claw.n, claw.edges())
        for recognize in CACHED_RECOGNIZERS:
            recognize(claw)
        assert claw == fresh and hash(claw) == hash(fresh)
        assert {claw: 1}[fresh] == 1


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

    def test_matches_mask_reference_without_building_rows(self):
        # fresh graphs on the sweep's neighbour tuples: the sweep caches the rows
        graphs = [Graph(g.n, g.neighbors) for n in range(7) for g in _all_graphs(n)]
        graphs += [gen_split(1 + i % 40, seed=i)[0] for i in range(500)]
        for g in graphs:
            part = split_partition(g)
            assert "masks" not in g.__dict__
            assert part == _mask_split_partition(g), g


def _mask_split_partition(g):
    """Reference for ``split_partition``: the same criterion, checked on the bitmask rows."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    h = 0
    for i in range(1, n + 1):
        if degs[i - 1] >= i - 1:
            h = i
        else:
            break
    if sum(degs[:h]) != h * (h - 1) + sum(degs[h:]):
        return None
    clique = set(order[:h])
    indep = set(order[h:])
    cmask = sum(1 << v for v in clique)
    for v in clique:
        if (g.masks[v] & cmask).bit_count() != len(clique) - 1:
            return None
    for u in indep:
        if g.masks[u] & sum(1 << v for v in indep):
            return None
    moved = True
    while moved:
        moved = False
        for v in sorted(indep):
            if g.masks[v] & cmask == cmask:
                indep.remove(v)
                clique.add(v)
                cmask |= 1 << v
                moved = True
                break
    return SplitPartition(tuple(sorted(clique)), tuple(sorted(indep)))


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
            _assert_claw_verdict(g, verdict)
            assert verdict.is_pig == (forbidden_subgraph_scan(g, "pig") is None)
            if verdict.is_pig:
                assert_umbrella_order(g, verdict.order)


class TestPigMaskCheck:
    def test_matches_scan_to_6(self):
        # the exhaustive oracle's proper-interval test, against the quartic scan
        for n in range(7):
            for g in _all_graphs(n):
                want = forbidden_subgraph_scan(g, "pig") is None
                assert recognition.pig_mask_check(g.masks, g.n) == want, g.edges()


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


def _qt_forest_on_masks(g):
    """Parent tuple from rooting each connected piece at its smallest universal vertex, recursively."""
    n, masks = g.n, g.masks

    def pieces(mask):
        out = []
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = masks[low.bit_length() - 1] & mask & ~comp
                comp |= new
                frontier |= new
            out.append(comp)
            mask &= ~comp
        return out

    parents = [None] * n
    stack = [(comp, None) for comp in pieces((1 << n) - 1)]
    while stack:
        comp, par = stack.pop()
        size = comp.bit_count()
        universal = [v for v in range(n) if comp >> v & 1 and (masks[v] & comp).bit_count() == size - 1]
        if not universal:
            return None
        root = universal[0]
        parents[root] = par
        stack.extend((sub, root) for sub in pieces(comp & ~(1 << root)))
    return tuple(parents)


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
    f = quasi_threshold_forest(g)
    assert (None if f is None else f.parent) == _qt_forest_on_masks(g), g.edges()


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
        from pigfill.generators import gen_quasi_threshold, gen_threshold

        for seed in range(60):
            g, _ = gen_threshold(5 + seed, 0.5, seed)
            c, _ = gen_caterpillar(1 + seed % 30, 3, seed)
            q, _ = gen_quasi_threshold(1 + seed, seed)
            for h in (g, _relabelled(g, seed)):
                assert threshold_creation_sequence(h) is not None
                _assert_probes_match_reference(h)
            for h in (c, _relabelled(c, seed)):
                assert caterpillar_decomposition(h) is not None
                _assert_probes_match_reference(h)
            for h in (q, _relabelled(q, seed)):
                assert quasi_threshold_forest(h) is not None
                _assert_probes_match_reference(h)


def _disjoint_union(*graphs):
    edges, base = [], 0
    for h in graphs:
        edges += [(u + base, v + base) for u, v in h.edges()]
        base += h.n
    return build_graph(base, edges)


def _path(k):
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def _cycle(k):
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def _random_tree_edges(n, rng):
    return [(rng.randrange(v), v) for v in range(1, n)]


class TestCaterpillarCountingArgument:
    """The caterpillar and threshold probes reject without a connectivity search
    or a full peel; they must still agree with the mask references."""

    def _assert_caterpillar(self, g):
        d = caterpillar_decomposition(g)
        assert (None if d is None else (d.spine, d.buckets)) == _caterpillar_on_masks(g), g.edges()
        return d

    def test_disconnected_with_n_minus_1_edges(self):
        import random

        rng = random.Random(16)
        cases = []
        for k in range(3, 9):
            cycle = _cycle(k)
            cycle_with_leaf = build_graph(k + 1, cycle.edges() + [(0, k)])
            tree = build_graph(k, _random_tree_edges(k, rng))
            cases += [
                _disjoint_union(tree, build_graph(1, [])),  # a tree plus an isolated vertex
                _disjoint_union(cycle, build_graph(1, [])),  # m = n - 1 with an isolated vertex
                _disjoint_union(_path(2), cycle),  # a K2 plus a unicyclic graph
                _disjoint_union(cycle_with_leaf, _path(2)),
                _disjoint_union(_path(2), cycle_with_leaf, _path(2), _cycle(3)),
            ]
            for j in range(1, 7):
                cases += [_disjoint_union(cycle, _path(j)), _disjoint_union(_path(j), cycle_with_leaf)]
            star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
            cases += [_disjoint_union(star, cycle), _disjoint_union(cycle, tree)]
        for i, g in enumerate(cases):
            for h in (g, _relabelled(g, i)):
                assert self._assert_caterpillar(h) is None
        assert sum(g.m == g.n - 1 for g in cases) > 60
        # random edge sets of size n - 1, most of them disconnected
        for _ in range(3000):
            n = rng.randrange(3, 10)
            pairs = list(combinations(range(n), 2))
            g = build_graph(n, rng.sample(pairs, n - 1))
            self._assert_caterpillar(g)

    def test_small_and_stars(self):
        for n in range(4):
            for g in _all_graphs(n):
                self._assert_caterpillar(g)
        for k in range(1, 12):
            star = build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
            for h in (star, _relabelled(star, k)):
                d = self._assert_caterpillar(h)
                assert len(d.spine) == 1 and len(d.buckets[0]) == k

    def test_random_trees(self):
        import random

        rng = random.Random(2_000)
        accepted = 0
        for i in range(2000):
            n = rng.randrange(1, 41)
            g = _relabelled(build_graph(n, _random_tree_edges(n, rng)), i)
            d = self._assert_caterpillar(g)
            if d is not None:
                accepted += 1
                assert caterpillar_graph(d) == g
        # both answers occur often enough to be tested
        assert 200 < accepted < 1800

    def test_threshold_probe_without_universal_or_isolated_vertex(self):
        import random

        rng = random.Random(31)
        checked = 0
        for _ in range(3000):
            n = rng.randrange(2, 10)
            pairs = list(combinations(range(n), 2))
            g = build_graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
            degrees = set(map(len, g.neighbors))
            if 0 not in degrees and n - 1 not in degrees:
                checked += 1
                assert threshold_creation_sequence(g) is None
            seq = threshold_creation_sequence(g)
            assert (None if seq is None else seq.steps) == _threshold_sequence_on_masks(g), g.edges()
        assert checked > 500
        for k in range(4, 12):
            for g in (_cycle(k), _path(k), _relabelled(_path(k), k)):
                assert threshold_creation_sequence(g) is None
                assert _threshold_sequence_on_masks(g) is None
