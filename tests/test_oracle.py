from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from pigfill import (
    OracleBudgetError,
    apply_fill,
    brute_max_cut,
    brute_min_cobipartite,
    brute_min_pig,
    build_graph,
    caterpillar_decomposition,
    connected_components,
    forbidden_subgraph_scan,
    forbidden_subgraph_scans,
    induced_subgraph,
    is_proper_interval,
    non_edges_within,
)
from pigfill import oracle, xcheck
from pigfill.graph import strictly_ascending
from pigfill.oracle import FAMILIES, _free_claw_or_c4_at, _packing
from pigfill.recognition import pig_mask_check
from pigfill.xcheck import _all_graphs as _sweep_graphs, _chunk_graphs, _sweep_chunks

from test_graph import graphs


def _plain_min_pig(g):
    """Reference for ``brute_min_pig``: every k-subset of non-edges in
    lexicographic order, with no pruning."""
    non_edges = non_edges_within(g, range(g.n))
    base = list(g.masks)
    for k in range(len(non_edges) + 1):
        for combo in combinations(non_edges, k):
            masks = base.copy()
            for u, v in combo:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            if pig_mask_check(masks, g.n):
                return k, combo
    raise AssertionError("unreachable: the complete graph is proper interval")


# The forbidden shapes, written here apart from the oracle's table, on the
# vertices 0..k-1; chordless cycles are recognized by their degrees instead.
_TRIANGLE = ((0, 1), (0, 2), (1, 2))
_PLAIN_SHAPES = {
    "2K2": ((0, 1), (2, 3)),
    "P4": ((0, 1), (1, 2), (2, 3)),
    "claw": ((0, 1), (0, 2), (0, 3)),
    "net": _TRIANGLE + ((0, 3), (1, 4), (2, 5)),  # a pendant at each corner
    "tent": _TRIANGLE + ((0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)),  # a vertex on each side
    "S222": ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)),  # a claw, each edge subdivided
}

# family -> {shape: the kind its witness reports}; Ck is the chordless k-cycle, up to the samples' n = 9
_PLAIN_KINDS = {
    "threshold": {"2K2": "2K2", "C4": "C4", "P4": "P4"},
    "quasi-threshold": {"P4": "P4", "C4": "C4"},
    "split": {"2K2": "2K2", "C4": "C4", "C5": "C5"},
    "pig": {"claw": "claw", "net": "net", "tent": "tent", **{f"C{k}": "chordless-cycle" for k in range(4, 10)}},
    "caterpillar-forest": {**{f"C{k}": "chordless-cycle" for k in range(3, 10)}, "S222": "S222"},
}


@cache
def _plain_forms(k):
    """Edge tuple on 0..k-1 -> shape, for every labelling of the shapes above on k vertices."""
    forms = {}
    for shape, edges in _PLAIN_SHAPES.items():
        if 1 + max(map(max, edges)) == k:
            for perm in permutations(range(k)):
                forms[tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))] = shape
    return forms


def _plain_cycle(edges, k):
    """``Ck`` if the k edges on 0..k-1 form one cycle through all k vertices, else None."""
    ends = [v for edge in edges for v in edge]
    if any(ends.count(v) != 2 for v in range(k)):
        return None
    # every degree is 2: disjoint cycles, and one cycle iff the walk from 0 sees all k
    seen, prev, v = 1, None, 0
    while True:
        prev, v = v, next(w for e in edges if v in e for w in e if w not in (v, prev))
        if v == 0:
            return f"C{k}" if seen == k else None
        seen += 1


def _plain_scans(g):
    """Reference for ``forbidden_subgraph_scans``: one walk over the subsets in
    lexicographic order by size, with the edges read through ``has_edge``;
    each family keeps the first subset that induces one of its shapes."""
    n = g.n
    adjacent = {pair for pair in combinations(range(n), 2) if g.has_edge(*pair)}
    found = dict.fromkeys(_PLAIN_KINDS)
    for k in range(3, n + 1):
        if None not in found.values() or k > 5 and None not in (found["pig"], found["caterpillar-forest"]):
            break  # only pig and caterpillar-forest forbid shapes on more than five vertices
        pairs = tuple(combinations(range(k), 2))
        forms = _plain_forms(k)
        for subset in combinations(range(n), k):
            edges = tuple([(i, j) for i, j in pairs if (subset[i], subset[j]) in adjacent])
            shape = forms.get(edges) or len(edges) == k and _plain_cycle(edges, k)
            for family, kinds in _PLAIN_KINDS.items():
                if found[family] is None and shape in kinds:
                    found[family] = kinds[shape], subset
    return found


def _all_graphs(max_n):
    """Every labelled graph with 1 <= n <= max_n, as the recognition sweep enumerates them."""
    for n in range(1, max_n + 1):
        yield from _sweep_graphs(n)


def _star(k):
    return build_graph(k + 1, [(0, leaf) for leaf in range(1, k + 1)])


def _is_claw_or_c4(g, quad):
    """Checker on ``has_edge`` alone: the four vertices induce a claw or a C4."""
    adjacent = [(a, b) for a, b in combinations(quad, 2) if g.has_edge(a, b)]
    degrees = sorted(sum(v in pair for pair in adjacent) for v in quad)
    # on four vertices, degrees 1, 1, 1, 3 are only the claw and 2, 2, 2, 2 only C4
    return degrees in ([1, 1, 1, 3], [2, 2, 2, 2])


def _free_quads(g, held):
    """The 4-subsets that induce a claw or a C4 with none of their pairs in ``held``."""
    return [q for q in combinations(range(g.n), 4) if _is_claw_or_c4(g, q) and held.isdisjoint(combinations(q, 2))]


class TestBruteMinPig:
    def test_p4(self, p4):
        assert brute_min_pig(p4) == (0, ())

    def test_claw(self, claw):
        cost, fill = brute_min_pig(claw)
        assert cost == 1
        assert fill == ((1, 2),)  # lexicographically first working subset
        assert is_proper_interval(apply_fill(claw, fill)).is_pig

    def test_c4_single_chord(self, c4):
        cost, fill = brute_min_pig(c4)
        assert (cost, fill) == (1, ((0, 2),))

    def test_budget_refusal(self):
        g = build_graph(9, [])
        with pytest.raises(OracleBudgetError):
            brute_min_pig(g)
        assert brute_min_pig(g, max_n=9)[0] == 0

    def test_star_k8_two_cliques(self):
        cost, fill = brute_min_pig(_star(8), max_n=9)
        assert cost == 12  # C(4,2) + C(4,2): leaves split into two cliques of four
        assert fill == (*combinations(range(1, 5), 2), *combinations(range(5, 9), 2))

    def test_star_k9(self):
        cost, fill = brute_min_pig(_star(9), max_n=10)
        assert cost == 16  # C(5,2) + C(4,2)
        assert fill == (*combinations(range(1, 6), 2), *combinations(range(6, 10), 2))

    def test_fill_is_an_ascending_tuple_of_canonical_pairs(self):
        for g in _all_graphs(6):
            cost, fill = brute_min_pig(g)
            assert type(fill) is tuple and len(fill) == cost, g
            assert all(0 <= u < v < g.n for u, v in fill), g
            assert strictly_ascending(fill), g

    def test_answers_to_6_match_pinned_hash(self):
        # one line of (cost, fill) per graph: a faster search must not move any answer or witness
        lines = "".join(f"{brute_min_pig(g)}\n" for g in _all_graphs(6))
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "d48cc83ce3b9befbe86147c2f057ac403850cab358d057458300c7538d0af62e"
        )


class TestPrunedSearchMatchesPlain:
    """The pruned search returns exactly the plain enumeration's (cost, fill)."""

    def test_every_graph_up_to_5(self):
        for g in _all_graphs(5):
            assert brute_min_pig(g) == _plain_min_pig(g), g

    def test_seeded_sample_6_to_8(self):
        rng = random.Random(20211)
        for _ in range(400):
            n = rng.randint(6, 8)
            p = rng.random()
            g = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            assert brute_min_pig(g) == _plain_min_pig(g), g

    @pytest.mark.parametrize("k", range(8))
    def test_stars(self, k):
        assert brute_min_pig(_star(k)) == _plain_min_pig(_star(k))


def _quad(found):
    return tuple(v for v in range(found.bit_length()) if found >> v & 1)


class TestFreeClawOrC4At:
    def test_matches_four_subsets_through_each_pair(self):
        rng = random.Random(27)
        for g in _all_graphs(6):
            held = {pair for pair in non_edges_within(g, range(g.n)) if rng.random() < 0.3}
            blocked = list(g.masks)
            for u, v in held:
                blocked[u] |= 1 << v
                blocked[v] |= 1 << u
            free = _free_quads(g, held)
            for a, b in permutations(range(g.n), 2):
                through = [q for q in free if a in q and b in q]
                found = _free_claw_or_c4_at(list(g.masks), blocked, a, b)
                if found is None:
                    assert not through, (g, held, a, b)
                else:
                    assert _quad(found) in through, (g, held, a, b, _quad(found))


class TestSearchNodes:
    """Every packing a search node returns is maximal, and a leaf cut before
    ``pig_mask_check`` would have failed it."""

    def test_packings_maximal_and_leaf_cuts_sound(self, monkeypatch):
        seen = {"packings": 0, "cut leaves": 0}

        def checked(masks, non_edges, inc, p, held, rem, fresh):
            out = _packing(masks, non_edges, inc, p, held, rem, fresh)
            n = len(masks)
            if out is not None:
                # the graph of this node, read back only through has_edge
                g = build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if masks[u] >> v & 1])
                held = {pair for i, pair in enumerate(non_edges) if i >= p and any(s >> i & 1 for s in out)}
                assert not _free_quads(g, held), (masks, p, out)
                seen["packings"] += 1
            elif rem == 0:
                assert not pig_mask_check(masks, n), masks
                seen["cut leaves"] += 1
            return out

        monkeypatch.setattr(oracle, "_packing", checked)
        plain = TestPrunedSearchMatchesPlain()
        plain.test_every_graph_up_to_5()
        plain.test_seeded_sample_6_to_8()
        assert min(seen.values()) > 100, seen  # both checks ran


class TestPackingBound:
    """The root packing: disjoint obstructions, each needing a pick of its own,
    and maximal."""

    def test_root_packing_bounds_the_cost(self):
        for g in _all_graphs(6):
            non_edges = non_edges_within(g, range(g.n))
            inc = [0] * g.n
            for i, (u, v) in enumerate(non_edges):
                inc[u] |= 1 << i
                inc[v] |= 1 << i
            packing = _packing(list(g.masks), non_edges, inc, 0, [], len(non_edges), (1 << len(non_edges)) - 1)
            assert len(packing) <= brute_min_pig(g)[0], g
            index = {pair: i for i, pair in enumerate(non_edges)}
            obstructions = {
                sum(1 << index[pair] for pair in combinations(q, 2) if pair in index)
                for q in combinations(range(g.n), 4)
                if _is_claw_or_c4(g, q)
            }
            union = 0
            for s in packing:
                assert s in obstructions, (g, s)  # the non-edges of an induced claw or C4
                assert not union & s, (g, packing)
                union |= s
            assert all(o & union for o in obstructions), (g, packing)  # maximal: every one meets a held pair


class TestBruteMinCobipartite:
    def test_k2_trivial(self):
        assert brute_min_cobipartite(build_graph(2, [(0, 1)])) == (0, ((0, 1), ()))

    def test_claw(self, claw):
        cost, parts = brute_min_cobipartite(claw)
        assert cost == 1
        assert parts == ((0, 1, 2), (3,))

    def test_c5(self):
        # one chord turns {0,1,2} into a clique while {3,4} already is one;
        # C5 itself is not co-bipartite (its complement is again an odd cycle)
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        cost, parts = brute_min_cobipartite(c5)
        assert cost == 1
        assert cost == _cobipartite_by_direct_enumeration(c5)

    def test_matches_direct_enumeration_small(self):
        for g in _all_graphs(5):
            assert brute_min_cobipartite(g)[0] == _cobipartite_by_direct_enumeration(g)

    def test_budget(self):
        with pytest.raises(OracleBudgetError):
            brute_min_cobipartite(build_graph(21, []))


def _cobipartite_by_direct_enumeration(g) -> int:
    best = None
    for bits in range(1 << g.n):
        a = [v for v in range(g.n) if bits >> v & 1]
        b = [v for v in range(g.n) if not bits >> v & 1]
        cost = len(non_edges_within(g, a)) + len(non_edges_within(g, b))
        best = cost if best is None else min(best, cost)
    return 0 if best is None else best


def _bipartitions_by_direct_enumeration(g):
    """The co-bipartite and max-cut answers as (score, parts), over every part A
    holding vertex 0.

    Edges inside each vertex set S come from a table, e(S) = e(S - v) + |N(v) & S|
    for the lowest v in S.  The documented tie rule keeps the least A as a sorted
    list padded with an infinite entry, so {0, 1, 2} < {0, 1} < {0, 2}.
    """
    n = g.n
    inside = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        inside[s] = inside[s ^ low] + (g.masks[low.bit_length() - 1] & s).bit_count()
    full = (1 << n) - 1
    best = [None, None]  # per objective: ((score to minimize, padded A), answer)
    for a_mask in range(1 if n else 0, 1 << n, 2):
        b_mask = full ^ a_mask
        k = a_mask.bit_count()
        pairs = k * (k - 1) // 2 + (n - k) * (n - k - 1) // 2
        kept = inside[a_mask] + inside[b_mask]
        for i, score in enumerate((pairs - kept, kept - g.m)):
            if best[i] is None or score <= best[i][0][0]:
                a = tuple(v for v in range(n) if a_mask >> v & 1)
                key = (score, a + (n,))
                if best[i] is None or key < best[i][0]:
                    best[i] = key, (abs(score), (a, tuple(v for v in range(n) if b_mask >> v & 1)))
    return best[0][1], best[1][1]


class TestBipartitionOraclesMatchDirectEnumeration:
    @pytest.mark.parametrize("n", range(7))
    def test_every_graph(self, n):
        for g in _sweep_graphs(n):
            cobipartite, cut = _bipartitions_by_direct_enumeration(g)
            assert brute_min_cobipartite(g) == cobipartite, g
            assert brute_max_cut(g) == cut, g


class TestBruteMaxCut:
    def test_k2(self):
        assert brute_max_cut(build_graph(2, [(0, 1)]))[0] == 1

    def test_triangle(self):
        size, parts = brute_max_cut(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert size == 2
        assert parts == ((0, 1), (2,))

    def test_empty(self):
        assert brute_max_cut(build_graph(4, []))[0] == 0

    @given(graphs(max_n=7))
    def test_cut_value_consistent(self, g):
        size, (a, b) = brute_max_cut(g)
        crossing = sum(1 for u in a for v in b if g.has_edge(u, v))
        assert crossing == size

    @given(graphs(max_n=7), st.integers(min_value=0, max_value=127))
    def test_cut_is_maximum_over_samples(self, g, bits):
        size, _ = brute_max_cut(g)
        a = [v for v in range(g.n) if bits >> v & 1]
        b = [v for v in range(g.n) if not bits >> v & 1]
        assert sum(1 for u in a for v in b if g.has_edge(u, v)) <= size


class TestForbiddenScan:
    def test_p4_threshold_witness(self, p4):
        assert forbidden_subgraph_scan(p4, "threshold") == ("P4", (0, 1, 2, 3))

    def test_tent_pig_witness(self):
        tent = build_graph(
            6, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)]
        )
        kind, verts = forbidden_subgraph_scan(tent, "pig")
        assert kind == "tent" and len(verts) == 6

    def test_net_pig_witness(self):
        net = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        assert forbidden_subgraph_scan(net, "pig")[0] == "net"

    def test_k4_clean_everywhere(self, k4):
        for family in ("threshold", "quasi-threshold", "split", "pig"):
            assert forbidden_subgraph_scan(k4, family) is None

    def test_2k2_and_c5(self):
        two_k2 = build_graph(4, [(0, 1), (2, 3)])
        assert forbidden_subgraph_scan(two_k2, "threshold")[0] == "2K2"
        assert forbidden_subgraph_scan(two_k2, "split")[0] == "2K2"
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert forbidden_subgraph_scan(c5, "split")[0] == "C5"
        assert forbidden_subgraph_scan(c5, "quasi-threshold")[0] == "P4"

    def test_claw_pig_witness(self, claw):
        assert forbidden_subgraph_scan(claw, "pig") == ("claw", (0, 1, 2, 3))

    def test_unknown_family(self, claw):
        with pytest.raises(ValueError):
            forbidden_subgraph_scan(claw, "nonsense")
        with pytest.raises(ValueError):
            forbidden_subgraph_scans(claw, ["nonsense"])
        with pytest.raises(ValueError):
            forbidden_subgraph_scans(claw, ["pig", "nonsense"])

    def test_scans_default_to_every_family(self, claw):
        assert forbidden_subgraph_scans(claw) == {
            "threshold": None,
            "quasi-threshold": None,
            "split": None,
            "pig": ("claw", (0, 1, 2, 3)),
            "caterpillar-forest": None,
        }
        assert forbidden_subgraph_scans(claw, []) == {}


class TestShapeTable:
    """The oracle's shape table against counts and degrees worked out by hand."""

    # shape -> (its labellings, k! / |Aut|; its sorted degrees)
    _EXPECTED = {
        "C3": (1, [2, 2, 2]),
        "2K2": (3, [1, 1, 1, 1]),
        "C4": (3, [2, 2, 2, 2]),
        "P4": (12, [1, 1, 2, 2]),
        "claw": (4, [1, 1, 1, 3]),
        "C5": (12, [2] * 5),
        "net": (120, [1, 1, 1, 3, 3, 3]),
        "tent": (120, [2, 2, 2, 4, 4, 4]),
        "C6": (60, [2] * 6),
        "C7": (360, [2] * 7),
        "S222": (840, [1, 1, 1, 2, 2, 2, 3]),
    }

    def test_codes_of_each_shape(self):
        codes = {}
        for k in range(8):
            for code, shape in oracle._shape_codes(k).items():
                codes.setdefault(shape, []).append((k, code))
        assert set(codes) == set(self._EXPECTED)
        for shape, (labellings, degrees) in self._EXPECTED.items():
            assert len(codes[shape]) == labellings, shape
            for k, code in codes[shape]:
                edges = [pair for i, pair in enumerate(combinations(range(k), 2)) if code >> i & 1]
                assert len(edges) == sum(degrees) // 2, (shape, code)
                assert sorted(sum(v in edge for edge in edges) for v in range(k)) == degrees, (shape, code)

    def test_no_code_names_two_shapes(self):
        labelled = {}  # labelled edge set -> the shapes it is a labelling of
        for shape, edges in oracle._SHAPES.items():
            k = 1 + max(map(max, edges))
            for perm in permutations(range(k)):
                key = k, frozenset(frozenset((perm[u], perm[v])) for u, v in edges)
                labelled.setdefault(key, set()).add(shape)
        assert all(len(shapes) == 1 for shapes in labelled.values())
        assert sum(map(len, map(oracle._shape_codes, range(8)))) == len(labelled)

    def test_families(self):
        assert FAMILIES == {
            "threshold": ("2K2", "C4", "P4"),
            "quasi-threshold": ("P4", "C4"),
            "split": ("2K2", "C4", "C5"),
            "pig": ("claw", "net", "tent", "chordless-cycle"),
            "caterpillar-forest": ("chordless-cycle", "S222"),
        }

    def test_import_builds_no_codes(self):
        # start-up stays as cheap as before: the codes are built on a first scan or table
        script = "import pigfill.cli; from pigfill import oracle; print(oracle._shape_codes.cache_info().currsize)"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr


class TestExhaustiveSweep:
    def test_sweep_graphs_match_pair_mask_enumeration(self):
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            want = [
                build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                for mask in range(1 << len(pairs))
            ]
            got = list(_sweep_graphs(n))
            assert got == want, n
            assert [g.__dict__["masks"] for g in got] == [g.masks for g in want], n
            assert [g.__dict__["m"] for g in got] == [len(g.edges()) for g in want], n
            # the sweep's chunks are consecutive blocks of the same enumeration
            chunks = _sweep_chunks(n)
            parts = [list(_chunk_graphs(chunk)) for chunk in chunks]
            assert [g for part in parts for g in part] == want, n
            assert [len(part) for part in parts] == [count for _, _, count in chunks], n

    def test_chunk_sizes_cover_n7_without_building(self):
        chunks = _sweep_chunks(7)
        assert len(set(chunks)) == len(chunks) > 1
        assert sum(count for _, _, count in chunks) == 1 << 21
        # consecutive blocks from code 0, each a power of two that divides its start
        assert [start for _, start, _ in chunks] == [sum(c for _, _, c in chunks[:i]) for i in range(len(chunks))]
        assert all(count & count - 1 == 0 and start % count == 0 for _, start, count in chunks)

    def test_sampled_n7_blocks_match_build_graph(self):
        # the first, the last and ten seeded blocks of the n = 7 enumeration
        chunks = _sweep_chunks(7)
        rng = random.Random(7)
        pairs = list(combinations(range(7), 2))
        for chunk in [chunks[0], chunks[-1], *rng.sample(chunks, 10)]:
            _, start, count = chunk
            got = list(_chunk_graphs(chunk))
            want = [build_graph(7, [e for i, e in enumerate(pairs) if code >> i & 1]) for code in range(start, start + count)]
            assert got == want, chunk
            assert [g.__dict__["masks"] for g in got] == [g.masks for g in want], chunk
            assert [g.__dict__["m"] for g in got] == [len(g.edges()) for g in want], chunk

    def _assert_scans_match_plain(self, graphs, one_family):
        for g in graphs:
            want = _plain_scans(g)
            assert forbidden_subgraph_scans(g) == want, g
            if one_family:
                for f in FAMILIES:
                    assert forbidden_subgraph_scan(g, f) == want[f], (f, g)

    def test_scans_match_plain_scans_to_6(self):
        # every family at once, as the recognition sweep calls it
        self._assert_scans_match_plain((g for n in range(1, 7) for g in _sweep_graphs(n)), one_family=False)

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_scans_match_plain_scans_sampled(self, n):
        rng = random.Random(n)
        pairs = list(combinations(range(n), 2))

        def sample():
            for _ in range(3000):
                p = rng.random()
                yield build_graph(n, [e for e in pairs if rng.random() < p])

        self._assert_scans_match_plain(sample(), one_family=True)


def _scan_bits(g):
    """The membership entry ``forbidden_subgraph_scans`` implies for g."""
    scan = forbidden_subgraph_scans(g)
    return sum(bit for fam, bit in oracle._FAMILY_BITS.items() if scan[fam] is None)


class TestMembershipTables:
    """The recognition sweep's hereditary membership tables against the scans."""

    def test_every_graph_to_6(self):
        tables = oracle._member_tables(7)
        assert [len(t) for t in tables] == [1 << n * (n - 1) // 2 for n in range(7)]
        for n in range(1, 7):
            assert list(tables[n]) == [_scan_bits(g) for g in _sweep_graphs(n)], n

    def test_chunk_blocks_equal_the_table(self):
        # the sweep builds the top size block by block from the size below
        tables = oracle._member_tables(7)
        chunks = _sweep_chunks(6)
        assert len(chunks) > 1
        blocks = [oracle._members(*c, tables[5]) for c in chunks]
        assert b"".join(blocks) == tables[6]

    def test_sampled_n7(self):
        # drawn as in test_scans_match_plain_scans_sampled
        n = 7
        rng = random.Random(n)
        pairs = list(combinations(range(n), 2))
        below = oracle._member_tables(n)[n - 1]
        for _ in range(3000):
            p = rng.random()
            code = sum(1 << i for i in range(len(pairs)) if rng.random() < p)
            g = build_graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
            assert oracle._members(n, code, 1, below) == bytes([_scan_bits(g)]), code


def _is_caterpillar_forest(g):
    """Per-component reference: every component is a caterpillar."""
    return all(caterpillar_decomposition(induced_subgraph(g, c)[0]) is not None for c in connected_components(g))


class TestCaterpillarForest:
    """The caterpillar-forest family against the caterpillar recognizer."""

    def test_every_labelled_s222(self):
        below = oracle._member_tables(7)[6]
        pairs = list(combinations(range(7), 2))
        codes = [code for code, shape in oracle._shape_codes(7).items() if shape == "S222"]
        assert len(codes) == 840
        for code in codes:
            g = build_graph(7, [e for i, e in enumerate(pairs) if code >> i & 1])
            assert g.m == 6 and len(connected_components(g)) == 1, code  # a tree
            assert caterpillar_decomposition(g) is None, code
            assert not oracle._members(7, code, 1, below)[0] & oracle._CATERPILLAR, code
            assert forbidden_subgraph_scan(g, "caterpillar-forest") == ("S222", tuple(range(7))), code

    def test_scan_matches_per_component_recognition(self):
        # seeded random forests with a few extra edges, relabelled
        rng = random.Random(12)
        kinds = Counter()
        for _ in range(3000):
            n = rng.randint(1, 12)
            label = rng.sample(range(n), n)
            edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.9]
            edges += [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.02]
            g = build_graph(n, edges)
            found = forbidden_subgraph_scan(g, "caterpillar-forest")
            kinds[found and found[0]] += 1
            assert (found is None) == _is_caterpillar_forest(g), g
            if found is not None:
                sub, _ = induced_subgraph(g, found[1])
                if found[0] == "S222":  # the only tree on 7 vertices that is no caterpillar
                    assert sub.m == 6 and len(connected_components(sub)) == 1 and caterpillar_decomposition(sub) is None
                else:
                    assert sub.m == sub.n and all(sub.degree(v) == 2 for v in range(sub.n))
                    assert len(connected_components(sub)) == 1
        assert set(kinds) == {None, "chordless-cycle", "S222"}, kinds


def _caterpillar_failing_on_edge_0_last(real, calls_here):
    # fails on every labelled caterpillar with n >= 4 that has the pair
    # (0, n - 1): by symmetry 2/n of the 16, 125 and 1296 with n = 4, 5, 6;
    # calls_here counts the calls made in this process, not in a worker
    here = os.getpid()

    def patched(g):
        if os.getpid() == here:
            calls_here.append(g.n)
        return None if g.n >= 4 and g.has_edge(0, g.n - 1) else real(g)

    return patched


class TestParallelSweep:
    """The recognition sweep over forked workers against the in-process pass."""

    @staticmethod
    def _lines(monkeypatch, cpus):
        monkeypatch.setattr(xcheck, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = xcheck.xcheck_recognition()
        assert not [w for w in caught if "fork" in str(w.message)]
        assert multiprocessing.active_children() == []
        return rows, [row.line() for row in rows]

    def test_rows_equal_in_process_rows(self, monkeypatch):
        _, serial = self._lines(monkeypatch, 1)
        _, forked = self._lines(monkeypatch, 2)
        assert forked == serial
        assert all(line.startswith("pass") for line in serial)

    def test_failures_and_notes_reach_the_parent(self, monkeypatch):
        calls_here = []
        monkeypatch.setattr(
            xcheck,
            "caterpillar_decomposition",
            _caterpillar_failing_on_edge_0_last(xcheck.caterpillar_decomposition, calls_here),
        )
        real_seq = xcheck.threshold_creation_sequence
        monkeypatch.setattr(
            xcheck, "threshold_creation_sequence", lambda g: None if g.n == 6 and g.has_edge(0, 5) else real_seq(g)
        )
        _, serial = self._lines(monkeypatch, 1)
        assert len(calls_here) == 33867
        del calls_here[:]
        rows, forked = self._lines(monkeypatch, 2)
        assert calls_here == []  # every graph was checked in a worker
        assert forked == serial
        thr, thr_replay, *_, cater, cater_rebuild = rows
        assert thr.failures > 0 and thr_replay.instances == 3263 - thr.failures
        assert cater.failures == 16 * 2 // 4 + 125 * 2 // 5 + 1296 * 2 // 6
        assert cater.notes == ["n=4"] * 8 + ["n=5"] * 2  # the first ten, in enumeration order
        assert cater_rebuild.instances == 1442 - cater.failures


class TestRecognitionSweep:
    _COUNTS = [33867, 3263, 33867, 4606, 33867, 33867, 33867, 1442]

    def test_rows_to_6(self):
        rows = xcheck.xcheck_recognition(max_n=6)
        assert [row.name for row in rows] == list(xcheck._RECOGNITION_ROWS)
        assert [row.instances for row in rows] == self._COUNTS
        assert all(row.line().startswith("pass") for row in rows)

    def test_no_table_outlives_a_call(self, monkeypatch):
        # below the top size every entry comes from the call's tables, so a
        # table kept from the first call would hide the patched lookup
        first = [row.line() for row in xcheck.xcheck_recognition(max_n=6)]
        real = oracle._obstruction_bits
        monkeypatch.setattr(
            oracle, "_obstruction_bits", lambda n: {c: b for c, b in real(n).items() if oracle._shape_codes(n)[c] != "C5"}
        )
        patched = xcheck.xcheck_recognition(max_n=6)
        split = patched[xcheck._RECOGNITION_ROWS.index("split recognizer == {2K2, C4, C5} scan")]
        assert split.failures > 0
        monkeypatch.undo()
        assert [row.line() for row in xcheck.xcheck_recognition(max_n=6)] == first


class TestOracleAgreement:
    def test_cobipartite_lower_bounds_pig_on_connected_qt(self):
        from pigfill import enumerate_rooted_forests, qt_forest_graph

        for n in range(1, 7):
            for forest in enumerate_rooted_forests(n):
                if len(forest.roots) != 1:
                    continue
                g = qt_forest_graph(forest)
                assert brute_min_cobipartite(g)[0] <= brute_min_pig(g)[0]
