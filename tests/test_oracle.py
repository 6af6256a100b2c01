from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from pigfill import (
    OracleBudget,
    OracleBudgetError,
    apply_fill,
    brute_max_cut,
    brute_min_cobipartite,
    brute_min_pig,
    build_graph,
    forbidden_subgraph_scan,
    is_proper_interval,
    non_edges_within,
)

from test_graph import graphs


class TestBruteMinPig:
    def test_p4(self, p4):
        assert brute_min_pig(p4) == (0, frozenset())

    def test_claw(self, claw):
        cost, fill = brute_min_pig(claw)
        assert cost == 1
        assert fill == {(1, 2)}  # lexicographically first working subset
        assert is_proper_interval(apply_fill(claw, fill)).is_pig

    def test_c4_single_chord(self, c4):
        cost, fill = brute_min_pig(c4)
        assert (cost, fill) == (1, frozenset({(0, 2)}))

    def test_budget_refusal(self):
        g = build_graph(9, [])
        with pytest.raises(OracleBudgetError):
            brute_min_pig(g)
        assert brute_min_pig(g, OracleBudget(max_vertices=9))[0] == 0

    def test_fill_cap_refusal(self, claw):
        with pytest.raises(OracleBudgetError):
            brute_min_pig(claw, OracleBudget(max_vertices=8, max_fill=0))


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
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
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


class TestOracleAgreement:
    def test_cobipartite_lower_bounds_pig_on_connected_qt(self):
        from pigfill import enumerate_rooted_forests, qt_forest_graph

        for n in range(1, 7):
            for forest in enumerate_rooted_forests(n):
                if len(forest.roots) != 1:
                    continue
                g = qt_forest_graph(forest)
                assert brute_min_cobipartite(g)[0] <= brute_min_pig(g)[0]
