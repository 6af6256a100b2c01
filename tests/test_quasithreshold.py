from __future__ import annotations

import random

import pytest

from pigfill import (
    ClassMembershipError,
    GraphInputError,
    brute_min_cobipartite,
    brute_min_pig,
    build_dp_tables,
    build_graph,
    enumerate_rooted_forests,
    forest_from_parents,
    gen_quasi_threshold,
    qt_cobipartite_completion,
    qt_forest_graph,
    quasi_threshold_forest,
    validate_completion,
)
from pigfill.quasithreshold import _backtrack
from pigfill.recognition import qt_forest_postorder
from pigfill.xcheck import partition_cost


class TestDpTables:
    def test_single_vertex_rows(self):
        tables = build_dp_tables(forest_from_parents([None]))
        assert tables.d[0] == (0, 0)

    def test_p3_rooted_at_middle(self):
        p3 = build_graph(3, [(0, 1), (1, 2)])
        tables = build_dp_tables(quasi_threshold_forest(p3))
        assert min(tables.root_row) == 0

    def test_claw_rooted_at_center(self, claw):
        tables = build_dp_tables(quasi_threshold_forest(claw))
        assert min(tables.root_row) == 1
        assert min(tables.root_row) == brute_min_cobipartite(claw)[0]

    def test_rows_are_palindromes(self, claw):
        tables = build_dp_tables(quasi_threshold_forest(claw), keep_cells=True)
        for row in tables.cells.values():
            assert row == row[::-1]
        assert tables.root_row == tables.root_row[::-1]

    def test_absorbing_vertex_can_take_either_side(self):
        # root - middle - two leaves: G is the diamond; a split with one
        # singleton side is free only when the middle vertex avoids it
        forest = forest_from_parents([None, 0, 1, 1])
        tables = build_dp_tables(forest)
        assert tables.d[1] == (1, 0, 0, 1)

    def test_eval_counter_modest(self):
        forest = forest_from_parents([None] + list(range(31)))  # chain, K32
        tables = build_dp_tables(forest)
        assert tables.eval_count <= 3 * 32**3

    @pytest.mark.parametrize("n, count", [(300, 48930), (580, 179890)])
    def test_eval_count_is_the_pairs_tried(self, n, count):
        # the counter adds each merge's (j, k) pairs at once; these are the
        # counts of one increment per evaluation
        assert build_dp_tables(gen_quasi_threshold(n, n)[1]).eval_count == count


class TestBacktrack:
    def test_every_side_count_on_small_forests(self):
        # not only the argmin: every j of the root row backtracks to a split of its cost
        for n in range(1, 9):
            for forest in enumerate_rooted_forests(n):
                g = qt_forest_graph(forest)
                tables = build_dp_tables(forest)
                for j in range(n + 1):
                    s1, s2 = _backtrack(forest, tables, j)
                    assert len(s1) == j and not set(s1) & set(s2), (forest.parent, j)
                    assert set(s1) | set(s2) == set(range(n)), (forest.parent, j)
                    assert partition_cost(g, (s1, s2)) == tables.root_row[j], (forest.parent, j)


class TestCompletion:
    def test_k3_zero(self):
        k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert qt_cobipartite_completion(k3).cost == 0

    def test_claw(self, claw):
        res = qt_cobipartite_completion(claw)
        assert res.cost == 1
        assert res.lower_bound_for == "pig-completion"
        assert partition_cost(claw, (res.certificate.s1, res.certificate.s2)) == 1
        validate_completion(claw, res)

    def test_2k2_super_root(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        res = qt_cobipartite_completion(g)
        assert res.cost == 0
        assert sorted(map(len, (res.certificate.s1, res.certificate.s2))) == [2, 2]

    def test_three_isolated_vertices(self):
        g = build_graph(3, [])
        res = qt_cobipartite_completion(g)
        assert res.cost == 1  # a 2+1 split leaves one non-edge inside a part
        assert res.cost == brute_min_cobipartite(g)[0]

    @pytest.mark.parametrize(
        "n, edges, cost",
        [
            (3, [], 1),  # 3K1
            (6, [(0, 1), (2, 3), (4, 5)], 4),  # 3K2
            (8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)], 6),  # 2K1,3
        ],
    )
    def test_cost_above_pig_optimum_is_not_labeled(self, n, edges, cost):
        g = build_graph(n, edges)
        res = qt_cobipartite_completion(g)
        assert res.cost == cost > brute_min_pig(g)[0]
        assert res.lower_bound_for is None

    def test_label_is_a_pig_lower_bound(self):
        for n in range(1, 8):
            for forest in enumerate_rooted_forests(n):
                g = qt_forest_graph(forest)
                res = qt_cobipartite_completion(g, cost_only=True)
                if len(forest.roots) == 1:
                    assert res.lower_bound_for == "pig-completion", forest.parent
                if res.lower_bound_for:
                    assert res.cost <= brute_min_pig(g)[0], forest.parent

    def test_p4_rejected(self, p4):
        with pytest.raises(ClassMembershipError) as err:
            qt_cobipartite_completion(p4)
        assert err.value.witness[0] in ("P4", "C4")

    def test_c4_rejected(self, c4):
        with pytest.raises(ClassMembershipError) as err:
            qt_cobipartite_completion(c4)
        assert err.value.witness[0] == "C4"

    def test_supplied_forest_used(self, claw):
        # the DP takes a forest as it is; the completer runs it on the recognizer's
        tables = build_dp_tables(quasi_threshold_forest(claw))
        assert min(tables.root_row) == qt_cobipartite_completion(claw).cost == 1

    def test_cyclic_parents_rejected(self):
        with pytest.raises(GraphInputError):
            forest_from_parents([1, 0])

    def test_children_and_roots_ascend_and_postorder_puts_children_first(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.randrange(0, 40)
            order = rng.sample(range(n), n)  # parents come earlier in this order, not by id
            parents = [None] * n
            for i, v in enumerate(order):
                r = rng.randrange(i + 1)
                parents[v] = None if r == i else order[r]
            forest = forest_from_parents(parents)
            assert forest.roots == tuple(v for v in range(n) if parents[v] is None)
            assert forest.children == tuple(tuple(v for v in range(n) if parents[v] == p) for p in range(n))
            post = qt_forest_postorder(forest)
            assert sorted(post) == list(range(n))
            assert all(post.index(c) < post.index(v) for v in range(n) for c in forest.children[v])

    def test_exactness_small_forests(self):
        from pigfill import enumerate_rooted_forests, qt_forest_graph

        for n in range(1, 7):
            for forest in enumerate_rooted_forests(n):
                g = qt_forest_graph(forest)
                res = qt_cobipartite_completion(g)
                oracle_cost, _ = brute_min_cobipartite(g)
                assert res.cost == oracle_cost
                assert len(res.fill) == res.cost
                validate_completion(g, res)

    def test_certificate_matches_argmin(self, claw):
        tables = build_dp_tables(quasi_threshold_forest(claw))
        j_star = tables.root_row.index(min(tables.root_row))
        res = qt_cobipartite_completion(claw)
        assert len(res.certificate.s1) == j_star
