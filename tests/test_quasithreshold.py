from __future__ import annotations

from dataclasses import replace

import pytest

from pigfill import (
    ClassMembershipError,
    GraphInputError,
    brute_min_cobipartite,
    build_dp_tables,
    build_graph,
    forest_from_parents,
    partition_cost,
    qt_cobipartite_completion,
    quasi_threshold_forest,
    validate_completion,
)


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

    def test_p4_rejected(self, p4):
        with pytest.raises(ClassMembershipError) as err:
            qt_cobipartite_completion(p4)
        assert err.value.witness[0] in ("P4", "C4")

    def test_c4_rejected(self, c4):
        with pytest.raises(ClassMembershipError) as err:
            qt_cobipartite_completion(c4)
        assert err.value.witness[0] == "C4"

    def test_supplied_forest_used(self, claw):
        forest = quasi_threshold_forest(claw)
        assert qt_cobipartite_completion(claw, forest) == qt_cobipartite_completion(claw)

    def test_supplied_forest_validated(self, claw, k4):
        with pytest.raises(GraphInputError):
            qt_cobipartite_completion(k4, quasi_threshold_forest(claw))

    def test_inconsistent_forest_caches_rejected(self, claw):
        forest = quasi_threshold_forest(claw)
        with pytest.raises(GraphInputError):
            qt_cobipartite_completion(claw, replace(forest, subtree_size=(1, 1, 1, 1)))

    def test_cyclic_parents_rejected(self):
        with pytest.raises(GraphInputError):
            forest_from_parents([1, 0])

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
