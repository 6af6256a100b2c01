from __future__ import annotations

import time

import pytest

from pigfill import (
    CaterpillarDecomposition,
    ClassMembershipError,
    GraphInputError,
    PointPlacement,
    apply_fill,
    brute_min_pig,
    build_graph,
    build_placement_tables,
    caterpillar_decomposition,
    caterpillar_from_buckets,
    caterpillar_pig_completion,
    is_proper_interval,
    materialize_fill_edges,
    parse_graph,
    placement_from_tables,
    serialize_graph,
    threshold_creation_sequence,
    threshold_pig_completion,
    validate_completion,
)
from pigfill.generators import gen_caterpillar


class TestPlacementTables:
    def test_bare_path_all_zero(self):
        g, d = caterpillar_from_buckets([0, 0, 0, 0])
        tables = build_placement_tables(d)
        assert tables.answer == 0
        assert all(v == 0 for row in tables.rows for v in row)

    def test_star_base_row(self, claw):
        d = caterpillar_decomposition(claw)
        tables = build_placement_tables(d)
        assert tables.rows[0] == (3, 1, 0, 0)  # C(3-j, 2)
        assert tables.answer == 1
        assert tables.answer == brute_min_pig(claw)[0]

    def test_double_star(self):
        g, d = caterpillar_from_buckets([2, 2])
        tables = build_placement_tables(d)
        assert tables.answer == 2
        assert tables.answer == brute_min_pig(g)[0]


class TestCompletion:
    def test_p5_free(self):
        g, _ = caterpillar_from_buckets([0, 0, 0, 0, 0])
        res = caterpillar_pig_completion(g)
        assert res.cost == 0 and res.fill == frozenset()

    def test_star5_matches_threshold(self, star5):
        res = caterpillar_pig_completion(star5)
        assert res.cost == 2
        assert res.cost == threshold_pig_completion(star5).cost
        assert res.cost == brute_min_pig(star5)[0]

    def test_stars_agree_with_threshold_module(self):
        for t in range(1, 9):
            g = build_graph(t + 1, [(0, i) for i in range(1, t + 1)])
            assert caterpillar_pig_completion(g).cost == threshold_pig_completion(g).cost

    def test_double_star_fill(self):
        g, _ = caterpillar_from_buckets([2, 2])
        res = caterpillar_pig_completion(g)
        assert res.cost == 2
        assert len(res.fill) == 2
        assert is_proper_interval(apply_fill(g, res.fill)).is_pig
        validate_completion(g, res)

    def test_completed_graph_always_pig(self):
        for sizes in ([3], [1, 2], [2, 0, 2], [0, 3, 1], [1, 1, 1, 1]):
            g, _ = caterpillar_from_buckets(sizes)
            res = caterpillar_pig_completion(g)
            assert is_proper_interval(apply_fill(g, res.fill)).is_pig
            assert len(res.fill) == res.cost

    def test_non_caterpillar_rejected(self, c4):
        with pytest.raises(ClassMembershipError):
            caterpillar_pig_completion(c4)

    def test_supplied_decomposition_used(self):
        g, d = caterpillar_from_buckets([2, 0, 3])
        assert caterpillar_pig_completion(g, d) == caterpillar_pig_completion(g)

    def test_supplied_decomposition_validated(self, p4):
        _, other = caterpillar_from_buckets([1, 1])  # the path 2-0-1-3
        with pytest.raises(GraphInputError):
            caterpillar_pig_completion(p4, other)

    def test_malformed_decomposition_rejected(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(GraphInputError):
            caterpillar_pig_completion(g, CaterpillarDecomposition((0, 1, 0), ((), (), ())))

    def test_caterpillar_at_100k_builds_no_rows(self):
        # the steps of `complete --algo auto` on a caterpillar, from the text
        text = serialize_graph(gen_caterpillar(33_000, 4, seed=5)[0])
        start = time.perf_counter()
        g = parse_graph(text)
        assert threshold_creation_sequence(g) is None
        result = caterpillar_pig_completion(g, caterpillar_decomposition(g))
        elapsed = time.perf_counter() - start
        assert g.n > 95_000
        validate_completion(g, result)
        assert "masks" not in g.__dict__
        assert elapsed < 5.0, f"{elapsed:.1f} s"


class TestMaterialize:
    def test_p4_identity_placement(self, p4):
        d = caterpillar_decomposition(p4)
        placement = placement_from_tables(d, build_placement_tables(d))
        assert materialize_fill_edges(p4, placement) == frozenset()

    def test_claw_split_one_two(self, claw):
        placement = PointPlacement(spine=(0,), points=((1, 0), (2, 1), (3, 1)))
        assert materialize_fill_edges(claw, placement) == {(2, 3)}

    def test_double_star_hand_placement(self):
        g, _ = caterpillar_from_buckets([2, 2])  # spine 0-1, leaves 2,3 and 4,5
        placement = PointPlacement(spine=(0, 1), points=((2, 0), (3, 0), (4, 1), (5, 2)))
        assert materialize_fill_edges(g, placement) == {(2, 3), (0, 4)}

    def test_rejects_spine_vertex_as_leaf(self, p4):
        with pytest.raises(GraphInputError):
            materialize_fill_edges(p4, PointPlacement(spine=(1, 2), points=((1, 0),)))

    def test_rejects_out_of_range_point(self, claw):
        with pytest.raises(GraphInputError):
            materialize_fill_edges(claw, PointPlacement(spine=(0,), points=((1, 5),)))


class TestReversal:
    def test_reversed_decomposition_same_cost(self):
        for sizes in ([3, 0], [2, 1, 0], [1, 0, 2], [4, 1, 1]):
            _, d = caterpillar_from_buckets(sizes)
            assert build_placement_tables(d).answer == build_placement_tables(d.reversed()).answer


class TestExactnessSmall:
    def test_all_caterpillars_up_to_seven(self):
        from pigfill.xcheck import xcheck_caterpillar

        rows = xcheck_caterpillar(max_n=7)
        assert all(row.ok for row in rows), [row.line() for row in rows]
