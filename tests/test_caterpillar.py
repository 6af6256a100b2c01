from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from pigfill import (
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

    @pytest.mark.parametrize(
        "make, count",
        [(lambda: gen_caterpillar(9500, 2, 3), 37619), (lambda: caterpillar_from_buckets([5, 0, 7, 3]), 56)],
    )
    def test_eval_count_is_the_pairs_tried(self, make, count):
        # the counter adds each row's pairs at once; these are the counts of
        # one increment per evaluation
        assert build_placement_tables(make()[1]).eval_count == count


class TestCompletion:
    def test_p5_free(self):
        g, _ = caterpillar_from_buckets([0, 0, 0, 0, 0])
        res = caterpillar_pig_completion(g)
        assert res.cost == 0 and res.fill == ()

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
        # the DP takes a decomposition as it is; the completer runs it on the recognizer's
        g, d = caterpillar_from_buckets([2, 0, 3])
        res = caterpillar_pig_completion(g)
        assert d == caterpillar_decomposition(g)
        assert placement_from_tables(d, build_placement_tables(d)) == res.certificate

    def test_caterpillar_at_100k_builds_no_rows(self):
        # the steps of `complete --algo auto` on a caterpillar, from the text
        text = serialize_graph(gen_caterpillar(33_000, 4, seed=5)[0])
        start = time.perf_counter()
        g = parse_graph(text)
        assert threshold_creation_sequence(g) is None
        assert caterpillar_decomposition(g) is not None
        result = caterpillar_pig_completion(g)
        elapsed = time.perf_counter() - start
        assert g.n > 95_000
        validate_completion(g, result)
        assert "masks" not in g.__dict__
        assert elapsed < 5.0, f"{elapsed:.1f} s"


class TestMaterialize:
    def test_p4_identity_placement(self, p4):
        d = caterpillar_decomposition(p4)
        placement = placement_from_tables(d, build_placement_tables(d))
        assert materialize_fill_edges(p4, placement) == ()

    def test_claw_split_one_two(self, claw):
        placement = PointPlacement(spine=(0,), points=((1, 0), (2, 1), (3, 1)))
        assert materialize_fill_edges(claw, placement) == ((2, 3),)

    def test_double_star_hand_placement(self):
        g, _ = caterpillar_from_buckets([2, 2])  # spine 0-1, leaves 2,3 and 4,5
        placement = PointPlacement(spine=(0, 1), points=((2, 0), (3, 0), (4, 1), (5, 2)))
        assert materialize_fill_edges(g, placement) == ((0, 4), (2, 3))

    def test_rejects_spine_vertex_as_leaf(self, p4):
        with pytest.raises(GraphInputError):
            materialize_fill_edges(p4, PointPlacement(spine=(1, 2), points=((1, 0),)))

    def test_rejects_leaf_placed_twice(self, claw):
        with pytest.raises(GraphInputError):
            materialize_fill_edges(claw, PointPlacement(spine=(0,), points=((1, 0), (1, 1), (2, 1), (3, 1))))

    def test_rejects_out_of_range_point(self, claw):
        with pytest.raises(GraphInputError):
            materialize_fill_edges(claw, PointPlacement(spine=(0,), points=((1, 5),)))

    @pytest.mark.parametrize(
        "points, message",
        [
            # the first bad entry in points order names the error
            (((0, 0), (3, 7), (1, 1)), "point 7 outside 0..2"),
            (((0, 0), (1, 1), (3, 7)), "vertex 1 is on the spine and cannot be a placed leaf"),
            (((0, -1), (2, 1)), "point -1 outside 0..2"),
            (((0, 2), (3, 3)), "point 3 outside 0..2"),
            # an entry that is both on the spine and out of range reports the spine
            (((0, 0), (1, 9)), "vertex 1 is on the spine and cannot be a placed leaf"),
            # a repeated leaf is reported only when every entry is otherwise valid
            (((0, 0), (0, 1), (3, 7)), "point 7 outside 0..2"),
            (((3, 0), (0, 0), (3, 2), (2, 0)), "vertex 2 is on the spine and cannot be a placed leaf"),
            (((3, 0), (0, 0), (3, 2)), "a leaf is placed more than once"),
        ],
    )
    def test_first_bad_entry_names_the_error(self, p4, points, message):
        # p4 is the path 0-1-2-3; spine (1, 2) leaves points 0..2
        with pytest.raises(GraphInputError) as info:
            materialize_fill_edges(p4, PointPlacement(spine=(1, 2), points=points))
        assert str(info.value) == message


def _reference_fill(g, p):
    """The point model's pairs, straight from its definition."""
    k = len(p.spine) - 1
    on_point = {}
    for leaf, t in p.points:
        on_point.setdefault(t, []).append(leaf)
    want = set()
    for t, group in on_point.items():
        want.update(tuple(sorted(pair)) for pair in combinations(group, 2))
        want.update(tuple(sorted((a, p.spine[i]))) for a in group for i in (t - 1, t) if 0 <= i <= k)
    return tuple(sorted(e for e in want if not g.has_edge(*e)))


class TestMaterializeMatchesDefinition:
    def test_random_graphs_and_placements(self):
        rng = random.Random(16)
        for _ in range(1500):
            n = rng.randrange(1, 13)
            g = build_graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < 0.3])
            vertices = list(range(n))
            rng.shuffle(vertices)
            cut = rng.randrange(1, n + 1)
            spine, rest = tuple(vertices[:cut]), vertices[cut:]
            leaves = rng.sample(rest, rng.randrange(len(rest) + 1))
            points = tuple((leaf, rng.randrange(len(spine) + 1)) for leaf in leaves)
            placement = PointPlacement(spine, points)
            assert materialize_fill_edges(g, placement) == _reference_fill(g, placement)

    def test_generated_caterpillars(self):
        for seed in range(40):
            g, d = gen_caterpillar(1 + seed, 3, seed)
            placement = placement_from_tables(d, build_placement_tables(d))
            assert materialize_fill_edges(g, placement) == _reference_fill(g, placement)


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
