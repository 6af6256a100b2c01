"""Umbrella orders as completion certificates.

Each PIG completer returns an umbrella order of G + fill; ``verify`` accepts
an envelope's order in O(n + m) and falls back to the recognizer otherwise.
The orders are checked with the has_edge-only ``assert_umbrella_order``.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest

from pigfill import (
    apply_fill,
    build_graph,
    CompletionResult,
    build_placement_tables,
    caterpillar_from_buckets,
    caterpillar_pig_completion,
    enumerate_threshold,
    gen_caterpillar,
    gen_threshold,
    is_umbrella_order,
    load_graph,
    materialize_fill_edges,
    placement_from_tables,
    qt_cobipartite_completion,
    serialize_graph,
    threshold_pig_completion,
    validate_completion,
)
from pigfill import cli, recognition
from pigfill import graph as graph_module
from pigfill.caterpillar import _placement_order
from pigfill.cli import main
from pigfill.xcheck import _all_graphs, _compositions
from test_recognition import _relabelled, assert_umbrella_order


def _check(g, result):
    assert result.order is not None
    assert_umbrella_order(apply_fill(g, result.fill), result.order)
    validate_completion(g, result)


def _placement_result(g, d):
    """The caterpillar completion on the decomposition d, as the completer builds it on its own."""
    tables = build_placement_tables(d)
    placement = placement_from_tables(d, tables)
    fill = materialize_fill_edges(g, placement)
    return CompletionResult(fill, tables.answer, placement, "caterpillar", order=_placement_order(placement))


def _has_edge_umbrella(g, order):
    try:
        assert_umbrella_order(g, order)
    except AssertionError:
        return False
    return True


def _caterpillar_bucket_sequences(max_n=8):
    """The bucket sequences of xcheck's caterpillar suite, one per reversal pair."""
    for n in range(1, max_n + 1):
        for spine_len in range(1, n + 1):
            for sizes in _compositions(n - spine_len, spine_len):
                if sizes <= sizes[::-1]:
                    yield sizes


class TestCompleterOrders:
    def test_every_threshold_sequence_to_8(self):
        count = 0
        for n in range(1, 9):
            for g, _ in enumerate_threshold(n):
                _check(g, threshold_pig_completion(g))
                count += 1
        assert count == 255  # 2^(n-1) sequences per n

    def test_xcheck_caterpillar_bucket_sequences(self):
        count = 0
        for sizes in _caterpillar_bucket_sequences():
            g, d = caterpillar_from_buckets(sizes)
            _check(g, _placement_result(g, d))
            _check(g, caterpillar_pig_completion(g))
            count += 1
        assert count == 150  # the caterpillar row count of xcheck

    def test_generated_threshold_graphs(self):
        for seed in range(200):
            g, _ = gen_threshold(2 + seed % 60, 0.2 + (seed % 7) / 10, seed)
            _check(g, threshold_pig_completion(g))
            h = _relabelled(g, seed)
            _check(h, threshold_pig_completion(h))

    def test_generated_caterpillars(self):
        for seed in range(200):
            g, d = gen_caterpillar(1 + seed % 40, 1 + seed % 4, seed)
            _check(g, _placement_result(g, d))
            _check(g, caterpillar_pig_completion(g))
            h = _relabelled(g, seed)
            _check(h, caterpillar_pig_completion(h))

    def test_cost_only_and_qt_carry_no_order(self, claw):
        assert threshold_pig_completion(claw, cost_only=True).order is None
        assert caterpillar_pig_completion(claw, cost_only=True).order is None
        # the co-bipartite target is not proper interval
        assert qt_cobipartite_completion(claw).order is None

    def test_threshold_order_layout(self, star5):
        # s1 = (0, 3, 4) by ascending s2-neighbour count: 3 and 4 have none, 0 has two;
        # s2 = (1, 2), both with one s1-neighbour, by id
        assert threshold_pig_completion(star5).order == (3, 4, 0, 1, 2)

    def test_caterpillar_order_layout(self):
        g, d = caterpillar_from_buckets([2, 2])  # spine 0-1, leaves 2, 3 and 4, 5
        res = _placement_result(g, d)
        points = dict(res.certificate.points)
        # the leaves on point t, in ascending id, then spine[t]
        expected = []
        for t in range(3):
            expected += sorted(leaf for leaf, p in points.items() if p == t)
            expected += [d.spine[t]] if t < 2 else []
        assert res.order == tuple(expected)


def _placement_with_sort(d, tables):
    """The earlier backtrack: a choice dict keyed by (i, j) and a sort by leaf."""
    choice = {(i, j): jp for i, row in enumerate(tables.choice) for j, jp in enumerate(row)}
    left_counts = [tables.best_j0]
    for i in range(len(d.spine) - 1):
        left_counts.append(choice[(i, left_counts[-1])])
    points = []
    for i, bucket in enumerate(d.buckets):
        j = left_counts[i]
        points.extend((leaf, i) for leaf in bucket[:j])
        points.extend((leaf, i + 1) for leaf in bucket[j:])
    return tuple(sorted(points))


class TestLeafIndexedPlacement:
    def test_matches_the_sorted_backtrack(self):
        cases = [caterpillar_from_buckets(s)[1] for s in _caterpillar_bucket_sequences()]
        cases += [gen_caterpillar(1 + seed % 30, 3, seed)[1] for seed in range(100)]
        for d in cases:
            tables = build_placement_tables(d)
            assert placement_from_tables(d, tables).points == _placement_with_sort(d, tables)


class TestIsUmbrellaOrder:
    def test_matches_has_edge_checker_on_every_order_to_4(self):
        for n in range(5):
            for g in _all_graphs(n):
                for order in permutations(range(n)):
                    assert is_umbrella_order(g, order) == _has_edge_umbrella(g, order), (g, order)

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4), (), (3, 2, 1, 0, 4)])
    def test_non_permutations_are_not_umbrella_orders(self, k4, order):
        assert not is_umbrella_order(k4, order)

    def test_reach_count_matches_the_filled_graph_on_every_split_to_4(self):
        # each pair of K_n is absent, an edge of G or a fill pair: 3^(n choose 2) splits
        for n in range(5):
            pairs = list(combinations(range(n), 2))
            orders = list(permutations(range(n)))
            for split in product(range(3), repeat=len(pairs)):
                g = build_graph(n, [p for p, s in zip(pairs, split) if s == 1])
                fill = [p for p, s in zip(pairs, split) if s == 2]
                h = apply_fill(g, fill)
                for order in orders:
                    assert is_umbrella_order(g, order, fill) == _has_edge_umbrella(h, order), (g, fill, order)

    def test_reach_count_matches_the_filled_graph_seeded_5_to_9(self):
        rng = random.Random(15)
        for trial in range(600):
            n = 5 + trial % 5
            pairs = list(combinations(range(n), 2))
            split = [rng.choice((0, 1, 1, 2)) for _ in pairs]
            g = build_graph(n, [p for p, s in zip(pairs, split) if s == 1])
            fill = [p for p, s in zip(pairs, split) if s == 2]
            rng.shuffle(fill)  # the order of the fill pairs does not matter
            h = apply_fill(g, fill)
            orders = [tuple(rng.sample(range(n), n)) for _ in range(3)]
            verdict = recognition.is_proper_interval(h)
            if verdict.is_pig:
                # the recognizer's umbrella order, and the same with two neighbours swapped
                i = rng.randrange(n - 1)
                swapped = list(verdict.order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                orders += [verdict.order, tuple(swapped)]
            for order in orders:
                expected = _has_edge_umbrella(h, order)
                assert is_umbrella_order(h, order) == expected
                assert is_umbrella_order(g, order, fill) == expected, (g, fill, order)

    def test_validate_completion_rejects_a_bad_order(self, star5):
        res = threshold_pig_completion(star5)
        validate_completion(star5, res)
        for bad in [(1, 3, 4, 0, 2), res.order[:-1], (0, 0, 1, 2, 3)]:
            with pytest.raises(ValueError, match="umbrella"):
                validate_completion(star5, replace(res, order=bad))


# ---------------------------------------------------------------------------
# the CLI


def _complete(capsys, path, *extra):
    assert main(["complete", path, "--json", *extra]) == 0
    return json.loads(capsys.readouterr().out)


def _write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


@pytest.fixture
def envelopes(tmp_path, capsys):
    """(graph path, envelope path, envelope) for a threshold, a caterpillar and an oracle completion."""
    out = []
    cases = [
        ("threshold", gen_threshold(60, 0.5, 4)[0]),
        ("caterpillar", gen_caterpillar(300, 2, 4)[0]),
        ("c5", build_graph(5, [(i, (i + 1) % 5) for i in range(5)])),  # the oracle fills it
    ]
    for name, g in cases:
        path = _write(tmp_path, f"{name}.txt", g)
        env = _complete(capsys, path)
        assert "umbrella_order" in env, name
        env_path = tmp_path / f"{name}.json"
        env_path.write_text(json.dumps(env))
        out.append((path, env_path, env))
    return out


def _refuse_lbfs(masks, n):
    raise RuntimeError("LexBFS ran although the envelope carries an umbrella order")


class TestCompleteEmitsOrder:
    def test_oracle_orders_to_6(self, capsys, tmp_path):
        # every graph with n <= 4, and 60 random ones each with n = 5 and 6
        rng = random.Random(6)
        graphs = [g for n in range(1, 5) for g in _all_graphs(n)]
        for n in (5, 6):
            pairs = list(combinations(range(n), 2))
            graphs += [build_graph(n, [p for p in pairs if rng.random() < 0.5]) for _ in range(60)]
        for i, g in enumerate(graphs):
            env = _complete(capsys, _write(tmp_path, f"g{i}.txt", g), "--algo", "oracle")
            assert env["algorithm"] == "oracle"
            assert_umbrella_order(apply_fill(g, [tuple(e) for e in env["fill_edges"]]), env["umbrella_order"])

    def test_no_order_under_cost_only_or_for_qt(self, capsys, tmp_path):
        claw = _write(tmp_path, "claw.txt", build_graph(4, [(0, 1), (0, 2), (0, 3)]))
        for algo in ("threshold", "caterpillar", "oracle"):
            assert "umbrella_order" in _complete(capsys, claw, "--algo", algo)
            assert "umbrella_order" not in _complete(capsys, claw, "--algo", algo, "--cost-only")
        assert "umbrella_order" not in _complete(capsys, claw, "--algo", "qt-cobipartite")

    def test_key_comes_last(self, capsys, envelopes):
        for _, _, env in envelopes:
            assert list(env)[-1] == "umbrella_order"


class TestVerifyWithOrder:
    def test_accepts_without_lexbfs(self, capsys, monkeypatch, envelopes):
        monkeypatch.setattr(recognition, "_lbfs", _refuse_lbfs)
        for graph, env_path, _ in envelopes:
            assert main(["verify", graph, "--fill", str(env_path)]) == 0
            assert capsys.readouterr().out.strip() == "accepted"

    def test_plain_fill_still_runs_the_recognizer(self, capsys, monkeypatch, envelopes, tmp_path):
        graph, _, env = envelopes[0]
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(env["fill_edges"]))
        monkeypatch.setattr(recognition, "_lbfs", _refuse_lbfs)
        with pytest.raises(RuntimeError, match="LexBFS ran"):
            main(["verify", graph, "--fill", str(plain)])

    def test_wrong_permutation_falls_back_and_accepts(self, capsys, envelopes, tmp_path):
        for graph, _, env in envelopes:
            order = env["umbrella_order"]
            # the two ends swapped, which the test below shows is no umbrella order
            wrong = dict(env, umbrella_order=[order[-1], *order[1:-1], order[0]])
            h = apply_fill(load_graph(graph), [tuple(e) for e in env["fill_edges"]])
            assert not is_umbrella_order(h, wrong["umbrella_order"])
            path = tmp_path / "wrong.json"
            path.write_text(json.dumps(wrong))
            assert main(["verify", graph, "--fill", str(path)]) == 0
            assert capsys.readouterr().out.strip() == "accepted"

    def test_order_cannot_cause_an_accept(self, capsys, tmp_path):
        # C5 with an empty fill is not proper interval; its cycle order is a
        # valid permutation, and the rejection keeps its witness
        c5 = _write(tmp_path, "c5.txt", build_graph(5, [(i, (i + 1) % 5) for i in range(5)]))
        fill = tmp_path / "fill.json"
        fill.write_text(json.dumps({"fill_edges": [], "umbrella_order": [0, 1, 2, 3, 4]}))
        code = main(["verify", c5, "--fill", str(fill), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and not out["accepted"]
        assert out["problems"] == ["augmented graph is not proper interval (chordless-cycle)"]
        assert sorted(out["witness"]) == [0, 1, 2, 3, 4]

    def test_order_does_not_skip_the_fill_checks(self, capsys, tmp_path):
        claw = _write(tmp_path, "claw.txt", build_graph(4, [(0, 1), (0, 2), (0, 3)]))
        fill = tmp_path / "fill.json"
        fill.write_text(json.dumps({"fill_edges": [[1, 2], [0, 1]], "umbrella_order": [3, 0, 1, 2]}))
        assert main(["verify", claw, "--fill", str(fill)]) == 1
        assert "already an edge" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "order",
        [
            [0, 1, 1, 3],  # a repeat, so not a permutation
            [0, 1, 2, 4],  # out of range
            [0, 1, 2],  # wrong length
            [0, 1, 2, 3, 4],
            [0, 1.0, 2, 3],  # not ints
            [0, True, 2, 3],
            ["0", "1", "2", "3"],
            None,
            "0123",
        ],
        ids=["repeat", "out-of-range", "short", "long", "float", "bool", "strings", "null", "string"],
    )
    def test_malformed_order_exit_2(self, capsys, tmp_path, order):
        claw = _write(tmp_path, "claw.txt", build_graph(4, [(0, 1), (0, 2), (0, 3)]))
        fill = tmp_path / "fill.json"
        fill.write_text(json.dumps({"fill_edges": [[1, 2]], "umbrella_order": order}))
        assert main(["verify", claw, "--fill", str(fill)]) == 2
        assert "umbrella_order" in capsys.readouterr().err


def _refuse_apply_fill(*args):
    raise RuntimeError("apply_fill ran on an accept path")


class TestReachCountAcceptPaths:
    """The accept paths decide by the reach count and never build G + F."""

    @pytest.fixture
    def no_apply_fill(self, monkeypatch):
        monkeypatch.setattr(graph_module, "apply_fill", _refuse_apply_fill)
        monkeypatch.setattr(cli, "apply_fill", _refuse_apply_fill)

    def test_verify_accepts_envelopes_without_apply_fill(self, capsys, envelopes, no_apply_fill):
        for graph, env_path, env in envelopes:
            assert main(["verify", graph, "--fill", str(env_path)]) == 0, env["algorithm"]
            assert capsys.readouterr().out.strip() == "accepted"
        assert [env["algorithm"] for _, _, env in envelopes] == ["threshold", "caterpillar", "oracle"]

    def test_validate_completion_without_apply_fill(self, no_apply_fill):
        for seed in range(20):
            g, _ = gen_threshold(10 + seed, 0.5, seed)
            validate_completion(g, threshold_pig_completion(g))
            g, _ = gen_caterpillar(5 + seed, 2, seed)
            validate_completion(g, caterpillar_pig_completion(g))

    @pytest.mark.parametrize(
        "edges, fill",
        [
            ([(i, (i + 1) % 5) for i in range(5)], []),  # C5: a chordless cycle
            ([(0, 1), (0, 2), (0, 3)], []),  # a claw
            ([(0, 1), (0, 2), (0, 3), (0, 4)], [[1, 2]]),  # K1,4 keeps a claw after the fill
            ([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)], []),  # a net
        ],
        ids=["c5", "claw", "filled-claw", "net"],
    )
    def test_rejections_reach_the_recognizer_with_the_same_witness(self, capsys, monkeypatch, tmp_path, edges, fill):
        g = build_graph(max(max(e) for e in edges) + 1, edges)
        path = _write(tmp_path, "g.txt", g)
        expected = recognition.is_proper_interval(apply_fill(g, [tuple(p) for p in fill]))
        assert not expected.is_pig
        calls = []
        real = cli.is_proper_interval
        monkeypatch.setattr(cli, "is_proper_interval", lambda h: calls.append(h) or real(h))
        outs = []
        for content in (fill, {"fill_edges": fill, "umbrella_order": list(range(g.n))}):
            fill_path = tmp_path / "fill.json"
            fill_path.write_text(json.dumps(content))
            assert main(["verify", path, "--fill", str(fill_path), "--json"]) == 1
            outs.append(capsys.readouterr().out)
        assert len(calls) == 2 and outs[0] == outs[1]
        out = json.loads(outs[0])
        assert out["problems"] == [f"augmented graph is not proper interval ({expected.witness_kind})"]
        assert out["witness"] == list(expected.witness)

    @pytest.mark.parametrize(
        "fill, problem",
        [
            ([[1, 2], [2, 1]], "(1, 2) is listed 2 times"),
            ([[1, 2], [0, 1]], "(0, 1) is already an edge"),
        ],
    )
    def test_fill_problems_keep_their_text_with_an_order(self, capsys, monkeypatch, tmp_path, fill, problem):
        path = _write(tmp_path, "claw.txt", build_graph(4, [(0, 1), (0, 2), (0, 3)]))

        def refuse(*args):
            raise RuntimeError("the umbrella test ran on a fill with problems")

        monkeypatch.setattr(cli, "is_umbrella_order", refuse)
        fill_path = tmp_path / "fill.json"
        fill_path.write_text(json.dumps({"fill_edges": fill, "umbrella_order": [3, 0, 1, 2]}))
        code = main(["verify", path, "--fill", str(fill_path), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["problems"] == [problem] and out["witness"] is None
