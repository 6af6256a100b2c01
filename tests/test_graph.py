from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pigfill import (
    GraphInputError,
    apply_fill,
    build_graph,
    complement,
    connected_components,
    graph_from_masks,
    induced_subgraph,
    iter_non_edges,
    non_edges_within,
    parse_graph,
    serialize_graph,
)
from pigfill.graphio import MAX_VERTICES


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
    return build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


# Fuzz input for the parsers.  Numbers come only from the integer strategies and junk
# holds no decimal digit (``int`` also reads non-ASCII digits), so no text can
# announce more than 50 vertices.
_small_ints = st.integers(min_value=-3, max_value=50).map(str)
_junk = st.text(st.characters(blacklist_categories=("Nd",)), min_size=1, max_size=4)
_tokens = st.one_of(
    _small_ints,
    st.sampled_from(["p", "e", "c", "#", "edge", "1.5", "+2", "0x1", "-", "p\tedge"]),
    _junk,
)


@st.composite
def _graph_texts(draw):
    """Text near the edge-list and DIMACS formats: valid lines mixed with junk."""
    n = draw(st.integers(min_value=0, max_value=50))
    dimacs = draw(st.booleans())
    vertex = st.integers(min_value=-1, max_value=n + 1)
    line = st.one_of(
        st.lists(_tokens, max_size=5).map(" ".join),
        st.tuples(vertex, vertex).map(lambda e: f"e {e[0] + 1} {e[1] + 1}" if dimacs else f"{e[0]} {e[1]}"),
        _junk.map(lambda s: "# " + s),
    )
    lines = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        # a well-formed header keeps many inputs parseable
        lines.insert(0, f"p edge {n} {len(lines)}" if dimacs else str(n))
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\t"]))
    return sep.join(lines)


class TestBuildGraph:
    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.m == 2
        assert g.neighbors == ((1,), (0, 2), (1,))

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert (g.n, g.m) == (1, 0)

    def test_duplicates_collapse(self):
        g = build_graph(4, [(0, 1), (1, 0)])
        assert g.m == 1
        assert g.edges() == [(0, 1)]

    def test_out_of_range(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])
        with pytest.raises(GraphInputError):
            build_graph(3, [(-1, 0)])

    def test_self_loop(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(1, 1)])

    def test_masks_match_neighbors(self):
        g = build_graph(5, [(0, 4), (1, 3)])
        assert g.masks[0] == 1 << 4
        assert g.has_edge(3, 1) and not g.has_edge(0, 1)


class TestComplement:
    def test_triangle(self):
        k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert complement(k3).m == 0

    def test_claw(self, claw):
        # direct enumeration of the six pairs: the three leaf pairs remain
        assert sorted(complement(claw).edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_empty_pair(self):
        assert complement(build_graph(2, [])).edges() == [(0, 1)]

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_path_endpoints(self):
        sub, idx = induced_subgraph(build_graph(3, [(0, 1), (1, 2)]), {0, 2})
        assert (sub.n, sub.m) == (2, 0)
        assert idx == (0, 2)

    def test_k4_triple(self, k4):
        sub, _ = induced_subgraph(k4, {1, 2, 3})
        assert (sub.n, sub.m) == (3, 3)

    def test_claw_edge(self, claw):
        sub, idx = induced_subgraph(claw, {0, 2})
        assert sub.edges() == [(0, 1)]
        assert idx == (0, 2)

    def test_rejects_foreign_vertices(self, claw):
        with pytest.raises(GraphInputError):
            induced_subgraph(claw, {0, 9})


class TestConnectedComponents:
    def test_two_k2(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [(0, 1), (2, 3)]

    def test_k1_plus_path(self):
        g = build_graph(4, [(1, 2), (2, 3)])
        assert sorted(len(c) for c in connected_components(g)) == [1, 3]

    def test_connected(self, p4):
        assert connected_components(p4) == [(0, 1, 2, 3)]


class TestNonEdgesWithin:
    def test_claw_leaves(self, claw):
        assert non_edges_within(claw, {1, 2, 3}) == {(1, 2), (1, 3), (2, 3)}

    def test_complete(self, k4):
        assert non_edges_within(k4, range(4)) == frozenset()

    def test_path(self):
        assert non_edges_within(build_graph(3, [(0, 1), (1, 2)]), {0, 1, 2}) == {(0, 2)}


class TestPairPartitionIdentity:
    @given(graphs(), st.integers(min_value=0, max_value=(1 << 8) - 1))
    def test_edges_cut_within_sum_to_all_pairs(self, g, side_bits):
        a = [v for v in range(g.n) if side_bits >> v & 1]
        b = [v for v in range(g.n) if not side_bits >> v & 1]
        cut_non_edges = sum(
            1 for u in a for v in b if not g.has_edge(u, v)
        )
        within = len(non_edges_within(g, a)) + len(non_edges_within(g, b))
        assert g.m + cut_non_edges + within == g.n * (g.n - 1) // 2


class TestMasksAndFill:
    def test_from_masks_rejects_asymmetry(self):
        with pytest.raises(GraphInputError):
            graph_from_masks([0b010, 0b000, 0b000])
        with pytest.raises(GraphInputError):
            graph_from_masks([0b110, 0b001, 0b000])

    def test_rows_built_on_first_read(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert "masks" not in g.__dict__
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert "masks" not in g.__dict__
        assert g.masks == (0b0010, 0b0001, 0b1000, 0b0100)
        assert "masks" in g.__dict__

    def test_from_masks_caches_given_rows(self):
        rows = [0b110, 0b001, 0b001]
        g = graph_from_masks(rows)
        assert g.__dict__["masks"] == tuple(rows)
        assert g.neighbors == ((1, 2), (0,), (0,))

    @given(graphs())
    def test_equality_and_hash_ignore_built_rows(self, g):
        lazy = build_graph(g.n, g.edges())
        built = build_graph(g.n, g.edges())
        built.masks
        from_rows = graph_from_masks(list(built.masks))
        assert "masks" not in lazy.__dict__
        assert lazy == built == from_rows
        assert hash(lazy) == hash(built) == hash(from_rows)
        assert len({lazy, built, from_rows}) == 1

    @given(graphs())
    def test_has_edge_matches_rows(self, g):
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == bool(g.masks[u] >> v & 1)

    def test_apply_fill(self, p4):
        h = apply_fill(p4, [(0, 3)])
        assert h.has_edge(0, 3) and h.m == p4.m + 1

    def test_non_edges_lexicographic(self, claw):
        assert list(iter_non_edges(claw)) == [(1, 2), (1, 3), (2, 3)]


class TestSerialization:
    def test_round_trip_example(self, claw):
        assert parse_graph(serialize_graph(claw)) == claw

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_comments_and_blanks(self):
        g = parse_graph("# a comment\n\n3\n# another\n0 1\n")
        assert g.edges() == [(0, 1)]

    def test_dimacs_autodetect(self):
        g = parse_graph("c header\np edge 4 2\ne 1 2\ne 3 4\n")
        assert g.n == 4 and g.edges() == [(0, 1), (2, 3)]

    @pytest.mark.parametrize(
        "text",
        [
            "p edge 4 two\ne 1 2\ne 3 4\n",  # non-integer edge count
            "p edge 4 3\ne 1 2\ne 3 4\n",  # announces more edges than given
            "p edge 4 1\ne 1 2\ne 3 4\n",  # announces fewer
            "p edge 4\ne 1 2\n",  # no edge count
            "p edge 2 1\ne 1 2\np edge 5 1\n",  # a second problem line
        ],
    )
    def test_dimacs_edge_count_checked(self, text):
        with pytest.raises(GraphInputError):
            parse_graph(text)

    def test_parse_errors(self):
        with pytest.raises(GraphInputError):
            parse_graph("")
        with pytest.raises(GraphInputError):
            parse_graph("not-a-number\n")
        with pytest.raises(GraphInputError):
            parse_graph("3\n0 1 2\n")
        with pytest.raises(GraphInputError):
            parse_graph("p edge x\n")

    @pytest.mark.parametrize(
        "text",
        [
            "1000000000000\n",
            "p edge 1000000000000 0\n",
            f"{MAX_VERTICES + 1}\n0 1\n",
            f"p edge {MAX_VERTICES + 1} 1\ne 1 2\n",
        ],
    )
    def test_oversized_vertex_count_refused(self, text):
        with pytest.raises(GraphInputError, match="exceeds the limit"):
            parse_graph(text)

    @settings(max_examples=300)
    @given(_graph_texts())
    def test_any_text_parses_round_trip_or_raises(self, text):
        try:
            g = parse_graph(text)
        except GraphInputError:
            return
        assert g.n <= 50
        assert parse_graph(serialize_graph(g)) == g

    def test_save_load_round_trip(self, tmp_path, claw):
        from pigfill import load_graph, save_graph

        path = tmp_path / "g.txt"
        save_graph(claw, str(path))
        assert load_graph(str(path)) == claw
