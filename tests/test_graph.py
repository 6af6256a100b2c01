from __future__ import annotations

import hashlib
import random
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pigfill import (
    Graph,
    GraphInputError,
    apply_fill,
    build_graph,
    complement,
    connected_components,
    induced_subgraph,
    non_edges_within,
    parse_graph,
    serialize_graph,
)
from pigfill import graph as graph_module, graphio
from pigfill.cli import _digest
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
        assert non_edges_within(claw, {1, 2, 3}) == ((1, 2), (1, 3), (2, 3))

    def test_complete(self, k4):
        assert non_edges_within(k4, range(4)) == ()

    def test_path(self):
        assert non_edges_within(build_graph(3, [(0, 1), (1, 2)]), {0, 1, 2}) == ((0, 2),)

    def test_whole_vertex_set_is_the_lexicographic_non_edge_list(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.randrange(0, 25)
            g = build_graph(n, [p for p in combinations(range(n), 2) if rng.random() < rng.random()])
            plain = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.masks[u] >> v & 1]
            assert non_edges_within(g, range(n)) == tuple(plain)


class TestCliquePairFill:
    """non_edges_within of two sides against the sorted merge of their
    non-edges; sides that share a vertex are refused."""

    @staticmethod
    def _merged(g, s1, s2):
        return tuple(sorted(p for s in (s1, s2) for p in combinations(sorted(set(s)), 2) if not g.has_edge(*p)))

    def test_random_sides(self):
        rng = random.Random(16)
        disjoint = overlapping = 0
        for _ in range(1500):
            n = rng.randrange(0, 31)
            g = build_graph(n, [p for p in combinations(range(n), 2) if rng.random() < rng.random()])
            s1 = [v for v in range(n) if rng.random() < 0.5]
            if rng.random() < 0.5:
                s2 = [v for v in range(n) if v not in s1 and rng.random() < 0.8]
            else:
                shared = rng.sample(s1, min(len(s1), 1))
                s2 = shared + [v for v in range(n) if v not in s1 and rng.random() < 0.5]
            rng.shuffle(s1)
            if set(s1) & set(s2):
                overlapping += 1
                for a, b in ((s1, s2), (s2, s1)):
                    with pytest.raises(GraphInputError, match="on both sides"):
                        non_edges_within(g, a, b)
            else:
                disjoint += 1
                assert non_edges_within(g, s1, s2) == self._merged(g, s1, s2)
                assert non_edges_within(g, s2, s1) == self._merged(g, s1, s2)
        assert disjoint > 500 and overlapping > 400

    def test_repeated_side_entries_collapse(self, claw):
        assert non_edges_within(claw, [3, 1, 3], [0, 0]) == ((1, 3),)

    @pytest.mark.parametrize("s1, s2", [([0, 4], [1]), ([0], [1, -1]), ([9], [])])
    def test_out_of_range_vertex(self, claw, s1, s2):
        with pytest.raises(GraphInputError):
            non_edges_within(claw, s1, s2)


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
    def test_rows_built_on_first_read(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert "masks" not in g.__dict__
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert "masks" not in g.__dict__
        assert g.masks == (0b0010, 0b0001, 0b1000, 0b0100)
        assert "masks" in g.__dict__

    @given(graphs())
    def test_equality_and_hash_ignore_built_rows(self, g):
        lazy = build_graph(g.n, g.edges())
        built = build_graph(g.n, g.edges())
        built.masks
        assert "masks" not in lazy.__dict__
        assert lazy == built
        assert hash(lazy) == hash(built)
        assert len({lazy, built}) == 1

    @given(graphs())
    def test_has_edge_matches_rows(self, g):
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == bool(g.masks[u] >> v & 1)

    def test_apply_fill(self, p4):
        h = apply_fill(p4, [(0, 3)])
        assert h.has_edge(0, 3) and h.m == p4.m + 1

    def test_non_edges_lexicographic(self, claw):
        assert non_edges_within(claw, range(4)) == ((1, 2), (1, 3), (2, 3))


def _apply_fill_on_masks(g, fill):
    """Reference: OR each pair into the bitmask rows."""
    masks = list(g.masks)
    for u, v in fill:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return build_graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if masks[u] >> v & 1])


class TestApplyFill:
    def test_matches_mask_reference(self):
        rng = random.Random(6_2026)
        for trial in range(300):
            n = rng.randint(1, 40)
            pairs = list(combinations(range(n), 2))
            g = build_graph(n, [p for p in pairs if rng.random() < rng.random()])
            fill = [p for p in pairs if rng.random() < 0.2]  # also picks edges of g
            fill += rng.choices(fill, k=len(fill) // 2) if fill else []  # repeats
            fill = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in fill]
            rng.shuffle(fill)
            h = apply_fill(g, fill)
            assert "masks" not in h.__dict__
            assert h == _apply_fill_on_masks(g, fill), (n, trial)
            assert "masks" not in h.__dict__

    def test_untouched_rows_are_shared(self, p4):
        h = apply_fill(p4, [(0, 2)])
        assert h.neighbors == ((1, 2), (0, 2), (0, 1, 3), (2,))
        assert h.neighbors[3] is p4.neighbors[3]

    @pytest.mark.parametrize("pair", [(0, 4), (4, 0), (-1, 2), (2, 2)])
    def test_bad_pairs_raise(self, p4, pair):
        with pytest.raises(GraphInputError, match="bad fill edge"):
            apply_fill(p4, [(0, 2), pair])


def _edge_list_text(g: Graph) -> str:
    return f"{g.n}\n" + "".join("%d %d\n" % e for e in g.edges())


def _complete_graph(n: int) -> Graph:
    return Graph(n, tuple(tuple(w for w in range(n) if w != v) for v in range(n)))


def _random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


class TestText:
    """``Graph.text`` is formatted in chunks of pairs; it must equal one line per edge, ascending."""

    @pytest.mark.parametrize(
        "g",
        [
            Graph(0, ()),
            build_graph(5, []),
            build_graph(6, [(1, 4), (4, 5)]),
            _complete_graph(200),  # 19 900 edges: more than one chunk
            _random_graph(300, 0.9, 1),
            *(_random_graph(n, 0.3, n) for n in (1, 2, 17, 120)),
        ],
        ids=["n0", "edgeless", "isolated", "K200", "dense300", "random1", "random2", "random17", "random120"],
    )
    def test_equals_edge_list(self, g):
        assert Graph(g.n, g.neighbors).text == _edge_list_text(g)

    @given(graphs(), st.integers(min_value=1, max_value=4))
    def test_equals_edge_list_at_any_chunk_size(self, g, chunk):
        with mock.patch.object(graph_module, "_TEXT_CHUNK", chunk):
            assert Graph(g.n, g.neighbors).text == _edge_list_text(g)

    def test_peak_is_below_three_texts(self):
        g = _complete_graph(1001)  # 500 500 edges
        tracemalloc.start()
        try:
            text = g.text
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 500_500 and peak < 3 * len(text), (peak, len(text))


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


def _line_parse(text):
    """parse_graph with the bulk reader switched off: the line parser alone."""
    with mock.patch.object(graphio, "_parse_serialized", return_value=None):
        return parse_graph(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphInputError as exc:
        return f"GraphInputError: {exc}"


def _random_graph(rng, n):
    p = rng.random()
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _dimacs(g):
    return f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges())


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _variants(g, rng):
    """Texts of g, or near it, that ``serialize_graph`` would not write."""
    text = serialize_graph(g)
    head, *lines = text.split("\n")[:-1]
    u, v = map(int, lines[0].split())
    return {
        "comment": "# a comment\n" + text,
        "blank line": text.replace("\n", "\n\n", 1),
        "crlf": text.replace("\n", "\r\n"),
        "tab": text.replace(" ", "\t"),
        "double space": text.replace(" ", "  "),
        "trailing space": text.replace("\n", " \n"),
        "no final newline": text[:-1],
        "zero-padded head": "0" + text,
        "zero-padded end": text.replace(f"\n{u} {v}\n", f"\n{u} 0{v}\n", 1),
        "zero-padded start": text.replace(f"\n{u} {v}\n", f"\n0{u} {v}\n", 1),
        "plus sign": text.replace(f"\n{u} {v}\n", f"\n+{u} {v}\n", 1),
        "underscore": f"{head[0]}_{head[1:]}" + text[len(head) :],  # n >= 10
        "non-ascii digit": text.replace(f"\n{u} {v}\n", f"\n{str(u).translate(_ARABIC_INDIC)} {v}\n", 1),
        "unsorted": "\n".join([head] + rng.sample(lines, len(lines))) + "\n",
        "repeated pair": "\n".join([head, lines[0]] + lines) + "\n",
        "reversed pair": text.replace(f"\n{u} {v}\n", f"\n{v} {u}\n", 1),
        "self-loop": text + f"{u} {u}\n",
        "out of range": text + f"{u} {g.n}\n",
        "above MAX_VERTICES": f"{MAX_VERTICES + 1}\n" + text.split("\n", 1)[1],
        "dimacs": _dimacs(g),
    }


class TestCanonicalReader:
    """The bulk reader of ``serialize_graph``'s form against the line parser."""

    def test_serialized_text_parses_as_the_line_parser_does(self):
        rng = random.Random(15)
        texts = ["0\n", "1\n"] + [serialize_graph(_random_graph(rng, rng.randrange(61))) for _ in range(300)]
        for text in texts:
            g = graphio._parse_serialized(text)
            assert g is not None, text
            assert g == _line_parse(text) and g.m == _line_parse(text).m
            assert all(list(row) == sorted(row) for row in g.neighbors)
            assert serialize_graph(g) is text  # the text read is kept, not rebuilt

    def test_variants_parse_or_fail_as_the_line_parser_does(self):
        rng = random.Random(16)
        graphs = [_random_graph(rng, n) for n in (10, 12, 23, 40, 60)]
        graphs.append(build_graph(12, [(1, 11), (2, 3), (5, 10)]))
        seen = set()
        for g in graphs:
            if g.m < 2:
                continue
            for name, text in _variants(g, rng).items():
                assert graphio._parse_serialized(text) is None, name
                assert _outcome(parse_graph, text) == _outcome(_line_parse, text), name
                seen.add(name)
        assert len(seen) == 20

    @settings(max_examples=300)
    @given(_graph_texts())
    def test_fuzzed_text_parses_or_fails_as_the_line_parser_does(self, text):
        assert _outcome(parse_graph, text) == _outcome(_line_parse, text)

    def test_error_messages_unchanged(self):
        g = build_graph(12, [(1, 11), (2, 3), (5, 10)])
        messages = {name: _outcome(parse_graph, text) for name, text in _variants(g, random.Random(0)).items()}
        assert messages["self-loop"] == "GraphInputError: self-loop at vertex 1"
        assert messages["out of range"] == "GraphInputError: edge (1, 12) out of range for n=12"
        assert messages["above MAX_VERTICES"] == f"GraphInputError: vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}"
        assert messages["plus sign"] == g  # int() reads '+1', as it always has

    def test_digest_of_a_non_canonical_text_hashes_a_fresh_serialization(self):
        rng = random.Random(17)
        for n in (10, 25, 60):
            g = _random_graph(rng, n)
            fresh = build_graph(g.n, g.edges())
            expected = "sha256:" + hashlib.sha256(serialize_graph(fresh).encode()).hexdigest()
            for name in ("comment", "crlf", "unsorted", "repeated pair", "reversed pair", "dimacs"):
                h = parse_graph(_variants(g, rng)[name])
                assert _digest(h) == expected, name
            assert _digest(parse_graph(serialize_graph(fresh))) == expected
