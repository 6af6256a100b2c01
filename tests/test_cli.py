from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from pigfill import gen_caterpillar, gen_quasi_threshold, gen_threshold, serialize_graph
from pigfill.cli import _build_parser, _dumps, main
from pigfill.graphio import MAX_VERTICES

CLAW = "4\n0 1\n0 2\n0 3\n"
P4 = "4\n0 1\n1 2\n2 3\n"
TWO_TRIANGLES = "6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"  # quasi-threshold only
CATERPILLAR = "5\n0 1\n1 2\n2 3\n1 4\n"  # spine 1-2, leaf 4 on vertex 1
C4_DIMACS = "c a four-cycle\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"


@pytest.fixture
def claw_file(tmp_path):
    path = tmp_path / "claw.txt"
    path.write_text(CLAW)
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestComplete:
    def test_claw_threshold(self, capsys, claw_file):
        code, env = run_json(capsys, ["complete", "--algo", "threshold", "--json", claw_file])
        assert code == 0
        assert env["cost"] == 1
        assert env["fill_edges"] == [[1, 2]]
        assert env["partition"] == {"s1": [0, 3], "s2": [1, 2]}
        assert env["algorithm"] == "threshold"
        assert "sequence" in env and len(env["sequence"]["steps"]) == 4
        assert env["schema_version"] == 1

    def test_auto_prefers_threshold(self, capsys, claw_file):
        code, env = run_json(capsys, ["complete", "--json", claw_file])
        assert code == 0 and env["algorithm"] == "threshold"

    def test_auto_on_p4_uses_caterpillar(self, capsys, p4_file):
        code, env = run_json(capsys, ["complete", "--json", p4_file])
        assert code == 0
        assert env["algorithm"] == "caterpillar"
        assert env["cost"] == 0
        assert "placement" in env

    def test_qt_result_is_labeled_lower_bound(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(TWO_TRIANGLES)
        code, env = run_json(capsys, ["complete", "--json", str(path)])
        assert code == 0
        assert env["algorithm"] == "qt-cobipartite"
        assert env["lower_bound_for"] == "pig-completion"

    def test_oracle_fallback(self, capsys, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        code, env = run_json(capsys, ["complete", "--json", str(path)])
        assert code == 0
        assert env["algorithm"] == "oracle" and env["cost"] == 1

    def test_cost_only(self, capsys, claw_file):
        code, env = run_json(capsys, ["complete", "--algo", "threshold", "--cost-only", "--json", claw_file])
        assert code == 0 and env["cost"] == 1 and env["fill_edges"] is None

    @pytest.mark.parametrize(
        "graph, algo", [("caterpillar", "caterpillar"), ("claw", "qt-cobipartite"), ("caterpillar", "oracle")]
    )
    def test_cost_only_every_algo(self, capsys, tmp_path, graph, algo):
        path = tmp_path / "g.txt"
        path.write_text({"claw": CLAW, "caterpillar": CATERPILLAR}[graph])
        code, full = run_json(capsys, ["complete", "--algo", algo, "--json", str(path)])
        assert code == 0 and full["cost"] == len(full["fill_edges"]) == 1
        code, env = run_json(capsys, ["complete", "--algo", algo, "--cost-only", "--json", str(path)])
        assert code == 0 and env["cost"] == full["cost"] and env["fill_edges"] is None
        assert env["algorithm"] == full["algorithm"]

    def test_class_error_exit_code(self, capsys, p4_file, tmp_path):
        assert main(["complete", "--algo", "threshold", p4_file]) == 1
        assert "not threshold" in capsys.readouterr().err
        assert main(["complete", "--algo", "qt-cobipartite", p4_file]) == 1
        assert "not quasi-threshold (induced P4" in capsys.readouterr().err
        path = tmp_path / "c4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        assert main(["complete", "--algo", "caterpillar", str(path)]) == 1
        assert "not caterpillar" in capsys.readouterr().err

    def test_text_output(self, capsys, claw_file):
        assert main(["complete", "--algo", "threshold", claw_file]) == 0
        out = capsys.readouterr().out
        assert "cost         1" in out

    def test_text_output_prints_lists(self, capsys, claw_file, tmp_path):
        assert main(["complete", claw_file]) == 0
        out = capsys.readouterr().out
        assert "fill         1-2\nside 1       [0, 3]\nside 2       [1, 2]\n" in out
        path = tmp_path / "cat.txt"
        path.write_text(CATERPILLAR)
        assert main(["complete", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fill         2-4\nspine        [1, 2]\nleaf points  [[0, 0], [3, 2], [4, 1]]\n" in out

    def test_empty_graph_is_threshold(self, capsys, tmp_path):
        # the empty creation sequence is falsy but still a certificate
        path = tmp_path / "empty.txt"
        path.write_text("0\n")
        code, env = run_json(capsys, ["complete", "--json", str(path)])
        assert code == 0
        assert env["algorithm"] == "threshold" and env["cost"] == 0
        assert env["fill_edges"] == [] and env["sequence"] == {"steps": []}

    @pytest.mark.parametrize(
        "graph, algo, expected",
        [
            ("claw", "auto", "threshold"),
            ("claw", "threshold", "threshold"),
            ("p4", "auto", "caterpillar"),
            ("p4", "caterpillar", "caterpillar"),
            ("two_triangles", "auto", "qt-cobipartite"),
            ("two_triangles", "qt-cobipartite", "qt-cobipartite"),
        ],
    )
    def test_each_class_recognized_once(self, capsys, tmp_path, probe_counts, graph, algo, expected):
        path = tmp_path / "g.txt"
        path.write_text({"claw": CLAW, "p4": P4, "two_triangles": TWO_TRIANGLES}[graph])
        code, env = run_json(capsys, ["complete", "--json", "--algo", algo, str(path)])
        assert code == 0 and env["algorithm"] == expected
        assert probe_counts and max(probe_counts.values()) == 1, dict(probe_counts)

    def test_explicit_algo_miss_recognizes_once(self, capsys, p4_file, probe_counts):
        # the completer reads the probe's cached None and raises with a witness
        assert main(["complete", "--algo", "threshold", p4_file]) == 1
        assert "not threshold (induced P4" in capsys.readouterr().err
        assert probe_counts == {"threshold_creation_sequence": 1}


class TestParserBuiltOnce:
    def test_one_parser_serves_every_call(self, capsys, claw_file):
        assert _build_parser() is _build_parser()
        assert main(["oracle", "pig", claw_file]) == 0
        first = capsys.readouterr().out
        assert main(["oracle", "maxcut", "--max-n", "5", claw_file]) == 0
        capsys.readouterr()
        assert main(["oracle", "pig", claw_file]) == 0
        assert capsys.readouterr().out == first


class TestRecognize:
    def test_p4_report(self, capsys, p4_file):
        code, report = run_json(capsys, ["recognize", p4_file])
        assert code == 0
        assert report["classes"] == {
            "threshold": False,
            "quasiThreshold": False,
            "caterpillar": True,
            "split": True,
            "properInterval": True,
        }
        assert report["mostSpecific"] == "caterpillar"
        assert report["certificates"]["caterpillar"]["spine"] == [1, 2]

    def test_p4_most_specific_caterpillar(self, capsys, p4_file):
        code, report = run_json(capsys, ["recognize", p4_file])
        assert code == 0
        certs = report["certificates"]
        assert list(certs) == ["threshold", "caterpillar", "quasiThreshold", "split", "properInterval"]
        assert certs["threshold"] is None and certs["quasiThreshold"] is None
        assert certs["caterpillar"] is not None
        assert certs["properInterval"]["isProperInterval"] is True
        assert report["mostSpecific"] == "caterpillar"

    def test_claw_most_specific_threshold(self, capsys, claw_file):
        code, report = run_json(capsys, ["recognize", claw_file])
        assert code == 0 and report["mostSpecific"] == "threshold"
        assert report["certificates"]["properInterval"]["witnessKind"] == "claw"

    def test_dimacs_input(self, capsys, tmp_path):
        path = tmp_path / "c4.col"
        path.write_text(C4_DIMACS)
        code, report = run_json(capsys, ["recognize", str(path)])
        assert code == 0
        assert report["classes"]["properInterval"] is False
        assert report["certificates"]["properInterval"]["witnessKind"] == "chordless-cycle"


class TestOracleCommand:
    def test_pig(self, capsys, claw_file):
        code, out = run_json(capsys, ["oracle", "pig", claw_file, "--json"])
        assert code == 0 and out["cost"] == 1 and out["fill_edges"] == [[1, 2]]

    def test_budget_refusal_exit_3(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("12\n" + "".join(f"0 {v}\n" for v in range(1, 12)))
        assert main(["oracle", "pig", str(path)]) == 3
        assert "budget" in capsys.readouterr().err

    def test_maxcut_and_cobip(self, capsys, claw_file):
        code, out = run_json(capsys, ["oracle", "maxcut", claw_file, "--json"])
        assert code == 0 and out["cut"] == 3
        code, out = run_json(capsys, ["oracle", "cobip", claw_file, "--json"])
        assert code == 0 and out["cost"] == 1


class TestGenCommand:
    def test_gen_writes_sidecar(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        assert main(["gen", "threshold", "--n", "8", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["complete", str(out)]) == 0
        sidecar = json.loads((tmp_path / "t.txt.cert.json").read_text())
        assert sidecar["spec"]["class"] == "threshold"
        assert len(sidecar["certificate"]["steps"]) == 8

    def test_gen_stdout(self, capsys):
        assert main(["gen", "caterpillar", "--spine-len", "3", "--max-leaves", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].strip().isdigit()

    def test_gen_gadget(self, capsys, tmp_path):
        base = tmp_path / "split.txt"
        base.write_text("3\n0 1\n0 2\n")  # P3: split with C = {0, 1}
        code, payload = run_json(capsys, ["gen", "gadget", "--input", str(base), "--json"])
        assert code == 0
        assert payload["certificate"]["bigClique"]
        assert main(["gen", "gadget"]) == 2  # missing --input

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "quasi-threshold", "--n", "9", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "quasi-threshold", "--n", "9", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "threshold", "--n", "2001"],
            ["gen", "threshold", "--n", "100000"],
            ["gen", "split", "--n", "2001"],
            ["gen", "quasi-threshold", "--n", str(MAX_VERTICES + 1)],
            ["gen", "quasi-threshold", "--n", "300000"],
            ["gen", "caterpillar", "--spine-len", str(MAX_VERTICES), "--max-leaves", "2"],
        ],
    )
    def test_gen_size_limit_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "above the limit" in captured.err

    @pytest.mark.parametrize("n", [32, 100])
    def test_gen_gadget_size_limit_exit_2(self, tmp_path, n):
        base = tmp_path / "split.txt"
        assert main(["gen", "split", "--n", str(n), "--seed", "1", "--out", str(base)]) == 0
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "pigfill.cli", "gen", "gadget", "--input", str(base)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert out.stderr.startswith("error: ") and "above the limit" in out.stderr
        assert "Traceback" not in out.stderr


class TestVerify:
    def test_accepts_valid_fill(self, capsys, claw_file, tmp_path):
        fill = tmp_path / "fill.json"
        fill.write_text("[[1, 2]]")
        assert main(["verify", claw_file, "--fill", str(fill)]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_rejects_insufficient_fill(self, capsys, claw_file, tmp_path):
        fill = tmp_path / "fill.json"
        fill.write_text("[]")
        assert main(["verify", claw_file, "--fill", str(fill)]) == 1
        assert "not proper interval" in capsys.readouterr().out

    def test_rejects_fill_overlapping_edges(self, capsys, claw_file, tmp_path):
        fill = tmp_path / "fill.json"
        fill.write_text('{"fill_edges": [[0, 1], [1, 2]]}')
        assert main(["verify", claw_file, "--fill", str(fill)]) == 1
        assert "already an edge" in capsys.readouterr().out

    def test_self_loop_in_fill_exit_2(self, capsys, claw_file, tmp_path):
        fill = tmp_path / "fill.json"
        fill.write_text("[[2, 2]]")
        assert main(["verify", claw_file, "--fill", str(fill)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "self-loop at vertex 2" in err and "out of range" not in err

    def test_bad_fill_file_exit_2(self, capsys, claw_file, tmp_path):
        fill = tmp_path / "fill.json"
        fill.write_text("{broken")
        assert main(["verify", claw_file, "--fill", str(fill)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"cost": 1}',  # an object without fill_edges
            '{"fill_edges": null}',  # a cost-only envelope
            "[[1, 2.9]]",  # int() would truncate this to the valid fill (1, 2)
            "[[2, true]]",  # and this one too
            '[[1, "2"]]',
            "[[1, 2, 3]]",
            "[1, 2]",
        ],
    )
    def test_malformed_fill_exit_2(self, capsys, claw_file, tmp_path, text):
        fill = tmp_path / "fill.json"
        fill.write_text(text)
        assert main(["verify", claw_file, "--fill", str(fill)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_pair_listed_twice_rejected(self, capsys, claw_file, tmp_path):
        fill = tmp_path / "fill.json"
        fill.write_text("[[1, 2], [2, 1]]")
        code, out = run_json(capsys, ["verify", claw_file, "--fill", str(fill), "--json"])
        assert code == 1
        assert not out["accepted"] and out["fill_size"] == 2
        assert out["problems"] == ["(1, 2) is listed 2 times"]


class TestDigestOnlyForJson:
    def test_text_output_computes_no_digest(self, capsys, monkeypatch, claw_file, tmp_path):
        import pigfill.cli as cli

        fill = tmp_path / "fill.json"
        fill.write_text("[[1, 2]]")
        runs = (["complete", claw_file], ["verify", claw_file, "--fill", str(fill)])

        def text_of(argv):
            assert main(argv) == 0
            return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("runtime")]

        expected = [text_of(argv) for argv in runs]

        def refuse(g):
            raise RuntimeError("digest computed for text output")

        monkeypatch.setattr(cli, "_digest", refuse)
        assert [text_of(argv) for argv in runs] == expected
        for argv in runs:
            with pytest.raises(RuntimeError):
                main(argv + ["--json"])


class TestFillNotSortedAtSerialization:
    @pytest.mark.parametrize(
        "make, algo",
        [
            (lambda: gen_threshold(30, 0.5, 2), "threshold"),
            (lambda: gen_caterpillar(12, 3, 2), "caterpillar"),
            (lambda: gen_quasi_threshold(40, 2), "qt-cobipartite"),
        ],
        ids=["threshold", "caterpillar", "quasi-threshold"],
    )
    def test_complete_json_never_sorts(self, capsys, tmp_path, make, algo):
        import pigfill.cli as cli

        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(make()[0]))
        assert not hasattr(cli, "sorted_edges")  # the CLI has no sort to run the fill through
        code, env = run_json(capsys, ["complete", "--json", str(path)])
        assert code == 0 and env["algorithm"] == algo
        assert env["fill_edges"] and env["fill_edges"] == sorted(env["fill_edges"])


class TestSchemaConformance:
    def test_outputs_match_documented_schema(self, capsys, claw_file, p4_file, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        schema = json.loads((Path(__file__).parent.parent / "docs" / "schema.json").read_text())
        validator = jsonschema.Draft202012Validator(schema)
        fill = tmp_path / "fill.json"
        fill.write_text("[[1, 2]]")
        envelope = tmp_path / "envelope.json"
        for argv in (
            ["complete", "--json", claw_file],
            ["recognize", p4_file],
            ["oracle", "maxcut", claw_file, "--json"],
            ["verify", claw_file, "--fill", str(fill), "--json"],
        ):
            main(argv)
            validator.validate(json.loads(capsys.readouterr().out))
        # the umbrella order of every completion that writes one
        for argv in (
            ["complete", "--json", claw_file],
            ["complete", "--json", p4_file],
            ["complete", "--json", "--algo", "oracle", claw_file],
        ):
            main(argv)
            out = capsys.readouterr().out
            env = json.loads(out)
            assert sorted(env["umbrella_order"]) == list(range(env["input"]["n"]))
            validator.validate(env)
            envelope.write_text(out)
        main(["verify", claw_file, "--fill", str(envelope), "--json"])
        validator.validate(json.loads(capsys.readouterr().out))
        bad = dict(env, umbrella_order=["0", "1", "2", "3"])
        assert not validator.is_valid(bad)


class TestErrorsAndXcheck:
    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("zork\n")
        assert main(["recognize", str(path)]) == 2

    @pytest.mark.parametrize("header", ["p edge 4 x", "p edge 4 5"])
    def test_dimacs_edge_count_exit_2(self, capsys, tmp_path, header):
        path = tmp_path / "c4.col"
        path.write_text(C4_DIMACS.replace("p edge 4 4", header))
        assert main(["recognize", str(path)]) == 2

    @pytest.mark.parametrize("text", ["1000000000000\n", "p edge 1000000000000 0\n"])
    def test_oversized_vertex_count_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["complete", str(path)]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["recognize", "/nonexistent/file.txt"]) == 2

    def test_xcheck_small(self, capsys):
        assert main(["xcheck", "--class", "threshold", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    @pytest.mark.parametrize("klass", ["recognition", "all"])
    def test_xcheck_sweep_over_budget_exit_3(self, capsys, klass):
        assert main(["xcheck", "--class", klass, "--max-n", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any suite ran
        assert captured.err.startswith("error: ") and "max_n=8" in captured.err

    @pytest.mark.parametrize("klass", ["threshold", "quasi-threshold"])
    def test_xcheck_over_bipartition_budget_exit_3_at_once(self, capsys, klass):
        # the bipartition oracles refuse n = 21; the suites would reach it only after every smaller n
        start = time.perf_counter()
        assert main(["xcheck", "--class", klass, "--max-n", "21"]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any suite ran
        assert captured.err.startswith("error: ") and "max_n=21" in captured.err

    def test_import_loads_no_process_pool(self):
        # the recognition sweep imports multiprocessing itself, so start-up pays for none of it
        script = "import sys, pigfill.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_xcheck_vacuous_max_n_exit_2(self, capsys, max_n):
        assert main(["xcheck", "--class", "all", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert "all checks passed" not in captured.out
        assert captured.err.startswith("error: ")


_ints = st.integers(min_value=-(10**20), max_value=10**20)
# plain text, and short strings of the characters that delimit JSON structure
_text = st.one_of(st.text(), st.text(alphabet=',[]{}":\\ aé', max_size=4))
_scalars = st.one_of(st.none(), st.booleans(), _ints, st.floats(allow_nan=True, allow_infinity=True), _text)
_json_values = st.recursive(
    st.one_of(
        _scalars,
        st.lists(_ints),
        st.lists(st.lists(_ints, max_size=4)),  # rows, empty and ragged ones included
        st.lists(st.tuples(_ints, _ints)).map(tuple),
        st.lists(st.lists(_scalars, max_size=3), max_size=4),
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_text, _ints, st.booleans(), st.none(), st.floats()), kids, max_size=5),
    ),
    max_leaves=20,
)

# rows that are mostly (int, int) tuples, with the cases the pair writer must hand back
_pair_ints = st.one_of(st.integers(-5, 50), st.integers(-(10**30), 10**30), st.booleans())
_pair_rows = st.one_of(
    st.tuples(_pair_ints, _pair_ints),
    st.lists(_pair_ints, min_size=2, max_size=2),
    st.lists(_pair_ints, max_size=3).map(tuple),
    st.tuples(st.integers(0, 9), st.sampled_from([1.5, "x", None])),
)
_int_pairs = st.tuples(st.integers(-(10**30), 10**30), st.integers(-5, 50))
_pair_lists = st.one_of(
    st.lists(_int_pairs, min_size=1, max_size=8),  # the pair writer's own input
    st.lists(_pair_rows, max_size=6),
    st.lists(_pair_rows, max_size=6).map(tuple),
)

_GEN = {
    "threshold": ["--n", "12"],
    "caterpillar": ["--spine-len", "6", "--max-leaves", "3"],
    "quasi-threshold": ["--n", "14"],
    "split": ["--n", "6"],
}


@pytest.fixture
def generated(tmp_path, capsys):
    """Seeded instances of every generated class, written with ``gen --out``."""
    paths = {}
    for klass, extra in _GEN.items():
        paths[klass] = str(tmp_path / f"{klass}.txt")
        assert main(["gen", klass, "--seed", "1", *extra, "--out", paths[klass]]) == 0
    capsys.readouterr()
    return paths


class _Level(IntEnum):
    LOW = 1
    HIGH = 20


_Pair = namedtuple("_Pair", "u v")


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_json_values)
    @example(['",'])  # an escaped quote must not hide the comma after it
    @example([1, [[2]]])  # two brackets for two items, yet not rows
    @example([[], [1]])
    @example([{"a": 1, "b": [2]}, 3])
    def test_matches_json_dumps_indent_2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(_pair_lists, st.integers(min_value=0, max_value=3))
    @example([(1, 2)], 0)  # one pair
    @example([], 0)
    @example([(True, 2)], 0)  # bool is an int subclass that json writes as true
    @example([(1, 2), [3, 4]], 0)  # a list row among tuples
    @example([(1, 2), (3, 4, 5)], 1)  # a ragged row
    @example(((-(10**30), 7),), 2)
    # each of these leaves something besides the separators once digits and
    # signs are deleted, or fails the %r format, so it takes the generic path
    @example([(1, 2), (1.5, 2)], 1)
    @example([(_Level.LOW, _Level.HIGH)], 0)  # json writes an IntEnum as its int
    @example([(1, 2), _Pair(-3, 4)], 1)  # json writes a namedtuple as a list
    @example([("12", 3)], 0)
    @example([((1, 2), 3)], 1)
    @example([(-5, 0)], 0)
    def test_pair_rows_match_json_dumps_indent_2(self, rows, depth):
        value = rows
        for _ in range(depth):
            value = {"k": value}
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["recognize", "{threshold}"],
            ["recognize", "{quasi-threshold}"],
            ["complete", "{threshold}", "--json"],
            ["complete", "{caterpillar}", "--json"],
            ["complete", "{quasi-threshold}", "--json"],
            ["complete", "{split}", "--json", "--max-n", "9"],
            ["oracle", "pig", "{split}", "--json"],
            ["oracle", "cobip", "{split}", "--json"],
            ["oracle", "maxcut", "{split}", "--json"],
            ["verify", "{caterpillar}", "--fill", "{fill}", "--json"],
            ["verify", "{split}", "--fill", "{fill}", "--json"],
            *(["gen", klass, "--seed", "2", *extra, "--json"] for klass, extra in _GEN.items()),
            ["gen", "gadget", "--input", "{split}", "--json"],
        ],
        ids=" ".join,
    )
    def test_cli_output_is_json_dumps_indent_2(self, capsys, tmp_path, generated, argv):
        fill = tmp_path / "fill.json"
        fill.write_text("[[0, 1], [1, 2]]")
        argv = [arg.format(fill=fill, **generated) if "{" in arg else arg for arg in argv]
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_gen_out_sidecar_is_json_dumps_indent_2(self, generated):
        for klass in _GEN:
            with open(generated[klass] + ".cert.json", encoding="utf-8") as fh:
                text = fh.read()
            assert text == json.dumps(json.loads(text), indent=2)

    @pytest.mark.parametrize("klass", ["caterpillar", "quasi-threshold"])
    def test_complete_never_uses_the_python_encoder(self, capsys, monkeypatch, tmp_path, klass):
        path = str(tmp_path / "g.txt")
        extra = {"caterpillar": ["--spine-len", "300"], "quasi-threshold": ["--n", "120"]}[klass]
        assert main(["gen", klass, "--seed", "3", *extra, "--out", path]) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise RuntimeError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert main(["complete", path, "--json"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["algorithm"] == {"caterpillar": "caterpillar", "quasi-threshold": "qt-cobipartite"}[klass]
        assert env["cost"] == len(env["fill_edges"]) > 0
