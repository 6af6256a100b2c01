from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from pigfill import caterpillar_decomposition, quasi_threshold_forest, threshold_creation_sequence
from pigfill.cli import main

CLAW = "4\n0 1\n0 2\n0 3\n"
P4 = "4\n0 1\n1 2\n2 3\n"
TWO_TRIANGLES = "6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"  # quasi-threshold only
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


@pytest.fixture
def probe_counts(monkeypatch):
    """Count class-recognizer calls made through any pigfill module or module dict."""
    counts: Counter = Counter()
    recognizers = (threshold_creation_sequence, caterpillar_decomposition, quasi_threshold_forest)

    def counting(fn):
        def wrapper(g):
            counts[fn.__name__] += 1
            return fn(g)

        return wrapper

    for name, mod in list(sys.modules.items()):
        if name != "pigfill" and not name.startswith("pigfill."):
            continue
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in recognizers):
                monkeypatch.setattr(mod, attr, counting(obj))
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in list(obj.items()):
                    if any(val is fn for fn in recognizers):
                        monkeypatch.setitem(obj, key, counting(val))
    return counts


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


class TestSchemaConformance:
    def test_outputs_match_documented_schema(self, capsys, claw_file, p4_file, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        schema = json.loads((Path(__file__).parent.parent / "docs" / "schema.json").read_text())
        validator = jsonschema.Draft202012Validator(schema)
        fill = tmp_path / "fill.json"
        fill.write_text("[[1, 2]]")
        for argv in (
            ["complete", "--json", claw_file],
            ["recognize", p4_file],
            ["oracle", "maxcut", claw_file, "--json"],
            ["verify", claw_file, "--fill", str(fill), "--json"],
        ):
            main(argv)
            validator.validate(json.loads(capsys.readouterr().out))


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
