"""Invariant checks must raise real exceptions, also under ``python -O``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Replaces one fill helper of a completion module with a copy that drops one
# pair, then expects the completer's cost-vs-fill check to raise.
SCRIPT = """
import sys

if __debug__:
    sys.exit("not running under -O")

import pigfill.{module} as mod
from pigfill import build_graph

real = mod.{helper}


def short(*args):
    return frozenset(sorted(real(*args))[1:])


mod.{helper} = short
claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
try:
    mod.{completer}(claw)
except AssertionError as exc:
    print(exc)
    sys.exit(0)
sys.exit("the dropped pair went unnoticed")
"""


# Replaces the recognizer's sweep with one that returns a non-umbrella order
# of P4, which has no forbidden-subgraph witness either.
PIG_SCRIPT = """
import sys

if __debug__:
    sys.exit("not running under -O")

import pigfill.recognition as rec
from pigfill import build_graph

rec._three_sweep_order = lambda g: (0, 2, 1, 3)
p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
try:
    rec.is_proper_interval(p4)
except AssertionError as exc:
    print(exc)
    sys.exit(0)
sys.exit("P4 was accepted without an umbrella order")
"""


def _run_optimized(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "module, helper, completer",
    [
        ("threshold", "non_edges_within", "threshold_pig_completion"),
        ("quasithreshold", "non_edges_within", "qt_cobipartite_completion"),
        ("caterpillar", "materialize_fill_edges", "caterpillar_pig_completion"),
    ],
)
def test_cost_check_survives_optimize_flag(module, helper, completer):
    proc = _run_optimized(SCRIPT.format(module=module, helper=helper, completer=completer))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "disagrees with" in proc.stdout


def test_pig_certificate_check_survives_optimize_flag():
    proc = _run_optimized(PIG_SCRIPT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "umbrella" in proc.stdout


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "pigfill").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements vanish under python -O: " + ", ".join(found)
