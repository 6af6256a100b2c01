"""Invariant checks must raise real exceptions, also under ``python -O``."""

from __future__ import annotations

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


@pytest.mark.parametrize(
    "module, helper, completer",
    [
        ("threshold", "non_edges_within", "threshold_pig_completion"),
        ("quasithreshold", "non_edges_within", "qt_cobipartite_completion"),
        ("caterpillar", "materialize_fill_edges", "caterpillar_pig_completion"),
    ],
)
def test_cost_check_survives_optimize_flag(module, helper, completer):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = SCRIPT.format(module=module, helper=helper, completer=completer)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "disagrees with" in proc.stdout
