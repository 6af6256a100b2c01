"""Library invariants: every completer's fill is a strictly ascending tuple of
canonical pairs, and invariant checks raise real exceptions, also under
``python -O``."""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pigfill import (
    build_graph,
    caterpillar_decomposition,
    caterpillar_pig_completion,
    enumerate_rooted_forests,
    enumerate_threshold,
    gen_caterpillar,
    gen_quasi_threshold,
    qt_cobipartite_completion,
    qt_forest_graph,
    quasi_threshold_forest,
    threshold_creation_sequence,
    threshold_pig_completion,
    validate_completion,
)

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
    return tuple(sorted(real(*args))[1:])


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

rec._three_sweep_order = lambda g, sigma: (0, 2, 1, 3)
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


COMPLETERS = (
    (threshold_creation_sequence, threshold_pig_completion),
    (caterpillar_decomposition, caterpillar_pig_completion),
    (quasi_threshold_forest, qt_cobipartite_completion),
)


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _assert_fills_ascending(g):
    """Runs every completer whose class holds g; returns how many ran."""
    ran = 0
    for recognize, complete in COMPLETERS:
        cert = recognize(g)
        if cert is None:
            continue
        fill = complete(g).fill
        assert type(fill) is tuple, (complete.__name__, g.edges())
        assert all(type(p) is tuple and len(p) == 2 and 0 <= p[0] < p[1] < g.n for p in fill), fill
        assert all(a < b for a, b in zip(fill, fill[1:])), (complete.__name__, fill)
        ran += 1
    return ran


class TestFillsAreAscending:
    def test_enumerated_threshold_graphs_to_7(self):
        for n in range(1, 8):
            for seed, (g, _) in enumerate(enumerate_threshold(n)):
                # a threshold graph is also quasi-threshold
                assert _assert_fills_ascending(g) >= 2
                assert _assert_fills_ascending(_relabelled(g, seed)) >= 2

    def test_enumerated_rooted_forests_to_7(self):
        for n in range(1, 8):
            for seed, forest in enumerate(enumerate_rooted_forests(n)):
                g = qt_forest_graph(forest)
                assert _assert_fills_ascending(g) >= 1
                assert _assert_fills_ascending(_relabelled(g, seed)) >= 1

    def test_generated_members(self):
        for seed in range(40):
            c, _ = gen_caterpillar(1 + seed, 3, seed)
            q, _ = gen_quasi_threshold(2 + 2 * seed, seed)
            for h in (c, _relabelled(c, seed), q, _relabelled(q, seed)):
                assert _assert_fills_ascending(h) >= 1


class TestValidateCompletionRequiresOrder:
    @pytest.fixture
    def result(self):
        g, _ = gen_quasi_threshold(20, 3)
        res = qt_cobipartite_completion(g)
        assert len(res.fill) >= 2
        return g, res

    def test_accepts_the_completer_fill(self, result):
        validate_completion(*result)

    @pytest.mark.parametrize(
        "reorder",
        [
            lambda fill: frozenset(fill),
            lambda fill: list(fill),
            lambda fill: fill[::-1],
            lambda fill: fill[:1] + fill[:-1],  # a repeated pair, same size
            lambda fill: ((fill[0][1], fill[0][0]),) + fill[1:],
        ],
        ids=["frozenset", "list", "descending", "repeat", "not-canonical"],
    )
    def test_rejects(self, result, reorder):
        g, res = result
        with pytest.raises(ValueError):
            validate_completion(g, replace(res, fill=reorder(res.fill)))
