"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
tolerances are exact equalities except the complexity slopes (+-0.3 around the
claimed growth order, with the quasi-threshold DP bounded above only; the
trimmed loops genuinely do less work than the stated order, see the notes
printed by criterion 7).
"""

from __future__ import annotations

import random
import time
from math import log

import pytest

from pigfill import (
    caterpillar_from_buckets,
    gen_quasi_threshold,
    gen_split,
    gen_threshold,
    induced_subgraph,
    split_partition,
    split_pig_reduction_gadget,
    threshold_run,
)
from pigfill.caterpillar import build_placement_tables
from pigfill.quasithreshold import build_dp_tables
from pigfill.xcheck import (
    xcheck_caterpillar,
    xcheck_quasithreshold,
    xcheck_recognition,
    xcheck_threshold,
)

SEED = 20260809


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def threshold_rows():
    start = time.perf_counter()
    rows = xcheck_threshold(max_n=7, random_trials=100, random_max_n=16, seed=SEED)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def qt_rows():
    rows = xcheck_quasithreshold(
        max_n=8, lower_bound_max_n=7, random_trials=200, random_max_n=12, seed=SEED
    )
    return rows


@pytest.fixture(scope="module")
def caterpillar_rows():
    return xcheck_caterpillar(max_n=8, random_trials=100, random_max_n=10, seed=SEED)


def test_criterion_1_threshold_optimality(threshold_rows):
    rows, elapsed = threshold_rows
    optimality, validity = rows[0], rows[1]
    ok = optimality.ok and validity.ok and elapsed < 300.0
    _report(
        "criterion 1: threshold greedy == brute-force PIG optimum (all sequences n<=7)",
        ok,
        f"{optimality.instances} sequences, {optimality.failures}+{validity.failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_cobipartite_equivalence(threshold_rows):
    rows, _ = threshold_rows
    equivalence = rows[2]
    # the equivalence needs a dominating vertex, so the corpus is the
    # connected half of the sequences (plus the one-vertex graph)
    _report(
        "criterion 2: PIG optimum == co-bipartite optimum on connected threshold graphs",
        equivalence.ok,
        f"{equivalence.instances} graphs, {equivalence.failures} failures",
    )


def test_criterion_3_maxcut_duality(threshold_rows):
    rows, _ = threshold_rows
    duality, random_duality = rows[3], rows[4]
    ok = duality.ok and random_duality.ok and random_duality.instances == 100
    _report(
        "criterion 3: cost == pairs - edges - maxcut(complement)",
        ok,
        f"{duality.instances} exhaustive + {random_duality.instances} random (n<=16), "
        f"{duality.failures + random_duality.failures} failures",
    )


def test_criterion_4_qt_dp_exactness(qt_rows):
    exactness, symmetry = qt_rows[0], qt_rows[1]
    rnd = qt_rows[4]
    ok = exactness.ok and symmetry.ok and rnd.ok and rnd.instances == 200
    _report(
        "criterion 4: qt DP == brute-force co-bipartite optimum + cell symmetry",
        ok,
        f"{exactness.instances} forests (n<=8) + {rnd.instances} random (n<=12), "
        f"{exactness.failures + symmetry.failures + rnd.failures} failures",
    )


def test_criterion_5_qt_lower_bound(qt_rows):
    lower = qt_rows[3]
    gaps = [note for note in lower.notes if note.startswith("strict gap")]
    _report(
        "criterion 5: qt co-bipartite optimum <= PIG optimum on connected qt graphs (n<=7)",
        lower.ok,
        f"{lower.instances} graphs, {lower.failures} violations, {len(gaps)} strict gaps logged",
    )
    for note in gaps:
        print(f"      note: {note}")


def test_criterion_6_caterpillar_exactness(caterpillar_rows):
    exactness, validity, reversal = caterpillar_rows
    ok = exactness.ok and validity.ok and reversal.ok
    _report(
        "criterion 6: caterpillar DP == brute-force PIG optimum, fill valid, reversal invariant",
        ok,
        f"{exactness.instances} instances (exhaustive n<=8 + 100 random n<=10), "
        f"{exactness.failures + validity.failures + reversal.failures} failures",
    )


def fit_log_slope(ns: list[int], ys: list[int]) -> float:
    """Least-squares slope of log(y) against log(n)."""
    xs = [log(v) for v in ns]
    ws = [log(v) for v in ys]
    xbar = sum(xs) / len(xs)
    wbar = sum(ws) / len(ws)
    num = sum((x - xbar) * (w - wbar) for x, w in zip(xs, ws))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def test_criterion_7_complexity_counters():
    ns = [8, 16, 32, 64, 128]
    threshold_counts = []
    caterpillar_counts = []
    qt_counts = []
    for n in ns:
        g, seq = gen_threshold(n, 0.5, seed=SEED + n)
        threshold_counts.append(threshold_run(g, seq).step_count)
        _, d = caterpillar_from_buckets([(n - 2 + 1) // 2, (n - 2) // 2])
        caterpillar_counts.append(build_placement_tables(d).eval_count)
        _, forest = gen_quasi_threshold(n, seed=SEED + n)
        qt_counts.append(build_dp_tables(forest).eval_count)
    s_thr = fit_log_slope(ns, threshold_counts)
    s_cat = fit_log_slope(ns, caterpillar_counts)
    s_qt = fit_log_slope(ns, qt_counts)
    ok = (
        abs(s_thr - 1.0) <= 0.3
        and abs(s_cat - 2.0) <= 0.3
        and s_qt <= 4.0 + 0.3
        and all(c <= 3 * n**3 for n, c in zip(ns, qt_counts))
    )
    _report(
        "criterion 7: operation counters grow within the claimed orders",
        ok,
        f"slopes: threshold {s_thr:.2f} (claim 1), caterpillar {s_cat:.2f} (claim 2), "
        f"qt {s_qt:.2f} (claim <=4; trimmed loops do quadratic work)",
    )


def test_criterion_8_recognition_soundness():
    rows = xcheck_recognition(max_n=6)
    ok = all(row.ok for row in rows)
    checked = max(row.instances for row in rows)
    _report(
        "criterion 8: recognizers agree with forbidden-subgraph scans on all graphs n<=6",
        ok,
        f"{checked} graphs, {sum(row.failures for row in rows)} failures across {len(rows)} checks",
    )
    if not ok:  # pragma: no cover
        for row in rows:
            print(f"      {row.line()}")


def test_criterion_9_gadget_structure():
    rng = random.Random(SEED)
    failures = []
    worst = 0.0
    for trial in range(20):
        n = rng.randint(2, 20)
        g, _ = gen_split(n, seed=rng.randrange(2**32))
        part = split_partition(g)
        start = time.perf_counter()
        gadget = split_pig_reduction_gadget(g)
        big = gadget.big_clique
        ok = len(big) == 2 * len(part.clique) + 2 * n * n
        ok = ok and gadget.graph.n == 2 * n + 2 * n * n
        ok = ok and split_partition(gadget.graph) is not None
        for cm in gadget.copy_maps:
            sub, _ = induced_subgraph(gadget.graph, cm)
            ok = ok and sub == g
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if not ok or elapsed >= 1.0:
            failures.append(f"trial {trial} n={n} ok={ok} {elapsed:.2f}s")
    _report(
        "criterion 9: gadget is split, clique size 2|C|+2n^2, copies isomorphic, <1s each",
        not failures,
        f"20 gadgets, worst build+check {worst * 1000:.0f} ms" + ("; " + "; ".join(failures) if failures else ""),
    )
