"""Seeded inputs for the three workloads.

Graphs come from the library generators (``gen_threshold``,
``gen_caterpillar``, ``gen_quasi_threshold``) and from ``build_graph`` for the
small random graphs and trees, then get a seeded relabelling and are written
as native edge lists.  The same (workload, seed) always writes the same bytes.

A workload is a list of rounds.  Each round holds the same kinds of job and
draws one instance from every size stratum, so any whole number of rounds has
the same mix and a run's figures do not depend on how many rounds fit in its
time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from pigfill.generators import gen_caterpillar, gen_quasi_threshold, gen_threshold
from pigfill.graph import build_graph

MIN_SOLVES = 100  # a p90 needs ten samples beyond it
BUNDLE = "graphs.json"

# name -> (distinct rounds written, rounds traced in a 25 s trace run)
WORKLOADS = {
    "pig-verify": (8, 3),
    "sparse-complete": (3, 2),
    "small-exhaustive": (4, 1),
}


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One integer from the middle half of each of k equal slices of [lo, hi].

    Drawing from the middle half keeps the sizes near the median of a run
    close from seed to seed, so the medians move with the program, not with
    the draw.
    """
    return [int(lo + (hi - lo) * (i + 0.25 + 0.5 * rng.random()) / k) for i in range(k)]


def _star_pig_cost(leaves: int) -> int:
    # the leaves split into two cliques, one on each side of the centre
    a = leaves // 2
    return a * (a - 1) // 2 + (leaves - a) * (leaves - a - 1) // 2


def _random_tree(n: int, max_degree: int, rng: random.Random):
    """Random recursive tree whose degrees stay at most max_degree."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < max_degree])
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return build_graph(n, edges)


def _random_graph(n: int, m: int, rng: random.Random):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, rng.sample(pairs, m))


class _Writer:
    """Relabels graphs and writes them, one file each or all into one bundle."""

    def __init__(self, root: str, rng: random.Random):
        self.root = root
        self.rng = rng
        self.sha = hashlib.sha256()
        self.bundle: dict[str, str] = {}

    def graph(self, g, name: str, bundled: bool = False, **job) -> dict:
        """Relabel g, write it, and return the job that reads it.

        A bundled graph goes to the one file ``BUNDLE`` instead of its own;
        the worker hands it to the program on stdin (``-``).
        """
        n = g.n
        perm = list(range(n))
        self.rng.shuffle(perm)
        edges = sorted(
            (a, b) if a < b else (b, a) for a, b in ((perm[u], perm[v]) for u, v in g.edges())
        )
        text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        if bundled:
            self.bundle[name] = text
        else:
            with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.sha.update(name.encode() + b"\0" + text.encode())
        return {"graph": name, "stdin": bundled, "n": n, "m": len(edges), **job}

    def close(self) -> str | None:
        """Write the bundle, if any graph went to it; return its file name."""
        if not self.bundle:
            return None
        with open(os.path.join(self.root, BUNDLE), "w", encoding="utf-8") as fh:
            json.dump(self.bundle, fh)
        return BUNDLE


def _pig_verify_round(w: _Writer, rng: random.Random, r: int) -> list[dict]:
    jobs = []
    for i, n in enumerate(_strata(rng, 50, 150, 8)):
        g, _ = gen_threshold(n, 0.5, rng.randrange(2**32))
        jobs.append(w.graph(g, f"r{r}t{i}.txt", kind="complete-verify", klass="threshold", algorithm="threshold"))
    for i, spine in enumerate(_strata(rng, 200, 800, 8)):
        g, _ = gen_caterpillar(spine, 2, rng.randrange(2**32))
        jobs.append(w.graph(g, f"r{r}c{i}.txt", kind="complete-verify", klass="caterpillar", algorithm="caterpillar"))
    return jobs


def _sparse_complete_round(w: _Writer, rng: random.Random, r: int) -> list[dict]:
    jobs = []
    for i, spine in enumerate(_strata(rng, 1000, 10000, 10)):
        g, _ = gen_caterpillar(spine, 2, rng.randrange(2**32))
        jobs.append(w.graph(g, f"r{r}c{i}.txt", kind="complete", klass="caterpillar", algorithm="caterpillar"))
    for i, n in enumerate(_strata(rng, 100, 600, 10)):
        g, _ = gen_quasi_threshold(n, rng.randrange(2**32))
        jobs.append(w.graph(g, f"r{r}q{i}.txt", kind="complete", klass="quasi-threshold", algorithm="qt-cobipartite"))
    return jobs


def _small_exhaustive_round(w: _Writer, rng: random.Random, r: int) -> list[dict]:
    jobs = [{"kind": "xcheck", "suite": s} for s in ("threshold", "quasi-threshold", "caterpillar", "recognition")]
    # ~1500 graphs of a few bytes: one bundle, because creating that many
    # files took from 0.04 to 0.7 s on the same machine minutes apart
    for k in (6, 7):
        star = build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
        jobs.append(w.graph(star, f"r{r}k1_{k}", True, kind="oracle", klass="star", cost=_star_pig_cost(k)))
    # Trees on 9 vertices are left out: the 7 % of them whose optimum is 5
    # take ~75 ms each, so how many a seed drew moved the p90 by a quarter.
    for i in range(128):
        g = _random_tree(8, 3, rng)
        jobs.append(w.graph(g, f"r{r}t8_{i}", True, kind="oracle", klass="tree"))
    for n, lo, hi in ((8, 15, 22), (9, 25, 30)):
        for i, m in enumerate(_strata(rng, lo, hi + 1, 128)):
            g = _random_graph(n, m, rng)
            jobs.append(w.graph(g, f"r{r}g{n}_{i}", True, kind="oracle", klass="random"))
    return jobs


_ROUNDS = {
    "pig-verify": _pig_verify_round,
    "sparse-complete": _sparse_complete_round,
    "small-exhaustive": _small_exhaustive_round,
}


def write_corpus(workload: str, seed: int, root: str) -> dict:
    """Write every input file of one run under root and return its plan.

    ``corpus_sha256`` hashes the written files and the plan together.
    """
    distinct, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(root, rng)
    rounds = []
    for r in range(distinct):
        jobs = _ROUNDS[workload](w, rng, r)
        rng.shuffle(jobs)
        for i, job in enumerate(jobs):
            job["id"] = f"r{r}j{i}"
        rounds.append(jobs)
    plan = {"workload": workload, "seed": seed, "rounds": rounds, "bundle": w.close()}
    w.sha.update(json.dumps(plan, sort_keys=True).encode())
    plan["corpus_sha256"] = w.sha.hexdigest()
    return plan


def solves_per_round(plan: dict) -> int:
    return sum(1 for job in plan["rounds"][0] if job["kind"] != "xcheck")


def claw_file(root: str) -> str:
    """The claw K1,3, the input of the cold-start probe."""
    path = os.path.join(root, "claw.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("4\n0 1\n0 2\n0 3\n")
    return path
