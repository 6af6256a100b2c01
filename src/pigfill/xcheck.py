"""Oracle-equality sweeps: every fast algorithm against its brute-force twin.

The CLI ``xcheck`` subcommand and the acceptance tests both run these; the
functions return rows of (name, instances, failures) so callers can render
them however they like.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .caterpillar import build_placement_tables, caterpillar_pig_completion
from .graph import Graph, apply_fill, build_graph, connected_components
from .generators import (
    caterpillar_from_buckets,
    enumerate_rooted_forests,
    enumerate_threshold,
    gen_caterpillar,
    gen_quasi_threshold,
    gen_threshold,
)
from .oracle import (
    OracleBudget,
    brute_min_cobipartite,
    brute_min_pig,
    forbidden_subgraph_scan,
)
from .quasithreshold import build_dp_tables, qt_cobipartite_completion
from .recognition import (
    DOMINATING,
    caterpillar_decomposition,
    caterpillar_graph,
    is_proper_interval,
    qt_forest_graph,
    quasi_threshold_forest,
    replay_creation_sequence,
    split_partition,
    threshold_creation_sequence,
)
from .results import validate_completion
from .threshold import maxcut_identity_check, partition_cost, threshold_pig_completion


@dataclass
class CheckRow:
    name: str
    instances: int = 0
    failures: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def count(self, good: bool, note: str = "") -> None:
        self.instances += 1
        if not good:
            self.failures += 1
            if note and len(self.notes) < 10:
                self.notes.append(note)

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f"  [{'; '.join(self.notes)}]" if self.notes else ""
        return f"{status:4}  {self.name:<55} {self.instances:>7} instances, {self.failures} failures{extra}"


# ---------------------------------------------------------------------------
# threshold


def xcheck_threshold(
    max_n: int = 7, random_trials: int = 0, random_max_n: int = 16, seed: int = 0
) -> list[CheckRow]:
    budget = OracleBudget(max_vertices=max_n)
    optimality = CheckRow("threshold greedy cost == exhaustive PIG optimum")
    validity = CheckRow("threshold completion is valid and proper interval")
    equivalence = CheckRow("PIG optimum == co-bipartite optimum (connected)")
    duality = CheckRow("cost == pairs - edges - maxcut(complement) (connected)")
    for n in range(1, max_n + 1):
        for g, seq in enumerate_threshold(n):
            res = threshold_pig_completion(g, seq)
            pig_cost, _ = brute_min_pig(g, budget)
            optimality.count(res.cost == pig_cost, f"n={n} tags={seq.tags()} {res.cost}!={pig_cost}")
            ok = True
            try:
                validate_completion(g, res)
            except ValueError:
                ok = False
            ok = ok and is_proper_interval(apply_fill(g, res.fill)).is_pig
            validity.count(ok, f"n={n} tags={seq.tags()}")
            if n == 1 or seq.steps[-1][1] == DOMINATING:
                cobip_cost, _ = brute_min_cobipartite(g)
                equivalence.count(pig_cost == cobip_cost, f"n={n} tags={seq.tags()}")
                report = maxcut_identity_check(g)
                duality.count(
                    report.identity_holds and report.min_fill == res.cost,
                    f"n={n} tags={seq.tags()}",
                )
    rows = [optimality, validity, equivalence, duality]
    if random_trials:
        rnd = CheckRow("max-cut duality on random connected instances")
        rng = random.Random(seed)
        for _ in range(random_trials):
            n = rng.randint(2, random_max_n)
            g, _ = gen_threshold(n, rng.uniform(0.2, 0.8), rng.randrange(2**32))
            rnd.count(maxcut_identity_check(g).identity_holds, f"n={n}")
        rows.append(rnd)
    return rows


# ---------------------------------------------------------------------------
# quasi-threshold


def xcheck_quasithreshold(
    max_n: int = 8,
    lower_bound_max_n: int = 7,
    random_trials: int = 0,
    random_max_n: int = 12,
    seed: int = 0,
) -> list[CheckRow]:
    exactness = CheckRow("qt DP cost == exhaustive co-bipartite optimum")
    symmetry = CheckRow("qt DP rows are palindromes (side swap)")
    certificate = CheckRow("qt certificate sizes and cost match")
    lower = CheckRow("qt DP lower-bounds the PIG optimum (connected)")
    pig_budget = OracleBudget(max_vertices=lower_bound_max_n)
    for n in range(1, max_n + 1):
        for forest in enumerate_rooted_forests(n):
            g = qt_forest_graph(forest)
            res = qt_cobipartite_completion(g)
            cobip_cost, _ = brute_min_cobipartite(g)
            tables = build_dp_tables(forest, keep_cells=True)
            exactness.count(
                res.cost == cobip_cost and min(tables.root_row) == cobip_cost,
                f"n={n} {res.cost}!={cobip_cost}",
            )
            if tables.cells is None:
                raise AssertionError("build_dp_tables(keep_cells=True) kept no cells")
            symmetry.count(all(row == row[::-1] for row in tables.cells.values()), f"n={n}")
            cert = res.certificate
            rec_tables = build_dp_tables(quasi_threshold_forest(g))
            j_star = rec_tables.root_row.index(min(rec_tables.root_row))
            certificate.count(
                len(cert.s1) == j_star
                and len(cert.s2) == g.n - j_star
                and partition_cost(g, (cert.s1, cert.s2)) == res.cost,
                f"n={n}",
            )
            if n <= lower_bound_max_n and len(forest.roots) == 1:
                pig_cost, _ = brute_min_pig(g, pig_budget)
                lower.count(res.cost <= pig_cost, f"n={n} {res.cost}>{pig_cost}")
                if res.cost < pig_cost:
                    lower.notes.append(f"strict gap at n={n}: cobip {res.cost} < pig {pig_cost}")
    rows = [exactness, symmetry, certificate, lower]
    if random_trials:
        rnd = CheckRow("qt DP == co-bipartite optimum on random forests")
        rng = random.Random(seed)
        for _ in range(random_trials):
            n = rng.randint(1, random_max_n)
            g, forest = gen_quasi_threshold(n, rng.randrange(2**32))
            cost = min(build_dp_tables(forest).root_row)
            oracle_cost, _ = brute_min_cobipartite(g)
            ok = cost == oracle_cost and qt_cobipartite_completion(g).cost == oracle_cost
            rnd.count(ok, f"n={n}")
        rows.append(rnd)
    return rows


# ---------------------------------------------------------------------------
# caterpillar


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _canonical_caterpillar_key(g: Graph) -> tuple[int, ...]:
    d = caterpillar_decomposition(g)
    if d is None:
        raise AssertionError("enumerated caterpillar has no decomposition")
    sizes = d.bucket_sizes
    return min(sizes, sizes[::-1])


def xcheck_caterpillar(
    max_n: int = 8, random_trials: int = 0, random_max_n: int = 10, seed: int = 0
) -> list[CheckRow]:
    exactness = CheckRow("caterpillar DP cost == exhaustive PIG optimum")
    validity = CheckRow("caterpillar fill is valid and proper interval")
    reversal = CheckRow("caterpillar DP is reversal invariant")
    memo: dict[tuple[int, ...], int] = {}

    def check_instance(g: Graph, d, budget: OracleBudget) -> None:
        res = caterpillar_pig_completion(g)
        key = _canonical_caterpillar_key(g)
        if key not in memo:
            memo[key] = brute_min_pig(g, budget)[0]
        exactness.count(res.cost == memo[key], f"buckets={key} {res.cost}!={memo[key]}")
        ok = len(res.fill) == res.cost and all(not g.has_edge(u, v) for u, v in res.fill)
        ok = ok and is_proper_interval(apply_fill(g, res.fill)).is_pig
        try:
            validate_completion(g, res)
        except ValueError:
            ok = False
        validity.count(ok, f"buckets={key}")
        reversal.count(
            build_placement_tables(d).answer == build_placement_tables(d.reversed()).answer,
            f"buckets={key}",
        )

    budget = OracleBudget(max_vertices=max_n)
    for n in range(1, max_n + 1):
        for spine_len in range(1, n + 1):
            for sizes in _compositions(n - spine_len, spine_len):
                if sizes > sizes[::-1]:
                    continue  # reversed twin covers it
                g, d = caterpillar_from_buckets(sizes)
                check_instance(g, d, budget)
    rows = [exactness, validity, reversal]
    if random_trials:
        rng = random.Random(seed)
        budget = OracleBudget(max_vertices=random_max_n)
        done = 0
        while done < random_trials:
            spine_len = rng.randint(2, 5)
            g, d = gen_caterpillar(spine_len, 2, rng.randrange(2**32))
            if g.n > random_max_n:
                continue
            check_instance(g, d, budget)
            done += 1
    return rows


# ---------------------------------------------------------------------------
# recognition


def _all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _has_dominating_path(g: Graph) -> bool:
    """Some simple path sees every vertex (true for a tree iff caterpillar)."""
    full = (1 << g.n) - 1
    if g.n <= 1:
        return True

    def extend(v: int, visited: int, seen: int) -> bool:
        if seen == full:
            return True
        mm = g.masks[v] & ~visited
        while mm:
            low = mm & -mm
            w = low.bit_length() - 1
            mm ^= low
            if extend(w, visited | low, seen | g.masks[w] | low):
                return True
        return False

    return any(extend(v, 1 << v, (1 << v) | g.masks[v]) for v in range(g.n))


def xcheck_recognition(max_n: int = 6) -> list[CheckRow]:
    if max_n > 7:
        raise ValueError(
            f"the recognition sweep is exhaustive over all 2^(n(n-1)/2) graphs; refusing max_n={max_n} > 7"
        )
    thr = CheckRow("threshold recognizer == {2K2, C4, P4} scan")
    thr_replay = CheckRow("creation sequences replay to the input")
    qt = CheckRow("qt recognizer == {P4, C4} scan")
    qt_rebuild = CheckRow("qt forests rebuild the input")
    pig = CheckRow("PIG recognizer == chordal + {claw, net, tent} scan")
    split = CheckRow("split recognizer == {2K2, C4, C5} scan")
    cater = CheckRow("caterpillar recognizer == tree with dominating path")
    cater_rebuild = CheckRow("caterpillar decompositions rebuild the input")
    for n in range(1, max_n + 1):
        for g in _all_graphs(n):
            seq = threshold_creation_sequence(g)
            thr.count((seq is not None) == (forbidden_subgraph_scan(g, "threshold") is None))
            if seq is not None:
                thr_replay.count(replay_creation_sequence(seq) == g)
            forest = quasi_threshold_forest(g)
            qt.count((forest is not None) == (forbidden_subgraph_scan(g, "quasi-threshold") is None))
            if forest is not None:
                qt_rebuild.count(qt_forest_graph(forest) == g)
            pig.count(is_proper_interval(g).is_pig == (forbidden_subgraph_scan(g, "pig") is None))
            split.count(
                (split_partition(g) is not None) == (forbidden_subgraph_scan(g, "split") is None)
            )
            d = caterpillar_decomposition(g)
            is_tree = g.m == g.n - 1 and len(connected_components(g)) == 1
            cater.count((d is not None) == (is_tree and _has_dominating_path(g)), f"n={n}")
            if d is not None:
                cater_rebuild.count(caterpillar_graph(d) == g)
    return [thr, thr_replay, qt, qt_rebuild, pig, split, cater, cater_rebuild]


# ---------------------------------------------------------------------------
# dispatch


SUITES = {
    "threshold": xcheck_threshold,
    "quasi-threshold": xcheck_quasithreshold,
    "caterpillar": xcheck_caterpillar,
    "recognition": xcheck_recognition,
}


def run_xcheck(klass: str, max_n: int | None = None) -> list[CheckRow]:
    if klass != "all" and klass not in SUITES:
        raise ValueError(f"unknown xcheck class {klass!r}; choose from {sorted(SUITES)} or 'all'")
    rows = []
    for name, fn in SUITES.items():
        if klass in ("all", name):
            rows.extend(fn() if max_n is None else fn(max_n))
    return rows

