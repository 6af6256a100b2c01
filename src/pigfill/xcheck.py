"""Oracle-equality sweeps: every fast algorithm against its brute-force twin.

The CLI ``xcheck`` subcommand and the acceptance tests both run these; the
functions return rows of (name, instances, failures) so callers can render
them however they like.  The checks that only these rows need, the partition
cost and the threshold max-cut identity, live here and not beside the solvers.

The exhaustive recognition sweep cuts its enumeration into chunks and runs
them in forked worker processes, one per usable CPU (in process when there is
one CPU or no ``fork``).  Rows merge in enumeration order: counts add and the
first ten notes are kept, so the rows are the same on any number of CPUs.
Its reference answers come from the oracle's hereditary membership tables,
not from a subset scan per graph.  Each call builds the tables of the sizes
below the top one before it forks.  Each top-size chunk builds its own
entries from the table below.  The word "scan" in the row names means the
tables' answer, which the tests hold equal to ``oracle.forbidden_subgraph_scan``
of each family; both read the oracle's one table of forbidden shapes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .caterpillar import build_placement_tables, caterpillar_pig_completion
from .errors import GraphInputError, OracleBudgetError
from .graph import Graph, apply_fill, complement, connected_components, induced_subgraph, non_edges_within
from .generators import (
    caterpillar_from_buckets,
    enumerate_rooted_forests,
    enumerate_threshold,
    gen_caterpillar,
    gen_quasi_threshold,
    gen_threshold,
)
from .oracle import (
    _PIG,
    _QT,
    _SPLIT,
    _THRESHOLD,
    _member_tables,
    _members,
    brute_max_cut,
    brute_min_cobipartite,
    brute_min_pig,
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
from .threshold import threshold_pig_completion, threshold_run


_MAX_NOTES = 10  # a row keeps the notes of its first failures only


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
            if note and len(self.notes) < _MAX_NOTES:
                self.notes.append(note)

    def add(self, later: CheckRow) -> None:
        """Fold in the counts and notes of a later part of the same check."""
        self.instances += later.instances
        self.failures += later.failures
        self.notes.extend(later.notes[: _MAX_NOTES - len(self.notes)])

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f"  [{'; '.join(self.notes)}]" if self.notes else ""
        return f"{status:4}  {self.name:<55} {self.instances:>7} instances, {self.failures} failures{extra}"


def _valid_pig_completion(g: Graph, res) -> bool:
    """The result passes ``validate_completion`` and its fill makes g proper interval."""
    try:
        validate_completion(g, res)
    except ValueError:
        return False
    return is_proper_interval(apply_fill(g, res.fill)).is_pig


# ---------------------------------------------------------------------------
# threshold


def partition_cost(g: Graph, parts: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """Non-edges inside the two parts of a bipartition of V."""
    a, b = parts
    if set(a) & set(b) or len(a) + len(b) != g.n or set(a) | set(b) != set(range(g.n)):
        raise GraphInputError("parts do not partition the vertex set")
    return len(non_edges_within(g, a, b))


@dataclass(frozen=True)
class MaxcutIdentityReport:
    """Cross-check of fill minimization against max-cut in the complement.

    Computed on the vertices that are not isolated in the input (the only ones
    the completion touches): min_fill must equal pairs - edges - max cut of the
    complement of that induced subgraph.
    """

    min_fill: int
    max_cut_complement: int
    pairs: int
    edges: int
    component_size: int
    identity_holds: bool


def maxcut_identity_check(g: Graph) -> MaxcutIdentityReport:
    """The identity on g, with the max-cut oracle at its default budget."""
    run = threshold_run(g)
    active = sorted(v for v in range(g.n) if g.degree(v) > 0)
    sub, _ = induced_subgraph(g, active)
    cut, _ = brute_max_cut(complement(sub))
    pairs = sub.n * (sub.n - 1) // 2
    return MaxcutIdentityReport(
        min_fill=run.cost,
        max_cut_complement=cut,
        pairs=pairs,
        edges=sub.m,
        component_size=sub.n,
        identity_holds=run.cost == pairs - sub.m - cut,
    )


_THRESHOLD_RANDOM_MAX_N = 16  # the largest random instance of the duality row


def xcheck_threshold(max_n: int = 7, random_trials: int = 0, seed: int = 0) -> list[CheckRow]:
    optimality = CheckRow("threshold greedy cost == exhaustive PIG optimum")
    validity = CheckRow("threshold completion is valid and proper interval")
    equivalence = CheckRow("PIG optimum == co-bipartite optimum (connected)")
    duality = CheckRow("cost == pairs - edges - maxcut(complement) (connected)")
    for n in range(1, max_n + 1):
        for g, seq in enumerate_threshold(n):
            res = threshold_pig_completion(g)
            pig_cost, _ = brute_min_pig(g, max_n)
            optimality.count(res.cost == pig_cost, f"n={n} tags={seq.tags()} {res.cost}!={pig_cost}")
            validity.count(_valid_pig_completion(g, res), f"n={n} tags={seq.tags()}")
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
            n = rng.randint(2, _THRESHOLD_RANDOM_MAX_N)
            g, _ = gen_threshold(n, rng.uniform(0.2, 0.8), rng.randrange(2**32))
            rnd.count(maxcut_identity_check(g).identity_holds, f"n={n}")
        rows.append(rnd)
    return rows


# ---------------------------------------------------------------------------
# quasi-threshold


_QT_LOWER_BOUND_MAX_N = 7  # the largest tree the lower-bound row gives the PIG oracle
_QT_RANDOM_MAX_N = 12  # the largest random forest


def xcheck_quasithreshold(max_n: int = 8, random_trials: int = 0, seed: int = 0) -> list[CheckRow]:
    exactness = CheckRow("qt DP cost == exhaustive co-bipartite optimum")
    symmetry = CheckRow("qt DP rows are palindromes (side swap)")
    certificate = CheckRow("qt certificate sizes and cost match")
    lower = CheckRow("qt DP lower-bounds the PIG optimum (connected)")
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
            # root_row[j] is the optimum with j vertices on side 1, whatever forest realizes g
            j_star = tables.root_row.index(min(tables.root_row))
            certificate.count(
                len(cert.s1) == j_star
                and len(cert.s2) == g.n - j_star
                and partition_cost(g, (cert.s1, cert.s2)) == res.cost,
                f"n={n}",
            )
            if n <= _QT_LOWER_BOUND_MAX_N and len(forest.roots) == 1:
                pig_cost, _ = brute_min_pig(g, _QT_LOWER_BOUND_MAX_N)
                lower.count(res.cost <= pig_cost, f"n={n} {res.cost}>{pig_cost}")
                if res.cost < pig_cost:
                    lower.notes.append(f"strict gap at n={n}: cobip {res.cost} < pig {pig_cost}")
    rows = [exactness, symmetry, certificate, lower]
    if random_trials:
        rnd = CheckRow("qt DP == co-bipartite optimum on random forests")
        rng = random.Random(seed)
        for _ in range(random_trials):
            n = rng.randint(1, _QT_RANDOM_MAX_N)
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


_CATERPILLAR_RANDOM_MAX_N = 10  # random caterpillars with more vertices are drawn again


def xcheck_caterpillar(max_n: int = 8, random_trials: int = 0, seed: int = 0) -> list[CheckRow]:
    exactness = CheckRow("caterpillar DP cost == exhaustive PIG optimum")
    validity = CheckRow("caterpillar fill is valid and proper interval")
    reversal = CheckRow("caterpillar DP is reversal invariant")
    memo: dict[tuple[int, ...], int] = {}

    def check_instance(g: Graph, d, oracle_max_n: int) -> None:
        res = caterpillar_pig_completion(g)
        key = _canonical_caterpillar_key(g)
        if key not in memo:
            memo[key] = brute_min_pig(g, oracle_max_n)[0]
        exactness.count(res.cost == memo[key], f"buckets={key} {res.cost}!={memo[key]}")
        validity.count(_valid_pig_completion(g, res), f"buckets={key}")
        reversal.count(
            build_placement_tables(d).answer == build_placement_tables(d.reversed()).answer,
            f"buckets={key}",
        )

    for n in range(1, max_n + 1):
        for spine_len in range(1, n + 1):
            for sizes in _compositions(n - spine_len, spine_len):
                if sizes > sizes[::-1]:
                    continue  # reversed twin covers it
                g, d = caterpillar_from_buckets(sizes)
                check_instance(g, d, max_n)
    rows = [exactness, validity, reversal]
    if random_trials:
        rng = random.Random(seed)
        done = 0
        while done < random_trials:
            spine_len = rng.randint(2, 5)
            g, d = gen_caterpillar(spine_len, 2, rng.randrange(2**32))
            if g.n > _CATERPILLAR_RANDOM_MAX_N:
                continue
            check_instance(g, d, _CATERPILLAR_RANDOM_MAX_N)
            done += 1
    return rows


# ---------------------------------------------------------------------------
# recognition


_CHUNK_GRAPHS = 2048  # the most graphs one chunk of the recognition sweep holds


def _chunk_size(n: int, k: int) -> int:
    """Graphs in a chunk of ``_all_graphs(n)`` that fixes the product's first k runs.

    The product's i-th run is row n - 1 - i's, with 2^i values.
    """
    return 1 << (n * (n - 1) // 2 - k * (k - 1) // 2)


def _sweep_chunks(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The chunks of ``_all_graphs(n)`` in its order, as (n, fixed run values).

    A chunk fixes the values of the product's first k runs (rows n - 1, n - 2,
    ...), with k the smallest that leaves at most ``_CHUNK_GRAPHS`` graphs, so
    the chunks are consecutive blocks of the enumeration and each one builds
    only its own graphs.
    """
    k = 0
    while _chunk_size(n, k) > _CHUNK_GRAPHS:
        k += 1
    return [(n, fixed) for fixed in product(*(range(1 << i) for i in range(k)))]


def _chunk_start(chunk: tuple[int, tuple[int, ...]]) -> int:
    """The code of a chunk's first graph: its fixed run values at their rows' bits.

    Row u's pairs to later vertices take bits u(2n - u - 1)/2 on, and the
    product's i-th run is row n - 1 - i's.
    """
    n, fixed = chunk
    return sum(r << (u * (2 * n - u - 1) // 2) for u, r in zip(range(n - 1, -1, -1), fixed))


def _chunk_graphs(chunk: tuple[int, tuple[int, ...]]):
    """The graphs of one chunk of ``_all_graphs``, in its order.

    The graph at position p has code ``_chunk_start(chunk) + p``; its cached
    ``masks`` are its rows and its cached ``m`` is the code's popcount.
    """
    n, fixed = chunk
    runs = []
    for u in reversed(range(n)):
        run = []
        for r in range(1 << (n - 1 - u)):
            rows = [0] * n
            rows[u] = r << (u + 1)
            for v in range(u + 1, n):
                rows[v] = (r >> (v - u - 1) & 1) << u
            run.append(tuple(rows))
        runs.append(run)
    neighbors_of = [tuple(v for v in range(n) if row >> v & 1) for row in range(1 << n)]
    # the fixed runs' rows, summed once for the chunk
    head = tuple(map(sum, zip([0] * n, *(run[r] for run, r in zip(runs, fixed)))))
    for code, parts in enumerate(product(*runs[len(fixed) :]), _chunk_start(chunk)):
        masks = tuple(map(sum, zip(head, *parts)))
        g = Graph(n, tuple(map(neighbors_of.__getitem__, masks)))
        g.__dict__["masks"] = masks
        g.__dict__["m"] = code.bit_count()
        yield g


def _all_graphs(n: int):
    """Every labelled graph on n vertices, with its rows cached as ``masks``.

    Graph ``k`` has pair ``i`` of ``combinations(range(n), 2)`` iff bit i of k
    is set.  Row u's pairs to later vertices are one run of those bits, and
    row 0's run is the lowest, so a product over the runs with row 0 last
    yields the graphs in the same order.  A run value contributes its bits to
    row u and one bit u to each later row it reaches; the contributions are
    disjoint, so each row is their sum.  ``_sweep_chunks`` cuts the product
    into consecutive blocks.
    """
    for chunk in _sweep_chunks(n):
        yield from _chunk_graphs(chunk)


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


_SWEEP_MAX_N = 7


def _require_sweep_n(max_n: int) -> None:
    if max_n > _SWEEP_MAX_N:
        raise OracleBudgetError(
            "the recognition sweep is exhaustive over all 2^(n(n-1)/2) graphs;"
            f" refusing max_n={max_n} > {_SWEEP_MAX_N}"
        )


_RECOGNITION_ROWS = (
    "threshold recognizer == {2K2, C4, P4} scan",
    "creation sequences replay to the input",
    "qt recognizer == {P4, C4} scan",
    "qt forests rebuild the input",
    "PIG recognizer == chordal + {claw, net, tent} scan",
    "split recognizer == {2K2, C4, C5} scan",
    "caterpillar recognizer == tree with dominating path",
    "caterpillar decompositions rebuild the input",
)


def _recognition_rows(chunk: tuple[int, tuple[int, ...]], tables: list[bytes]) -> list[CheckRow]:
    """The recognition sweep's rows over one chunk of ``_all_graphs``.

    Below the top size the chunk's membership entries are a slice of its
    size's table; at the top size they are built from the table below it.
    Each graph is dropped at once, so the class recognizers are called
    undecorated, without storing their certificates on it.
    """
    n, fixed = chunk
    start, count = _chunk_start(chunk), _chunk_size(n, len(fixed))
    if n < len(tables):
        entries = tables[n][start : start + count]
    else:
        entries = _members(n, start, count, tables[n - 1])
    sequence_of, forest_of, decomposition_of = (
        getattr(fn, "__wrapped__", fn)
        for fn in (threshold_creation_sequence, quasi_threshold_forest, caterpillar_decomposition)
    )
    rows = [CheckRow(name) for name in _RECOGNITION_ROWS]
    thr, thr_replay, qt, qt_rebuild, pig, split, cater, cater_rebuild = rows
    for g, bits in zip(_chunk_graphs(chunk), entries):
        seq = sequence_of(g)
        thr.count((seq is not None) == bool(bits & _THRESHOLD))
        if seq is not None:
            thr_replay.count(replay_creation_sequence(seq) == g)
        forest = forest_of(g)
        qt.count((forest is not None) == bool(bits & _QT))
        if forest is not None:
            qt_rebuild.count(qt_forest_graph(forest) == g)
        pig.count(is_proper_interval(g).is_pig == bool(bits & _PIG))
        split.count((split_partition(g) is not None) == bool(bits & _SPLIT))
        d = decomposition_of(g)
        is_tree = g.m == g.n - 1 and len(connected_components(g)) == 1
        cater.count((d is not None) == (is_tree and _has_dominating_path(g)), f"n={n}")
        if d is not None:
            cater_rebuild.count(caterpillar_graph(d) == g)
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(chunks: list[tuple[int, tuple[int, ...]]], tables: list[bytes]) -> list[list[CheckRow]]:
    """``_recognition_rows`` of every chunk, in chunk order, one process per usable CPU."""
    rows_of = partial(_recognition_rows, tables=tables)
    processes = min(_usable_cpus(), len(chunks))
    if processes > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            # Forked workers start with every module loaded and inherit the
            # parent's state, test patches included.  Pool forks all of them
            # before it starts its own threads, so no fork sees a thread.
            with multiprocessing.get_context("fork").Pool(processes) as pool:
                # one chunk per task, so the workers finish within a chunk of each other
                parts = pool.map(rows_of, chunks, chunksize=1)
                pool.close()
                pool.join()
            return parts
    return list(map(rows_of, chunks))


def xcheck_recognition(max_n: int = 6) -> list[CheckRow]:
    """Recognizers against forbidden-subgraph membership on every graph with n <= max_n.

    The graphs are split into chunks that run on every usable CPU; the rows
    are the chunks' rows merged in enumeration order, so they equal a single
    in-process pass.
    """
    _require_sweep_n(max_n)
    rows = [CheckRow(name) for name in _RECOGNITION_ROWS]
    chunks = [c for n in range(1, max_n + 1) for c in _sweep_chunks(n)]
    for part in _map_chunks(chunks, _member_tables(max_n)):
        for row, more in zip(rows, part):
            row.add(more)
    return rows


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
    if max_n is not None and klass in ("all", "recognition"):
        _require_sweep_n(max_n)  # refuse before any other suite runs
    rows = []
    for name, fn in SUITES.items():
        if klass in ("all", name):
            rows.extend(fn() if max_n is None else fn(max_n))
    return rows

