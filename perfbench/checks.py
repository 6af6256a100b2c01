"""Checks on the program's outputs, written without importing pigfill.

Every check returns None when the output is acceptable and a one-line reason
when it is not.  The checks are cheap enough to run after every call at any n:
they parse the input file with their own reader and look only at the envelope.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import combinations

# Instance counts that each row of `pigfill xcheck --class <suite>` must
# report at the default sizes.  They are enumeration totals, not measured
# outputs: 127 creation sequences with n <= 7 (64 of them connected), 485
# rooted forests with n <= 8 (85 rooted trees with n <= 7), 150 caterpillar
# bucket sequences up to reversal with n <= 8, and 33 867 labelled graphs with
# n <= 6, of which 3 263 are threshold, 4 606 quasi-threshold and 1 442
# caterpillars.
XCHECK_ROWS = {
    "threshold": (127, 127, 64, 64),
    "quasi-threshold": (485, 485, 485, 85),
    "caterpillar": (150, 150, 150),
    "recognition": (33867, 3263, 33867, 4606, 33867, 33867, 33867, 1442),
}

_ROW = re.compile(r"^(pass|FAIL)\s+.*?\s(\d+) instances, (\d+) failures")


def edge_set(text: str) -> set[tuple[int, int]]:
    """Canonical edge set of an edge list as corpus.py writes it."""
    it = map(int, text.split()[1:])
    return {(a, b) if a < b else (b, a) for a, b in zip(it, it)}


def check_fill(env: dict, n: int, edges: set[tuple[int, int]]) -> str | None:
    """cost == |fill|; every fill edge canonical, in range, new and listed once."""
    fill = env.get("fill_edges")
    if not isinstance(fill, list):
        return "envelope has no fill_edges list"
    if env.get("cost") != len(fill):
        return f"cost {env.get('cost')} != {len(fill)} fill edges"
    if fill:
        if set(map(type, fill)) != {list} or set(map(len, fill)) != {2}:
            return "fill entries are not pairs"
        us, vs = zip(*fill)
        if set(map(type, us + vs)) != {int}:
            return "fill entries are not integer pairs"
        if min(us) < 0 or max(vs) >= n or not all(map(int.__lt__, us, vs)):
            return f"a fill edge is not a pair u < v < {n}"
    seen = set(zip(us, vs)) if fill else set()
    if len(seen) != len(fill):
        return "a fill edge is listed twice"
    if not seen.isdisjoint(edges):
        return f"fill edge {min(seen & edges)} is an input edge"
    part = env.get("partition")
    if part is not None:
        # a clique bipartition certificate: the fill is exactly the non-edges
        # inside the two sides
        s1, s2 = sorted(part["s1"]), sorted(part["s2"])
        if set(s1) & set(s2):
            return "partition sides overlap"
        inside = set(combinations(s1, 2)) | set(combinations(s2, 2))
        if inside - edges != seen:
            return "fill differs from the non-edges inside the partition"
    return None


def check_envelope(text: str, job: dict, edges: set[tuple[int, int]]) -> tuple[dict | None, str | None]:
    """Parse a `complete --json` or `oracle pig --json` envelope and check it."""
    try:
        env = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"envelope does not parse: {exc}"
    if not isinstance(env, dict):
        return None, "envelope is not an object"
    inp = env.get("input") or {}
    if inp.get("n") != job["n"] or inp.get("m") != job["m"]:
        return env, f"envelope input n={inp.get('n')} m={inp.get('m')}, expected {job['n']} {job['m']}"
    want_algo = job.get("algorithm")
    if want_algo is not None and env.get("algorithm") != want_algo:
        return env, f"algorithm {env.get('algorithm')!r}, expected {want_algo!r}"
    want_cost = job.get("cost")
    if want_cost is not None and env.get("cost") != want_cost:
        return env, f"cost {env.get('cost')}, expected {want_cost}"
    return env, check_fill(env, job["n"], edges)


def check_xcheck(text: str, suite: str) -> tuple[int, str | None]:
    """Instances counted by an xcheck run, and a reason if the run is wrong."""
    lines = text.strip().splitlines()
    if not lines or lines[-1].strip() != "all checks passed":
        return 0, "xcheck did not end with 'all checks passed'"
    counts = []
    for ln in lines[:-1]:
        m = _ROW.match(ln)
        if m is None:
            return 0, f"unparsed xcheck row {ln!r}"
        if m.group(1) != "pass" or m.group(3) != "0":
            return 0, f"failing xcheck row {ln!r}"
        counts.append(int(m.group(2)))
    if tuple(counts) != XCHECK_ROWS[suite]:
        return sum(counts), f"xcheck {suite} rows count {counts}, expected {list(XCHECK_ROWS[suite])}"
    return sum(counts), None


def envelope_digest(text: str) -> bytes:
    """Digest of an envelope's text without its runtime_ms line."""
    key = text.find('"runtime_ms": ')
    if key >= 0:
        start = text.rfind("\n", 0, key) + 1
        text = text[:start] + text[text.index("\n", key) + 1 :]
    return hashlib.sha256(text.encode()).digest()
