"""Command-line front end.

Subcommands: recognize, complete, oracle, gen, verify, xcheck.  Human-readable
text by default; ``--json`` switches to the documented envelope (see
docs/schema.json).  Exit codes: 0 success, 1 graph not in the required class
or verification rejected, 2 parse/input error, 3 oracle budget refusal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter

from .caterpillar import caterpillar_pig_completion
from .errors import ClassMembershipError, GraphInputError, OracleBudgetError
from .generators import (
    gen_caterpillar,
    gen_quasi_threshold,
    gen_split,
    gen_threshold,
    split_pig_reduction_gadget,
)
from .graph import Graph, apply_fill, edge, sorted_edges
from .graphio import load_graph, parse_graph, serialize_graph
from .oracle import OracleBudget, brute_max_cut, brute_min_cobipartite, brute_min_pig
from .quasithreshold import qt_cobipartite_completion
from .recognition import (
    PigVerdict,
    caterpillar_decomposition,
    is_proper_interval,
    quasi_threshold_forest,
    split_partition,
    threshold_creation_sequence,
)
from .results import CliqueBipartition, CompletionResult, PointPlacement
from .threshold import threshold_pig_completion
from .xcheck import SUITES, run_xcheck

SCHEMA_VERSION = 1

# One row per graph class, most specific first, which is also the order in
# which ``complete --algo auto`` tries the rows that have a completer.  A
# completer accepts its row's certificate.  Rows are module-level dicts so that
# tracers patching module attributes and module dicts reach the functions.
_THRESHOLD = dict(
    name="threshold", key="threshold", algo="threshold",
    recognize=threshold_creation_sequence, complete=threshold_pig_completion,
    json=lambda seq: {"steps": [[v, t] for v, t in seq.steps]},
)
_CATERPILLAR = dict(
    name="caterpillar", key="caterpillar", algo="caterpillar",
    recognize=caterpillar_decomposition, complete=caterpillar_pig_completion,
    json=lambda d: {"spine": list(d.spine), "buckets": [list(b) for b in d.buckets]},
)
_QUASI_THRESHOLD = dict(
    name="quasi-threshold", key="quasiThreshold", algo="qt-cobipartite",
    recognize=quasi_threshold_forest, complete=qt_cobipartite_completion,
    json=lambda f: {"parents": list(f.parent), "roots": list(f.roots)},
)
_SPLIT = dict(
    name="split", key="split", algo=None,
    recognize=split_partition, complete=None,
    json=lambda p: {"clique": list(p.clique), "independent": list(p.independent)},
)
_PROPER_INTERVAL = dict(
    name="proper-interval", key="properInterval", algo=None,
    recognize=is_proper_interval, complete=None,
    json=lambda v: {
        "isProperInterval": v.is_pig,
        "witnessKind": v.witness_kind,
        "witness": list(v.witness) if v.witness else None,
    },
)
CLASSES = (_THRESHOLD, _CATERPILLAR, _QUASI_THRESHOLD, _SPLIT, _PROPER_INTERVAL)
_COMPLETABLE = [row for row in CLASSES if row["complete"]]


def _read_graph(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    return load_graph(path)


def _digest(g: Graph) -> str:
    return "sha256:" + hashlib.sha256(serialize_graph(g).encode()).hexdigest()


def _envelope(g: Graph, result: CompletionResult, runtime_ms: float, sequence: dict | None) -> dict:
    env: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": {"digest": _digest(g), "n": g.n, "m": g.m},
        "algorithm": result.algorithm,
        "cost": result.cost,
        "fill_edges": [list(e) for e in sorted_edges(result.fill)] if result.fill is not None else None,
        "runtime_ms": round(runtime_ms, 3),
    }
    cert = result.certificate
    if isinstance(cert, CliqueBipartition):
        env["partition"] = {"s1": list(cert.s1), "s2": list(cert.s2)}
    elif isinstance(cert, PointPlacement):
        env["placement"] = {"spine": list(cert.spine), "points": [list(p) for p in cert.points]}
    if sequence is not None:
        env["sequence"] = sequence
    if result.lower_bound_for:
        env["lower_bound_for"] = result.lower_bound_for
    return env


def _print_envelope_text(env: dict) -> None:
    print(f"algorithm    {env['algorithm']}")
    print(f"cost         {env['cost']}")
    if env.get("lower_bound_for"):
        print(f"lower bound  for {env['lower_bound_for']} (co-bipartite target, not PIG)")
    if env.get("fill_edges") is not None:
        shown = " ".join(f"{u}-{v}" for u, v in env["fill_edges"])
        print(f"fill         {shown if shown else '(none)'}")
    if "partition" in env:
        print(f"side 1       {env['partition']['s1']}")
        print(f"side 2       {env['partition']['s2']}")
    if "placement" in env:
        print(f"spine        {env['placement']['spine']}")
        print(f"leaf points  {env['placement']['points']}")
    print(f"runtime      {env['runtime_ms']} ms")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_recognize(args) -> int:
    g = _read_graph(args.graph)
    certs = [row["recognize"](g) for row in CLASSES]
    # every graph gets a PigVerdict; only the others signal non-membership with None
    members = [cert.is_pig if isinstance(cert, PigVerdict) else cert is not None for cert in certs]
    out = {
        "schema_version": SCHEMA_VERSION,
        "input": {"digest": _digest(g), "n": g.n, "m": g.m},
        "classes": {row["key"]: member for row, member in zip(CLASSES, members)},
        "mostSpecific": next((row["name"] for row, member in zip(CLASSES, members) if member), "none"),
        "certificates": {
            row["key"]: None if cert is None else row["json"](cert) for row, cert in zip(CLASSES, certs)
        },
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_complete(args) -> int:
    start = time.perf_counter()
    g = _read_graph(args.graph)
    sequence = None
    for row in _COMPLETABLE:
        if args.algo not in ("auto", row["algo"]):
            continue
        cert = row["recognize"](g)
        # an explicit --algo runs even without a certificate: the completer
        # then recognizes again and raises with a witness
        if cert is not None or args.algo != "auto":
            if row is _THRESHOLD:
                result = row["complete"](g, cert, cost_only=args.cost_only)
                sequence = row["json"](cert)
            else:
                result = row["complete"](g, cert)
            break
    else:
        if args.algo == "auto" and g.n > args.max_n:
            *first, last = (row["name"] for row in _COMPLETABLE)
            raise ClassMembershipError(f"{', '.join(first)} or {last} (and too large for the oracle)")
        cost, fill = brute_min_pig(g, OracleBudget(max_vertices=args.max_n))
        result = CompletionResult(fill, cost, None, "oracle")
    runtime_ms = (time.perf_counter() - start) * 1000.0
    env = _envelope(g, result, runtime_ms, sequence)
    if args.json:
        print(json.dumps(env, indent=2))
    else:
        _print_envelope_text(env)
    return 0


def _cmd_oracle(args) -> int:
    start = time.perf_counter()
    g = _read_graph(args.graph)
    budget = OracleBudget(max_vertices=args.max_n) if args.max_n else None
    if args.solver == "pig":
        cost, fill = brute_min_pig(g, budget or OracleBudget(max_vertices=8))
        payload = {"cost": cost, "fill_edges": [list(e) for e in sorted_edges(fill)]}
    elif args.solver == "cobip":
        cost, parts = brute_min_cobipartite(g, budget)
        payload = {"cost": cost, "parts": [list(parts[0]), list(parts[1])]}
    else:
        size, parts = brute_max_cut(g, budget)
        payload = {"cut": size, "parts": [list(parts[0]), list(parts[1])]}
    runtime_ms = (time.perf_counter() - start) * 1000.0
    out = {
        "schema_version": SCHEMA_VERSION,
        "input": {"digest": _digest(g), "n": g.n, "m": g.m},
        "oracle": args.solver,
        "runtime_ms": round(runtime_ms, 3),
        **payload,
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:12} {value}")
    return 0


def _cmd_gen(args) -> int:
    if args.klass == "gadget":
        if not args.input:
            raise GraphInputError("gen gadget needs --input with a connected split graph")
        base = _read_graph(args.input)
        gadget = split_pig_reduction_gadget(base)
        g = gadget.graph
        spec = {"class": "gadget", "input_digest": _digest(base)}
        certificate = {
            "copyMaps": [list(m) for m in gadget.copy_maps],
            "bigClique": list(gadget.big_clique),
            "independentCopies": [list(m) for m in gadget.independent_copies],
        }
    else:
        spec = {"class": args.klass, "seed": args.seed}
        if args.klass == "threshold":
            g, cert = gen_threshold(args.n, args.p_dominating, args.seed)
            spec.update(n=args.n, p_dominating=args.p_dominating)
        elif args.klass == "quasi-threshold":
            g, cert = gen_quasi_threshold(args.n, args.seed)
            spec.update(n=args.n)
        elif args.klass == "caterpillar":
            g, cert = gen_caterpillar(args.spine_len, args.max_leaves, args.seed)
            spec.update(spine_len=args.spine_len, max_leaves=args.max_leaves)
        else:  # split
            g, cert = gen_split(args.n, args.seed)
            spec.update(n=args.n)
        certificate = next(row["json"] for row in CLASSES if row["name"] == args.klass)(cert)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec,
        "digest": _digest(g),
        "certificate": certificate,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_graph(g))
        with open(args.out + ".cert.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
        print(f"wrote {args.out} and {args.out}.cert.json")
    elif args.json:
        print(json.dumps({"graph": serialize_graph(g), **sidecar}, indent=2))
    else:
        sys.stdout.write(serialize_graph(g))
    return 0


def _read_fill(path: str) -> list[tuple[int, int]]:
    """Fill pairs from a JSON file: a ``[[u, v], ...]`` list or an envelope's ``fill_edges``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if "fill_edges" not in data:
            raise GraphInputError("fill file object has no 'fill_edges' key")
        data = data["fill_edges"]
    # bool is an int subclass, and int() would truncate floats such as 1.9
    if not isinstance(data, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair) for pair in data
    ):
        raise GraphInputError("fill file must hold [[u, v], ...] pairs of integers")
    return [edge(u, v) for u, v in data]


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    fill = _read_fill(args.fill)
    problems = []
    for (u, v), times in Counter(fill).items():
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            raise GraphInputError(f"fill edge ({u}, {v}) out of range")
        if times > 1:
            problems.append(f"({u}, {v}) is listed {times} times")
        if g.has_edge(u, v):
            problems.append(f"({u}, {v}) is already an edge")
    verdict = None
    if not problems:
        verdict = is_proper_interval(apply_fill(g, fill))
        if not verdict.is_pig:
            problems.append(f"augmented graph is not proper interval ({verdict.witness_kind})")
    accepted = not problems
    out = {
        "schema_version": SCHEMA_VERSION,
        "input": {"digest": _digest(g), "n": g.n, "m": g.m},
        "fill_size": len(fill),
        "accepted": accepted,
        "problems": problems,
        "witness": list(verdict.witness) if verdict and verdict.witness else None,
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print("accepted" if accepted else "rejected: " + "; ".join(problems))
    return 0 if accepted else 1


def _cmd_xcheck(args) -> int:
    rows = run_xcheck(args.klass, args.max_n)
    for row in rows:
        print(row.line())
    ok = all(row.ok for row in rows)
    print(f"{'all checks passed' if ok else 'CHECK FAILURES PRESENT'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pigfill",
        description="Proper-interval and co-bipartite completion toolkit for threshold graphs, caterpillars and quasi-threshold graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="report class membership and certificates as JSON")
    p.add_argument("graph", help="edge-list or DIMACS file, or - for stdin")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("complete", help="compute a minimum completion")
    p.add_argument("graph")
    p.add_argument(
        "--algo",
        choices=["auto", *(row["algo"] for row in _COMPLETABLE), "oracle"],
        default="auto",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--cost-only", action="store_true", help="skip materializing fill edges")
    p.add_argument("--max-n", type=int, default=8, help="oracle budget for --algo oracle/auto")
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("oracle", help="run a brute-force reference solver")
    p.add_argument("solver", choices=["pig", "cobip", "maxcut"])
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=0, help="override the solver budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gen", help="generate an instance plus its certificate sidecar")
    p.add_argument("klass", choices=["threshold", "quasi-threshold", "caterpillar", "split", "gadget"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-dominating", type=float, default=0.5)
    p.add_argument("--spine-len", type=int, default=4)
    p.add_argument("--max-leaves", type=int, default=2)
    p.add_argument("--input", help="base split graph for klass=gadget")
    p.add_argument("--out", help="write <out> and <out>.cert.json")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="check a claimed fill set")
    p.add_argument("graph")
    p.add_argument("--fill", required=True, help="JSON file with [[u, v], ...]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("xcheck", help="run the oracle-equality suites")
    p.add_argument("--class", dest="klass", default="all",
                   choices=[*SUITES, "all"])
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(fn=_cmd_xcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ClassMembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphInputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
