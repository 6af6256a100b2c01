"""pigfill benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The parent process writes the seeded
corpus, starts one fresh worker process, hands it the plan and waits; the
worker calls ``pigfill.cli.main`` for every job, one at a time, and checks
every output.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs each job untraced and traced and reports per-layer
metrics from the spans (see tracing.py).  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Work files go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REFERENCE_MS, reference_ms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 3
STARTUP_SAMPLES = 21
HARD_STOP_S = 140.0  # a run must end within 180 s
NOMINAL_SECONDS = 25  # the trace rounds in corpus.WORKLOADS are sized for this


# ---------------------------------------------------------------------------
# statistics


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 without spread."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 3 or max(x for x, _ in pts) - min(x for x, _ in pts) < math.log(2):
        return 0.0
    xbar = sum(x for x, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    num = sum((x - xbar) * (y - ybar) for x, y in pts)
    den = sum((x - xbar) ** 2 for x, _ in pts)
    return num / den


# ---------------------------------------------------------------------------
# set-up and the worker


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(trace: bool) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(SRC), "trace" if trace else "plain"],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if line != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (said {line!r})")
    return proc


def stop_worker(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup(workload: str, seed: int, workdir: Path, repeats: int, trace: bool):
    """Write the corpus and start a worker, each `repeats` times; keep the last.

    Returns the plan, the scaled seconds of each write and each start, whether
    every write hashed the same, and the running worker.
    """
    from corpus import write_corpus

    gen_s, start_s, refs, hashes = [], [], [], set()
    plan = corpus_dir = None
    for i in range(repeats):
        if corpus_dir is not None:
            shutil.rmtree(corpus_dir)
        corpus_dir = workdir / f"corpus{i}"
        corpus_dir.mkdir()
        refs.append(reference_ms())
        t0 = time.perf_counter()
        plan = write_corpus(workload, seed, str(corpus_dir))
        gen_s.append(time.perf_counter() - t0)
        hashes.add(plan["corpus_sha256"])
    proc = None
    for _ in range(repeats):
        if proc is not None:
            proc.stdin.write("quit\n")
            proc.stdin.flush()
            proc.wait(timeout=30)
        refs.append(reference_ms())
        t0 = time.perf_counter()
        proc = start_worker(trace)
        start_s.append(time.perf_counter() - t0)
    plan["corpus"] = str(corpus_dir)
    scale = REFERENCE_MS / p50(refs)
    return plan, [x * scale for x in gen_s], [x * scale for x in start_s], len(hashes) == 1, proc


def startup_probe(claw: str) -> tuple[list[float], int]:
    """Cold `python -m pigfill.cli complete` on the claw; scaled times and bad outputs."""
    times, refs, bad = [], [], 0
    for _ in range(STARTUP_SAMPLES):
        refs.append(reference_ms())
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "pigfill.cli", "complete", claw],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
        )
        times.append((time.perf_counter() - t0) * 1e3)
        costs = [ln.split()[1:] for ln in out.stdout.splitlines() if ln.startswith("cost")]
        if out.returncode != 0 or costs != [["1"]]:
            bad += 1
    scale = REFERENCE_MS / p50(refs)
    return [t * scale for t in times], bad


# ---------------------------------------------------------------------------
# metrics


def _calls(jobs: list[dict], command: str, key: str = "calls") -> list[float]:
    """Scaled milliseconds of every call of one command."""
    return [c[1] * REFERENCE_MS / j["ref_ms"] for j in jobs for c in j.get(key, []) if c[0] == command]


def _job_ms(job: dict, key: str = "calls") -> float:
    return sum(c[1] for c in job[key]) * REFERENCE_MS / job["ref_ms"]


def end_to_end(res: dict, gen_s: list[float], start_s: list[float], startup: list[float]) -> dict:
    jobs = res["jobs"]
    solve = _calls(jobs, "complete") + _calls(jobs, "oracle")
    job_ms = [_job_ms(j) for j in jobs]
    return {
        "solve_ms_p50": (p50(solve), "ms"),
        "solve_ms_p90": (p90(solve), "ms"),
        "job_ms_p50": (p50(job_ms), "ms"),
        "job_ms_p90": (p90(job_ms), "ms"),
        "jobs_per_s": (len(jobs) / (sum(job_ms) / 1e3), "1/s"),
        "startup_ms_p50": (p50(startup), "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (p50(gen_s) + p50(start_s), "s"),
    }


def per_call_report(res: dict) -> dict:
    """The per-command figures of the workload, named by command."""
    jobs = res["jobs"]
    out = {}
    for command in ("complete", "verify", "oracle"):
        ms = _calls(jobs, command)
        if ms:
            out[f"{command}_ms_p50"] = (p50(ms), "ms")
            out[f"{command}_ms_p90"] = (p90(ms), "ms") if len(ms) >= 100 else (float("nan"), "ms")
            out[f"{command}_calls"] = (len(ms), "count")
    xc = _calls(jobs, "xcheck")
    if xc:
        inst = sum(j["instances"] for j in jobs if j["kind"] == "xcheck")
        out["xcheck_instances_per_s"] = (inst / (sum(xc) / 1e3), "1/s")
    failed = sum(1 for j in jobs if j["error"])
    out["failed_frac"] = (failed / len(jobs), "ratio")
    wall = [c[1] for j in jobs for c in j["calls"] if c[0] in ("complete", "oracle")]
    out["solve_ms_p50_unscaled"] = (p50(wall), "ms")
    out["reference_loop_ms_p50"] = (p50([j["ref_ms"] for j in jobs]), "ms")
    return out


def per_layer(res: dict) -> dict:
    jobs = res["jobs"]
    tr = res["trace"]
    names, counters = tr["names"], tr["counters"]
    njobs = len(jobs)

    def calls(*fns: str) -> int:
        return sum(names.get(f, [0])[0] for f in fns)

    def ms_per_call(*fns: str) -> float:
        c = calls(*fns)
        return sum(names[f][1] for f in fns if f in names) * 1e3 / c if c else 0.0

    def per_job(*fns: str) -> float:
        return calls(*fns) / njobs

    def self_ms(layer: str) -> float:
        return sum(v[2] for k, v in names.items() if k.split(".")[0] == layer) * 1e3 / njobs

    def exponent(fn: str) -> float:
        # the steepest growth over the graph classes the function ran on
        by_class: dict[str, list] = {}
        for name, klass, size, c, secs in tr["series"]:
            if name == fn:
                by_class.setdefault(klass, []).append((size, secs / c))
        return max((log_slope(pts) for pts in by_class.values()), default=0.0)

    traced = sum(_job_ms(j, "traced") for j in jobs)
    untraced = sum(_job_ms(j) for j in jobs)
    covered = sum(v[2] for v in names.values()) * 1e3
    timed = [c for j in jobs for c in j["calls"] if c[3] is not None]
    completes = sum(1 for j in jobs for c in j["traced"] if c[0] == "complete")
    solves = calls("oracle.brute_min_pig")
    out = {
        "graphio.parse_ms": (ms_per_call("graphio.parse_graph"), "ms"),
        "graphio.parse_calls": (per_job("graphio.parse_graph"), "count"),
        "graphio.input_mb": (counters.get("graphio.input_bytes", 0) / njobs / 2**20, "MB"),
        "graphio.serialize_ms": (ms_per_call("graphio.serialize_graph"), "ms"),
        "graphio.self_ms": (self_ms("graphio"), "ms"),
        "graph.build_ms": (ms_per_call("graph.build_graph"), "ms"),
        "graph.apply_fill_ms": (ms_per_call("graph.apply_fill"), "ms"),
        "graph.non_edges_within_ms": (ms_per_call("graph.non_edges_within"), "ms"),
        "graph.mask_mb": (tr["mask_bytes_max"] / 2**20, "MB"),
        "graph.self_ms": (self_ms("graph"), "ms"),
        "recognition.pig_ms": (ms_per_call("recognition.is_proper_interval"), "ms"),
        "recognition.pig_calls": (per_job("recognition.is_proper_interval"), "count"),
        "recognition.threshold_ms": (ms_per_call("recognition.threshold_creation_sequence"), "ms"),
        "recognition.threshold_calls": (per_job("recognition.threshold_creation_sequence"), "count"),
        "recognition.caterpillar_ms": (ms_per_call("recognition.caterpillar_decomposition"), "ms"),
        "recognition.caterpillar_calls": (per_job("recognition.caterpillar_decomposition"), "count"),
        "recognition.qt_ms": (ms_per_call("recognition.quasi_threshold_forest"), "ms"),
        "recognition.qt_calls": (per_job("recognition.quasi_threshold_forest"), "count"),
        "recognition.class_calls_per_complete": (
            counters.get("recognition.class_calls_in_complete", 0) / completes if completes else 0.0,
            "count",
        ),
        "recognition.pig_mask_ms": (ms_per_call("recognition.pig_mask_check"), "ms"),
        "recognition.pig_mask_calls": (per_job("recognition.pig_mask_check"), "count"),
        "recognition.self_ms": (self_ms("recognition"), "ms"),
        "threshold.self_ms": (self_ms("threshold"), "ms"),
        "caterpillar.dp_ms": (ms_per_call("caterpillar.build_placement_tables"), "ms"),
        "caterpillar.dp_cells": (counters.get("caterpillar.dp_cells", 0) / njobs, "count"),
        "caterpillar.fill_ms": (ms_per_call("caterpillar.materialize_fill_edges"), "ms"),
        "caterpillar.self_ms": (self_ms("caterpillar"), "ms"),
        "quasithreshold.dp_ms": (ms_per_call("quasithreshold.build_dp_tables"), "ms"),
        "quasithreshold.dp_cells": (counters.get("quasithreshold.dp_cells", 0) / njobs, "count"),
        "quasithreshold.self_ms": (self_ms("quasithreshold"), "ms"),
        "oracle.pig_ms": (ms_per_call("oracle.brute_min_pig"), "ms"),
        "oracle.pig_subsets": (counters.get("oracle.pig_subsets", 0) / njobs, "count"),
        "oracle.subsets_per_solve": (counters.get("oracle.pig_subsets", 0) / solves if solves else 0.0, "count"),
        "oracle.sweep_ms": (ms_per_call("oracle.brute_min_cobipartite", "oracle.brute_max_cut"), "ms"),
        "oracle.scan_ms": (ms_per_call("oracle.forbidden_subgraph_scan"), "ms"),
        "oracle.scan_calls": (per_job("oracle.forbidden_subgraph_scan"), "count"),
        "oracle.self_ms": (self_ms("oracle"), "ms"),
        "generators.self_ms": (self_ms("generators"), "ms"),
        "results.self_ms": (self_ms("results"), "ms"),
        "xcheck.self_ms": (self_ms("xcheck"), "ms"),
        "xcheck.threshold_ms": (ms_per_call("xcheck.xcheck_threshold"), "ms"),
        "xcheck.qt_ms": (ms_per_call("xcheck.xcheck_quasithreshold"), "ms"),
        "xcheck.caterpillar_ms": (ms_per_call("xcheck.xcheck_caterpillar"), "ms"),
        "xcheck.recognition_ms": (ms_per_call("xcheck.xcheck_recognition"), "ms"),
        "cli.self_ms": (self_ms("cli"), "ms"),
        "cli.runtime_ms_share": (
            sum(c[3] for c in timed) / sum(c[1] for c in timed) if timed else 0.0,
            "ratio",
        ),
        "recognition.pig_exponent": (exponent("recognition.is_proper_interval"), "slope"),
        "recognition.threshold_exponent": (exponent("recognition.threshold_creation_sequence"), "slope"),
        "caterpillar.dp_exponent": (exponent("caterpillar.build_placement_tables"), "slope"),
        "quasithreshold.dp_exponent": (exponent("quasithreshold.build_dp_tables"), "slope"),
        "graphio.parse_exponent": (exponent("graphio.parse_graph"), "slope"),
        "trace.overhead_frac": (traced / untraced - 1, "ratio"),
        "trace.unattributed_frac": ((traced - covered) / traced, "ratio"),
    }
    return out


def trace_report(res: dict) -> dict:
    """Extra trace figures printed for the reader; not part of the result line."""
    jobs = res["jobs"]
    names = res["trace"]["names"]
    verify = sum(_calls(jobs, "verify", "traced"))
    out = {"trace.jobs": (len(jobs), "count"), "trace.wrapped_functions": (res["trace"]["wrapped"], "count")}
    if verify:
        pig = names.get("recognition.is_proper_interval", [0, 0.0])[1] * 1e3
        out["trace.pig_share_of_verify"] = (pig / verify, "ratio")
    return out


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from corpus import MIN_SOLVES, WORKLOADS, claw_file, solves_per_round

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    proc = None
    try:
        repeats = 1 if trace else SETUP_REPEATS
        plan, gen_s, start_s, reproducible, proc = setup(workload, seed, workdir, repeats, trace)
        plan.update(
            seconds=seconds,
            min_solves=MIN_SOLVES,
            hard_stop_s=HARD_STOP_S,
            hash_rounds=math.ceil(MIN_SOLVES / solves_per_round(plan)),
            trace_rounds=max(1, round(WORKLOADS[workload][1] * seconds / NOMINAL_SECONDS)),
            results=str(workdir / "results.json"),
            spans=str(WORK / f"spans-{workload}.jsonl") if trace else None,
        )
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        proc.stdin.write(f"{plan_path}\n")
        proc.stdin.flush()
        try:
            proc.wait(timeout=HARD_STOP_S + 30)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker still running after {HARD_STOP_S + 30:.0f} s") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        res = json.loads((workdir / "results.json").read_text())
        startup, bad_startup = ([], 0) if trace else startup_probe(claw_file(str(workdir)))
    finally:
        if proc is not None:
            stop_worker(proc)
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = res["jobs"]
    failures = [j for j in jobs if j["error"]]
    if trace:
        metrics = per_layer(res)
        extra = trace_report(res)
    else:
        metrics = end_to_end(res, gen_s, start_s, startup)
        extra = per_call_report(res)
    correct = not failures and reproducible and not bad_startup
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}",
        f"  jobs {len(jobs)} in {res['rounds_run']} rounds, {res['elapsed_s']:.1f} s, one client, closed loop",
        f"  set-up writes {' '.join(f'{x:.3f}' for x in gen_s)} s, worker starts "
        f"{' '.join(f'{x:.3f}' for x in start_s)} s (scaled)",
        f"  corpus_sha256  {plan['corpus_sha256']}"
        + ("" if reproducible else "  (NOT reproduced by the repeated set-up)"),
        f"  outputs_sha256 {res['outputs_sha256']} over {res['hashed_envelopes']} envelopes",
        f"  failed {len(failures)} of {len(jobs)} jobs attempted"
        + (f"; {bad_startup} bad start-up probes" if bad_startup else ""),
    ]
    lines += [f"    failure {j['id']}: {j['error']}" for j in failures[:5]]
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        lines.append(f"  {name:40} {value:.6g} {unit}")
    return {
        "lines": lines,
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pigfill" / "cli.py").is_file():
        print(f"error: no pigfill sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in names):
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = []
    for w in names:
        try:
            out = run_workload(w, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: workload {w}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(out["lines"]), flush=True)
        results.append((w, out))
    if len(results) == 1:
        final = {k: results[0][1][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(o["correct"] for _, o in results),
            "attempted": sum(o["attempted"] for _, o in results),
            "failed": sum(o["failed"] for _, o in results),
            "metrics": {f"{w}/{k}": v for w, o in results for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
