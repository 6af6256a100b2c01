"""Worker process: runs one workload's jobs through ``pigfill.cli.main``.

Started by run.py as ``python worker.py <src dir> <plain|trace>``.  It imports
the program, prints ``ready``, then reads one line from stdin: ``quit``, or the
path of a plan written by run.py.  Jobs run one at a time in this process
(a closed loop with one client); each call's stdout and stderr are captured
and checked after the call, outside the timed region.  Results go to the file
the plan names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

from checks import check_envelope, check_xcheck, edge_set, envelope_digest
from clock import REFERENCE_MS, reference_ms

CALIBRATE_EVERY_S = 0.2
CALIBRATIONS_KEPT = 5  # a job is scaled by the median of the latest loop timings


def _call(cli, argv: list[str], stdin: str) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this job, not the run
                rc = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return rc, elapsed * 1e3, out.getvalue(), err.getvalue()


class Runner:
    def __init__(self, cli, corpus: str, bundle: dict[str, str], tracer=None):
        self.cli = cli
        self.corpus = corpus
        self.bundle = bundle
        self.tracer = tracer
        self.fill_path = os.path.join(corpus, "fill.json")

    def call(self, argv: list[str], stdin: str = "") -> tuple[int, float, str, str]:
        if self.tracer is not None:
            self.tracer.command = argv[0]
        return _call(self.cli, argv, stdin)

    def execute(self, job: dict) -> dict:
        """Run a job's calls and check their outputs; return its record."""
        kind = job["kind"]
        calls: list[list] = []
        rec = {"calls": calls, "instances": 0, "error": None, "digests": []}

        def fail(reason: str) -> dict:
            rec["error"] = reason
            return rec

        if kind == "xcheck":
            rc, ms, out, err = self.call(["xcheck", "--class", job["suite"]])
            calls.append(["xcheck", ms, rc, None])
            if rc != 0:
                return fail(f"xcheck exit {rc}: {err.strip()[-200:]}")
            rec["instances"], reason = check_xcheck(out, job["suite"])
            return fail(reason) if reason else rec

        if job["stdin"]:
            path, text = "-", self.bundle[job["graph"]]
            stdin = text
        else:
            path = os.path.join(self.corpus, job["graph"])
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            stdin = ""
        if kind == "oracle":
            argv = ["oracle", "pig", path, "--max-n", "9", "--json"]
        else:
            argv = ["complete", path, "--json"]
        rc, ms, out, err = self.call(argv, stdin)
        calls.append([argv[0], ms, rc, None])
        if rc != 0:
            return fail(f"{argv[0]} exit {rc}: {err.strip()[-200:]}")
        env, reason = check_envelope(out, job, edge_set(text))
        rec["digests"].append(out)
        if env is not None:
            calls[-1][3] = env.get("runtime_ms")
        if reason:
            return fail(reason)
        if kind == "complete-verify":
            with open(self.fill_path, "w", encoding="utf-8") as fh:
                fh.write(out)
            rc, ms, out, err = self.call(["verify", path, "--fill", self.fill_path], stdin)
            calls.append(["verify", ms, rc, None])
            if rc != 0 or out.strip() != "accepted":
                return fail(f"verify exit {rc}: {(out + err).strip()[-200:]}")
        return rec


def run_plan(plan: dict, runner: Runner) -> dict:
    tracer = runner.tracer
    outputs = hashlib.sha256()
    hashed = 0
    records = []
    solves = 0
    refs = [reference_ms()]
    calibrated = start = time.perf_counter()

    def one(job: dict, round_index: int) -> None:
        nonlocal hashed, solves, calibrated
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            refs.append(reference_ms())
            del refs[:-CALIBRATIONS_KEPT]
            calibrated = time.perf_counter()
        ref = statistics.median(refs)
        rec = {k: job.get(k) for k in ("id", "kind", "klass", "n", "m")}
        rec["round"] = round_index
        rec["ref_ms"] = ref
        if tracer is None:
            rec.update(runner.execute(job))
        else:
            # the same job untraced and traced, alternating which goes first
            order = (False, True) if len(records) % 2 == 0 else (True, False)
            for traced in order:
                if traced:
                    tracer.begin_job(job["id"], job.get("klass") or job["kind"], REFERENCE_MS / ref)
                    try:
                        got = runner.execute(job)
                    finally:
                        tracer.end_job()
                    rec["traced"] = got["calls"]
                    rec["traced_error"] = got["error"]
                else:
                    rec.update(runner.execute(job))
            traced_error = rec.pop("traced_error")
            rec["error"] = rec["error"] or traced_error
        digests = rec.pop("digests")
        if round_index < plan["hash_rounds"]:
            for text in digests:
                outputs.update(job["id"].encode() + envelope_digest(text))
                hashed += 1
        solves += sum(1 for c in rec["calls"] if c[0] in ("complete", "oracle"))
        records.append(rec)

    rounds = plan["rounds"]
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= plan["hard_stop_s"]:
            break
        if tracer is not None:
            if r >= plan["trace_rounds"]:
                break
        elif elapsed >= plan["seconds"] and solves >= plan["min_solves"]:
            break
        for job in rounds[r % len(rounds)]:
            one(job, r)
        r += 1
    result = {
        "jobs": records,
        "rounds_run": r,
        "elapsed_s": time.perf_counter() - start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs_sha256": outputs.hexdigest(),
        "hashed_envelopes": hashed,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import pigfill.cli as cli

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.prepare()
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line or line == "quit":
        return 0
    with open(line, encoding="utf-8") as fh:
        plan = json.load(fh)
    bundle = {}
    if plan["bundle"]:
        with open(os.path.join(plan["corpus"], plan["bundle"]), encoding="utf-8") as fh:
            bundle = json.load(fh)
    result = run_plan(plan, Runner(cli, plan["corpus"], bundle, tracer))
    with open(plan["results"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None and plan.get("spans"):
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
