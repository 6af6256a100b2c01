"""Spans recorded from outside the program.

The tracer wraps every public function of each pigfill module at each module
attribute (and module-level dict entry) that refers to it, because the modules
import each other with ``from .x import y`` and a caller looks a function up
in its own namespace.  Nothing under ``src/`` changes.

A span has a name (``module.function``), start, end, parent and job id.  Self
time is a span's duration minus the durations of its child spans.  Hot leaf
functions such as ``pig_mask_check`` run about 10^6 times in one job, so only
the first ``SPANS_KEPT`` spans of each (job, name) are kept as records; every
span is folded into the per-(job, name) totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "graphio",
    "graph",
    "recognition",
    "threshold",
    "caterpillar",
    "quasithreshold",
    "oracle",
    "generators",
    "results",
    "xcheck",
    "cli",
)

# one-line helpers whose wrapper would cost more than their body
SKIP = {"graph.edge", "graph.sorted_edges"}

SPANS_KEPT = 4

CLASS_RECOGNIZERS = {
    "recognition.threshold_creation_sequence",
    "recognition.caterpillar_decomposition",
    "recognition.quasi_threshold_forest",
}
PIG_TESTS = {"recognition.pig_mask_check", "recognition.is_proper_interval"}


def _graph_size(args) -> int | None:
    return getattr(args[0], "n", None) if args else None


def _decomposition_size(args) -> int | None:
    d = args[0]
    return len(d.spine) + sum(len(b) for b in d.buckets)


def _text_lines(args) -> int | None:
    return args[0].count("\n") if args and isinstance(args[0], str) else None


# functions whose per-call time is fitted against input size, per graph class
# of the job: name -> size of the call
SERIES = {
    "recognition.is_proper_interval": _graph_size,
    "recognition.threshold_creation_sequence": _graph_size,
    "caterpillar.build_placement_tables": _decomposition_size,
    "quasithreshold.build_dp_tables": _graph_size,
    "graphio.parse_graph": _text_lines,
}


def _mask_bytes(g) -> int:
    # only rows already built: reading a lazily built attribute would build it
    masks = getattr(g, "__dict__", {}).get("masks")
    return sum(sys.getsizeof(x) for x in masks) if masks else 0


class Tracer:
    def __init__(self) -> None:
        self.patches: list[tuple[object, object, object, object]] = []
        self.stack: list[list] = []  # [name, span id, child seconds]
        self.job = ""
        self.scale = 1.0  # REFERENCE_MS / the reference loop's time before this job
        self.job_scale: dict[str, float] = {}
        self.klass = ""
        self.command = ""
        self.next_id = 0
        self.totals: dict[tuple[str, str], list] = {}  # (job, name) -> [calls, seconds, self seconds]
        self.spans: list[tuple] = []
        self.series: dict[tuple[str, str, int], list] = {}  # (name, class, size) -> [calls, seconds]
        self.counters: dict[str, float] = {}
        self.job_mask_bytes = 0
        self.mask_bytes_max = 0
        self.wrapped = 0

    # -- installation -----------------------------------------------------

    def prepare(self) -> None:
        """Build a wrapper for every public pigfill function and find its callers' references."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"pigfill.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    originals[id(obj)] = (obj, self._wrap(obj, name))
        for modname, mod in list(sys.modules.items()):
            if modname != "pigfill" and not modname.startswith("pigfill."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self.patches.append((mod, attr, obj, originals[id(obj)][1]))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in obj.items():
                        if id(val) in originals and originals[id(val)][0] is val:
                            self.patches.append((obj, key, val, originals[id(val)][1]))
        self.wrapped = len(originals)

    def begin_job(self, job: str, klass: str, scale: float) -> None:
        """Trace the calls that follow as one job of a graph class."""
        self.job, self.klass, self.scale = job, klass, scale
        self.job_scale[job] = scale
        self.job_mask_bytes = 0
        for target, key, _, wrapper in self.patches:
            _set(target, key, wrapper)

    def end_job(self) -> None:
        for target, key, original, _ in self.patches:
            _set(target, key, original)
        self.mask_bytes_max = max(self.mask_bytes_max, self.job_mask_bytes)

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            # each resume is a span; the caller's loop body is not
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(frame, start, clock(), name, args, None)
                        return
                    except BaseException:
                        tracer._exit(frame, start, clock(), name, args, None)
                        raise
                    tracer._exit(frame, start, clock(), name, args, None)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, start, clock(), name, args, None)
                raise
            tracer._exit(frame, start, clock(), name, args, result)
            return result

        return wrapper

    def _enter(self, name: str) -> list:
        self.next_id += 1
        frame = [name, self.next_id, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, name: str, args, result) -> None:
        stack = self.stack
        stack.pop()
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        key = (self.job, name)
        tot = self.totals.get(key)
        if tot is None:
            tot = self.totals[key] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[2]
        if tot[0] <= SPANS_KEPT:
            self.spans.append((self.job, frame[1], parent[1] if parent else 0, name, start, end))
        sizer = SERIES.get(name)
        if sizer is not None:
            size = sizer(args)
            if size:
                ser = self.series.setdefault((name, self.klass, size), [0, 0.0])
                ser[0] += 1
                ser[1] += dur * self.scale
        if name in PIG_TESTS and parent is not None and parent[0] == "oracle.brute_min_pig":
            self._count("oracle.pig_subsets", 1)
        elif name in CLASS_RECOGNIZERS and self.command == "complete":
            self._count("recognition.class_calls_in_complete", 1)
        elif name == "caterpillar.build_placement_tables":
            self._count("caterpillar.dp_cells", getattr(result, "eval_count", 0))
        elif name == "quasithreshold.build_dp_tables":
            self._count("quasithreshold.dp_cells", getattr(result, "eval_count", 0))
        elif name == "graphio.parse_graph":
            self._count("graphio.input_bytes", len(args[0]) if args else 0)
            self.job_mask_bytes += _mask_bytes(result)
        elif name == "graph.apply_fill":
            self.job_mask_bytes += _mask_bytes(result)

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        """Scaled totals per name over all traced jobs, plus counters and size series."""
        names: dict[str, list] = {}
        for (job, name), (calls, secs, self_secs) in self.totals.items():
            scale = self.job_scale.get(job, 1.0)
            agg = names.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += secs * scale
            agg[2] += self_secs * scale
        return {
            "names": names,
            "counters": self.counters,
            "series": [[name, klass, size, calls, secs] for (name, klass, size), (calls, secs) in self.series.items()],
            "mask_bytes_max": self.mask_bytes_max,
            "wrapped": self.wrapped,
        }

    def span_records(self) -> list[dict]:
        return [
            {"job": job, "id": sid, "parent": pid, "name": name, "start": start, "end": end}
            for job, sid, pid, name, start, end in self.spans
        ] + [
            {"job": job, "name": name, "calls": c, "ms": s * 1e3, "self_ms": ss * 1e3}
            for (job, name), (c, s, ss) in self.totals.items()
        ]


def _set(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
