"""The machine's speed, measured next to the work it scales.

The benchmark shares its machine, whose speed drifts by a quarter or more
over minutes.  Every reported time is therefore scaled to a fixed speed:
time * REFERENCE_MS / (time of the reference loop measured close by).  The
loop does the kinds of interpreter work the program does (sorting, sets and
dicts, big-integer bit operations, string formatting, JSON), so both slow
down together; it uses nothing from pigfill, so a change to the program
cannot move it.
"""

from __future__ import annotations

import json
import random
import time

REFERENCE_MS = 1.0  # the reported times are for a machine that runs the loop in 1 ms

_DATA = list(range(3000))
random.Random(1).shuffle(_DATA)
_DOC = {"pairs": [[i, i + 1] for i in range(500)], "names": {str(i): i for i in range(200)}}


def _loop() -> None:
    sorted(_DATA)
    set(_DATA)
    mask = 0
    for x in _DATA[:1500]:
        mask |= 1 << (x & 511)
        mask ^= x * x
    ",".join(f"{x} {x + 1}" for x in _DATA[:800])
    json.loads(json.dumps(_DOC))
    counts: dict[int, int] = {}
    for x in _DATA[:1500]:
        counts[x & 127] = counts.get(x & 127, 0) + 1


def reference_ms() -> float:
    """Best of three runs of the reference loop, in milliseconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best * 1e3
