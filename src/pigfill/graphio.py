"""Text formats for graphs.

Native edge-list format: ``#`` comment lines, then a line with the vertex
count, then one ``u v`` line per edge (0-indexed).  DIMACS-like input
(``p edge n m`` header, ``e u v`` lines, 1-indexed) is auto-detected by the
``p `` prefix; ``m`` must equal the number of ``e`` lines.  A vertex count
above ``MAX_VERTICES`` is refused with ``GraphInputError`` before anything
is allocated for it.  Serialization always emits the edge-list format with
edges sorted, so parse(serialize(g)) == g.

Text already in that serialized form (canonical ints, ``u < v`` pairs in
ascending order, one space and one "\\n" per edge line) is read in bulk by
passes in C, and the graph keeps it: serializing or hashing the graph then
reuses the text read.  Any other text, and every malformed one, goes
through the line parser, which alone words the errors.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from operator import lt

from .errors import GraphInputError
from .graph import Graph, build_graph

MAX_VERTICES = 10**6  # parsing allocates one set or list per vertex; 50x the largest perfbench input

_COMMAS = bytes.maketrans(b" \n", b",,")


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphInputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def parse_graph(text: str) -> Graph:
    g = _parse_serialized(text)
    if g is not None:
        return g
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise GraphInputError("empty graph file")
    probe = next((ln for ln in data if not ln.startswith("c")), None)
    if probe is not None and (probe.startswith("p ") or probe.startswith("p\t")):
        return _parse_dimacs(data)
    return _parse_edge_list(data)


def _parse_serialized(text: str) -> Graph | None:
    """The graph of a text that ``serialize_graph`` could have written, else None.

    Such a text is the vertex count and then one ``u v`` line per edge, every
    int in canonical decimal, one space inside each edge line, "\\n" ending
    every line, and the pairs strictly ascending with u < v < n.  Each check
    is a pass in C: the characters between the ints must be exactly that
    run of newlines and spaces, and the C JSON decoder reads all ints at once
    with the separators made commas, refusing empty ints and leading zeros.
    The pairs arrive sorted, so appending to each vertex first its smaller
    and then its larger neighbours leaves every row ascending.  The graph
    keeps the text as its cached ``text``.  Any other text gets None and goes
    to the line parser, which alone words the errors.
    """
    if not text.isascii():
        return None
    data = text.encode()
    seps = data.translate(None, b"0123456789")
    pairs = len(seps) // 2
    if seps != b"\n" + b" \n" * pairs:
        return None
    try:
        ints = json.loads(b"[" + data.translate(_COMMAS)[:-1] + b"]")
    except ValueError:
        return None
    if len(ints) != len(seps):  # "\n" alone reads as no int at all
        return None
    n = ints[0]
    us, vs = ints[1::2], ints[2::2]
    del ints
    if n > MAX_VERTICES or vs and not (
        max(vs) < n
        and all(map(lt, us, vs))
        and all(map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None))))
    ):
        return None
    rows: list[list[int]] = [[] for _ in range(n)]
    deque(map(list.append, map(rows.__getitem__, vs), us), maxlen=0)  # smaller neighbours, ascending
    deque(map(list.append, map(rows.__getitem__, us), vs), maxlen=0)  # then the larger ones
    g = Graph(n, tuple(map(tuple, rows)))
    g.__dict__["text"] = text
    g.__dict__["m"] = pairs
    return g


def _parse_edge_list(data: list[str]) -> Graph:
    try:
        n = int(data[0])
    except ValueError:
        raise GraphInputError(f"expected vertex count on first data line, got {data[0]!r}") from None
    _check_vertex_count(n)
    edges = []
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphInputError(f"expected 'u v' edge line, got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphInputError(f"non-integer endpoint in {ln!r}") from None
    return build_graph(n, edges)


def _parse_dimacs(data: list[str]) -> Graph:
    n = m = None
    edges = []
    for ln in data:
        parts = ln.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphInputError(f"second DIMACS problem line {ln!r}")
            if len(parts) != 4:
                raise GraphInputError(f"bad DIMACS problem line {ln!r}; expected 'p edge n m'")
            try:
                n = int(parts[2])
            except ValueError:
                raise GraphInputError(f"bad vertex count in {ln!r}") from None
            try:
                m = int(parts[3])
            except ValueError:
                raise GraphInputError(f"bad edge count in {ln!r}") from None
            _check_vertex_count(n)
        elif parts[0] == "e":
            if n is None:
                raise GraphInputError("DIMACS edge line before problem line")
            if len(parts) != 3:
                raise GraphInputError(f"bad DIMACS edge line {ln!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphInputError(f"non-integer endpoint in {ln!r}") from None
            edges.append((u - 1, v - 1))
        else:
            raise GraphInputError(f"unrecognized DIMACS line {ln!r}")
    if n is None:
        raise GraphInputError("missing DIMACS problem line")
    if len(edges) != m:
        raise GraphInputError(f"DIMACS problem line announces {m} edges, found {len(edges)} 'e' lines")
    return build_graph(n, edges)


def serialize_graph(g: Graph) -> str:
    return g.text


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g))
