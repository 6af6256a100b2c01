from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from pigfill import build_graph, caterpillar_decomposition, quasi_threshold_forest, threshold_creation_sequence


def graph_from_pair_mask(n: int, mask: int):
    pairs = list(combinations(range(n), 2))
    return build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@pytest.fixture
def claw():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def k4():
    return build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def star5():
    return build_graph(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def probe_counts(monkeypatch):
    """Count the class recognitions that run: calls of the undecorated recognizer behind each cache.

    A call that the certificate cache answers runs no recognition, so it is
    not counted; every caller reaches the recognizer through its cache.
    """
    counts: Counter = Counter()
    for cached in (threshold_creation_sequence, caterpillar_decomposition, quasi_threshold_forest):

        def counting(g, recognize=cached.__wrapped__):
            counts[recognize.__name__] += 1
            return recognize(g)

        monkeypatch.setattr(cached, "__wrapped__", counting)
    return counts
