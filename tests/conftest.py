import numpy as np
import pytest

from sessrec.corpus import Example
from sessrec.graphs import build_global_graph, csr


def pattern_sessions(n_sessions=100, n_patterns=5, cycle=4, length=5):
    """Sessions drawn from deterministic cyclic transition patterns.

    Pattern p walks the cycle of items [cycle*p+1 .. cycle*p+cycle]; sessions
    start at rotating phases so every transition is observed.
    """
    out = []
    for s in range(n_sessions):
        p = s % n_patterns
        start = (s // n_patterns) % cycle
        out.append([cycle * p + ((start + i) % cycle) + 1 for i in range(length)])
    return out


def examples_from_sessions(sessions, validation_fraction=0.1, seed=7):
    rng = np.random.default_rng(seed)
    pairs = [(tuple(seq[:k]), seq[k]) for seq in sessions for k in range(1, len(seq))]
    n_valid = int(len(pairs) * validation_fraction)
    vidx = set(rng.choice(len(pairs), n_valid, replace=False).tolist()) if n_valid else set()
    return [Example(p, l, "validation" if i in vidx else "train")
            for i, (p, l) in enumerate(pairs)]


@pytest.fixture(scope="session")
def memorization_setup():
    sessions = pattern_sessions()
    num_items = 20
    examples = examples_from_sessions(sessions)
    graph = build_global_graph(*csr(sessions), epsilon=3, top_n=12, num_items=num_items)
    return sessions, num_items, examples, graph


def random_corpus(rng, n_sessions, n_items, min_len=2, max_len=10):
    return [list(rng.integers(1, n_items + 1, size=rng.integers(min_len, max_len + 1)))
            for _ in range(n_sessions)]


def bits(a):
    """An array's dtype, shape and bytes: equal only when every bit is,
    signed zeros included (`np.array_equal` counts -0.0 equal to +0.0)."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def example_rows(rows, b, hops=0):
    """Example b's rows within `hops` hops of the real-row layout
    (`SessionBatch.rows`), in its pack's slot order."""
    return np.flatnonzero(rows.example[:rows.ends[hops]] == b)
