"""The corpus-wide windowed co-occurrence graph.

The global graph is undirected and weighted: for every session, every
unordered item pair at sequence distance <= epsilon counts once per
occurrence, and each node keeps only its `top_n` heaviest neighbors (ties
broken by ascending item index).  It is built on arrays from the training
sessions in CSR form (`offsets`, `items`) and held as two (num_items + 1,
top_n) tables, `nbr` and `weight`: row i lists item i's neighbors in that
order, filled slots first; empty slots hold item 0 with weight 0, and row 0
(the padding item) is empty, so `nbr > 0` is the validity mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass
class GlobalGraph:
    nbr: np.ndarray     # (num_items + 1, top_n) int64 neighbor items, 0 in empty slots
    weight: np.ndarray  # (num_items + 1, top_n) int64 edge weights, 0 in empty slots
    num_items: int
    epsilon: int
    top_n: int

    def neighbors(self, item: int):
        """Pruned neighbor list of `item`, descending weight then ascending index."""
        if not 1 <= item <= self.num_items:
            raise KeyError(f"item {item} not in vocabulary [1, {self.num_items}]")
        filled = self.nbr[item] > 0
        return list(zip(self.nbr[item][filled].tolist(), self.weight[item][filled].tolist()))

    @property
    def neighbors_map(self):
        """item -> neighbors(item), built on read; perfbench's tracer counts entries through it."""
        return {item: self.neighbors(item) for item in np.flatnonzero(self.nbr[:, 0]).tolist()}


def csr(sequences):
    """(offsets, items) of item sequences: sequence r is items[offsets[r]:offsets[r + 1]]."""
    offsets = np.r_[0, np.cumsum([len(seq) for seq in sequences], dtype=np.int64)]
    return offsets, np.fromiter(chain.from_iterable(sequences), dtype=np.int64, count=offsets[-1])


def cooccurrence_weights(offsets, items, epsilon: int):
    """Symmetric pair weights over sessions in CSR form: each (position, offset <= epsilon)
    occurrence of an unordered pair of distinct items adds one.  Returns arrays
    (a, b, weight) with a < b, ordered by (a, b)."""
    session = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    base = int(items.max(initial=0)) + 1
    keys = []
    for d in range(1, epsilon + 1):
        a, b = items[:-d], items[d:]
        pair = (session[:-d] == session[d:]) & (a != b)
        keys.append(np.minimum(a, b)[pair] * base + np.maximum(a, b)[pair])
    pairs, weight = np.unique(np.concatenate(keys), return_counts=True)
    return pairs // base, pairs % base, weight


def _graph(item, nbr, weight, num_items: int, epsilon: int, top_n: int) -> GlobalGraph:
    """The graph whose table rows hold, in order, each item's first `top_n` entries (sorted by item)."""
    rank = np.arange(len(item)) - np.searchsorted(item, item)
    keep = rank < top_n
    tables = np.zeros((2, num_items + 1, top_n), dtype=np.int64)
    tables[:, item[keep], rank[keep]] = nbr[keep], weight[keep]
    return GlobalGraph(*tables, num_items, epsilon, top_n)


def build_global_graph(offsets, items, epsilon: int, top_n: int, num_items: int) -> GlobalGraph:
    """Build the pruned co-occurrence graph from training sessions in CSR
    form: every pair counts for both its items, each item's neighbors are
    ordered by (descending weight, ascending index) and cut at `top_n`."""
    a, b, w = cooccurrence_weights(offsets, items, epsilon)
    item, nbr, weight = np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w))
    order = np.lexsort((nbr, -weight, item))
    return _graph(item[order], nbr[order], weight[order], num_items, epsilon, top_n)


def write_global_graph(path, graph: GlobalGraph):
    """Line-delimited export `item\tneighbor\tweight`, by item, each item's lines in table order."""
    filled = graph.nbr > 0
    entries = np.stack((np.nonzero(filled)[0], graph.nbr[filled], graph.weight[filled]), axis=1)
    with open(path, "w") as f:
        f.write(f"# num_items={graph.num_items} epsilon={graph.epsilon} top_n={graph.top_n}\n")
        f.write("%d\t%d\t%d\n" * len(entries) % tuple(entries.ravel().tolist()))


def read_global_graph(path) -> GlobalGraph:
    with open(path) as f:
        header = f.readline()
        entries = np.fromstring(f.read(), dtype=np.int64, sep=" ").reshape(-1, 3)
    meta = {k: int(v) for k, v in (part.split("=") for part in header[1:].split())}
    return _graph(*entries[np.argsort(entries[:, 0], kind="stable")].T, **meta)
