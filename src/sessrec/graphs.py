"""The corpus-wide windowed co-occurrence graph.

The global graph is undirected and weighted: for every session, every
unordered item pair at sequence distance <= epsilon counts once per
occurrence, and each node keeps only its `top_n` heaviest neighbors (ties
broken by ascending item index).  It is built on arrays from the training
sessions in CSR form (`offsets`, `items`); `GlobalGraph` keeps the pruned
(neighbor, weight) lists per item.  Session graphs are built per batch in
`batching.collate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass
class GlobalGraph:
    neighbors_map: dict[int, list[tuple[int, int]]]  # item -> [(neighbor, weight)], pruned
    num_items: int
    epsilon: int
    top_n: int

    def neighbors(self, item: int):
        """Pruned neighbor list of `item`, descending weight then ascending index."""
        if not 1 <= item <= self.num_items:
            raise KeyError(f"item {item} not in vocabulary [1, {self.num_items}]")
        return list(self.neighbors_map.get(item, ()))


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


def _neighbors_map(item, nbr, weight):
    """item -> [(neighbor, weight)] from entries grouped by item."""
    starts = np.flatnonzero(np.diff(item, prepend=-1))
    ends = np.r_[starts[1:], len(item)].tolist()
    entries = list(zip(nbr.tolist(), weight.tolist()))
    return {i: entries[a:b] for i, a, b in zip(item[starts].tolist(), starts.tolist(), ends)}


def build_global_graph(offsets, items, epsilon: int, top_n: int, num_items: int) -> GlobalGraph:
    """Build the pruned co-occurrence graph from training sessions in CSR
    form: every pair counts for both its items, each item's neighbors are
    ordered by (descending weight, ascending index) and cut at `top_n`."""
    a, b, w = cooccurrence_weights(offsets, items, epsilon)
    item, nbr, weight = np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w))
    order = np.lexsort((nbr, -weight, item))
    item, nbr, weight = item[order], nbr[order], weight[order]
    keep = np.arange(len(item)) - np.searchsorted(item, item) < top_n
    return GlobalGraph(_neighbors_map(item[keep], nbr[keep], weight[keep]), num_items, epsilon, top_n)


def write_global_graph(path, graph: GlobalGraph):
    """Line-delimited export `item\tneighbor\tweight`, sorted."""
    with open(path, "w") as f:
        f.write(f"# num_items={graph.num_items} epsilon={graph.epsilon} top_n={graph.top_n}\n")
        f.writelines(f"{item}\t{nbr}\t{w}\n" for item in sorted(graph.neighbors_map)
                     for nbr, w in graph.neighbors_map[item])


def read_global_graph(path) -> GlobalGraph:
    with open(path) as f:
        header = f.readline()
        entries = np.fromstring(f.read(), dtype=np.int64, sep=" ").reshape(-1, 3)
    meta = {k: int(v) for k, v in (part.split("=") for part in header[1:].split())}
    order = np.argsort(entries[:, 0], kind="stable")
    item, nbr, weight = entries[order].T
    return GlobalGraph(_neighbors_map(item, nbr, weight), meta["num_items"], meta["epsilon"], meta["top_n"])
