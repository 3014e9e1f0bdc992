"""Graph construction: per-session transition graphs and the corpus-wide
windowed co-occurrence graph.

Session graphs are directed over the session's unique items with four edge
relations (incoming, outgoing, bidirectional, self).  The global graph is
undirected and weighted: for every session, every unordered item pair at
sequence distance <= epsilon counts once per occurrence, and each node keeps
only its `top_n` heaviest neighbors (ties broken by ascending item index).
It is built on arrays from the training sessions in CSR form (`offsets`,
`items`); `GlobalGraph` keeps the pruned (neighbor, weight) lists per item.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

# relation codes for session-graph edges (0 = no edge)
REL_NONE = 0
REL_IN = 1
REL_OUT = 2
REL_INOUT = 3
REL_SELF = 4


@dataclass
class SessionGraph:
    nodes: list[int]        # unique items, first-occurrence order
    alias: list[int]        # sequence position -> node slot
    rel: np.ndarray         # (n, n) int8 relation codes

    @property
    def num_nodes(self):
        return len(self.nodes)


def build_session_graph(sequence) -> SessionGraph:
    """Convert an item sequence into its relation-typed session graph."""
    if len(sequence) == 0:
        raise ValueError("cannot build a session graph from an empty sequence")
    nodes: list[int] = []
    slot: dict[int, int] = {}
    for item in sequence:
        if item not in slot:
            slot[item] = len(nodes)
            nodes.append(item)
    alias = [slot[item] for item in sequence]
    n = len(nodes)
    rel = np.zeros((n, n), dtype=np.int8)
    # directed transitions between adjacent distinct items
    transitions = set()
    for a, b in zip(alias, alias[1:]):
        if a != b:
            transitions.add((a, b))
    for i, j in transitions:
        if (j, i) in transitions:
            rel[i, j] = REL_INOUT
            rel[j, i] = REL_INOUT
        else:
            rel[i, j] = REL_OUT
            rel[j, i] = REL_IN
    for i in range(n):
        rel[i, i] = REL_SELF
    return SessionGraph(nodes, alias, rel)


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
