"""Graph construction: per-session transition graphs and the corpus-wide
windowed co-occurrence graph.

Session graphs are directed over the session's unique items with four edge
relations (incoming, outgoing, bidirectional, self).  The global graph is
undirected and weighted: for every session, every unordered item pair at
sequence distance <= epsilon counts once per occurrence, and each node keeps
only its `top_n` heaviest neighbors (ties broken by ascending item index).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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


def session_transitions(graph: SessionGraph):
    """Recover the set of directed transitions encoded in the relations."""
    out = set()
    n = graph.num_nodes
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = graph.rel[i, j]
            if r == REL_OUT or r == REL_INOUT:
                out.add((i, j))
            elif r == REL_IN:
                out.add((j, i))
    return out


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


def cooccurrence_weights(sequences, epsilon: int) -> Counter:
    """Symmetric pair weights: each (position, offset<=epsilon) occurrence of an
    unordered item pair adds one.  Pairs of an item with itself are skipped."""
    weights: Counter = Counter()
    for seq in sequences:
        n = len(seq)
        for i in range(n):
            for dj in range(1, epsilon + 1):
                j = i + dj
                if j >= n:
                    break
                a, b = seq[i], seq[j]
                if a == b:
                    continue
                weights[(min(a, b), max(a, b))] += 1
    return weights


def build_global_graph(corpus_or_sequences, epsilon: int = 3, top_n: int = 12, num_items=None) -> GlobalGraph:
    """Build the pruned co-occurrence graph from training sessions only."""
    if hasattr(corpus_or_sequences, "sessions"):
        sequences = [s.items for s in corpus_or_sequences.sessions]
        if num_items is None:
            num_items = corpus_or_sequences.num_items
    else:
        sequences = list(corpus_or_sequences)
        if num_items is None:
            num_items = max((max(seq) for seq in sequences if seq), default=0)
    weights = cooccurrence_weights(sequences, epsilon)
    adj: dict[int, list[tuple[int, int]]] = {}
    for (a, b), w in weights.items():
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    pruned = {}
    for item, nbrs in adj.items():
        nbrs.sort(key=lambda nw: (-nw[1], nw[0]))
        pruned[item] = nbrs[:top_n]
    return GlobalGraph(pruned, num_items, epsilon, top_n)


def write_global_graph(path, graph: GlobalGraph):
    """Line-delimited export `item\tneighbor\tweight`, sorted."""
    with open(path, "w") as f:
        f.write(f"# num_items={graph.num_items} epsilon={graph.epsilon} top_n={graph.top_n}\n")
        for item in sorted(graph.neighbors_map):
            for nbr, w in graph.neighbors_map[item]:
                f.write(f"{item}\t{nbr}\t{w}\n")


def read_global_graph(path) -> GlobalGraph:
    neighbors_map: dict[int, list[tuple[int, int]]] = {}
    meta = {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                for part in line[1:].split():
                    k, v = part.split("=")
                    meta[k] = int(v)
                continue
            item, nbr, w = line.split("\t")
            neighbors_map.setdefault(int(item), []).append((int(nbr), int(w)))
    return GlobalGraph(neighbors_map, meta["num_items"], meta["epsilon"], meta["top_n"])
