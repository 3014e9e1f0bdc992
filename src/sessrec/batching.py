"""Packing of (prefix, label) examples into padded batch arrays.

Each example is packed once (`pack_example`) and reused across epochs.  A
pack's node list starts with the session's unique items (so session-graph
node slot == frontier slot) followed by the global-graph receptive field,
breadth-first layer by layer up to `k_hops` hops.  Neighbor lists are always
`top_n` wide with a validity mask; nodes in the outermost layer are treated
as isolated because their own neighbors fall outside the packed frontier and
their aggregated values are never consumed.

`collate` stacks packs into padded arrays.  Padded slots index row 0 and are
masked; the model's reductions guarantee they contribute exact zeros, so a
padded batch of one example reproduces the unpadded forward bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GlobalGraph, build_session_graph


@dataclass
class ExamplePack:
    prefix: tuple[int, ...]
    label: int
    alias: np.ndarray          # (l,) position -> node slot
    rel: np.ndarray            # (n, n) session relation codes
    frontier_items: np.ndarray # (f,) item ids, session nodes first
    nbr_idx: np.ndarray        # (f, W) frontier-slot indices of neighbors
    nbr_wt: np.ndarray         # (f, W) edge weights
    nbr_mask: np.ndarray       # (f, W) neighbor validity

    @property
    def length(self):
        return len(self.alias)

    @property
    def num_nodes(self):
        return self.rel.shape[0]

    @property
    def frontier_size(self):
        return len(self.frontier_items)


def pack_example(prefix, label, global_graph: GlobalGraph | None, k_hops: int, top_n: int | None = None) -> ExamplePack:
    sg = build_session_graph(prefix)
    frontier = list(sg.nodes)
    slot = {item: i for i, item in enumerate(frontier)}

    if k_hops > 0:
        if global_graph is None:
            raise ValueError("k_hops > 0 requires a global graph")
        W = global_graph.top_n if top_n is None else top_n
        layer_end = [len(frontier)]  # frontier[:layer_end[t]] = nodes within t hops
        current = list(frontier)
        for _ in range(k_hops):
            nxt = []
            for item in current:
                for nbr, _w in global_graph.neighbors(item):
                    if nbr not in slot:
                        slot[nbr] = len(frontier)
                        frontier.append(nbr)
                        nxt.append(nbr)
            layer_end.append(len(frontier))
            current = nxt
        f = len(frontier)
        nbr_idx = np.zeros((f, W), dtype=np.int64)
        nbr_wt = np.zeros((f, W), dtype=np.float64)
        nbr_mask = np.zeros((f, W), dtype=bool)
        inner = layer_end[-2] if k_hops > 0 else f  # outermost layer stays isolated
        for i, item in enumerate(frontier[:inner]):
            for w_i, (nbr, wt) in enumerate(global_graph.neighbors(item)):
                nbr_idx[i, w_i] = slot[nbr]
                nbr_wt[i, w_i] = wt
                nbr_mask[i, w_i] = True
    else:
        f = len(frontier)
        W = 1
        nbr_idx = np.zeros((f, W), dtype=np.int64)
        nbr_wt = np.zeros((f, W), dtype=np.float64)
        nbr_mask = np.zeros((f, W), dtype=bool)

    return ExamplePack(
        prefix=tuple(prefix),
        label=label,
        alias=np.asarray(sg.alias, dtype=np.int64),
        rel=sg.rel,
        frontier_items=np.asarray(frontier, dtype=np.int64),
        nbr_idx=nbr_idx,
        nbr_wt=nbr_wt,
        nbr_mask=nbr_mask,
    )


@dataclass
class SessionBatch:
    items: np.ndarray          # (B, F) frontier item ids, 0-padded
    nbr_idx: np.ndarray        # (B, F, W)
    nbr_wt: np.ndarray         # (B, F, W)
    nbr_mask: np.ndarray       # (B, F, W)
    rel: np.ndarray            # (B, N, N)
    alias: np.ndarray          # (B, L)
    pos_mask: np.ndarray       # (B, L)
    lengths: np.ndarray        # (B,)
    labels: np.ndarray         # (B,)


def collate(packs, pad_len=None, pad_nodes=None, pad_frontier=None) -> SessionBatch:
    """Stack packs into padded arrays.  Pad sizes default to batch maxima;
    passing larger values must not change any example's forward result."""
    B = len(packs)
    if B == 0:
        raise ValueError("cannot collate an empty batch")
    L = max(p.length for p in packs) if pad_len is None else pad_len
    N = max(p.num_nodes for p in packs) if pad_nodes is None else pad_nodes
    F = max(p.frontier_size for p in packs) if pad_frontier is None else pad_frontier
    F = max(F, N)
    W = packs[0].nbr_idx.shape[1]
    if any(p.length > L for p in packs):
        raise ValueError(f"pad_len {L} shorter than longest example")

    items = np.zeros((B, F), dtype=np.int64)
    nbr_idx = np.zeros((B, F, W), dtype=np.int64)
    nbr_wt = np.zeros((B, F, W), dtype=np.float64)
    nbr_mask = np.zeros((B, F, W), dtype=bool)
    rel = np.zeros((B, N, N), dtype=np.int8)
    alias = np.zeros((B, L), dtype=np.int64)
    pos_mask = np.zeros((B, L), dtype=bool)
    lengths = np.zeros(B, dtype=np.int64)
    labels = np.zeros(B, dtype=np.int64)

    for b, p in enumerate(packs):
        f, n, l = p.frontier_size, p.num_nodes, p.length
        items[b, :f] = p.frontier_items
        nbr_idx[b, :f] = p.nbr_idx
        nbr_wt[b, :f] = p.nbr_wt
        nbr_mask[b, :f] = p.nbr_mask
        rel[b, :n, :n] = p.rel
        alias[b, :l] = p.alias
        pos_mask[b, :l] = True
        lengths[b] = l
        labels[b] = p.label

    return SessionBatch(items, nbr_idx, nbr_wt, nbr_mask, rel, alias, pos_mask, lengths, labels)
