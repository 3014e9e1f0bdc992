"""Packing of (prefix, label) examples into padded batch arrays, and the
session graphs built from them.

Training packs each batch (`pack_example`) when it draws it, so it holds one
batch of packs at a time; evaluation holds one pass's packs, to batch them by
padded size.  A pack's node list starts with the session's unique items in
first-occurrence order (so session-graph node slot == frontier slot) followed
by the global-graph receptive field, breadth-first layer by layer up to
`k_hops` hops; `layer_end[j]` ends the rows within j hops.  Only the rows within
`k_hops - 1` hops get neighbor rows, copied from their `GlobalGraph` table
rows (`top_n` wide, mask `nbr > 0`, neighbors mapped to frontier slots): the
outermost layer's own neighbors fall outside the packed frontier and its
aggregated values are never consumed, so it is isolated by construction.

`collate` pads each layer separately: session nodes to N, hop-1 rows to
F1, hop-2 rows to F2, any `pad_frontier` surplus going to the outermost
layer.  The batch-wide layer ends P_0 = N, P_1 = N + F1, ... make "the rows
within j hops" the exact prefix `[0, P_j)` of every example, and neighbor
indices are remapped to that layout.  Padded slots index row 0 and are
masked; the model's reductions guarantee they contribute exact zeros, so a
padded batch of one example reproduces the unpadded forward bit for bit.

The global layer runs on a second, unpadded layout of the same rows,
`SessionBatch.rows` (`RealRows`), built from the padded arrays once per
batch on first read: every example's session nodes, then every example's
hop-1 rows, then every hop-2 row, so "the rows within j hops" is the prefix
`[0, T_j)` with no padded row in it.  It holds the rows' items and examples,
the neighbor table into those rows (masked slots index row 0), and the maps
from session-node slots and hop rows back to the padded layout.  The padded
arrays stay: the session layer, the position gathers and the per-hop
attention the model returns are (B, ...) shaped, and they are what a caller
sees of a batch.

Session graphs are directed over the session's unique items with four edge
relations (incoming, outgoing, bidirectional, self).  `collate` builds every
example's graph from the padded `alias` / `pos_mask` arrays: an edge joins
the slots of adjacent distinct items, and each pair of slots gets one of the
relation codes below (padded slots get `REL_NONE`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import GlobalGraph

# relation codes for session-graph edges (0 = no edge); REL_IN | REL_OUT == REL_INOUT
REL_NONE = 0
REL_IN = 1
REL_OUT = 2
REL_INOUT = 3
REL_SELF = 4


@dataclass
class ExamplePack:
    label: int
    alias: np.ndarray          # (l,) position -> node slot
    frontier_items: np.ndarray # (f,) item ids, session nodes first, then hop by hop
    layer_end: tuple           # (k_hops + 1,) frontier[:layer_end[j]] = nodes within j hops
    nbr_idx: np.ndarray        # (layer_end[-2], W) frontier-slot indices of neighbors
    nbr_wt: np.ndarray         # (layer_end[-2], W) edge weights
    nbr_mask: np.ndarray       # (layer_end[-2], W) neighbor validity

    @property
    def length(self):
        return len(self.alias)

    @property
    def num_nodes(self):
        return self.layer_end[0]

    @property
    def frontier_size(self):
        return len(self.frontier_items)


def pack_example(prefix, label, global_graph: GlobalGraph | None, k_hops: int) -> ExamplePack:
    if len(prefix) == 0:
        raise ValueError("cannot pack an empty prefix")
    if k_hops > 0 and global_graph is None:
        raise ValueError("k_hops > 0 requires a global graph")
    slot: dict[int, int] = {}
    alias = [slot.setdefault(item, len(slot)) for item in prefix]
    frontier = list(slot)
    if k_hops > 0 and not 1 <= min(frontier) <= max(frontier) <= global_graph.num_items:
        raise KeyError(f"prefix item outside the vocabulary [1, {global_graph.num_items}]: {list(prefix)}")
    # breadth-first: hop j slots the neighbors in layer j - 1's table rows, row by row,
    # appending the unseen ones to the frontier
    layer_end, start, slots = [len(frontier)], 0, []
    for _ in range(k_hops):
        nbrs = global_graph.nbr[frontier[start:]]
        slots += [slot.setdefault(item, len(slot)) for item in nbrs[nbrs > 0].tolist()]
        start, frontier = len(frontier), list(slot)
        layer_end.append(len(frontier))
    frontier_items = np.array(frontier, dtype=np.int64)
    inner = frontier_items[:start]  # the rows within k_hops - 1 hops, the ones walked above
    nbr, wt = (global_graph.nbr[inner], global_graph.weight[inner]) if k_hops else np.zeros((2, 0, 1), np.int64)
    nbr_mask = nbr > 0
    nbr_idx = np.zeros(nbr.shape, dtype=np.int64)
    nbr_idx[nbr_mask] = slots
    return ExamplePack(
        label=label,
        alias=np.array(alias, dtype=np.int64),
        frontier_items=frontier_items,
        layer_end=tuple(layer_end),
        nbr_idx=nbr_idx,
        nbr_wt=wt.astype(np.float64),
        nbr_mask=nbr_mask,
    )


@dataclass(frozen=True)
class RealRows:
    """The global layer's unpadded row layout of a batch (see module docstring)."""
    items: np.ndarray          # (T_K,) item ids: hop layer by hop layer, example by example
    ends: tuple                # (T_0, ..., T_K): rows [0, T_j) are within j hops
    example: np.ndarray        # (T_K,) each row's example
    nbr_idx: np.ndarray        # (T_{K-1}, W) rows of neighbors, all < T_K; 0 where masked
    nbr_wt: np.ndarray         # (T_{K-1}, W)
    nbr_mask: np.ndarray       # (T_{K-1}, W)
    node_rows: np.ndarray      # (B, N) row of each session-node slot; 0 where padded
    padded_at: tuple           # per j < K: (T_j,) flat position b * P_j + slot of each row


@dataclass
class SessionBatch:
    items: np.ndarray          # (B, P_K) frontier item ids, layer by layer, 0-padded
    layer_ends: tuple          # (P_0, ..., P_K): rows [0, P_j) are within j hops; P_0 = N
    nbr_idx: np.ndarray        # (B, P_{K-1}, W) row indices of neighbors, all < P_K
    nbr_wt: np.ndarray         # (B, P_{K-1}, W)
    nbr_mask: np.ndarray       # (B, P_{K-1}, W)
    rel: np.ndarray            # (B, N, N) session-graph relation codes
    alias: np.ndarray          # (B, L)
    pos_mask: np.ndarray       # (B, L)
    lengths: np.ndarray        # (B,)
    labels: np.ndarray         # (B,)

    @cached_property
    def rows(self) -> RealRows:
        """The real frontier rows, built from the padded arrays on first read
        and kept with the batch, so repeated forwards index nothing again."""
        B, F = self.items.shape
        ends = self.layer_ends
        starts = (0,) + ends[:-1]
        real = self.items > 0  # frontier items are >= 1; padded slots hold 0
        layers = [np.nonzero(real[:, lo:hi]) for lo, hi in zip(starts, ends)]
        example = np.concatenate([b for b, _ in layers])
        slot = np.concatenate([s + lo for (_, s), lo in zip(layers, starts)])
        row_ends = tuple(int(t) for t in np.cumsum([len(b) for b, _ in layers]))
        row_of = np.zeros((B, F), dtype=np.int64)  # padded slot -> row (0 where padded)
        row_of[example, slot] = np.arange(len(example))
        inner = row_ends[-2] if len(ends) > 1 else 0
        b_in, s_in = example[:inner], slot[:inner]
        nbr_mask = self.nbr_mask[b_in, s_in]
        nbr_idx = np.where(nbr_mask, row_of[b_in[:, None], self.nbr_idx[b_in, s_in]], 0)
        padded_at = tuple(example[:t] * p + slot[:t] for t, p in zip(row_ends[:-1], ends[:-1]))
        return RealRows(self.items[example, slot], row_ends, example, nbr_idx, self.nbr_wt[b_in, s_in],
                        nbr_mask, row_of[:, :ends[0]].copy(), padded_at)


def collate(packs, pad_len=None, pad_nodes=None, pad_frontier=None) -> SessionBatch:
    """Stack packs into padded arrays, each hop layer padded on its own.

    Pad sizes default to batch maxima; `pad_nodes` widens the session layer
    and `pad_frontier` the total width, its surplus going to the outermost
    layer.  Passing larger values must not change any example's forward
    result."""
    B = len(packs)
    if B == 0:
        raise ValueError("cannot collate an empty batch")
    lengths = np.array([p.length for p in packs], dtype=np.int64)
    L = int(lengths.max()) if pad_len is None else pad_len
    if lengths.max() > L:
        raise ValueError(f"pad_len {L} shorter than longest example")
    sizes = np.diff([p.layer_end for p in packs], axis=1, prepend=0)  # (B, K+1) layer sizes
    f = sizes.sum(axis=1)
    widths = sizes.max(axis=0)
    if pad_nodes is not None:
        if pad_nodes < widths[0]:
            raise ValueError(f"pad_nodes {pad_nodes} smaller than the largest session graph")
        widths[0] = pad_nodes
    if pad_frontier is not None:
        if pad_frontier < f.max():
            raise ValueError(f"pad_frontier {pad_frontier} smaller than the largest frontier")
        widths[-1] += max(0, pad_frontier - int(widths.sum()))
    ends = np.cumsum(widths)
    starts = ends - widths
    N, F = int(ends[0]), int(ends[-1])
    inner = int(starts[-1])  # rows that can have neighbors
    W = packs[0].nbr_idx.shape[1]

    items = np.zeros((B, F), dtype=np.int64)
    nbr_idx = np.zeros((B, inner, W), dtype=np.int64)
    nbr_wt = np.zeros((B, inner, W), dtype=np.float64)
    nbr_mask = np.zeros((B, inner, W), dtype=bool)
    labels = np.array([p.label for p in packs], dtype=np.int64)

    # pack slot -> batch row: each layer moves to the start of its padded block
    first = np.cumsum(f) - f  # each pack's first slot in the concatenated packs
    slot = np.arange(f.sum()) - np.repeat(first, f)
    shift = starts - (np.cumsum(sizes, axis=1) - sizes)
    row = slot + np.repeat(shift.ravel(), sizes.ravel())
    b_of = np.repeat(np.arange(B), f)
    items[b_of, row] = np.concatenate([p.frontier_items for p in packs])
    has_nbrs = slot < np.repeat([len(p.nbr_idx) for p in packs], f)
    b_in, row_in = b_of[has_nbrs], row[has_nbrs]
    pack_nbrs = np.concatenate([p.nbr_idx for p in packs])
    nbr_idx[b_in, row_in] = row[pack_nbrs + first[b_in, None]]
    nbr_wt[b_in, row_in] = np.concatenate([p.nbr_wt for p in packs])
    nbr_mask[b_in, row_in] = np.concatenate([p.nbr_mask for p in packs])

    pos_mask = np.arange(L) < lengths[:, None]
    alias = np.zeros((B, L), dtype=np.int64)
    alias[pos_mask] = np.concatenate([p.alias for p in packs])

    # session graphs: E[b, i, j] = 1 when slot j directly follows a different slot i;
    # an edge seen both ways sums to REL_OUT + REL_IN == REL_INOUT
    step = pos_mask[:, 1:] & (alias[:, 1:] != alias[:, :-1])
    E = np.zeros((B, N, N), dtype=np.int8)
    E[np.nonzero(step)[0], alias[:, :-1][step], alias[:, 1:][step]] = 1
    rel = REL_OUT * E + REL_IN * E.transpose(0, 2, 1)
    diag = np.arange(N)
    rel[:, diag, diag] = np.where(diag < sizes[:, :1], REL_SELF, REL_NONE)

    return SessionBatch(items, tuple(int(e) for e in ends), nbr_idx, nbr_wt, nbr_mask, rel, alias,
                        pos_mask, lengths, labels)
