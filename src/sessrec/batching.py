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

`collate` lays each batch out once, from the packs.  The model reads the
frontier only through `SessionBatch.rows` (`RealRows`), the batch's real rows
with no padding: every example's session nodes, then every example's hop-1
rows, then every hop-2 row, so "the rows within j hops" is the prefix
`[0, T_j)`, and example b's rows within j hops, in pack-slot order, are
those of `example[:T_j]` equal to b.  It holds the rows' items and examples,
the neighbor table into those rows (masked slots index row 0), the
session-node rows' edge table (below), and `pos_rows`, the row of each
sequence position's session node.  The model computes on these rows only and
gathers per-position vectors through `pos_rows` once; a padded position
takes its example's first node row, and the position reductions guarantee
that masked entries contribute exact zeros, so a padded batch of one example
reproduces the unpadded forward bit for bit.

The other arrays stack the packs' own arrays, each from slot 0 and 0-padded:
`items` (B, F) and the neighbor tables (B, P_{K-1}, W) in pack slots, where
P_0 = N (below) and P_j is the batch's largest `layer_end[j]`; `pad_frontier`
widens only `items`.  The model does not read them; the benchmark's tracer
and tests do.

Session graphs are directed over the session's unique items with four edge
relations (incoming, outgoing, bidirectional, self).  `collate` builds every
example's graph from the packs' position-to-slot `alias`, padded with slot 0,
and `pos_mask`: an edge joins the slots of adjacent distinct items, and each
pair of slots gets one of the relation codes below (padded slots get
`REL_NONE`), the (B, N, N) `rel`, where N is the session-node width
(`pad_nodes` widens it).  The model reads the graph only as the edge table
of `RealRows`, built from `rel` with one `np.nonzero`: per session-node row,
the rows of its in-graph neighbors (itself included) in ascending slot order
and their relation codes, padded to W_s, the largest degree.  `rel` is
otherwise kept only for the benchmark's tracer and for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The batch's real frontier rows, with no padding (see module docstring)."""
    items: np.ndarray          # (T_K,) item ids: hop layer by hop layer, example by example
    ends: tuple                # (T_0, ..., T_K): rows [0, T_j) are within j hops
    example: np.ndarray        # (T_K,) each row's example
    nbr_idx: np.ndarray        # (T_{K-1}, W) rows of neighbors, all < T_K; 0 where masked
    nbr_wt: np.ndarray         # (T_{K-1}, W)
    nbr_mask: np.ndarray       # (T_{K-1}, W)
    pos_rows: np.ndarray       # (B, L) row of each position's session node; the example's
                               # first node row where the position is padded
    sess_idx: np.ndarray       # (T_0, W_s) rows of each node row's session-graph neighbors, itself
                               # included, in ascending slot order; 0 where masked
    sess_rel: np.ndarray       # (T_0, W_s) their relation codes; REL_NONE where masked


@dataclass
class SessionBatch:
    items: np.ndarray          # (B, F) each pack's frontier item ids from slot 0, 0-padded; F >= N
    nbr_idx: np.ndarray        # (B, P_{K-1}, W) each pack's own neighbor table (pack slots), 0-padded
    nbr_wt: np.ndarray         # (B, P_{K-1}, W)
    nbr_mask: np.ndarray       # (B, P_{K-1}, W)
    rel: np.ndarray            # (B, N, N) session-graph relation codes, the source of rows.sess_*
    pos_mask: np.ndarray       # (B, L)
    lengths: np.ndarray        # (B,)
    labels: np.ndarray         # (B,)
    rows: RealRows             # the real frontier rows, the only ones the model reads


def _stack(flat, lens, width):
    """(len(lens), width, ...) array of the consecutive runs of `flat` with
    lengths `lens`, one per row from slot 0, 0-padded."""
    out = np.zeros((len(lens), width) + flat.shape[1:], dtype=flat.dtype)
    out[np.arange(width) < lens[:, None]] = flat
    return out


def collate(packs, pad_len=None, pad_nodes=None, pad_frontier=None) -> SessionBatch:
    """Lay out the packs' real rows and stack the packs into padded arrays.

    Pad sizes default to batch maxima; `pad_len` widens the position arrays,
    `pad_nodes` the session-node width N and `pad_frontier` the stacked
    `items`.  Passing larger values must not
    change any example's forward result."""
    B = len(packs)
    if B == 0:
        raise ValueError("cannot collate an empty batch")
    lengths = np.array([p.length for p in packs], dtype=np.int64)
    L = int(lengths.max()) if pad_len is None else pad_len
    if lengths.max() > L:
        raise ValueError(f"pad_len {L} shorter than longest example")
    layer_end = np.array([p.layer_end for p in packs])  # (B, K+1)
    ends = layer_end.max(axis=0)
    if pad_nodes is not None:
        if pad_nodes < ends[0]:
            raise ValueError(f"pad_nodes {pad_nodes} smaller than the largest session graph")
        ends[0] = pad_nodes
    f = layer_end[:, -1]
    if pad_frontier is not None and pad_frontier < f.max():
        raise ValueError(f"pad_frontier {pad_frontier} smaller than the largest frontier")
    K, N = len(ends) - 1, int(ends[0])
    F = max(N, int(f.max()) if pad_frontier is None else pad_frontier)
    n_in = np.array([len(p.nbr_idx) for p in packs])  # each pack's rows within K - 1 hops
    frontier = np.concatenate([p.frontier_items for p in packs])
    nbr_idx, nbr_wt, nbr_mask = (np.concatenate([getattr(p, name) for p in packs])
                                 for name in ("nbr_idx", "nbr_wt", "nbr_mask"))

    # real rows: each pack's run of slots in hop layer j moves to the rows of layer j,
    # after the earlier examples' runs of that layer
    sizes = np.diff(layer_end, axis=1, prepend=0)
    run_row = (np.cumsum(sizes.T) - sizes.T.ravel()).reshape(K + 1, B).T  # (B, K+1) first rows
    first = np.cumsum(f) - f  # each pack's first slot in the concatenated packs
    shift = run_row - (first[:, None] + layer_end - sizes)
    row = np.arange(len(frontier)) + np.repeat(shift.ravel(), sizes.ravel())  # slot -> row
    src = np.empty_like(row)
    src[row] = np.arange(len(row))  # row -> slot in the concatenated packs
    example = np.repeat(np.arange(B), f)[src]
    slot = src - first[example]  # each row's slot in its own pack
    row_ends = tuple(int(t) for t in np.cumsum(sizes.sum(axis=0)))
    b_in = example[:n_in.sum()]  # the rows within K - 1 hops, the ones with neighbors
    at = (np.cumsum(n_in) - n_in)[b_in] + slot[:len(b_in)]  # their rows of the concatenated tables
    node_row = run_row[:, 0]  # each example's first session-node row; its slot i is row + i
    node_slot = np.arange(N)

    pos_mask = np.arange(L) < lengths[:, None]
    alias = _stack(np.concatenate([p.alias for p in packs]), lengths, L)  # padded positions: slot 0
    labels = np.array([p.label for p in packs], dtype=np.int64)

    # session graphs: E[b, i, j] = 1 when slot j directly follows a different slot i;
    # an edge seen both ways sums to REL_OUT + REL_IN == REL_INOUT
    step = pos_mask[:, 1:] & (alias[:, 1:] != alias[:, :-1])
    E = np.zeros((B, N, N), dtype=np.int8)
    E[np.nonzero(step)[0], alias[:, :-1][step], alias[:, 1:][step]] = 1
    rel = REL_OUT * E + REL_IN * E.transpose(0, 2, 1)
    rel[:, node_slot, node_slot] = np.where(node_slot < sizes[:, :1], REL_SELF, REL_NONE)

    # the edge table: nonzero lists each node row's edges in ascending slot order, and
    # node rows run example by example, slot by slot, so the edges come row by row
    eb, ei, ej = np.nonzero(rel)
    edge_row = node_row[eb] + ei
    degree = np.bincount(edge_row, minlength=row_ends[0])
    edge_col = np.arange(len(edge_row)) - (np.cumsum(degree) - degree)[edge_row]
    sess_idx = np.zeros((row_ends[0], degree.max()), dtype=np.int64)
    sess_rel = np.full(sess_idx.shape, REL_NONE, dtype=rel.dtype)
    sess_idx[edge_row, edge_col] = node_row[eb] + ej
    sess_rel[edge_row, edge_col] = rel[eb, ei, ej]

    rows = RealRows(
        items=frontier[src],
        ends=row_ends,
        example=example,
        nbr_idx=np.where(nbr_mask[at], row[nbr_idx[at] + first[b_in, None]], 0),
        nbr_wt=nbr_wt[at],
        nbr_mask=nbr_mask[at],
        pos_rows=node_row[:, None] + alias,
        sess_idx=sess_idx,
        sess_rel=sess_rel,
    )

    inner = int(ends[-2]) if K else 0
    return SessionBatch(_stack(frontier, f, F), _stack(nbr_idx, n_in, inner), _stack(nbr_wt, n_in, inner),
                        _stack(nbr_mask, n_in, inner), rel, pos_mask, lengths, labels, rows)
