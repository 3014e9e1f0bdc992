from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example_rows
from sessrec.batching import REL_NONE, collate, pack_example
from sessrec.graphs import build_global_graph, csr
from sessrec.model import ModelConfig, NextItemModel


@st.composite
def packed_batches(draw):
    k_hops = draw(st.integers(0, 2))
    n_items = draw(st.integers(2, 25))
    seqs = st.lists(st.integers(1, n_items), min_size=2, max_size=8)
    sessions = draw(st.lists(seqs, min_size=1, max_size=15))
    graph = build_global_graph(*csr(sessions), epsilon=2, top_n=draw(st.integers(1, 5)), num_items=n_items)
    prefixes = draw(st.lists(st.lists(st.integers(1, n_items), min_size=1, max_size=6),
                             min_size=1, max_size=5))
    packs = [pack_example(tuple(p), 1, graph, k_hops) for p in prefixes]
    node_extra = draw(st.none() | st.integers(0, 3))
    frontier_extra = draw(st.none() | st.integers(0, 20))
    return k_hops, packs, node_extra, frontier_extra


@settings(max_examples=80, deadline=None)
@given(packed_batches())
def test_collate_stacks_each_pack_from_slot_0(case):
    k_hops, packs, node_extra, frontier_extra = case
    layer_end = np.array([p.layer_end for p in packs])
    nodes, frontier = int(layer_end[:, 0].max()), int(layer_end[:, -1].max())
    pad_nodes = None if node_extra is None else nodes + node_extra
    pad_frontier = None if frontier_extra is None else frontier + frontier_extra
    batch = collate(packs, pad_nodes=pad_nodes, pad_frontier=pad_frontier)

    # P_0 = N, then each hop layer's largest end; pad_frontier widens only `items`
    N = nodes if pad_nodes is None else pad_nodes
    ends = (N,) + tuple(int(e) for e in layer_end[:, 1:].max(axis=0))
    assert batch.rel.shape[1] == N
    assert batch.items.shape[1] == max(N, frontier if pad_frontier is None else pad_frontier)
    inner = ends[-2] if k_hops else 0
    assert batch.nbr_idx.shape[1] == batch.nbr_wt.shape[1] == batch.nbr_mask.shape[1] == inner

    # each pack's own arrays from slot 0, unmapped, then zeros
    for b, p in enumerate(packs):
        for name, own in (("items", p.frontier_items), ("nbr_idx", p.nbr_idx),
                          ("nbr_wt", p.nbr_wt), ("nbr_mask", p.nbr_mask)):
            stacked = getattr(batch, name)[b]
            assert np.array_equal(stacked[:len(own)], own) and not stacked[len(own):].any(), name
        # the pack's alias from slot 0, then slot 0, as the rows of the slots' session nodes
        alias = np.zeros(batch.pos_mask.shape[1], dtype=np.int64)
        alias[:p.length] = p.alias
        assert np.array_equal(batch.rows.pos_rows[b], example_rows(batch.rows, b)[alias])

    if k_hops:
        model = NextItemModel(25, 6, ModelConfig(embedding_dim=3, k_hops=k_hops, dropout_global=0.0))
        out = model.forward(batch)
        rows = batch.rows
        assert [a.shape for a in out.global_attn] == [(rows.ends[k_hops - 1 - t], rows.nbr_idx.shape[1])
                                                      for t in range(k_hops)]


@settings(max_examples=80, deadline=None)
@given(packed_batches())
def test_edge_table_lists_each_session_graph_edge_once_in_slot_order(case):
    k_hops, packs, node_extra, _ = case
    N = max(p.num_nodes for p in packs) + (node_extra or 0)
    batch = collate(packs, pad_nodes=N, pad_len=max(p.length for p in packs) + 2)
    rows, rel = batch.rows, batch.rel
    degree = np.count_nonzero(rel, axis=2)
    assert rows.sess_idx.shape == rows.sess_rel.shape == (rows.ends[0], degree.max())
    for b, p in enumerate(packs):
        node = example_rows(rows, b)  # the row of each session-node slot
        assert len(node) == p.num_nodes
        for i in range(p.num_nodes):
            r, slots = node[i], np.flatnonzero(rel[b, i])  # ascending slots
            n = len(slots)
            assert rows.sess_idx[r, :n].tolist() == node[slots].tolist()
            assert rows.sess_rel[r, :n].tolist() == rel[b, i, slots].tolist()
            assert not rows.sess_idx[r, n:].any() and np.all(rows.sess_rel[r, n:] == REL_NONE)
    # so every edge of the batch appears exactly once
    valid = rows.sess_rel != REL_NONE
    edges = np.nonzero(valid)[0] * rows.ends[0] + rows.sess_idx[valid]  # (row, neighbour row) pairs
    assert np.count_nonzero(valid) == np.count_nonzero(rel) == len(np.unique(edges))


def _two_packs():
    graph = build_global_graph(*csr([[1, 2, 3], [2, 4, 1]]), epsilon=2, top_n=3, num_items=4)
    return [pack_example((1, 2), 3, graph, 1), pack_example((2, 4, 2), 1, graph, 1)]


@pytest.mark.parametrize("packs, pad, message", [
    ([], {}, "empty batch"),
    (_two_packs(), {"pad_len": 2}, "pad_len 2 shorter than longest example"),
    (_two_packs(), {"pad_nodes": 1}, "pad_nodes 1 smaller than the largest session graph"),
    (_two_packs(), {"pad_frontier": 3}, "pad_frontier 3 smaller than the largest frontier"),
], ids=["empty", "pad_len", "pad_nodes", "pad_frontier"])
def test_collate_refuses_an_empty_batch_or_a_pad_below_the_batch_maximum(packs, pad, message):
    with pytest.raises(ValueError, match=message):
        collate(packs, **pad)
    if packs:  # the batch maxima themselves pass
        collate(packs, pad_len=3, pad_nodes=2, pad_frontier=max(p.frontier_size for p in packs))


def bfs_oracle(prefix, graph, k_hops):
    """Frontier, layer ends, alias and per-row (slot, weight) neighbor lists of
    one prefix, walked breadth-first from `GlobalGraph.neighbors` alone."""
    nodes = list(dict.fromkeys(prefix))
    layers, seen = [nodes], set(nodes)
    for _ in range(k_hops):
        layer = []
        for item in layers[-1]:
            for nbr, _w in graph.neighbors(item):
                if nbr not in seen:
                    seen.add(nbr)
                    layer.append(nbr)
        layers.append(layer)
    frontier = [item for layer in layers for item in layer]
    layer_end = list(accumulate(len(layer) for layer in layers))
    inner = layer_end[-2] if k_hops else 0
    rows = [[(frontier.index(nbr), w) for nbr, w in graph.neighbors(item)] for item in frontier[:inner]]
    return frontier, layer_end, [nodes.index(item) for item in prefix], rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pack_matches_breadth_first_oracle(data):
    k_hops = data.draw(st.integers(0, 2))
    n_items = data.draw(st.integers(1, 25))
    seqs = st.lists(st.integers(1, n_items), min_size=1, max_size=8)
    top_n = data.draw(st.integers(1, 5))
    graph = build_global_graph(*csr(data.draw(st.lists(seqs, min_size=1, max_size=15))),
                               epsilon=data.draw(st.integers(1, 3)), top_n=top_n, num_items=n_items)
    prefix = tuple(data.draw(seqs))
    pack = pack_example(prefix, 1, graph, k_hops)
    frontier, layer_end, alias, rows = bfs_oracle(prefix, graph, k_hops)
    assert pack.frontier_items.tolist() == frontier
    assert list(pack.layer_end) == layer_end
    assert pack.alias.tolist() == alias
    W = top_n if k_hops else 1
    assert pack.nbr_idx.shape == pack.nbr_wt.shape == pack.nbr_mask.shape == (len(rows), W)
    for i, row in enumerate(rows):
        n = len(row)
        assert pack.nbr_mask[i].tolist() == [True] * n + [False] * (W - n)
        assert pack.nbr_idx[i, :n].tolist() == [slot for slot, _ in row]
        assert pack.nbr_wt[i, :n].tolist() == [float(w) for _, w in row]
        assert not pack.nbr_idx[i, n:].any() and not pack.nbr_wt[i, n:].any()


@st.composite
def layout_cases(draw):
    k_hops = draw(st.integers(1, 2))
    n_items = draw(st.integers(2, 25))
    seqs = st.lists(st.integers(1, n_items), min_size=2, max_size=8)
    sessions = draw(st.lists(seqs, min_size=1, max_size=15))
    graph = build_global_graph(*csr(sessions), epsilon=2, top_n=draw(st.integers(1, 5)), num_items=n_items)
    prefixes = draw(st.lists(st.lists(st.integers(1, n_items), min_size=1, max_size=6),
                             min_size=1, max_size=5))
    packs = [pack_example(tuple(p), 1, graph, k_hops) for p in prefixes]
    return k_hops, packs, draw(st.integers(0, 3)), draw(st.integers(0, 20))


@settings(max_examples=80, deadline=None)
@given(layout_cases())
def test_real_row_layout_lists_each_frontier_row_once_whatever_the_padding(case):
    k_hops, packs, node_extra, frontier_extra = case
    batch = collate(packs, pad_nodes=max(p.num_nodes for p in packs) + node_extra,
                    pad_frontier=max(p.frontier_size for p in packs) + frontier_extra)
    rows, plain = batch.rows, collate(packs).rows
    # surplus padding changes nothing in the real rows
    assert rows.ends == plain.ends
    for name in ("items", "example", "nbr_idx", "nbr_wt", "nbr_mask", "pos_rows", "sess_idx", "sess_rel"):
        assert np.array_equal(getattr(rows, name), getattr(plain, name)), name

    # hop layer by hop layer, pack by pack, every frontier row exactly once
    assert rows.ends == tuple(sum(p.layer_end[j] for p in packs) for j in range(k_hops + 1))
    row_of, items, example = {}, [], []
    for j in range(k_hops + 1):
        for b, p in enumerate(packs):
            lo, hi = (p.layer_end[j - 1] if j else 0), p.layer_end[j]
            row_of.update({(b, s): len(items) + s - lo for s in range(lo, hi)})
            items += p.frontier_items[lo:hi].tolist()
            example += [b] * (hi - lo)
    assert rows.items.tolist() == items and rows.example.tolist() == example

    W = batch.nbr_idx.shape[2]
    assert rows.nbr_idx.shape == rows.nbr_wt.shape == rows.nbr_mask.shape == (rows.ends[-2], W)
    for b, p in enumerate(packs):
        # each example's rows within j hops are its pack's slots [0, layer_end[j]), in slot order
        for j in range(k_hops + 1):
            assert example_rows(rows, b, j).tolist() == [row_of[b, s] for s in range(p.layer_end[j])]
        # each position reads its session node's row; a padded one the example's first node row
        assert rows.pos_rows[b].tolist() == [row_of[b, s] for s in p.alias] + \
            [row_of[b, 0]] * (rows.pos_rows.shape[1] - p.length)
        for i in range(len(p.nbr_idx)):
            r, m = row_of[b, i], p.nbr_mask[i]
            assert np.array_equal(rows.nbr_mask[r], m) and np.array_equal(rows.nbr_wt[r], p.nbr_wt[i])
            # a valid neighbour names the row of the pack's neighbour slot: same example, same item
            assert rows.nbr_idx[r][m].tolist() == [row_of[b, s] for s in p.nbr_idx[i][m]]
            assert np.array_equal(rows.items[rows.nbr_idx[r][m]], p.frontier_items[p.nbr_idx[i][m]])
            assert not rows.nbr_idx[r][~m].any()
