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
    return k_hops, [pack_example(tuple(p), 1, graph, k_hops) for p in prefixes]


@settings(max_examples=80, deadline=None)
@given(packed_batches())
def test_collate_stacks_each_pack_from_slot_0(case):
    k_hops, packs = case
    layer_end = np.array([p.layer_end for p in packs])
    batch = collate(packs)

    # N, F and each P_j are the batch's largest session graph, frontier and layer end
    ends = tuple(int(e) for e in layer_end.max(axis=0))
    assert batch.rel.shape[1:] == (ends[0], ends[0])
    assert batch.items.shape[1] == ends[-1]
    inner = ends[-2] if k_hops else 0
    assert batch.nbr_idx.shape[1] == batch.nbr_wt.shape[1] == batch.nbr_mask.shape[1] == inner

    # each pack's own arrays from slot 0, unmapped, then zeros
    for b, p in enumerate(packs):
        for name, own in (("items", p.frontier_items), ("nbr_idx", p.nbr_idx),
                          ("nbr_wt", p.nbr_wt), ("nbr_mask", p.nbr_mask)):
            stacked = getattr(batch, name)[b]
            assert np.array_equal(stacked[:len(own)], own) and not stacked[len(own):].any(), name
        # the pack's alias, in order, as the rows of the slots' session nodes
        own = np.flatnonzero(batch.rows.pos_example == b)
        assert np.array_equal(batch.rows.pos_rows[own], example_rows(batch.rows, b)[p.alias])

    if k_hops:
        model = NextItemModel(25, 6, ModelConfig(embedding_dim=3, k_hops=k_hops, dropout_global=0.0))
        out = model.forward(batch)
        rows = batch.rows
        assert [a.shape for a in out.global_attn] == [(rows.ends[k_hops - 1 - t], rows.nbr_idx.shape[1])
                                                      for t in range(k_hops)]


@settings(max_examples=80, deadline=None)
@given(packed_batches())
def test_edge_table_lists_each_session_graph_edge_once_in_slot_order(case):
    k_hops, packs = case
    batch = collate(packs)
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


def test_collate_refuses_an_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        collate([])


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
    return k_hops, [pack_example(tuple(p), 1, graph, k_hops) for p in prefixes]


@settings(max_examples=80, deadline=None)
@given(layout_cases())
def test_real_row_layout_lists_each_frontier_row_once_whatever_the_padding(case):
    k_hops, packs = case
    batch = collate(packs)
    rows = batch.rows

    # hop layer by hop layer, pack by pack, every frontier row exactly once, however
    # far the stacked arrays pad the smaller packs
    assert rows.ends == tuple(sum(p.layer_end[j] for p in packs) for j in range(k_hops + 1))
    assert len(rows.items) == rows.ends[-1] <= batch.items.size
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
        for i in range(len(p.nbr_idx)):
            r, m = row_of[b, i], p.nbr_mask[i]
            assert np.array_equal(rows.nbr_mask[r], m) and np.array_equal(rows.nbr_wt[r], p.nbr_wt[i])
            # a valid neighbour names the row of the pack's neighbour slot: same example, same item
            assert rows.nbr_idx[r][m].tolist() == [row_of[b, s] for s in p.nbr_idx[i][m]]
            assert np.array_equal(rows.items[rows.nbr_idx[r][m]], p.frontier_items[p.nbr_idx[i][m]])
            assert not rows.nbr_idx[r][~m].any()

    # positions: position-major, each position layer in example order
    L = max(p.length for p in packs)
    order = [(j, b) for j in range(L) for b, p in enumerate(packs) if j < p.length]
    assert rows.pos_example.tolist() == [b for _, b in order]
    assert rows.position.tolist() == [j for j, _ in order]
    assert rows.pos_rows.tolist() == [row_of[b, packs[b].alias[j]] for j, b in order]
    assert rows.pos_ends == tuple(sum(min(p.length, j + 1) for p in packs) for j in range(L))
    assert rows.last_pos.tolist() == [order.index((p.length - 1, b)) for b, p in enumerate(packs)]
