import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec.batching import collate, pack_example
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
def test_collate_pads_each_hop_layer_as_a_prefix(case):
    k_hops, packs, node_extra, frontier_extra = case
    sizes = np.array([np.diff(p.layer_end, prepend=0) for p in packs])
    widths = sizes.max(axis=0)
    pad_nodes = None if node_extra is None else int(widths[0]) + node_extra
    pad_frontier = None if frontier_extra is None else max(p.frontier_size for p in packs) + frontier_extra
    batch = collate(packs, pad_nodes=pad_nodes, pad_frontier=pad_frontier)

    ends = batch.layer_ends
    assert len(ends) == k_hops + 1
    # every layer but the outermost is padded to its own batch maximum; any
    # pad_frontier surplus lands in the outermost layer
    expect = widths.copy()
    if pad_nodes is not None:
        expect[0] = pad_nodes
    if pad_frontier is not None:
        expect[-1] += max(0, pad_frontier - int(expect.sum()))
    assert list(np.diff(ends, prepend=0)) == list(expect)
    assert batch.rel.shape[1] == ends[0] and batch.items.shape[1] == ends[-1]
    inner = ends[-2] if k_hops else 0
    assert batch.nbr_idx.shape[1] == batch.nbr_wt.shape[1] == batch.nbr_mask.shape[1] == inner

    for b, p in enumerate(packs):
        row = {}
        for j in range(k_hops + 1):
            lo, hi = (p.layer_end[j - 1] if j else 0), p.layer_end[j]
            start = ends[j - 1] if j else 0
            block = batch.items[b, start: ends[j]]
            assert np.array_equal(block[: hi - lo], p.frontier_items[lo:hi])
            assert not block[hi - lo:].any()
            row.update({s: start + s - lo for s in range(lo, hi)})
        for i in range(len(p.nbr_idx)):
            r = row[i]
            m = p.nbr_mask[i]
            assert np.array_equal(batch.nbr_mask[b, r], m)
            assert np.array_equal(batch.nbr_wt[b, r], p.nbr_wt[i])
            got = batch.items[b, batch.nbr_idx[b, r][m]]
            assert np.array_equal(got, p.frontier_items[p.nbr_idx[i][m]])
            # a row within j hops only reads rows within j + 1 hops
            j = next(j for j in range(k_hops + 1) if i < p.layer_end[j])
            assert np.all(batch.nbr_idx[b, r][m] < ends[j + 1])
        assert not batch.nbr_mask[b, sorted(set(range(inner)) - set(row.values()))].any()

    if k_hops:
        model = NextItemModel(25, 6, ModelConfig(embedding_dim=3, k_hops=k_hops, dropout_global=0.0))
        out = model.forward(batch)
        assert [a.shape for a in out.global_attn] == [(len(packs), ends[k_hops - 1 - t], batch.nbr_idx.shape[2])
                                                      for t in range(k_hops)]
