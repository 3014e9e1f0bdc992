import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import bits, example_rows
from sessrec import autodiff as ad
from sessrec.batching import collate, pack_example
from sessrec.graphs import GlobalGraph, build_global_graph, csr
from sessrec.model import (LEAKY_SLOPE, TOY_SESSIONS, ModelConfig, NextItemModel, load_checkpoint,
                           model_gradcheck, save_checkpoint, toy_batch)

# -- scalar helpers for desk-calculation oracles (no numpy on purpose) --------


def matvec(W, x):
    return [sum(W[r][c] * x[c] for c in range(len(x))) for r in range(len(W))]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def leaky(v, slope=0.2):
    return v if v >= 0 else slope * v


def sigmoid_s(v):
    return 1.0 / (1.0 + math.exp(-v))


def make_model(num_items, max_len=6, seed=0, **cfg_kwargs):
    cfg_kwargs.setdefault("dropout_global", 0.0)
    cfg = ModelConfig(**cfg_kwargs)
    return NextItemModel(num_items, max_len, cfg, seed=seed)


def single_batch(prefix, label, graph, k_hops):
    return collate([pack_example(prefix, label, graph, k_hops)])


def graph_of(lists, num_items, top_n=12):
    """A GlobalGraph whose table rows hold the given item -> [(neighbor, weight)] lists."""
    nbr = np.zeros((num_items + 1, top_n), dtype=np.int64)
    weight = np.zeros_like(nbr)
    for item, entries in lists.items():
        for j, (n, w) in enumerate(entries):
            nbr[item, j], weight[item, j] = n, w
    return GlobalGraph(nbr, weight, num_items, epsilon=1, top_n=top_n)


class TestGlobalLayer:
    def _pair_graph(self, weight=3):
        return graph_of({1: [(2, weight)], 2: [(1, weight)]}, num_items=2)

    def test_single_neighbor_gets_weight_one(self):
        model = make_model(2, embedding_dim=4, k_hops=1)
        batch = single_batch((1, 2), 1, self._pair_graph(), 1)
        out = model.forward(batch)
        alpha = out.global_attn[0].value  # (node rows, W)
        assert alpha[0, 0] == 1.0 and alpha[1, 0] == 1.0
        assert np.all(alpha[:, 1:] == 0)

    def test_identical_neighbors_split_evenly(self):
        # two neighbors with identical embeddings and identical edge weights
        graph = graph_of({1: [(2, 5), (3, 5)], 2: [(1, 5)], 3: [(1, 5)]}, num_items=3)
        model = make_model(3, embedding_dim=4, k_hops=1)
        emb = model.params["item_embeddings"]
        emb.value[3] = emb.value[2]
        batch = single_batch((1, 2), 1, graph, 1)
        out = model.forward(batch)
        alpha = out.global_attn[0].value[0]  # item 1's row
        assert np.allclose(alpha[:2], [0.5, 0.5], atol=1e-12)

    def test_desk_calculation_d2(self):
        # independent scalar evaluation of the attention + aggregation chain
        model = make_model(2, embedding_dim=2, k_hops=1)
        h1, h2 = [0.1, -0.2], [0.3, 0.4]
        W1 = [[0.2, -0.1, 0.05], [0.0, 0.3, -0.2], [0.1, 0.1, 0.1]]
        q1 = [0.5, -0.4, 0.3]
        W2 = [[0.1, 0.2, -0.1, 0.3], [-0.2, 0.1, 0.4, 0.0]]
        p = model.params
        p["item_embeddings"].value[1] = h1
        p["item_embeddings"].value[2] = h2
        p["global_att_proj_hop1"].value[:] = W1
        p["global_att_vec_hop1"].value[:] = q1
        p["global_agg_hop1"].value[:] = W2

        w12 = 3
        batch = single_batch((1, 2), 1, self._pair_graph(w12), 1)

        # oracle: session feature, scores, softmax, aggregation
        s = [(h1[0] + h2[0]) / 2, (h1[1] + h2[1]) / 2]
        hg = []
        for h_self, h_nbr in ((h1, h2), (h2, h1)):
            x = [s[0] * h_nbr[0], s[1] * h_nbr[1], float(w12)]
            pi = dot(q1, [leaky(v) for v in matvec(W1, x)])
            alpha = 1.0  # softmax over a single neighbor
            h_n = [alpha * h_nbr[0], alpha * h_nbr[1]]
            agg_in = h_self + h_n
            hg.append([max(0.0, v) for v in matvec(W2, agg_in)])
        # fuse = dropout(h_g) + h_s, so compare the global branch directly
        model_no_sess = make_model(2, embedding_dim=2, k_hops=1, use_session_layer=False)
        for name in ("item_embeddings", "global_att_proj_hop1", "global_att_vec_hop1", "global_agg_hop1"):
            model_no_sess.params[name].value[:] = p[name].value
        out2 = model_no_sess.forward(batch)
        assert np.allclose(out2.fused.value, np.array(hg), atol=1e-12)

    def test_isolated_node_uses_zero_neighborhood(self):
        graph = graph_of({1: [(2, 1)], 2: [(1, 1)]}, num_items=3)
        model = make_model(3, embedding_dim=4, k_hops=1, use_session_layer=False)
        batch = single_batch((3,), 1, graph, 1)  # item 3 has no neighbors
        out = model.forward(batch)
        # oracle: relu(W2 [h3 || 0])
        h3 = model.params["item_embeddings"].value[3]
        W2 = model.params["global_agg_hop1"].value
        expect = np.maximum(W2 @ np.concatenate([h3, np.zeros(4)]), 0.0)
        assert np.allclose(out.fused.value[0], expect, atol=1e-12)

    def test_unknown_session_item_rejected(self):
        graph = self._pair_graph()
        with pytest.raises(KeyError):
            pack_example((1, 5), 1, graph, 1)


def reference_global_rows(model, pack):
    """Dense numpy evaluation of the global layer over every frontier row of
    one unpadded pack, hop by hop; returns the session rows' final vectors."""
    p = {name: model.params[name].value for name in model.params.names()}
    emb = p["item_embeddings"]
    h = emb[pack.frontier_items]
    s = emb[pack.frontier_items[pack.alias]].mean(axis=0)
    for suffix in model._hop_suffixes():
        W1, q1, W2 = (p[f"global_att_proj{suffix}"], p[f"global_att_vec{suffix}"],
                      p[f"global_agg{suffix}"])
        out = np.empty_like(h)
        for i in range(len(h)):
            h_nbr = np.zeros(h.shape[1])
            if i < len(pack.nbr_idx) and pack.nbr_mask[i].any():
                js = pack.nbr_idx[i][pack.nbr_mask[i]]
                x = np.concatenate([s * h[js], pack.nbr_wt[i][pack.nbr_mask[i]][:, None]], axis=1)
                pre = x @ W1.T
                e = np.where(pre >= 0, pre, LEAKY_SLOPE * pre) @ q1
                a = np.exp(e - e.max())
                h_nbr = (a / a.sum()) @ h[js]
            out[i] = np.maximum(W2 @ np.concatenate([h[i], h_nbr]), 0.0)
        h = out
    return h[: pack.num_nodes]


def global_rows(model, batch):
    """The global layer's (T_0, d) session-node rows, its inputs built as forward builds them."""
    rows = batch.rows
    h0 = ad.gather(model.params["item_embeddings"], rows.items)
    inv_len = ad.constant((1.0 / batch.lengths)[:, None])
    s = ad.mul(ad.weighted_sum(None, ad.gather(h0, rows.pos_rows), rows.pos_example, rows.pos_ends), inv_len)
    h_g, _ = model.global_layer_forward(h0, batch, s)
    return h_g.value


class TestGlobalLayerReference:
    def _corpus(self, seed, num_items=30):
        rng = np.random.default_rng(seed)
        sessions = [list(rng.integers(1, num_items + 1, size=rng.integers(2, 9))) for _ in range(60)]
        graph = build_global_graph(*csr(sessions), epsilon=3, top_n=6, num_items=num_items)
        prefixes = [tuple(int(x) for x in rng.integers(1, num_items + 1, size=rng.integers(1, 8)))
                    for _ in range(8)]
        return graph, prefixes

    def test_session_rows_match_dense_reference(self):
        graph, prefixes = self._corpus(41)
        for k in (1, 2):
            for use_session in (True, False):
                model = make_model(30, max_len=8, embedding_dim=6, k_hops=k,
                                   use_session_layer=use_session, seed=k)
                for prm in model.params:
                    prm.value *= 4.0  # leave the near-linear init regime
                packs = [pack_example(pf, 1, graph, k) for pf in prefixes]
                batch = collate(packs)
                h_g = global_rows(model, batch)
                if not use_session:
                    assert np.array_equal(model.forward(batch).fused.value, h_g)
                for b, pack in enumerate(packs):
                    expect = reference_global_rows(model, pack)
                    assert np.allclose(h_g[example_rows(batch.rows, b)], expect, rtol=0, atol=1e-12), \
                        f"k_hops={k} session={use_session} example {b}"

    def test_mixed_batch_matches_single_forwards(self):
        graph, _ = self._corpus(43)
        rng = np.random.default_rng(44)
        packs = [pack_example(tuple(int(x) for x in rng.integers(1, 31, size=n)), 1, graph, 2)
                 for n in (1, 6, 2, 9, 3, 1, 4)]
        assert len({p.layer_end for p in packs}) == len(packs)
        batch = collate(packs)
        for mode in ("reversed", "forward", "self_attention", "none"):
            model = make_model(30, max_len=10, embedding_dim=8, k_hops=2, position_mode=mode, seed=45)
            out = model.forward(batch)
            for b, pack in enumerate(packs):
                alone = model.forward(collate([pack]))
                assert bits(out.fused.value[example_rows(batch.rows, b)]) == bits(alone.fused.value), mode
                assert bits(out.session_vec.value[b]) == bits(alone.session_vec.value[0]), mode
                # the scoring matmul runs on plain BLAS, whose rows change with the row count
                own = model.predict(ad.constant(out.session_vec.value[b:b + 1]))
                assert bits(own.value) == bits(alone.logits.value), mode

    def test_mixed_batch_matches_single_forwards_single_precision(self):
        graph, _ = self._corpus(43)
        rng = np.random.default_rng(46)
        for k in (1, 2):
            for aggregation in ("sum", "gate", "max", "concat"):
                for mode in ("reversed", "forward", "self_attention", "none"):
                    model = make_model(30, max_len=10, embedding_dim=8, k_hops=k, aggregation=aggregation,
                                       position_mode=mode, precision="single", seed=47)
                    packs = [pack_example(tuple(int(x) for x in rng.integers(1, 31, size=n)), 1, graph, k)
                             for n in (1, 6, 2, 9, 3, 1, 4)]
                    batch = collate(packs)
                    out = model.forward(batch)
                    assert out.fused.value.dtype == np.float32
                    for b, pack in enumerate(packs):
                        alone = model.forward(collate([pack]))
                        case = (k, aggregation, mode, b)
                        assert bits(out.fused.value[example_rows(batch.rows, b)]) == bits(alone.fused.value), case
                        assert bits(out.session_vec.value[b]) == bits(alone.session_vec.value[0]), case
                        own = model.predict(ad.constant(out.session_vec.value[b:b + 1]))
                        assert bits(own.value) == bits(alone.logits.value), case

    def test_global_attention_by_pack_row_matches_single_forwards(self):
        # ForwardResult.global_attn is (T_{K-t}, W) over the real rows, slot for slot
        # as their neighbor table; an example's rows map back to its pack rows
        graph, _ = self._corpus(43)
        rng = np.random.default_rng(48)
        for k in (1, 2):
            model = make_model(30, max_len=10, embedding_dim=8, k_hops=k, seed=49)
            packs = [pack_example(tuple(int(x) for x in rng.integers(1, 31, size=n)), 1, graph, k)
                     for n in (1, 6, 2, 9, 3, 1, 4)]
            batch = collate(packs)
            rows = batch.rows
            attn = [a.value for a in model.forward(batch).global_attn]
            assert [a.shape for a in attn] == [(rows.ends[k - t], rows.nbr_idx.shape[1]) for t in range(1, k + 1)]
            for t, a in enumerate(attn, start=1):
                # the valid slots of the rows within k - t hops
                mask = rows.nbr_mask[:rows.ends[k - t]]
                assert not a[~mask].any()
                assert np.allclose(a.sum(-1)[mask.any(-1)], 1.0, rtol=0, atol=1e-12)
            for b, pack in enumerate(packs):
                alone = model.forward(collate([pack])).global_attn
                for t, (a, a1) in enumerate(zip(attn, alone), start=1):
                    assert a[example_rows(rows, b, k - t)].tobytes() == a1.value.tobytes()


class TestSessionLayer:
    def test_self_loop_only_is_passthrough(self):
        model = make_model(3, embedding_dim=5, k_hops=0)
        batch = single_batch((2,), 1, None, 0)
        out = model.forward(batch)
        h2 = model.params["item_embeddings"].value[2]
        assert np.allclose(out.fused.value[0], h2, atol=1e-12)
        assert batch.rows.sess_idx.tolist() == [[0]]  # the self-loop is the only edge
        assert out.session_attn.value[0, 0] == 1.0

    def test_alpha_asymmetric_on_line_graph(self):
        model = make_model(3, embedding_dim=6, k_hops=0, seed=5)
        batch = single_batch((1, 2, 3), 1, None, 0)
        out = model.forward(batch)
        alpha, nbrs = out.session_attn.value, batch.rows.sess_idx  # node rows are slots here
        assert nbrs[0, :2].tolist() == [0, 1] and nbrs[1, :3].tolist() == [0, 1, 2]
        assert not np.isclose(alpha[0, 1], alpha[1, 0])  # 0 -> 1 against 1 -> 0

    def test_uniform_when_everything_equal(self):
        model = make_model(3, embedding_dim=4, k_hops=0)
        p = model.params
        vec = np.full(4, 0.17)
        for rel in ("in", "out", "inout", "self"):
            p[f"session_rel_{rel}"].value[:] = vec
        p["item_embeddings"].value[1:] = 0.3
        batch = single_batch((1, 2, 3), 1, None, 0)
        out = model.forward(batch)
        alpha, nbrs, mask = out.session_attn.value, batch.rows.sess_idx, batch.rows.sess_rel > 0
        # neighborhoods: {0,1}, {0,1,2}, {1,2}
        assert [nbrs[r][mask[r]].tolist() for r in range(3)] == [[0, 1], [0, 1, 2], [1, 2]]
        assert np.allclose(alpha[0, :2], 0.5)
        assert np.allclose(alpha[1], [1 / 3] * 3)
        assert np.allclose(alpha[2, :2], 0.5)

    def test_rows_sum_to_one(self):
        model = make_model(6, embedding_dim=5, k_hops=0, seed=2)
        batch = single_batch((1, 4, 2, 4, 6), 3, None, 0)
        out = model.forward(batch)
        sums = out.session_attn.value.sum(-1)
        assert len(sums) == 4  # one per distinct item
        assert np.allclose(sums, 1.0, atol=1e-6)

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_example_alone_equals_its_real_rows_in_a_padded_batch(self, precision):
        rng = np.random.default_rng(4)
        model = make_model(9, embedding_dim=5, k_hops=0, seed=6, precision=precision)
        emb = model.params["item_embeddings"]
        packs = [pack_example(tuple(int(x) for x in rng.integers(1, 10, size=rng.integers(1, 8))), 1, None, 0)
                 for _ in range(8)]

        def session(batch):
            h, attn = model.session_layer_forward(ad.gather(emb, batch.rows.items[:batch.rows.ends[0]]), batch)
            return h.value, attn.value

        batch = collate(packs)  # the edge table is as wide as the batch's largest degree
        h, attn = session(batch)
        for b, p in enumerate(packs):
            r = example_rows(batch.rows, b)
            h1, attn1 = session(collate([p]))
            w = attn1.shape[1]  # the example's own largest degree
            assert h[r].tobytes() == h1.tobytes()
            assert attn[r, :w].tobytes() == attn1.tobytes()
            assert not attn[r, w:].any()


class TestFuse:
    def _two_branch_model(self, **kw):
        graph = graph_of({1: [(2, 1)], 2: [(1, 1)]}, num_items=2)
        model = make_model(2, embedding_dim=3, k_hops=1, **kw)
        batch = single_batch((1, 2), 1, graph, 1)
        return model, batch

    def _branches(self, model, batch):
        # recompute both branches' (T_0, d) node rows exactly as forward does
        emb = model.params["item_embeddings"]
        h_s, _ = model.session_layer_forward(ad.gather(emb, batch.rows.items[:batch.rows.ends[0]]), batch)
        return global_rows(model, batch), h_s.value

    def test_sum_mode_exact_sum_with_dropout_off(self):
        model, batch = self._two_branch_model(aggregation="sum")
        h_g, h_s = self._branches(model, batch)
        out = model.forward(batch)
        assert np.array_equal(out.fused.value, h_g + h_s)

    def test_max_mode_idempotent_on_equal_inputs(self):
        model, batch = self._two_branch_model(aggregation="max")
        a = ad.constant(np.arange(6.0).reshape(2, 3))
        fused = model.fuse(a, a)
        assert np.array_equal(fused.value, a.value)

    def test_gate_zero_weights_average_branches(self):
        model, batch = self._two_branch_model(aggregation="gate")
        model.params["fuse_gate_sess"].value[:] = 0
        model.params["fuse_gate_global"].value[:] = 0
        h_g, h_s = self._branches(model, batch)
        out = model.forward(batch)
        assert np.allclose(out.fused.value, (h_g + h_s) / 2, atol=1e-12)

    def test_concat_mode_shape_and_projection(self):
        model, batch = self._two_branch_model(aggregation="concat")
        h_g, h_s = self._branches(model, batch)
        out = model.forward(batch)
        M = model.params["fuse_concat"].value
        expect = np.concatenate([h_g, h_s], -1) @ M.T
        assert np.allclose(out.fused.value, expect, atol=1e-12)

    def test_both_branches_disabled_is_config_error(self):
        with pytest.raises(ValueError):
            ModelConfig(k_hops=0, use_session_layer=False)
        model, _ = self._two_branch_model()
        with pytest.raises(ValueError, match="disabled"):
            model.fuse(None, None)

    def test_dropout_applies_to_global_branch_only(self):
        model, batch = self._two_branch_model(aggregation="sum", dropout_global=0.6)
        h_g, h_s = self._branches(model, batch)
        rng = np.random.default_rng(0)
        out = model.forward(batch, train_mode=True, rng=rng)
        resid = out.fused.value - h_s  # = dropout(h_g)
        zeroed = resid == 0
        scale = 1.0 / (1.0 - 0.6)
        assert np.allclose(resid[~zeroed], (h_g * scale)[~zeroed], atol=1e-12)
        assert zeroed.any()

    @pytest.mark.parametrize("aggregation", ["gate", "max", "concat"])
    def test_dropout_reaches_every_aggregation(self, aggregation):
        model, batch = self._two_branch_model(aggregation=aggregation, dropout_global=0.6)
        h_g, h_s = (ad.constant(h) for h in self._branches(model, batch))
        trained = model.fuse(h_g, h_s, train_mode=True, rng=np.random.default_rng(0))
        dropped = ad.dropout(h_g, 0.6, True, np.random.default_rng(0))
        assert np.array_equal(trained.value, model.fuse(dropped, h_s).value)
        assert not np.array_equal(trained.value, model.fuse(h_g, h_s).value)


def with_wider_tables(batch, extra):
    """`batch` with `extra` more masked slots at the end of every row of its
    neighbor and edge tables, the one padded axis of a batch's real rows."""
    def widen(a):
        return np.concatenate([a, np.zeros((len(a), extra), dtype=a.dtype)], axis=1)

    rows = batch.rows
    wide = dataclasses.replace(rows, **{name: widen(getattr(rows, name)) for name in
                                        ("nbr_idx", "nbr_wt", "nbr_mask", "sess_idx", "sess_rel")})
    return dataclasses.replace(batch, rows=wide)


@pytest.mark.parametrize("aggregation", ["sum", "gate", "max", "concat"])
@pytest.mark.parametrize("k_hops", [1, 2])
def test_train_mode_forward_does_not_depend_on_padding(k_hops, aggregation):
    # the dropout mask is drawn over the real node rows, so surplus masked
    # table slots neither move a row's draws nor change a bit
    graph = build_global_graph(*csr(TOY_SESSIONS), epsilon=3, top_n=12, num_items=5)
    packs = [pack_example(tuple(seq[:n]), seq[n], graph, k_hops)
             for seq in TOY_SESSIONS for n in range(1, len(seq))]
    model = make_model(5, embedding_dim=6, k_hops=k_hops, aggregation=aggregation, dropout_global=0.5, seed=8)
    plain = collate(packs)
    padded = with_wider_tables(plain, 3)
    a, b = (model.forward(batch, train_mode=True, rng=np.random.default_rng(9)).session_vec.value
            for batch in (plain, padded))
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, model.forward(plain).session_vec.value)  # dropout acted


class TestSessionEncode:
    def test_length_one_session_scales_single_vector(self):
        model = make_model(3, embedding_dim=4, k_hops=0, seed=4)
        batch = single_batch((2,), 1, None, 0)
        out = model.forward(batch)
        h = out.seq_vectors.value[0]
        beta = out.step_weights.value[0]
        assert np.allclose(out.session_vec.value[0], beta * h, atol=1e-12)

    def test_reversed_vs_forward_differ(self):
        kw = dict(embedding_dim=4, k_hops=0, seed=6)
        m_rev = make_model(3, position_mode="reversed", **kw)
        m_fwd = make_model(3, position_mode="forward", **kw)
        # same parameters, scaled away from the near-uniform init regime so
        # the two session nodes get clearly distinct vectors
        for name in m_rev.params.names():
            m_rev.params[name].value *= 10.0
            m_fwd.params[name].value[:] = m_rev.params[name].value
        for m in (m_rev, m_fwd):
            m.params["position_table"].value[0] = 1.0
            m.params["position_table"].value[1] = -1.0
        batch = single_batch((1, 2), 3, None, 0)
        s_rev = m_rev.forward(batch).session_vec.value
        s_fwd = m_fwd.forward(batch).session_vec.value
        assert not np.allclose(s_rev, s_fwd)

    def test_desk_calculation_d2_l2(self):
        model = make_model(2, embedding_dim=2, k_hops=0, max_len=3)
        p = model.params
        h1, h2 = [0.2, -0.1], [-0.3, 0.5]
        p1, p2 = [0.05, 0.1], [-0.15, 0.2]
        W3 = [[0.1, -0.2, 0.3, 0.0], [0.2, 0.1, -0.1, 0.4]]
        b3 = [0.01, -0.02]
        W4 = [[0.3, -0.1], [0.2, 0.2]]
        W5 = [[-0.2, 0.1], [0.1, 0.3]]
        q2 = [0.4, -0.3]
        b4 = [0.05, 0.05]
        # make the fused vectors equal the raw embeddings: session layer off is
        # not allowed with k=0, so force passthrough via a single-node identity
        # -> instead drive session_encode directly
        p["position_table"].value[0] = p1
        p["position_table"].value[1] = p2
        p["enc_pos_proj"].value[:] = W3
        p["enc_pos_bias"].value[:] = b3
        p["enc_att_item"].value[:] = W4
        p["enc_att_sess"].value[:] = W5
        p["enc_att_vec"].value[:] = q2
        p["enc_att_bias"].value[:] = b4

        batch = single_batch((1, 2), 1, None, 0)
        H = ad.constant(np.array([h1, h2], dtype=np.float64))  # the position rows of one example
        inv_len = ad.constant(np.array([[0.5]]))
        S, beta = model.session_encode(H, batch, inv_len)

        # oracle, scalar by scalar; reversed positions: position 1 -> p_2, position 2 -> p_1
        s_prime = [(h1[0] + h2[0]) / 2, (h1[1] + h2[1]) / 2]
        expect_S = [0.0, 0.0]
        expect_beta = []
        for h, pos in ((h1, p2), (h2, p1)):
            z = [math.tanh(v + b) for v, b in zip(matvec(W3, h + pos), b3)]
            inner = [sigmoid_s(a + b + c) for a, b, c in
                     zip(matvec(W4, z), matvec(W5, s_prime), b4)]
            b_i = dot(q2, inner)
            expect_beta.append(b_i)
            expect_S = [acc + b_i * hv for acc, hv in zip(expect_S, h)]
        assert np.allclose(beta.value, expect_beta, atol=1e-12)
        assert np.allclose(S.value[0], expect_S, atol=1e-12)

    def test_position_table_too_small_names_fix(self):
        model = make_model(5, embedding_dim=3, k_hops=0, max_len=2)
        batch = single_batch((1, 2, 3), 4, None, 0)
        with pytest.raises(ValueError, match="position table"):
            model.forward(batch)

    def test_self_attention_mode_runs_and_uses_last_item(self):
        model = make_model(4, embedding_dim=4, k_hops=0, position_mode="self_attention", seed=8)
        b1 = single_batch((1, 2, 3), 4, None, 0)
        b2 = single_batch((2, 1, 3), 4, None, 0)  # same last item, same graph? no: graph differs
        out1 = model.forward(b1)
        assert out1.session_vec.shape == (1, 4)
        assert "position_table" not in model.params

    def test_position_mode_none_ignores_order_given_same_graph(self):
        # [a,b,a,b] and [b,a,b,a] share transitions, node set and position
        # multiset; without position information the session vector must match
        model = make_model(2, embedding_dim=5, k_hops=0, position_mode="none", seed=9)
        s1 = model.forward(single_batch((1, 2, 1, 2), 1, None, 0)).session_vec.value
        s2 = model.forward(single_batch((2, 1, 2, 1), 1, None, 0)).session_vec.value
        assert np.allclose(s1, s2, atol=1e-12)

    def test_reversed_mode_sensitive_to_reversal(self):
        model = make_model(3, embedding_dim=4, k_hops=0, seed=10)
        model.params["position_table"].value[:3] = np.eye(3, 4)
        s1 = model.forward(single_batch((1, 2, 3), 1, None, 0)).session_vec.value
        s2 = model.forward(single_batch((3, 2, 1), 1, None, 0)).session_vec.value
        assert not np.allclose(s1, s2)


def loss_of_logits(model, logits, labels):
    """`model.loss` of a session vector whose logits are `logits` exactly: the
    item rows of the table become the unit vectors (embedding_dim == num_items)."""
    model.params["item_embeddings"].value[1:] = np.eye(model.num_items)
    return model.loss(ad.constant(logits), labels)


class TestPredictAndLoss:
    def test_identical_embeddings_equal_probabilities(self):
        model = make_model(3, embedding_dim=2, k_hops=0)
        emb = model.params["item_embeddings"]
        emb.value[1:] = [0.4, -0.7]
        probs = ad.softmax(model.predict(ad.constant(np.array([[0.3, 0.9]]))))
        assert np.allclose(probs.value[0], [1 / 3] * 3, atol=1e-12)

    def test_zero_session_vector_uniform(self):
        model = make_model(4, embedding_dim=3, k_hops=0)
        probs = ad.softmax(model.predict(ad.constant(np.zeros((1, 3)))))
        assert np.allclose(probs.value[0], 0.25, atol=1e-12)

    def test_hand_set_logits_desk_softmax(self):
        model = make_model(3, embedding_dim=1, k_hops=0)
        emb = model.params["item_embeddings"]
        emb.value[1:] = [[1.0], [0.0], [-1.0]]
        logits = model.predict(ad.constant(np.array([[1.0]])))
        probs = ad.softmax(logits)
        assert np.allclose(logits.value[0], [1.0, 0.0, -1.0])
        assert np.allclose(probs.value[0], [0.6652, 0.2447, 0.0900], atol=1e-4)

    def test_probabilities_sum_to_one_and_interior(self):
        model = make_model(30, embedding_dim=8, k_hops=0, seed=12)
        rng = np.random.default_rng(0)
        probs = ad.softmax(model.predict(ad.constant(rng.normal(size=(6, 8)))))
        assert np.allclose(probs.value.sum(-1), 1.0, atol=1e-6)
        assert np.all((probs.value > 0) & (probs.value < 1))

    def test_ranking_invariance_under_logit_shift(self):
        model = make_model(25, embedding_dim=6, k_hops=0, seed=13)
        rng = np.random.default_rng(1)
        logits = model.predict(ad.constant(rng.normal(size=(3, 6))))
        base = ad.softmax(logits, axis=-1).value
        shifted = ad.softmax(ad.add(logits, 7.5), axis=-1).value
        assert np.array_equal(np.argsort(-base, axis=-1), np.argsort(-shifted, axis=-1))

    def test_loss_zero_on_exact_onehot(self):
        model = make_model(4, embedding_dim=4, k_hops=0)
        logits = np.array([[-1e3, 0.0, -1e3, -1e3]])
        assert abs(loss_of_logits(model, logits, [2]).item()) < 1e-6

    def test_binary_loss_uniform_two_items(self):
        model = make_model(2, embedding_dim=2, k_hops=0)
        logits = np.log([[0.5, 0.5]])
        for label in (1, 2):
            assert np.isclose(loss_of_logits(model, logits, [label]).item(), 2 * math.log(2), atol=1e-9)

    def test_categorical_loss_uniform(self):
        m = 7
        model = make_model(m, embedding_dim=m, k_hops=0, loss_mode="categorical")
        logits = np.log(np.full((1, m), 1.0 / m))
        assert np.isclose(loss_of_logits(model, logits, [3]).item(), math.log(m), atol=1e-9)

    def test_single_vector_loss_accepted(self):
        model = make_model(3, embedding_dim=3, k_hops=0)
        logits = np.log([0.2, 0.5, 0.3])
        assert loss_of_logits(model, logits, 2).item() > 0

    def test_nonfinite_loss_rejected(self):
        model = make_model(2, embedding_dim=2, k_hops=0)
        logits = np.array([[np.nan, math.log(0.5)]])
        with pytest.raises(FloatingPointError):
            loss_of_logits(model, logits, [1])

    def test_bad_label_rejected(self):
        model = make_model(3, embedding_dim=3, k_hops=0)
        logits = np.log(np.full((1, 3), 1 / 3))
        with pytest.raises(ValueError):
            loss_of_logits(model, logits, [0])
        with pytest.raises(ValueError):
            loss_of_logits(model, logits, [4])


class TestWholeModel:
    def test_ablation_consistency_no_global_graph(self):
        # with k_hops=0, a graph-bearing batch and a graph-free batch must
        # produce bit-identical output
        sessions = [[1, 2, 3], [2, 3, 4], [3, 1, 4]]
        graph = build_global_graph(*csr(sessions), epsilon=2, top_n=12, num_items=4)
        model = make_model(4, embedding_dim=5, k_hops=0, aggregation="sum", seed=14)
        with_graph = single_batch((1, 2, 3), 4, graph, 0)
        without = single_batch((1, 2, 3), 4, None, 0)
        o1 = model.forward(with_graph)
        o2 = model.forward(without)
        assert np.array_equal(o1.probs.value, o2.probs.value)

    def test_padded_batch_matches_single_forward_bitwise(self):
        # padded: batched behind a companion that is longer and has
        # more session nodes, its frontier a superset of the example's
        rng = np.random.default_rng(2)
        sessions = [list(rng.integers(1, 16, size=rng.integers(2, 8))) for _ in range(25)]
        graph = build_global_graph(*csr(sessions), epsilon=3, top_n=12, num_items=15)
        model = make_model(15, max_len=10, embedding_dim=7, k_hops=2, seed=15)
        for _ in range(10):
            l = int(rng.integers(1, 7))
            prefix = tuple(int(x) for x in rng.integers(1, 16, size=l))
            pack = pack_example(prefix, 1, graph, 2)
            extra = rng.permutation(np.setdiff1d(np.arange(1, 16), prefix))[:int(rng.integers(1, 4))]
            companion = pack_example(prefix + tuple(int(x) for x in extra), 1, graph, 2)
            assert companion.length > pack.length and companion.num_nodes > pack.num_nodes
            assert set(pack.frontier_items.tolist()) <= set(companion.frontier_items.tolist())
            a = model.forward(collate([pack]))
            b = model.forward(collate([companion, pack]))
            assert bits(a.session_vec.value[0]) == bits(b.session_vec.value[1])
            assert bits(a.fused.value) == bits(b.fused.value[b.fused.shape[0] - pack.num_nodes:])
            assert bits(a.logits.value) == bits(model.predict(ad.constant(b.session_vec.value[1:])).value)

    def test_repeated_items_get_distinct_positions(self):
        # one node serves two positions; betas differ through the position table
        model = make_model(2, embedding_dim=4, k_hops=0, seed=16)
        out = model.forward(single_batch((1, 2, 1), 2, None, 0))
        beta = out.step_weights.value  # one example: its positions in order
        assert not np.isclose(beta[0], beta[2])
        assert np.array_equal(out.seq_vectors.value[0], out.seq_vectors.value[2])

    def test_gradcheck_self_attention_and_none_modes(self):
        for mode in ("self_attention", "none"):
            cfg = ModelConfig(embedding_dim=8, k_hops=1, position_mode=mode, dropout_global=0.0)
            assert model_gradcheck(cfg) < 1e-4

    def test_gradcheck_without_session_layer(self):
        cfg = ModelConfig(embedding_dim=8, k_hops=1, use_session_layer=False, dropout_global=0.0)
        assert model_gradcheck(cfg) < 1e-4

    def test_single_precision_stays_float32(self):
        for agg in ("sum", "gate"):
            cfg = ModelConfig(embedding_dim=6, k_hops=1, aggregation=agg,
                              dropout_global=0.0, precision="single")
            batch, m = toy_batch(cfg)
            model = NextItemModel(m, 4, cfg, seed=2)
            out = model.forward(batch)
            assert out.probs.value.dtype == np.float32
            loss = model.loss(out.session_vec, batch.labels)
            assert loss.value.dtype == np.float32
            ad.backward(loss)
            assert model.params["item_embeddings"].grad.dtype == np.float32

    def test_single_precision_trains_through_saturated_softmax(self):
        # the top logit leads every other by 50, so 1 - p_top rounds to 0 in
        # float32; binary loss and gradients must stay finite whether or not
        # the top item is the label
        model = make_model(6, embedding_dim=4, k_hops=0, precision="single", seed=5)
        prefix, top = (1, 2, 3), 6  # the top item is outside the session
        s = model.forward(single_batch(prefix, 1, None, 0)).session_vec.value[0]
        emb = model.params["item_embeddings"].value
        emb[top] = s * ((emb[1:top] @ s).max() + 50) / (s @ s)
        for label in (top, 1):
            model.params.zero_grads()
            batch = single_batch(prefix, label, None, 0)
            out = model.forward(batch)
            z = out.logits.value[0]
            assert z.dtype == np.float32
            assert abs(z[top - 1] - np.delete(z, top - 1).max() - 50) < 1e-3
            assert out.probs.value[0, top - 1] == 1.0
            loss = model.loss(out.session_vec, batch.labels)
            ad.backward(loss)
            assert np.isfinite(loss.value)
            for p in model.params.trainable():
                assert np.all(np.isfinite(p.grad)), p.name


    def test_backward_allocates_one_item_table_sized_buffer(self):
        # the table's `.grad`: the head writes its rows a block of items at a
        # time and `gather` (session items) adds into it, so no (m, d)
        # product or zero-filled table to sum from is built
        cfg = ModelConfig(embedding_dim=100, k_hops=1, dropout_global=0.0)
        batch, _ = toy_batch(cfg)
        model = NextItemModel(40_000, max_len=4, config=cfg, seed=3)
        table = model.params["item_embeddings"].value.nbytes
        out = model.forward(batch)
        loss = model.loss(out.session_vec, batch.labels)
        tracemalloc.start()
        try:
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table, f"backward peak {peak / table:.2f} item tables"

    def test_training_step_at_full_batch_holds_one_logits_sized_array(self):
        # B=100 against 40,000 items: a (B, m) array is the size of the item
        # table.  The tape keeps only the head's exponentials; the backward
        # adds the table's `.grad` and column blocks on top
        cfg = ModelConfig(embedding_dim=100, k_hops=1, dropout_global=0.0)
        graph = build_global_graph(*csr(TOY_SESSIONS), 3, 12, num_items=5)
        prefixes = [(tuple(seq[:k]), seq[k]) for seq in TOY_SESSIONS for k in range(1, len(seq))]
        batch = collate([pack_example(*prefixes[i % len(prefixes)], graph, 1) for i in range(100)])
        model = NextItemModel(40_000, max_len=4, config=cfg, seed=3)
        table = model.params["item_embeddings"].value.nbytes
        tracemalloc.start()
        try:
            out = model.forward(batch, train_mode=True, rng=np.random.default_rng(0))
            loss = model.loss(out.session_vec, batch.labels)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 1.6 * table, f"held after forward {held / table:.2f} item tables"
        assert peak <= 3.0 * table, f"backward peak {peak / table:.2f} item tables"


class TestCheckpoint:
    def test_round_trip_preserves_values_and_config(self, tmp_path):
        cfg = ModelConfig(embedding_dim=6, k_hops=1, aggregation="gate", dropout_global=0.2)
        batch, m = toy_batch(cfg)
        model = NextItemModel(m, 4, cfg, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        for name in model.params.names():
            assert np.array_equal(loaded.params[name].value, model.params[name].value)
        a = model.forward(batch).probs.value
        b = loaded.forward(batch).probs.value
        assert np.array_equal(a, b)

    def test_corrupted_payload_detected(self, tmp_path):
        model = make_model(3, embedding_dim=2, k_hops=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="integrity"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "not_a_ckpt"
        path.write_bytes(b'{"magic": "something-else"}\n')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def _edit_header(path, **settings):
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["config"].update(settings)
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)

    def test_version_1_header_with_retired_settings_at_their_fixed_values_loads(self, tmp_path):
        cfg = ModelConfig(embedding_dim=3, k_hops=2, dropout_global=0.0)
        model = NextItemModel(5, 4, cfg, seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        self._edit_header(path, leaky_slope=0.2, share_hop_weights=False, normalize_step_attention=False)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        batch, _ = toy_batch(cfg)
        assert np.array_equal(loaded.forward(batch).logits.value, model.forward(batch).logits.value)

    @pytest.mark.parametrize("settings", [{"leaky_slope": 0.1}, {"share_hop_weights": True},
                                          {"normalize_step_attention": True}, {"hidden_units": 4}])
    def test_other_settings_in_the_header_rejected(self, tmp_path, settings):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model(3, embedding_dim=2, k_hops=1))
        self._edit_header(path, **settings)
        (key,) = settings
        with pytest.raises(ValueError, match=f"unsupported model settings.*{key}"):
            load_checkpoint(path)
