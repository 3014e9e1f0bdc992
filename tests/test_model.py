import math

import numpy as np
import pytest

from sessrec import autodiff as ad
from sessrec.batching import collate, pack_example
from sessrec.graphs import GlobalGraph, build_global_graph
from sessrec.model import (ModelConfig, NextItemModel, load_checkpoint,
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


def single_batch(prefix, label, graph, k_hops, **collate_kw):
    return collate([pack_example(prefix, label, graph, k_hops)], **collate_kw)


class TestGlobalLayer:
    def _pair_graph(self, weight=3):
        return GlobalGraph({1: [(2, weight)], 2: [(1, weight)]}, num_items=2, epsilon=1, top_n=12)

    def test_single_neighbor_gets_weight_one(self):
        model = make_model(2, embedding_dim=4, k_hops=1)
        batch = single_batch((1, 2), 1, self._pair_graph(), 1)
        out = model.forward(batch)
        alpha = out.global_attn[0].value[0]  # (F, W)
        assert alpha[0, 0] == 1.0 and alpha[1, 0] == 1.0
        assert np.all(alpha[:, 1:] == 0)

    def test_identical_neighbors_split_evenly(self):
        # two neighbors with identical embeddings and identical edge weights
        graph = GlobalGraph({1: [(2, 5), (3, 5)], 2: [(1, 5)], 3: [(1, 5)]},
                            num_items=3, epsilon=1, top_n=12)
        model = make_model(3, embedding_dim=4, k_hops=1)
        emb = model.params["item_embeddings"]
        emb.value[3] = emb.value[2]
        batch = single_batch((1, 2), 1, graph, 1)
        out = model.forward(batch)
        alpha = out.global_attn[0].value[0, 0]  # item 1's row
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
        out = model.forward(batch)

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
        got = out.fused.value[0]  # fuse = dropout(h_g) + h_s, so compare pre-fusion
        # compare the global branch directly
        model_no_sess = make_model(2, embedding_dim=2, k_hops=1, use_session_layer=False)
        for name in ("item_embeddings", "global_att_proj_hop1", "global_att_vec_hop1", "global_agg_hop1"):
            model_no_sess.params[name].value[:] = p[name].value
        out2 = model_no_sess.forward(batch)
        assert np.allclose(out2.fused.value[0], np.array(hg), atol=1e-12)

    def test_isolated_node_uses_zero_neighborhood(self):
        graph = GlobalGraph({1: [(2, 1)], 2: [(1, 1)]}, num_items=3, epsilon=1, top_n=12)
        model = make_model(3, embedding_dim=4, k_hops=1, use_session_layer=False)
        batch = single_batch((3,), 1, graph, 1)  # item 3 has no neighbors
        out = model.forward(batch)
        # oracle: relu(W2 [h3 || 0])
        h3 = model.params["item_embeddings"].value[3]
        W2 = model.params["global_agg_hop1"].value
        expect = np.maximum(W2 @ np.concatenate([h3, np.zeros(4)]), 0.0)
        assert np.allclose(out.fused.value[0, 0], expect, atol=1e-12)

    def test_unknown_session_item_rejected(self):
        graph = self._pair_graph()
        with pytest.raises(KeyError):
            pack_example((1, 5), 1, graph, 1)


def reference_global_rows(model, pack):
    """Dense numpy evaluation of the global layer over every frontier row of
    one unpadded pack, hop by hop; returns the session rows' final vectors."""
    p = {name: model.params[name].value for name in model.params.names()}
    slope = model.config.leaky_slope
    emb = p["item_embeddings"]
    h = emb[pack.frontier_items]
    s = emb[list(pack.prefix)].mean(axis=0)
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
                e = np.where(pre >= 0, pre, slope * pre) @ q1
                a = np.exp(e - e.max())
                h_nbr = (a / a.sum()) @ h[js]
            out[i] = np.maximum(W2 @ np.concatenate([h[i], h_nbr]), 0.0)
        h = out
    return h[: pack.num_nodes]


def global_rows(model, batch):
    emb = model.params["item_embeddings"]
    h0_f = ad.gather(emb, batch.items)
    h0_pos = ad.batched_gather(h0_f, batch.alias)
    inv_len = ad.constant((1.0 / batch.lengths)[:, None])
    s = ad.mul(ad.masked_sum(h0_pos, batch.pos_mask, axis=1), inv_len)
    h_g, _ = model.global_layer_forward(h0_f, batch, s)
    return h_g.value


class TestGlobalLayerReference:
    def _corpus(self, seed, num_items=30):
        rng = np.random.default_rng(seed)
        sessions = [list(rng.integers(1, num_items + 1, size=rng.integers(2, 9))) for _ in range(60)]
        graph = build_global_graph(sessions, epsilon=3, top_n=6, num_items=num_items)
        prefixes = [tuple(int(x) for x in rng.integers(1, num_items + 1, size=rng.integers(1, 8)))
                    for _ in range(8)]
        return graph, prefixes

    def test_session_rows_match_dense_reference(self):
        graph, prefixes = self._corpus(41)
        for k in (1, 2):
            for shared in (False, True):
                for use_session in (True, False):
                    model = make_model(30, max_len=8, embedding_dim=6, k_hops=k, share_hop_weights=shared,
                                       use_session_layer=use_session, seed=k)
                    for prm in model.params:
                        prm.value *= 4.0  # leave the near-linear init regime
                    packs = [pack_example(pf, 1, graph, k) for pf in prefixes]
                    batch = collate(packs, pad_nodes=max(p.num_nodes for p in packs) + 2,
                                    pad_frontier=max(p.frontier_size for p in packs) + 9)
                    h_g = global_rows(model, batch)
                    if not use_session:
                        assert np.array_equal(model.forward(batch).fused.value, h_g)
                    for b, pack in enumerate(packs):
                        expect = reference_global_rows(model, pack)
                        assert np.allclose(h_g[b, : pack.num_nodes], expect, rtol=0, atol=1e-12), \
                            f"k_hops={k} shared={shared} session={use_session} example {b}"

    def test_mixed_batch_matches_single_forwards(self):
        graph, _ = self._corpus(43)
        rng = np.random.default_rng(44)
        model = make_model(30, max_len=10, embedding_dim=8, k_hops=2, seed=45)
        packs = [pack_example(tuple(int(x) for x in rng.integers(1, 31, size=n)), 1, graph, 2)
                 for n in (1, 6, 2, 9, 3, 1, 4)]
        assert len({p.layer_end for p in packs}) == len(packs)
        out = model.forward(collate(packs))
        for b, pack in enumerate(packs):
            alone = model.forward(collate([pack]))
            n = pack.num_nodes
            assert np.array_equal(out.fused.value[b, :n], alone.fused.value[0])
            assert np.array_equal(out.session_vec.value[b], alone.session_vec.value[0])
            # the scoring matmul runs on BLAS, whose rows change with the row count
            assert np.allclose(out.logits.value[b], alone.logits.value[0], rtol=0, atol=1e-12)


class TestSessionLayer:
    def test_self_loop_only_is_passthrough(self):
        model = make_model(3, embedding_dim=5, k_hops=0)
        batch = single_batch((2,), 1, None, 0)
        out = model.forward(batch)
        h2 = model.params["item_embeddings"].value[2]
        assert np.allclose(out.fused.value[0, 0], h2, atol=1e-12)
        assert out.session_attn.value[0, 0, 0] == 1.0

    def test_alpha_asymmetric_on_line_graph(self):
        model = make_model(3, embedding_dim=6, k_hops=0, seed=5)
        batch = single_batch((1, 2, 3), 1, None, 0)
        out = model.forward(batch)
        alpha = out.session_attn.value[0]
        assert not np.isclose(alpha[0, 1], alpha[1, 0])

    def test_uniform_when_everything_equal(self):
        model = make_model(3, embedding_dim=4, k_hops=0)
        p = model.params
        vec = np.full(4, 0.17)
        for rel in ("in", "out", "inout", "self"):
            p[f"session_rel_{rel}"].value[:] = vec
        p["item_embeddings"].value[1:] = 0.3
        batch = single_batch((1, 2, 3), 1, None, 0)
        out = model.forward(batch)
        alpha = out.session_attn.value[0]
        # neighborhoods: {0,1}, {0,1,2}, {1,2}
        assert np.allclose(alpha[0, :2], 0.5)
        assert np.allclose(alpha[1], [1 / 3] * 3)
        assert np.allclose(alpha[2, 1:], 0.5)

    def test_rows_sum_to_one(self):
        model = make_model(6, embedding_dim=5, k_hops=0, seed=2)
        batch = single_batch((1, 4, 2, 4, 6), 3, None, 0)
        out = model.forward(batch)
        sums = out.session_attn.value[0].sum(-1)
        assert np.allclose(sums, 1.0, atol=1e-6)


class TestFuse:
    def _two_branch_model(self, **kw):
        graph = GlobalGraph({1: [(2, 1)], 2: [(1, 1)]}, num_items=2, epsilon=1, top_n=12)
        model = make_model(2, embedding_dim=3, k_hops=1, **kw)
        batch = single_batch((1, 2), 1, graph, 1)
        return model, batch

    def _branches(self, model, batch):
        # recompute both branches exactly as forward does
        emb = model.params["item_embeddings"]
        h0_f = ad.gather(emb, batch.items)
        h0_pos = ad.batched_gather(h0_f, batch.alias)
        inv_len = ad.constant((1.0 / batch.lengths)[:, None])
        s = ad.mul(ad.masked_sum(h0_pos, batch.pos_mask, axis=1), inv_len)
        h_gf, _ = model.global_layer_forward(h0_f, batch, s)
        h_g = ad.narrow(h_gf, 1, 0, batch.rel.shape[1])
        h0_n = ad.narrow(h0_f, 1, 0, batch.rel.shape[1])
        h_s, _ = model.session_layer_forward(h0_n, batch)
        return h_g.value, h_s.value

    def test_sum_mode_exact_sum_with_dropout_off(self):
        model, batch = self._two_branch_model(aggregation="sum")
        h_g, h_s = self._branches(model, batch)
        out = model.forward(batch)
        assert np.array_equal(out.fused.value, h_g + h_s)

    def test_max_mode_idempotent_on_equal_inputs(self):
        model, batch = self._two_branch_model(aggregation="max")
        a = ad.constant(np.arange(6.0).reshape(1, 2, 3))
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


class TestSessionEncode:
    def test_length_one_session_scales_single_vector(self):
        model = make_model(3, embedding_dim=4, k_hops=0, seed=4)
        batch = single_batch((2,), 1, None, 0)
        out = model.forward(batch)
        h = out.seq_vectors.value[0, 0]
        beta = out.step_weights.value[0, 0]
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
        H = ad.constant(np.array([[h1, h2]], dtype=np.float64))
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
        assert np.allclose(beta.value[0], expect_beta, atol=1e-12)
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

    def test_normalized_attention_variant_sums_to_one(self):
        model = make_model(3, embedding_dim=4, k_hops=0, normalize_step_attention=True, seed=11)
        out = model.forward(single_batch((1, 2, 3), 1, None, 0))
        assert np.isclose(out.step_weights.value[0].sum(), 1.0)


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
        model = make_model(4, embedding_dim=2, k_hops=0)
        logits = ad.constant(np.array([[-1e3, 0.0, -1e3, -1e3]]))
        assert abs(model.loss(logits, [2]).item()) < 1e-6

    def test_binary_loss_uniform_two_items(self):
        model = make_model(2, embedding_dim=2, k_hops=0)
        logits = ad.constant(np.log([[0.5, 0.5]]))
        for label in (1, 2):
            assert np.isclose(model.loss(logits, [label]).item(), 2 * math.log(2), atol=1e-9)

    def test_categorical_loss_uniform(self):
        m = 7
        model = make_model(m, embedding_dim=2, k_hops=0, loss_mode="categorical")
        logits = ad.constant(np.log(np.full((1, m), 1.0 / m)))
        assert np.isclose(model.loss(logits, [3]).item(), math.log(m), atol=1e-9)

    def test_single_vector_loss_accepted(self):
        model = make_model(3, embedding_dim=2, k_hops=0)
        logits = ad.constant(np.log([0.2, 0.5, 0.3]))
        assert model.loss(logits, 2).item() > 0

    def test_nonfinite_loss_rejected(self):
        model = make_model(2, embedding_dim=2, k_hops=0)
        logits = ad.constant(np.array([[np.nan, math.log(0.5)]]))
        with pytest.raises(FloatingPointError):
            model.loss(logits, [1])

    def test_bad_label_rejected(self):
        model = make_model(3, embedding_dim=2, k_hops=0)
        logits = ad.constant(np.log(np.full((1, 3), 1 / 3)))
        with pytest.raises(ValueError):
            model.loss(logits, [0])
        with pytest.raises(ValueError):
            model.loss(logits, [4])


class TestWholeModel:
    def test_ablation_consistency_no_global_graph(self):
        # with k_hops=0, a graph-bearing batch and a graph-free batch must
        # produce bit-identical output
        sessions = [[1, 2, 3], [2, 3, 4], [3, 1, 4]]
        graph = build_global_graph(sessions, epsilon=2, top_n=12, num_items=4)
        model = make_model(4, embedding_dim=5, k_hops=0, aggregation="sum", seed=14)
        with_graph = single_batch((1, 2, 3), 4, graph, 0)
        without = single_batch((1, 2, 3), 4, None, 0)
        o1 = model.forward(with_graph)
        o2 = model.forward(without)
        assert np.array_equal(o1.probs.value, o2.probs.value)

    def test_padded_batch_matches_single_forward_bitwise(self):
        rng = np.random.default_rng(2)
        sessions = [list(rng.integers(1, 16, size=rng.integers(2, 8))) for _ in range(25)]
        graph = build_global_graph(sessions, epsilon=3, top_n=12, num_items=15)
        model = make_model(15, embedding_dim=7, k_hops=2, seed=15)
        for _ in range(10):
            l = int(rng.integers(1, 7))
            prefix = tuple(int(x) for x in rng.integers(1, 16, size=l))
            pack = pack_example(prefix, 1, graph, 2)
            single = collate([pack])
            padded = collate([pack], pad_len=pack.length + 4,
                             pad_nodes=pack.num_nodes + 3,
                             pad_frontier=pack.frontier_size + 11)
            a = model.forward(single)
            b = model.forward(padded)
            assert np.array_equal(a.probs.value, b.probs.value)
            assert np.array_equal(a.session_vec.value, b.session_vec.value)

    def test_repeated_items_get_distinct_positions(self):
        # one node serves two positions; betas differ through the position table
        model = make_model(2, embedding_dim=4, k_hops=0, seed=16)
        out = model.forward(single_batch((1, 2, 1), 2, None, 0))
        beta = out.step_weights.value[0]
        assert not np.isclose(beta[0], beta[2])
        assert np.array_equal(out.seq_vectors.value[0, 0], out.seq_vectors.value[0, 2])

    def test_share_hop_weights_registers_single_set(self):
        shared = make_model(5, embedding_dim=4, k_hops=2, share_hop_weights=True)
        separate = make_model(5, embedding_dim=4, k_hops=2)
        assert "global_att_proj" in shared.params
        assert "global_att_proj_hop1" in separate.params and "global_att_proj_hop2" in separate.params

    def test_gradcheck_self_attention_and_none_modes(self):
        for mode in ("self_attention", "none"):
            cfg = ModelConfig(embedding_dim=8, k_hops=1, position_mode=mode, dropout_global=0.0)
            assert model_gradcheck(cfg) < 1e-4

    def test_gradcheck_without_session_layer_and_normalized_attention(self):
        cfg = ModelConfig(embedding_dim=8, k_hops=1, use_session_layer=False, dropout_global=0.0)
        assert model_gradcheck(cfg) < 1e-4
        cfg2 = ModelConfig(embedding_dim=8, k_hops=1, normalize_step_attention=True, dropout_global=0.0)
        assert model_gradcheck(cfg2) < 1e-4

    def test_gradcheck_shared_hop_weights(self):
        cfg = ModelConfig(embedding_dim=8, k_hops=2, share_hop_weights=True, dropout_global=0.0)
        assert model_gradcheck(cfg) < 1e-4

    def test_single_precision_stays_float32(self):
        for agg in ("sum", "gate"):
            cfg = ModelConfig(embedding_dim=6, k_hops=1, aggregation=agg,
                              dropout_global=0.0, precision="single")
            batch, m = toy_batch(cfg)
            model = NextItemModel(m, 4, cfg, seed=2)
            out = model.forward(batch)
            assert out.probs.value.dtype == np.float32
            loss = model.loss(out.logits, batch.labels)
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
            loss = model.loss(out.logits, batch.labels)
            ad.backward(loss)
            assert np.isfinite(loss.value)
            for p in model.params.trainable():
                assert np.all(np.isfinite(p.grad)), p.name


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
