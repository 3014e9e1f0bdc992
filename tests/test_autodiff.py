import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_head
from conftest import bits
from sessrec import autodiff as ad


def t(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)


class TestForwardOps:
    def test_softmax_of_constant_vector_is_uniform(self):
        for c in (0.0, 3.7, -12.0):
            out = ad.softmax(t([c, c, c]))
            assert np.allclose(out.value, [1 / 3] * 3)

    def test_leaky_relu_definition(self):
        out = ad.leaky_relu(t([-1.0, 2.0, 0.0]), slope=0.2)
        assert np.allclose(out.value, [-0.2, 2.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_matches_where_bit_for_bit(self, dtype):
        info = np.finfo(dtype)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, info.tiny, -info.tiny,
                   info.smallest_subnormal, -info.smallest_subnormal, -3 * info.smallest_subnormal,
                   info.max, -info.max, 1.0, -1.0]
        x = np.concatenate([np.array(special), np.random.default_rng(5).normal(size=200)]).astype(dtype)
        for slope in (0.2, 0.01, 0.99):
            out = ad.leaky_relu(ad.constant(x), slope).value
            expect = np.where(x >= 0, x, dtype(slope) * x)
            assert out.dtype == dtype
            assert np.array_equal(out.view(np.uint8), expect.view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_the_masked_formula_bit_for_bit(self, dtype):
        def masked_sigmoid(v):  # the formula `sigmoid` had, with boolean-mask gathers
            out = np.empty_like(v)
            pos = v >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
            ev = np.exp(v[~pos])
            out[~pos] = ev / (1.0 + ev)
            return out

        info = np.finfo(dtype)
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.tiny, -info.tiny,
                   info.smallest_subnormal, -info.smallest_subnormal, info.max, -info.max, 800.0, -800.0]
        x = np.concatenate([np.array(special), 30 * np.random.default_rng(6).normal(size=2000)]).astype(dtype)
        for v in (x, x[:400].reshape(20, 20)):
            out = ad.sigmoid(ad.constant(v)).value
            assert out.dtype == dtype and out.shape == v.shape
            assert out.tobytes() == masked_sigmoid(v).tobytes()

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.2, 1.5])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(t([1.0]), slope)

    def test_dropout_eval_mode_is_exact_identity(self):
        x = t([[0.5, -1.5], [2.0, 0.0]])
        out = ad.dropout(x, 0.5, train_mode=False)
        assert out is x

    def test_dropout_train_mode_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = t(np.ones(10000))
        out = ad.dropout(x, 0.25, train_mode=True, rng=rng)
        kept = out.value != 0
        assert np.allclose(out.value[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(t([1.0]), 1.0, train_mode=True, rng=np.random.default_rng(0))

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))

    def test_add_shape_error(self):
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(t(np.zeros((2, 3))), t(np.zeros((4,))))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.maximum])
    def test_shapes_that_do_not_broadcast_raise_shape_error(self, op):
        with pytest.raises(ad.ShapeError, match=op.__name__):
            op(t(np.zeros((2, 3))), t(np.zeros((3, 2))))
        # equal shapes and 0-d operands pass without a broadcast check
        assert op(t(np.ones((2, 3))), t(np.ones((2, 3)))).shape == (2, 3)
        assert op(t(np.ones((2, 3))), 2.0).shape == op(2.0, t(np.ones((2, 3)))).shape == (2, 3)

    def test_concat_shape_error(self):
        with pytest.raises(ad.ShapeError, match="concat"):
            ad.concat([t(np.zeros((2, 3))), t(np.zeros((3, 3)))], axis=-1)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
        assert np.allclose(ad.matmul(t(a), t(b)).value, a @ b)
        assert np.allclose(ad.matmul(t(a), t(b.T), transpose_b=True).value, a @ b)
        assert np.allclose(ad.matmul(t(a), t(b), row_stable=False).value, a @ b)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t([1.0, 2.0, 3.0])
        ad.backward(ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones(3))

    def test_sum_of_squares_gradient(self):
        x = t([1.0, -2.0, 0.5])
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.value)

    def test_softmax_cross_entropy_gradient_is_p_minus_y(self):
        rng = np.random.default_rng(3)
        z = t(rng.normal(size=4))
        y = np.array([0.0, 0.0, 1.0, 0.0])
        p = ad.softmax(z)
        loss = ad.sub(0.0, ad.sum_all(ad.mul(ad.constant(y), ad.log(p))))
        ad.backward(loss)
        assert np.allclose(z.grad, p.value - y, atol=1e-12)

    def test_non_scalar_root_rejected(self):
        x = t([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_repeated_backward_accumulates(self):
        x = t([1.0, 2.0])
        loss = ad.sum_all(x)
        ad.backward(loss)
        ad.backward(loss)
        assert np.array_equal(x.grad, 2 * np.ones(2))

    def test_fanout_accumulates_additively(self):
        x = t([2.0])
        y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
        ad.backward(ad.sum_all(y))
        assert np.allclose(x.grad, [2 * 2.0 + 3.0])

    def test_unreachable_grad_stays_none(self):
        x, z = t([1.0]), t([5.0])
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert z.grad is None

    def test_backward_linearity(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=6)
        a, b = 2.5, -1.25

        def grad_of(fn):
            x = t(x0)
            ad.backward(fn(x))
            return x.grad

        f = lambda x: ad.sum_all(ad.mul(x, x))
        g = lambda x: ad.sum_all(ad.tanh(x))
        combo = lambda x: ad.add(ad.mul(f(x), a), ad.mul(g(x), b))
        assert np.allclose(grad_of(combo), a * grad_of(f) + b * grad_of(g), atol=1e-12)


class TestSoftmaxProperties:
    def test_rows_sum_to_one_and_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        x = t(rng.normal(size=(8, 5)))
        out = ad.softmax(x, axis=-1)
        assert np.all(np.abs(out.value.sum(-1) - 1) < 1e-6)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(rng.normal(size=(8, 5))))))
        assert np.all(np.abs(x.grad.sum(-1)) < 1e-6)

    def test_masked_softmax_zero_on_masked_and_empty_rows(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(4, 6))
        mask = rng.random((4, 6)) > 0.5
        mask[2] = False
        out = ad.masked_softmax(t(scores), mask)
        assert np.array_equal(out.value[~mask], np.zeros(np.sum(~mask)))
        sums = out.value.sum(-1)
        assert np.allclose(sums[mask.any(-1)], 1.0)
        assert sums[2] == 0.0

    def test_masked_softmax_padding_stable(self):
        # appending masked entries must not change the valid outputs at all
        rng = np.random.default_rng(9)
        scores = rng.normal(size=(3, 4))
        mask = np.ones((3, 4), dtype=bool)
        base = ad.masked_softmax(t(scores), mask).value
        padded_scores = np.concatenate([scores, rng.normal(size=(3, 3))], axis=1)
        padded_mask = np.concatenate([mask, np.zeros((3, 3), bool)], axis=1)
        padded = ad.masked_softmax(t(padded_scores), padded_mask).value
        assert np.array_equal(padded[:, :4], base)

    def test_weighted_sum_padding_keeps_signed_zeros(self):
        # an example's sum has the bits of the example alone, whatever the
        # other examples' position rows, a -0.0 sum (negative weights times
        # zero values) included
        rng = np.random.default_rng(10)
        lengths = [2, 4, 6]
        example, ends = _position_runs(lengths)
        w, v = rng.normal(size=len(example)), rng.normal(size=(len(example), 5))
        mine = example == 1
        w[mine], v[mine, 2] = -np.abs(w[mine]), 0.0
        batched = ad.weighted_sum(t(w), t(v), example, ends).value
        assert batched.shape == (3, 5) and np.signbit(batched[1, 2]) and batched[1, 2] == 0
        for b, n in enumerate(lengths):
            alone = ad.weighted_sum(t(w[example == b]), t(v[example == b]), *_position_runs([n])).value
            assert batched[b].tobytes() == alone[0].tobytes()

    def test_weighted_sum_rejects_values_that_broadcast(self):
        # one weight per row of values, and runs that cover the rows
        example, ends = _position_runs([2, 1])
        with pytest.raises(ad.ShapeError, match="weighted_sum"):
            ad.weighted_sum(t(np.zeros((3, 1))), t(np.zeros((3, 4))), example, ends)
        with pytest.raises(ad.ShapeError, match="weighted_sum"):
            ad.weighted_sum(t(np.zeros(3)), t(np.zeros((3, 1, 4))), example, ends)
        with pytest.raises(ad.ShapeError, match="weighted_sum"):
            ad.weighted_sum(None, t(np.zeros((4, 4))), example, ends)


def _position_runs(lengths):
    """(example, ends) of the position rows of examples of these lengths, laid
    out position-major as `batching.collate` lays them out."""
    L = max(lengths)
    example = [b for j in range(L) for b, n in enumerate(lengths) if j < n]
    return np.array(example), tuple(sum(min(n, j + 1) for n in lengths) for j in range(L))


def _weighted_sum_loss(lengths, d):
    """Scalar loss of weighted_sum over one flat input holding w then v."""
    example, ends = _position_runs(lengths)
    R = len(example)

    def f(x):
        w = ad.narrow(x, 0, 0, R)
        v = ad.reshape(ad.narrow(x, 0, R, R * d), (R, d))
        return ad.sum_all(ad.tanh(ad.weighted_sum(w, v, example, ends)))

    return f, R + R * d


class TestGradcheck:
    def test_quadratic_is_exact_to_fd_order(self):
        err = ad.gradcheck(lambda x: ad.sum_all(ad.mul(x, x)), np.array([1.0, -0.5, 2.0]))
        assert err < 1e-7

    def test_composite_ops(self):
        rng = np.random.default_rng(11)
        W = rng.normal(size=(5, 4))
        c = rng.normal(size=(3, 4))

        def f(x):
            h = ad.sigmoid(ad.matmul(ad.reshape(x, (3, 5)), ad.constant(W)))
            return ad.sum_all(ad.mul(ad.leaky_relu(h, 0.2), ad.constant(c)))

        assert ad.gradcheck(f, rng.normal(size=15)) < 1e-8

    def test_wrong_backward_rule_is_caught(self):
        # negative control: tanh with a deliberately wrong derivative
        def bad_tanh(x):
            out = np.tanh(x.value)
            return ad.Tensor(out, parents=(x,), backward=lambda g: (g * (1.0 - out),), op="bad_tanh")

        err = ad.gradcheck(lambda x: ad.sum_all(bad_tanh(x)), np.array([0.7, -1.2, 0.3]))
        assert err > 1e-2

    def test_weighted_sum_with_valid_mask(self):
        # ragged runs: an example shorter than the longest has no row in the
        # later position layers, where a padded layout masked it
        rng = np.random.default_rng(13)
        f, n = _weighted_sum_loss([3, 1, 4, 2], 5)
        assert ad.gradcheck(f, rng.normal(size=n)) < 1e-8

    def test_weighted_sum_constant_weights_with_valid_mask(self):
        # unit weights, as the model's means over positions use them, and constant weights
        rng = np.random.default_rng(14)
        example, ends = _position_runs([4, 1, 2])
        R = len(example)
        w = ad.constant(rng.normal(size=R))

        def f(x):
            v = ad.reshape(x, (R, 3))
            return ad.sum_all(ad.tanh(ad.add(ad.weighted_sum(None, v, example, ends),
                                             ad.weighted_sum(w, v, example, ends))))

        x = rng.normal(size=R * 3)
        assert ad.gradcheck(f, x) < 1e-8
        v = t(x.reshape(R, 3))
        assert bits(ad.weighted_sum(None, v, example, ends).value) == \
            bits(ad.weighted_sum(t(np.ones(R)), v, example, ends).value)

    def test_mul_returns_no_gradient_for_a_constant_operand(self):
        # a constant (edge weights) times a parameter row
        rng = np.random.default_rng(15)
        c, w = ad.constant(rng.normal(size=(2, 3, 1))), t(rng.normal(size=(5,)))
        g = rng.normal(size=(2, 3, 5))
        assert ad.mul(c, w)._backward(g)[0] is None
        assert ad.mul(w, c)._backward(g)[1] is None
        expect = (g * c.value).sum(axis=(0, 1))
        assert np.array_equal(ad.mul(c, w)._backward(g)[1], expect)
        assert np.array_equal(ad.mul(w, c)._backward(g)[0], expect)

    def test_nonfinite_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                ad.gradcheck(lambda x: ad.sum_all(ad.log(x)), np.array([0.0, 1.0]))


def _neighbor_case(seed, R_in, R, W, D, dtype, pad):
    """Random global-layer inputs in the real-row layout: z (R_in, D)
    projections, h (R_in, D - 1) vectors, and (R, W) neighbour indices into
    their rows, weights and mask.  Masked slots hold index 0 and weight 0, as
    `SessionBatch.rows` sets them; row 0 is all masked.  `pad` appends that
    many masked slots to every row."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, R_in, size=(R, W))
    wt = rng.integers(1, 5, size=(R, W)).astype(np.float64)
    mask = rng.random((R, W)) < 0.7
    mask[0] = False
    idx, wt = np.where(mask, idx, 0), np.where(mask, wt, 0.0)
    if pad:
        idx, wt = (np.concatenate([a, np.zeros((R, pad), a.dtype)], axis=1) for a in (idx, wt))
        mask = np.concatenate([mask, np.zeros((R, pad), bool)], axis=1)
    vals = {name: rng.normal(size=shape).astype(dtype) for name, shape in (
        ("z", (R_in, D)), ("h", (R_in, D - 1)), ("w1b", (D,)), ("vec", (D,)), ("scores", (R, W + pad)))}
    return vals, idx, wt, mask


def _old_mix(alpha, h, idx):
    """The generic chain `neighbor_mix` replaces: each slot's weighted
    neighbour rows, added in slot order."""
    out = None
    for w in range(idx.shape[1]):
        term = ad.mul(ad.narrow(alpha, 1, w, 1), ad.gather(h, idx[:, w]))
        out = term if out is None else ad.add(out, term)
    return out


def _old_scores(z, idx, wt, w1b, vec):
    """The generic chain `neighbor_scores` replaces."""
    pre = ad.add(ad.gather(z, idx), ad.mul(ad.constant(wt[..., None], dtype=z.dtype), w1b))
    return ad.reduce_sum(ad.mul(ad.leaky_relu(pre, 0.2), vec), axis=-1)


class TestNeighborOps:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), R_in=st.integers(1, 15), W=st.integers(1, 5), D=st.integers(2, 6),
           pad=st.integers(0, 3), block=st.integers(1, 40), dtype=st.sampled_from([np.float32, np.float64]))
    def test_forwards_equal_the_generic_chains_bit_for_bit(self, seed, R_in, W, D, pad, block, dtype):
        R = max(1, R_in - 1)
        vals, idx, wt, mask = _neighbor_case(seed, R_in, R, W, D, dtype, pad)
        z, w1b, vec, h = (ad.Tensor(vals[k], requires_grad=True) for k in ("z", "w1b", "vec", "h"))
        new = ad.neighbor_scores(z, idx, wt, w1b, vec, 0.2)
        assert bits(new.value) == bits(_old_scores(z, idx, wt, w1b, vec).value)
        # row blocks of any size, kept activation or not, change no bit
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_NBR_BLOCK", block)
            assert bits(ad.neighbor_scores(z, idx, wt, w1b, vec, 0.2).value) == bits(new.value)
            with ad.no_grad():
                assert bits(ad.neighbor_scores(z, idx, wt, w1b, vec, 0.2).value) == bits(new.value)
        alpha = ad.masked_softmax(ad.Tensor(vals["scores"], requires_grad=True), mask)
        mixed = ad.neighbor_mix(alpha, h, idx)
        assert bits(mixed.value) == bits(_old_mix(alpha, h, idx).value)
        assert not mixed.value[0].any()  # an all-masked row mixes to zero
        if pad:  # masked slots appended to every row change no bit
            unpadded = ad.neighbor_mix(ad.narrow(alpha, 1, 0, W), h, idx[:, :W])
            assert bits(mixed.value) == bits(unpadded.value)

    @pytest.mark.parametrize("W", [1, 4])
    def test_gradients_match_the_generic_chains(self, monkeypatch, W):
        monkeypatch.setattr(ad, "_NBR_BLOCK", 2 * W * 6)  # blocks of two rows
        vals, idx, wt, mask = _neighbor_case(3, 10, 8, W, 6, np.float64, 0)
        grads = []
        for fused in (True, False):
            z, w1b, vec, h = (t(vals[k]) for k in ("z", "w1b", "vec", "h"))
            if fused:
                scores = ad.neighbor_scores(z, idx, wt, w1b, vec, 0.2)
            else:
                scores = _old_scores(z, idx, wt, w1b, vec)
            alpha = ad.masked_softmax(scores, mask)
            if fused:
                mixed = ad.neighbor_mix(alpha, h, idx)
            else:
                mixed = _old_mix(alpha, h, idx)
            ad.backward(ad.add(ad.sum_all(ad.tanh(mixed)), ad.sum_all(ad.tanh(scores))))
            grads.append([x.grad for x in (z, w1b, vec, h)])
        for new, old in zip(*grads):
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-15)

    def test_scores_keep_a_mask_and_their_backward_forms_no_slot_array(self):
        # a k_hops=2 step's first hop: 1,293 rows x 12 slots and D = 101; into
        # 300 rows, so that the per-row sums are small beside a slot array
        rng = np.random.default_rng(41)
        R, W, D, R_in = 1293, 12, 101, 300
        idx = rng.integers(0, R_in, size=(R, W))
        wt = rng.integers(1, 5, size=(R, W)).astype(np.float64)
        z = ad.reshape(t(rng.normal(size=(R_in, D))), (R_in, D))  # not a leaf: its gradient is returned
        w1b, vec = t(rng.normal(size=D)), t(rng.normal(size=D))
        g = rng.normal(size=(R, W))
        slot_array = R * W * D * 8  # bytes of a float64 (R, W, D) array
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = ad.neighbor_scores(z, idx, wt, w1b, vec, 0.2)
            kept = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            grads = out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert [x.shape for x in grads] == [(R_in, D), (D,), (D,)]
        assert kept < slot_array / 4  # the tape's mask takes an eighth of it
        assert peak < slot_array / 2

    @pytest.mark.parametrize("wrt", ["z", "w1b", "vec"])
    def test_gradcheck_neighbor_scores(self, wrt):
        vals, idx, wt, mask = _neighbor_case(5, 8, 6, 3, 5, np.float64, 0)

        def f(x):
            args = {k: ad.constant(vals[k]) for k in ("z", "w1b", "vec")}
            args[wrt] = x
            return ad.sum_all(ad.tanh(ad.neighbor_scores(args["z"], idx, wt, args["w1b"], args["vec"], 0.2)))

        assert ad.gradcheck(f, vals[wrt]) < 1e-8

    @pytest.mark.parametrize("wrt", ["alpha", "h"])
    def test_gradcheck_neighbor_mix(self, wrt):
        vals, idx, wt, mask = _neighbor_case(6, 8, 6, 3, 5, np.float64, 0)
        args = {"alpha": vals["scores"], "h": vals["h"]}

        def f(x):
            a = {k: ad.constant(v) for k, v in args.items()}
            a[wrt] = x
            return ad.sum_all(ad.tanh(ad.neighbor_mix(a["alpha"], a["h"], idx)))

        assert ad.gradcheck(f, args[wrt]) < 1e-8

    def test_out_of_range_index_raises_index_error(self):
        vals, idx, wt, mask = _neighbor_case(7, 8, 6, 3, 5, np.float64, 0)
        z, w1b, vec, h = (t(vals[k]) for k in ("z", "w1b", "vec", "h"))
        n = len(vals["z"])
        for index_dtype in (np.int64, np.int32):
            for value in (n, n + 5, -1, np.iinfo(index_dtype).min):
                bad = idx.astype(index_dtype)
                bad[2, 1] = value  # one bad entry among good ones
                with pytest.raises(IndexError):
                    ad.neighbor_scores(z, bad, wt, w1b, vec)
                with pytest.raises(IndexError):
                    ad.gather(z, bad)
                with pytest.raises(IndexError):
                    ad.batched_gather(t(vals["z"][None]), bad[None])
                with pytest.raises(IndexError):
                    ad.neighbor_mix(t(vals["scores"]), h, bad)
            good = idx.astype(index_dtype)
            assert bits(ad.gather(z, good).value) == bits(ad.gather(z, idx).value)
            assert bits(ad.neighbor_mix(t(vals["scores"]), h, good).value) == \
                bits(ad.neighbor_mix(t(vals["scores"]), h, idx).value)

    def test_shape_errors_name_the_shapes(self):
        vals, idx, wt, mask = _neighbor_case(9, 8, 6, 3, 5, np.float64, 0)
        z, w1b, vec, h = (t(vals[k]) for k in ("z", "w1b", "vec", "h"))
        for bad in ((z.value[0], idx, wt, w1b, vec), (z, idx, wt[..., 1:], w1b, vec),
                    (z, idx, wt, w1b, t(vals["vec"][1:]))):
            with pytest.raises(ad.ShapeError, match="neighbor_scores"):
                ad.neighbor_scores(*bad)
        for bad in ((t(vals["scores"][..., 1:]), h, idx), (t(vals["scores"]), t(vals["h"][0]), idx),
                    (t(vals["scores"][None]), h, idx[None])):
            with pytest.raises(ad.ShapeError, match="neighbor_mix"):
                ad.neighbor_mix(*bad)

    @pytest.mark.parametrize("rows_shape", [(0,), (7,), (2, 3, 4)])
    def test_scatter_add_equals_add_at(self, rows_shape):
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 3, size=rows_shape)  # three target rows: most repeat
        vals = rng.normal(size=rows_shape + (5,))
        expect = np.zeros((6, 5))
        np.add.at(expect, rows.ravel(), vals.reshape(-1, 5))
        out = np.zeros((6, 5))
        assert ad.RowIndex(rows).scatter_add(out, vals) is out
        assert bits(out) == bits(expect)
        # into a filled array, each row's terms are summed first, then added
        start = rng.normal(size=(6, 5))
        got = ad.RowIndex(rows).scatter_add(start.copy(), vals)
        np.testing.assert_allclose(got, start + expect, rtol=1e-15)

    def test_leaf_gather_and_narrow_write_the_leaf_gradient_once(self):
        # both add into the leaf's one gradient array; nothing flows on
        table = t(np.arange(12.0).reshape(4, 3))
        loss = ad.add(ad.sum_all(ad.gather(table, [[1, 1], [3, 0]])),
                      ad.sum_all(ad.narrow(table, 0, 1, 2)))
        ad.backward(loss)
        assert np.array_equal(table.grad, [[1.0] * 3, [3.0] * 3, [1.0] * 3, [1.0] * 3])
        grad = table.grad
        ad.backward(loss)  # a second pass adds into the same array
        assert table.grad is grad and np.array_equal(grad[1], [6.0] * 3)


def _loop_masked_softmax(a, mask, axis=-1):
    """`masked_softmax`'s forward with its denominator summed one slot at a
    time, as the op did before it took a running sum."""
    ax = axis % a.ndim
    neg_inf = np.array(-np.inf, dtype=a.dtype)
    mx = np.where(mask, a, neg_inf).max(axis=ax, keepdims=True)
    e = np.exp(np.where(mask, a - np.where(np.isfinite(mx), mx, 0.0), neg_inf))
    den = None
    for j in range(a.shape[ax]):
        term = np.take(e, j, axis=ax)
        den = term if den is None else den + term
    den = np.expand_dims(den, ax)
    return e / np.where(den > 0, den, 1.0)


def _loop_neighbor_mix(av, hv, idx):
    """`neighbor_mix`'s forward one slot at a time over all rows, as the op
    did before it worked in blocks of rows."""
    out = np.zeros((idx.shape[0], hv.shape[1]), dtype=hv.dtype) if idx.shape[1] == 0 else None
    for w in range(idx.shape[1]):
        term = av[:, w:w + 1] * hv[idx[:, w]]
        if out is None:
            out = term
        else:
            out += term
    return out


def _loop_mix_galpha(g, hv, idx):
    """`neighbor_mix`'s alpha gradient, one gather and one einsum per slot."""
    galpha = np.empty(idx.shape, dtype=g.dtype)
    for w in range(idx.shape[1]):
        galpha[:, w] = np.einsum("rd,rd->r", g, hv[idx[:, w]])
    return galpha


def _signed_zeros(rng, shape, dtype):
    """Normal entries with about a tenth of them -0.0."""
    x = rng.normal(size=shape).astype(dtype)
    x[rng.random(shape) < 0.1] = -0.0
    return x


class TestSequentialSumsMatchTheSlotLoops:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("R", [1, 37])
    @pytest.mark.parametrize("J", [1, 12])
    def test_masked_softmax(self, dtype, R, J):
        rng = np.random.default_rng(R * 100 + J)
        scores = rng.normal(size=(R, J)).astype(dtype)
        mask = rng.random((R, J)) < 0.7
        mask[0] = False  # an all-masked row
        out = ad.masked_softmax(ad.Tensor(scores), mask)
        assert bits(out.value) == bits(_loop_masked_softmax(scores, mask))
        assert not out.value[0].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_softmax_on_a_middle_axis(self, dtype):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(5, 12, 3)).astype(dtype)
        mask = rng.random(scores.shape) < 0.6
        mask[1, :, 2] = False
        out = ad.masked_softmax(ad.Tensor(scores), mask, axis=1)
        assert bits(out.value) == bits(_loop_masked_softmax(scores, mask, axis=1))

    @pytest.mark.parametrize("R", [0, 4])
    def test_masked_softmax_of_zero_width(self, R):
        x = t(np.zeros((R, 0)))
        out = ad.masked_softmax(x, np.zeros((R, 0), bool))
        assert out.value.shape == (R, 0)
        ad.backward(ad.sum_all(out))
        assert x.grad.shape == (R, 0)

    @pytest.mark.parametrize("d", [8, 16, 101])
    @pytest.mark.parametrize("W", [0, 1, 12])
    @pytest.mark.parametrize("R", [0, 1, 50])
    def test_neighbor_mix(self, R, W, d):
        rng = np.random.default_rng(R * 10_000 + W * 1000 + d)
        hv = _signed_zeros(rng, (30, d), np.float64)
        av = _signed_zeros(rng, (R, W), np.float64)
        idx = rng.integers(0, 30, size=(R, W))
        self._check_mix(av, hv, idx, rng)

    def test_neighbor_mix_single_precision(self):
        rng = np.random.default_rng(12)
        hv = _signed_zeros(rng, (40, 16), np.float32)
        av = _signed_zeros(rng, (25, 12), np.float32)
        self._check_mix(av, hv, rng.integers(0, 40, size=(25, 12)), rng)

    def test_neighbor_mix_over_many_blocks(self):
        # benchmark-sized: about 50 blocks of 27 rows at d=100
        rng = np.random.default_rng(13)
        hv = _signed_zeros(rng, (6100, 100), np.float64)
        av = _signed_zeros(rng, (1300, 12), np.float64)
        idx = rng.integers(0, 6100, size=(1300, 12))
        assert 1300 * 12 * 100 > 40 * ad._NBR_BLOCK
        self._check_mix(av, hv, idx, rng)

    @staticmethod
    def _check_mix(av, hv, idx, rng):
        alpha, h = ad.Tensor(av, requires_grad=True), ad.Tensor(hv, requires_grad=True)
        out = ad.neighbor_mix(alpha, h, idx)
        assert bits(out.value) == bits(_loop_neighbor_mix(av, hv, idx))
        g = _signed_zeros(rng, out.shape, out.dtype)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        assert bits(alpha.grad) == bits(_loop_mix_galpha(g, hv, idx))


def _add_at_reference(rows, terms, n, dtype):
    """Each row's terms summed by `np.add.at` into float64 zeros, in the order
    they occur, then cast to `dtype`."""
    out = np.zeros((n, terms.shape[-1]))
    np.add.at(out, rows.ravel(), terms.reshape(-1, terms.shape[-1]).astype(np.float64))
    return out.astype(dtype)


def _scatter_case(kind, rng, R_in=30, W=5):
    """(R, W) row indices into R_in rows.  `masked`: about a third of the
    slots are masked and index row 0, as `SessionBatch.rows` sets them;
    `hot`: one row is hit 45 times besides; `empty_rows` and `empty_slots`:
    R = 0 and W = 0."""
    if kind == "empty_rows":
        return np.zeros((0, W), dtype=np.int64)
    if kind == "empty_slots":
        return np.zeros((12, 0), dtype=np.int64)
    idx = rng.integers(0, R_in, size=(24, W))
    idx[rng.random(idx.shape) < 0.35] = 0
    if kind == "hot":
        idx.ravel()[rng.choice(idx.size, 45, replace=False)] = 7
    return idx


class TestScatterPlan:
    """The global layer's neighbour ops and the session-feature gather
    scatter their gradients through a `RowIndex` pass plan; the sums must be
    `np.add.at`'s into zeros, bit for bit, taken in float64."""

    KINDS = ["masked", "hot", "empty_rows", "empty_slots"]

    @pytest.mark.parametrize("leaf", [True, False])
    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_neighbor_scores_z_gradient(self, monkeypatch, kind, dtype, block, leaf):
        rng = np.random.default_rng(self.KINDS.index(kind) * 100 + (block or 0))
        if block is not None:
            monkeypatch.setattr(ad, "_NBR_BLOCK", block)
        idx = _scatter_case(kind, rng)
        D, R_in = 6, 30
        zv = _signed_zeros(rng, (R_in, D), dtype)
        wt = rng.integers(0, 4, size=idx.shape).astype(dtype)
        w1b, vec = (ad.Tensor(rng.normal(size=D).astype(dtype), requires_grad=True) for _ in range(2))
        z0 = ad.Tensor(zv, requires_grad=True)
        z = z0 if leaf else ad.reshape(z0, zv.shape)
        out = ad.neighbor_scores(z, ad.RowIndex(idx), wt, w1b, vec, 0.2)
        g = _signed_zeros(rng, out.shape, dtype)
        pre = zv[idx] + wt[..., None] * w1b.value
        u = np.repeat(g[..., None], D, axis=-1)  # g f: the LeakyReLU factor, 1 or slope, times g
        u[np.maximum(pre, dtype(0.2) * pre) < 0] *= dtype(0.2)
        sums = np.zeros((R_in, D))
        np.add.at(sums, idx.ravel(), u.reshape(-1, D).astype(np.float64))
        hit = np.isin(np.arange(R_in), idx)  # a row no slot reads keeps its +0.0
        expect = np.where(hit[:, None], vec.value * sums, 0.0).astype(dtype)
        assert bits(self._rows_gradient(out, g, z0, leaf, 0)) == bits(expect)

    @staticmethod
    def _rows_gradient(out, g, x0, leaf, parent):
        """The gradient of sum(out * g) that the op adds into the leaf `x0`,
        or, when its operand `parent` is not a leaf, the one it hands on (a
        leaf's sum would turn -0.0 into 0.0)."""
        if leaf:
            ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
            return x0.grad
        return out._backward(g)[parent]

    @pytest.mark.parametrize("leaf", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_neighbor_mix_h_gradient(self, kind, dtype, leaf):
        rng = np.random.default_rng(self.KINDS.index(kind))
        idx = _scatter_case(kind, rng)
        hv = _signed_zeros(rng, (30, 8), dtype)
        av = _signed_zeros(rng, idx.shape, dtype)
        h0 = ad.Tensor(hv, requires_grad=True)
        h = h0 if leaf else ad.reshape(h0, hv.shape)
        out = ad.neighbor_mix(ad.Tensor(av, requires_grad=True), h, ad.RowIndex(idx))
        g = _signed_zeros(rng, out.shape, dtype)
        expect = _add_at_reference(idx, av[..., None] * g[:, None, :], 30, dtype)
        assert bits(self._rows_gradient(out, g, h0, leaf, 1)) == bits(expect)

    @pytest.mark.parametrize("leaf", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["example", "zipf"])
    def test_gather_row_gradient(self, kind, dtype, leaf):
        # the session-feature gather (rows sorted by example, one example with
        # 50 rows) and an item-table gather (Zipf repeats, most rows unused)
        rng = np.random.default_rng(21)
        if kind == "example":
            idx, n = np.sort(rng.integers(0, 6, size=80)), 6
            idx[:50] = 2
        else:
            idx, n = np.minimum(rng.zipf(1.5, size=(40, 5)), 300) - 1, 300
            assert np.bincount(idx.ravel()).max() >= 40
        for index in (idx, ad.RowIndex(idx)):
            s0 = ad.Tensor(_signed_zeros(rng, (n, 5), dtype), requires_grad=True)
            s = s0 if leaf else ad.reshape(s0, s0.shape)
            out = ad.gather(s, index)
            g = _signed_zeros(rng, out.shape, dtype)
            assert bits(self._rows_gradient(out, g, s0, leaf, 0)) == bits(_add_at_reference(idx, g, n, dtype))

    @pytest.mark.parametrize("d", [1, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_small_table_hit_many_times_sums_row_by_row(self, dtype, d):
        # the relation table: 5 rows, each hit hundreds of times, so the plan
        # has fewer rows than passes of two or more rows and sums each row's
        # slots in one call
        rng = np.random.default_rng(8)
        idx = rng.choice(5, size=(1200,), p=[0.5, 0.2, 0.15, 0.1, 0.05])
        index = ad.RowIndex(idx)
        order, rows, ends, by_row = index.plan()
        assert len(rows) == 5 and len(ends) > 500 and by_row is not None
        for leaf in (True, False):
            s0 = ad.Tensor(_signed_zeros(rng, (5, d), dtype), requires_grad=True)
            s = s0 if leaf else ad.reshape(s0, s0.shape)
            out = ad.gather(s, index)
            g = (_signed_zeros(rng, out.shape, dtype) * 10.0 ** rng.integers(-6, 6, size=out.shape)).astype(dtype)
            assert bits(self._rows_gradient(out, g, s0, leaf, 0)) == bits(_add_at_reference(idx, g, 5, dtype))
        # the float64 sums themselves, before a float32 gradient rounds them
        rows, sums = index.sums(ad._slot_terms(g, d))
        expect = np.zeros((5, d))
        np.add.at(expect, idx, g.astype(np.float64))
        assert bits(sums) == bits(expect[rows])

    def test_a_plan_is_built_once_and_only_by_a_backward(self, monkeypatch):
        built = []
        plan = ad._pass_plan
        monkeypatch.setattr(ad, "_pass_plan", lambda idx: built.append(idx) or plan(idx))
        vals, idx, wt, mask = _neighbor_case(31, 12, 10, 4, 6, np.float64, 0)
        z, w1b, vec, h = (t(vals[k]) for k in ("z", "w1b", "vec", "h"))

        def forward(index):
            scores = ad.neighbor_scores(z, index, wt, w1b, vec, 0.2)
            return ad.neighbor_mix(ad.masked_softmax(scores, mask), h, index)

        index = ad.RowIndex(idx)
        with ad.no_grad():
            forward(index)
        mixed = forward(index)
        assert not built  # a forward, with a tape or without, plans nothing
        ad.backward(ad.sum_all(ad.tanh(mixed)))
        assert len(built) == 1  # both ops' backward share the one plan
        ad.backward(ad.sum_all(ad.tanh(mixed)))
        assert len(built) == 1

    def test_model_plans_once_per_index_in_training_and_never_in_evaluation(self, monkeypatch):
        from sessrec import evaluation, model
        from sessrec.corpus import Example

        built = []
        plan = ad._pass_plan
        monkeypatch.setattr(ad, "_pass_plan", lambda idx: built.append(idx) or plan(idx))
        cfg = model.ModelConfig(embedding_dim=8, k_hops=2, dropout_global=0.0)
        batch, num_items = model.toy_batch(cfg)
        mdl = model.NextItemModel(num_items, max_len=4, config=cfg, seed=3)
        graph = model.build_global_graph(*model.csr(model.TOY_SESSIONS), 3, 12, num_items=num_items)
        examples = [Example(tuple(s[:k]), s[k], "test") for s in model.TOY_SESSIONS for k in range(1, len(s))]
        evaluation.evaluate_model(mdl, examples, graph, batch_size=4)
        assert not built
        out = mdl.forward(batch, train_mode=True, rng=np.random.default_rng(0))
        loss = mdl.loss(out.session_vec, batch.labels)
        assert not built
        ad.backward(loss)

        def plans_of(table):
            return sum(np.shares_memory(idx, table) for idx in built)

        rows = batch.rows
        # one per hop's neighbour table, shared by both neighbour ops, and one
        # for the session layer's edge table, shared by its gather and neighbor_mix
        assert plans_of(rows.nbr_idx) == cfg.k_hops
        assert plans_of(rows.example) == cfg.k_hops  # the session-feature gathers
        assert plans_of(rows.sess_idx) == 1


def _logsumexp(v):
    top = v.max()
    return top + np.log(np.exp(v - top).sum())


def _softmax_loss_reference(z, labels, mode):
    """Row by row in float64: -log p_y, plus for `binary` each miss term
    log(1 - p_j) = logsumexp(z without j) - logsumexp(z)."""
    out = []
    for row, y in zip(z, labels):
        lse = _logsumexp(row)
        loss = lse - row[y]
        if mode == "binary":
            loss -= sum(_logsumexp(np.delete(row, j)) - lse for j in range(row.size) if j != y)
        out.append(loss)
    return np.array(out)


def _softmax_loss_inputs(lead):
    """Random logits (6, 9); with `lead`, each row's top logit leads the rest
    by that much, on the label in rows 0-2 and off it in rows 3-5."""
    rng = np.random.default_rng(17)
    z = rng.normal(size=(6, 9))
    labels = np.array([0, 4, 8, 1, 5, 8])
    if lead:
        top = np.array([0, 4, 8, 2, 7, 0])
        z[np.arange(6), top] = z.max(axis=1) + lead
    return z, labels


def _softmax_loss(x, labels, mode):
    """`score_loss` of the logits `x` themselves: the scored table rows are
    the unit vectors, so s @ table[1:]^T is s, exactly."""
    m = x.shape[1]
    return ad.score_loss(x, ad.constant(np.vstack([np.zeros((1, m)), np.eye(m)])), labels, mode)


class TestSoftmaxLoss:
    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("lead", [0.0, 20.0])
    def test_matches_log_softmax_reference(self, mode, lead):
        z, labels = _softmax_loss_inputs(lead)
        got = _softmax_loss(ad.constant(z), labels, mode).value
        assert np.allclose(got, _softmax_loss_reference(z, labels, mode), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("lead", [0.0, 20.0])
    def test_gradcheck(self, mode, lead):
        z, labels = _softmax_loss_inputs(lead)
        w = np.linspace(0.5, 2.0, labels.size)  # distinct upstream gradient per row
        f = lambda x: ad.sum_all(ad.mul(_softmax_loss(x, labels, mode), w))
        assert ad.gradcheck(f, z) < 1e-8

    def test_categorical_gradient_is_p_minus_onehot(self):
        z, labels = _softmax_loss_inputs(0.0)
        x = t(z)
        ad.backward(ad.sum_all(_softmax_loss(x, labels, "categorical")))
        onehot = np.eye(z.shape[1])[labels]
        assert np.allclose(x.grad, ad.softmax(t(z)).value - onehot, atol=1e-15)

    def test_rejects_unknown_mode_and_bad_shapes(self):
        with pytest.raises(ValueError, match="mode"):
            ad.score_loss(t(np.zeros((2, 3))), t(np.zeros((4, 3))), np.array([0, 1]), "hinge")
        with pytest.raises(ad.ShapeError):
            ad.score_loss(t(np.zeros((2, 3))), t(np.zeros((4, 3))), np.array([0]), "binary")
        with pytest.raises(ad.ShapeError):
            ad.score_loss(t(np.zeros((2, 3))), t(np.zeros((4, 2))), np.array([0, 1]), "binary")
        with pytest.raises(ad.ShapeError):  # the padding row alone: no item to score
            ad.score_loss(t(np.zeros((2, 3))), t(np.zeros((1, 3))), np.array([0, 1]), "binary")


def _score_loss_inputs(dtype, lead=60.0):
    """s (7, 16) and table (1 + 14, 16) whose logits z = s @ table[1:]^T put,
    in one block of two rows, two leading top logits in the last columns:
    row 2's top column 13 leads by `lead` and is its label, row 3's top
    column 12 leads by `lead` and misses its label; row 1's label is column
    12, row 0's label is its top column, and row 6 is the last, partial
    block."""
    rng = np.random.default_rng(23)
    s = rng.normal(size=(7, 16))
    s[3] -= s[2] * (s[3] @ s[2]) / (s[2] @ s[2])  # rows 2 and 3 orthogonal
    table = rng.normal(size=(15, 16)) * 0.3
    table[1 + 13] = s[2] * lead / (s[2] @ s[2])
    table[1 + 12] = s[3] * lead / (s[3] @ s[3])
    s, table = s.astype(dtype), table.astype(dtype)
    labels = np.array([0, 12, 13, 0, 5, 9, 2])
    labels[0] = (s[0] @ table[1:].T).argmax()
    return s, table, labels


class TestScoreLoss:
    """`score_loss` against the whole-array loss it streams (tests/reference_head.py)."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "_HEAD_BLOCK", 28)  # 14 columns: row blocks of 2, 2, 2 and 1

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lead", [0.0, 60.0])
    def test_losses_equal_oracle_bit_for_bit(self, mode, dtype, lead):
        s, table, labels = _score_loss_inputs(dtype, lead)
        z = s @ table[1:].T
        if lead:
            assert z[2].argmax() == 13 and z[3].argmax() == 12
            assert np.exp(np.float32(-lead)) > 0 and np.float32(1) + np.exp(np.float32(-lead)) == 1
        got = ad.score_loss(ad.constant(s), ad.constant(table), labels, mode).value
        expect, _ = reference_head.softmax_loss(z, labels, mode)
        assert got.dtype == dtype
        assert np.array_equal(got, expect)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_grad_loss_equals_grad_mode_loss_bit_for_bit(self, mode, dtype):
        s, table, labels = _score_loss_inputs(dtype)
        with ad.no_grad():
            plain = ad.score_loss(ad.Parameter("s", s), ad.Parameter("table", table), labels, mode)
        taped = ad.score_loss(ad.Parameter("s", s), ad.Parameter("table", table), labels, mode)
        assert plain._backward is None and taped._backward is not None
        assert plain.value.tobytes() == taped.value.tobytes()

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("lead", [0.0, 60.0])
    def test_gradients_match_oracle_chain(self, mode, lead):
        s, table, labels = _score_loss_inputs(np.float64, lead)
        w = np.linspace(0.5, 2.0, labels.size)
        _, grad = reference_head.softmax_loss(s @ table[1:].T, labels, mode)
        gz = grad(w)
        sp, tp = ad.Parameter("s", s), ad.Parameter("table", table)
        ad.backward(ad.sum_all(ad.mul(ad.score_loss(sp, tp, labels, mode), w)))

        def rel(got, expect):
            return np.abs(got - expect).max() / np.abs(expect).max()

        assert rel(sp.grad, gz @ table[1:]) < 1e-12
        assert rel(tp.grad[1:], gz.T @ s) < 1e-12
        assert np.array_equal(tp.grad[0], np.zeros(16))  # the padding row
        first = tp.grad.copy()
        ad.backward(ad.sum_all(ad.mul(ad.score_loss(sp, tp, labels, mode), w)))
        assert np.array_equal(tp.grad, 2 * first)  # a second pass adds into `.grad`

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    def test_gradcheck_through_s_and_table(self, mode):
        B, d, m = 4, 3, 10  # row blocks of 2 and 2
        rng = np.random.default_rng(29)
        labels = np.array([0, 9, 8, 3])

        def f(x):
            s = ad.reshape(ad.narrow(x, 0, 0, B * d), (B, d))
            table = ad.reshape(ad.narrow(x, 0, B * d, (m + 1) * d), (m + 1, d))
            w = np.linspace(0.5, 2.0, B)
            return ad.sum_all(ad.mul(ad.score_loss(s, table, labels, mode), w))

        assert ad.gradcheck(f, rng.normal(size=(B + m + 1) * d)) < 1e-8

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    def test_gradcheck_into_leaf_gradients(self, mode):
        s, table, labels = _score_loss_inputs(np.float64, lead=3.0)
        params = [ad.Parameter("s", s), ad.Parameter("table", table)]
        loss = lambda: ad.sum_all(ad.score_loss(params[0], params[1], labels, mode))
        assert ad.gradcheck_params(loss, params) < 1e-8


class TestSplitWork:
    """Work split in two by shape (`ad._side_by_side`) has the bits of the
    unsplit work, whether the halves run on the worker thread or in turn."""

    @staticmethod
    def _run(monkeypatch, split, cpus, fn):
        """fn() with the split forced on or off, BLAS products split too, and
        `cpus` usable CPUs; the result and the number of pairs made."""
        calls = []
        side_by_side = ad._side_by_side
        monkeypatch.setattr(ad, "_SPLIT_WORK", 1 if split else 1 << 62)
        monkeypatch.setattr(ad, "_ONE_BLAS_THREAD", True)
        monkeypatch.setattr(ad, "_cpus", lambda: cpus)
        monkeypatch.setattr(ad, "_side_by_side", lambda f, g: calls.append(1) or side_by_side(f, g))
        return fn(), len(calls)

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_score_loss_losses_and_gradients(self, monkeypatch, mode, dtype):
        # 2,100 items: a column cut at 1,024, and row blocks of 31, 31 and 8 rows
        B, d, m = 70, 100, 2100
        rng = np.random.default_rng(41)
        s = rng.normal(size=(B, d)).astype(dtype)
        table = (0.3 * rng.normal(size=(m + 1, d))).astype(dtype)
        labels = rng.integers(0, m, size=B)
        w = rng.uniform(0.5, 2.0, size=B).astype(dtype)

        def step():
            sp, tp = ad.Parameter("s", s), ad.Parameter("table", table)
            losses = ad.score_loss(sp, tp, labels, mode)
            ad.backward(ad.sum_all(ad.mul(losses, w)))
            written = tp.grad.copy()
            ad.backward(ad.sum_all(ad.mul(ad.score_loss(sp, tp, labels, mode), w)))  # adds into .grad
            return [bits(x) for x in (losses.value, sp.grad, written, tp.grad)]

        pinned = ad._ONE_BLAS_THREAD  # as the environment set BLAS up
        whole, pairs = self._run(monkeypatch, False, 2, step)
        assert pairs == 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the two threads' Python steps interleave finely
        try:
            runs = [self._run(monkeypatch, True, cpus, step) for cpus in (1, 2)]
        finally:
            sys.setswitchinterval(interval)
        assert [pairs for _, pairs in runs] == [2 * 3] * 2  # product, row pass and backward, twice
        assert runs[1][0] == runs[0][0]  # on the worker as in turn
        if pinned:  # on one BLAS thread, as the unsplit work; a threaded BLAS may round halves otherwise
            assert runs[0][0] == whole

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predict_sees_the_logits_score_loss_forms(self, monkeypatch, dtype):
        from sessrec.model import ModelConfig, NextItemModel

        mdl = NextItemModel(2100, max_len=4, seed=5,
                            config=ModelConfig(embedding_dim=8, precision="single" if dtype == np.float32 else "double"))
        sv = ad.constant(np.random.default_rng(6).normal(size=(5, 8)).astype(dtype))
        formed = []
        product = ad._plain_product

        def record(a, b):
            out = product(a, b)
            formed.append(out.copy())  # before score_loss turns it into exponentials
            return out

        monkeypatch.setattr(ad, "_plain_product", record)

        def both():
            with ad.no_grad():
                mdl.example_losses(sv, np.arange(1, 6))
                return mdl.predict(sv).value

        logits, pairs = self._run(monkeypatch, True, 2, both)
        assert pairs == 2  # one split product each; 5 rows make one row block
        assert bits(formed[0]) == bits(logits) == bits(formed[1])
        assert logits.shape == (5, 2100)

    def test_blas_products_split_only_on_one_blas_thread(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert not ad._one_blas_thread()  # unset: OpenBLAS takes every CPU
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert ad._one_blas_thread()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # read before OMP_NUM_THREADS
        assert not ad._one_blas_thread()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", " 1")
        assert ad._one_blas_thread()
        monkeypatch.setattr(ad, "_ONE_BLAS_THREAD", False)
        monkeypatch.setattr(ad, "_side_by_side", lambda f, g: pytest.fail("split a product"))
        a, b = np.ones((100, 100)), np.ones((100, 4096))
        assert np.array_equal(ad._plain_product(a, b), a @ b)

    def test_the_worker_runs_the_first_half_and_is_awaited_when_the_second_raises(self, monkeypatch):
        monkeypatch.setattr(ad, "_cpus", lambda: 2)
        seen = []

        def first():
            time.sleep(0.05)
            seen.append(threading.current_thread().name)

        def second():
            raise KeyError("second")

        with pytest.raises(KeyError):
            ad._side_by_side(first, second)
        assert len(seen) == 1 and seen[0].startswith("sessrec-worker")
        with pytest.raises(ZeroDivisionError):
            ad._side_by_side(lambda: 1 / 0, lambda: None)
        monkeypatch.setattr(ad, "_cpus", lambda: 1)
        order = []
        assert ad._side_by_side(lambda: order.append(1) or "a", lambda: order.append(2) or "b") == ("a", "b")
        assert order == [1, 2]

    @pytest.mark.parametrize("k_hops", [1, 2])
    def test_a_gradcheck_sized_model_submits_nothing(self, monkeypatch, k_hops):
        from sessrec import model

        calls = []
        monkeypatch.setattr(ad, "_side_by_side", lambda f, g: calls.append(1))
        cfg = model.ModelConfig(embedding_dim=8, dropout_global=0.0, k_hops=k_hops)
        assert model.model_gradcheck(cfg) < 1e-6
        assert not calls


def _operands(rng, m, k, n, transpose_b, dtype):
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((n, k) if transpose_b else (k, n)).astype(dtype)
    return a, b


def _product(a, b, transpose_b):
    return ad.matmul(ad.constant(a), ad.constant(b), transpose_b=transpose_b).value


class TestRowStableMatmul:
    """Each row of a row-stable product has the same bits whatever its batch."""

    @settings(deadline=None, max_examples=60)
    @given(m=st.one_of(st.integers(1, 300), st.sampled_from([96, 192, 288])),
           k=st.integers(1, 130), n=st.integers(1, 130), transpose_b=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]), strided=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_alone_and_among_random_rows(self, m, k, n, transpose_b, dtype, strided, seed):
        rng = np.random.default_rng(seed)
        a, b = _operands(rng, m, k, n, transpose_b, dtype)
        if strided:  # `a` is copied even at whole blocks; no stride of `b` is unit
            a = np.concatenate([a, a], axis=1)[:, :k]
            b = np.stack([b, b], axis=-1)[..., 0]
        out = _product(a, b, transpose_b)
        assert out.shape == (m, n) and out.dtype == dtype
        for i in range(m):
            assert np.array_equal(_product(a[i:i + 1], b, transpose_b)[0], out[i]), f"row {i} alone"
        # every row of `a` at a random position among random rows
        others = rng.standard_normal((int(rng.integers(0, 300)), k)).astype(dtype)
        mixed = np.concatenate([a, others])
        order = rng.permutation(len(mixed))
        mixed_out = _product(mixed[order], b, transpose_b)
        where = np.argsort(order)[:m]
        assert np.array_equal(mixed_out[where], out)

    @settings(deadline=None, max_examples=40)
    @given(m=st.one_of(st.integers(1, 300), st.sampled_from([96, 192, 288])),
           k=st.integers(1, 130), n=st.integers(1, 130), transpose_b=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]), strided=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_the_fully_padded_product_bit_for_bit(self, m, k, n, transpose_b, dtype, strided, seed):
        def fully_padded(av, bv):  # the kernel before whole blocks ran on a view of `a`
            bv, layout = ad._blas_operand(bv)
            K, N = bv.shape
            block = ad._BLOCKS_STABLE[(K, N, av.dtype, bv.dtype, layout)]
            if not block:
                return np.einsum("mk,kn->mn", av, bv)
            M = av.shape[0]
            blocks = -(-M // block)
            if M % block or not av.flags.c_contiguous:
                padded = np.zeros((blocks * block, K), dtype=av.dtype)
                padded[:M] = av
                av = padded
            return np.matmul(av.reshape(blocks, block, K), bv).reshape(blocks * block, N)[:M]

        rng = np.random.default_rng(seed)
        a, b = _operands(rng, m, k, n, transpose_b, dtype)
        if strided:
            a = np.concatenate([a, a], axis=1)[:, :k]
        bv = b.T if transpose_b else b
        out = ad._row_stable_product(a, bv)
        expect = fully_padded(a, bv)
        assert out.shape == expect.shape == (m, n) and out.dtype == dtype
        assert out.tobytes() == np.ascontiguousarray(expect).tobytes()

    @pytest.mark.parametrize("transpose_b", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shape_that_fails_its_probe_runs_on_einsum(self, monkeypatch, transpose_b, dtype):
        monkeypatch.setattr(ad, "_BLOCKS_STABLE", {})
        monkeypatch.setattr(ad, "_probe_blocks", lambda *key: False)
        a, b = _operands(np.random.default_rng(11), 130, 37, 29, transpose_b, dtype)
        expect = np.einsum("mk,nk->mn" if transpose_b else "mk,kn->mn", a, b)
        assert np.array_equal(_product(a, b, transpose_b), expect)
        assert list(ad._BLOCKS_STABLE.values()) == [False]

    def test_shape_refused_at_96_rows_runs_on_48_row_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "_BLOCKS_STABLE", {})
        tried = []

        def probe(*key):
            tried.append(key[-1])
            return key[-1] != 96

        monkeypatch.setattr(ad, "_probe_blocks", probe)
        a, b = _operands(np.random.default_rng(13), 130, 7, 5, False, np.float64)
        out = _product(a, b, False)
        assert tried == [96, 48]
        assert list(ad._BLOCKS_STABLE.values()) == [48]
        assert np.allclose(out, a @ b, rtol=1e-12, atol=1e-12)
        for m in (1, 47, 48, 49, 97):
            assert np.array_equal(_product(a[:m], b, False), out[:m]), f"{m} rows"
        assert tried == [96, 48]  # the verdict is kept per shape

    @pytest.mark.parametrize("transpose_b", [False, True])
    def test_gradcheck_through_blocks(self, monkeypatch, transpose_b):
        monkeypatch.setattr(ad, "_BLOCKS_STABLE", {})
        monkeypatch.setattr(ad, "_probe_blocks", lambda *key: True)
        m, k, n = 100, 4, 3  # two blocks, the second one padded
        b_shape = (n, k) if transpose_b else (k, n)

        def f(x):
            a = ad.reshape(ad.narrow(x, 0, 0, m * k), (m, k))
            b = ad.reshape(ad.narrow(x, 0, m * k, k * n), b_shape)
            return ad.sum_all(ad.tanh(ad.matmul(a, b, transpose_b=transpose_b)))

        x = np.random.default_rng(12).normal(size=m * k + k * n)
        assert ad.gradcheck(f, x) < 1e-8


class TestDeterminism:
    def test_forward_and_gradients_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(21)
            x = t(rng.normal(size=(6, 4)))
            w = t(rng.normal(size=(4, 3)))
            h = ad.tanh(ad.matmul(x, w))
            out = ad.softmax(h, axis=-1)
            loss = ad.mean_all(ad.mul(out, out))
            ad.backward(loss)
            return loss.value.copy(), x.grad.copy(), w.grad.copy()

        a, b = run(), run()
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


class TestParameterStore:
    def test_register_twice_rejected(self):
        store = ad.ParameterStore()
        store.register("w", np.zeros(3))
        with pytest.raises(ValueError, match="registered twice"):
            store.register("w", np.zeros(3))

    def test_state_dict_round_trip(self):
        store = ad.ParameterStore()
        store.register("a", np.arange(3.0))
        store.register("b", np.eye(2))
        state = store.state_dict()
        store["a"].value[:] = 0
        store.load_state_dict(state)
        assert np.array_equal(store["a"].value, np.arange(3.0))
