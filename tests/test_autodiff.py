import numpy as np
import pytest

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
        loss = ad.neg(ad.sum_all(ad.mul(ad.constant(y), ad.log(p))))
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

    def test_weighted_sum_broadcast_values_padding_stable(self):
        # one (B, 1, J, d) value set mixed into N outputs; appending masked
        # entries along J must not change any output bit
        rng = np.random.default_rng(10)
        w, v = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 1, 4, 5))
        base = ad.weighted_sum(t(w), t(v)).value
        assert base.shape == (2, 3, 5)
        padded_w = np.concatenate([w, rng.normal(size=(2, 3, 3))], axis=2)
        padded_v = np.concatenate([v, rng.normal(size=(2, 1, 3, 5))], axis=2)
        valid = np.concatenate([np.ones((2, 3, 4), bool), np.zeros((2, 3, 3), bool)], axis=2)
        padded = ad.weighted_sum(t(padded_w), t(padded_v), valid=valid).value
        assert np.array_equal(padded, base)


def _weighted_sum_loss(w_shape, v_shape, valid=None):
    """Scalar loss of weighted_sum over one flat input holding w then v."""
    nw = int(np.prod(w_shape))

    def f(x):
        w = ad.reshape(ad.narrow(x, 0, 0, nw), w_shape)
        v = ad.reshape(ad.narrow(x, 0, nw, int(np.prod(v_shape))), v_shape)
        return ad.sum_all(ad.tanh(ad.weighted_sum(w, v, valid=valid)))

    return f, nw + int(np.prod(v_shape))


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

    def test_weighted_sum_broadcast_values(self):
        rng = np.random.default_rng(12)
        f, n = _weighted_sum_loss((2, 3, 4), (2, 1, 4, 5))
        assert ad.gradcheck(f, rng.normal(size=n)) < 1e-8

    def test_weighted_sum_with_valid_mask(self):
        rng = np.random.default_rng(13)
        valid = rng.random((2, 3, 4)) > 0.4
        valid[0, 1] = False  # a row with no valid entry
        f, n = _weighted_sum_loss((2, 3, 4), (2, 1, 4, 5), valid=valid)
        assert ad.gradcheck(f, rng.normal(size=n)) < 1e-8

    def test_nonfinite_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                ad.gradcheck(lambda x: ad.sum_all(ad.log(x)), np.array([0.0, 1.0]))


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


class TestSoftmaxLoss:
    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("lead", [0.0, 20.0])
    def test_matches_log_softmax_reference(self, mode, lead):
        z, labels = _softmax_loss_inputs(lead)
        got = ad.softmax_loss(ad.constant(z), labels, mode).value
        assert np.allclose(got, _softmax_loss_reference(z, labels, mode), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["binary", "categorical"])
    @pytest.mark.parametrize("lead", [0.0, 20.0])
    def test_gradcheck(self, mode, lead):
        z, labels = _softmax_loss_inputs(lead)
        w = np.linspace(0.5, 2.0, labels.size)  # distinct upstream gradient per row
        f = lambda x: ad.sum_all(ad.mul(ad.softmax_loss(x, labels, mode), w))
        assert ad.gradcheck(f, z) < 1e-8

    def test_categorical_gradient_is_p_minus_onehot(self):
        z, labels = _softmax_loss_inputs(0.0)
        x = t(z)
        ad.backward(ad.sum_all(ad.softmax_loss(x, labels, "categorical")))
        onehot = np.eye(z.shape[1])[labels]
        assert np.allclose(x.grad, ad.softmax(t(z)).value - onehot, atol=1e-15)

    def test_rejects_unknown_mode_and_bad_shapes(self):
        with pytest.raises(ValueError, match="mode"):
            ad.softmax_loss(t(np.zeros((2, 3))), np.array([0, 1]), "hinge")
        with pytest.raises(ad.ShapeError):
            ad.softmax_loss(t(np.zeros((2, 3))), np.array([0]), "binary")


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

    def test_graph_dump_mentions_ops(self):
        x = t([1.0, 2.0])
        loss = ad.sum_all(ad.tanh(x))
        text = ad.format_graph(loss)
        assert "tanh" in text and "reduce_sum" in text
