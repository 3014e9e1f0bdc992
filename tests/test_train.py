import weakref

import numpy as np
import pytest

from sessrec import autodiff as ad
from sessrec import train
from sessrec.corpus import Example
from sessrec.graphs import build_global_graph, csr
from sessrec.model import ModelConfig, NextItemModel
from sessrec.train import (Adam, TrainConfig, TrainingError, couple_l2,
                           effective_lr, train_model)

from conftest import examples_from_sessions, pattern_sessions


def scalar_param(value):
    store = ad.ParameterStore()
    return store.register("w", np.array([value]))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # with eps ~ 0, the first update is -lr * sign(g)
        p = scalar_param(1.0)
        p.grad = np.array([0.37])
        opt = Adam([p], eps=1e-16)
        opt.step(0.001)
        assert np.isclose(p.value[0], 1.0 - 0.001, atol=1e-9)

    def test_zero_gradient_zero_l2_leaves_parameter(self):
        p = scalar_param(2.5)
        p.grad = np.zeros(1)
        couple_l2([p], l2=0.0)
        Adam([p]).step(0.01)
        assert p.value[0] == 2.5

    def test_l2_coupling_adds_scaled_parameter(self):
        p = scalar_param(2.0)
        p.grad = np.array([0.5])
        couple_l2([p], l2=1e-2)
        assert np.isclose(p.grad[0], 0.5 + 0.02)

    def test_nonfinite_gradient_names_parameter(self):
        p = scalar_param(1.0)
        p.grad = np.array([np.inf])
        with pytest.raises(TrainingError, match="'w'"):
            couple_l2([p], l2=0.0)

    def test_state_parameter_bijection(self):
        store = ad.ParameterStore()
        params = [store.register(f"p{i}", np.zeros(3)) for i in range(4)]
        opt = Adam(params)
        assert set(opt.m) == {p.name for p in params}
        assert set(opt.v) == {p.name for p in params}
        assert all(opt.m[p.name].shape == p.value.shape for p in params)


def reference_adam_step(value, m, v, g, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam's update as the allocating formula it replaced, for comparison."""
    m = m * beta1
    m += (1.0 - beta1) * g
    v = v * beta2
    v += (1.0 - beta2) * (g * g)
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    return value - lr * (m / bc1) / (np.sqrt(v / bc2) + eps), m, v


class TestInPlaceAdam:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_reference_bit_for_bit(self, monkeypatch, dtype):
        # "table" and "vec" span several scratch blocks, with a short last block;
        # "table" and "wide" (two rows longer than a block) have at least two
        # blocks, so Adam sweeps each in two row halves, on the worker thread
        # and the caller or (one CPU) in turn; L2 sweeps every parameter whole
        side_by_side = ad._side_by_side
        for cpus in (1, 2):
            monkeypatch.setattr(ad, "_cpus", lambda: cpus)
            split = []
            monkeypatch.setattr(ad, "_side_by_side", lambda f, g: split.append(1) or side_by_side(f, g))
            rng = np.random.default_rng(4)
            store = ad.ParameterStore()
            params = [store.register(name, rng.normal(size=shape).astype(dtype))
                      for name, shape in (("table", (301, 250)), ("vec", (40000,)), ("wide", (2, 40000)),
                                          ("mat", (2, 2)), ("scalar", ()))]
            ref = {p.name: (p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value)) for p in params}
            values = [p.value for p in params]
            opt = Adam(params)
            for t in range(1, 4):
                for p in params:
                    p.grad = rng.normal(size=p.value.shape).astype(dtype)
                expected_grads = {p.name: p.grad + 1e-2 * p.value for p in params}
                grads = [p.grad for p in params]
                couple_l2(params, 1e-2)
                for p, g in zip(params, grads):
                    assert p.grad is g  # coupled in place
                    assert np.array_equal(p.grad, expected_grads[p.name])
                opt.step(0.01)
                for p in params:
                    value, m, v = reference_adam_step(*ref[p.name], expected_grads[p.name], 0.01, t)
                    ref[p.name] = (value, m, v)
                    assert p.value.dtype == dtype
                    assert np.array_equal(p.value, value)
                    assert np.array_equal(opt.m[p.name], m)
                    assert np.array_equal(opt.v[p.name], v)
            assert all(p.value is arr for p, arr in zip(params, values))  # updated in place
            assert len(split) == 3 * 2  # three steps of Adam, "table" and "wide"

    def test_non_finite_gradient_in_the_workers_half_names_the_parameter(self, monkeypatch):
        monkeypatch.setattr(ad, "_cpus", lambda: 2)
        store = ad.ParameterStore()
        small, table = store.register("small", np.ones(3)), store.register("table", np.ones((301, 250)))
        small.grad, table.grad = np.ones(3), np.ones((301, 250))
        table.grad[0, 5] = np.nan  # row 0: the first half, the worker's when a sweep is split
        with pytest.raises(TrainingError, match="'table'"):
            couple_l2([small, table], 1e-2)


class TestSchedule:
    def test_decay_at_epoch_three(self):
        cfg = TrainConfig(lr=0.001, lr_decay_factor=0.1, lr_decay_every=3)
        assert np.isclose(effective_lr(cfg, 3), 1e-4)

    def test_step_function_shape(self):
        cfg = TrainConfig(lr=0.001, lr_decay_factor=0.1, lr_decay_every=3, max_epochs=10, patience=10)
        lrs = [effective_lr(cfg, e) for e in range(10)]
        assert lrs[:3] == [0.001] * 3
        assert np.allclose(lrs[3:6], 1e-4)
        assert np.allclose(lrs[6:9], 1e-5)
        # non-increasing step function with steps exactly at multiples of 3
        for e in range(1, 10):
            assert lrs[e] <= lrs[e - 1]
            if e % 3:
                assert lrs[e] == lrs[e - 1]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=5, max_epochs=3)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)


def tiny_training_inputs(n_items=12, seed=0):
    sessions = pattern_sessions(n_sessions=40, n_patterns=3, cycle=4, length=4)
    examples = examples_from_sessions(sessions, validation_fraction=0.2, seed=seed)
    graph = build_global_graph(*csr(sessions), epsilon=2, top_n=12, num_items=n_items)
    return examples, n_items, graph


class TestTrainLoop:
    def test_loss_decreases_on_learnable_synthetic_data(self):
        examples, n_items, graph = tiny_training_inputs()
        mcfg = ModelConfig(embedding_dim=16, k_hops=1, dropout_global=0.0)
        tcfg = TrainConfig(batch_size=32, max_epochs=5, patience=5, seed=3, lr_decay_factor=1.0)
        result = train_model(examples, n_items, 4, graph, mcfg, tcfg)
        losses = [h.train_loss for h in result.history]
        assert len(losses) == 5
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_same_seed_identical_loss_sequence(self):
        examples, n_items, graph = tiny_training_inputs()
        mcfg = ModelConfig(embedding_dim=8, k_hops=1, dropout_global=0.3)
        tcfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=9)
        r1 = train_model(examples, n_items, 4, graph, mcfg, tcfg)
        r2 = train_model(examples, n_items, 4, graph, mcfg, tcfg)
        assert [h.train_loss for h in r1.history] == [h.train_loss for h in r2.history]
        for name in r1.model.params.names():
            assert np.array_equal(r1.model.params[name].value, r2.model.params[name].value)

    def test_early_stop_with_constant_validation_metric(self):
        # a single-item vocabulary pins every validation metric at 100
        sessions = [[1, 1, 1] for _ in range(6)]
        examples = examples_from_sessions(sessions, validation_fraction=0.3, seed=1)
        mcfg = ModelConfig(embedding_dim=4, k_hops=0, dropout_global=0.0)
        tcfg = TrainConfig(batch_size=4, max_epochs=10, patience=1, seed=2)
        result = train_model(examples, 1, 3, None, mcfg, tcfg)
        assert len(result.history) == 2  # epoch 0 improves from -inf, epoch 1 stops
        assert result.best_epoch == 0

    def test_best_checkpoint_restored(self):
        examples, n_items, graph = tiny_training_inputs()
        mcfg = ModelConfig(embedding_dim=8, k_hops=0, dropout_global=0.0)
        tcfg = TrainConfig(batch_size=32, max_epochs=4, patience=4, seed=5)
        snapshots = []
        def cb(stats, model):
            snapshots.append(model.state_dict())
            return False
        result = train_model(examples, n_items, 4, graph, mcfg, tcfg, epoch_callback=cb)
        best = snapshots[result.best_epoch]
        for name, arr in best.items():
            assert np.array_equal(result.model.params[name].value, arr)

    def test_returned_model_holds_no_gradients(self):
        examples, n_items, graph = tiny_training_inputs()
        tcfg = TrainConfig(batch_size=32, max_epochs=2, patience=2, seed=5)
        result = train_model(examples, n_items, 4, graph, ModelConfig(embedding_dim=8, k_hops=1), tcfg)
        assert [p.name for p in result.model.params if p.grad is not None] == []

    def test_single_epoch_run_copies_no_parameters(self, monkeypatch):
        # the best parameters are copied only when a later epoch would change them
        calls = []

        def counting(name):
            original = getattr(NextItemModel, name)

            def method(self, *args):
                calls.append(name)
                return original(self, *args)

            return method

        for name in ("state_dict", "load_state_dict"):
            monkeypatch.setattr(NextItemModel, name, counting(name))
        examples, n_items, graph = tiny_training_inputs()
        tcfg = TrainConfig(batch_size=32, max_epochs=1, patience=1, seed=5)
        result = train_model(examples, n_items, 4, graph, ModelConfig(embedding_dim=8, k_hops=1), tcfg)
        assert result.best_epoch == 0
        assert calls == []

    def test_empty_validation_is_error(self):
        sessions = pattern_sessions(n_sessions=10, n_patterns=2, cycle=3, length=3)
        examples = examples_from_sessions(sessions, validation_fraction=0.0)
        with pytest.raises(TrainingError, match="validation"):
            train_model(examples, 6, 3, None, ModelConfig(k_hops=0, embedding_dim=4),
                        TrainConfig(max_epochs=1, patience=1))

    def test_epoch_log_lines(self):
        examples, n_items, graph = tiny_training_inputs()
        lines = []
        mcfg = ModelConfig(embedding_dim=8, k_hops=0, dropout_global=0.0)
        tcfg = TrainConfig(batch_size=32, max_epochs=2, patience=2, seed=5)
        train_model(examples, n_items, 4, graph, mcfg, tcfg, log=lines.append)
        assert len(lines) == 2
        # epoch, lr, loss, P@20, MRR@20, seconds
        assert all(len(line.split("\t")) == 6 for line in lines)

    def test_at_most_one_batch_of_train_packs_is_alive(self, monkeypatch):
        examples, n_items, graph = tiny_training_inputs()
        tcfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=5)
        assert sum(e.split == "train" for e in examples) > 2 * tcfg.batch_size
        live, made, collated = [0], [0], []
        pack_example, collate = train.pack_example, train.collate

        def counting_pack(*args):
            pack = pack_example(*args)
            live[0] += 1
            made[0] += 1
            weakref.finalize(pack, lambda: live.__setitem__(0, live[0] - 1))
            return pack

        def checking_collate(packs):
            collated.append(live[0])
            return collate(packs)

        monkeypatch.setattr(train, "pack_example", counting_pack)
        monkeypatch.setattr(train, "collate", checking_collate)
        train_model(examples, n_items, 4, graph, ModelConfig(embedding_dim=8, k_hops=1), tcfg)
        assert made[0] > tcfg.batch_size and collated
        assert max(collated) <= tcfg.batch_size
