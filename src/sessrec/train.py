"""Mini-batch training: Adam with step learning-rate decay, L2 coupling,
validation-based checkpoint selection and early stopping; and the
configuration-grid experiment harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .batching import collate, pack_example
from .evaluation import evaluate_model
from .model import NextItemModel


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 100
    lr: float = 0.001
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 3
    l2: float = 1e-5
    max_epochs: int = 10
    patience: int = 3
    seed: int = 1

    def __post_init__(self):
        problems = [msg for bad, msg in (
            (self.batch_size < 1, "batch_size must be >= 1"),
            (self.lr <= 0, "lr must be > 0"),
            (not 0 < self.lr_decay_factor <= 1, "lr_decay_factor must be in (0, 1]"),
            (self.lr_decay_every < 1, "lr_decay_every must be >= 1"),
            (self.l2 < 0, "l2 must be >= 0"),
            (self.max_epochs < 1, "max_epochs must be >= 1"),
            (not 1 <= self.patience <= self.max_epochs, "patience must be in [1, max_epochs]"),
        ) if bad]
        if problems:
            raise ValueError("\n".join(problems))


def effective_lr(cfg: TrainConfig, epoch: int) -> float:
    """Step schedule: lr * factor^(epoch // every), epoch counted from 0."""
    return cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


# Elements per scratch block: small next to the item table, and cache-sized.
_ADAM_BLOCK = 1 << 15


def _in_halves(size, n, sweep):
    """sweep(0, n, 0) over the n rows of a parameter of `size` elements; one
    of at least two scratch blocks is swept as sweep(0, n // 2, 0) and
    sweep(n // 2, n, 1) side by side (`autodiff._side_by_side`).  The
    sweeps are elementwise, so the bits do not depend on the split."""
    if size >= 2 * _ADAM_BLOCK and n >= 2:
        ad._side_by_side(lambda: sweep(0, n // 2, 0), lambda: sweep(n // 2, n, 1))
    else:
        sweep(0, n, 0)


class Adam:
    """Standard Adam with bias correction; one moment pair per parameter.

    `step` updates the moments and the parameters in place, a block of rows
    at a time through two scratch buffers per dtype; a parameter of at
    least two blocks is updated in two row halves side by side, each half
    through scratch of its own (`_in_halves`).
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in optimizer")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}
        sizes = {}
        for p in self.params:
            dt = p.value.dtype
            sizes[dt] = max(sizes.get(dt, _ADAM_BLOCK), _row_size(p.value))
        # [half][buffer]: one pair of buffers for each half of a split parameter
        self._scratch = {dt: np.empty((2, 2, n), dtype=dt) for dt, n in sizes.items()}

    def step(self, lr: float):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.value)
            arrays = [np.atleast_1d(x) for x in (p.value, g, self.m[p.name], self.v[p.name])]
            scratch = self._scratch[p.value.dtype]
            rows = scratch.shape[2] // _row_size(p.value)  # >= 1: scratch holds the longest row

            def sweep(lo, hi, half):
                for start in range(lo, hi, rows):
                    value, g_rows, m, v = (x[start:min(start + rows, hi)] for x in arrays)
                    a, b = (buf[:value.size].reshape(value.shape) for buf in scratch[half])
                    # the same operations, in the same order, as
                    #   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
                    #   p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
                    m *= self.beta1
                    np.multiply(g_rows, 1.0 - self.beta1, out=a)
                    m += a
                    v *= self.beta2
                    np.multiply(g_rows, g_rows, out=a)
                    a *= 1.0 - self.beta2
                    v += a
                    np.divide(m, bc1, out=a)
                    a *= lr
                    np.divide(v, bc2, out=b)
                    np.sqrt(b, out=b)
                    b += self.eps
                    a /= b
                    value -= a

            _in_halves(p.value.size, len(arrays[0]), sweep)


def _row_size(arr):
    """Elements per index of the first axis, at least 1 (a 0-d array is one row)."""
    return max(1, arr.size // arr.shape[0]) if arr.ndim and arr.shape[0] else 1


def couple_l2(params, l2: float):
    """Apply the L2 penalty as grad += l2 * param in place, then reject
    non-finite grads; a block of rows at a time, so no temporary is the size
    of a parameter.  The sweep is one memory-bound pass and stays on the
    caller: split in two halves side by side, it was slower on a 5k x 100
    table and no faster on a 41k x 100 one."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.value)
        grad, value = np.atleast_1d(p.grad), np.atleast_1d(p.value)
        rows = max(1, _ADAM_BLOCK // _row_size(value))
        for start in range(0, len(grad), rows):
            g = grad[start:start + rows]
            if l2:
                g += l2 * value[start:start + rows]
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in parameter {p.name!r}")


@dataclass
class EpochStats:
    epoch: int
    lr_effective: float
    train_loss: float
    val_p20: float
    val_mrr20: float
    seconds: float

    def line(self):
        return (f"{self.epoch}\t{self.lr_effective:.6g}\t{self.train_loss:.6f}"
                f"\t{self.val_p20:.4f}\t{self.val_mrr20:.4f}\t{self.seconds:.2f}")


@dataclass
class TrainResult:
    model: NextItemModel
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mrr20: float = float("-inf")


def _epoch_batches(lengths, batch_size, rng):
    """Shuffled batch composition: a seeded permutation, stably grouped by
    prefix length, batch order reshuffled.  A batch of one length has full
    position layers.  Another grouping would train other parameters: each
    step's gradient is its batch's mean, and the dropout draws follow the
    batch's rows."""
    perm = rng.permutation(len(lengths))
    by_len: dict[int, list[int]] = {}
    for i in perm:
        by_len.setdefault(int(lengths[i]), []).append(int(i))
    batches = []
    for length in sorted(by_len):
        group = by_len[length]
        for s in range(0, len(group), batch_size):
            batches.append(group[s: s + batch_size])
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def train_model(examples, num_items, max_len, global_graph, model_cfg, train_cfg: TrainConfig,
                log=None, epoch_callback=None) -> TrainResult:
    """Fit a model on the train split, tracking P@20 / MRR@20 on the
    validation split and keeping the best-MRR@20 parameters.

    `epoch_callback(stats, model)` may return True to stop early.
    """
    train_examples = [e for e in examples if e.split == "train"]
    valid_examples = [e for e in examples if e.split == "validation"]
    if not train_examples:
        raise TrainingError("no training examples")
    if not valid_examples:
        raise TrainingError("validation split is empty")

    model = NextItemModel(num_items, max_len, model_cfg, seed=train_cfg.seed)
    lengths = np.array([len(e.prefix) for e in train_examples])
    optimizer = Adam(model.params.trainable())

    result = TrainResult(model)
    best_state = None
    best_is_current = False  # the parameters are the best so far and no copy holds them
    stale_epochs = 0
    for epoch in range(train_cfg.max_epochs):
        if best_is_current:  # this epoch changes them: keep a copy
            best_state = None  # drop the older copy before taking this one
            best_state = model.state_dict()
        t0 = time.perf_counter()
        lr = effective_lr(train_cfg, epoch)
        rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0xE90C, epoch]))
        loss_sum = 0.0
        for idxs in _epoch_batches(lengths, train_cfg.batch_size, rng):
            batch = collate([pack_example(train_examples[i].prefix, train_examples[i].label,
                                          global_graph, model_cfg.k_hops) for i in idxs])
            loss_sum += _train_step(model, optimizer, batch, rng, lr, train_cfg.l2) * len(idxs)
        train_loss = loss_sum / len(train_examples)

        val = evaluate_model(model, valid_examples, global_graph, train_cfg.batch_size)
        stats = EpochStats(epoch, lr, train_loss, val.p20, val.mrr20, time.perf_counter() - t0)
        result.history.append(stats)
        if log:
            log(stats.line())

        best_is_current = val.mrr20 > result.best_val_mrr20
        if best_is_current:
            result.best_val_mrr20 = val.mrr20
            result.best_epoch = epoch
            stale_epochs = 0
        else:
            stale_epochs += 1

        if epoch_callback and epoch_callback(stats, model):
            break
        if stale_epochs >= train_cfg.patience:
            break

    if best_state is not None and not best_is_current:
        model.load_state_dict(best_state)
    model.params.zero_grads()
    return result


def _train_step(model, optimizer, batch, rng, lr, l2):
    """One Adam step on `batch`; returns the batch's mean loss.  The step's
    tape and logit-sized arrays are released when it returns, not kept
    through the next batch's forward."""
    model.params.zero_grads()
    loss = model.loss(model.forward(batch, train_mode=True, rng=rng).session_vec, batch.labels)
    ad.backward(loss)
    couple_l2(model.params.trainable(), l2)
    optimizer.step(lr)
    return float(loss.value)


def run_ablations(examples, num_items, max_len, global_graph, base_model_cfg, base_train_cfg,
                  grid, fingerprint="", log=None):
    """Train and evaluate one model per grid entry with a shared seed.

    `grid` is a list of (label, model_overrides, train_overrides).  A failing
    entry is recorded and the rest of the grid continues.  Returns a list of
    dicts with either a `report` or an `error` per entry.
    """
    test_examples = [e for e in examples if e.split == "test"]
    rows = []
    for label, model_over, train_over in grid:
        try:
            model_cfg = replace(base_model_cfg, **model_over)
            train_cfg = replace(base_train_cfg, **train_over)
            result = train_model(examples, num_items, max_len, global_graph, model_cfg, train_cfg)
            report = evaluate_model(result.model, test_examples, global_graph,
                                    batch_size=train_cfg.batch_size, label=label,
                                    fingerprint=fingerprint)
            report.extra["val_mrr20"] = result.best_val_mrr20
            rows.append({"label": label, "report": report})
            if log:
                log(f"{label}: P@20={report.p20:.2f} MRR@20={report.mrr20:.2f}")
        except Exception as exc:  # record and continue with the rest of the grid
            rows.append({"label": label, "error": f"{type(exc).__name__}: {exc}"})
            if log:
                log(f"{label}: failed ({exc})")
    return rows
