"""Reverse-mode automatic differentiation on dense numpy arrays.

A tape is built implicitly: every operation returns a `Tensor` holding the
computed value, references to its parent tensors, and a closure that maps the
output gradient to parent gradients.  `backward()` walks the graph once in
reverse topological order and accumulates gradients additively, so fan-out
works without any bookkeeping by the caller; only leaves keep a `grad`.

Two numerical ground rules shape the op set:

* Reductions along axes that may be padded (node or position axes of a
  batch) must produce bit-identical results whether or not trailing padded
  entries are present.  numpy's pairwise summation does not guarantee this,
  so `masked_softmax`, `weighted_sum` and `masked_sum` accumulate those
  axes sequentially (adding an exact +0.0 is the identity).
* BLAS matmul kernels change the order of partial sums depending on the row
  count, which also breaks that guarantee.  `matmul` therefore defaults to a
  row-stable einsum path; callers whose row count never varies (e.g. scoring
  against the full item table) can opt back into BLAS for speed.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that skips tape construction (evaluation paths)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """A value node on the tape: dense array, gradient slot, parents."""

    __slots__ = ("value", "grad", "parents", "op", "_backward", "requires_grad")

    def __init__(self, value, parents=(), backward=None, op="leaf", requires_grad=None):
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self.parents)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def dtype(self):
        return self.value.dtype

    @property
    def size(self):
        return self.value.size

    def item(self):
        return float(self.value)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape}, grad={'set' if self.grad is not None else 'none'})"


class Parameter(Tensor):
    """A named trainable leaf tensor."""

    __slots__ = ("name", "trainable")

    def __init__(self, name, value, trainable=True):
        super().__init__(np.asarray(value), requires_grad=True, op="param")
        self.name = name
        self.trainable = trainable


class ParameterStore:
    """Registry of model parameters; each name registered exactly once."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name, value, trainable=True) -> Parameter:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice")
        p = Parameter(name, value, trainable)
        self._params[name] = p
        return p

    def __getitem__(self, name) -> Parameter:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params.keys())

    def trainable(self):
        return [p for p in self._params.values() if p.trainable]

    def zero_grads(self):
        for p in self._params.values():
            p.grad = None

    def state_dict(self):
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state):
        for name, arr in state.items():
            p = self._params[name]
            if p.value.shape != np.asarray(arr).shape:
                raise ShapeError(
                    f"load_state_dict: {name} has shape {p.value.shape}, state has {np.asarray(arr).shape}"
                )
            p.value = np.array(arr, dtype=p.value.dtype)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.value.dtype if isinstance(like, Tensor) else np.float64
    return Tensor(np.asarray(x, dtype=dtype), requires_grad=False, op="const")


def _pair(a, b):
    """Wrap scalars/arrays with the dtype of the Tensor operand."""
    if isinstance(a, Tensor):
        return a, _as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return _as_tensor(a, like=b), b
    return _as_tensor(a), _as_tensor(b)


def constant(x, dtype=None):
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype)
    return Tensor(arr, requires_grad=False, op="const")


def _make(value, parents, backward, op):
    if not _GRAD_ENABLED or not any(p.requires_grad for p in parents):
        return Tensor(value, op=op, requires_grad=False)
    return Tensor(value, parents=parents, backward=backward, op=op, requires_grad=True)


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after a broadcasting forward op."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- arithmetic -------------------------------------------------------------


def add(a, b):
    a, b = _pair(a, b)
    _check_broadcast("add", a, b)
    out = a.value + b.value

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), backward, "add")


def sub(a, b):
    a, b = _pair(a, b)
    _check_broadcast("sub", a, b)
    out = a.value - b.value

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), backward, "sub")


def mul(a, b):
    a, b = _pair(a, b)
    _check_broadcast("mul", a, b)
    out = a.value * b.value

    def backward(g):
        return _unbroadcast(g * b.value, a.shape), _unbroadcast(g * a.value, b.shape)

    return _make(out, (a, b), backward, "mul")


def neg(a):
    a = _as_tensor(a)

    def backward(g):
        return (-g,)

    return _make(-a.value, (a,), backward, "neg")


def matmul(a, b, transpose_b=False, row_stable=True):
    """2-D matrix product a @ b (or a @ b.T).

    `row_stable=True` routes through einsum so each output row is computed
    identically regardless of how many rows `a` has; required whenever the
    row count depends on batch padding.  BLAS (`row_stable=False`) is faster
    and fine when the row count is invariant.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    inner_a = a.shape[1]
    inner_b = b.shape[1] if transpose_b else b.shape[0]
    if inner_a != inner_b:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape} (transpose_b={transpose_b})")
    if row_stable:
        subscripts = "mk,nk->mn" if transpose_b else "mk,kn->mn"
        out = np.einsum(subscripts, a.value, b.value)
    else:
        out = a.value @ (b.value.T if transpose_b else b.value)

    def backward(g):
        if transpose_b:
            ga = g @ b.value
            gb = g.T @ a.value
        else:
            ga = g @ b.value.T
            gb = a.value.T @ g
        return ga, gb

    return _make(out, (a, b), backward, "matmul")


# -- structure --------------------------------------------------------------


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    base = list(tensors[0].shape)
    ax = axis % len(base)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(o != b for i, (o, b) in enumerate(zip(other, base)) if i != ax):
            raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}")
    out = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.shape[ax] for t in tensors]

    def backward(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=ax)
        return tuple(pieces)

    return _make(out, tuple(tensors), backward, "concat")


def reshape(a, shape):
    a = _as_tensor(a)
    out = a.value.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), backward, "reshape")


def narrow(a, axis, start, length):
    """Slice `length` entries starting at `start` along `axis`."""
    a = _as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.value[idx]

    def backward(g):
        full = np.zeros_like(a.value)
        full[idx] = g
        return (full,)

    return _make(out, (a,), backward, "narrow")


def gather(table, idx):
    """Row lookup: table (R, d), idx int array of any shape -> idx.shape + (d,)."""
    table = _as_tensor(table)
    idx = np.asarray(idx)
    if table.ndim != 2:
        raise ShapeError(f"gather: table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"gather: index out of range for table with {table.shape[0]} rows")
    out = table.value[idx]

    def backward(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, idx.ravel(), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _make(out, (table,), backward, "gather")


def batched_gather(x, idx):
    """Per-batch row lookup: x (B, R, d), idx (B, ...) -> (B, ..., d)."""
    x = _as_tensor(x)
    idx = np.asarray(idx)
    if x.ndim != 3 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"batched_gather: x {x.shape} vs idx {idx.shape}")
    B, R, d = x.shape
    flat_idx = idx.reshape(B, -1)
    if flat_idx.size and (flat_idx.min() < 0 or flat_idx.max() >= R):
        raise IndexError(f"batched_gather: index out of range for {R} rows")
    b_idx = np.repeat(np.arange(B), flat_idx.shape[1])
    out = x.value[b_idx, flat_idx.ravel()].reshape(idx.shape + (d,))

    def backward(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, (b_idx, flat_idx.ravel()), g.reshape(-1, d))
        return (gx,)

    return _make(out, (x,), backward, "batched_gather")


# -- reductions -------------------------------------------------------------


def reduce_sum(a, axis=None, keepdims=False):
    """Plain numpy sum.  Only safe on axes whose width never varies with
    padding (pairwise summation is not padding-stable)."""
    a = _as_tensor(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape).copy(),)

    return _make(out, (a,), backward, "reduce_sum")


def sum_all(a):
    return reduce_sum(a, axis=None)


def mean_all(a):
    a = _as_tensor(a)
    return mul(sum_all(a), 1.0 / a.size)


def weighted_sum(w, v, valid=None):
    """sum_j w[..., j] * v[..., j, :]  with sequential accumulation over j.

    The leading axes of `v` broadcast against those of `w`: weights (B, N, J)
    with values (B, 1, J, d) mix one shared set of J rows into each of the N
    outputs.  Padding-stable: entries where `valid` (shaped like `w`) is
    false contribute an exact +0.0, and trailing padded entries never change
    the partial-sum order of the valid prefix.
    """
    w, v = _as_tensor(w), _as_tensor(v)
    try:
        lead_ok = np.broadcast_shapes(w.shape, v.shape[:-1]) == w.shape
    except ValueError:
        lead_ok = False
    if not lead_ok or v.shape[-2:-1] != w.shape[-1:]:
        raise ShapeError(f"weighted_sum: weights {w.shape} vs values {v.shape}")
    J = w.shape[-1]
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
    wv, vv = w.value, v.value
    acc = None
    for j in range(J):
        term = wv[..., j : j + 1] * vv[..., j, :]
        if valid is not None:
            term = np.where(valid[..., j : j + 1], term, 0.0)
        acc = term if acc is None else acc + term
    out = acc if acc is not None else np.zeros(w.shape[:-1] + v.shape[-1:], dtype=vv.dtype)

    def backward(g):
        gw = np.einsum("...d,...jd->...j", g, vv)
        gv = wv[..., None] * g[..., None, :]
        if valid is not None:
            gw = np.where(valid, gw, 0.0)
            gv = np.where(valid[..., None], gv, 0.0)
        return gw, _unbroadcast(gv, v.shape)

    return _make(out, (w, v), backward, "weighted_sum")


def masked_sum(a, mask, axis):
    """Sum along `axis` keeping only `mask` entries; sequential, padding-stable."""
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    ax = axis % a.ndim
    J = a.shape[ax]
    av = a.value
    acc = None
    for j in range(J):
        term = np.take(av, j, axis=ax)
        m = np.take(mask, j, axis=ax)
        term = np.where(_expand_to(m, term.shape), term, 0.0)
        acc = term if acc is None else acc + term
    out = acc

    def backward(g):
        g2 = np.expand_dims(g, ax)
        full = np.broadcast_to(g2, a.shape)
        return (np.where(_expand_to(mask, a.shape), full, 0.0),)

    return _make(out, (a,), backward, "masked_sum")


def _expand_to(mask, shape):
    """Right-pad mask with singleton axes until it broadcasts to `shape`."""
    m = mask
    while m.ndim < len(shape):
        m = m[..., None]
    return np.broadcast_to(m, shape)


# -- nonlinearities ----------------------------------------------------------


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    out = np.where(a.value >= 0, a.value, slope * a.value)

    def backward(g):
        return (np.where(a.value >= 0, g, slope * g),)

    return _make(out, (a,), backward, "leaky_relu")


def relu(a):
    a = _as_tensor(a)
    out = np.maximum(a.value, 0.0)

    def backward(g):
        return (np.where(a.value > 0, g, 0.0),)

    return _make(out, (a,), backward, "relu")


def tanh(a):
    a = _as_tensor(a)
    out = np.tanh(a.value)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), backward, "tanh")


def sigmoid(a):
    a = _as_tensor(a)
    v = a.value
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward, "sigmoid")


# No model code calls `log` or `clamp` since the loss moved into
# `softmax_loss`; perfbench/tracing.py reports per-op metrics for both by name,
# so they stay until that op list changes.
def log(a):
    a = _as_tensor(a)
    out = np.log(a.value)

    def backward(g):
        return (g / a.value,)

    return _make(out, (a,), backward, "log")


def clamp(a, lo, hi):
    a = _as_tensor(a)
    out = np.clip(a.value, lo, hi)

    def backward(g):
        inside = (a.value >= lo) & (a.value <= hi)
        return (np.where(inside, g, 0.0),)

    return _make(out, (a,), backward, "clamp")


def maximum(a, b):
    """Elementwise max; gradient goes to the left operand on ties."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("maximum", a, b)
    take_a = a.value >= b.value
    out = np.where(take_a, a.value, b.value)

    def backward(g):
        ga = _unbroadcast(np.where(take_a, g, 0.0), a.shape)
        gb = _unbroadcast(np.where(take_a, 0.0, g), b.shape)
        return ga, gb

    return _make(out, (a, b), backward, "maximum")


def dropout(a, rate, train_mode, rng=None):
    """Inverted dropout: scales survivors by 1/(1-rate) at train time,
    exact identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    a = _as_tensor(a)
    if not train_mode or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = rng.random(a.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = np.where(keep, a.value * scale, 0.0)

    def backward(g):
        return (np.where(keep, g * scale, 0.0),)

    return _make(out, (a,), backward, "dropout")


# -- softmax ----------------------------------------------------------------


def softmax(a, axis=-1):
    """Softmax along a fixed-width axis (uses numpy reductions)."""
    a = _as_tensor(a)
    mx = a.value.max(axis=axis, keepdims=True)
    e = np.exp(a.value - mx)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward, "softmax")


def softmax_loss(logits, labels, mode):
    """Per-example loss (B,) of softmax(logits) against the columns `labels` (B,).

    `categorical` is -log p_y = logsumexp(z) - z_y, with gradient p - onehot.
    `binary` is -[log p_y + sum_{j != y} log(1 - p_j)]: the label's own miss
    term is never formed, and log(1 - p_j) is log1p(-p_j) except at the row's
    top logit j*, where it is log(sum_{k != j*} e^(z_k - z_j*)) - log S with
    that excluded sum formed directly.  The gradient is a - p sum(a), with
    a_j = p_j / (1 - p_j) for a miss and a_y = -1; the j* terms also come from
    the excluded sum, so a saturated softmax (1 - p_j* rounding to 0) keeps a
    finite loss and gradient.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ShapeError(f"softmax_loss: logits {logits.shape} vs labels {labels.shape}")
    if mode not in ("binary", "categorical"):
        raise ValueError(f"softmax_loss: unknown mode {mode!r}")
    z = logits.value
    rows = np.arange(z.shape[0])
    top = z.argmax(axis=1)
    mx = z[rows, top]
    p = z - mx[:, None]
    np.exp(p, out=p)
    p[rows, top] = 0.0
    excl = p.sum(axis=1)                          # sum_{k != j*} e^(z_k - z_j*)
    s = 1.0 + excl
    p /= s[:, None]
    log_s = np.log1p(excl)
    off = top != labels                           # rows whose top logit is a miss
    out = log_s - (z[rows, labels] - mx)          # -log p_y
    if mode == "binary":
        miss = np.negative(p)
        np.log1p(miss, out=miss)                  # log(1 - p_j); 0 at j* for now
        miss[rows[off], top[off]] = np.log(excl[off]) - log_s[off]
        miss[rows, labels] = 0.0
        out = out - miss.sum(axis=1)
    p[rows, top] = 1.0 / s

    def backward(g):
        if mode == "categorical":
            grad = p * g[:, None]
            grad[rows, labels] -= g
            return (grad,)
        a = 1.0 - p
        a[rows, top] = 1.0
        np.divide(p, a, out=a)                    # p_j / (1 - p_j), j != j*
        a[rows[off], top[off]] = 1.0 / excl[off]  # p_j* / (1 - p_j*) = 1 / excluded sum
        a[rows, labels] = -1.0
        a_top = a[rows, top].copy()
        a[rows, top] = 0.0
        rest = a.sum(axis=1)                      # sum of a over j != j*
        grad = p * (a_top + rest)[:, None]
        np.subtract(a, grad, out=grad)
        # column j*: a_j* (1 - p_j*) is 1/S for a miss and -excl/S for the
        # label; forming a_j* - p_j* sum(a) instead would cancel
        grad[rows, top] = np.where(off, 1.0, -excl) / s - p[rows, top] * rest
        grad *= g[:, None]
        return (grad,)

    return _make(out, (logits,), backward, "softmax_loss")


def masked_softmax(a, mask, axis=-1):
    """Softmax over `mask`-selected entries; masked entries get exact 0.

    Rows with no valid entry produce an all-zero row.  The denominator is
    accumulated sequentially so trailing padded entries cannot perturb it.
    """
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise ShapeError(f"masked_softmax: mask {mask.shape} vs scores {a.shape}")
    ax = axis % a.ndim
    neg_inf = np.array(-np.inf, dtype=a.value.dtype)
    masked_vals = np.where(mask, a.value, neg_inf)
    mx = masked_vals.max(axis=ax, keepdims=True)
    safe_mx = np.where(np.isfinite(mx), mx, 0.0)
    z = np.where(mask, a.value - safe_mx, neg_inf)
    e = np.exp(z)  # exact 0 at masked entries
    J = a.shape[ax]
    den = None
    for j in range(J):
        term = np.take(e, j, axis=ax)
        den = term if den is None else den + term
    den = np.expand_dims(den, ax)
    out = e / np.where(den > 0, den, 1.0)

    def backward(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward, "masked_softmax")


# -- backward pass ----------------------------------------------------------


def backward(root, seed=None):
    """Populate the gradients of every leaf tensor reachable from a scalar
    `root`.

    Each call propagates a fresh pass and adds its result into every
    reachable leaf's `grad`, so calling twice without resetting doubles
    the gradients (fan-out within one pass accumulates as well).
    Intermediate tensors pass their gradients on without storing them.
    """
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    order = _toposort(root)
    if seed is None:
        seed = np.ones_like(root.value)
    flow = {id(root): np.asarray(seed, dtype=root.value.dtype)}
    for node in order:
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.accumulate_grad(g)
            continue
        for parent, pg in zip(node.parents, node._backward(g)):
            if parent.requires_grad and pg is not None:
                key = id(parent)
                if key in flow:
                    flow[key] = flow[key] + pg
                else:
                    flow[key] = pg


def _toposort(root):
    """Iterative DFS post-order, reversed; avoids recursion limits."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return list(reversed(order))


def format_graph(root, max_nodes=200):
    """Text dump of the op graph below `root` (debugging aid)."""
    lines = []
    for i, node in enumerate(reversed(_toposort(root))):
        if i >= max_nodes:
            lines.append(f"... ({max_nodes} node limit)")
            break
        parents = ", ".join(p.op for p in node.parents)
        lines.append(f"{node.op:<16} shape={node.value.shape} <- [{parents}]")
    return "\n".join(lines)


# -- gradient checking -------------------------------------------------------


def gradcheck(f, x, step=1e-5):
    """Max relative error between the analytic gradient of scalar f(x) and a
    central finite difference, per coordinate of x (see `gradcheck_params`).
    """
    xt = Tensor(np.array(x, dtype=np.float64), requires_grad=True, op="gradcheck_input")
    return gradcheck_params(lambda: f(xt), [xt], step=step)


def gradcheck_params(build_loss, params, step=1e-5):
    """Gradcheck every coordinate of every tensor in `params` against the
    scalar produced by `build_loss()` (which must read the live values).

    Returns the max relative error over all coordinates, where the relative
    error is |a - n| / max(1, |a| + |n|).
    """
    loss = build_loss()
    if loss.size != 1:
        raise ValueError("gradcheck_params: build_loss must return a scalar")
    for p in params:
        p.zero_grad()
    backward(loss)
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.value)
        if not np.all(np.isfinite(analytic)):
            raise FloatingPointError(f"gradcheck_params: non-finite gradient in {getattr(p, 'name', p.op)}")
        flat = p.value.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            with no_grad():
                hi = float(build_loss().value)
            flat[i] = orig - step
            with no_grad():
                lo = float(build_loss().value)
            flat[i] = orig
            num = (hi - lo) / (2.0 * step)
            if not np.isfinite(num):
                raise FloatingPointError("gradcheck_params: non-finite finite-difference value")
            rel = abs(aflat[i] - num) / max(1.0, abs(aflat[i]) + abs(num))
            worst = max(worst, rel)
    return worst
