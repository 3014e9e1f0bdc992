"""Reverse-mode automatic differentiation on dense numpy arrays.

A tape is built implicitly: every operation returns a `Tensor` holding the
computed value, references to its parent tensors, and a closure that maps the
output gradient to parent gradients.  `backward()` walks the graph once in
reverse topological order and accumulates gradients additively, so fan-out
works without any bookkeeping by the caller; only leaves keep a `grad`.
`narrow`, `score_loss` and the row lookups (`gather`, `neighbor_scores`'
`z` and `neighbor_mix`'s `h`) applied to a leaf write their gradient
straight into the leaf's `grad`, allocated once, instead of passing a
leaf-sized array on.

The scoring head and its loss are one op, `score_loss`: one BLAS product of
the session vectors with the item table, which one pass over cache-sized
blocks of rows turns in place into the loss and, when a gradient will be
taken, into the gradient of the logits.  That (B, m) array is all the tape
keeps, and the backward is two BLAS products with it.
Every scatter-add of a backward pass goes through a `RowIndex`: a pass
plan of the index, built on its first backward and shared by the ops given
the same `RowIndex` (both neighbour ops of a hop, and the session layer's
gather and `neighbor_mix` over its edge table).  It sums each row's terms
in float64 in the order they occur, which equals `np.add.at` in float64
bit for bit, and a gradient new to its array is written once, not added.
The global layer's neighbour attention is two ops on its real rows (2-D,
no batch axis), `neighbor_scores` and `neighbor_mix`, whose forwards give
the same bits as the generic chains they replace.  `neighbor_scores` runs
its forward a cache-sized block of rows at a time, and when a gradient
will be taken the tape keeps one (R, W, d + 1) bool array, the LeakyReLU
mask, where the chains kept five float arrays and an (R, W, d) copy; its
backward forms all three gradients from one scatter of the upstream
gradient times the mask's factor, so no (R, W, d + 1) float array exists
in either pass.  The session layer scores its neighbours from one gathered
(T_0, W_s, d) copy over its edge table and sums them with `neighbor_mix`
too.  `weighted_sum` sums a batch's position rows per example.

Three ground rules shape the op set:

* A batch's rows are real rows, with one padded axis left: the W slots of
  the neighbour and edge tables, as wide as the batch's largest degree.  A
  reduction along it must give the bits it gives without the trailing
  masked slots, and a sum over an example's position rows the bits it gives
  for the example alone.  numpy's pairwise summation guarantees neither, so
  those sums add strictly in order, masked slots adding zeros:
  `masked_softmax` keeps the last entry of a running sum
  (`np.add.accumulate`); `neighbor_mix` adds its W slots in order, one block
  of rows at a time; `weighted_sum` starts each example from its first
  position row and adds its later rows one position layer at a time.  A
  mean over positions is a `weighted_sum` with unit weights.
* BLAS matmul kernels change the order of partial sums depending on the row
  count (OpenBLAS tiles rows, and edge tiles and one-row products take other
  kernels), which also breaks that guarantee.  `matmul` therefore defaults to
  a row-stable path: every BLAS call multiplies one block of `a`'s rows of a
  fixed height, so the call's shape never depends on the row count.  The
  whole blocks run on a view of `a`, writing straight into the output, and
  only the last, partial block is copied and zero-padded to full height.  A
  block of identical rows must also give identical output rows, which fails
  where a block is not a multiple of the kernel's row tile or, with several
  BLAS threads, where the threads' row ranges treat the last columns
  differently; a probe picks, once per (K, N, dtypes, layout of `b`), the
  first height of `_ROW_BLOCKS` that passes, and a shape that passes none
  runs on einsum instead.  The scoring head opts out
  (`row_stable=False`, and `score_loss` likewise): its logits can differ in
  the last bits between batch sizes, but blocking its (B, d) x (d, m)
  product takes twice as long as plain BLAS at B=100.
* Work is split between threads by shape only, so bits never depend on the
  number of CPUs.  Above a fixed size, the work over the item table runs
  as two halves side by side (`_side_by_side`): the scoring product
  (`_plain_product`) in two column halves, `score_loss`'s row pass in two
  halves of its row blocks and its backward's two products, and the
  optimizer's sweeps (`train.Adam`, `train.couple_l2`) in two row halves.
  Each half writes its own part of the output with the arithmetic the
  whole would use, and where the process may use one CPU only the same
  halves run in turn, so the bits are those of the unsplit work.  BLAS
  threading is left as it is, and BLAS products are split only where the
  environment pins OpenBLAS to one thread (`_ONE_BLAS_THREAD`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

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

    def grad_buffer(self):
        """The gradient array, zero-filled on first use, to add into in place."""
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self.grad

    def accumulate_grad(self, g):
        grad = self.grad_buffer()
        grad += g

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape}, grad={'set' if self.grad is not None else 'none'})"


class Parameter(Tensor):
    """A named trainable leaf tensor."""

    __slots__ = ("name",)

    def __init__(self, name, value):
        super().__init__(np.asarray(value), requires_grad=True, op="param")
        self.name = name


class ParameterStore:
    """Registry of model parameters; each name registered exactly once."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name, value) -> Parameter:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice")
        p = Parameter(name, value)
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
        """Every parameter (all of them train)."""
        return list(self._params.values())

    def zero_grads(self):
        for p in self._params.values():
            p.grad = None

    def state_dict(self):
        return {name: p.value.copy() for name, p in self._params.items()}

    def match_names(self, names):
        """Raise `ValueError` unless `names` are exactly the registered names."""
        missing = sorted(set(self._params) - set(names))
        unknown = sorted(set(names) - set(self._params))
        if missing or unknown:
            raise ValueError(f"parameters do not match the model (missing: {', '.join(missing) or 'none'}; "
                             f"unknown: {', '.join(unknown) or 'none'})")

    def load_state_dict(self, state):
        """Replace every parameter's value; `state` must hold exactly the
        registered names."""
        self.match_names(state)
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


# -- two threads ---------------------------------------------------------------

# Multiply-adds below which a product, and `score_loss`'s row pass and
# backward with it, stays whole on the caller: a gradient check's d=8 ops
# never wait on a thread.
_SPLIT_WORK = 1 << 20
_WORKER = None  # the one worker thread's executor, made on first use


def _one_blas_thread():
    """Whether the environment pins OpenBLAS to one thread.  OpenBLAS takes
    its thread count, when it loads, from the first of these variables that
    is set, and every CPU when none is."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value:
            return value == "1"
    return False


# BLAS products are split and run side by side only on a one-thread BLAS:
# two threaded BLAS calls at once contend for the same cores (the scoring
# backward's pair took 68-86 ms against 36 ms in turn with two OpenBLAS
# threads), and a threaded BLAS may round a product's halves unlike the whole.
_ONE_BLAS_THREAD = _one_blas_thread()


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _side_by_side(first, second):
    """(first(), second()): `first` on the worker thread while the caller
    runs `second` when the process may use two or more CPUs, both in turn on
    the caller otherwise.  The two must write disjoint arrays.  The worker
    is always waited for, also when `second` raises, so it never writes
    into arrays its caller has given up; then `second`'s exception, or else
    `first`'s, is raised."""
    global _WORKER
    if _cpus() < 2:
        return first(), second()
    if _WORKER is None:
        _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sessrec-worker")
    future = _WORKER.submit(first)
    try:
        done = second()
    finally:
        wait((future,))
    return future.result(), done


def _forget_worker():
    global _WORKER
    _WORKER = None


# a forked child has no worker thread, only the executor that had one
os.register_at_fork(after_in_child=_forget_worker)


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
    if a.shape == b.shape or not a.ndim or not b.ndim:
        return
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

    def backward(g):  # None for an operand that needs no gradient, e.g. a constant
        ga = _unbroadcast(g * b.value, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.value, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), backward, "mul")


# Block heights tried in turn, each a multiple of the 12 rows OpenBLAS's dgemm
# tiles by; with several threads a smaller block can pass where a larger one
# is split between threads that round its last columns differently.
_ROW_BLOCKS = (96, 48, 24)
_PROBE_ROWS = 8  # two summation orders can round alike by chance, so probe several rows
_BLOCKS_STABLE = {}  # (K, N, a dtype, b dtype, layout of b) -> block rows, 0 for einsum


def _blas_operand(b):
    """`b` (K, N) and the layout numpy's matmul hands BLAS: 'N' (row-major) or
    'T' (column-major).  Other strides are copied to row-major first, since
    numpy would copy them in an order of its own."""
    item = b.itemsize
    if b.strides[1] == item and b.strides[0] >= b.shape[1] * item:
        return b, "N"
    if b.strides[0] == item and b.strides[1] >= b.shape[0] * item:
        return b, "T"
    return np.ascontiguousarray(b), "N"


def _probe_blocks(K, N, a_dtype, b_dtype, layout, block):
    """True when blocks of (block, K), each one random row repeated, times a
    random (K, N) `b` of this layout give identical rows within each block."""
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((_PROBE_ROWS, 1, K)).astype(a_dtype)
    b = rng.standard_normal((K, N) if layout == "N" else (N, K)).astype(b_dtype)
    out = np.matmul(np.repeat(rows, block, axis=1), b if layout == "N" else b.T)
    return bool((out == out[:, :1]).all())


def _row_stable_product(av, bv):
    """av @ bv whose every row has the same bits whatever the row count of
    `av` (see the module docstring)."""
    bv, layout = _blas_operand(bv)
    K, N = bv.shape
    key = (K, N, av.dtype, bv.dtype, layout)
    block = _BLOCKS_STABLE.get(key)
    if block is None:
        block = _BLOCKS_STABLE[key] = next((r for r in _ROW_BLOCKS if _probe_blocks(*key, r)), 0)
    if not block:
        return np.einsum("mk,kn->mn", av, bv)
    M = av.shape[0]
    whole = M - M % block
    out = np.empty((M, N), dtype=np.result_type(av, bv))
    if whole:
        np.matmul(np.ascontiguousarray(av[:whole]).reshape(-1, block, K), bv,
                  out=out[:whole].reshape(-1, block, N))
    if whole < M:  # the last, partial block, zero-padded to full height
        last = np.zeros((block, K), dtype=av.dtype)
        last[:M - whole] = av[whole:]
        out[whole:] = np.matmul(last, bv)[:M - whole]
    return out


# A plain product is split at a multiple of this many columns, and only when
# each half has at least `_SPLIT_MIN_COLUMNS`.  With one OpenBLAS 0.3.31
# thread (x86-64), such halves gave the whole product's bits at every shape
# tried: rows 1-100, inner sizes 1-128 and 2,048 to 40,835 columns, in both
# dtypes.  Narrower halves did not always: split at 128, the last 4 of 300
# columns (100 x 100 x 300) came out different, and so did a 2 x 100 x 1,000
# product split at 448.
_SPLIT_COLUMNS = 64
_SPLIT_MIN_COLUMNS = 1024


def _plain_product(av, bv):
    """av @ bv on plain BLAS: the scoring head's product, shared by
    `score_loss` and `predict` (`matmul(row_stable=False)`) so that both see
    the same logits.  From `_SPLIT_WORK` multiply-adds on, on a one-thread
    BLAS, it runs as two products over column halves of `bv` (see
    `_SPLIT_COLUMNS`), side by side, which give the whole product's bits."""
    M, (K, N) = av.shape[0], bv.shape
    cut = N // 2 // _SPLIT_COLUMNS * _SPLIT_COLUMNS
    if not _ONE_BLAS_THREAD or cut < _SPLIT_MIN_COLUMNS or M * K * N < _SPLIT_WORK:
        return av @ bv
    out = np.empty((M, N), dtype=np.result_type(av, bv))
    _side_by_side(lambda: np.matmul(av, bv[:, :cut], out=out[:, :cut]),
                  lambda: np.matmul(av, bv[:, cut:], out=out[:, cut:]))
    return out


def matmul(a, b, transpose_b=False, row_stable=True):
    """2-D matrix product a @ b (or a @ b.T).

    `row_stable=True` computes each output row identically whatever the row
    count of `a`, so an example's rows do not depend on its batch:
    fixed-shape BLAS blocks where the shape passed its probe, einsum where
    it did not.  Plain BLAS
    (`row_stable=False`, `_plain_product`) is for products whose rows may
    differ in the last bits between row counts.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    inner_a = a.shape[1]
    inner_b = b.shape[1] if transpose_b else b.shape[0]
    if inner_a != inner_b:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape} (transpose_b={transpose_b})")
    bv = b.value.T if transpose_b else b.value
    out = _row_stable_product(a.value, bv) if row_stable else _plain_product(a.value, bv)

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
        if a._backward is None:  # a leaf: add into its gradient, pass nothing on
            a.grad_buffer()[idx] += g
            return (None,)
        full = np.zeros_like(a.value)
        full[idx] = g
        return (full,)

    return _make(out, (a,), backward, "narrow")


def _check_rows(op, idx, n):
    """Raise `IndexError` unless every entry of `idx` is in [0, n): one scan,
    with a signed index viewed as unsigned so that a negative entry reads as
    a huge one."""
    if idx.dtype.kind == "i":
        idx = idx.view(idx.dtype.str.replace("i", "u"))
    if idx.size and idx.max() >= n:
        raise IndexError(f"{op}: index out of range for {n} rows")


def _pass_plan(idx):
    """The scatter plan of the int index `idx`: (order, rows, ends, by_row),
    the flat slots in pass order, the rows that occur in sum order and the
    end of each pass in `order` (see `RowIndex`).  When fewer rows occur
    than there are passes of two or more rows, `by_row` is (slots, starts,
    stops): the slots
    grouped by row, each row's in flat order, and where the slots of each
    of `rows` start and stop in it; otherwise it is None.  Sorting the
    slots, not the table's rows, keeps the cost independent of the table's
    size."""
    flat = idx.ravel().astype(np.intp, copy=False)
    n = flat.size
    by_row = np.argsort(flat, kind="stable")  # slots grouped by row, in flat order
    first = np.flatnonzero(np.diff(flat[by_row], prepend=-1))  # each row's first place in by_row
    counts = np.diff(first, append=n)
    by_count = np.argsort(-counts, kind="stable")
    rows = flat[by_row[first[by_count]]]
    rank = np.empty_like(by_count)
    rank[by_count] = np.arange(len(by_count))
    k = np.arange(n) - np.repeat(first, counts)  # each slot's occurrence number in its row
    sizes = np.bincount(k)  # slots per pass, falling
    ends = np.cumsum(sizes)
    order = np.empty(n, dtype=np.intp)
    order[(ends - sizes)[k] + np.repeat(rank, counts)] = by_row
    starts = first[by_count]
    few = len(rows) < np.count_nonzero(sizes > 1)  # fewer rows than passes before one row is left
    return order, rows, ends, (by_row, starts, starts + counts[by_count]) if few else None


def _sum_in_order(terms):
    """The float64 sum, from 0.0, of the rows of `terms` (k, d) added in
    order.  A reduction along the outer axis adds whole rows in order; one
    column alone would be summed pairwise, so it accumulates instead."""
    if terms.shape[1] != 1:
        return np.add.reduce(terms, axis=0, dtype=np.float64, initial=0.0)
    return np.add.accumulate(np.concatenate([np.zeros((1, 1)), terms]), axis=0, dtype=np.float64)[-1]


class RowIndex:
    """An int index of rows, of any shape, with the plan its gradient
    scatters through, built (`_pass_plan`) on the first backward that
    scatters it; the ops given one `RowIndex` share its plan.

    The plan lays the index's slots out pass-major: pass k holds each row's
    k-th occurrence, and the rows that occur are ordered by falling count
    (ties by row), so pass k adds into a prefix of the sums.  The sums start
    from 0.0 in float64 and take each row's terms in the order they occur,
    the bits of `np.add.at` in float64 into zeros.  Once a single row is
    left, its remaining passes are one `np.add.accumulate`, which adds
    strictly in order: the masked slots of a neighbour table all index one
    row.  A small table whose rows repeat more often than there are rows
    (the session layer's relation table, the position table) is summed one
    row at a time instead, each row's slots in order, from the plan's
    by-row layout: 5 sums in place of about 1,300 passes.  The masked slots
    alone do not make a table small: the passes are counted up to the
    single row's tail.
    """

    __slots__ = ("idx", "_plan")

    def __init__(self, idx):
        self.idx = np.asarray(idx)
        self._plan = None

    def plan(self):
        if self._plan is None:
            self._plan = _pass_plan(self.idx)
        return self._plan

    def sums(self, terms, by_pass=False):
        """(rows, sums): the rows that occur, in the plan's order, and the
        float64 sum (len(rows), d) of each one's slots' terms.  `terms(slots)`
        gives the terms (len(slots), d) of an array of flat slots, and is
        called once per pass (once with no slots when no row occurs), or once
        per row where the plan lays the slots out by row, unless `by_pass`
        asks for the passes (for terms that also add into a sum of their own
        in pass order)."""
        order, rows, ends, by_row = self.plan()
        if by_row is not None and not by_pass:
            slots, starts, stops = by_row
            return rows, np.stack([_sum_in_order(terms(slots[lo:hi])) for lo, hi in zip(starts, stops)])
        if not len(rows):
            return rows, np.add(terms(order), 0.0, dtype=np.float64)
        sums = np.add(terms(order[:ends[0]]), 0.0, dtype=np.float64)  # pass 0, added to 0.0
        lo = ends[0]
        for hi in ends[1:]:
            if hi - lo == 1:  # one row left: add its last passes in order
                sums[0] = np.add.accumulate(np.concatenate([sums[:1], terms(order[lo:])]), axis=0)[-1]
                break
            sums[:hi - lo] += terms(order[lo:hi])
            lo = hi
        return rows, sums

    def scatter_add(self, out, vals):
        """out[idx[i]] += vals[i] for every i: out (R, d), vals idx.shape + (d,).
        Each row's terms are summed first (`sums`), then added."""
        rows, sums = self.sums(_slot_terms(vals, out.shape[1]))
        out[rows] += sums
        return out


def _slot_terms(vals, d):
    """`RowIndex.sums`' terms for values laid out like the index: the rows
    of `vals`, as (-1, d), at the slots."""
    vals = vals.reshape(-1, d)
    return lambda slots: np.take(vals, slots, axis=0)


def _rows_grad(table, rows, sums):
    """Hand a row lookup's gradient, the float64 `sums` of `rows` of the 2-D
    `table` (`RowIndex.sums`), on: added into the gradient of a leaf that
    has one, or written once into a new zero array, a leaf's first gradient
    or the one returned for a non-leaf.  A leaf gets no flow (None).  Into
    zeros, writing gives the bits adding would (a sum from 0.0 is never
    -0.0), without a fancy-index temporary."""
    leaf = table._backward is None
    if leaf and table.grad is not None:
        table.grad[rows] += sums
        return None
    out = np.zeros_like(table.value)
    out[rows] = sums
    if leaf:
        table.grad = out
        return None
    return out


def gather(table, idx):
    """Row lookup: table (R, d), idx an int array of any shape or a
    `RowIndex` -> idx.shape + (d,).  The backward scatters through the
    index's plan."""
    table = _as_tensor(table)
    index = idx if isinstance(idx, RowIndex) else RowIndex(idx)
    if table.ndim != 2:
        raise ShapeError(f"gather: table must be 2-D, got {table.shape}")
    _check_rows("gather", index.idx, table.shape[0])
    out = table.value[index.idx]

    def backward(g):
        return (_rows_grad(table, *index.sums(_slot_terms(g, table.shape[1]))),)

    return _make(out, (table,), backward, "gather")


def batched_gather(x, idx):
    """Per-batch row lookup: x (B, R, d), idx (B, ...) -> (B, ..., d)."""
    x = _as_tensor(x)
    idx = np.asarray(idx)
    if x.ndim != 3 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"batched_gather: x {x.shape} vs idx {idx.shape}")
    B, R, d = x.shape
    _check_rows("batched_gather", idx, R)
    rows = idx.reshape(B, -1) + (R * np.arange(B))[:, None]  # rows of x as (B * R, d)
    out = x.value.reshape(B * R, d)[rows].reshape(idx.shape + (d,))

    def backward(g):
        gx = RowIndex(rows).scatter_add(np.zeros((B * R, d), dtype=x.value.dtype), g)
        return (gx.reshape(B, R, d),)

    return _make(out, (x,), backward, "batched_gather")


# Elements (rows x W x D) per block of `neighbor_scores`' forward: 256 KB in
# float64, so a block's activation stays in cache between its numpy calls.
_NBR_BLOCK = 1 << 15


def neighbor_scores(z, idx, wt, w1b, vec, slope=0.2):
    """Neighbour attention scores vec . LeakyReLU(z[idx] + wt * w1b), summed
    over the last axis: z (R, D), idx (R', ...) rows of z, an int array or a
    `RowIndex`, wt (idx.shape), w1b and vec (D,) -> idx.shape.

    The forward makes the numpy calls of the chain gather, mul, add,
    leaky_relu, mul, reduce_sum in its order, one block of leading-axis rows
    (`_NBR_BLOCK` elements) at a time; every call is elementwise or sums
    each element's own D terms, so the scores equal the chain's bit for bit
    whatever the block.  When a gradient will be taken the tape keeps one
    idx.shape + (D,) bool array, the LeakyReLU mask (activation < 0, one
    byte an element), where the chain kept five float arrays; otherwise no
    array of that size exists.

    Slot s of row j(s) has activation f_s (z_j(s) + wt_s w1b), f_s the
    factor 1 or `slope` its mask picks, so every gradient comes from one
    scatter through the index's plan: the terms u_s = g_s f_s, formed a
    pass at a time, summed per row in float64 (U_j) and, weighted by wt_s,
    into V.  Then z's gradient is vec U_j, w1b's vec V and vec's
    sum_j z_j U_j + w1b V; no idx.shape + (D,) float array is formed.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    z, w1b, vec = _as_tensor(z), _as_tensor(w1b), _as_tensor(vec)
    index = idx if isinstance(idx, RowIndex) else RowIndex(idx)
    idx = index.idx
    wt = np.asarray(wt, dtype=z.dtype)
    D = z.shape[1] if z.ndim == 2 else None
    if D is None or w1b.shape != (D,) or vec.shape != (D,) or wt.shape != idx.shape:
        raise ShapeError(f"neighbor_scores: z {z.shape}, idx {idx.shape}, wt {wt.shape}, "
                         f"w1b {w1b.shape}, vec {vec.shape}")
    _check_rows("neighbor_scores", idx, z.shape[0])
    keep = _GRAD_ENABLED and (z.requires_grad or w1b.requires_grad or vec.requires_grad)
    mask = np.empty(idx.shape + (D,), dtype=bool) if keep else None
    out = np.empty(idx.shape, dtype=np.result_type(z.dtype, vec.dtype))
    step = max(1, _NBR_BLOCK // max(1, idx[:1].size * D))
    buf = np.empty((min(step, len(idx)),) + idx.shape[1:] + (D,), dtype=z.dtype)  # one block's activation
    for r0 in range(0, len(idx), step):
        r = slice(r0, r0 + step)
        a = np.take(z.value, idx[r], axis=0, out=buf[:len(out[r])], mode="clip")  # z[idx[r]]
        a += wt[r, ..., None] * w1b.value
        np.maximum(a, slope * a, out=a)
        if keep:
            # max(x, slope x) is negative where x is (bar an x whose slope x underflows)
            np.less(a, 0, out=mask[r])
        out[r] = (a * vec.value).sum(axis=-1)

    def backward(g):
        g, wt_flat = g.reshape(-1), wt.reshape(-1)
        factor = np.array([1, slope], dtype=g.dtype)
        masked = mask.reshape(-1, D).view(np.uint8)  # indexes `factor`
        V = np.zeros(D)

        def terms(slots):  # u_s = g_s f_s, adding sum_s wt_s u_s into V
            u = np.take(factor, np.take(masked, slots, axis=0))
            u *= np.take(g, slots)[:, None]
            np.add(V, np.take(wt_flat, slots) @ u, out=V)
            return u

        rows, U = index.sums(terms, by_pass=True)  # V's bits follow the passes
        gvec = gw1b = gz = None
        if vec.requires_grad:
            gvec = (np.einsum("jd,jd->d", z.value[rows], U) + w1b.value * V).astype(vec.dtype, copy=False)
        if w1b.requires_grad:
            gw1b = (vec.value * V).astype(w1b.dtype, copy=False)
        if z.requires_grad:
            gz = _rows_grad(z, rows, np.multiply(U, vec.value, out=U))
        return gz, gw1b, gvec

    return _make(out, (z, w1b, vec), backward, "neighbor_scores")


def neighbor_mix(alpha, h, idx):
    """sum_w alpha[r, w] * h[idx[r, w]] accumulated over w in order:
    alpha (R, W), h (R_in, d), idx (R, W) rows of h, an int array or a
    `RowIndex` -> (R, d).

    Equals the chain that multiplies each slot's column of `alpha` into
    gather(h, idx[:, w]) and adds the products in slot order, bit for bit,
    without keeping an (R, W, d) gathered copy.  The forward
    works one block of rows (`_NBR_BLOCK` elements) at a time: one gather of
    the block's neighbour rows, one product with `alpha`, then the W adds in
    slot order into the block's output rows.  The backward gathers each
    block's rows again for one einsum against the output gradient, and
    forms h's gradient terms in the pass order of the index's plan, each
    slot's output gradient row times its `alpha` entry, to sum them per row.
    """
    alpha, h = _as_tensor(alpha), _as_tensor(h)
    index = idx if isinstance(idx, RowIndex) else RowIndex(idx)
    idx = index.idx
    if h.ndim != 2 or idx.ndim != 2 or alpha.shape != idx.shape:
        raise ShapeError(f"neighbor_mix: alpha {alpha.shape}, h {h.shape}, idx {idx.shape}")
    _check_rows("neighbor_mix", idx, h.shape[0])
    hv, av = h.value, alpha.value
    (R, W), d = idx.shape, hv.shape[1]
    step = max(1, _NBR_BLOCK // max(1, W * d))
    blocks = [slice(r0, min(R, r0 + step)) for r0 in range(0, R, step)]
    buf = np.empty((min(step, R), W, d), dtype=hv.dtype)  # one block's neighbour rows
    if W == 0:
        out = np.zeros((R, d), dtype=hv.dtype)
    else:
        out = np.empty((R, d), dtype=np.result_type(av, hv))
        for r in blocks:
            t = np.take(hv, idx[r], axis=0, out=buf[:r.stop - r.start], mode="clip")  # h[idx[r]]
            t = np.multiply(av[r, :, None], t, out=t if t.dtype == out.dtype else None)
            o = out[r]
            o[...] = t[:, 0]
            for w in range(1, W):
                o += t[:, w]

    def backward(g):
        galpha = gh = None
        if alpha.requires_grad:
            galpha = np.empty(av.shape, dtype=g.dtype)
            for r in blocks:
                t = np.take(hv, idx[r], axis=0, out=buf[:r.stop - r.start], mode="clip")
                galpha[r] = np.einsum("rwd,rd->rw", t, g[r])
        if h.requires_grad:
            dt = np.result_type(av, g)

            def terms(slots):  # each slot's output gradient row times its alpha entry
                t = np.take(g, slots // W, axis=0)
                return np.multiply(np.take(av, slots)[:, None], t, out=t if t.dtype == dt else None)

            gh = _rows_grad(h, *index.sums(terms))
        return galpha, gh

    return _make(out, (alpha, h), backward, "neighbor_mix")


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


def weighted_sum(w, v, example, ends):
    """Per-example sums of weighted rows: weights w (R,), or None for unit
    weights, and rows v (R, d) -> (ends[0], d).

    The rows come in runs ending at `ends`, and row r adds into output
    `example[r]`.  The first run holds every output's first term, in output
    order, and each later run at most one term per output, in output order:
    the layout of a batch's position rows (`batching.RealRows`).  Each
    output starts from its first term and adds the later runs' one at a
    time, so its bits do not depend on the other outputs' rows.
    """
    v, w, example = _as_tensor(v), w if w is None else _as_tensor(w), np.asarray(example)
    if v.ndim != 2 or example.shape != v.shape[:1] or ends[-1] != len(example) or (
            w is not None and w.shape != example.shape):
        raise ShapeError(f"weighted_sum: weights {getattr(w, 'shape', None)}, values {v.shape}, "
                         f"examples {example.shape}, run ends {tuple(ends)}")
    terms = v.value if w is None else w.value[:, None] * v.value
    B = ends[0]
    out = terms[:B].copy()
    for lo, hi in zip(ends, ends[1:]):
        if hi - lo == B:  # every output has a term in this run
            out += terms[lo:hi]
        else:
            out[example[lo:hi]] += terms[lo:hi]

    def backward(g):
        ge = g[example]  # each row's output gradient
        if w is None:
            return (ge,)
        return (np.einsum("rd,rd->r", ge, v.value) if w.requires_grad else None), w.value[:, None] * ge

    return _make(out, (v,) if w is None else (w, v), backward, "weighted_sum")


# -- nonlinearities ----------------------------------------------------------


def leaky_relu(a, slope=0.2):
    """max(a, slope * a), which equals where(a >= 0, a, slope * a) bit for bit
    (signed zeros, infinities and NaN included) for a slope in (0, 1)."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    a = _as_tensor(a)
    out = np.asarray(slope * a.value)  # a 0-d product is a scalar
    np.maximum(a.value, out, out=out)

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
    pos = v >= 0
    e = np.exp(np.where(pos, -v, v))  # never above 1; a NaN passes through with its sign
    den = 1.0 + e
    out = np.where(pos, 1.0 / den, e / den)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward, "sigmoid")


# No model code calls `log` or `clamp` since the loss became one op
# (`score_loss`), nor `batched_gather` since the session encoder runs on
# position rows; perfbench/tracing.py reports per-op metrics for all three by
# name, so they stay until that op list changes.
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


# Logits per row block of `score_loss`'s forward: a block of whole rows is
# worked through every per-row step while it is in cache.  This is one row at
# m=41k items (327 KB in float64, against 33 MB for the (B, m) logits at
# B=100) and 13 at m=5k.  Forward and backward at B=100, d=100, one BLAS
# thread on a 2-vCPU x86-64 VM: 111 ms at one row per block, 112 at two and
# 120 at ten (m=41k); 19-21 ms from 2 to 26 rows, but 25 ms at one row (m=5k).
_HEAD_BLOCK = 65536


def score_loss(s, table, labels, mode):
    """Per-example loss (B,) of softmax(z), z = s @ table[1:]^T, against the
    columns `labels` (B,) of z: the scoring head and its loss in one op.
    Row 0 of `table` is the padding row; it is not scored and its gradient
    is zero.

    `categorical` is -log p_y = logsumexp(z) - z_y, with gradient p - onehot.
    `binary` is -[log p_y + sum_{j != y} log(1 - p_j)]: the label's own miss
    term is never formed, and log(1 - p_j) is log1p(-p_j) except at the row's
    top logit j*, where it is log(sum_{k != j*} e^(z_k - z_j*)) - log S with
    that excluded sum formed directly.  The gradient is a - p sum(a), with
    a_j = p_j / (1 - p_j) for a miss and a_y = -1; the j* terms also come from
    the excluded sum, so a saturated softmax (1 - p_j* rounding to 0) keeps a
    finite loss and gradient.

    The forward is one BLAS product (`_plain_product`, which `predict`
    shares), then one pass over blocks of whole rows (`_HEAD_BLOCK` logits
    each) that does every per-row step while the block is in cache: the max,
    the exponentials, the excluded sum, the loss and, when a gradient will be
    taken, the logit gradient for an upstream gradient of 1, written over
    the logits.  The tape keeps that one (B, m) array, and the backward is
    two products that apply the upstream gradient g to the (B, d) operands:
    (G @ table[1:]) g for `s` and G^T (g s) for the table rows.  Every row
    sum runs over a whole row, so the losses do not depend on the block size.
    From `_SPLIT_WORK` multiply-adds on, the row pass runs in two halves of
    its blocks and, on a one-thread BLAS, the product in two column halves
    and the backward's two products at once, each pair side by side
    (`_side_by_side`); every half does the arithmetic of the unsplit op, so
    the bits are the same.
    """
    s, table = _as_tensor(s), _as_tensor(table)
    labels = np.asarray(labels)
    if (s.ndim != 2 or table.ndim != 2 or s.shape[1] != table.shape[1] or labels.shape != s.shape[:1]
            or table.shape[0] < 2):
        raise ShapeError(f"score_loss: s {s.shape}, table {table.shape}, labels {labels.shape}")
    if mode not in ("binary", "categorical"):
        raise ValueError(f"score_loss: unknown mode {mode!r}")
    sv, cand = s.value, table.value[1:]
    B, m = sv.shape[0], cand.shape[0]
    rows = np.arange(B)
    keep = _GRAD_ENABLED and (s.requires_grad or table.requires_grad)
    split = B * m * sv.shape[1] >= _SPLIT_WORK
    e = _plain_product(sv, cand.T)                # the logits z, made e, then G, in place
    out = e[rows, labels]                         # z_y; each row block makes its entries losses
    step = _HEAD_BLOCK // m or 1

    def row_blocks(starts):
        for r0 in starts:
            r = slice(r0, r0 + step)
            eb, y = e[r], labels[r]
            i = rows[:eb.shape[0]]
            t = eb.argmax(axis=1)
            mx = eb[i, t]
            zy = out[r] - mx                      # z_y - z_j*
            eb -= mx[:, None]
            np.exp(eb, out=eb)
            eb[i, t] = 0.0
            excl = eb.sum(axis=1)                 # sum_{k != j*} e^(z_k - z_j*)
            total = 1.0 + excl                    # S
            log_s = np.log1p(excl)
            out[r] = log_s - zy                   # -log p_y
            if mode == "categorical":
                if keep:                          # p - onehot
                    eb[i, t] = 1.0
                    eb /= total[:, None]
                    eb[i, y] -= 1.0
                continue
            o = t != y                            # rows whose top logit is a miss
            p = eb / total[:, None]               # p_j* is 0 while e_j* is
            if keep:
                a = 1.0 - p
                a[i, t] = 1.0
                np.divide(p, a, out=a)            # p_j / (1 - p_j)
                a[i, y] = -1.0
                a[i, t] = 0.0
                rest = a.sum(axis=1)              # sum of a over j != j*
                a_top = np.full_like(excl, -1.0)  # a_j*: the label's -1, or 1 / excluded sum
                np.divide(1.0, excl, out=a_top, where=o)
                np.multiply(p, (a_top + rest)[:, None], out=eb)
                np.subtract(a, eb, out=eb)        # a - p sum(a)
                # a_j* (1 - p_j*) is 1/S for a miss and -excl/S for the label;
                # forming a_j* - p_j* sum(a) instead would cancel
                eb[i, t] = np.where(o, 1.0, -excl) / total - (1.0 / total) * rest
            np.negative(p, out=p)
            np.log1p(p, out=p)                    # log(1 - p_j); 0 at j* for now
            p[i[o], t[o]] = np.log(excl[o]) - log_s[o]
            p[i, y] = 0.0
            out[r] -= p.sum(axis=1)

    starts = range(0, B, step)
    half = len(starts) // 2
    if split and half:
        _side_by_side(lambda: row_blocks(starts[:half]), lambda: row_blocks(starts[half:]))
    else:
        row_blocks(starts)

    def backward(g):
        gt = None
        if table.requires_grad and (table._backward is not None or table.grad is None):
            gt = np.empty_like(table.value)       # a new gradient, written once
            gt[0] = 0.0

        def s_grad():
            if s.requires_grad:
                gs = e @ cand
                gs *= g[:, None]
                return gs

        def table_grad():
            if table.requires_grad:
                gsv = g[:, None] * sv
                if gt is None:                    # a leaf's gradient, added into
                    table.grad[1:] += e.T @ gsv
                else:
                    np.matmul(e.T, gsv, out=gt[1:])

        if split and _ONE_BLAS_THREAD and s.requires_grad and table.requires_grad:
            gs = _side_by_side(s_grad, table_grad)[0]
        else:
            gs = s_grad()
            table_grad()
        if gt is not None and table._backward is None:
            table.grad, gt = gt, None
        return gs, gt

    return _make(out, (s, table), backward, "score_loss")


def masked_softmax(a, mask, axis=-1):
    """Softmax over `mask`-selected entries; masked entries get exact 0.

    Rows with no valid entry produce an all-zero row.  The denominator is
    the last entry of a running sum (`np.add.accumulate`) along `axis`, which
    adds the entries strictly in order, so trailing padded entries, exact
    zeros, cannot perturb it.
    """
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise ShapeError(f"masked_softmax: mask {mask.shape} vs scores {a.shape}")
    ax = axis % a.ndim
    neg_inf = np.array(-np.inf, dtype=a.value.dtype)
    masked_vals = np.where(mask, a.value, neg_inf)
    mx = masked_vals.max(axis=ax, keepdims=True, initial=neg_inf)  # -inf at zero width
    safe_mx = np.where(np.isfinite(mx), mx, 0.0)
    z = np.where(mask, a.value - safe_mx, neg_inf)
    e = np.exp(z)  # exact 0 at masked entries
    last = (slice(None),) * ax + (slice(-1, None),)  # keeps the axis; empty when it has width 0
    den = np.add.accumulate(e, axis=ax)[last]
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
    A leaf's `grad` is allocated once, zero-filled, and every contribution
    is added into it: the sum of the gradients passed to the leaf, and the
    writes of `narrow`, `score_loss` and row-lookup ops on the leaf, which
    return no gradient to pass (`score_loss` and the row lookups write,
    rather than add, a `grad` they allocate).  Gradients meeting at one
    tensor are summed in the order the reverse topological walk reaches
    their ops.
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
