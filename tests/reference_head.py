"""The loss of the scoring head as it was computed before `autodiff.score_loss`
streamed it in column blocks, kept as a test oracle: the softmax loss of one
whole (B, m) logits array, and its gradient with respect to those logits.
Applied to z = s @ table[1:].T it gives the losses `score_loss` must match
bit for bit; the gradient chained through the product gives the session and
table gradients it must match to rounding.
"""

from __future__ import annotations

import numpy as np


def softmax_loss(z, labels, mode):
    """Per-example loss (B,) of softmax(z) against the columns `labels`, and a
    function of the upstream gradient g (B,) returning the (B, m) gradient
    with respect to z.

    `categorical` is -log p_y; `binary` is -[log p_y + sum_{j != y} log(1 - p_j)],
    with log(1 - p_j*) at the row's top logit j* formed from the sum of the
    other exponentials, so a saturated softmax stays finite.
    """
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

    def grad(g):
        if mode == "categorical":
            gz = p * g[:, None]
            gz[rows, labels] -= g
            return gz
        a = 1.0 - p
        a[rows, top] = 1.0
        np.divide(p, a, out=a)                    # p_j / (1 - p_j), j != j*
        a[rows[off], top[off]] = 1.0 / excl[off]  # p_j* / (1 - p_j*) = 1 / excluded sum
        a[rows, labels] = -1.0
        a_top = a[rows, top].copy()
        a[rows, top] = 0.0
        rest = a.sum(axis=1)                      # sum of a over j != j*
        gz = p * (a_top + rest)[:, None]
        np.subtract(a, gz, out=gz)
        gz[rows, top] = np.where(off, 1.0, -excl) / s - p[rows, top] * rest
        gz *= g[:, None]
        return gz

    return out, grad
