"""Ranking metrics and evaluation reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .batching import collate, pack_example

SHORT_SESSION = 5  # prefixes of at most this many items form the `short` bucket


def rank_of(scores, label):
    """1-based rank of `label` (an item index in 1..m) under descending score,
    ties broken by ascending item index; given (B, m) scores and (B,) labels,
    the (B,) ranks.  Rows are compared one at a time, each still in cache for
    its tie count: at B=100, m=40k that takes a quarter of the time of one
    masked (B, m) comparison."""
    scores = np.asarray(scores)
    ranks = np.array([1 + np.count_nonzero(row > row[y - 1]) + np.count_nonzero(row[: y - 1] == row[y - 1])
                      for row, y in zip(np.atleast_2d(scores), np.atleast_1d(label))], dtype=np.int64)
    return ranks if scores.ndim > 1 else int(ranks[0])


def metrics(ranks, n: int):
    """(P@n, MRR@n) as percentages over a list of 1-based ranks."""
    if len(ranks) == 0:
        raise ValueError("metrics: empty rank list")
    ranks = np.asarray(ranks, dtype=np.float64)
    hits = ranks <= n
    p = 100.0 * float(np.mean(hits))
    mrr = 100.0 * float(np.mean(np.where(hits, 1.0 / ranks, 0.0)))
    return p, mrr


@dataclass
class EvalReport:
    label: str
    p10: float
    p20: float
    mrr10: float
    mrr20: float
    example_count: int
    fingerprint: str = ""
    extra: dict = field(default_factory=dict)
    by_length: dict = field(default_factory=dict)  # bucket -> (P@20, MRR@20, examples)

    def row(self):
        per_length = {f"{key}_{bucket}": value for bucket, figures in self.by_length.items()
                      for key, value in zip(("P@20", "MRR@20", "examples"), figures)}
        return {"label": self.label, "P@10": self.p10, "P@20": self.p20,
                "MRR@10": self.mrr10, "MRR@20": self.mrr20,
                "examples": self.example_count, "fingerprint": self.fingerprint,
                **per_length, **self.extra}


def ranks_for_packs(model, packs, batch_size=100):
    """Label ranks for packed examples, evaluated without building a tape,
    returned in the order of `packs`.

    Batches are cut from the packs stably sorted by (session-graph nodes,
    frontier size), so each batch pads its layers to sizes close to its
    own examples' instead of to the largest in a stretch of stored order;
    each rank is written back to its pack's position.  Ranks come from the
    logits: the softmax is monotone, so it is skipped."""
    order = sorted(range(len(packs)), key=lambda i: (packs[i].num_nodes, packs[i].frontier_size))
    ranks = np.zeros(len(packs), dtype=np.int64)
    with ad.no_grad():
        for start in range(0, len(order), batch_size):
            chunk = order[start: start + batch_size]
            out = model.forward(collate([packs[i] for i in chunk]), train_mode=False)
            ranks[chunk] = rank_of(out.logits.value, [packs[i].label for i in chunk])
    return ranks.tolist()


def evaluate_packs(model, packs, batch_size=100, label="", fingerprint="") -> EvalReport:
    """P@10/20 and MRR@10/20 over all packs, and P@20 and MRR@20 per
    session-length bucket (`short`: at most `SHORT_SESSION` items; a bucket
    without examples is left out)."""
    ranks = ranks_for_packs(model, packs, batch_size)
    p10, mrr10 = metrics(ranks, 10)
    p20, mrr20 = metrics(ranks, 20)
    ranks_arr, short = np.asarray(ranks), np.array([p.length <= SHORT_SESSION for p in packs])
    by_length = {bucket: (*metrics(ranks_arr[sel], 20), int(sel.sum()))
                 for bucket, sel in (("short", short), ("long", ~short)) if sel.any()}
    return EvalReport(label, p10, p20, mrr10, mrr20, len(ranks), fingerprint, by_length=by_length)


def evaluate_model(model, examples, global_graph, batch_size=100, label="", fingerprint="") -> EvalReport:
    packs = [pack_example(e.prefix, e.label, global_graph, model.config.k_hops) for e in examples]
    return evaluate_packs(model, packs, batch_size, label=label, fingerprint=fingerprint)


def render_table(rows):
    """Aligned text table over ablation rows."""
    headers = ["config", "P@10", "P@20", "MRR@10", "MRR@20", "examples"]
    body = []
    for row in rows:
        if "error" in row:
            body.append([row["label"], "error: " + row["error"], "", "", "", ""])
        else:
            r = row["report"]
            body.append([row["label"], f"{r.p10:.2f}", f"{r.p20:.2f}",
                         f"{r.mrr10:.2f}", f"{r.mrr20:.2f}", str(r.example_count)])
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for b in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(b, widths)))
    return "\n".join(lines)


def rows_to_jsonl(rows):
    out = []
    for row in rows:
        if "error" in row:
            out.append(json.dumps({"label": row["label"], "error": row["error"]}, sort_keys=True))
        else:
            out.append(json.dumps(row["report"].row(), sort_keys=True))
    return "\n".join(out) + "\n"
