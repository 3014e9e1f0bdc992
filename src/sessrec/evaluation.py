"""Ranking metrics and the configuration-grid experiment harness."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .batching import collate, pack_example


def rank_of(scores, label: int) -> int:
    """1-based rank of `label` (an item index in 1..m) under descending score,
    ties broken by ascending item index."""
    scores = np.asarray(scores)
    s = scores[label - 1]
    greater = int(np.sum(scores > s))
    ties_before = int(np.sum(scores[: label - 1] == s))
    return 1 + greater + ties_before


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

    def row(self):
        return {"label": self.label, "P@10": self.p10, "P@20": self.p20,
                "MRR@10": self.mrr10, "MRR@20": self.mrr20,
                "examples": self.example_count, "fingerprint": self.fingerprint,
                **self.extra}


def ranks_for_packs(model, packs, batch_size=100):
    """Label ranks for packed examples, evaluated without building a tape.

    Ranks come from the logits: the softmax is monotone, so it is skipped."""
    ranks = []
    with ad.no_grad():
        for start in range(0, len(packs), batch_size):
            chunk = packs[start: start + batch_size]
            batch = collate(chunk)
            out = model.forward(batch, train_mode=False)
            for row, p in zip(out.logits.value, chunk):
                ranks.append(rank_of(row, p.label))
    return ranks


def evaluate_packs(model, packs, batch_size=100, label="", fingerprint="") -> EvalReport:
    ranks = ranks_for_packs(model, packs, batch_size)
    p10, mrr10 = metrics(ranks, 10)
    p20, mrr20 = metrics(ranks, 20)
    return EvalReport(label, p10, p20, mrr10, mrr20, len(ranks), fingerprint)


def evaluate_model(model, examples, global_graph, batch_size=100, label="", fingerprint="") -> EvalReport:
    packs = [pack_example(e.prefix, e.label, global_graph, model.config.k_hops) for e in examples]
    return evaluate_packs(model, packs, batch_size, label=label, fingerprint=fingerprint)


def run_ablations(examples, num_items, max_len, global_graph, base_model_cfg, base_train_cfg,
                  grid, fingerprint="", log=None):
    """Train and evaluate one model per grid entry with a shared seed.

    `grid` is a list of (label, model_overrides, train_overrides).  A failing
    entry is recorded and the rest of the grid continues.  Returns a list of
    dicts with either a `report` or an `error` per entry.
    """
    import dataclasses

    from .train import train_model  # deferred: train imports this module

    test_examples = [e for e in examples if e.split == "test"]
    rows = []
    for label, model_over, train_over in grid:
        try:
            model_cfg = dataclasses.replace(base_model_cfg, **model_over)
            train_cfg = dataclasses.replace(base_train_cfg, **train_over)
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
