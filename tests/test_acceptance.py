"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9 needs a manually downloaded Diginetica events file
(set SESSREC_DIGINETICA to the train-item-views.csv path); criterion 10 is a
documented reproduction guide, not a gate.
"""

import json
import os
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from sessrec import autodiff as ad
from sessrec.batching import REL_NONE, collate, pack_example
from sessrec.cli import main
from sessrec.corpus import (TEST, build_examples, filter_corpus, parse_sessions,
                            temporal_split)
from sessrec.evaluation import metrics, rank_of, ranks_for_packs
from sessrec.graphs import build_global_graph, csr
from sessrec.model import ModelConfig, NextItemModel, model_gradcheck
from sessrec.train import TrainConfig, train_model

from conftest import bits, example_rows, examples_from_sessions, pattern_sessions, random_corpus
from test_evaluation import oracle_rank
from test_graphs import brute_force_pair_weights, brute_force_relations, pair_weights


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS - {text}")


def test_c01_gradient_correctness_all_configs():
    t0 = time.perf_counter()
    worst = 0.0
    combos = [(k, agg, pos, loss)
              for k in (1, 2)
              for agg in ("sum", "gate", "max", "concat")
              for pos in ("reversed", "forward")
              for loss in ("binary", "categorical")]
    for k, agg, pos, loss in combos:
        cfg = ModelConfig(embedding_dim=8, k_hops=k, aggregation=agg, position_mode=pos,
                          loss_mode=loss, dropout_global=0.0, precision="double")
        err = model_gradcheck(cfg)
        assert err < 1e-4, f"gradcheck {k}/{agg}/{pos}/{loss}: {err:.3e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"gradcheck sweep took {elapsed:.0f}s"
    report(1, f"32 configs, max relative error {worst:.2e} < 1e-4 in {elapsed:.0f}s")


def test_c02_global_graph_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    for trial in range(20):
        n_items = int(rng.integers(2, 31))
        n_sessions = int(rng.integers(1, 51))
        epsilon = int(rng.integers(1, 4))
        sessions = random_corpus(rng, n_sessions, n_items)
        mine = pair_weights(sessions, epsilon)
        oracle = brute_force_pair_weights(sessions, epsilon)
        assert {frozenset(k): v for k, v in mine.items()} == oracle
        top_n = int(rng.integers(1, 13))
        graph = build_global_graph(*csr(sessions), epsilon, top_n, num_items=n_items)
        # post-truncation lists respect (descending weight, ascending index)
        full = {}
        for (a, b), w in mine.items():
            full.setdefault(a, []).append((b, w))
            full.setdefault(b, []).append((a, w))
        for item in range(1, n_items + 1):
            expect = sorted(full.get(item, []), key=lambda nw: (-nw[1], nw[0]))[:top_n]
            assert graph.neighbors(item) == expect
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"global-graph oracle took {elapsed:.1f}s"
    report(2, f"20 corpora match the brute-force pair enumerator exactly in {elapsed:.1f}s")


def test_c03_session_graph_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    seqs = [rng.integers(1, 9, size=rng.integers(1, 16)).tolist() for _ in range(200)]
    for seq in seqs:
        pack = pack_example(tuple(seq), 1, None, 0)
        nodes, rel = brute_force_relations(seq)
        assert pack.frontier_items.tolist() == nodes
        assert np.array_equal(collate([pack]).rel[0], rel)
    # the same sequences in batches of 8, each graph padded to the batch's largest:
    # padded rows and columns carry no relation
    for start in range(0, len(seqs), 8):
        group = seqs[start: start + 8]
        batch = collate([pack_example(tuple(seq), 1, None, 0) for seq in group])
        for b, seq in enumerate(group):
            nodes, rel = brute_force_relations(seq)
            n = len(nodes)
            assert np.array_equal(batch.rel[b, :n, :n], rel)
            assert np.all(batch.rel[b, n:] == REL_NONE) and np.all(batch.rel[b, :, n:] == REL_NONE)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"session-graph oracle took {elapsed:.1f}s"
    report(3, f"200 sequences, alone and in 25 padded batches, match the brute-force relation "
              f"classifier in {elapsed:.1f}s")


def test_c04_metric_oracle():
    rng = np.random.default_rng(77)
    m = 50
    ranks = []
    for _ in range(1000):
        scores = rng.normal(size=m)
        if rng.random() < 0.3:  # force score ties
            scores = np.round(scores, 1)
        label = int(rng.integers(1, m + 1))
        r = rank_of(scores, label)
        assert r == oracle_rank(scores.tolist(), label)
        ranks.append(r)
    for n in (10, 20):
        p, mrr = metrics(ranks, n)
        arr = np.asarray(ranks, dtype=np.float64)
        hits = arr <= n
        assert p == 100.0 * float(np.mean(hits))
        assert mrr == 100.0 * float(np.mean(np.where(hits, 1.0 / arr, 0.0)))
    p10, mrr10 = metrics(ranks, 10)
    p20, mrr20 = metrics(ranks, 20)
    assert mrr10 <= p10 and mrr20 <= p20
    assert p10 <= p20 and mrr10 <= mrr20
    report(4, "1000 random score vectors match sort-and-scan exactly; bounds hold")


def test_c05_memorization(memorization_setup):
    t0 = time.perf_counter()
    sessions, num_items, examples, graph = memorization_setup
    tcfg = TrainConfig(batch_size=100, max_epochs=200, patience=200, seed=11,
                       lr_decay_factor=1.0)

    def fit(model_cfg, use_graph):
        packs = [pack_example(e.prefix, e.label, use_graph, model_cfg.k_hops)
                 for e in examples if e.split == "train"]
        state = {"p1": 0.0, "epochs": 0}

        def cb(stats, model):
            p1, _ = metrics(ranks_for_packs(model, packs), 1)
            state["p1"], state["epochs"] = p1, stats.epoch + 1
            return p1 >= 95.0

        result = train_model(examples, num_items, 8, use_graph, model_cfg, tcfg,
                             epoch_callback=cb)
        return state, [h.train_loss for h in result.history]

    full_cfg = ModelConfig(embedding_dim=32, k_hops=1, dropout_global=0.0)
    full_state, full_losses = fit(full_cfg, graph)
    assert full_state["p1"] >= 95.0, f"full model only reached P@1={full_state['p1']:.1f}"
    assert full_state["epochs"] <= 200
    assert all(a > b for a, b in zip(full_losses[:5], full_losses[1:5])), \
        f"first-5 losses not strictly decreasing: {full_losses[:5]}"

    # sanity: the no-global-graph ablation also converges on the same task
    ablation_cfg = ModelConfig(embedding_dim=32, k_hops=0, dropout_global=0.0)
    abl_state, abl_losses = fit(ablation_cfg, None)
    assert abl_state["p1"] >= 70.0, f"ablation stuck at P@1={abl_state['p1']:.1f}"
    assert abl_losses[-1] < 0.5 * abl_losses[0]

    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"memorization took {elapsed:.0f}s"
    report(5, f"full model P@1={full_state['p1']:.1f}% after {full_state['epochs']} epochs, "
              f"ablation P@1={abl_state['p1']:.1f}%, {elapsed:.0f}s total")


def padded_batch(rng, prefix, pack, graph, num_items, max_len):
    """The example batched with 1-3 companions, each longer, with more session
    nodes and a larger frontier, at a random place among them; returns the
    batch and the example's index in it.  A companion extends the example's
    prefix by new items, so its frontier holds the example's."""
    want, companions = int(rng.integers(1, 4)), []
    for _ in range(100):
        new = rng.permutation(np.setdiff1d(np.arange(1, num_items + 1), prefix))
        extra = tuple(int(x) for x in new[:int(rng.integers(1, max_len - pack.length + 1))])
        companion = pack_example(prefix + extra, 1, graph, len(pack.layer_end) - 1)
        if companion.frontier_size > pack.frontier_size:
            assert companion.length > pack.length and companion.num_nodes > pack.num_nodes
            companions.append(companion)
            if len(companions) == want:
                break
    assert len(companions) == want, f"no companion of {prefix} has a larger frontier"
    b = int(rng.integers(0, want + 1))
    return collate(companions[:b] + [pack] + companions[b:]), b


def assert_batched_equals_alone(model, pack, batch, b, case):
    """The example's session vector and fused rows in `batch` have the bits
    of its forward alone, and so do the logits of its own session-vector
    row (the plain-BLAS head's rows depend on the row count)."""
    alone, batched = model.forward(collate([pack])), model.forward(batch)
    assert bits(batched.session_vec.value[b]) == bits(alone.session_vec.value[0]), case
    assert bits(batched.fused.value[example_rows(batch.rows, b)]) == bits(alone.fused.value), case
    own = model.predict(ad.constant(batched.session_vec.value[b:b + 1]))
    assert bits(own.value) == bits(alone.logits.value), case
    return alone


def test_c06_masking_equivalence():
    rng = np.random.default_rng(2024)
    num_items = 120  # so that a 2-hop frontier leaves items out, for a companion's to be larger
    sessions = random_corpus(rng, 60, num_items)
    graph = build_global_graph(*csr(sessions), epsilon=3, top_n=12, num_items=num_items)
    cfg = ModelConfig(embedding_dim=16, k_hops=2, dropout_global=0.0, precision="double")
    model = NextItemModel(num_items, max_len=12, config=cfg, seed=31)
    for trial in range(50):
        l = int(rng.integers(1, 11))
        prefix = tuple(int(x) for x in rng.integers(1, num_items + 1, size=l))
        label = int(rng.integers(1, num_items + 1))
        pack = pack_example(prefix, label, graph, cfg.k_hops)
        batch, b = padded_batch(rng, prefix, pack, graph, num_items, model.max_len)
        assert_batched_equals_alone(model, pack, batch, b, f"trial {trial}")
    report(6, "one example's forward in a batch with larger companions is bit-identical to its "
              "forward alone for 50 random examples")


def test_c06_masking_equivalence_single_precision():
    rng = np.random.default_rng(2025)
    num_items = 120
    sessions = random_corpus(rng, 60, num_items)
    graph = build_global_graph(*csr(sessions), epsilon=3, top_n=12, num_items=num_items)
    for k_hops in (1, 2):
        cfg = ModelConfig(embedding_dim=16, k_hops=k_hops, dropout_global=0.0, precision="single")
        model = NextItemModel(num_items, max_len=12, config=cfg, seed=32)
        for trial in range(25):
            l = int(rng.integers(1, 11))
            prefix = tuple(int(x) for x in rng.integers(1, num_items + 1, size=l))
            pack = pack_example(prefix, int(rng.integers(1, num_items + 1)), graph, k_hops)
            batch, b = padded_batch(rng, prefix, pack, graph, num_items, model.max_len)
            alone = assert_batched_equals_alone(model, pack, batch, b, f"k={k_hops} trial {trial}")
            assert alone.logits.value.dtype == np.float32
    report(6, "single precision: one example's forward in a batch with larger companions is "
              "bit-identical to its forward alone for 50 random examples")


def test_c07_softmax_normalization():
    rng = np.random.default_rng(808)
    num_items = 25
    sessions = random_corpus(rng, 50, num_items)
    graph = build_global_graph(*csr(sessions), epsilon=3, top_n=12, num_items=num_items)
    cfg = ModelConfig(embedding_dim=12, k_hops=1, dropout_global=0.0)
    model = NextItemModel(num_items, max_len=12, config=cfg, seed=17)
    for _ in range(100):
        l = int(rng.integers(1, 11))
        prefix = tuple(int(x) for x in rng.integers(1, num_items + 1, size=l))
        batch = collate([pack_example(prefix, 1, graph, 1)])
        out = model.forward(batch)
        # neighbor attention: rows with any retained neighbor sum to 1
        alpha_g = out.global_attn[0].value  # (session-node rows, W)
        has_nbr = batch.rows.nbr_mask.any(axis=-1)
        assert np.all(np.abs(alpha_g[has_nbr].sum(-1) - 1.0) < 1e-6)
        # session-graph attention rows sum to 1
        alpha_s = out.session_attn.value  # (session-node rows, W_s)
        assert len(alpha_s) == batch.rows.ends[0]
        assert np.all(np.abs(alpha_s.sum(-1) - 1.0) < 1e-6)
        # prediction distribution sums to 1
        assert abs(out.probs.value[0].sum() - 1.0) < 1e-6
    report(7, "neighbor attention, session attention and prediction rows sum to 1 +/- 1e-6")


def test_c08_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(55)
    events = tmp_path / "events.csv"
    lines = []
    for s in range(40):
        t0 = int(rng.integers(0, 25)) * 86400
        for i in range(int(rng.integers(2, 7))):
            lines.append(f"s{s},i{int(rng.integers(1, 15))},{t0 + i * 30}")
    events.write_text("\n".join(lines) + "\n")
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(
        "seed: 13\n"
        "corpus: {min_item_freq: 1, test_window_days: 8}\n"
        "model: {embedding_dim: 8, k_hops: 1, dropout_global: 0.4}\n"
        "train: {max_epochs: 3, batch_size: 25}\n"
    )

    def run(workdir):
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"],
                    ["train"], ["evaluate"]):
            assert main(cmd + ["--config", str(cfgfile), "--work-dir", str(workdir)]) == 0

    run(tmp_path / "runA")
    run(tmp_path / "runB")
    compared = []
    for rel in ("checkpoints/model.ckpt", "reports/eval.txt", "reports/eval.jsonl",
                "corpus/examples.tsv", "graphs/global_graph.tsv"):
        a = (tmp_path / "runA" / rel).read_bytes()
        b = (tmp_path / "runB" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared.append(rel)
    report(8, f"two sequential runs byte-identical across {len(compared)} artifacts")


DIGINETICA_ENV = "SESSREC_DIGINETICA"


@pytest.mark.skipif(DIGINETICA_ENV not in os.environ,
                    reason="optional integration: set SESSREC_DIGINETICA to the "
                           "downloaded train-item-views.csv")
def test_c09_diginetica_statistics():
    t0 = time.perf_counter()
    path = Path(os.environ[DIGINETICA_ENV])
    events = []
    with open(path) as f:
        header = f.readline().rstrip("\n").split(";")
        cols = {name: i for i, name in enumerate(header)}
        rows = []
        for line in f:
            parts = line.rstrip("\n").split(";")
            rows.append((parts[cols["sessionId"]],
                         parts[cols["itemId"]],
                         int(parts[cols["timeframe"]]),
                         parts[cols["eventdate"]]))
    rows.sort(key=lambda r: (r[0], r[2]))
    seen_rank: dict = {}
    for sid, item, _tf, eventdate in rows:
        day = date.fromisoformat(eventdate)
        base = int((day - date(1970, 1, 1)).days) * 86400
        rank = seen_rank.get(sid, 0)
        seen_rank[sid] = rank + 1
        events.append((sid, item, base + rank))
    corpus = parse_sessions(([e[0] for e in events], [e[1] for e in events],
                             np.array([e[2] for e in events], dtype=np.int64)))
    filtered = filter_corpus(corpus, min_item_freq=5, min_session_len=2)
    train, test = temporal_split(filtered, 7 * 86400)
    examples = build_examples(train, test, validation_fraction=0.0, seed=1)

    stats = {
        "clicks": len(train.items) + len(test.items),
        "train": int(np.count_nonzero(examples.split != TEST)),
        "test": int(np.count_nonzero(examples.split == TEST)),
        "items": train.num_items,
    }
    stats["avg_len"] = stats["clicks"] / (len(train.keys) + len(test.keys))
    expected = {"clicks": 982961, "train": 719470, "test": 60858, "items": 43097, "avg_len": 5.12}
    for key, want in expected.items():
        got = stats[key]
        assert abs(got - want) / want <= 0.02, f"{key}: got {got}, expected {want} +/- 2%"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(9, f"Diginetica statistics within 2%: {stats} ({elapsed:.0f}s)")


@pytest.mark.skip(reason="stretch goal, not a gate: full-scale training guide lives in README "
                         "(expected P@20 within 2 points of 54.22 on Diginetica)")
def test_c10_full_scale_reproduction():
    pass
