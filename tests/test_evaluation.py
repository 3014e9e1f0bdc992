import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec import evaluation
from sessrec.batching import collate, pack_example
from sessrec.evaluation import (EvalReport, evaluate_packs, metrics, rank_of, ranks_for_packs,
                                render_table, rows_to_jsonl)
from sessrec.graphs import build_global_graph, csr
from sessrec.model import ModelConfig, NextItemModel
from sessrec.train import TrainConfig, run_ablations

from conftest import examples_from_sessions, pattern_sessions, random_corpus


def oracle_rank(scores, label):
    """Sort-and-scan: order items by descending score with ascending-index
    tie-break, then find the label's position."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(label - 1) + 1


class TestRankOf:
    def test_unique_max_is_rank_one(self):
        assert rank_of([0.1, 0.9, 0.3], 2) == 1

    def test_all_tied_smallest_index_wins(self):
        assert rank_of([0.5, 0.5, 0.5], 1) == 1
        assert rank_of([0.5, 0.5, 0.5], 2) == 2

    def test_hand_sorted_example(self):
        # scores (0.2, 0.9, 0.5): descending order is item2, item3, item1
        assert rank_of([0.2, 0.9, 0.5], 1) == 3

    def test_matches_sort_and_scan_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(2, 40))
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=m)  # force ties
            label = int(rng.integers(1, m + 1))
            assert rank_of(scores, label) == oracle_rank(scores.tolist(), label)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_batch_matches_row_by_row(self, data):
        b, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 30))
        scores = np.array(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                                             min_size=b, max_size=b)), dtype=np.float64)  # forces ties
        labels = np.array(data.draw(st.lists(st.integers(1, m), min_size=b, max_size=b)))
        ranks = rank_of(scores, labels)
        assert ranks.shape == (b,)
        assert ranks.tolist() == [rank_of(row, y) for row, y in zip(scores, labels)]
        assert ranks.tolist() == [oracle_rank(row.tolist(), y) for row, y in zip(scores, labels)]


class TestMetrics:
    def test_rank_one(self):
        assert metrics([1], 10) == (100.0, 100.0)

    def test_window_boundary(self):
        assert metrics([11], 10) == (0.0, 0.0)
        p20, mrr20 = metrics([11], 20)
        assert p20 == 100.0 and np.isclose(mrr20, 100.0 / 11)

    def test_hand_average(self):
        p10, mrr10 = metrics([1, 2, 4], 10)
        assert p10 == 100.0
        assert np.isclose(mrr10, 100.0 * (1 + 0.5 + 0.25) / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], 10)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ranks = rng.integers(1, 60, size=rng.integers(1, 40)).tolist()
            p10, mrr10 = metrics(ranks, 10)
            p20, mrr20 = metrics(ranks, 20)
            assert 0 <= mrr10 <= p10 <= 100
            assert 0 <= mrr20 <= p20 <= 100
            assert p10 <= p20 and mrr10 <= mrr20


class TestAblationHarness:
    def _inputs(self):
        sessions = pattern_sessions(n_sessions=30, n_patterns=3, cycle=3, length=4)
        examples = examples_from_sessions(sessions, validation_fraction=0.2, seed=2)
        # mark a third of examples as test
        n = len(examples)
        relabeled = []
        for i, e in enumerate(examples):
            split = "test" if i % 3 == 0 else e.split
            relabeled.append(type(e)(e.prefix, e.label, split))
        graph = build_global_graph(*csr(sessions), epsilon=2, top_n=12, num_items=9)
        return relabeled, 9, graph

    def test_grid_produces_report_per_config(self):
        examples, n_items, graph = self._inputs()
        base_m = ModelConfig(embedding_dim=8, dropout_global=0.0)
        base_t = TrainConfig(batch_size=16, max_epochs=1, patience=1, seed=4)
        grid = [("w/o global", {"k_hops": 0}, {}),
                ("1-hop", {"k_hops": 1}, {}),
                ("2-hop", {"k_hops": 2}, {})]
        rows = run_ablations(examples, n_items, 4, graph, base_m, base_t, grid,
                             fingerprint="fp123")
        assert len(rows) == 3
        assert all("report" in r for r in rows)
        assert {r["report"].fingerprint for r in rows} == {"fp123"}

    def test_failing_config_recorded_and_grid_continues(self):
        examples, n_items, graph = self._inputs()
        base_m = ModelConfig(embedding_dim=8, dropout_global=0.0)
        base_t = TrainConfig(batch_size=16, max_epochs=1, patience=1, seed=4)
        grid = [("bad", {"k_hops": 0, "use_session_layer": False}, {}),
                ("good", {"k_hops": 1}, {})]
        rows = run_ablations(examples, n_items, 4, graph, base_m, base_t, grid)
        assert "error" in rows[0] and "report" in rows[1]

    def test_table_and_jsonl_rendering(self):
        report = EvalReport("sum", 50.0, 60.0, 20.0, 21.0, 123, "fp")
        rows = [{"label": "sum", "report": report}, {"label": "oops", "error": "ValueError: nope"}]
        table = render_table(rows)
        assert "P@20" in table and "sum" in table and "error" in table
        jsonl = rows_to_jsonl(rows)
        assert len(jsonl.strip().splitlines()) == 2


@st.composite
def shuffled_packs(draw):
    """Packs of every prefix of a toy corpus, in a drawn order."""
    k_hops = draw(st.integers(0, 2))
    n_items = draw(st.integers(2, 20))
    sessions = draw(st.lists(st.lists(st.integers(1, n_items), min_size=2, max_size=8),
                             min_size=1, max_size=10))
    graph = build_global_graph(*csr(sessions), epsilon=2, top_n=draw(st.integers(1, 5)), num_items=n_items)
    examples = draw(st.permutations([(s[:k], s[k]) for s in sessions for k in range(1, len(s))]))
    packs = [pack_example(prefix, label, graph, k_hops) for prefix, label in examples]
    return k_hops, n_items, packs, draw(st.integers(1, 7))


class TestRanksForPacks:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_packs())
    def test_ranks_come_back_in_stored_order(self, case):
        k_hops, n_items, packs, batch_size = case
        model = NextItemModel(n_items, 7, ModelConfig(embedding_dim=8, k_hops=k_hops))
        alone = [ranks_for_packs(model, [p], batch_size=1)[0] for p in packs]
        assert ranks_for_packs(model, packs, batch_size) == alone

    def test_batches_are_cut_in_padded_size_order(self, monkeypatch):
        rng = np.random.default_rng(3)
        sessions = random_corpus(rng, 30, 40, max_len=8)
        graph = build_global_graph(*csr(sessions), epsilon=2, top_n=4, num_items=40)
        packs = [pack_example(s[:k], s[k], graph, 2) for s in sessions for k in range(1, len(s))]
        keys = [(p.num_nodes, p.frontier_size) for p in packs]
        assert keys != sorted(keys)  # stored order alone would not pass
        batches = []

        def spy(chunk):
            batches.append([(p.num_nodes, p.frontier_size) for p in chunk])
            return collate(chunk)

        monkeypatch.setattr(evaluation, "collate", spy)
        model = NextItemModel(40, 7, ModelConfig(embedding_dim=8, k_hops=2))
        ranks_for_packs(model, packs, batch_size=9)
        arrived = [key for batch in batches for key in batch]
        assert arrived == sorted(keys)
        assert all(len(batch) == 9 for batch in batches[:-1]) and 1 <= len(batches[-1]) <= 9


class TestLengthBuckets:
    def _packs(self):
        rng = np.random.default_rng(4)
        sessions = random_corpus(rng, 20, 15, min_len=2, max_len=10)
        graph = build_global_graph(*csr(sessions), epsilon=2, top_n=4, num_items=15)
        return [pack_example(s[:k], s[k], graph, 1) for s in sessions for k in range(1, len(s))]

    def test_short_and_long_metrics_over_their_own_ranks(self):
        packs = self._packs()
        model = NextItemModel(15, 9, ModelConfig(embedding_dim=8, k_hops=1))
        ranks = np.array(ranks_for_packs(model, packs, batch_size=10))
        short = np.array([p.length <= 5 for p in packs])
        assert short.any() and not short.all()
        row = evaluate_packs(model, packs, batch_size=10).row()
        for bucket, sel in (("short", short), ("long", ~short)):
            p20, mrr20 = metrics(ranks[sel], 20)
            assert (row[f"P@20_{bucket}"], row[f"MRR@20_{bucket}"]) == (p20, mrr20)
            assert row[f"examples_{bucket}"] == int(sel.sum())
        assert row["examples"] == len(packs) and (row["P@20"], row["MRR@20"]) == metrics(ranks, 20)

    def test_bucket_without_examples_is_left_out(self):
        packs = [p for p in self._packs() if p.length <= 5]
        model = NextItemModel(15, 9, ModelConfig(embedding_dim=8, k_hops=1))
        row = evaluate_packs(model, packs, batch_size=10).row()
        assert row["examples_short"] == len(packs)
        assert not any(key.endswith("_long") for key in row)

    def test_rendered_table_keeps_its_columns(self):
        report = EvalReport("sum", 50.0, 60.0, 20.0, 21.0, 123, "fp",
                            by_length={"short": (70.0, 30.0, 100), "long": (17.0, 5.0, 23)})
        assert render_table([{"label": "sum", "report": report}]) == render_table(
            [{"label": "sum", "report": EvalReport("sum", 50.0, 60.0, 20.0, 21.0, 123, "fp")}])
        row = report.row()
        assert (row["P@20_long"], row["MRR@20_long"], row["examples_long"]) == (17.0, 5.0, 23)
