import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec.corpus import (SPLITS, TEST, CorpusError, Example, build_examples,
                            filter_corpus, parse_sessions, read_events,
                            read_examples, temporal_split, write_examples)

DAY = 86400


def corpus_of(events):
    return parse_sessions(([e[0] for e in events], [e[1] for e in events],
                           np.array([e[2] for e in events], dtype=np.int64)))


def sequences(corpus):
    return [corpus.items[a:b].tolist() for a, b in zip(corpus.offsets[:-1], corpus.offsets[1:])]


def seqs(corpus):
    return dict(zip(corpus.keys.tolist(), sequences(corpus)))


def vocab(corpus):
    return {raw: idx for idx, raw in enumerate(corpus.item_ids.tolist(), start=1)}


def pairs(corpus):
    """(prefix, label) pairs of sequence splitting, from the example table."""
    table = build_examples(corpus, corpus, validation_fraction=0.0)
    part = table.split == TEST
    seq = sequences(corpus)
    return [(tuple(seq[r][:k]), seq[r][k]) for r, k in zip(table.row[part].tolist(),
                                                          table.length[part].tolist())]


def materialised(table):
    """The Example objects an ExampleTable stands for, in file order."""
    out = []
    for corpus, part in ((table.train, table.split != TEST), (table.test, table.split == TEST)):
        seq = sequences(corpus)
        out += [Example(tuple(seq[r][:k]), seq[r][k], SPLITS[code]) for r, k, code in
                zip(table.row[part].tolist(), table.length[part].tolist(), table.split[part].tolist())]
    return out


class TestParse:
    def test_direct_grouping(self):
        c = corpus_of([("s1", "101", 1), ("s1", "102", 2)])
        assert seqs(c) == {"s1": [1, 2]}
        assert vocab(c) == {"101": 1, "102": 2}

    def test_sorted_by_timestamp_not_input_order(self):
        c = corpus_of([("s1", "101", 2), ("s1", "102", 1)])
        assert seqs(c) == {"s1": [2, 1]}

    def test_interleaved_sessions(self):
        # hand grouping: three sessions, two events each, arriving interleaved
        events = [("a", "x", 1), ("b", "y", 2), ("c", "z", 3),
                  ("a", "y", 4), ("b", "z", 5), ("c", "x", 6)]
        c = corpus_of(events)
        assert len(c.keys) == 3
        assert all(len(s) == 2 for s in sequences(c))

    def test_timestamp_ties_keep_input_order(self):
        c = corpus_of([("s", "a", 5), ("s", "b", 5), ("s", "c", 5)])
        assert seqs(c) == {"s": [1, 2, 3]}

    def test_empty_input_gives_empty_corpus(self):
        c = parse_sessions(read_events([]))
        assert len(c.keys) == 0 and c.num_items == 0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(CorpusError, match="line 2"):
            read_events(["s1,a,1", "s1,a"])
        with pytest.raises(CorpusError, match="line 3"):
            read_events(["s1,a,1", "s1,b,2", "s1,c,notatime"])

    def test_header_autodetected(self):
        events = read_events(["session_id,item_id,timestamp", "s1,a,1", "s1,b,2"])
        assert len(events[0]) == 2

    def test_header_only_on_line_one(self):
        with pytest.raises(CorpusError, match="line 2: bad timestamp 'timestamp'"):
            read_events(["", "session_id,item_id,timestamp", "s1,a,1"])

    def test_tab_delimiter_autodetected(self):
        events = read_events(["s1\ta\t1", "s1\tb\t2"])
        assert len(events[0]) == 2

    def test_negative_timestamp_rejected(self):
        with pytest.raises(CorpusError, match="line 1: negative timestamp -1"):
            read_events(["s,a,-1"])

    def test_negative_timestamp_reports_line_number(self):
        with pytest.raises(CorpusError, match="line 3: negative timestamp -5"):
            read_events(["s1,a,1", "", "s1,b,-5", "s1,c,notatime"])

    def test_empty_field_reports_line_number(self):
        with pytest.raises(CorpusError, match="line 2: event fields must be non-empty"):
            read_events(["s1,a,1", "s1, ,2", "s1,c,-1"])
        with pytest.raises(CorpusError, match="line 4: event fields must be non-empty"):
            read_events(["session,item,time", "s1,a,1", "", ",b,2"])

    def test_first_malformed_line_wins(self):
        # each line breaks a different rule; the earliest line is reported
        bad = ["s1,a", "s1,a,x", "s1,,1", "s1,a,-1"]
        for k in range(len(bad)):
            lines = ["s0,a,0"] + bad[k:] + bad[:k]
            with pytest.raises(CorpusError, match="line 2: "):
                read_events(lines)


class TestFilter:
    def test_both_filters_trigger_empty_error(self):
        c = corpus_of([("A", "5", 1)])
        with pytest.raises(CorpusError, match="empty after filtering"):
            filter_corpus(c)

    def test_hand_counted_frequencies(self):
        # freq: item1 x1, item2 x3, item3 x2 -> item1 dropped, then A shrinks to
        # length 1 and is dropped; B and C survive
        c = corpus_of([("A", "1", 1), ("A", "2", 2),
                       ("B", "2", 3), ("B", "3", 4),
                       ("C", "2", 5), ("C", "3", 6)])
        f = filter_corpus(c, min_item_freq=2)
        assert set(f.keys) == {"B", "C"}
        assert vocab(f) == {"2": 1, "3": 2}
        assert seqs(f) == {"B": [1, 2], "C": [1, 2]}

    def test_fixpoint_input_unchanged(self):
        events = [("s1", "a", i) for i in range(5)] + [("s2", "a", 10), ("s2", "a", 11)]
        c = corpus_of(events)
        f = filter_corpus(c)
        assert seqs(f) == seqs(c) and vocab(f) == vocab(c)

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        events = [(f"s{rng.integers(8)}", str(rng.integers(6)), int(rng.integers(100)))
                  for _ in range(120)]
        c = corpus_of(events)
        once = filter_corpus(c, min_item_freq=3)
        twice = filter_corpus(once, min_item_freq=3)
        assert seqs(once) == seqs(twice) and vocab(once) == vocab(twice)

    def test_vocabulary_density(self):
        rng = np.random.default_rng(1)
        events = [(f"s{rng.integers(10)}", str(rng.integers(12)), int(rng.integers(100)))
                  for _ in range(150)]
        f = filter_corpus(corpus_of(events), min_item_freq=4)
        indices = sorted(vocab(f).values())
        assert indices == list(range(1, len(indices) + 1))
        used = {i for s in sequences(f) for i in s}
        assert used == set(indices)


class TestTemporalSplit:
    def test_boundary_arithmetic(self):
        c = corpus_of([("early", "a", 1 * DAY), ("early", "b", 1 * DAY + 1),
                       ("late", "a", 10 * DAY), ("late", "b", 10 * DAY + 1)])
        train, test = temporal_split(c, 7 * DAY)
        assert train.keys.tolist() == ["early"]
        assert test.keys.tolist() == ["late"]

    def test_unseen_item_stripped_then_short_session_dropped(self):
        # te1 holds an item never seen in train: [x, y] -> [x] -> dropped
        c = corpus_of([("tr", "x", 0), ("tr", "z", 1),
                       ("te1", "x", 30 * DAY), ("te1", "y", 30 * DAY + 1),
                       ("te2", "x", 30 * DAY), ("te2", "z", 30 * DAY + 1)])
        train, test = temporal_split(c, 7 * DAY)
        assert "y" not in vocab(train)
        assert test.keys.tolist() == ["te2"]
        assert len(sequences(test)[0]) == 2

    def test_empty_test_partition_is_error(self):
        c = corpus_of([("tr", "x", 0), ("tr", "x", 1),
                       ("te", "x", 30 * DAY), ("te", "y", 30 * DAY + 1)])
        with pytest.raises(CorpusError, match="empty test"):
            temporal_split(c, 7 * DAY)

    def test_uniform_sessions_over_30_days(self):
        # enumerate timestamps: sessions end on days 1..30; boundary = day 30 - 7
        events = []
        for day in range(1, 31):
            events += [(f"s{day}", "a", day * DAY), (f"s{day}", "b", day * DAY + 1)]
        train, test = temporal_split(corpus_of(events), 7 * DAY)
        expected_test = {f"s{day}" for day in range(24, 31)}  # last_ts > 23d+1s
        assert set(test.keys) == expected_test
        assert len(train.keys) == 30 - len(expected_test)


class TestSplitSequences:
    def test_prefix_label_pairs(self):
        c = corpus_of([("s", "1", 1), ("s", "2", 2), ("s", "3", 3)])
        assert pairs(c) == [((1,), 2), ((1, 2), 3)]

    def test_repeated_item_allowed(self):
        c = corpus_of([("s", "7", 1), ("s", "7", 2)])
        assert pairs(c) == [((1,), 1)]

    def test_example_count_is_sum_of_lengths_minus_one(self):
        events = []
        for key, n in (("a", 2), ("b", 3), ("c", 5)):
            events += [(key, str(i), i) for i in range(n)]
        c = corpus_of(events)
        assert len(pairs(c)) == 1 + 2 + 4

    @given(st.lists(st.lists(st.integers(1, 5), min_size=2, max_size=8), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_augmentation_count_property(self, raw_sessions):
        events = []
        for k, seq in enumerate(raw_sessions):
            events += [(f"s{k}", str(item), i) for i, item in enumerate(seq)]
        c = corpus_of(events)
        assert len(pairs(c)) == sum(len(s) - 1 for s in raw_sessions)


class TestExamples:
    def _corpora(self):
        events = []
        for k in range(10):
            day = 1 + 3 * k
            events += [(f"s{k}", str(k % 3), day * DAY), (f"s{k}", str((k + 1) % 3), day * DAY + 1)]
        return temporal_split(corpus_of(events), 7 * DAY)

    def test_validation_fraction_and_splits(self):
        train, test = self._corpora()
        examples = build_examples(train, test, validation_fraction=0.5, seed=3)
        n_train_pairs = len(pairs(train))
        n_valid = sum(1 for e in materialised(examples) if e.split == "validation")
        assert n_valid == int(n_train_pairs * 0.5)
        assert sum(1 for e in materialised(examples) if e.split == "test") == len(pairs(test))

    def test_determinism(self):
        train, test = self._corpora()
        a = build_examples(train, test, seed=11)
        b = build_examples(train, test, seed=11)
        assert materialised(a) == materialised(b)

    def test_example_invariants(self):
        with pytest.raises(CorpusError):
            Example((), 1, "train")
        with pytest.raises(CorpusError):
            Example((1,), 0, "train")

    def test_file_round_trip(self, tmp_path):
        train, test = self._corpora()
        examples = build_examples(train, test, seed=1)
        path = tmp_path / "examples.tsv"
        write_examples(path, examples)
        assert read_examples(path) == materialised(examples)
