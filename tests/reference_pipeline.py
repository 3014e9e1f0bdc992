"""The per-event set-up pipeline that `sessrec preprocess` and
`sessrec build-graph` ran before they worked on columnar arrays, kept as a
test oracle: one Python object per event, per example and per item pair,
and the global graph as its own item -> [(neighbor, weight)] dict, so the
oracle does not depend on the types it checks.  `write_stage_files` writes
the stage files the way the two commands did.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from sessrec.corpus import SECONDS_PER_DAY, CorpusError, Example


@dataclass(frozen=True)
class RawEvent:
    session_id: str
    item_id: str
    timestamp: int

    def __post_init__(self):
        if not self.session_id or not self.item_id:
            raise CorpusError("event fields must be non-empty")
        if self.timestamp < 0:
            raise CorpusError(f"negative timestamp {self.timestamp}")


@dataclass
class Session:
    key: str
    items: list[int]
    last_timestamp: int


@dataclass
class SessionCorpus:
    sessions: list[Session] = field(default_factory=list)
    vocab: dict[str, int] = field(default_factory=dict)  # raw item id -> dense index

    @property
    def num_items(self) -> int:
        return len(self.vocab)

    @property
    def num_clicks(self) -> int:
        return sum(len(s.items) for s in self.sessions)

    def inverse_vocab(self) -> dict[int, str]:
        return {idx: raw for raw, idx in self.vocab.items()}


def read_events(lines, delimiter=None):
    """Parse delimiter-separated event lines into RawEvents.

    Lines are `session_id<sep>item_id<sep>timestamp`.  A header line is
    auto-detected (non-integer timestamp field on line 1).  Malformed lines
    raise CorpusError naming the line number.
    """
    events = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        sep = delimiter
        if sep is None:
            sep = "\t" if "\t" in line else ","
        parts = [p.strip() for p in line.split(sep)]
        if len(parts) != 3:
            raise CorpusError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            ts = int(parts[2])
        except ValueError:
            if lineno == 1:
                continue  # header
            raise CorpusError(f"line {lineno}: bad timestamp {parts[2]!r}") from None
        try:
            events.append(RawEvent(parts[0], parts[1], ts))
        except CorpusError as e:
            raise CorpusError(f"line {lineno}: {e}") from None
    return events


def parse_sessions(events) -> SessionCorpus:
    """Group events by session, sort within sessions by timestamp (stable),
    and assign vocabulary indices in first-seen stream order."""
    vocab: dict[str, int] = {}
    grouped: dict[str, list[tuple[int, int]]] = {}
    order: list[str] = []
    for ev in events:
        if not isinstance(ev, RawEvent):
            ev = RawEvent(*ev)
        if ev.item_id not in vocab:
            vocab[ev.item_id] = len(vocab) + 1
        if ev.session_id not in grouped:
            grouped[ev.session_id] = []
            order.append(ev.session_id)
        grouped[ev.session_id].append((ev.timestamp, vocab[ev.item_id]))
    sessions = []
    for key in order:
        evs = sorted(grouped[key], key=lambda t: t[0])  # stable: ties keep input order
        sessions.append(Session(key, [idx for _, idx in evs], max(t for t, _ in evs)))
    return SessionCorpus(sessions, vocab)


def _redensify(sessions: list[Session], old_inverse: dict[int, str]) -> SessionCorpus:
    """Rebuild a dense vocabulary (preserving old index order) over the items
    that actually occur in `sessions`."""
    used = set()
    for s in sessions:
        used.update(s.items)
    remap = {old: new + 1 for new, old in enumerate(sorted(used))}
    vocab = {old_inverse[old]: new for old, new in remap.items()}
    out_sessions = [Session(s.key, [remap[i] for i in s.items], s.last_timestamp) for s in sessions]
    return SessionCorpus(out_sessions, vocab)


def filter_corpus(corpus: SessionCorpus, min_item_freq: int = 5, min_session_len: int = 2) -> SessionCorpus:
    """Drop rare items, then short sessions, then re-densify the vocabulary.

    One pass each, in that order (not iterated to a fixpoint).
    """
    freq: dict[int, int] = {}
    for s in corpus.sessions:
        for i in s.items:
            freq[i] = freq.get(i, 0) + 1
    keep_items = {i for i, c in freq.items() if c >= min_item_freq}
    filtered = []
    for s in corpus.sessions:
        items = [i for i in s.items if i in keep_items]
        if len(items) >= min_session_len:
            filtered.append(Session(s.key, items, s.last_timestamp))
    if not filtered:
        raise CorpusError("corpus is empty after filtering")
    return _redensify(filtered, corpus.inverse_vocab())


def temporal_split(corpus: SessionCorpus, test_window: int = 7 * SECONDS_PER_DAY):
    """Split by session end time: sessions ending within `test_window` seconds
    of the latest end time become test data, the rest train.

    Test items unseen in the train partition are stripped, then test sessions
    shorter than 2 are dropped.  Both partitions are re-indexed against the
    train vocabulary.
    """
    if not corpus.sessions:
        raise CorpusError("cannot split an empty corpus")
    boundary = max(s.last_timestamp for s in corpus.sessions) - test_window
    train_sessions = [s for s in corpus.sessions if s.last_timestamp <= boundary]
    test_sessions = [s for s in corpus.sessions if s.last_timestamp > boundary]
    if not train_sessions:
        raise CorpusError("temporal split produced an empty train partition")
    if not test_sessions:
        raise CorpusError("temporal split produced an empty test partition")

    inverse = corpus.inverse_vocab()
    train = _redensify(train_sessions, inverse)
    # remap test sessions through the train vocabulary, dropping unseen items
    old_to_new = {}
    for raw, new in train.vocab.items():
        old_to_new[corpus.vocab[raw]] = new
    remapped = []
    for s in test_sessions:
        items = [old_to_new[i] for i in s.items if i in old_to_new]
        if len(items) >= 2:
            remapped.append(Session(s.key, items, s.last_timestamp))
    if not remapped:
        raise CorpusError("temporal split produced an empty test partition")
    test = SessionCorpus(remapped, dict(train.vocab))
    return train, test


def split_sequences(corpus: SessionCorpus):
    """Sequence-splitting augmentation: a session [s1..sn] yields the n-1
    pairs (prefix [s1..sk], label s(k+1)) for k = 1..n-1."""
    pairs = []
    for s in corpus.sessions:
        for k in range(1, len(s.items)):
            pairs.append((tuple(s.items[:k]), s.items[k]))
    return pairs


def build_examples(train: SessionCorpus, test: SessionCorpus, validation_fraction: float = 0.1, seed: int = 1):
    """Augment both partitions and carve a seeded random validation subset
    out of the train examples."""
    train_pairs = split_sequences(train)
    test_pairs = split_sequences(test)
    n_valid = int(len(train_pairs) * validation_fraction)
    rng = random.Random(seed)
    valid_idx = set(rng.sample(range(len(train_pairs)), n_valid)) if n_valid else set()
    examples = [
        Example(prefix, label, "validation" if i in valid_idx else "train")
        for i, (prefix, label) in enumerate(train_pairs)
    ]
    examples.extend(Example(prefix, label, "test") for prefix, label in test_pairs)
    return examples


# -- artifact files -----------------------------------------------------------


def write_examples(path, examples):
    with open(path, "w") as f:
        for ex in examples:
            f.write(" ".join(str(i) for i in ex.prefix) + f"\t{ex.label}\t{ex.split}\n")


def write_vocab(path, vocab):
    with open(path, "w") as f:
        for raw, idx in sorted(vocab.items(), key=lambda kv: kv[1]):
            f.write(f"{raw}\t{idx}\n")


def write_sessions(path, corpus: SessionCorpus, split_name: str):
    with open(path, "a") as f:
        for s in corpus.sessions:
            seq = " ".join(str(i) for i in s.items)
            f.write(f"{s.key}\t{seq}\t{s.last_timestamp}\t{split_name}\n")


def cooccurrence_weights(sequences, epsilon: int) -> Counter:
    """Symmetric pair weights: each (position, offset<=epsilon) occurrence of an
    unordered item pair adds one.  Pairs of an item with itself are skipped."""
    weights: Counter = Counter()
    for seq in sequences:
        n = len(seq)
        for i in range(n):
            for dj in range(1, epsilon + 1):
                j = i + dj
                if j >= n:
                    break
                a, b = seq[i], seq[j]
                if a == b:
                    continue
                weights[(min(a, b), max(a, b))] += 1
    return weights


def build_global_graph(sequences, epsilon: int = 3, top_n: int = 12) -> dict:
    """The pruned co-occurrence graph of training sessions: item -> [(neighbor, weight)]."""
    weights = cooccurrence_weights(sequences, epsilon)
    adj: dict[int, list[tuple[int, int]]] = {}
    for (a, b), w in weights.items():
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    pruned = {}
    for item, nbrs in adj.items():
        nbrs.sort(key=lambda nw: (-nw[1], nw[0]))
        pruned[item] = nbrs[:top_n]
    return pruned


def write_global_graph(path, graph: dict, num_items: int, epsilon: int, top_n: int):
    """Line-delimited export `item\tneighbor\tweight`, sorted."""
    with open(path, "w") as f:
        f.write(f"# num_items={num_items} epsilon={epsilon} top_n={top_n}\n")
        for item in sorted(graph):
            for nbr, w in graph[item]:
                f.write(f"{item}\t{nbr}\t{w}\n")


def write_stage_files(events_path, corpus_dir, graph_dir, *, delimiter=None, min_item_freq=5,
                      min_session_len=2, test_window_days=7.0, validation_fraction=0.1, seed=1,
                      epsilon=3, top_n=12):
    """sessions.tsv, examples.tsv, vocab.tsv and meta.json into `corpus_dir`,
    global_graph.tsv into `graph_dir`."""
    with open(events_path) as f:
        events = read_events(f, delimiter=delimiter)
    corpus = parse_sessions(events)
    filtered = filter_corpus(corpus, min_item_freq, min_session_len)
    train, test = temporal_split(filtered, int(test_window_days * 86400))
    examples = build_examples(train, test, validation_fraction, seed)

    sessions_path = corpus_dir / "sessions.tsv"
    sessions_path.write_text("")
    write_sessions(sessions_path, train, "train")
    write_sessions(sessions_path, test, "test")
    write_examples(corpus_dir / "examples.tsv", examples)
    write_vocab(corpus_dir / "vocab.tsv", train.vocab)

    all_sessions = train.sessions + test.sessions
    meta = {
        "num_items": train.num_items,
        "max_prefix_len": max(len(e.prefix) for e in examples),
        "num_clicks": sum(len(s.items) for s in all_sessions),
        "num_train_examples": sum(1 for e in examples if e.split in ("train", "validation")),
        "num_test_examples": sum(1 for e in examples if e.split == "test"),
        "num_train_sessions": len(train.sessions),
        "num_test_sessions": len(test.sessions),
        "avg_session_len": round(sum(len(s.items) for s in all_sessions) / len(all_sessions), 4),
    }
    (corpus_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    graph = build_global_graph([s.items for s in train.sessions], epsilon, top_n)
    write_global_graph(graph_dir / "global_graph.tsv", graph, meta["num_items"], epsilon, top_n)
