"""Clickstream ingestion: parse, filter, split and augment session logs.

The pipeline is read -> parse -> filter -> temporal split -> prefix
augmentation, each step on columnar arrays.  Items are mapped to a dense
vocabulary of indices 1..m (0 is reserved for padding everywhere
downstream).  A `SessionCorpus` holds its sessions in CSR form, and an
`ExampleTable` names each example by session row and prefix length;
`write_examples` cuts the prefixes out of the sessions' text.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import compress, repeat

import numpy as np

SECONDS_PER_DAY = 86400
SPLITS = ("train", "validation", "test")  # ExampleTable.split codes
TRAIN, VALIDATION, TEST = range(3)


class CorpusError(ValueError):
    """Raised for malformed input or degenerate corpora."""


@dataclass
class SessionCorpus:
    keys: np.ndarray        # (S,) raw session ids (object)
    offsets: np.ndarray     # (S + 1,) session r is items[offsets[r]:offsets[r + 1]], in time order
    items: np.ndarray       # (offsets[-1],) int64 item indices 1..m
    last_ts: np.ndarray     # (S,) latest timestamp of the session's raw events, kept through filtering
    item_ids: np.ndarray    # (m,) raw id of item i at [i - 1] (object)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def event_rows(self) -> np.ndarray:
        """Session row of each entry of `items`."""
        return np.repeat(np.arange(len(self.keys)), np.diff(self.offsets))


@dataclass(frozen=True)
class Example:
    prefix: tuple[int, ...]
    label: int
    split: str  # train | validation | test

    def __post_init__(self):
        if len(self.prefix) < 1:
            raise CorpusError("example prefix must be non-empty")
        if self.label == 0:
            raise CorpusError("example label must be a real item index")


@dataclass
class ExampleTable:
    """Example j is the first `length[j]` items of session `row[j]` of `train`
    (splits train and validation, listed first) or `test`, labelled with the next item."""
    train: SessionCorpus
    test: SessionCorpus
    row: np.ndarray
    length: np.ndarray
    split: np.ndarray       # codes into SPLITS


def _ints(strings) -> list:
    """int() of each string, up to the first one it rejects."""
    out = []
    with suppress(ValueError):
        out.extend(map(int, strings))
    return out


def read_events(lines, delimiter=None):
    """Parse `session_id<sep>item_id<sep>timestamp` lines into the columns
    (session ids, item ids, int64 timestamps).

    Without a delimiter each line uses tab if it has one, else comma.  Blank
    lines are skipped, fields are stripped, and a header line is
    auto-detected (non-integer timestamp field on line 1).  The first
    malformed line raises a CorpusError naming its line number.
    """
    lines = [line.rstrip("\n") for line in lines]
    nonblank = list(map(bool, map(str.strip, lines)))
    rows = list(compress(lines, nonblank))
    header = bool(lines) and nonblank[0]  # line 1 may be a header
    sep = "," if delimiter is None else delimiter
    if delimiter is None and any("\t" in row for row in rows):
        rows, sep = [row.replace("\t" if "\t" in row else ",", "\n") for row in rows], "\n"
    counts = np.fromiter(map(str.count, rows, repeat(sep)), dtype=np.int64, count=len(rows)) + 1
    wrong = np.flatnonzero(counts != 3)
    n = int(wrong[0]) if len(wrong) else len(rows)  # rows [0, n) have three fields
    text = "\n".join(rows[:n]).replace(sep, "\n")  # the fields, one per line: no row holds a break
    del rows
    fields = text.split("\n") if n else []
    del text
    sessions, items, stamps = (list(map(str.strip, fields[k::3])) for k in range(3))
    del fields
    first = int(header and n > 0 and not _ints(stamps[:1]))  # rows [first, n) are events
    ts = _ints(stamps[first:])
    if ts and not -2**63 <= min(ts) <= max(ts) < 2**63:  # beyond int64: a bad timestamp
        ts = ts[:next(k for k, t in enumerate(ts) if not -2**63 <= t < 2**63)]
    timestamps = np.array(ts, dtype=np.int64)

    problems = []  # (row, message): the earliest row wins, then list order
    if first + len(ts) < n:
        problems.append((first + len(ts), f"bad timestamp {stamps[first + len(ts)]!r}"))
    problems += [(col.index("", first), "event fields must be non-empty")
                 for col in (sessions, items) if "" in col[first:]]
    negative = np.flatnonzero(timestamps < 0)
    if len(negative):
        problems.append((first + negative[0], f"negative timestamp {timestamps[negative[0]]}"))
    if n < len(counts):
        problems.append((n, f"expected 3 fields, got {counts[n]}"))
    if problems:
        row, message = min(problems, key=lambda p: p[0])
        raise CorpusError(f"line {list(compress(range(1, len(nonblank) + 1), nonblank))[row]}: {message}")
    return sessions[first:], items[first:], timestamps


def _factorize(values):
    """Codes 0.. in first-seen order, and the distinct values in that order."""
    index = dict.fromkeys(values)
    for code, value in enumerate(index):
        index[value] = code
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))
    return codes, np.array(list(index), dtype=object)


def parse_sessions(events) -> SessionCorpus:
    """Group `read_events` columns by session in first-seen order, sort each
    session by timestamp (stable: ties keep input order), and index items in
    first-seen stream order."""
    sessions, items, timestamps = events
    session, keys = _factorize(sessions)
    item, item_ids = _factorize(items)
    order = np.lexsort((timestamps, session))
    offsets = np.r_[0, np.cumsum(np.bincount(session, minlength=len(keys)))]
    return SessionCorpus(keys, offsets, item[order] + 1, timestamps[order][offsets[1:] - 1], item_ids)


def _keep(corpus: SessionCorpus, event_keep, min_len: int, items=None) -> SessionCorpus:
    """`corpus` cut to the events in `event_keep` and then to the sessions
    with at least `min_len` of them; `items` replaces the item indices."""
    rows = corpus.event_rows()
    lengths = np.bincount(rows[event_keep], minlength=len(corpus.keys))
    keep = lengths >= min_len
    items = corpus.items if items is None else items
    return SessionCorpus(corpus.keys[keep], np.r_[0, np.cumsum(lengths[keep])],
                         items[event_keep & keep[rows]], corpus.last_ts[keep], corpus.item_ids)


def _densify(corpus: SessionCorpus):
    """Old index -> new index (0: unused) over the items `corpus` uses, in
    old index order, and the raw ids of the new vocabulary."""
    used = np.zeros(corpus.num_items + 1, dtype=bool)
    used[corpus.items] = True
    return np.where(used, np.cumsum(used), 0), corpus.item_ids[used[1:]]


def filter_corpus(corpus: SessionCorpus, min_item_freq: int = 5, min_session_len: int = 2) -> SessionCorpus:
    """Drop rare items, then short sessions, then re-densify the vocabulary.

    One pass each, in that order (not iterated to a fixpoint).
    """
    freq = np.bincount(corpus.items, minlength=corpus.num_items + 1)
    filtered = _keep(corpus, freq[corpus.items] >= min_item_freq, min_session_len)
    if not len(filtered.keys):
        raise CorpusError("corpus is empty after filtering")
    index, item_ids = _densify(filtered)
    return replace(filtered, items=index[filtered.items], item_ids=item_ids)


def temporal_split(corpus: SessionCorpus, test_window: int = 7 * SECONDS_PER_DAY):
    """Split by session end time: sessions ending within `test_window` seconds
    of the latest end time become test data, the rest train.

    Test items unseen in the train partition are stripped, then test sessions
    shorter than 2 are dropped.  Both partitions are re-indexed against the
    train vocabulary.
    """
    if not len(corpus.keys):
        raise CorpusError("cannot split an empty corpus")
    is_train = (corpus.last_ts <= corpus.last_ts.max() - test_window)[corpus.event_rows()]
    if not is_train.any():
        raise CorpusError("temporal split produced an empty train partition")
    if is_train.all():
        raise CorpusError("temporal split produced an empty test partition")
    index, item_ids = _densify(_keep(corpus, is_train, 1))
    remapped = index[corpus.items]
    train = replace(_keep(corpus, is_train, 1, remapped), item_ids=item_ids)
    test = replace(_keep(corpus, ~is_train & (remapped > 0), 2, remapped), item_ids=item_ids)
    if not len(test.keys):
        raise CorpusError("temporal split produced an empty test partition")
    return train, test


def _prefixes(corpus: SessionCorpus):
    """(row, length) of the prefixes [s1..sk], k = 1..n-1, of each session [s1..sn]."""
    counts = np.diff(corpus.offsets) - 1
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts) + 1


def build_examples(train: SessionCorpus, test: SessionCorpus, validation_fraction: float = 0.1,
                   seed: int = 1) -> ExampleTable:
    """Augment both partitions and carve a seeded random validation subset
    out of the train examples."""
    (train_rows, train_lengths), (test_rows, test_lengths) = _prefixes(train), _prefixes(test)
    split = np.repeat(np.array([TRAIN, TEST], dtype=np.int8), (len(train_rows), len(test_rows)))
    n_valid = int(len(train_rows) * validation_fraction)
    if n_valid:
        split[random.Random(seed).sample(range(len(train_rows)), n_valid)] = VALIDATION
    return ExampleTable(train, test, np.concatenate((train_rows, test_rows)),
                        np.concatenate((train_lengths, test_lengths)), split)


# -- artifact files -----------------------------------------------------------


def _text(corpus: SessionCorpus):
    """The item indices as one space-joined string, each one's string, and
    each one's start in the text (item k is text[start[k]:start[k + 1] - 1])."""
    names = np.array([str(i) for i in range(corpus.num_items + 1)], dtype=object)
    widths = np.fromiter(map(len, names), dtype=np.int64, count=len(names))
    words = names[corpus.items]
    return " ".join(words.tolist()), words, np.r_[0, np.cumsum(widths[corpus.items] + 1)]


def write_examples(path, examples: ExampleTable):
    """One `prefix\tlabel\tsplit` line per example, prefix items space-joined."""
    with open(path, "w") as f:
        for corpus, part in ((examples.train, examples.split != TEST),
                             (examples.test, examples.split == TEST)):
            text, words, start = _text(corpus)
            first = corpus.offsets[examples.row[part]]
            end = first + examples.length[part]
            f.writelines(f"{text[a:b]}\t{label}\t{SPLITS[code]}\n" for a, b, label, code in
                         zip(start[first].tolist(), (start[end] - 1).tolist(), words[end].tolist(),
                             examples.split[part].tolist()))


def read_examples(path):
    with open(path) as f:
        return [Example(tuple(int(i) for i in prefix.split(" ")), int(label), split)
                for prefix, label, split in (line.rstrip("\n").split("\t") for line in f)]


def write_vocab(path, item_ids):
    with open(path, "w") as f:
        f.writelines(f"{raw}\t{idx}\n" for idx, raw in enumerate(item_ids, start=1))


def write_sessions(path, train: SessionCorpus, test: SessionCorpus):
    """One `key\titems\tlast_ts\tsplit` line per session, train then test."""
    with open(path, "w") as f:
        for corpus, split_name in ((train, "train"), (test, "test")):
            text, _words, start = _text(corpus)
            f.writelines(f"{key}\t{text[a:b]}\t{ts}\t{split_name}\n" for key, a, b, ts in
                         zip(corpus.keys.tolist(), start[corpus.offsets[:-1]].tolist(),
                             (start[corpus.offsets[1:]] - 1).tolist(), corpus.last_ts.tolist()))


def read_sessions(path, split_name):
    """CSR (offsets, items) of the sessions of one split in a sessions file."""
    with open(path) as f:
        fields = f.read().replace("\n", "\t").split("\t")[:-1]  # four per line
    seqs = [seq for seq, split in zip(fields[1::4], fields[3::4]) if split == split_name]
    lengths = np.fromiter(map(str.count, seqs, repeat(" ")), dtype=np.int64, count=len(seqs)) + 1
    return np.r_[0, np.cumsum(lengths)], np.fromstring(" ".join(seqs), dtype=np.int64, sep=" ")
