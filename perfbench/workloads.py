"""Workloads, the measured rounds and the output checks.

Every run is one fresh process: generate the events file from the seed,
set up through `sessrec preprocess` + `sessrec build-graph` (timed), then
repeat whole rounds of the same operations, at least `min_rounds` and then
until the next round would end after `--seconds`.  A round has one slot per
listed train length: a `train_model` call, an `evaluate_model` call and a
share of the `model_gradcheck` calls.  After the measured rounds, each
round's fault operations run (a `train_model` call per fault length,
untimed).  The program is driven only through those entry points; the
benchmark reads the stage files with its own parsers.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from sessrec import batching, cli, evaluation, graphs, model, train
from sessrec.corpus import Example

EPSILON = 3
TOP_N = 12
TRAIN_BATCH = 100
TRAIN_PER_OP = 100     # train examples per call: the first of that length in stored order
VALID_PER_OP = 5
GRADCHECK_TOLERANCE = 1e-4
ORACLE_ITEMS = 25
PADDING_SAMPLE = 8

# The `sessrec gradcheck --full` grid, in its order.  Each workload checks
# two combinations at its own k_hops; together they cover every
# aggregation, position mode and loss.  Tens of thousands of d=8 forwards
# make per-op overhead the whole cost.
FULL_GRID = tuple(dict(k_hops=k, aggregation=a, position_mode=p, loss_mode=lm)
                  for k in (1, 2) for a in ("sum", "gate", "max", "concat")
                  for p in ("reversed", "forward") for lm in ("binary", "categorical"))


@dataclass(frozen=True)
class Workload:
    name: str
    sessions: int            # generated sessions
    catalogue: int           # generated items, before filtering
    model: dict              # ModelConfig fields
    train_lengths: tuple     # prefix lengths: one timed train_model call each, in this order
    fault_lengths: tuple     # prefix lengths whose train_model call hits a known fault:
                             # attempted once per round after the measured rounds, never timed
    eval_per_slot: int       # test examples per evaluate_model call (stored order)
    eval_batch: int
    setup_repeats: int
    gradcheck: tuple         # combinations checked each round (d=8, toy corpus)
    min_rounds: int          # rounds always run; repeated calls are timed best-of and
                             # checked to train identically


WORKLOADS = {w.name: w for w in (
    # ~1M clicks and ~41k items after filtering, near Diginetica's 983k and
    # 43k; the item table makes per-item work (setup, scoring head, L2 +
    # Adam) heavy.
    Workload("digi43k-k1",
             sessions=250_000, catalogue=60_000,
             model=dict(k_hops=1), train_lengths=(1, 2, 4, 8), fault_lengths=(),
             eval_per_slot=200, eval_batch=100, setup_repeats=1, min_rounds=2,
             gradcheck=tuple(FULL_GRID[i] for i in (0, 15))),
    # 5k items at Diginetica's clicks per item, k_hops=2: the 2-hop frontier
    # makes the global layer nearly all the work.  Training at B=100 runs out
    # of memory for any prefix longer than one item; the length-6 call is
    # kept as the fault operation (length 2 sits close enough to the limit
    # that a small-frontier seed could pass).  It runs after the measured
    # rounds, so the throughputs and `peak_rss_mb` cover the length-1 calls
    # only, whether or not it fails.  Evaluation runs at batch 25:
    # at batch 100 a batch whose frontier passes ~450 rows also exhausts the
    # limit, which happens on some seeds only, and a batch costs as much as
    # its largest frontier, so 300 examples are needed to average it out and
    # small batches make them affordable.
    Workload("zipf5k-k2",
             sessions=28_000, catalogue=6_000,
             model=dict(k_hops=2), train_lengths=(1, 1), fault_lengths=(6,),
             eval_per_slot=150, eval_batch=25, setup_repeats=3, min_rounds=1,
             gradcheck=tuple(FULL_GRID[i] for i in (23, 24, 23, 24))),
)}


class CheckFailed(AssertionError):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


class Phases:
    """Attempted and failed operation counts per phase."""

    def __init__(self):
        self.counts = {}

    def record(self, phase, ok):
        c = self.counts.setdefault(phase, [0, 0])
        c[0] += 1
        c[1] += not ok

    def measured(self):
        """Totals over the measured rounds; set-up runs a fixed number of
        times whatever the run length, so it is reported but not summed."""
        rows = [c for p, c in self.counts.items() if p != "setup"]
        return sum(c[0] for c in rows), sum(c[1] for c in rows)


def environment(root: Path):
    """What a result depends on besides the code: commit, numpy, BLAS, threads."""
    sha = "unknown"
    head = root / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else "unknown"
        sha = ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "machine": platform.machine()}


# -- set-up ----------------------------------------------------------------------


def setup(wl: Workload, events: Path, work: Path, phases: Phases):
    """Run preprocess + build-graph `setup_repeats` times; keep the last work dir."""
    seconds = []
    wd = None
    for r in range(wl.setup_repeats):
        if wd is not None:
            shutil.rmtree(wd)
        wd = work / f"setup{r}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(["preprocess", "--events", str(events), "--work-dir", str(wd),
                           "--min-item-freq", "5", "--test-window-days", "7"])
            phases.record("setup", rc == 0)
            if rc == 0:
                rc = cli.main(["build-graph", "--work-dir", str(wd),
                               "--epsilon", str(EPSILON), "--top-n", str(TOP_N)])
                phases.record("setup", rc == 0)
        seconds.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"error: set-up failed with exit code {rc}")
    return wd, seconds


@dataclass
class Data:
    num_items: int
    max_len: int
    train_sessions: list
    test_sessions: list
    train_ops: dict          # prefix length -> examples (train split, then validation)
    test: list
    graph: object            # the program's GlobalGraph, for train/evaluate
    graph_lists: dict        # item -> [(neighbour, weight)] from the file, for the oracle


def load(wl: Workload, wd: Path) -> Data:
    """Read the stage files with the benchmark's own parsers and check the
    example files against the written sessions."""
    corpus = wd / "corpus"
    meta = json.loads((corpus / "meta.json").read_text())
    m = meta["num_items"]
    sessions = {"train": [], "test": []}
    with open(corpus / "sessions.tsv") as f:
        for line in f:
            _key, seq, _ts, split = line.rstrip("\n").split("\t")
            sessions[split].append([int(i) for i in seq.split(" ")])

    counts = {"train": 0, "validation": 0, "test": 0}
    by_len = {n: [] for n in wl.train_lengths + wl.fault_lengths}
    valid, test = [], []
    with open(corpus / "examples.tsv") as f:
        for line in f:
            prefix, label, split = line.rstrip("\n").split("\t")
            label = int(label)
            check(1 <= label <= m, f"example label {label} outside [1, {m}]")
            counts[split] += 1
            if split == "train":
                keep, limit = by_len.get(prefix.count(" ") + 1), TRAIN_PER_OP
            elif split == "validation":
                keep, limit = valid, VALID_PER_OP
            else:
                keep, limit = test, wl.eval_per_slot * len(wl.train_lengths)
            if keep is not None and len(keep) < limit:
                ex = Example(tuple(int(i) for i in prefix.split(" ")), label, split)
                check(all(1 <= i <= m for i in ex.prefix), "example prefix item outside [1, m]")
                keep.append(ex)
    expected_train = sum(len(s) - 1 for s in sessions["train"])
    expected_test = sum(len(s) - 1 for s in sessions["test"])
    check(counts["train"] + counts["validation"] == expected_train,
          f"{counts['train'] + counts['validation']} train+validation examples, "
          f"sessions give {expected_train}")
    check(counts["test"] == expected_test,
          f"{counts['test']} test examples, sessions give {expected_test}")
    for n, exs in by_len.items():
        check(len(exs) == TRAIN_PER_OP, f"only {len(exs)} train examples of length {n}")
    check(len(valid) == VALID_PER_OP and len(test) == wl.eval_per_slot * len(wl.train_lengths),
          "too few validation or test examples")

    graph_path = wd / "graphs" / "global_graph.tsv"
    lists = {}
    with open(graph_path) as f:
        for line in f:
            if not line.startswith("#"):
                item, nbr, w = (int(x) for x in line.split("\t"))
                lists.setdefault(item, []).append((nbr, w))
    return Data(m, meta["max_prefix_len"], sessions["train"], sessions["test"],
                {n: exs + valid for n, exs in by_len.items()}, test,
                graphs.read_global_graph(graph_path), lists)


# -- rounds ----------------------------------------------------------------------


def params_hash(mdl):
    h = hashlib.sha256()
    for name, value in sorted(mdl.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def loss_evaluations(cfg):
    """Loss evaluations one gradcheck makes: one analytic pass and two
    finite differences per parameter coordinate (toy corpus: 5 items,
    prefixes up to 4)."""
    mdl = model.NextItemModel(5, 4, cfg)
    return 1 + 2 * sum(p.value.size for p in mdl.params.trainable())


def gradcheck_config(combo):
    return model.ModelConfig(embedding_dim=8, dropout_global=0.0, precision="double",
                             use_session_layer=True, **combo)


class Timings:
    """Wall times of each distinct operation.  An operation's time is the
    fastest of its repeats (every round repeats it, and the length-1 train
    call also repeats within a round): on a shared virtual machine slow
    spells of several seconds come and go, and the fastest repeat is the
    figure they disturb least."""

    def __init__(self):
        self.ops = {}            # (kind, key) -> [work, [seconds, ...]]

    def add(self, kind, key, work, seconds):
        self.ops.setdefault((kind, key), [work, []])[1].append(seconds)

    def rate(self, kind):
        rows = [(w, min(t)) for (k, _), (w, t) in self.ops.items() if k == kind]
        check(rows, f"no {kind} operation succeeded")
        return sum(w for w, _ in rows) / sum(t for _, t in rows)


def attempt(phases, phase, call):
    """Run one operation; a MemoryError fails it instead of the run."""
    try:
        result = call()
    except MemoryError:
        result = None
    phases.record(phase, result is not None)
    if result is None:
        gc.collect()  # after the handler, so the failed call's frames are gone
    return result


def train_op(n, data, model_cfg, train_cfg, phases, state):
    """One train_model call on the length-n examples; None if it failed."""
    result = attempt(phases, "train", lambda: train.train_model(
        data.train_ops[n], data.num_items, data.max_len, data.graph, model_cfg, train_cfg))
    if result is not None:
        state["hashes"].setdefault(n, set()).add(params_hash(result.model))
        state.setdefault("trained", result.model)
        return result.model
    return None


def run_round(wl, data, model_cfg, train_cfg, phases, timings, state):
    """One slot per train length: the train_model call, an evaluate_model
    call on that slot's test examples and that slot's share of the gradcheck
    combinations.  Interleaving spreads every metric over the whole run, so
    a slow spell of the machine weighs on all of them alike."""
    eval_model = None
    slots = len(wl.train_lengths)
    for i, n in enumerate(wl.train_lengths):
        examples = data.train_ops[n]
        t0 = time.perf_counter()
        trained = train_op(n, data, model_cfg, train_cfg, phases, state)
        if trained is not None:
            timings.add("train", n, sum(e.split == "train" for e in examples),
                        time.perf_counter() - t0)
            if eval_model is None:
                eval_model = trained
        check(eval_model is not None, "the first training call of a round failed")

        chunk = data.test[i * wl.eval_per_slot: (i + 1) * wl.eval_per_slot]
        t0 = time.perf_counter()
        report = attempt(phases, "evaluate", lambda: evaluation.evaluate_model(
            eval_model, chunk, data.graph, batch_size=wl.eval_batch))
        if report is not None:
            timings.add("evaluate", i, len(chunk), time.perf_counter() - t0)
            check(report.example_count == len(chunk), "evaluate_model scored the wrong example count")
            check(0 <= report.mrr20 <= report.p20 <= 100, "metrics out of range")

        for combo in wl.gradcheck[i::slots]:
            cfg = gradcheck_config(combo)
            t0 = time.perf_counter()
            err = attempt(phases, "gradcheck", lambda: model.model_gradcheck(cfg))
            if err is not None:
                timings.add("gradcheck", json.dumps(combo, sort_keys=True), loss_evaluations(cfg),
                            time.perf_counter() - t0)
                check(err <= GRADCHECK_TOLERANCE, f"gradcheck {combo}: relative error {err:.3e}")


# -- checks ----------------------------------------------------------------------


def check_graph_oracle(data: Data, rng):
    """Brute-force windowed co-occurrence for sampled items against the file."""
    sample = set((rng.choice(data.num_items, ORACLE_ITEMS, replace=False) + 1).tolist())
    weights = {x: {} for x in sample}
    for seq in data.train_sessions:
        if sample.isdisjoint(seq):
            continue
        for i, x in enumerate(seq):
            if x not in sample:
                continue
            for j in range(max(0, i - EPSILON), min(len(seq), i + EPSILON + 1)):
                y = seq[j]
                if y != x:
                    weights[x][y] = weights[x].get(y, 0) + 1
    for x in sorted(sample):
        expect = sorted(weights[x].items(), key=lambda yw: (-yw[1], yw[0]))[:TOP_N]
        check(data.graph_lists.get(x, []) == expect, f"global graph neighbours of item {x} differ")


def check_trained(data, model_cfg, state):
    for n, hashes in state["hashes"].items():
        check(len(hashes) == 1, f"training on length-{n} prefixes is not repeatable")
    trained = state["trained"]
    init = model.NextItemModel(data.num_items, data.max_len, model_cfg).state_dict()
    values = trained.state_dict()
    check(all(np.all(np.isfinite(v)) for v in values.values()), "non-finite trained parameter")
    check(any(not np.array_equal(values[k], init[k]) for k in init), "training changed nothing")


def check_padding(wl, data, rng, state):
    """Ranks of sampled test examples scored alone equal their ranks in a
    padded batch of `eval_batch`."""
    mdl = state["trained"]
    packs = [batching.pack_example(e.prefix, e.label, data.graph, mdl.config.k_hops)
             for e in data.test[: wl.eval_batch]]
    batched = evaluation.ranks_for_packs(mdl, packs, batch_size=wl.eval_batch)
    for i in sorted(rng.choice(len(packs), PADDING_SAMPLE, replace=False).tolist()):
        alone = evaluation.ranks_for_packs(mdl, [packs[i]], batch_size=1)
        check(alone == [batched[i]], f"test example {i}: rank {alone[0]} alone, {batched[i]} in a batch")


# -- run --------------------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool, work_root: Path):
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    work = work_root / f"{wl.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    phases = Phases()
    try:
        events = work / "events.csv"
        clicks = gen.write_events(events, wl.sessions, wl.catalogue, seed)
        wd, setup_seconds = setup(wl, events, work, phases)
        data = load(wl, wd)
        events.unlink()

        model_cfg = model.ModelConfig(**wl.model)
        train_cfg = train.TrainConfig(batch_size=TRAIN_BATCH, max_epochs=1, patience=1)
        state = {"hashes": {}}
        timings = Timings()
        rounds = 0
        start = time.perf_counter()
        while True:
            run_round(wl, data, model_cfg, train_cfg, phases, timings, state)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= wl.min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
        if tracer:
            tracer.stop()
        # Read before the fault operations, which may fill the address space.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates = {kind: timings.rate(kind) for kind in ("train", "evaluate", "gradcheck")}
        for _ in range(rounds):
            for n in wl.fault_lengths:
                train_op(n, data, model_cfg, train_cfg, phases, state)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4EC]))
        check_trained(data, model_cfg, state)
        check_graph_oracle(data, rng)
        check_padding(wl, data, rng, state)
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for phase, (att, fail) in phases.counts.items():
        print(f"phase {phase}: attempted {att}, failed {fail}")
    env = environment(work_root.parent.parent)
    print("environment: " + json.dumps(env, sort_keys=True))
    if not correct:
        attempted, failed = phases.measured()
        return {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}

    print(f"workload {wl.name} seed {seed}: {clicks} generated clicks, {data.num_items} items, "
          f"{rounds} rounds in {elapsed:.1f} s")
    if tracer:
        metrics = tracer.metrics(rates["train"])
        if tracer.absent:
            print("absent layers: " + ", ".join(sorted(tracer.absent)))
        trace_path = work_root / f"trace-{wl.name}-seed{seed}.jsonl"
        tracer.write(trace_path, {"workload": wl.name, "seed": seed, "environment": env})
        print(f"spans written to {trace_path}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "train_examples_per_s": (rates["train"], "examples/s"),
            "eval_examples_per_s": (rates["evaluate"], "examples/s"),
            "gradcheck_evals_per_s": (rates["gradcheck"], "evals/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    attempted, failed = phases.measured()
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
