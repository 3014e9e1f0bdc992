"""Command-line pipeline: preprocess | build-graph | train | evaluate |
ablate | gradcheck.

Stages communicate only through files under the work directory
(`corpus/`, `graphs/`, `checkpoints/`, `reports/`).  Every stage writes a
manifest with checksums of what it read and produced; downstream stages
refuse inputs whose checksums no longer match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, dump_config, load_config
from .corpus import (TEST, CorpusError, build_examples, filter_corpus, parse_sessions,
                     read_events, read_examples, read_sessions, temporal_split,
                     write_examples, write_sessions, write_vocab)
from .evaluation import evaluate_model, render_table, rows_to_jsonl
from .graphs import build_global_graph, read_global_graph, write_global_graph
from .model import (AGGREGATIONS, LOSS_MODES, POSITION_MODES, ModelConfig, load_checkpoint,
                    model_gradcheck, save_checkpoint)
from .train import TrainingError, run_ablations, train_model

STAGE_DIRS = {"preprocess": "corpus", "build-graph": "graphs", "train": "checkpoints",
              "evaluate": "reports", "ablate": "reports"}


class StageError(RuntimeError):
    pass


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(stage_dir: Path, stage: str, fingerprint: str, inputs, outputs):
    # paths inside the work dir are keyed by their path within it, so the work dir can be
    # moved; an input from elsewhere is keyed by its absolute path
    work_dir = stage_dir.parent.resolve()

    def key(path):
        path = Path(path).resolve()
        return str(path.relative_to(work_dir) if path.is_relative_to(work_dir) else path)

    manifest = {
        "stage": stage,
        "tool_version": __version__,
        "config_fingerprint": fingerprint,
        "inputs": {key(p): file_sha256(p) for p in inputs},
        "outputs": {key(p): file_sha256(p) for p in outputs},
    }
    with open(stage_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def verify_upstream(work_dir: Path, stage: str):
    """Check the upstream stage ran and its outputs, and the work-dir files
    it read, still match its manifest.  Inputs from outside the work dir,
    such as the events file, are not checked: users may delete them."""
    manifest_path = work_dir / STAGE_DIRS[stage] / "manifest.json"
    if not manifest_path.exists():
        raise StageError(f"missing artifacts for stage {stage!r}; run `sessrec {stage}` first")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        # work-dir files are keyed by their path within it, other inputs by an absolute path
        recorded = [(work_dir / name, digest, "declared by") for name, digest in manifest["outputs"].items()]
        recorded += [(work_dir / name, digest, "read by") for name, digest in manifest["inputs"].items()
                     if not Path(name).is_absolute()]
    except OSError as exc:  # a directory, or not readable
        raise StageError(f"cannot read manifest {manifest_path}: {exc.strerror}; rerun `sessrec {stage}`") from None
    except (ValueError, KeyError, TypeError, AttributeError):  # not JSON, or no "outputs" / "inputs" table
        raise StageError(f"{manifest_path} is not a valid manifest; rerun `sessrec {stage}`") from None
    for path, digest, role in recorded:
        if not path.exists():
            raise StageError(f"{path} ({role} stage {stage!r}) is missing; rerun `sessrec {stage}`")
        try:
            actual = file_sha256(path)
        except OSError as exc:
            raise StageError(f"cannot read {path} ({role} stage {stage!r}): {exc.strerror}") from None
        if actual != digest:
            raise StageError(f"{path} does not match the checksum recorded by stage {stage!r}; "
                             f"rerun `sessrec {stage}`")


def _stage_dir(work_dir: Path, name: str) -> Path:
    d = work_dir / name
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StageError(f"cannot create stage directory {d}: {exc.strerror}") from None
    return d


def _echo_config(stage_dir: Path, cfg: RunConfig):
    (stage_dir / "config_echo.yaml").write_text(dump_config(cfg))


# -- stages -------------------------------------------------------------------


def cmd_preprocess(cfg: RunConfig, work_dir: Path) -> int:
    if not cfg.paths.events:
        raise StageError("preprocess needs an events file (--events or paths.events)")
    events_path = Path(cfg.paths.events)
    try:
        text = events_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StageError(f"cannot read events file {events_path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise StageError(f"events file {events_path} is not UTF-8 text") from None
    out = _stage_dir(work_dir, "corpus")
    corpus = parse_sessions(read_events(text.split("\n"), delimiter=cfg.corpus.delimiter))
    filtered = filter_corpus(corpus, cfg.corpus.min_item_freq, cfg.corpus.min_session_len)
    train, test = temporal_split(filtered, int(cfg.corpus.test_window_days * 86400))
    examples = build_examples(train, test, cfg.corpus.validation_fraction, cfg.seed)

    sessions_path = out / "sessions.tsv"
    write_sessions(sessions_path, train, test)
    write_examples(out / "examples.tsv", examples)
    write_vocab(out / "vocab.tsv", train.item_ids)

    clicks, num_test = len(train.items) + len(test.items), int(np.count_nonzero(examples.split == TEST))
    meta = {
        "num_items": train.num_items,
        "max_prefix_len": int(examples.length.max()),
        "num_clicks": clicks,
        "num_train_examples": len(examples.split) - num_test,
        "num_test_examples": num_test,
        "num_train_sessions": len(train.keys),
        "num_test_sessions": len(test.keys),
        "avg_session_len": round(clicks / (len(train.keys) + len(test.keys)), 4),
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    _echo_config(out, cfg)
    write_manifest(out, "preprocess", cfg.fingerprint(), [events_path],
                   [sessions_path, out / "examples.tsv", out / "vocab.tsv", out / "meta.json"])
    print(f"preprocess: {meta['num_train_examples']} train + {meta['num_test_examples']} test examples, "
          f"{meta['num_items']} items -> {out}")
    return 0


def cmd_build_graph(cfg: RunConfig, work_dir: Path) -> int:
    verify_upstream(work_dir, "preprocess")
    out = _stage_dir(work_dir, "graphs")
    corpus_dir = work_dir / "corpus"
    meta = json.loads((corpus_dir / "meta.json").read_text())
    offsets, items = read_sessions(corpus_dir / "sessions.tsv", "train")
    graph = build_global_graph(offsets, items, cfg.graph.epsilon, cfg.graph.top_n, meta["num_items"])
    graph_path = out / "global_graph.tsv"
    write_global_graph(graph_path, graph)
    _echo_config(out, cfg)
    write_manifest(out, "build-graph", cfg.fingerprint(),
                   [corpus_dir / "sessions.tsv", corpus_dir / "meta.json"], [graph_path])
    edges = np.count_nonzero(graph.nbr)
    print(f"build-graph: {edges} pruned neighbor entries (epsilon={cfg.graph.epsilon}, "
          f"top_n={cfg.graph.top_n}) -> {graph_path}")
    return 0


def _model_inputs(work_dir: Path):
    """Check the preprocess and build-graph stages; read meta, examples and
    graph.  Also returns the work-dir files read, for the stage's manifest."""
    verify_upstream(work_dir, "preprocess")
    verify_upstream(work_dir, "build-graph")
    read = [work_dir / "corpus" / "examples.tsv", work_dir / "corpus" / "meta.json",
            work_dir / "graphs" / "global_graph.tsv"]
    examples_path, meta_path, graph_path = read
    return (json.loads(meta_path.read_text()), read_examples(examples_path), read_global_graph(graph_path),
            read)


def cmd_train(cfg: RunConfig, work_dir: Path) -> int:
    meta, examples, graph, read = _model_inputs(work_dir)
    out = _stage_dir(work_dir, "checkpoints")
    corpus_dir = work_dir / "corpus"

    log_lines = ["epoch\tlr_effective\ttrain_loss\tval_P@20\tval_MRR@20\tseconds"]

    def log(line):
        log_lines.append(line)
        print(line)

    result = train_model(examples, meta["num_items"], meta["max_prefix_len"], graph,
                         cfg.model, cfg.train, log=log)
    ckpt_path = out / "model.ckpt"
    result.model.vocab_sha256 = file_sha256(corpus_dir / "vocab.tsv")
    save_checkpoint(ckpt_path, result.model)
    (out / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    _echo_config(out, cfg)
    write_manifest(out, "train", cfg.fingerprint(), read + [corpus_dir / "vocab.tsv"], [ckpt_path])
    print(f"train: best epoch {result.best_epoch} (val MRR@20 {result.best_val_mrr20:.4f}) -> {ckpt_path}")
    return 0


def cmd_evaluate(cfg: RunConfig, work_dir: Path, fmt: str) -> int:
    meta, examples, graph, read = _model_inputs(work_dir)
    ckpt_path = Path(cfg.paths.checkpoint) if cfg.paths.checkpoint else work_dir / "checkpoints" / "model.ckpt"
    if not cfg.paths.checkpoint:
        verify_upstream(work_dir, "train")
    try:
        model = load_checkpoint(ckpt_path)
    except OSError as exc:
        raise StageError(f"cannot read checkpoint {ckpt_path}: {exc.strerror}") from None
    except ValueError as exc:
        raise StageError(str(exc)) from None
    out = _stage_dir(work_dir, "reports")
    corpus_dir = work_dir / "corpus"
    examples = [e for e in examples if e.split == "test"]
    if model.num_items != meta["num_items"]:
        raise StageError(f"checkpoint {ckpt_path} scores {model.num_items} items but the corpus has "
                         f"{meta['num_items']}; evaluate it against the corpus it was trained on")
    longest = max((len(e.prefix) for e in examples), default=0)
    if model.config.position_mode in ("reversed", "forward") and longest > model.max_len:
        raise StageError(f"checkpoint {ckpt_path} has positions for sessions of up to {model.max_len} "
                         f"items but a test prefix has {longest}; evaluate it against the corpus it "
                         f"was trained on")
    if model.vocab_sha256 is None:
        raise StageError(f"checkpoint {ckpt_path} records no corpus vocabulary digest; "
                         f"rerun `sessrec train` to make one that does")
    if model.vocab_sha256 != file_sha256(corpus_dir / "vocab.tsv"):
        raise StageError(f"checkpoint {ckpt_path} was trained on another corpus than "
                         f"{corpus_dir / 'vocab.tsv'}; evaluate it against the corpus it was trained on")
    report = evaluate_model(model, examples, graph, batch_size=cfg.train.batch_size,
                            label="test", fingerprint=cfg.fingerprint())
    rows = [{"label": "test", "report": report}]
    table = render_table(rows)
    (out / "eval.txt").write_text(table + "\n")
    (out / "eval.jsonl").write_text(rows_to_jsonl(rows))
    _echo_config(out, cfg)
    write_manifest(out, "evaluate", cfg.fingerprint(), read + [corpus_dir / "vocab.tsv", ckpt_path],
                   [out / "eval.txt", out / "eval.jsonl"])
    print(rows_to_jsonl(rows) if fmt == "jsonl" else table)
    return 0


ABLATION_GRIDS = {
    "global": [("w/o global", {"k_hops": 0}, {}),
               ("w/o session", {"use_session_layer": False}, {}),
               ("1-hop", {"k_hops": 1}, {}),
               ("2-hop", {"k_hops": 2}, {})],
    "aggregation": [(name, {"aggregation": name, "k_hops": 1}, {}) for name in AGGREGATIONS],
    "position": [("reversed-position", {"position_mode": "reversed"}, {}),
                 ("forward-position", {"position_mode": "forward"}, {}),
                 ("self-attention", {"position_mode": "self_attention"}, {})],
    "dropout": [(f"dropout={r / 10:.1f}", {"dropout_global": r / 10}, {}) for r in range(1, 10)],
}


def cmd_ablate(cfg: RunConfig, work_dir: Path, grid_name: str, fmt: str) -> int:
    meta, examples, graph, read = _model_inputs(work_dir)
    out = _stage_dir(work_dir, "reports")
    grid = ABLATION_GRIDS[grid_name]
    rows = run_ablations(examples, meta["num_items"], meta["max_prefix_len"], graph,
                         cfg.model, cfg.train, grid, fingerprint=cfg.fingerprint(), log=print)
    if grid_name == "dropout":
        scored = [r for r in rows if "report" in r]
        if scored:
            best = max(scored, key=lambda r: r["report"].extra.get("val_mrr20", float("-inf")))
            best["report"].extra["selected_on_validation"] = True
    table = render_table(rows)
    (out / f"ablation_{grid_name}.txt").write_text(table + "\n")
    (out / f"ablation_{grid_name}.jsonl").write_text(rows_to_jsonl(rows))
    _echo_config(out, cfg)
    write_manifest(out, "ablate", cfg.fingerprint(), read,
                   [out / f"ablation_{grid_name}.txt", out / f"ablation_{grid_name}.jsonl"])
    print(rows_to_jsonl(rows) if fmt == "jsonl" else table)
    return 0


def cmd_gradcheck(cfg: RunConfig, full: bool, threshold: float) -> int:
    if full:
        combos = [dict(k_hops=k, aggregation=a, position_mode=p, loss_mode=lm)
                  for k in (1, 2) for a in AGGREGATIONS
                  for p in ("reversed", "forward") for lm in LOSS_MODES]
    else:
        combos = [dict(k_hops=cfg.model.k_hops or 1, aggregation=cfg.model.aggregation,
                       position_mode=cfg.model.position_mode, loss_mode=cfg.model.loss_mode)]
    worst = 0.0
    for combo in combos:
        check_cfg = ModelConfig(embedding_dim=8, dropout_global=0.0, precision="double",
                                use_session_layer=True, **combo)
        err = model_gradcheck(check_cfg)
        worst = max(worst, err)
        desc = " ".join(f"{k}={v}" for k, v in combo.items())
        print(f"gradcheck [{desc}]: max relative error {err:.3e}")
    print(f"gradcheck: overall max relative error {worst:.3e} (threshold {threshold:g})")
    return 0 if worst <= threshold else 1


# -- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or flag value as one `error:` line with exit 2, like
    every other input error, instead of the usage text; subcommand parsers
    are built from the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser():
    parser = _Parser(prog="sessrec", description="Session-based recommender pipeline")
    parser.add_argument("--version", action="version", version=f"sessrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--work-dir", help="artifact directory (default: ./run)")
        p.add_argument("--seed", type=int, help="override the run seed")

    p = sub.add_parser("preprocess", help="events file -> filtered, split, augmented examples")
    common(p)
    p.add_argument("--events", dest="paths.events", help="raw clickstream file: session_id,item_id,timestamp")
    p.add_argument("--delimiter", dest="corpus.delimiter", help="field delimiter (default: auto , or tab)")
    p.add_argument("--min-item-freq", type=int, dest="corpus.min_item_freq")
    p.add_argument("--test-window-days", type=float, dest="corpus.test_window_days")

    p = sub.add_parser("build-graph", help="train sessions -> pruned co-occurrence graph")
    common(p)
    p.add_argument("--epsilon", type=int, dest="graph.epsilon", help="co-occurrence window size")
    p.add_argument("--top-n", type=int, dest="graph.top_n", help="neighbors kept per item")

    p = sub.add_parser("train", help="fit the model on preprocessed artifacts")
    common(p)
    _model_flags(p)
    p.add_argument("--epochs", type=int, dest="train.max_epochs")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")

    p = sub.add_parser("evaluate", help="rank the test examples with a trained checkpoint")
    common(p)
    p.add_argument("--checkpoint", dest="paths.checkpoint", help="default: <work-dir>/checkpoints/model.ckpt")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("ablate", help="train/evaluate a named configuration grid")
    common(p)
    _model_flags(p)
    p.add_argument("--grid", choices=sorted(ABLATION_GRIDS), required=True)
    p.add_argument("--epochs", type=int, dest="train.max_epochs")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("gradcheck", help="finite-difference check of the model gradients")
    common(p)
    _model_flags(p)
    p.add_argument("--full", action="store_true", help="sweep hops x aggregation x position x loss")
    p.add_argument("--threshold", type=_threshold, default=1e-4,
                   help="largest relative error that passes (finite, > 0; default 1e-4)")
    return parser


def _threshold(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: the threshold must be a finite number > 0")
    return value


def _model_flags(p):
    # values are checked once, by ModelConfig, so a bad one exits 2 with one line
    p.add_argument("--hops", type=int, dest="model.k_hops")
    p.add_argument("--aggregation", dest="model.aggregation", help="one of " + ", ".join(AGGREGATIONS))
    p.add_argument("--position-mode", dest="model.position_mode", help="one of " + ", ".join(POSITION_MODES))
    p.add_argument("--dropout", type=float, dest="model.dropout_global")
    p.add_argument("--loss-mode", dest="model.loss_mode", help="one of " + ", ".join(LOSS_MODES))


def _overrides_from_args(args) -> dict:
    """Nested config overrides from the run seed and every flag whose dest is a
    `section.key` path; `load_config` skips the flags left unset (None)."""
    overrides = {"seed": args.seed}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if section:
            overrides.setdefault(section, {})[key] = value
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        work_dir = Path(args.work_dir or (cfg.paths.work_dir or "run"))
        if args.command == "preprocess":
            return cmd_preprocess(cfg, work_dir)
        if args.command == "build-graph":
            return cmd_build_graph(cfg, work_dir)
        if args.command == "train":
            return cmd_train(cfg, work_dir)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, work_dir, args.format)
        if args.command == "ablate":
            return cmd_ablate(cfg, work_dir, args.grid, args.format)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.full, args.threshold)
        raise AssertionError(args.command)
    except (ConfigError, CorpusError, StageError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
