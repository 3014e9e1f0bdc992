import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from sessrec.cli import main
from sessrec.config import ConfigError, GraphConfig, load_config, validate_config
from sessrec.corpus import read_examples
from sessrec.model import ModelConfig, NextItemModel, save_checkpoint

DATA = Path(__file__).parent / "data"


def write_events(path, rng, n_sessions=25, n_items=10, span_days=20):
    lines = []
    for s in range(n_sessions):
        t0 = int(rng.integers(0, span_days)) * 86400
        for i in range(int(rng.integers(2, 6))):
            lines.append(f"s{s},i{int(rng.integers(1, n_items + 1))},{t0 + 60 * i}")
    path.write_text("\n".join(lines) + "\n")


def reversed_sessions(text):
    """The same clicks with each session's items in reverse order: the same
    items and splits, another corpus."""
    clicks = [line.split(",") for line in text.split()]
    items = {}
    for session, item, _ in clicks:
        items.setdefault(session, []).append(item)
    return "".join(f"{session},{items[session].pop()},{t}\n" for session, _, t in clicks)


@pytest.fixture
def pipeline_cfg(tmp_path):
    rng = np.random.default_rng(17)
    events = tmp_path / "events.csv"
    write_events(events, rng)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "seed: 5\n"
        "corpus: {min_item_freq: 1, test_window_days: 6}\n"
        "model: {embedding_dim: 6, k_hops: 1, dropout_global: 0.0}\n"
        "train: {max_epochs: 2, batch_size: 16}\n"
    )
    return cfg, events, tmp_path / "run"


class TestValidateConfig:
    def test_empty_is_full_default_and_valid(self):
        cfg = validate_config({})
        assert cfg.model.embedding_dim == 100
        assert cfg.train.batch_size == 100
        assert cfg.train.lr == 0.001
        assert cfg.train.lr_decay_factor == 0.1 and cfg.train.lr_decay_every == 3
        assert cfg.train.l2 == 1e-5
        assert cfg.graph.epsilon == 3 and cfg.graph.top_n == 12
        assert cfg.corpus.validation_fraction == 0.1

    def test_empty_file_loads_defaults(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        cfg = load_config(p)
        assert cfg.model.embedding_dim == 100

    def test_epsilon_zero_rejected(self):
        with pytest.raises(ConfigError, match="epsilon must be >= 1"):
            validate_config({"graph": {"epsilon": 0}})

    def test_dropout_one_rejected(self):
        with pytest.raises(ConfigError, match="rate must be < 1"):
            validate_config({"model": {"dropout_global": 1.0}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"model": {"embeding_dim": 32}})
        with pytest.raises(ConfigError, match="unknown top-level key"):
            validate_config({"modle": {}})

    def test_retired_model_settings_are_unknown_keys(self):
        for key, value in (("leaky_slope", 0.2), ("share_hop_weights", False),
                           ("normalize_step_attention", False)):
            with pytest.raises(ConfigError, match=f"model.{key}: unknown key"):
                validate_config({"model": {key: value}})

    def test_problems_aggregated(self):
        with pytest.raises(ConfigError) as exc:
            validate_config({"graph": {"epsilon": 0, "top_n": 0},
                             "model": {"dropout_global": 1.5}})
        assert len(exc.value.problems) == 3

    def test_sections_validate_when_built_directly(self):
        with pytest.raises(ValueError, match="epsilon must be >= 1"):
            GraphConfig(epsilon=0)

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            validate_config({"model": {"embedding_dim": "big"}})

    def test_run_seed_propagates_to_training(self):
        cfg = validate_config({"seed": 42})
        assert cfg.train.seed == 42
        cfg2 = validate_config({"seed": 42, "train": {"seed": 7}})
        assert cfg2.train.seed == 7

    def test_fingerprint_ignores_paths(self):
        a = validate_config({"paths": {"work_dir": "/a"}})
        b = validate_config({"paths": {"work_dir": "/b"}})
        assert a.fingerprint() == b.fingerprint()
        c = validate_config({"seed": 2})
        assert a.fingerprint() != c.fingerprint()


class TestPipeline:
    def test_preprocess_toy_events_yields_four_examples(self, tmp_path):
        wd = tmp_path / "run"
        rc = main(["preprocess", "--events", str(DATA / "toy_events.csv"), "--work-dir", str(wd)])
        assert rc == 0
        examples = read_examples(wd / "corpus" / "examples.tsv")
        assert len(examples) == 4
        assert sum(1 for e in examples if e.split == "test") == 2

    def test_missing_upstream_names_stage(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        rc = main(["build-graph", "--config", str(cfg), "--work-dir", str(wd)])
        assert rc == 2
        assert "preprocess" in capsys.readouterr().err

    def test_full_chain_and_manifest_integrity(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"], ["train"], ["evaluate"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        # manifests present with checksums
        manifest = json.loads((wd / "graphs" / "manifest.json").read_text())
        assert manifest["stage"] == "build-graph"
        assert all(len(h) == 64 for h in manifest["outputs"].values())
        # tamper with an upstream artifact: downstream must refuse it
        sessions = wd / "corpus" / "sessions.tsv"
        sessions.write_text(sessions.read_text() + "tampered\t9\t0\ttrain\n")
        rc = main(["build-graph", "--config", str(cfg), "--work-dir", str(wd)])
        assert rc == 2
        assert "checksum" in capsys.readouterr().err

    def test_moved_work_dir_is_checked_where_it_now_is(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"], ["train"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        moved = wd.parent / "moved"
        shutil.copytree(wd, moved)
        shutil.rmtree(wd)
        assert main(["evaluate", "--config", str(cfg), "--work-dir", str(moved)]) == 0
        # a copy of the moved dir, tampered with: checked in the copy, not in `moved`
        copy = wd.parent / "copy"
        shutil.copytree(moved, copy)
        graph = copy / "graphs" / "global_graph.tsv"
        graph.write_text(graph.read_text() + "1\t2\t3\n")
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--work-dir", str(copy)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(graph) in err and "checksum" in err and len(err.strip().splitlines()) == 1

    def test_evaluate_refuses_a_checkpoint_trained_on_another_corpus(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"], ["train"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        meta = (wd / "corpus" / "meta.json").read_text()
        other = events.with_name("other.csv")
        other.write_text(reversed_sessions(events.read_text()))
        for cmd in (["preprocess", "--events", str(other)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        assert json.loads((wd / "corpus" / "meta.json").read_text())["num_items"] == json.loads(meta)["num_items"]
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(cfg), "--work-dir", str(wd)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(wd / "corpus" / "examples.tsv") in err and "rerun `sessrec train`" in err
        assert len(err.strip().splitlines()) == 1

    def test_evaluate_refuses_an_explicit_checkpoint_trained_on_another_corpus(self, pipeline_cfg, capsys):
        # passed as --checkpoint, the train manifest is not read: the checkpoint's
        # own record of the vocabulary catches the rebuilt corpus
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"], ["train"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        ckpt = wd.parent / "kept.ckpt"
        shutil.copy(wd / "checkpoints" / "model.ckpt", ckpt)
        argv = ["evaluate", "--config", str(cfg), "--work-dir", str(wd), "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        meta = json.loads((wd / "corpus" / "meta.json").read_text())
        other = events.with_name("other.csv")
        other.write_text(reversed_sessions(events.read_text()))
        for cmd in (["preprocess", "--events", str(other)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        assert json.loads((wd / "corpus" / "meta.json").read_text())["num_items"] == meta["num_items"]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert str(ckpt) in err and "another corpus" in err and len(err.strip().splitlines()) == 1

    def test_evaluate_refuses_a_checkpoint_that_records_no_corpus(self, pipeline_cfg, capsys):
        rc, err = self._evaluate_saved(pipeline_cfg, capsys)
        assert rc == 2
        assert "records no corpus" in err and len(err.strip().splitlines()) == 1

    def test_train_refuses_a_graph_built_from_another_corpus(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        other = events.with_name("other.csv")
        other.write_text(reversed_sessions(events.read_text()))
        assert main(["preprocess", "--events", str(other), "--config", str(cfg), "--work-dir", str(wd)]) == 0
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--work-dir", str(wd)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(wd / "corpus" / "sessions.tsv") in err and "rerun `sessrec build-graph`" in err
        assert len(err.strip().splitlines()) == 1
        # the events file lies outside the work dir and is not checked
        events.unlink()
        other.unlink()
        assert main(["build-graph", "--config", str(cfg), "--work-dir", str(wd)]) == 0
        assert main(["train", "--config", str(cfg), "--work-dir", str(wd)]) == 0

    @pytest.mark.parametrize("text", ["{not json", "{}", '{"outputs": []}'],
                             ids=["not-json", "no-outputs", "outputs-list"])
    def test_malformed_manifest_exits_2_with_one_line(self, pipeline_cfg, capsys, text):
        cfg, events, wd = pipeline_cfg
        assert main(["preprocess", "--events", str(events), "--config", str(cfg), "--work-dir", str(wd)]) == 0
        manifest = wd / "corpus" / "manifest.json"
        manifest.write_text(text)
        capsys.readouterr()
        rc = main(["build-graph", "--config", str(cfg), "--work-dir", str(wd)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(manifest) in err and "not a valid manifest" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("target, reason", [("corpus/manifest.json", "cannot read manifest"),
                                                ("corpus/sessions.tsv", "cannot read")],
                             ids=["manifest", "declared-output"])
    def test_directory_in_place_of_a_stage_file_exits_2_with_one_line(self, pipeline_cfg, capsys, target, reason):
        cfg, events, wd = pipeline_cfg
        assert main(["preprocess", "--events", str(events), "--config", str(cfg), "--work-dir", str(wd)]) == 0
        path = wd / target
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        rc = main(["build-graph", "--config", str(cfg), "--work-dir", str(wd)])
        err = capsys.readouterr().err
        assert rc == 2
        assert reason in err and "Is a directory" in err and str(path) in err
        assert len(err.strip().splitlines()) == 1

    def test_manifests_key_work_dir_files_by_their_path_within_it(self, pipeline_cfg, monkeypatch):
        cfg, events, wd = pipeline_cfg
        monkeypatch.chdir(wd.parent)  # a relative work dir and events path
        for cmd in (["preprocess", "--events", events.name], ["build-graph"], ["train"], ["evaluate"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", wd.name]) == 0
        moved = wd.parent / "moved"
        shutil.move(wd, moved)
        for stage, inputs in (("corpus", [str(events.resolve())]),
                              ("graphs", ["corpus/meta.json", "corpus/sessions.tsv"]),
                              ("checkpoints", ["corpus/examples.tsv", "corpus/meta.json", "corpus/vocab.tsv",
                                               "graphs/global_graph.tsv"]),
                              ("reports", ["checkpoints/model.ckpt", "corpus/examples.tsv", "corpus/meta.json",
                                           "corpus/vocab.tsv", "graphs/global_graph.tsv"])):
            manifest = json.loads((moved / stage / "manifest.json").read_text())
            assert sorted(manifest["inputs"]) == inputs, stage
            assert all(name.startswith(stage + "/") for name in manifest["outputs"]), stage
        assert main(["evaluate", "--config", str(cfg), "--work-dir", str(moved)]) == 0
        # ablate writes the reports manifest in turn
        assert main(["ablate", "--config", str(cfg), "--work-dir", moved.name, "--grid", "global",
                     "--epochs", "1"]) == 0
        manifest = json.loads((moved / "reports" / "manifest.json").read_text())
        assert manifest["stage"] == "ablate"
        assert sorted(manifest["inputs"]) == ["corpus/examples.tsv", "corpus/meta.json", "graphs/global_graph.tsv"]
        assert all(name.startswith("reports/") for name in manifest["outputs"])

    def test_flag_overrides_config(self, pipeline_cfg):
        cfg, events, wd = pipeline_cfg
        assert main(["preprocess", "--config", str(cfg), "--events", str(events),
                     "--work-dir", str(wd)]) == 0
        assert main(["build-graph", "--config", str(cfg), "--work-dir", str(wd),
                     "--epsilon", "1", "--top-n", "3"]) == 0
        header = (wd / "graphs" / "global_graph.tsv").read_text().splitlines()[0]
        assert "epsilon=1" in header and "top_n=3" in header

    def test_evaluate_jsonl_format(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"], ["train"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--work-dir", str(wd),
                     "--format", "jsonl"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        row = json.loads(line)
        assert {"P@10", "P@20", "MRR@10", "MRR@20"} <= set(row)

    def test_evaluate_rejects_foreign_or_corrupt_checkpoint(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        foreign = wd / "foreign.ckpt"
        foreign.write_bytes(b'{"magic": "something-else"}\n\x00\x01')
        junk = wd / "junk.ckpt"
        junk.write_bytes(b"\xff\xfe not json at all")
        corrupt = wd / "corrupt.ckpt"
        save_checkpoint(corrupt, NextItemModel(5, 4, ModelConfig(embedding_dim=2, k_hops=0)))
        blob = bytearray(corrupt.read_bytes())
        blob[-1] ^= 0xFF
        corrupt.write_bytes(bytes(blob))
        capsys.readouterr()
        for path, reason in ((foreign, "not a model checkpoint"), (junk, "not a model checkpoint"),
                             (corrupt, "integrity")):
            rc = main(["evaluate", "--config", str(cfg), "--work-dir", str(wd),
                       "--checkpoint", str(path)])
            err = capsys.readouterr().err
            assert rc == 2
            assert reason in err and str(path) in err
            assert len(err.strip().splitlines()) == 1

    def _evaluate_saved(self, pipeline_cfg, capsys, num_items_delta=0, max_len_delta=0):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        meta = json.loads((wd / "corpus" / "meta.json").read_text())
        longest = max(len(e.prefix) for e in read_examples(wd / "corpus" / "examples.tsv")
                      if e.split == "test")
        assert longest >= 2
        ckpt = wd / "mismatched.ckpt"
        save_checkpoint(ckpt, NextItemModel(meta["num_items"] + num_items_delta, longest + max_len_delta,
                                            ModelConfig(embedding_dim=6, k_hops=1)))
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(cfg), "--work-dir", str(wd), "--checkpoint", str(ckpt)])
        return rc, capsys.readouterr().err

    def test_evaluate_rejects_checkpoint_of_another_vocabulary(self, pipeline_cfg, capsys):
        rc, err = self._evaluate_saved(pipeline_cfg, capsys, num_items_delta=-3)
        assert rc == 2
        assert "items" in err and len(err.strip().splitlines()) == 1

    def test_evaluate_rejects_checkpoint_with_short_position_table(self, pipeline_cfg, capsys):
        rc, err = self._evaluate_saved(pipeline_cfg, capsys, max_len_delta=-1)
        assert rc == 2
        assert "test prefix" in err and len(err.strip().splitlines()) == 1

    def test_ablate_aggregation_grid_has_four_rows(self, pipeline_cfg):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        assert main(["ablate", "--config", str(cfg), "--work-dir", str(wd),
                     "--grid", "aggregation", "--epochs", "1"]) == 0
        rows = (wd / "reports" / "ablation_aggregation.jsonl").read_text().strip().splitlines()
        assert len(rows) == 4
        labels = {json.loads(r)["label"] for r in rows}
        assert labels == {"sum", "gate", "max", "concat"}

    def test_ablate_global_grid_covers_all_contrast_models(self, pipeline_cfg):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        assert main(["ablate", "--config", str(cfg), "--work-dir", str(wd),
                     "--grid", "global", "--epochs", "1"]) == 0
        rows = [json.loads(r) for r in
                (wd / "reports" / "ablation_global.jsonl").read_text().strip().splitlines()]
        assert {r["label"] for r in rows} == {"w/o global", "w/o session", "1-hop", "2-hop"}
        assert all("P@20" in r for r in rows)

    def test_ablate_dropout_grid_selects_on_validation(self, pipeline_cfg):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        assert main(["ablate", "--config", str(cfg), "--work-dir", str(wd),
                     "--grid", "dropout", "--epochs", "1"]) == 0
        rows = [json.loads(r) for r in
                (wd / "reports" / "ablation_dropout.jsonl").read_text().strip().splitlines()]
        assert len(rows) == 9
        assert sum(1 for r in rows if r.get("selected_on_validation")) == 1

    @pytest.mark.parametrize("kind, reason", [("missing", "No such file"), ("directory", "Is a directory"),
                                              ("latin-1", "not UTF-8")])
    def test_preprocess_unreadable_events_file_exits_2(self, tmp_path, capsys, kind, reason):
        events = tmp_path / "events.csv"
        if kind == "directory":
            events.mkdir()
        elif kind == "latin-1":
            events.write_bytes("s1,café,1\ns1,thé,2\n".encode("latin-1"))
        rc = main(["preprocess", "--events", str(events), "--work-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert reason in err and str(events) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind, reason", [("missing", "No such file"), ("directory", "Is a directory"),
                                              ("latin-1", "not UTF-8"), ("malformed", "not valid YAML")])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, kind, reason):
        config = tmp_path / "run.yaml"
        if kind == "directory":
            config.mkdir()
        elif kind == "latin-1":
            config.write_bytes("# café\nseed: 3\n".encode("latin-1"))
        elif kind == "malformed":
            config.write_text("model: {k_hops: 1\n")
        rc = main(["gradcheck", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert reason in err and str(config) in err
        assert len(err.strip().splitlines()) == 1

    def test_evaluate_checkpoint_directory_exits_2(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        ckpt = wd / "ckpt_dir"
        ckpt.mkdir()
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(cfg), "--work-dir", str(wd), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Is a directory" in err and str(ckpt) in err
        assert len(err.strip().splitlines()) == 1

    def test_work_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        wd = tmp_path / "run"
        wd.write_text("")
        rc = main(["preprocess", "--events", str(DATA / "toy_events.csv"), "--work-dir", str(wd)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(wd / "corpus") in err and "Not a directory" in err
        assert len(err.strip().splitlines()) == 1

    def test_evaluate_checkpoint_header_missing_keys_exits_2(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        bare = wd / "bare.ckpt"
        bare.write_bytes(b'{"magic": "sessrec-checkpoint", "version": 1}\n')
        partial = wd / "partial.ckpt"
        partial.write_bytes(b'{"magic": "sessrec-checkpoint", "version": 1, "sha256": "00", '
                            b'"num_items": 5, "max_len": 4, "seed": 1}\n\x00')
        capsys.readouterr()
        for path, missing in ((bare, ("config", "params", "sha256")), (partial, ("config", "params"))):
            rc = main(["evaluate", "--config", str(cfg), "--work-dir", str(wd), "--checkpoint", str(path)])
            err = capsys.readouterr().err
            assert rc == 2
            assert str(path) in err and all(key in err for key in missing)
            assert len(err.strip().splitlines()) == 1

    def test_evaluate_checkpoint_with_unsupported_setting_exits_2(self, pipeline_cfg, capsys):
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"], ["train"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        ckpt = wd / "checkpoints" / "model.ckpt"
        header, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["config"]["share_hop_weights"] = True
        edited = wd / "edited.ckpt"
        edited.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(cfg), "--work-dir", str(wd), "--checkpoint", str(edited)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "share_hop_weights" in err and str(edited) in err
        assert len(err.strip().splitlines()) == 1

    def _evaluate_edited_header(self, pipeline_cfg, capsys, edit):
        """Exit code and stderr of `evaluate` on a saved checkpoint whose header
        `edit` changed; the sha256 covers the payload only, so the edit passes it."""
        cfg, events, wd = pipeline_cfg
        for cmd in (["preprocess", "--events", str(events)], ["build-graph"]):
            assert main(cmd + ["--config", str(cfg), "--work-dir", str(wd)]) == 0
        meta = json.loads((wd / "corpus" / "meta.json").read_text())
        ckpt = wd / "saved.ckpt"
        save_checkpoint(ckpt, NextItemModel(meta["num_items"], meta["max_prefix_len"],
                                            ModelConfig(embedding_dim=6, k_hops=1)))
        header, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit(header["params"])
        edited = wd / "edited.ckpt"
        edited.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(cfg), "--work-dir", str(wd), "--checkpoint", str(edited)])
        err = capsys.readouterr().err
        assert str(edited) in err
        return rc, err

    @pytest.mark.parametrize("edit, names", [
        ("drop", ("enc_att_bias",)),
        ("extra", ("extra_table",)),
        ("dtype", ("enc_att_bias", "float33")),
    ])
    def test_evaluate_checkpoint_params_not_matching_the_model_exit_2(self, pipeline_cfg, capsys, edit, names):
        def change(entries):
            entry = next(e for e in entries if e["name"] == "enc_att_bias")
            if edit == "drop":
                entries.remove(entry)
            elif edit == "extra":
                entries.append({**entry, "name": "extra_table"})
            else:
                entry["dtype"] = "float33"

        rc, err = self._evaluate_edited_header(pipeline_cfg, capsys, change)
        assert rc == 2
        assert all(name in err for name in names)
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("dtype", "int64", "item_embeddings is stored as int64"),
        ("offset", 8, "item_embeddings starts at byte 8"),
    ])
    def test_evaluate_checkpoint_with_edited_entry_layout_exits_2(self, pipeline_cfg, capsys, key, value, message):
        # either edit used to load the payload's bytes as garbage values
        def change(entries):
            entries[0][key] = value

        rc, err = self._evaluate_edited_header(pipeline_cfg, capsys, change)
        assert rc == 2
        assert message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--aggregation", "--position-mode", "--loss-mode"])
    def test_bad_model_flag_value_exits_2_with_one_line(self, capsys, flag):
        rc = main(["gradcheck", flag, "bogus"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: invalid configuration:") and flag[2:].replace("-", "_") in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["gradcheck", "--hops", "x"], ["gradcheck", "--dropout", "abc"],
                                      ["train", "--epochs", "x"], ["gradcheck", "--threshold", "x"]])
    def test_flag_value_of_the_wrong_type_exits_2_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"error: argument {argv[1]}: invalid") and repr(argv[2]) in err
        assert len(err.strip().splitlines()) == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("graph: {epsilon: 0}\n")
        rc = main(["preprocess", "--config", str(bad), "--events", "x.csv",
                   "--work-dir", str(tmp_path / "w")])
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_config_passes_threshold(self, capsys):
        rc = main(["gradcheck", "--hops", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_loose_threshold_flag(self):
        assert main(["gradcheck", "--hops", "1", "--threshold", "1.0"]) == 0

    def test_exceeding_threshold_exits_nonzero(self):
        # an unreachably tight threshold forces the failure exit path
        assert main(["gradcheck", "--hops", "1", "--threshold", "1e-16"]) == 1

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_threshold_that_is_not_finite_and_positive_exits_2_with_one_line(self, capsys, value):
        # -1, 0 and nan used to fail every check and inf to pass every one
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--hops", "1", "--threshold", value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err == (f"error: argument --threshold: invalid value {value!r}: "
                       "the threshold must be a finite number > 0\n")
