"""The benchmark's tracer (perfbench/tracing.py) patches sessrec names from
outside the program and silently drops the metrics of any hook whose target
is gone, or whose counts read pack and batch fields that are gone.  These
tests check that every hook target still resolves the way `Tracer._patch`
looks it up, and that a traced toy pipeline reports every per-layer metric
that BENCHMARK.json lists, so a refactor cannot drop one.  The benchmark
driver (perfbench/workloads.py) also calls the program directly; a toy
workload run through it end to end guards those calls."""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from sessrec import autodiff, cli, corpus, evaluation, graphs, model, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def _resolves(owner, attr):
    """`Tracer._patch`'s lookup: a class's own attribute, a module's attribute."""
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return found is not None


@pytest.mark.parametrize("owner, attr, span", tracing.SPANS, ids=[f"{s}:{a}" for _, a, s in tracing.SPANS])
def test_span_target_resolves(owner, attr, span):
    assert _resolves(owner, attr), f"{span}: {getattr(owner, '__name__', owner)}.{attr} is gone"


def test_make_hook_resolves():
    assert _resolves(autodiff, "_make")


@pytest.mark.parametrize("op", tracing.REPORTED_OPS)
def test_reported_op_is_patched_as_an_op(op):
    # `Tracer.install` wraps the public functions defined in autodiff, less NOT_OPS
    fn = getattr(autodiff, op, None)
    assert inspect.isfunction(fn) and fn.__module__ == autodiff.__name__, f"autodiff.{op} is gone"
    assert op not in tracing.NOT_OPS


def test_traced_toy_pipeline_reports_every_per_layer_metric(tmp_path):
    events, wd = tmp_path / "events.csv", tmp_path / "run"
    _load("gen").write_events(events, sessions=300, catalogue=60, seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["preprocess", "--events", str(events), "--work-dir", str(wd),
                         "--min-item-freq", "1"]) == 0
        assert cli.main(["build-graph", "--work-dir", str(wd), "--epsilon", "2", "--top-n", "4"]) == 0
        meta = json.loads((wd / "corpus" / "meta.json").read_text())
        examples = corpus.read_examples(wd / "corpus" / "examples.tsv")
        graph = graphs.read_global_graph(wd / "graphs" / "global_graph.tsv")
        by_split = {split: [e for e in examples if e.split == split][:60]
                    for split in ("train", "validation", "test")}
        model_cfg = model.ModelConfig(embedding_dim=8, k_hops=2, dropout_global=0.0)
        train_cfg = train.TrainConfig(batch_size=20, max_epochs=1, patience=1)
        result = train.train_model(by_split["train"] + by_split["validation"], meta["num_items"],
                                   meta["max_prefix_len"], graph, model_cfg, train_cfg)
        evaluation.evaluate_model(result.model, by_split["test"], graph, batch_size=20)
        metrics = tracer.metrics(1.0)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    listed = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in listed if m["name"] not in metrics] == []
    # the counters read the stacked batch arrays: every computed global row is
    # consumed, and the padded arrays hold at least the real rows
    assert metrics["model.global.consumed_row_ratio"][0] == 1.0
    assert 0 < metrics["batching.train_fill"][0] <= 1 and 0 < metrics["batching.eval_fill"][0] <= 1


@pytest.mark.parametrize("k_hops", [1, 2])
def test_toy_workload_runs_end_to_end(tmp_path, monkeypatch, capsys, k_hops):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports gen as a top-level module
    workloads = _load("workloads")
    combo = next(c for c in workloads.FULL_GRID if c["k_hops"] == k_hops)
    wl = workloads.Workload(f"toy-k{k_hops}", sessions=3000, catalogue=300,
                            model=dict(k_hops=k_hops, embedding_dim=8), train_lengths=(1, 2),
                            fault_lengths=(), eval_per_slot=20, eval_batch=10, setup_repeats=1,
                            gradcheck=(combo,), min_rounds=1)
    result = workloads.run_workload(wl, seed=5, seconds=0.1, traced=False, work_root=tmp_path / "work")
    assert "check failed" not in capsys.readouterr().err
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
