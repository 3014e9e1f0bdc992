"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions and methods of each sessrec
module with wrappers that record spans, and restores them on
`uninstall()`.  A name is patched where its caller looks it up: the corpus
and graph builders inside `cli`, `pack_example` and `collate` inside
`train` and `evaluation`, the ops on the `autodiff` module (model code calls
`ad.<op>`), methods on their classes.  A hook whose target no longer exists
is reported as absent and its metrics are left out.

Spans are (name, start, end, parent, step), kept in memory and written when
the run ends.  A training step starts at each `collate` call made by
`train` and ends when the next one starts or evaluation begins.  Backward
closures are attributed to the model layer and the op that created their
tensor.  Ops are not spans: per op the tracer keeps calls, self time,
backward time and output bytes, counted inside training steps only.  The
benchmark stops recording before its fault operations, so a `train_model`
call that fails by design is never traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

from sessrec import autodiff, cli, evaluation, graphs, model, train

# (owner, attribute, span name)
SPANS = [
    (cli, "read_events", "corpus.read_events"),
    (cli, "parse_sessions", "corpus.parse_sessions"),
    (cli, "filter_corpus", "corpus.filter_corpus"),
    (cli, "temporal_split", "corpus.temporal_split"),
    (cli, "build_examples", "corpus.build_examples"),
    (cli, "cmd_preprocess", "cli.preprocess"),
    (cli, "cmd_build_graph", "cli.build_graph"),
    (cli, "file_sha256", "cli.checksum"),
    (cli, "build_global_graph", "graphs.build_global_graph"),
    (graphs, "read_global_graph", "graphs.read"),
    (train, "pack_example", "batching.pack_example"),
    (evaluation, "pack_example", "batching.pack_example"),
    (train, "collate", "batching.collate.train"),
    (evaluation, "collate", "batching.collate.eval"),
    (train, "train_model", "train.train_model"),
    (train, "couple_l2", "train.l2"),
    (train.Adam, "step", "train.adam"),
    (autodiff, "backward", "autodiff.backward"),
    (evaluation, "ranks_for_packs", "evaluation.ranks"),
    (evaluation, "rank_of", "evaluation.rank"),
    (model.NextItemModel, "forward", "model.forward"),
    (model.NextItemModel, "global_layer_forward", "model.global"),
    (model.NextItemModel, "session_layer_forward", "model.session"),
    (model.NextItemModel, "fuse", "model.fuse"),
    (model.NextItemModel, "session_encode", "model.encode"),
    (model.NextItemModel, "predict", "model.head"),
    (model.NextItemModel, "loss", "model.head"),
]
LAYERS = ("global", "session", "fuse", "encode", "head")
# The twelve ops with the most self time (forward + backward) over both
# workloads; the rest are in the trace file.
REPORTED_OPS = ("matmul", "mul", "gather", "batched_gather", "leaky_relu", "weighted_sum",
                "concat", "softmax", "log", "sub", "clamp", "add")
# Forwards inside these spans are the workload's model; gradcheck forwards
# (d=8, toy corpus) are left out of `autodiff.nodes_per_forward`.
WORKLOAD_CALLS = ("train.train_model", "evaluation.ranks")
NOT_OPS = {"backward", "gradcheck", "gradcheck_params", "format_graph", "constant"}


def consumed_rows(batch, k_hops):
    """Rows whose hop output the model consumes: hop t of K is needed only
    for the rows within K - t hops of the session nodes."""
    nodes = (np.diagonal(batch.rel, axis1=1, axis2=2) > 0).sum(axis=1)
    total = 0
    for b, n in enumerate(nodes.tolist()):
        reach = set(range(n))
        layer = list(reach)
        total += len(reach)
        for _ in range(k_hops - 1):
            nxt = set(batch.nbr_idx[b, layer][batch.nbr_mask[b, layer]].tolist()) - reach
            reach |= nxt
            layer = list(nxt)
            total += len(reach)
    return total


class OpStats:
    __slots__ = ("calls", "fwd", "bwd", "out_bytes")

    def __init__(self):
        self.calls, self.fwd, self.bwd, self.out_bytes = 0, 0.0, 0.0, 0


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, step]
        self.stack = []            # indices of open spans
        self.layer_stack = []      # open model layer names
        self.step = 0
        self.in_step = False
        self.running = True
        self.patches = []
        self.absent = set()        # span names whose hook target or result fields are gone
        self.ops = defaultdict(OpStats)
        self.op_child = [0.0]      # time of nested op calls, per open op
        self.layer_bwd = defaultdict(float)
        self.counts = defaultdict(float)
        self.op_names = set()
        self.forward_depth = 0
        self.call_depth = 0        # open train_model / ranks_for_packs calls
        self.global_d = None

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, wrapper_factory):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))
        self.patches.append((owner, attr, original))
        return True

    def install(self):
        for owner, attr, name in SPANS:
            if not self._patch(owner, attr, lambda f, name=name: self._span_wrapper(f, name)):
                self.absent.add(name)
        for attr, fn in list(vars(autodiff).items()):
            if (inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                    and not attr.startswith("_") and attr not in NOT_OPS):
                self._patch(autodiff, attr, lambda f, attr=attr: self._op_wrapper(f, attr))
        if not self._patch(autodiff, "_make", self._make_wrapper):
            self.absent.add("autodiff._make")

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def stop(self):
        """Stop recording (the checks after the measured rounds are not traced)."""
        self.running = False

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self
        layer = name[len("model."):] if name.startswith("model.") and name != "model.forward" else None

        def wrapper(*args, **kwargs):
            if not tracer.running:
                return fn(*args, **kwargs)
            first = len(tracer.spans)
            tracer._guarded(tracer._enter, name, args)
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [name, 0.0, 0.0, parent, tracer.step if tracer.in_step else 0]
            tracer.stack.append(first)
            tracer.spans.append(record)
            if layer:
                tracer.layer_stack.append(layer)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
                if layer:
                    tracer.layer_stack.pop()
                tracer._leave(name)
            tracer._guarded(tracer._count, name, args, result, record)
            return result

        return wrapper

    def _op_wrapper(self, fn, op):
        tracer = self
        self.op_names.add(op)

        def wrapper(*args, **kwargs):
            if not (tracer.running and tracer.in_step):
                return fn(*args, **kwargs)
            tracer.op_child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer.op_child.pop()
                tracer.op_child[-1] += dt
            stats = tracer.ops[op]
            stats.calls += 1
            stats.fwd += dt - child
            if op == "matmul" and tracer.layer_stack and tracer.layer_stack[-1] == "global":
                # rows the global layer computed: the d-wide node vectors of each hop
                if result.value.ndim == 2 and result.value.shape[1] == tracer.global_d:
                    tracer.counts["global_rows_computed"] += result.value.shape[0]
            return result

        return wrapper

    def _make_wrapper(self, make):
        tracer = self

        def wrapper(value, parents, backward, op):
            if not tracer.running:
                return make(value, parents, backward, op)
            if tracer.in_step and backward is not None:
                layer = tracer.layer_stack[-1] if tracer.layer_stack else "other"
                stats = tracer.ops[op]
                inner = backward

                def backward(g):
                    t0 = time.perf_counter()
                    out = inner(g)
                    dt = time.perf_counter() - t0
                    tracer.layer_bwd[layer] += dt
                    stats.bwd += dt
                    return out

            tensor = make(value, parents, backward, op)
            if tracer.in_step:
                tracer.ops[op].out_bytes += tensor.value.nbytes
                if tensor.requires_grad:
                    tracer.counts["tape_nodes"] += 1
                    tracer.counts["tape_bytes"] += tensor.value.nbytes
            if tracer.forward_depth and tracer.call_depth:
                tracer.counts["forward_nodes"] += 1
            return tensor

        return wrapper

    # -- counts at span boundaries --------------------------------------------------

    def _guarded(self, hook, name, *args):
        """Run a counting hook; if the program's objects no longer have the
        fields it reads, report the span's layer as absent instead."""
        if name in self.absent:
            return
        try:
            hook(name, *args)
        except (AttributeError, IndexError, TypeError, ValueError):
            self.absent.add(name)

    def _enter(self, name, args):
        if name in WORKLOAD_CALLS:
            self.call_depth += 1
            if name == "evaluation.ranks":
                self.in_step = False
        elif name == "model.forward":
            self.forward_depth += 1
        elif name == "model.global" and self.in_step:
            mdl, h_frontier, batch = args[:3]
            self.global_d = h_frontier.shape[-1]
            self.counts["global_rows_consumed"] += consumed_rows(batch, mdl.config.k_hops)

    def _leave(self, name):
        if name == "model.forward":
            self.forward_depth -= 1
        elif name in WORKLOAD_CALLS:
            self.call_depth -= 1
            if name == "train.train_model":
                self.in_step = False

    def _count(self, name, args, result, record):
        c = self.counts
        if name == "batching.collate.train":
            self.step += 1
            self.in_step = True
            record[4] = self.step
        if name.startswith("batching.collate."):
            kind = name.rsplit(".", 1)[1]
            c[f"{kind}_batches"] += 1
            c[f"{kind}_real_rows"] += sum(len(p.frontier_items) for p in args[0])
            c[f"{kind}_padded_rows"] += result.items.size
        elif name == "batching.pack_example":
            c["packs"] += 1
            c["pack_rows"] += len(result.frontier_items)
        elif name == "graphs.build_global_graph":
            c["neighbor_entries"] += sum(len(v) for v in result.neighbors_map.values())
        elif name == "cli.preprocess":
            c["setups"] += 1
        elif name == "model.forward" and self.call_depth:
            c["forwards"] += 1

    # -- results --------------------------------------------------------------------

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _step in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - child[i], s[4]) for i, s in enumerate(self.spans)]

    def metrics(self, train_rate):
        c = self.counts
        total = defaultdict(float)
        step_total = defaultdict(float)
        for name, self_time, step in self._self_times():
            total[name] += self_time
            if step > 0:
                step_total[name] += self_time
        eval_forward = 0.0
        for name, start, end, parent, step in self.spans:
            if name == "model.forward" and parent >= 0 and self.spans[parent][0] == "evaluation.ranks":
                eval_forward += end - start
        steps = max(self.step, 1)
        setups = max(c["setups"], 1)
        eval_batches = max(c["eval_batches"], 1)
        out = {}

        def put(metric, value, unit, needs=()):
            if not self.absent.intersection(needs):
                out[metric] = (float(value), unit)

        for stage in ("read_events", "parse_sessions", "filter_corpus", "temporal_split",
                      "build_examples"):
            put(f"corpus.{stage}_s", total[f"corpus.{stage}"] / setups, "s", [f"corpus.{stage}"])
        put("cli.preprocess_s", total["cli.preprocess"] / setups, "s", ["cli.preprocess"])
        put("cli.build_graph_s", total["cli.build_graph"] / setups, "s", ["cli.build_graph"])
        put("cli.checksum_s", total["cli.checksum"] / setups, "s", ["cli.checksum"])
        put("graphs.build_global_graph_s", total["graphs.build_global_graph"] / setups, "s",
            ["graphs.build_global_graph"])
        put("graphs.read_s", total["graphs.read"], "s", ["graphs.read"])
        put("graphs.neighbor_entries", c["neighbor_entries"] / setups, "count",
            ["graphs.build_global_graph"])
        put("batching.pack_us_per_example", 1e6 * total["batching.pack_example"] / max(c["packs"], 1),
            "us", ["batching.pack_example"])
        put("batching.collate_ms_per_batch",
            1e3 * (total["batching.collate.train"] + total["batching.collate.eval"])
            / max(c["train_batches"] + c["eval_batches"], 1), "ms",
            ["batching.collate.train", "batching.collate.eval"])
        put("batching.frontier_rows_per_example", c["pack_rows"] / max(c["packs"], 1), "rows",
            ["batching.pack_example"])
        for kind in ("train", "eval"):
            put(f"batching.{kind}_fill", c[f"{kind}_real_rows"] / max(c[f"{kind}_padded_rows"], 1),
                "ratio", [f"batching.collate.{kind}"])
        for layer in LAYERS:
            put(f"model.{layer}.fwd_ms", 1e3 * step_total[f"model.{layer}"] / steps, "ms",
                [f"model.{layer}"])
            put(f"model.{layer}.bwd_ms", 1e3 * self.layer_bwd[layer] / steps, "ms",
                [f"model.{layer}", "autodiff._make"])
        put("model.global.consumed_row_ratio",
            c["global_rows_consumed"] / max(c["global_rows_computed"], 1), "ratio", ["model.global"])
        put("autodiff.backward_ms", 1e3 * step_total["autodiff.backward"] / steps, "ms",
            ["autodiff.backward"])
        put("autodiff.nodes_per_step", c["tape_nodes"] / steps, "count", ["autodiff._make"])
        put("autodiff.tape_mb_per_step", c["tape_bytes"] / steps / 1e6, "MB", ["autodiff._make"])
        put("autodiff.nodes_per_forward", c["forward_nodes"] / max(c["forwards"], 1), "count",
            ["model.forward", "autodiff._make"])
        for op in REPORTED_OPS:
            if op not in self.op_names:
                continue
            s = self.ops[op]
            put(f"autodiff.op.{op}.calls", s.calls / steps, "count")
            put(f"autodiff.op.{op}.fwd_ms", 1e3 * s.fwd / steps, "ms")
            put(f"autodiff.op.{op}.bwd_ms", 1e3 * s.bwd / steps, "ms", ["autodiff._make"])
            put(f"autodiff.op.{op}.out_mb", s.out_bytes / steps / 1e6, "MB", ["autodiff._make"])
        put("train.l2_ms", 1e3 * step_total["train.l2"] / steps, "ms", ["train.l2"])
        put("train.adam_ms", 1e3 * step_total["train.adam"] / steps, "ms", ["train.adam"])
        put("evaluation.forward_ms_per_batch", 1e3 * eval_forward / eval_batches, "ms",
            ["evaluation.ranks", "model.forward"])
        put("evaluation.rank_ms_per_batch", 1e3 * total["evaluation.rank"] / eval_batches, "ms",
            ["evaluation.rank"])
        put("trace.train_examples_per_s", train_rate, "examples/s")
        return out

    def write(self, path, header):
        """Write the spans and op totals as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({**header, "absent": sorted(self.absent)}) + "\n")
            for op, s in sorted(self.ops.items()):
                f.write(json.dumps({"op": op, "calls": s.calls, "fwd_s": s.fwd, "bwd_s": s.bwd,
                                    "out_bytes": s.out_bytes}) + "\n")
            for name, start, end, parent, step in self.spans:
                f.write(json.dumps([name, start, end, parent, step]) + "\n")
