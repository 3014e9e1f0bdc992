"""Describe the generated inputs of a workload (the table in README.md).

    python3 perfbench/inputs.py --workload digi43k-k1 --seed 1

Generates the events file, runs `sessrec preprocess` + `build-graph` once
and prints clicks, items, examples, the session-length histogram and the
mean number of frontier rows per hop over the test examples.
"""

from __future__ import annotations

import run  # pins BLAS threads before numpy is imported

import argparse
import contextlib
import json
import shutil
import statistics
import sys
from collections import Counter


def frontier_layers(prefix, neighbours, hops):
    """Sizes of the BFS layers around a prefix's distinct items."""
    seen = set(prefix)
    layer = list(seen)
    sizes = [len(seen)]
    for _ in range(hops):
        nxt = []
        for item in layer:
            for nbr, _w in neighbours.get(item, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        sizes.append(len(nxt))
        layer = nxt
    return sizes


def main(argv=None):
    run.import_program()
    from workloads import WORKLOADS, Phases, load, setup

    import gen

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = run.HERE / "work" / f"inputs-{wl.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        clicks = gen.write_events(work / "events.csv", wl.sessions, wl.catalogue, args.seed)
        with contextlib.redirect_stdout(sys.stderr):
            wd, _ = setup(wl, work / "events.csv", work, Phases())
        meta = json.loads((wd / "corpus" / "meta.json").read_text())
        data = load(wl, wd)
        lengths = Counter(len(s) for s in data.train_sessions + data.test_sessions)
        hops = wl.model.get("k_hops", 1)
        test_prefixes = []
        with open(wd / "corpus" / "examples.tsv") as f:
            for line in f:
                prefix, _label, split = line.rstrip("\n").split("\t")
                if split == "test":
                    test_prefixes.append([int(i) for i in prefix.split(" ")])
        layers = [frontier_layers(pf, data.graph_lists, hops) for pf in test_prefixes]
        per_hop = [statistics.fmean(sz[t] for sz in layers) for t in range(hops + 1)]
        bins = [(2, 2), (3, 3), (4, 5), (6, 10), (11, 20), (21, 10**9)]
        print(json.dumps({
            "workload": wl.name, "seed": args.seed, "generated_clicks": clicks,
            "clicks": meta["num_clicks"], "items": meta["num_items"],
            "train_examples": meta["num_train_examples"], "test_examples": meta["num_test_examples"],
            "mean_session_length": meta["avg_session_len"],
            "session_lengths": {f"{a}-{b}" if b < 10**9 else f"{a}+":
                                sum(c for n, c in lengths.items() if a <= n <= b) for a, b in bins},
            "frontier_rows_per_hop": [round(x, 2) for x in per_hop],
        }, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
