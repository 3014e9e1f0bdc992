"""The columnar set-up against the per-event reference pipeline
(`reference_pipeline.py`): on random clickstreams, `sessrec preprocess` +
`sessrec build-graph` write the same stage files byte for byte, or fail
with the same one-line message."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_pipeline as reference
from sessrec.cli import main
from sessrec.corpus import CorpusError

DAY = 86400
STAGE_FILES = ("corpus/sessions.tsv", "corpus/examples.tsv", "corpus/vocab.tsv", "corpus/meta.json",
               "graphs/global_graph.tsv")
# lines that each break one rule of the events format
MALFORMED = ("s1,i2", "s1,i2,3,4", "s1,i2,later", ",i2,5", "s1, ,5", "s1,i2,-3")


@st.composite
def clickstreams(draw, delimiter):
    """Events text: interleaved sessions over ten days, timestamp ties,
    repeated and rare items, comma or tab lines with padded fields (each
    line its own under auto-detection), an optional header, blank lines and
    now and then a malformed line."""
    seps = (",", ",", "\t", " ,", "\t ") if delimiter is None else (delimiter, delimiter + " ")
    events = []
    for s in range(draw(st.integers(1, 14))):
        day = draw(st.integers(0, 9))
        for _ in range(draw(st.integers(1, 6))):
            events.append((f"s{s}", f"i{draw(st.integers(0, 9))}", day * DAY + 60 * draw(st.integers(0, 3))))
    events = draw(st.permutations(events))
    lines = []
    for sess, item, ts in events:
        sep = draw(st.sampled_from(seps))
        lines.append(f"{sess}{sep}{item}{sep}{ts}")
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(seps)).join(("session_id", "item_id", "timestamp")))
    blank = st.sampled_from(("", "  ", "\t"))
    for line in draw(st.lists(blank, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    lines = draw(st.lists(blank, max_size=1)) + lines  # a header is one only on line 1
    bad = draw(st.sampled_from((None,) * 12 + MALFORMED))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


options = st.fixed_dictionaries({
    "delimiter": st.sampled_from((None, None, None, ",", "\t")),
    "min_item_freq": st.integers(1, 3),
    "min_session_len": st.integers(2, 3),
    "test_window_days": st.sampled_from((1.0, 2.5, 4.0)),
    "validation_fraction": st.sampled_from((0.0, 0.1, 0.5)),
    "seed": st.integers(0, 3),
    "epsilon": st.integers(1, 4),
    "top_n": st.integers(1, 6),
})


def run_cli(events, work, opts):
    cfg = work / "cfg.json"  # JSON is YAML
    corpus = {k: opts[k] for k in ("min_item_freq", "min_session_len", "test_window_days",
                                   "validation_fraction")}
    if opts["delimiter"] is not None:
        corpus["delimiter"] = opts["delimiter"]
    cfg.write_text(json.dumps({"seed": opts["seed"], "corpus": corpus,
                               "graph": {"epsilon": opts["epsilon"], "top_n": opts["top_n"]}}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        common = ["--config", str(cfg), "--work-dir", str(work / "run")]
        rc = main(["preprocess", "--events", str(events)] + common)
        if rc == 0:
            rc = main(["build-graph"] + common)
    return rc, err.getvalue()


@given(st.data(), options)
@settings(max_examples=150, deadline=None)
def test_columnar_setup_writes_the_reference_stage_files(data, opts):
    text = data.draw(clickstreams(opts["delimiter"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        events = tmp / "events.csv"
        events.write_text(text)
        expected = tmp / "reference"
        (expected / "corpus").mkdir(parents=True)
        (expected / "graphs").mkdir()
        try:
            reference.write_stage_files(events, expected / "corpus", expected / "graphs", **opts)
            failure = None
        except CorpusError as exc:
            failure = f"error: {exc}\n"
        rc, err = run_cli(events, tmp, opts)
        event("fails: " + failure.split(":")[-1].strip().split(" ")[0] if failure else "stage files")
        if failure is not None:
            assert (rc, err) == (2, failure)
            return
        assert (rc, err) == (0, "")
        for name in STAGE_FILES:
            assert (tmp / "run" / name).read_bytes() == (expected / name).read_bytes(), name
