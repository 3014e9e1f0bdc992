"""Two-level graph attention model for next-item prediction.

Item vectors are learned at two levels and fused: a global level that
attends over each item's co-occurrence neighbors (weighted by affinity to
the running session's mean embedding), and a session level that attends
over the session graph with one weight vector per edge relation.  Fused
per-position vectors are pooled into a session vector with position-aware
soft attention, and candidates are scored against the initial embedding
table.  `forward` stops at the session vector: training scores it and takes
the loss in one op (`autodiff.score_loss`), and evaluation ranks from the
logits of `predict`, which `ForwardResult.logits` computes when read.

All forward math runs on the autodiff tape, on the batch's real rows only
(`SessionBatch.rows`, see batching module): it gathers the item table once,
for every frontier row; the global layer runs on the frontier rows and their
neighbor table, the session layer on the session-node rows and their edge
table, and both hand back (T_0, d) session-node rows, which `fuse` combines
row by row.  One gather through `rows.pos_rows` gives the (P, d) position
rows, on which the session encoder runs.  Products are row-stable and sums
over an example's positions or table slots add in a fixed order, so an
example's outputs have the same bits in any batch (bar `predict`'s logits).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .batching import SessionBatch, collate, pack_example
from .graphs import build_global_graph, csr

AGGREGATIONS = ("sum", "gate", "max", "concat")
POSITION_MODES = ("reversed", "forward", "self_attention", "none")
LOSS_MODES = ("binary", "categorical")
PRECISIONS = ("double", "single")

CHECKPOINT_VERSION = 1
LEAKY_SLOPE = 0.2  # negative slope of every LeakyReLU in the attention scores


@dataclass
class ModelConfig:
    embedding_dim: int = 100
    k_hops: int = 1
    aggregation: str = "sum"
    position_mode: str = "reversed"
    use_session_layer: bool = True
    dropout_global: float = 0.4
    loss_mode: str = "binary"
    precision: str = "double"

    def __post_init__(self):
        problems = [msg for bad, msg in (
            (self.embedding_dim < 1, "embedding_dim must be >= 1"),
            (self.k_hops not in (0, 1, 2), "k_hops must be 0, 1 or 2"),
            (self.aggregation not in AGGREGATIONS, f"aggregation must be one of {AGGREGATIONS}"),
            (self.position_mode not in POSITION_MODES, f"position_mode must be one of {POSITION_MODES}"),
            (not 0.0 <= self.dropout_global < 1.0, "dropout_global must be in [0, 1): rate must be < 1"),
            (self.loss_mode not in LOSS_MODES, f"loss_mode must be one of {LOSS_MODES}"),
            (self.precision not in PRECISIONS, f"precision must be one of {PRECISIONS}"),
            (self.k_hops == 0 and not self.use_session_layer,
             "at least one of the global layer (k_hops >= 1) and the session layer must be enabled"),
        ) if bad]
        if problems:
            raise ValueError("\n".join(problems))

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


@dataclass
class ForwardResult:
    session_vec: ad.Tensor     # (B, d)
    fused: ad.Tensor           # (T_0, d) fused item vectors of the session-node rows (batch.rows)
    seq_vectors: ad.Tensor     # (P, d) fused vectors of the position rows (batch.rows.pos_rows)
    step_weights: ad.Tensor    # (P,) soft-attention weights of the position rows
    global_attn: list          # per hop t = 1..K: (T_{K-t}, W) neighbor attention, as rows.nbr_idx
    session_attn: ad.Tensor | None  # (T_0, W_s) edge attention, as rows.sess_idx; 0 where masked
    predict: Callable = field(repr=False)  # the model's scoring head

    @property
    def logits(self):
        """(B, m) pre-softmax scores, computed from the session vector when read."""
        return self.predict(self.session_vec)

    @property
    def probs(self):
        """(B, m) next-item probabilities, computed from the logits when read."""
        return ad.softmax(self.logits, axis=-1)


class NextItemModel:
    """Trainable model over a vocabulary of `num_items` items (indices 1..m).

    `max_len` bounds the session prefix length the position table supports.
    Parameters are initialised from Gaussian(0, 0.1) with the given seed.
    """

    def __init__(self, num_items: int, max_len: int, config: ModelConfig, seed: int = 1):
        self.num_items = num_items
        self.max_len = max_len
        self.config = config
        self.seed = seed
        self.params = ad.ParameterStore()
        self._init_params(np.random.default_rng(np.random.SeedSequence([seed, 0x5EED])))

    # -- parameters ---------------------------------------------------------

    def _init_params(self, rng):
        cfg = self.config
        d = cfg.embedding_dim
        dt = cfg.dtype

        def gauss(name, shape):
            return self.params.register(name, rng.normal(0.0, 0.1, size=shape).astype(dt, copy=False))

        gauss("item_embeddings", (self.num_items + 1, d))  # row 0 is padding
        if cfg.k_hops >= 1:
            for suffix in self._hop_suffixes():
                gauss(f"global_att_proj{suffix}", (d + 1, d + 1))
                gauss(f"global_att_vec{suffix}", (d + 1,))
                gauss(f"global_agg{suffix}", (d, 2 * d))
        if cfg.use_session_layer:
            for rel in ("in", "out", "inout", "self"):
                gauss(f"session_rel_{rel}", (d,))
        if cfg.position_mode in ("reversed", "forward"):
            gauss("position_table", (self.max_len, d))
        if cfg.position_mode in ("reversed", "forward", "none"):
            gauss("enc_pos_proj", (d, 2 * d))
            gauss("enc_pos_bias", (d,))
        gauss("enc_att_item", (d, d))
        gauss("enc_att_sess", (d, d))
        gauss("enc_att_vec", (d,))
        gauss("enc_att_bias", (d,))
        if cfg.k_hops >= 1 and cfg.use_session_layer:
            if cfg.aggregation == "gate":
                gauss("fuse_gate_sess", (d, d))
                gauss("fuse_gate_global", (d, d))
            elif cfg.aggregation == "concat":
                gauss("fuse_concat", (d, 2 * d))

    def _hop_suffixes(self):
        return [f"_hop{k + 1}" for k in range(self.config.k_hops)]

    # -- layers ---------------------------------------------------------------

    def global_layer_forward(self, h_frontier, batch: SessionBatch, session_feat):
        """Hop-stacked neighbor aggregation on the co-occurrence graph.

        Runs on the batch's real rows only (`batch.rows`, see batching
        module): `h_frontier` (T_K, d) holds their initial vectors, hop layer
        by hop layer.  Only the session rows' final vectors are consumed, so
        hop t of K computes just the rows within K - t hops, the prefix
        [0, T_{K-t}), reading its inputs from [0, T_{K-t+1}); every op is
        2-D over rows and row-stable, so a row's bits do not depend on the
        other rows of the batch.  A neighbor's score
        q1^T LeakyReLU(W1 [(s * h_j) || w_ij]) is factored as gathered per-row
        projections (s * h_j) W1a^T plus w_ij W1b, with W1 = [W1a | W1b];
        `ad.neighbor_scores` computes it in one tape op, and `ad.neighbor_mix`
        sums the attention-weighted neighbor vectors without a gathered
        (R, W, d) copy.  `session_feat` (B, d) is the mean of the session's
        initial item embeddings; one gather per hop hands each row its
        example's, and it stays fixed across hops.

        Returns the session rows' final vectors (T_0, d) and, per hop t,
        the neighbor attention (T_{K-t}, W) of the rows within K - t hops,
        slot for slot as in `rows.nbr_idx` and zero on masked slots.
        """
        rows = batch.rows
        ends = rows.ends
        d = h_frontier.shape[1]
        attn = []
        h = h_frontier
        for t, suffix in enumerate(self._hop_suffixes(), start=1):
            rows_in, n = ends[-t], ends[-t - 1]
            proj = self.params[f"global_att_proj{suffix}"]
            vec = self.params[f"global_att_vec{suffix}"]
            agg = self.params[f"global_agg{suffix}"]
            s = ad.gather(session_feat, rows.example[:rows_in])                  # (T_in, d)
            z = ad.matmul(ad.mul(h, s), ad.narrow(proj, 1, 0, d), transpose_b=True)  # (T_in, d+1)
            w1b = ad.reshape(ad.narrow(proj, 1, d, 1), (d + 1,))
            nbr_idx = rows.nbr_idx[:n]
            scores = ad.neighbor_scores(z, nbr_idx, rows.nbr_wt[:n], w1b, vec, LEAKY_SLOPE)
            alpha = ad.masked_softmax(scores, rows.nbr_mask[:n], axis=-1)     # (T_out, W)
            h_nbr = ad.neighbor_mix(alpha, h, nbr_idx)                        # zero rows when isolated
            cat = ad.concat([ad.narrow(h, 0, 0, n), h_nbr], axis=-1)          # (T_out, 2d)
            h = ad.relu(ad.matmul(cat, agg, transpose_b=True))
            attn.append(alpha)
        return h, attn

    def session_layer_forward(self, h_rows, batch: SessionBatch):
        """Relation-typed attention over the session graph.

        Runs on the batch's session-node rows and their edge table
        (`batch.rows`, see batching module): `h_rows` (T_0, d) holds the
        node rows' initial vectors, and each row attends over its in-graph
        neighbors, itself included, the (T_0, W_s) edge slots.  A slot's
        score is LeakyReLU of the elementwise product of the endpoint
        vectors dotted with the weight vector of the edge relation; masked
        slots get exact zeros in the softmax, and `ad.neighbor_mix` sums the
        neighbors in slot order, so the bits of a row do not depend on W_s or
        on the other rows.

        Returns the node rows' vectors (T_0, d) and their attention over
        the edge slots (T_0, W_s), slot for slot as in `rows.sess_idx` and
        zero on masked slots.
        """
        cfg = self.config
        rows = batch.rows
        T, d = h_rows.shape
        weights = [ad.constant(np.zeros(d, dtype=cfg.dtype))]   # REL_NONE's
        weights += [self.params[f"session_rel_{rel}"] for rel in ("in", "out", "inout", "self")]
        rel_table = ad.reshape(ad.concat(weights), (5, d))         # row = relation code
        rel_vecs = ad.gather(rel_table, rows.sess_rel)             # (T_0, W_s, d)
        h_nbr = ad.gather(h_rows, rows.sess_idx)                   # (T_0, W_s, d)
        prod = ad.mul(ad.reshape(h_rows, (T, 1, d)), h_nbr)
        scores = ad.leaky_relu(ad.reduce_sum(ad.mul(prod, rel_vecs), axis=-1), LEAKY_SLOPE)
        alpha = ad.masked_softmax(scores, rows.sess_rel > 0, axis=-1)  # rows sum to 1 per node
        return ad.neighbor_mix(alpha, h_rows, rows.sess_idx), alpha  # (T_0, d), (T_0, W_s)

    def fuse(self, h_global, h_session, train_mode=False, rng=None):
        """Combine the two levels' (T_0, d) node rows into final item vectors."""
        cfg = self.config
        if h_global is None and h_session is None:
            raise ValueError("fuse: both representation branches are disabled")
        if h_global is None:
            return h_session
        # every aggregation, the gate's input included, sees the dropped global branch
        h_global = ad.dropout(h_global, cfg.dropout_global, train_mode, rng)
        if h_session is None:
            return h_global
        if cfg.aggregation == "sum":
            return ad.add(h_global, h_session)
        if cfg.aggregation == "max":
            return ad.maximum(h_global, h_session)
        if cfg.aggregation == "gate":
            r = ad.sigmoid(ad.add(ad.matmul(h_session, self.params["fuse_gate_sess"], transpose_b=True),
                                  ad.matmul(h_global, self.params["fuse_gate_global"], transpose_b=True)))
            return ad.add(ad.mul(r, h_global), ad.mul(ad.sub(1.0, r), h_session))
        # concat
        cat = ad.concat([h_global, h_session], axis=-1)
        return ad.matmul(cat, self.params["fuse_concat"], transpose_b=True)

    def session_encode(self, seq_vectors, batch: SessionBatch, inv_len):
        """Pool the position rows' vectors `seq_vectors` (P, d) into one
        session vector per example (B, d), given `inv_len` (B, 1) = 1 / length;
        also returns the rows' weights (P,).

        Default path concatenates each position's vector with a position
        embedding indexed from the end of the session (`reversed`), applies a
        tanh projection, and weights positions by an unnormalized
        soft-attention score against the session mean, which one gather
        hands to each position row.  `self_attention` swaps the query to the
        last position's vector.
        """
        cfg = self.config
        rows = batch.rows
        P, d = seq_vectors.shape
        w_item = self.params["enc_att_item"]
        w_sess = self.params["enc_att_sess"]

        if cfg.position_mode == "self_attention":
            query = ad.matmul(ad.gather(seq_vectors, rows.last_pos), w_sess, transpose_b=True)  # (B, d)
            keys = ad.matmul(seq_vectors, w_item, transpose_b=True)          # (P, d)
        else:
            if cfg.position_mode == "none":  # no position information
                pos_emb = ad.constant(np.zeros((P, d), dtype=cfg.dtype))
            else:
                if int(batch.lengths.max()) > self.max_len:
                    raise ValueError(
                        f"session length {int(batch.lengths.max())} exceeds the position table "
                        f"({self.max_len} rows); rebuild the model with a larger max_len"
                    )
                pos_idx = rows.position
                if cfg.position_mode == "reversed":
                    pos_idx = batch.lengths[rows.pos_example] - 1 - pos_idx
                pos_emb = ad.gather(self.params["position_table"], pos_idx)  # (P, d)
            cat = ad.concat([seq_vectors, pos_emb], axis=-1)                 # (P, 2d)
            z = ad.tanh(ad.add(ad.matmul(cat, self.params["enc_pos_proj"], transpose_b=True),
                               self.params["enc_pos_bias"]))
            mean_vec = ad.mul(ad.weighted_sum(None, seq_vectors, rows.pos_example, rows.pos_ends), inv_len)
            keys = ad.matmul(z, w_item, transpose_b=True)                    # (P, d)
            query = ad.matmul(mean_vec, w_sess, transpose_b=True)            # (B, d)
        inner = ad.sigmoid(ad.add(ad.add(keys, ad.gather(query, rows.pos_example)), self.params["enc_att_bias"]))
        beta = ad.reshape(ad.matmul(inner, ad.reshape(self.params["enc_att_vec"], (d, 1))), (P,))
        session_vec = ad.weighted_sum(beta, seq_vectors, rows.pos_example, rows.pos_ends)
        return session_vec, beta

    def predict(self, session_vec):
        """Logits (B, m) over all items, scored against the initial embeddings.

        Evaluation ranks from these; training never forms them, since `loss`
        scores the session vectors inside its loss op.  The product is the
        one `autodiff.score_loss` runs, so both see the same logits.
        """
        cand = ad.narrow(self.params["item_embeddings"], 0, 1, self.num_items)
        # plain BLAS: at B=100, row-stable blocks take twice as long (the item
        # table is packed again for each 96-row block), so a row's logits may
        # change in the last bits with the batch's row count
        return ad.matmul(session_vec, cand, transpose_b=True, row_stable=False)

    # -- end-to-end -----------------------------------------------------------

    def forward(self, batch: SessionBatch, train_mode=False, rng=None) -> ForwardResult:
        cfg = self.config
        emb = self.params["item_embeddings"]
        rows = batch.rows

        inv_len = ad.constant((1.0 / batch.lengths)[:, None], dtype=cfg.dtype)
        h0 = ad.gather(emb, rows.items)                              # (T_K, d)

        h_global = None
        global_attn = []
        if cfg.k_hops >= 1:
            h_pos = ad.gather(h0, rows.pos_rows)                     # (P, d)
            session_feat = ad.mul(ad.weighted_sum(None, h_pos, rows.pos_example, rows.pos_ends), inv_len)
            h_global, global_attn = self.global_layer_forward(h0, batch, session_feat)

        h_session = None
        session_attn = None
        if cfg.use_session_layer:
            h_session, session_attn = self.session_layer_forward(ad.narrow(h0, 0, 0, rows.ends[0]), batch)

        fused = self.fuse(h_global, h_session, train_mode, rng)      # (T_0, d)
        seq_vectors = ad.gather(fused, rows.pos_rows)                # (P, d)
        session_vec, beta = self.session_encode(seq_vectors, batch, inv_len)
        return ForwardResult(session_vec, fused, seq_vectors, beta, global_attn, session_attn,
                             self.predict)

    def loss(self, session_vec, labels):
        """Scalar loss (mean over the batch) of the softmax of the logits of
        `session_vec` (B, d) against the item indices `labels`.

        `binary` mode sums a per-item binary cross entropy over the whole
        vocabulary against the one-hot target; `categorical` is the negative
        log probability of the label.  Scoring and loss are one op
        (`autodiff.score_loss`), so a saturated softmax stays finite and the
        tape keeps one (B, m) array, the gradient of the logits.
        """
        per_example = self.example_losses(session_vec, labels)
        out = ad.mean_all(per_example)
        if not np.isfinite(out.value):
            raise FloatingPointError("non-finite loss")
        return out

    def example_losses(self, session_vec, labels):
        if session_vec.ndim == 1:
            session_vec = ad.reshape(session_vec, (1, session_vec.shape[0]))
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        if np.any((labels < 1) | (labels > self.num_items)):
            raise ValueError("labels must be item indices in [1, m]")
        return ad.score_loss(session_vec, self.params["item_embeddings"], labels - 1, self.config.loss_mode)

    # -- state ------------------------------------------------------------------

    def state_dict(self):
        return self.params.state_dict()

    def load_state_dict(self, state):
        self.params.load_state_dict(state)


# -- gradient checking ----------------------------------------------------------

TOY_SESSIONS = [[1, 2, 3, 2], [2, 3, 4], [4, 1, 4, 5]]


def toy_batch(config: ModelConfig, epsilon=3, top_n=12):
    """One batch holding every prefix example of a tiny 3-session corpus."""
    num_items = 5
    graph = build_global_graph(*csr(TOY_SESSIONS), epsilon, top_n, num_items=num_items)
    packs = []
    for seq in TOY_SESSIONS:
        for k in range(1, len(seq)):
            packs.append(pack_example(tuple(seq[:k]), seq[k], graph, config.k_hops))
    return collate(packs), num_items


def model_gradcheck(config: ModelConfig, step=1e-5, seed=3):
    """Max relative error between analytic and finite-difference gradients of
    the full loss on the toy corpus, over every parameter coordinate."""
    if config.precision != "double":
        raise ValueError("gradcheck requires double precision")
    batch, num_items = toy_batch(config)
    model = NextItemModel(num_items, max_len=4, config=config, seed=seed)

    def build_loss():
        return model.loss(model.forward(batch, train_mode=False).session_vec, batch.labels)

    return ad.gradcheck_params(build_loss, model.params.trainable(), step=step)


# -- checkpoints ------------------------------------------------------------------

_CKPT_MAGIC = "sessrec-checkpoint"
# settings that older version-1 headers record, at the one value the model now fixes
_RETIRED = {"leaky_slope": LEAKY_SLOPE, "share_hop_weights": False, "normalize_step_attention": False}


def save_checkpoint(path, model: NextItemModel):
    """Single-file checkpoint: JSON header line + raw parameter payload,
    integrity-checked with a sha256 over the payload."""
    entries = []
    blobs = []
    offset = 0
    for name in model.params.names():
        arr = np.ascontiguousarray(model.params[name].value)
        raw = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype),
                        "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    payload = b"".join(blobs)
    header = {
        "magic": _CKPT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(model.config),
        "num_items": model.num_items,
        "max_len": model.max_len,
        "seed": model.seed,
        "params": entries,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(payload)


def load_checkpoint(path) -> NextItemModel:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode())
        except ValueError:  # not UTF-8 or not JSON
            header = None
        payload = f.read()
    if not isinstance(header, dict) or header.get("magic") != _CKPT_MAGIC:
        raise ValueError(f"{path} is not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
    missing = sorted({"sha256", "config", "params", "num_items", "max_len", "seed"} - set(header))
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise ValueError(f"{path}: checkpoint payload fails its integrity check")
    config = {k: v for k, v in header["config"].items() if k not in _RETIRED or v != _RETIRED[k]}
    unsupported = sorted(set(config) - {f.name for f in dataclasses.fields(ModelConfig)})
    if unsupported:
        raise ValueError(f"{path}: unsupported model settings in the checkpoint: "
                         + ", ".join(f"{k}={config[k]!r}" for k in unsupported))
    model = NextItemModel(header["num_items"], header["max_len"], ModelConfig(**config), seed=header["seed"])
    entries = header["params"]
    try:
        model.params.match_names([ent["name"] for ent in entries])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # the sha256 covers the payload, not the header: each entry must hold one
    # parameter in the model's dtype, the entries back to back as saved
    want, end = np.dtype(model.config.dtype), 0
    for ent in entries:
        name = ent["name"]
        try:
            dtype = np.dtype(ent["dtype"])
        except TypeError:
            raise ValueError(f"{path}: parameter {name} has unknown dtype {ent['dtype']!r}") from None
        if dtype != want:
            raise ValueError(f"{path}: parameter {name} is stored as {dtype}, the model holds {want}")
        if ent["nbytes"] != math.prod(ent["shape"]) * dtype.itemsize:
            raise ValueError(f"{path}: parameter {name} has {ent['nbytes']} bytes for shape {ent['shape']}")
        if ent["offset"] != end:
            raise ValueError(f"{path}: parameter {name} starts at byte {ent['offset']}, not {end}")
        end += ent["nbytes"]
    if end != len(payload):
        raise ValueError(f"{path}: the last parameter, {name}, ends at byte {end} of a {len(payload)}-byte payload")
    state = {ent["name"]: np.frombuffer(payload[ent["offset"]: ent["offset"] + ent["nbytes"]], dtype=want)
             .reshape(ent["shape"]).copy() for ent in entries}
    try:
        model.load_state_dict(state)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model
