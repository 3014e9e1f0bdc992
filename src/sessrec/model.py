"""Two-level graph attention model for next-item prediction.

Item vectors are learned at two levels and fused: a global level that
attends over each item's co-occurrence neighbors (weighted by affinity to
the running session's mean embedding), and a session level that attends
over the session graph with one weight vector per edge relation.  Fused
per-position vectors are pooled into a session vector with position-aware
soft attention, and candidates are scored against the initial embedding
table; the softmax over those logits is folded into the loss.

All forward math runs on the autodiff tape.  Reductions along padded axes
use the padding-stable ops, so a padded batch reproduces unpadded forwards
exactly (see batching module).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .batching import SessionBatch, collate, pack_example
from .graphs import build_global_graph

AGGREGATIONS = ("sum", "gate", "max", "concat")
POSITION_MODES = ("reversed", "forward", "self_attention", "none")
LOSS_MODES = ("binary", "categorical")
PRECISIONS = ("double", "single")

CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    embedding_dim: int = 100
    k_hops: int = 1
    aggregation: str = "sum"
    position_mode: str = "reversed"
    use_session_layer: bool = True
    dropout_global: float = 0.4
    leaky_slope: float = 0.2
    loss_mode: str = "binary"
    share_hop_weights: bool = False
    normalize_step_attention: bool = False
    precision: str = "double"

    def __post_init__(self):
        problems = [msg for bad, msg in (
            (self.embedding_dim < 1, "embedding_dim must be >= 1"),
            (self.k_hops not in (0, 1, 2), "k_hops must be 0, 1 or 2"),
            (self.aggregation not in AGGREGATIONS, f"aggregation must be one of {AGGREGATIONS}"),
            (self.position_mode not in POSITION_MODES, f"position_mode must be one of {POSITION_MODES}"),
            (not 0.0 <= self.dropout_global < 1.0, "dropout_global must be in [0, 1): rate must be < 1"),
            (self.leaky_slope <= 0, "leaky_slope must be > 0"),
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
    logits: ad.Tensor          # (B, m) pre-softmax scores
    session_vec: ad.Tensor     # (B, d)
    fused: ad.Tensor           # (B, N, d) fused item vectors per session node
    seq_vectors: ad.Tensor     # (B, L, d) fused vectors per sequence position
    step_weights: ad.Tensor    # (B, L) soft-attention weights over positions
    global_attn: list          # per hop t = 1..K: (B, P_{K-t}, W) neighbor attention
    session_attn: ad.Tensor | None  # (B, N, N)

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
            return self.params.register(name, rng.normal(0.0, 0.1, size=shape).astype(dt))

        gauss("item_embeddings", (self.num_items + 1, d))  # row 0 is padding
        if cfg.k_hops >= 1:
            for suffix in dict.fromkeys(self._hop_suffixes()):
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
        if self.config.share_hop_weights:
            return [""] * self.config.k_hops
        return [f"_hop{k + 1}" for k in range(self.config.k_hops)]

    # -- layers ---------------------------------------------------------------

    def global_layer_forward(self, h_frontier, batch: SessionBatch, session_feat):
        """Hop-stacked neighbor aggregation on the co-occurrence graph.

        `h_frontier` (B, P_K, d) holds the initial vectors of the batch's
        per-hop layout (see batching module).  Only the session rows' final
        vectors are consumed, so hop t of K computes just the rows within
        K - t hops, the prefix [0, P_{K-t}), reading its inputs from
        [0, P_{K-t+1}).  A neighbor's score q1^T LeakyReLU(W1 [(s * h_j) || w_ij])
        is factored as gathered per-row projections (s * h_j) W1a^T plus
        w_ij W1b, with W1 = [W1a | W1b].  `session_feat` (B, d) is the mean
        of the session's initial item embeddings and stays fixed across hops.

        Returns the session rows' final vectors (B, N, d) and, per hop t,
        the neighbor attention (B, P_{K-t}, W).
        """
        cfg = self.config
        B, _, d = h_frontier.shape
        ends = batch.layer_ends
        s_b = ad.reshape(session_feat, (B, 1, d))
        attn = []
        h = h_frontier
        for t, suffix in enumerate(self._hop_suffixes(), start=1):
            rows_in, rows = ends[-t], ends[-t - 1]
            proj = self.params[f"global_att_proj{suffix}"]
            vec = self.params[f"global_att_vec{suffix}"]
            agg = self.params[f"global_agg{suffix}"]
            nbr_idx = batch.nbr_idx[:, :rows]
            flat_idx = nbr_idx + (rows_in * np.arange(B))[:, None, None]
            wt = ad.constant(batch.nbr_wt[:, :rows, :, None], dtype=cfg.dtype)   # (B, R, W, 1)
            z = ad.matmul(ad.reshape(ad.mul(h, s_b), (B * rows_in, d)),
                          ad.narrow(proj, 1, 0, d), transpose_b=True)           # (B*R_in, d+1)
            w1b = ad.reshape(ad.narrow(proj, 1, d, 1), (d + 1,))
            pre = ad.add(ad.gather(z, flat_idx), ad.mul(wt, w1b))                # (B, R, W, d+1)
            scores = ad.reduce_sum(ad.mul(ad.leaky_relu(pre, cfg.leaky_slope), vec), axis=-1)
            alpha = ad.masked_softmax(scores, batch.nbr_mask[:, :rows], axis=-1)
            h_nbr = ad.weighted_sum(alpha, ad.batched_gather(h, nbr_idx))      # (B, R, d); zero rows when isolated
            cat = ad.reshape(ad.concat([ad.narrow(h, 1, 0, rows), h_nbr], axis=-1), (B * rows, 2 * d))
            h = ad.reshape(ad.relu(ad.matmul(cat, agg, transpose_b=True)), (B, rows, d))
            attn.append(alpha)
        return h, attn

    def session_layer_forward(self, h_nodes, batch: SessionBatch):
        """Relation-typed attention over the session graph.

        Attention scores use the elementwise product of endpoint vectors
        dotted with the weight vector of the edge relation; every node
        attends over its in-graph neighbors including itself.
        """
        cfg = self.config
        B, N, d = h_nodes.shape
        rel_rows = [ad.constant(np.zeros((1, d), dtype=cfg.dtype))]
        for rel in ("in", "out", "inout", "self"):
            rel_rows.append(ad.reshape(self.params[f"session_rel_{rel}"], (1, d)))
        rel_table = ad.concat(rel_rows, axis=0)                    # (5, d)
        rel_vecs = ad.gather(rel_table, batch.rel)                 # (B, N, N, d)
        hi = ad.reshape(h_nodes, (B, N, 1, d))
        hj = ad.reshape(h_nodes, (B, 1, N, d))
        prod = ad.mul(hi, hj)                                      # (B, N, N, d)
        scores = ad.leaky_relu(ad.reduce_sum(ad.mul(prod, rel_vecs), axis=-1), cfg.leaky_slope)
        alpha = ad.masked_softmax(scores, batch.rel > 0, axis=-1)  # rows sum to 1 per node
        h_out = ad.weighted_sum(alpha, hj)                         # (B, N, d)
        return h_out, alpha

    def fuse(self, h_global, h_session, train_mode=False, rng=None):
        """Combine the two levels into final item vectors."""
        cfg = self.config
        if h_global is None and h_session is None:
            raise ValueError("fuse: both representation branches are disabled")
        if h_global is None:
            return h_session
        drop = lambda t: ad.dropout(t, cfg.dropout_global, train_mode, rng)
        if h_session is None:
            return drop(h_global)
        if cfg.aggregation == "sum":
            return ad.add(drop(h_global), h_session)
        if cfg.aggregation == "max":
            return ad.maximum(h_global, h_session)
        B, N, d = h_global.shape
        g2 = ad.reshape(h_global, (B * N, d))
        s2 = ad.reshape(h_session, (B * N, d))
        if cfg.aggregation == "gate":
            r = ad.sigmoid(ad.add(ad.matmul(s2, self.params["fuse_gate_sess"], transpose_b=True),
                                  ad.matmul(g2, self.params["fuse_gate_global"], transpose_b=True)))
            r = ad.reshape(r, (B, N, d))
            return ad.add(ad.mul(r, h_global), ad.mul(ad.sub(1.0, r), h_session))
        # concat
        cat = ad.concat([g2, s2], axis=-1)
        return ad.reshape(ad.matmul(cat, self.params["fuse_concat"], transpose_b=True), (B, N, d))

    def session_encode(self, seq_vectors, batch: SessionBatch, inv_len):
        """Pool per-position vectors into one session vector.

        Default path concatenates each position's vector with a position
        embedding indexed from the end of the session (`reversed`), applies a
        tanh projection, and weights positions by an unnormalized
        soft-attention score against the session mean.  `self_attention`
        swaps the query to the last position's vector.
        """
        cfg = self.config
        B, L, d = seq_vectors.shape
        w_item = self.params["enc_att_item"]
        w_sess = self.params["enc_att_sess"]
        att_vec = ad.reshape(self.params["enc_att_vec"], (d, 1))
        att_bias = self.params["enc_att_bias"]

        if cfg.position_mode == "self_attention":
            last = ad.reshape(ad.batched_gather(seq_vectors, (batch.lengths - 1)[:, None]), (B, d))
            query = ad.reshape(ad.matmul(last, w_sess, transpose_b=True), (B, 1, d))
            keys = ad.reshape(ad.matmul(ad.reshape(seq_vectors, (B * L, d)), w_item, transpose_b=True), (B, L, d))
            inner = ad.sigmoid(ad.add(ad.add(keys, query), att_bias))
        else:
            if cfg.position_mode in ("reversed", "forward"):
                if int(batch.lengths.max()) > self.max_len:
                    raise ValueError(
                        f"session length {int(batch.lengths.max())} exceeds the position table "
                        f"({self.max_len} rows); rebuild the model with a larger max_len"
                    )
                if cfg.position_mode == "reversed":
                    pos_idx = batch.lengths[:, None] - 1 - np.arange(L)[None, :]
                else:
                    pos_idx = np.broadcast_to(np.arange(L)[None, :], (B, L)).copy()
                pos_idx = np.where(batch.pos_mask, pos_idx, 0)
                pos_emb = ad.gather(self.params["position_table"], pos_idx)  # (B, L, d)
            else:  # no position information
                pos_emb = ad.constant(np.zeros((B, L, d), dtype=cfg.dtype))
            cat = ad.reshape(ad.concat([seq_vectors, pos_emb], axis=-1), (B * L, 2 * d))
            z = ad.tanh(ad.add(ad.matmul(cat, self.params["enc_pos_proj"], transpose_b=True),
                               self.params["enc_pos_bias"]))
            z = ad.reshape(z, (B, L, d))
            mean_vec = ad.mul(ad.masked_sum(seq_vectors, batch.pos_mask, axis=1), inv_len)  # (B, d)
            keys = ad.reshape(ad.matmul(ad.reshape(z, (B * L, d)), w_item, transpose_b=True), (B, L, d))
            query = ad.reshape(ad.matmul(mean_vec, w_sess, transpose_b=True), (B, 1, d))
            inner = ad.sigmoid(ad.add(ad.add(keys, query), att_bias))

        beta = ad.reshape(ad.matmul(ad.reshape(inner, (B * L, d)), att_vec), (B, L))
        if cfg.normalize_step_attention:
            beta = ad.masked_softmax(beta, batch.pos_mask, axis=-1)
        session_vec = ad.weighted_sum(beta, seq_vectors, valid=batch.pos_mask)
        return session_vec, beta

    def predict(self, session_vec):
        """Logits (B, m) over all items, scored against the initial embeddings."""
        cand = ad.narrow(self.params["item_embeddings"], 0, 1, self.num_items)
        return ad.matmul(session_vec, cand, transpose_b=True, row_stable=False)

    # -- end-to-end -----------------------------------------------------------

    def forward(self, batch: SessionBatch, train_mode=False, rng=None) -> ForwardResult:
        cfg = self.config
        N = batch.rel.shape[1]
        emb = self.params["item_embeddings"]

        h0_frontier = ad.gather(emb, batch.items)                    # (B, P_K, d)
        h0_positions = ad.batched_gather(h0_frontier, batch.alias)   # (B, L, d)
        inv_len = ad.constant((1.0 / batch.lengths)[:, None], dtype=cfg.dtype)

        h_global = None
        global_attn = []
        if cfg.k_hops >= 1:
            session_feat = ad.mul(ad.masked_sum(h0_positions, batch.pos_mask, axis=1), inv_len)
            h_global, global_attn = self.global_layer_forward(h0_frontier, batch, session_feat)

        h_session = None
        session_attn = None
        if cfg.use_session_layer:
            h0_nodes = ad.narrow(h0_frontier, 1, 0, N)
            h_session, session_attn = self.session_layer_forward(h0_nodes, batch)

        fused = self.fuse(h_global, h_session, train_mode, rng)      # (B, N, d)
        seq_vectors = ad.batched_gather(fused, batch.alias)          # (B, L, d)
        session_vec, beta = self.session_encode(seq_vectors, batch, inv_len)
        logits = self.predict(session_vec)
        return ForwardResult(logits, session_vec, fused, seq_vectors,
                             beta, global_attn, session_attn)

    def loss(self, logits, labels):
        """Scalar loss (mean over the batch) of the softmax of `logits`.

        `binary` mode sums a per-item binary cross entropy over the whole
        vocabulary against the one-hot target; `categorical` is the negative
        log probability of the label.  Both are computed from the logits in
        one op (`autodiff.softmax_loss`), so a saturated softmax stays finite.
        """
        per_example = self.example_losses(logits, labels)
        out = ad.mean_all(per_example)
        if not np.isfinite(out.value):
            raise FloatingPointError("non-finite loss")
        return out

    def example_losses(self, logits, labels):
        if logits.ndim == 1:
            logits = ad.reshape(logits, (1, logits.shape[0]))
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        if np.any((labels < 1) | (labels > logits.shape[1])):
            raise ValueError("labels must be item indices in [1, m]")
        return ad.softmax_loss(logits, labels - 1, self.config.loss_mode)

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
    graph = build_global_graph(TOY_SESSIONS, epsilon, top_n, num_items=num_items)
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
        out = model.forward(batch, train_mode=False)
        return model.loss(out.logits, batch.labels)

    return ad.gradcheck_params(build_loss, model.params.trainable(), step=step)


# -- checkpoints ------------------------------------------------------------------

_CKPT_MAGIC = "sessrec-checkpoint"


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
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise ValueError(f"{path}: checkpoint payload fails its integrity check")
    config = ModelConfig(**header["config"])
    model = NextItemModel(header["num_items"], header["max_len"], config, seed=header["seed"])
    state = {}
    for ent in header["params"]:
        raw = payload[ent["offset"]: ent["offset"] + ent["nbytes"]]
        state[ent["name"]] = np.frombuffer(raw, dtype=ent["dtype"]).reshape(ent["shape"]).copy()
    model.load_state_dict(state)
    return model
