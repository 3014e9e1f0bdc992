"""Seeded synthetic clickstreams shaped like a public session log.

Item popularity is Zipf over a random permutation of the catalogue, and a
session walks it with mostly local steps: from the current item the next
click is, with probability `P_LOCAL`, an item a few places away on a ring
of the catalogue (the items of one category), otherwise a fresh Zipf draw.
Local steps make each item's heaviest co-occurrence neighbours mostly its
own ring neighbours, so pruned neighbour lists are mostly distinct and the
k-hop frontier keeps growing, as it does on real logs; a pure Zipf stream
would make every list the same few hubs.

Session lengths are geometric, capped; sessions start uniformly over
`SPAN_DAYS`, so the last 7 days (the default test window) hold about
7 / SPAN_DAYS of them.  Lengths and start times come from a fixed stream
and the seed draws the items: evaluation batches pad to their longest
session, so a seed that put one 30-click session into the few measured
test batches would otherwise move the evaluation figure by a quarter on its
own.  The program sees only the events file written here.
"""

from __future__ import annotations

import numpy as np

ZIPF_A = 1.0           # popularity exponent
P_LOCAL = 0.7          # share of steps that stay on the ring
LOCAL_REACH = 5        # largest ring distance of a local step
MEAN_EXTRA_LEN = 3.3   # mean clicks after the first, before the cap
MAX_LEN = 30
SPAN_DAYS = 90


def generate(sessions: int, catalogue: int, seed: int):
    """Return (session_ids, item_ids, timestamps) as int64 arrays in event order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC11C]))
    schedule = np.random.default_rng(np.random.SeedSequence([sessions, 0x5C4ED]))
    ranks = np.arange(1, catalogue + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -ZIPF_A)
    cdf /= cdf[-1]
    by_rank = rng.permutation(catalogue)  # popularity rank -> ring position

    def zipf_draw(n):
        return by_rank[np.minimum(np.searchsorted(cdf, rng.random(n)), catalogue - 1)]

    n = sessions
    lengths = np.minimum(schedule.geometric(1.0 / (1.0 + MEAN_EXTRA_LEN), n), MAX_LEN)
    cur = zipf_draw(n)
    cols = [cur]
    for t in range(1, MAX_LEN):
        local = rng.random(n) < P_LOCAL
        step = rng.integers(1, LOCAL_REACH + 1, n) * rng.choice((-1, 1), n)
        cur = np.where(local, (cur + step) % catalogue, zipf_draw(n))
        cols.append(cur)
    walk = np.stack(cols, axis=1)                        # (n, max_len)
    starts = np.sort(schedule.integers(0, SPAN_DAYS * 86400, n))
    keep = np.arange(MAX_LEN)[None, :] < lengths[:, None]
    sess = np.broadcast_to(np.arange(n)[:, None], walk.shape)[keep]
    pos = np.broadcast_to(np.arange(MAX_LEN)[None, :], walk.shape)[keep]
    ts = starts[sess] + 60 * pos
    return sess.astype(np.int64), walk[keep].astype(np.int64), ts.astype(np.int64)


def write_events(path, sessions: int, catalogue: int, seed: int):
    """Write `session_id,item_id,timestamp` lines (with a header); return the click count."""
    sess, items, ts = generate(sessions, catalogue, seed)
    lines = [f"s{s},i{i},{t}" for s, i, t in zip(sess.tolist(), items.tolist(), ts.tolist())]
    with open(path, "w") as f:
        f.write("session_id,item_id,timestamp\n")
        f.write("\n".join(lines))
        f.write("\n")
    return len(lines)
