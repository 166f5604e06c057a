"""Crawl-priority operator (round-5 batch 14): OPIC cash accounting
(Abiteboul, Preda & Cobena 2003).

It runs in SCALED-INTEGER arithmetic (pagerank's device: per-edge
floor division at the sender, order-independent sums at the receiver)
so every round is bit-exact against the unrolled SQL oracle. The
iterative pass is actor-resident Pregel (pipelines/pregel.py): graph
state loads once, only combined messages cross rounds.

Reference parity: the reference's frontier is a Postgres todo queue
with no importance model (europarl/db/urls.py); these extend the
brief's crawl-prioritization / link-analysis families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .._util import read_table as _read, table_rows as _n_rows
from .ml_queries import _md5u


_LNK_MD5U = _md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")


# ========================================================= opic_scores
#
# OPIC — On-line Page Importance Computation (Abiteboul, Preda &
# Cobena, WWW 2003): every page starts with equal cash; when "fetched"
# it credits its cash to history and distributes it equally over its
# out-links. Here one synchronized distribution wave per round for
# OPIC_ROUNDS rounds: share = cash // outdeg per edge-multiset row
# (self-loops kept, so outdeg = k ≥ 1 — no dangling case), the floor
# remainder stays with the node, history accrues the distributed
# amount. Total cash is conserved (Σcash = n·SCALE every round) — the
# invariant the test pins. history/(rounds) estimates importance
# without ever storing the full link matrix — the original
# crawl-priority use.
#
# Scale shape: same actor-resident Pregel as katz; messages are the
# per-destination combined share stream only.

OPIC_SCALE = 1_000_000
OPIC_ROUNDS = 5


def q_opic_scores(sf_dir: str, n_buckets: int = 64):
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    n_docs = _n_rows(sf_dir, "documents")
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "cash": pa.array([], pa.int64()),
            "history": pa.array([], pa.int64()),
        }
    )
    if n_docs == 0:
        return ray.data.from_arrow(empty)
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np
    from ..stages.multimodal import _md5_64

    d = _read(sf_dir, "documents", columns=["doc_id"])

    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs)
        ks = np.fromiter(
            (1 + _md5_64(f"lnkk:42:{int(i)}") % 4 for i in ids),
            np.int64,
            len(ids),
        )
        n_e, n_r = len(src), len(ids)
        n1 = np.concatenate([src, ids])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n_e, np.int8), np.ones(n_r, np.int8)]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, np.full(n_r, -1, np.int64)]),
                "k": np.concatenate([np.zeros(n_e, np.int64), ks]),
                "cash": np.concatenate(
                    [np.zeros(n_e, np.int64), np.full(n_r, OPIC_SCALE, np.int64)]
                ),
                "hist": np.zeros(n_e + n_r, np.int64),
                "b": (n1 & mask),
            }
        )

    def opic_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        edges = state[state["kind"] == 0]
        roster = state[state["kind"] == 1].copy()
        if round_i > 0 and msgs is not None and len(msgs):
            m = (
                msgs.groupby("node", as_index=False)["c"]
                .sum()
                .rename(columns={"node": "n1"})
            )
            roster = roster.merge(m, on="n1", how="left")
            roster["cash"] = roster["cash"].to_numpy(np.int64) + roster[
                "c"
            ].fillna(0).astype(np.int64)
            roster = roster.drop(columns=["c"])
        out = None
        if round_i < OPIC_ROUNDS:
            cash = roster["cash"].to_numpy(np.int64)
            k = roster["k"].to_numpy(np.int64)
            share = cash // k
            distributed = share * k
            roster["cash"] = cash - distributed
            roster["hist"] = roster["hist"].to_numpy(np.int64) + distributed
            send = pd.DataFrame(
                {"n1": roster["n1"].to_numpy(np.int64), "share": share}
            )
            send = send[send["share"] > 0]
            if len(send):
                j = edges.merge(send, on="n1", how="inner")
                if len(j):
                    out = (
                        j.groupby("n2", as_index=False)["share"]
                        .sum()
                        .rename(columns={"n2": "node", "share": "c"})
                    )
                    out["b"] = out["node"].to_numpy(np.int64) & mask
        new_state = pd.concat([edges, roster], ignore_index=True)
        n_changed = len(out) if out is not None else 0
        return new_state, out, n_changed

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        opic_step,
        key="b",
        max_iters=OPIC_ROUNDS + 1,
    )
    if state_ds is None:
        return ray.data.from_arrow(empty)

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["kind"] == 1]
        return pd.DataFrame(
            {
                "doc_id": r["n1"].to_numpy(np.int64),
                "cash": r["cash"].to_numpy(np.int64),
                "history": r["hist"].to_numpy(np.int64),
            }
        )

    return state_ds.map_batches(extract, batch_format="pandas")


def _opic_sql() -> str:
    rounds = []
    prev = "s0"
    for t in range(1, OPIC_ROUNDS + 1):
        rounds.append(
            f"""in{t} AS (
  SELECT e.dst AS doc_id, SUM({prev}.cash // e.outdeg) AS m
  FROM e JOIN {prev} ON e.src = {prev}.doc_id GROUP BY 1),
s{t} AS (
  SELECT d.doc_id,
    CAST({prev}.cash % kk.k + COALESCE(in{t}.m, 0) AS BIGINT) AS cash,
    CAST({prev}.hist + {prev}.cash - {prev}.cash % kk.k AS BIGINT) AS hist
  FROM documents d
  JOIN kk ON kk.doc_id = d.doc_id
  JOIN {prev} ON {prev}.doc_id = d.doc_id
  LEFT JOIN in{t} ON in{t}.doc_id = d.doc_id)"""
        )
        prev = f"s{t}"
    joined = ",\n".join(rounds)
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_LNK_MD5U} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst, k AS outdeg
  FROM (SELECT doc_id, k, unnest(range(1, k + 1)) AS j FROM kk), n),
s0 AS (SELECT doc_id, CAST({OPIC_SCALE} AS BIGINT) AS cash,
              CAST(0 AS BIGINT) AS hist FROM documents),
{joined}
SELECT doc_id, cash, hist AS history FROM {prev}
"""


CENTRALITY_SQL_QUERIES: dict[str, tuple] = {
    "opic_scores": (q_opic_scores, _opic_sql(), "frontier"),
}
