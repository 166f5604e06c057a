"""Link-centrality / graph-audit operators (round-5 batch 14):
truncated Katz centrality, OPIC crawl-priority cash accounting
(Abiteboul, Preda & Cobena 2003), and a bipartiteness audit via BFS
parity with odd-cycle-witness counting.

All three run in SCALED-INTEGER arithmetic (pagerank's device:
per-edge floor division at the sender, order-independent sums at the
receiver) so every round is bit-exact against the unrolled SQL
oracle. The iterative passes are actor-resident Pregel
(pipelines/pregel.py): graph state loads once, only combined messages
cross rounds.

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


# ====================================================== katz_centrality
#
# Truncated Katz index (Katz 1953): katz(v) = Σ_{t=0..T} Σ_{paths of
# length t ending at v} α^t, here with α = 1/KATZ_ATT realized as a
# per-hop floor division — c_0(v) = KATZ_SCALE; m_{t+1}(v) =
# Σ_{(u,v)∈E} c_t(u) // KATZ_ATT over the edge MULTISET (self-loops
# kept, pagerank's convention); katz(v) = Σ_t c_t(v). The floor at the
# sender makes every round order-independent and bit-exact vs the
# unrolled SQL; because Σ_u outdeg(u)·(c(u)//8) ≤ Σc/2 with outdeg ≤ 4,
# total mass at least halves per hop and the T-term truncation carries
# the tail bound with it.
#
# Scale shape — actor-resident Pregel: a node's roster row and its
# out-edges load ONCE into the owner of bucket = node & mask; each
# round the actor floors, combines per destination, and ships ONLY the
# (dst, contrib) stream (sender-side routed). The driver sees the
# changed-count scalar; output is the roster re-exposed as a Dataset.

KATZ_SCALE = 1_000_000
KATZ_ATT = 8
KATZ_ROUNDS = 6


def q_katz_centrality(sf_dir: str, n_buckets: int = 64):
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    n_docs = _n_rows(sf_dir, "documents")
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "katz": pa.array([], pa.int64())}
    )
    if n_docs == 0:
        return ray.data.from_arrow(empty)
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])

    # kind 0 = out-edge multiset row (n1=src, n2=dst), kind 1 = roster
    # (n1=node, acc = katz so far, cur = this hop's mass)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs)
        n_e, n_r = len(src), len(ids)
        n1 = np.concatenate([src, ids])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n_e, np.int8), np.ones(n_r, np.int8)]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, np.full(n_r, -1, np.int64)]),
                "acc": np.concatenate(
                    [np.zeros(n_e, np.int64), np.full(n_r, KATZ_SCALE, np.int64)]
                ),
                "cur": np.concatenate(
                    [np.zeros(n_e, np.int64), np.full(n_r, KATZ_SCALE, np.int64)]
                ),
                "b": (n1 & mask),
            }
        )

    def katz_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        edges = state[state["kind"] == 0]
        roster = state[state["kind"] == 1].copy()
        if round_i > 0:
            if msgs is None or not len(msgs):
                return state, None, 0
            m = (
                msgs.groupby("node", as_index=False)["c"]
                .sum()
                .rename(columns={"node": "n1"})
            )
            roster = roster.merge(m, on="n1", how="left")
            got = roster["c"].fillna(0).astype(np.int64)
            roster["acc"] = roster["acc"].to_numpy(np.int64) + got
            roster["cur"] = got
            roster = roster.drop(columns=["c"])
        out = None
        if round_i < KATZ_ROUNDS:
            send = roster[["n1", "cur"]].copy()
            send["contrib"] = send["cur"].to_numpy(np.int64) // KATZ_ATT
            send = send[send["contrib"] > 0]
            if len(send):
                j = edges.merge(
                    send[["n1", "contrib"]], on="n1", how="inner"
                )
                if len(j):
                    out = (
                        j.groupby("n2", as_index=False)["contrib"]
                        .sum()
                        .rename(columns={"n2": "node", "contrib": "c"})
                    )
                    out["b"] = out["node"].to_numpy(np.int64) & mask
        new_state = pd.concat([edges, roster], ignore_index=True)
        n_changed = len(out) if out is not None else 0
        return new_state, out, n_changed

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        katz_step,
        key="b",
        max_iters=KATZ_ROUNDS + 1,
    )
    if state_ds is None:
        return ray.data.from_arrow(empty)

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["kind"] == 1]
        return pd.DataFrame(
            {
                "doc_id": r["n1"].to_numpy(np.int64),
                "katz": r["acc"].to_numpy(np.int64),
            }
        )

    return state_ds.map_batches(extract, batch_format="pandas")


def _katz_sql() -> str:
    rounds = []
    prev = "c0"
    acc_terms = []
    for t in range(1, KATZ_ROUNDS + 1):
        rounds.append(
            f"""m{t} AS (
  SELECT e.dst AS doc_id, SUM({prev}.c // {KATZ_ATT}) AS s
  FROM e JOIN {prev} ON e.src = {prev}.doc_id GROUP BY 1),
c{t} AS (
  SELECT d.doc_id, CAST(COALESCE(m{t}.s, 0) AS BIGINT) AS c
  FROM documents d LEFT JOIN m{t} ON d.doc_id = m{t}.doc_id)"""
        )
        acc_terms.append(f"c{t}.c")
        prev = f"c{t}"
    joined = ",\n".join(rounds)
    joins = "\n".join(
        f"JOIN c{t} ON c{t}.doc_id = c0.doc_id"
        for t in range(1, KATZ_ROUNDS + 1)
    )
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_LNK_MD5U} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
c0 AS (SELECT doc_id, CAST({KATZ_SCALE} AS BIGINT) AS c FROM documents),
{joined}
SELECT c0.doc_id AS doc_id,
       CAST(c0.c + {' + '.join(acc_terms)} AS BIGINT) AS katz
FROM c0
{joins}
"""


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


# ====================================================== bipartite_check
#
# Bipartiteness audit of the undirected link graph around the pivot's
# weak component: BFS parity 2-colors every reached node; any reached
# undirected edge whose endpoints share a parity witnesses an odd
# cycle. Reports the component size, its undirected edge count, the
# odd-cycle witness count, and the verdict — the structural sanity
# check run before any algorithm that assumes two-sided structure
# (butterfly counting's bipartite projection being the in-repo
# consumer).
#
# Scale shape: BFS distances via ONE actor-resident Pregel pass
# (frontier-only messages, O(E) total traffic); then edge_homophily's
# two-bucket-exchange label join attaches parities to the canonical
# (a < b, globally deduped in a's bucket) edge set; 1-row partials sum
# into a single census row. Nothing data-scaled reaches the driver.

BIPARTITE_DMAX = 64  # SQL recursion depth bound (>= graph diameter)
_BC_NB = 64


def q_bipartite_check(sf_dir: str, n_buckets: int = _BC_NB):
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    n_docs = _n_rows(sf_dir, "documents")
    out_cols = ("n_reached", "n_edges_reached", "n_conflicts", "bipartite")
    if n_docs == 0:
        return pd.DataFrame(
            {
                "n_reached": [0],
                "n_edges_reached": [0],
                "n_conflicts": [0],
                "bipartite": [1],
            }
        ).astype(np.int64)
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])
    pivot = 0

    # kind 0 = undirected half-edge (n1=owner, n2=neighbour), kind 1 =
    # roster (n1=node, dist sentinel -1)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        n1 = np.concatenate([src, dst, ids])
        n2 = np.concatenate([dst, src, np.full(len(ids), -1, np.int64)])
        kind = np.concatenate(
            [
                np.zeros(2 * len(src), np.int8),
                np.ones(len(ids), np.int8),
            ]
        )
        return pd.DataFrame(
            {
                "kind": kind,
                "n1": n1,
                "n2": n2,
                "dist": np.full(len(n1), -1, np.int64),
                "b": (n1 & mask),
            }
        )

    def bfs_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        edges = state[state["kind"] == 0]
        roster = state[state["kind"] == 1].copy()
        nodes = roster["n1"].to_numpy(np.int64)
        if round_i == 0:
            gained = nodes[nodes == pivot]
        else:
            if msgs is None or not len(msgs):
                return state, None, 0
            m = np.unique(msgs["node"].to_numpy(np.int64))
            unseen = nodes[roster["dist"].to_numpy(np.int64) < 0]
            gained = np.intersect1d(m, unseen, assume_unique=False)
        if len(gained) == 0:
            return state, None, 0
        roster.loc[roster["n1"].isin(gained), "dist"] = np.int64(round_i)
        nb = np.unique(
            edges.loc[edges["n1"].isin(gained), "n2"].to_numpy(np.int64)
        )
        out = (
            pd.DataFrame({"b": nb & mask, "node": nb}) if len(nb) else None
        )
        new_state = pd.concat([edges, roster], ignore_index=True)
        return new_state, out, len(gained)

    state_ds, converged, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        bfs_step,
        key="b",
        max_iters=BIPARTITE_DMAX,
    )
    if not converged:
        raise RuntimeError(
            f"q_bipartite_check: BFS frontier still moving after "
            f"{BIPARTITE_DMAX} rounds; raise the bound"
        )

    # label-join plane: canonical edges bucketed by a, parities attached
    # in a's bucket then b's (edge_homophily's two-exchange shape)
    def emit(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        a = np.minimum(src, dst)
        bb = np.maximum(src, dst)
        he = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": a,
                "other": bb,
                "par": np.int64(-2),
            }
        ).drop_duplicates(["node", "other"])
        return he.assign(b=he["node"].to_numpy(np.int64) % n_buckets)

    def labels(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["kind"] == 1]
        dist = r["dist"].to_numpy(np.int64)
        par = np.where(dist >= 0, dist % 2, -1)
        return pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": r["n1"].to_numpy(np.int64),
                "other": np.int64(-1),
                "par": par.astype(np.int64),
                "b": r["n1"].to_numpy(np.int64) % n_buckets,
            }
        )

    def stage_a(g: pd.DataFrame) -> pd.DataFrame:
        lab = dict(
            zip(g.loc[g["kind"] == 1, "node"], g.loc[g["kind"] == 1, "par"])
        )
        he = g[g["kind"] == 0].drop_duplicates(["node", "other"])
        out = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": he["other"].to_numpy(np.int64),
                "par": he["node"].map(lab).astype(np.int64),
                "b2": he["other"].to_numpy(np.int64) % n_buckets,
            }
        )
        nd = g[g["kind"] == 1]
        nd2 = pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": nd["node"].to_numpy(np.int64),
                "par": nd["par"].to_numpy(np.int64),
                "b2": nd["node"].to_numpy(np.int64) % n_buckets,
            }
        )
        return pd.concat([out, nd2], ignore_index=True)

    def stage_b(g: pd.DataFrame) -> pd.DataFrame:
        lab = dict(
            zip(g.loc[g["kind"] == 1, "node"], g.loc[g["kind"] == 1, "par"])
        )
        he = g[g["kind"] == 0]
        if not len(he):
            return pd.DataFrame(
                {
                    "edges_part": pd.Series(dtype=np.int64),
                    "conf_part": pd.Series(dtype=np.int64),
                }
            )
        pa_ = he["par"].to_numpy(np.int64)
        pb_ = he["node"].map(lab).to_numpy(np.int64)
        reached = (pa_ >= 0) & (pb_ >= 0)
        conf = reached & (pa_ == pb_)
        return pd.DataFrame(
            {
                "edges_part": [int(reached.sum())],
                "conf_part": [int(conf.sum())],
            }
        ).astype(np.int64)

    edges_ds = d.map_batches(emit, batch_format="pyarrow")
    labels_ds = state_ds.map_batches(labels, batch_format="pandas")
    c = (
        edges_ds.union(labels_ds)
        .groupby("b")
        .map_groups(stage_a, batch_format="pandas")
        .groupby("b2")
        .map_groups(stage_b, batch_format="pandas")
        .sum(["edges_part", "conf_part"])
    )
    n_edges = int(c["sum(edges_part)"])
    n_conf = int(c["sum(conf_part)"])

    def count_reached(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["kind"] == 1]
        return pd.DataFrame(
            {"n_part": [int((r["dist"].to_numpy(np.int64) >= 0).sum())]}
        ).astype(np.int64)

    n_reached = int(
        state_ds.map_batches(count_reached, batch_format="pandas").sum(
            "n_part"
        )
    )
    return pd.DataFrame(
        {
            "n_reached": [n_reached],
            "n_edges_reached": [n_edges],
            "n_conflicts": [n_conf],
            "bipartite": [1 if n_conf == 0 else 0],
        }
    ).astype(np.int64)


BIPARTITE_CHECK_SQL = f"""
WITH RECURSIVE n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_LNK_MD5U} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
ue AS (
  SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM e),
lev AS (
  SELECT CAST(0 AS BIGINT) AS node, CAST(0 AS BIGINT) AS d
  UNION
  SELECT CASE WHEN ue.a = lev.node THEN ue.b ELSE ue.a END,
         lev.d + 1
  FROM ue JOIN lev ON ue.a = lev.node OR ue.b = lev.node
  WHERE lev.d < {BIPARTITE_DMAX}),
dist AS (SELECT node, MIN(d) AS d FROM lev GROUP BY node),
lab AS (
  SELECT ue.a, ue.b, da.d % 2 AS pa, db.d % 2 AS pb
  FROM ue JOIN dist da ON da.node = ue.a JOIN dist db ON db.node = ue.b)
SELECT
  CAST((SELECT COUNT(*) FROM dist) AS BIGINT) AS n_reached,
  CAST(COUNT(*) AS BIGINT) AS n_edges_reached,
  CAST(COALESCE(SUM(CASE WHEN pa = pb THEN 1 ELSE 0 END), 0) AS BIGINT)
      AS n_conflicts,
  CAST(CASE WHEN COALESCE(SUM(CASE WHEN pa = pb THEN 1 ELSE 0 END), 0) = 0
       THEN 1 ELSE 0 END AS BIGINT) AS bipartite
FROM lab
"""


CENTRALITY_SQL_QUERIES: dict[str, tuple] = {
    "katz_centrality": (q_katz_centrality, _katz_sql()),
    "opic_scores": (q_opic_scores, _opic_sql()),
    "bipartite_check": (q_bipartite_check, BIPARTITE_CHECK_SQL),
}
