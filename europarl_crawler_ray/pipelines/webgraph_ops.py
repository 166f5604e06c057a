"""Link-graph analytics split out of webcorpus_ops (VERDICT r3 #9):
reciprocity, k-core peeling, degree assortativity, co-citation.

All consume the synthetic internal link graph via queries.internal_edges_np
(the vectorized walk equal to the render->parse walk) and exchange edges
on coarse buckets; the iterative ones run through pipelines/pregel.py.
SQL-oracled; scale idioms per pipelines/grouping.py.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read
from .grouping import global_prune  # noqa: F401 (family modules share the helper set)
from .grouping import partitioned_anti_join  # noqa: F401
from .grouping import with_coarse_group as _with_coarse_group  # noqa: F401


# ==================================================== graph reciprocity
#
# Link-graph reciprocity: among distinct directed edges (self-loops
# excluded), the fraction whose reverse edge also exists — the
# mutual-linking signal that separates navigational site templates from
# organic cross-site links. Reuses the SAME rendered-page edge extraction
# as q_link_graph (the oracle rederives edges from the generation rule,
# so a parser slip breaks this gate too).


def q_graph_reciprocity(sf_dir: str):
    """One row: (n_edges, n_recip, recip_bp).

    Scale shape: edges bucket-exchange on the UNORDERED pair key, so
    both orientations of a pair land in one task; per-task counts reduce
    to two integers per bucket -> one bounded final sum."""
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    if n_docs == 0:
        return pd.DataFrame(
            {
                "n_edges": pd.Series([0], dtype=np.int64),
                "n_recip": pd.Series([0], dtype=np.int64),
                "recip_bp": pd.Series([0], dtype=np.int64),
            }
        )

    def edges(t: pa.Table) -> pd.DataFrame:
        # self-loops excluded for reciprocity
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        out = pd.DataFrame(
            {
                "src": pd.Series(src, dtype=np.int64),
                "dst": pd.Series(dst, dtype=np.int64),
            }
        ).drop_duplicates()
        out["pair"] = np.minimum(out["src"], out["dst"]) * np.int64(
            n_docs
        ) + np.maximum(out["src"], out["dst"])
        return out

    d = _read(sf_dir, "documents", columns=["doc_id"])
    kd = _with_coarse_group(d.map_batches(edges, batch_format="pyarrow"), "pair")

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["src", "dst"])
        fwd = set(zip(g["src"], g["dst"]))
        n_recip = sum(1 for s, t in fwd if (t, s) in fwd)
        return pd.DataFrame(
            {
                "n_edges": pd.Series([len(fwd)], dtype=np.int64),
                "n_recip": pd.Series([n_recip], dtype=np.int64),
            }
        )

    parts = kd.groupby("_g").map_groups(count_bucket, batch_format="pandas")
    tot = parts.sum(["n_edges", "n_recip"])  # bounded 2-scalar reduce
    n_edges = int(tot["sum(n_edges)"] or 0)
    n_recip = int(tot["sum(n_recip)"] or 0)
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n_edges], dtype=np.int64),
            "n_recip": pd.Series([n_recip], dtype=np.int64),
            "recip_bp": pd.Series(
                [10000 * n_recip // n_edges if n_edges else 0], dtype=np.int64
            ),
        }
    )


GRAPH_RECIPROCITY_SQL = """
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
r AS (
  SELECT (SELECT COUNT(*) FROM e) AS n_edges,
         (SELECT COUNT(*) FROM e a JOIN e b
            ON a.src = b.dst AND a.dst = b.src) AS n_recip
)
SELECT CAST(n_edges AS BIGINT) AS n_edges,
       CAST(n_recip AS BIGINT) AS n_recip,
       CAST(CASE WHEN n_edges > 0 THEN 10000 * n_recip // n_edges
            ELSE 0 END AS BIGINT) AS recip_bp
FROM r
"""


# ========================================================== k-core peel
#
# k-core decomposition (k=3) of the undirected link graph by iterative
# peeling: drop degree-<3 nodes, delete their incident edges, repeat —
# the graph-cleaning pass that strips crawl tendrils/leaf chains before
# community or centrality analysis. Defined as KCORE_ROUNDS-round
# peeling (the fixpoint is reached in 3 rounds here; the Ray side
# early-exits on a no-removal round, which equals running all rounds —
# converged SQL rounds are idempotent, so both sides agree under the
# cap by construction).

KCORE_K = 3
KCORE_ROUNDS = 12
_KCORE_NB = 64


def q_kcore_peel(sf_dir: str, checkpoint_dir: str | None = None):
    """(doc_id, in_core): 1 iff the doc survives 3-core peeling of the
    distinct undirected link graph (self-loops excluded; isolated docs
    are 0).

    Scale shape: the dedup_clusters Pregel structure — undirected edges
    live bucketed by endpoint (both directions stored, so a node's
    degree is bucket-LOCAL); each round's task applies incoming removal
    notifications, recomputes resident degrees, peels, and emits
    notifications keyed by the OTHER endpoint's bucket — one bucket
    exchange per round, convergence read from a per-round notification
    count scalar; membership output via the shared partitioned
    anti-join. No edge list or node set ever reaches the driver."""
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id"])
    if n_docs == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "in_core": pd.Series([], dtype=np.int64),
            }
        )
    def edges(t: pa.Table) -> pd.DataFrame:
        # self-loops never contribute to a core
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame(
            {
                "src": pd.Series(src, dtype=np.int64),
                "dst": pd.Series(dst, dtype=np.int64),
            }
        )
        e = pd.concat(
            [e, e.rename(columns={"src": "dst", "dst": "src"})], ignore_index=True
        ).drop_duplicates()
        e["b"] = e["src"].to_numpy(np.int64) % _KCORE_NB
        return e

    def kcore_step(actor_id, n_actors, state, msgs, round_i):
        """Actor-resident peel round: apply incoming removal
        notifications (columns b=target bucket, node=dead id), recompute
        resident degrees, peel, notify the other endpoints' buckets.
        Edges stay put — only notifications cross the wire."""
        if state is None or not len(state):
            return state, None, 0
        ed = state
        if round_i == 0:
            # the per-batch drop_duplicates in edges() is batch-LOCAL: a
            # reciprocal pair whose endpoints read in different batches
            # arrives here twice (organic from one, reversed from the
            # other) and would inflate the degree count (review finding).
            # All copies of an edge co-locate in this actor, so one
            # global dedup at round 0 restores the distinct-edge
            # invariant the rounds rely on.
            ed = ed.drop_duplicates(["src", "dst"])
        if msgs is not None and len(msgs):
            ed = ed[~ed["dst"].isin(set(msgs["node"].tolist()))]
        # duplicate edges across rounds are impossible (distinct at
        # build, filters only remove), so degree = row count per src
        deg = ed.groupby("src")["dst"].size()
        dead = set(deg[deg < KCORE_K].index)
        if not dead:
            return ed, None, 0
        dying = ed[ed["src"].isin(dead)]
        keep = ed[~ed["src"].isin(dead)]
        notif = pd.DataFrame(
            {
                "b": dying["dst"].to_numpy(np.int64) % _KCORE_NB,
                "node": dying["src"].to_numpy(np.int64),
            }
        ).drop_duplicates()
        return keep, notif, len(notif)

    from .pregel import pregel_actor_loop

    seed = d.map_batches(edges, batch_format="pyarrow")
    # actor-resident rounds: the edge set loads once and never
    # re-shuffles; each round exchanges only the removal notifications
    # and the convergence scalar is the per-round notification count
    state_ds, _, n_notif = pregel_actor_loop(
        seed, kcore_step, key="b", max_iters=KCORE_ROUNDS,
        checkpoint_dir=checkpoint_dir,
    )
    if n_notif:
        # the cap bound with removals still propagating: membership is
        # NOT the fixpoint and the (same-depth) SQL oracle may disagree
        # — make the divergence loud instead of silent (review finding)
        import logging

        logging.getLogger(__name__).warning(
            "kcore_peel: %d removal notifications still pending after %d "
            "rounds — result is the capped peel, not the fixpoint",
            int(n_notif),
            KCORE_ROUNDS,
        )
    if state_ds is None:  # every edge peeled away (or none existed)
        alive = ray.data.from_arrow(
            pa.table({"src": pa.array([], pa.int64())})
        )
    else:
        alive = state_ds.map_batches(
            lambda g: g[["src"]].drop_duplicates(), batch_format="pandas"
        )
    dead_docs = partitioned_anti_join(d, alive, "doc_id", "src", "doc_id")

    def tag(flag: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            col = "src" if "src" in df.columns else "doc_id"
            ids = (
                df[col].to_numpy(np.int64)
                if len(df)
                else np.array([], dtype=np.int64)
            )
            return pd.DataFrame(
                {
                    "doc_id": np.unique(ids),
                    "in_core": np.full(
                        len(np.unique(ids)), flag, dtype=np.int64
                    ),
                }
            )

        return fn

    # alive sides: distinct per bucket already; global distinct via the
    # same bucket co-location (src rows of one node live in one bucket)
    return alive.map_batches(tag(1), batch_format="pandas").union(
        dead_docs.map_batches(tag(0), batch_format="pandas")
    )


def _kcore_sql(rounds: int = KCORE_ROUNDS) -> str:
    md5u = (
        "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    )
    parts = [
        f"""WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
de AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
e0 AS (SELECT src, dst FROM de UNION SELECT dst, src FROM de)"""
    ]
    for r in range(rounds):
        # AS MATERIALIZED: DuckDB inlines plain CTEs, and each round
        # references the previous one three times — unmaterialized, the
        # plan (and parquet re-opens) grows 3^rounds
        parts.append(
            f"""x{r} AS MATERIALIZED (
  SELECT src FROM (SELECT src, COUNT(*) AS c FROM e{r} GROUP BY 1) WHERE c < {KCORE_K}
),
e{r + 1} AS MATERIALIZED (
  SELECT e.src, e.dst FROM e{r} e
  WHERE e.src NOT IN (SELECT src FROM x{r})
    AND e.dst NOT IN (SELECT src FROM x{r})
)"""
        )
    final = f"""
SELECT d.doc_id AS doc_id,
  CAST(CASE WHEN d.doc_id IN (SELECT src FROM e{rounds}) THEN 1 ELSE 0 END
       AS BIGINT) AS in_core
FROM documents d
"""
    return ",\n".join(parts) + final


# ============================================== degree assortativity
#
# Degree-mixing coefficient of the link graph, integer-exact: Pearson r
# over (deg_src, deg_dst) across all directed edges of the symmetrized
# graph, emitted as the exact rational pieces (num, den_x, den_y) plus
# r² in milli-bp — hub-to-hub vs hub-to-leaf mixing, the structural
# signal separating link farms (assortative) from organic webs
# (disassortative). No square root ever computed.


def q_degree_assortativity(sf_dir: str):
    """One row: (n_edges, num, den_x, den_y, sign, r2_mbp) with
    num = n·Sxy − Sx·Sy etc. and r2_mbp = 10^6·num² // (den_x·den_y)
    (int64 is ample at this scale; a 10^10-edge run promotes the six
    sums to object dtype — they stay exact Python ints).

    Scale shape: edges bucket-resident by src (both directions stored,
    so degree is bucket-LOCAL); each bucket emits (node, deg) plus
    (dst-bucketed) half-edges carrying deg_src; ONE second exchange on
    the dst bucket attaches deg_dst from the co-resident degree rows;
    per-task six-sum partials -> bounded reduce."""
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id"])
    empty = pd.DataFrame(
        {
            "n_edges": pd.Series([0], dtype=np.int64),
            "num": pd.Series([0], dtype=np.int64),
            "den_x": pd.Series([0], dtype=np.int64),
            "den_y": pd.Series([0], dtype=np.int64),
            "sign": pd.Series([0], dtype=np.int64),
            "r2_mbp": pd.Series([0], dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty

    def edges(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame(
            {
                "src": pd.Series(src, dtype=np.int64),
                "dst": pd.Series(dst, dtype=np.int64),
            }
        )
        e = pd.concat(
            [e, e.rename(columns={"src": "dst", "dst": "src"})], ignore_index=True
        ).drop_duplicates()
        e["b"] = e["src"] % _KCORE_NB
        return e

    def stage_a(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["src", "dst"])
        deg = g.groupby("src")["dst"].size()
        # half-edges routed to the dst bucket, carrying deg_src
        he = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": g["dst"].to_numpy(np.int64),
                "other": g["src"].to_numpy(np.int64),
                "deg": g["src"].map(deg).to_numpy(np.int64),
                "b2": g["dst"].to_numpy(np.int64) % _KCORE_NB,
            }
        )
        dd = pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": deg.index.to_numpy(np.int64),
                "other": np.int64(-1),
                "deg": deg.to_numpy(np.int64),
                "b2": deg.index.to_numpy(np.int64) % _KCORE_NB,
            }
        )
        return pd.concat([he, dd], ignore_index=True)

    def stage_b(g: pd.DataFrame) -> pd.DataFrame:
        degs = dict(
            zip(g.loc[g["kind"] == 1, "node"], g.loc[g["kind"] == 1, "deg"])
        )
        he = g[g["kind"] == 0]
        dx = he["deg"].to_numpy(np.int64)
        dy = he["node"].map(degs).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n": pd.Series([len(he)], dtype=np.int64),
                "sx": pd.Series([int(dx.sum())], dtype=np.int64),
                "sy": pd.Series([int(dy.sum())], dtype=np.int64),
                "sxx": pd.Series([int((dx * dx).sum())], dtype=np.int64),
                "syy": pd.Series([int((dy * dy).sum())], dtype=np.int64),
                "sxy": pd.Series([int((dx * dy).sum())], dtype=np.int64),
            }
        )

    parts = (
        d.map_batches(edges, batch_format="pyarrow")
        .groupby("b")
        .map_groups(stage_a, batch_format="pandas")
        .groupby("b2")
        .map_groups(stage_b, batch_format="pandas")
    )
    tot = parts.sum(["n", "sx", "sy", "sxx", "syy", "sxy"])
    n = int(tot["sum(n)"] or 0)
    if n == 0:
        return empty
    sx, sy = int(tot["sum(sx)"]), int(tot["sum(sy)"])
    sxx, syy, sxy = int(tot["sum(sxx)"]), int(tot["sum(syy)"]), int(tot["sum(sxy)"])
    num = n * sxy - sx * sy
    den_x = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    r2 = 1_000_000 * num * num // (den_x * den_y) if den_x and den_y else 0
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n], dtype=np.int64),
            "num": pd.Series([num], dtype=np.int64),
            "den_x": pd.Series([den_x], dtype=np.int64),
            "den_y": pd.Series([den_y], dtype=np.int64),
            "sign": pd.Series([int(np.sign(num))], dtype=np.int64),
            "r2_mbp": pd.Series([r2], dtype=np.int64),
        }
    )


DEGREE_ASSORTATIVITY_SQL = """
WITH n0 AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
de AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n0
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
e AS (SELECT src, dst FROM de UNION SELECT dst, src FROM de),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d FROM e GROUP BY 1),
x AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(da.d) AS HUGEINT) AS sx, CAST(SUM(db.d) AS HUGEINT) AS sy,
         CAST(SUM(da.d * da.d) AS HUGEINT) AS sxx,
         CAST(SUM(db.d * db.d) AS HUGEINT) AS syy,
         CAST(SUM(da.d * db.d) AS HUGEINT) AS sxy
  FROM e JOIN deg da ON da.node = e.src JOIN deg db ON db.node = e.dst
)
SELECT CAST(n AS BIGINT) AS n_edges,
  CAST(n * sxy - sx * sy AS BIGINT) AS num,
  CAST(n * sxx - sx * sx AS BIGINT) AS den_x,
  CAST(n * syy - sy * sy AS BIGINT) AS den_y,
  CAST(CASE WHEN n * sxy - sx * sy > 0 THEN 1
            WHEN n * sxy - sx * sy < 0 THEN -1 ELSE 0 END AS BIGINT) AS sign,
  CAST(CASE WHEN (n * sxx - sx * sx) * (n * syy - sy * sy) > 0
       THEN 1000000 * (n * sxy - sx * sy) * (n * sxy - sx * sy)
            // ((n * sxx - sx * sx) * (n * syy - sy * sy))
       ELSE 0 END AS BIGINT) AS r2_mbp
FROM x
"""


# =================================================== co-citation pairs
#
# Bipartite projection of the link graph: two pages are co-cited when
# one source links to both; pairs with support >= 2 are the
# "customers who bought X also bought Y" signal (collaborative
# filtering / related-pages). Pair fan-out is bounded per source
# (<= C(k,2), k <= 5 outlinks), so the projection never explodes.

COCITE_MIN_SUPPORT = 2


def q_cocitation_pairs(sf_dir: str):
    """(dst_a, dst_b, n_common) for dst_a < dst_b with support >= 2.

    Scale shape: per-source pair fan-out in the edge map (bounded by
    the outlink cap) -> ONE coarse exchange on the unordered pair key
    -> in-task count + support filter."""
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id"])
    if n_docs == 0:
        return pd.DataFrame(
            {
                "dst_a": pd.Series([], dtype=np.int64),
                "dst_b": pd.Series([], dtype=np.int64),
                "n_common": pd.Series([], dtype=np.int64),
            }
        )

    def pairs(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame(
            {"src": pd.Series(src, dtype=np.int64), "dst": pd.Series(dst, dtype=np.int64)}
        ).drop_duplicates()
        # per-source pair fan-out as a vectorized self-merge: the outlink
        # cap (≤4 distinct dsts per src) bounds the blow-up at 6 pairs/src
        m = e.merge(e, on="src", suffixes=("_a", "_b"))
        m = m[m["dst_a"] < m["dst_b"]]
        out = m[["dst_a", "dst_b"]].reset_index(drop=True)
        out["pair"] = out["dst_a"] * np.int64(n_docs) + out["dst_b"]
        return out

    kd = _with_coarse_group(d.map_batches(pairs, batch_format="pyarrow"), "pair")

    def count(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["dst_a", "dst_b"], as_index=False).size()
        out.columns = ["dst_a", "dst_b", "n_common"]
        out = out[out["n_common"] >= COCITE_MIN_SUPPORT]
        return out.astype(np.int64)

    return kd.groupby("_g").map_groups(count, batch_format="pandas")


COCITATION_PAIRS_SQL = f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
)
SELECT a.dst AS dst_a, b.dst AS dst_b, CAST(COUNT(*) AS BIGINT) AS n_common
FROM e a JOIN e b ON a.src = b.src AND a.dst < b.dst
GROUP BY 1, 2
HAVING COUNT(*) >= {COCITE_MIN_SUPPORT}
"""


# ======================== HyperBall 2-hop neighborhood sketches
#
# The neighborhood function at web scale (Boldi & Vigna, "HyperBall:
# counting at scale", 2013 — how ego-net sizes are computed when exact
# 2-hop sets would explode): every node carries a 64-register HLL of
# its reachable set; one Pregel round maxes each node's registers with
# its successors'. Two rounds → N(v, 2). The oracle contract is
# REGISTER-EXACT: the md5 of the final 64-rho vector per node, which
# DuckDB recomputes from the exact 2-hop reach set with the same
# hash→(register, rho) mapping as hll_distinct.

HYPERBALL_RADIUS = 2


def q_hyperball_2hop(sf_dir: str, radius: int = HYPERBALL_RADIUS,
                     n_buckets: int = 64):
    """(doc_id, reg_md5): md5 over the node's 64 HLL register rhos after
    ``radius`` propagation rounds over the OUT-link graph (self always
    included; the estimate itself is a float the registers determine —
    the registers are the oracle contract, as in hll_distinct).

    Scale shape: actor-resident Pregel — each node's register vector
    (64 B) and its reverse edges load once; a round's messages are the
    successors' register vectors along resident edges (E x 64 B), and
    register merge is one vectorized np.maximum.at per actor."""
    import hashlib as _hl

    import pyarrow.parquet as _pq

    from ..functions.dedup import md5_hash64
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np
    from .sketch_ops import hll_partial

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype=np.int64),
            "reg_md5": pd.Series([], dtype=object),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id"])
    mask = n_buckets - 1

    def seed(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs)
        # registers live with the node; an edge (s, d) is resident with
        # d (kind 0, n1=d, n2=s): d's registers flow to s each round
        regs = np.zeros((len(ids), 64), dtype=np.int8)
        reg, rho = hll_partial(md5_hash64([f"hb|{int(i)}" for i in ids]))
        regs[np.arange(len(ids)), reg] = rho.astype(np.int8)
        nodes = pd.DataFrame(
            {
                "kind": np.ones(len(ids), np.int8),
                "n1": ids,
                "n2": np.full(len(ids), -1, np.int64),
                "regs": pd.Series([r.tobytes() for r in regs], dtype=object),
                "b": (ids & mask),
            }
        )
        edges = pd.DataFrame(
            {
                "kind": np.zeros(len(src), np.int8),
                "n1": dst,
                "n2": src,
                "regs": pd.Series([b""] * len(src), dtype=object),
                "b": (dst & mask),
            }
        )
        return pd.concat([nodes, edges], ignore_index=True)

    def hb_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        nodes = state[state["kind"] == 1].sort_values("n1")
        ids = nodes["n1"].to_numpy(np.int64)
        regs = np.frombuffer(
            b"".join(nodes["regs"]), dtype=np.int8
        ).reshape(len(ids), 64).copy()
        if msgs is not None and len(msgs):
            mids = msgs["node"].to_numpy(np.int64)
            mm = np.frombuffer(b"".join(msgs["regs"]), dtype=np.int8).reshape(
                len(mids), 64
            )
            idx = np.searchsorted(ids, mids)
            np.maximum.at(regs, idx, mm)
        e = state[state["kind"] == 0]
        if round_i >= radius:  # merged the final wave — stop
            out_msgs, n_changed = None, 0
        else:
            d_idx = np.searchsorted(ids, e["n1"].to_numpy(np.int64))
            payload = regs[d_idx]
            out_msgs = pd.DataFrame(
                {
                    "b": (e["n2"].to_numpy(np.int64) & mask),
                    "node": e["n2"].to_numpy(np.int64),
                    "regs": pd.Series(
                        [r.tobytes() for r in payload], dtype=object
                    ),
                }
            )
            n_changed = 1
        new_nodes = pd.DataFrame(
            {
                "kind": np.ones(len(ids), np.int8),
                "n1": ids,
                "n2": np.full(len(ids), -1, np.int64),
                "regs": pd.Series([r.tobytes() for r in regs], dtype=object),
                "b": (ids & mask),
            }
        )
        return pd.concat([e, new_nodes], ignore_index=True), out_msgs, n_changed

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed, batch_format="pyarrow"),
        hb_step,
        key="b",
        max_iters=radius + 1,
    )
    if state_ds is None:
        return empty

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        nodes = df[df["kind"] == 1]
        md5s = [
            _hl.md5(
                ",".join(
                    str(int(v)) for v in np.frombuffer(blob, dtype=np.int8)
                ).encode()
            ).hexdigest()
            for blob in nodes["regs"]
        ]
        return pd.DataFrame(
            {
                "doc_id": nodes["n1"].to_numpy(np.int64),
                "reg_md5": pd.Series(md5s, dtype=object),
            }
        )

    return state_ds.map_batches(extract, batch_format="pandas")


def _hyperball_sql() -> str:
    from .sketch_ops import _HLL_REST_BITS, _HLL_REST_MASK

    md5u = (
        "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    )
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
reach AS (
  SELECT doc_id AS v, doc_id AS u FROM documents
  UNION SELECT src, dst FROM e
  UNION SELECT e1.src, e2.dst FROM e e1 JOIN e e2 ON e2.src = e1.dst),
h AS (
  SELECT DISTINCT v,
    CAST(concat('0x', substr(md5('hb|' || CAST(u AS VARCHAR)), 1, 16)) AS UBIGINT) AS hv
  FROM reach),
r AS (
  SELECT v, CAST(hv >> {_HLL_REST_BITS} AS BIGINT) AS reg,
    CASE WHEN (hv & CAST({int(_HLL_REST_MASK)} AS UBIGINT)) = 0
         THEN {_HLL_REST_BITS + 1}
         ELSE {_HLL_REST_BITS + 1}
              - length(bin(hv & CAST({int(_HLL_REST_MASK)} AS UBIGINT)))
    END AS rho
  FROM h),
best AS (SELECT v, reg, MAX(rho) AS rho FROM r GROUP BY v, reg),
grid AS (
  SELECT d.doc_id AS v, CAST(g.r AS BIGINT) AS reg
  FROM documents d CROSS JOIN (SELECT unnest(range(64)) AS r) g),
vec AS (
  SELECT grid.v, grid.reg, COALESCE(best.rho, 0) AS rho
  FROM grid LEFT JOIN best ON best.v = grid.v AND best.reg = grid.reg)
SELECT v AS doc_id,
       md5(string_agg(CAST(rho AS VARCHAR), ',' ORDER BY reg)) AS reg_md5
FROM vec GROUP BY v
"""


# ============================================ local clustering coefficient
#
# Watts-Strogatz local clustering: cc(v) = 2*tri(v) / (deg(v)*(deg(v)-1))
# over the undirected distinct link graph — the community-density signal
# per node, exact in integer basis points (no float ratio anywhere).

_CC_NB = 64


def q_clustering_coeff(sf_dir: str):
    """(doc_id, deg, n_tri, cc_bp) for every node with degree >= 2
    (cc undefined below that); n_tri = triangle participations, cc_bp =
    10000*2*n_tri // (deg*(deg-1)).

    Scale shape: degrees come from the symmetrized edge stream bucketed
    by endpoint with the IN-BUCKET global dedup (all copies of an edge
    co-locate — the kcore cross-batch lesson); triangle counts reuse
    q_triangle_count's three-exchange wedge join; one more bucket
    exchange aligns the two per node."""
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np, q_triangle_count

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype=np.int64),
            "deg": pd.Series([], dtype=np.int64),
            "n_tri": pd.Series([], dtype=np.int64),
            "cc_bp": pd.Series([], dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id"])
    mask = _CC_NB - 1

    def deg_rows(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame({"src": src, "dst": dst})
        e = pd.concat(
            [e, e.rename(columns={"src": "dst", "dst": "src"})],
            ignore_index=True,
        ).drop_duplicates()
        return pd.DataFrame(
            {
                "kind": np.zeros(len(e), np.int8),
                "doc_id": e["src"].to_numpy(np.int64),
                "other": e["dst"].to_numpy(np.int64),
                "n_tri": np.zeros(len(e), np.int64),
                "b": (e["src"].to_numpy(np.int64) & mask),
            }
        )

    def tri_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "kind": np.ones(len(ids), np.int8),
                "doc_id": ids,
                "other": np.full(len(ids), -1, np.int64),
                "n_tri": df["n_tri"].to_numpy(np.int64),
                "b": (ids & mask),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0].drop_duplicates(["doc_id", "other"])
        if e.empty:
            return empty
        deg = e.groupby("doc_id", as_index=False).size()
        deg.columns = ["doc_id", "deg"]
        tri = g.loc[g["kind"] == 1, ["doc_id", "n_tri"]]
        m = deg.merge(tri, on="doc_id", how="left")
        m["n_tri"] = m["n_tri"].fillna(0).astype(np.int64)
        m = m[m["deg"] >= 2]
        dv = m["deg"].to_numpy(np.int64)
        m["cc_bp"] = 10000 * 2 * m["n_tri"].to_numpy(np.int64) // (dv * (dv - 1))
        return m.astype(np.int64)

    stream = d.map_batches(deg_rows, batch_format="pyarrow").union(
        q_triangle_count(sf_dir).map_batches(tri_rows, batch_format="pandas")
    )
    return stream.groupby("b").map_groups(
        lambda g: combine(g.drop(columns=["b"])), batch_format="pandas"
    )


def _clustering_coeff_sql() -> str:
    md5u = (
        "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    )
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
raw AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
e AS (
  SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
  FROM raw WHERE src <> dst),
deg AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS deg FROM (
    SELECT u AS doc_id FROM e UNION ALL SELECT v FROM e) GROUP BY doc_id),
t AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.v
  JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v),
corners AS (
  SELECT a AS doc_id FROM t
  UNION ALL SELECT b FROM t
  UNION ALL SELECT c FROM t),
tri AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tri FROM corners GROUP BY doc_id)
SELECT deg.doc_id, deg.deg,
       CAST(COALESCE(tri.n_tri, 0) AS BIGINT) AS n_tri,
       CAST(10000 * 2 * COALESCE(tri.n_tri, 0) // (deg.deg * (deg.deg - 1))
            AS BIGINT) AS cc_bp
FROM deg LEFT JOIN tri ON tri.doc_id = deg.doc_id
WHERE deg.deg >= 2
"""


# ==================================================== butterfly_count
#
# Bipartite 4-cycle (butterfly) census over the customer-part purchase
# graph — the bipartite analogue of triangle counting (Wang et al.
# "Butterfly Counting in Bipartite Networks", KDD 2018) and the
# standard cohesion metric for co-purchase / co-occurrence structure.
# A wedge is an ordered pair of customers sharing one part; a
# butterfly is a pair of customers sharing TWO parts, i.e.
# sum over customer pairs of C(shared_parts, 2). Pure integer counts.


def q_butterfly_count(sf_dir: str, n_buckets: int = 64):
    """One row: (n_wedges, n_butterflies) over distinct (customer,
    part) purchase edges.

    Scale shape — three bounded exchanges, nothing on the driver:
    (1) orderkey-bucket cogroup attaches custkey to lineitem rows
    (the q_nation_order_stats join idiom, fact-to-fact so no
    broadcast); (2) partkey-coarse exchange dedups (cust, part)
    globally — every copy of a part lands in one group — and emits
    the per-part customer-pair wedges (vectorized triu per part);
    (3) c1-coarse exchange counts wedges per customer pair and folds
    C(n,2) into per-group partial sums, combined by global_prune.
    Wedge fan-out is quadratic in per-part degree: at 100 TB hot
    parts need the degeneracy-ordering / delta-capped variant noted
    in SCALE.md; the uniform TPC-H degree (~30) keeps this exact
    form linear here."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    items = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def o_side(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table(
            {
                "key": pa.array(k),
                "val": pa.array(t.column("o_custkey").to_numpy().astype(np.int64)),
                "side": pa.array(np.zeros(len(k), np.int8)),
                "bucket": pa.array((k & mask).astype(np.int32)),
            }
        )

    def i_side(t: pa.Table) -> pa.Table:
        k = t.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table(
            {
                "key": pa.array(k),
                "val": pa.array(t.column("l_partkey").to_numpy().astype(np.int64)),
                "side": pa.array(np.ones(len(k), np.int8)),
                "bucket": pa.array((k & mask).astype(np.int32)),
            }
        )

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        left = g.loc[g["side"] == 0, ["key", "val"]].drop_duplicates("key")
        right = g.loc[g["side"] == 1, ["key", "val"]]
        m = right.merge(left, on="key", suffixes=("_part", "_cust"))
        out = m[["val_cust", "val_part"]].drop_duplicates()  # bucket-local dedup
        out.columns = ["cust", "part"]
        return out.astype(np.int64)

    edges = (
        orders.map_batches(o_side, batch_format="pyarrow")
        .union(items.map_batches(i_side, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(lambda g: attach(g.drop(columns=["bucket"])), batch_format="pandas")
    )

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        c1s, c2s = [], []
        for _p, gg in g.groupby("part"):
            cs = np.unique(gg["cust"].to_numpy(np.int64))  # global dedup: all
            # copies of this part live in this group (kcore lesson)
            if len(cs) >= 2:
                i, j = np.triu_indices(len(cs), 1)
                c1s.append(cs[i])
                c2s.append(cs[j])
        if not c1s:
            return pd.DataFrame(
                {"c1": pd.Series([], dtype=np.int64), "c2": pd.Series([], dtype=np.int64)}
            )
        return pd.DataFrame(
            {"c1": np.concatenate(c1s), "c2": np.concatenate(c2s)}
        ).astype(np.int64)

    def bf_partial(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby(["c1", "c2"]).size().to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n_wedges": [int(cnt.sum())],
                "n_butterflies": [int((cnt * (cnt - 1) // 2).sum())],
            }
        ).astype(np.int64)

    def sum_partials(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.sum(axis=0).to_frame().T.astype(np.int64)

    pair_stream = (
        _with_coarse_group(edges, "part")
        .groupby("_g")
        .map_groups(lambda g: wedges(g.drop(columns=["_g"])), batch_format="pandas")
    )
    totals = global_prune(
        _with_coarse_group(pair_stream, "c1")
        .groupby("_g")
        .map_groups(lambda g: bf_partial(g.drop(columns=["_g"])), batch_format="pandas"),
        sum_partials,
    )
    if not len(totals):
        totals = pd.DataFrame({"n_wedges": [0], "n_butterflies": [0]})
    return totals[["n_wedges", "n_butterflies"]].astype(np.int64)


BUTTERFLY_COUNT_SQL = """
WITH cp AS (
  SELECT DISTINCT o_custkey AS c, l_partkey AS p
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
),
w AS (
  SELECT a.c AS c1, b.c AS c2 FROM cp a JOIN cp b ON a.p = b.p AND a.c < b.c
),
pc AS (SELECT c1, c2, CAST(COUNT(*) AS BIGINT) AS n FROM w GROUP BY 1, 2)
SELECT CAST(COALESCE(SUM(n), 0) AS BIGINT) AS n_wedges,
       CAST(COALESCE(SUM(n * (n - 1) // 2), 0) AS BIGINT) AS n_butterflies
FROM pc
"""


# ================================================== closeness_pivots
#
# Pivot-based closeness centrality (the Eppstein-Wang / Indyk sampling
# shape, run EXACTLY for P=4 md5-chosen pivots): one multi-source BFS
# over the directed link graph computes every node's distance from
# each pivot; the output per pivot is (n_reached, sum_dist,
# closeness_mbp = (n_reached-1)·1e6 // sum_dist) — the per-pivot
# closeness that averages into the centrality estimate at scale.
#
# Scale shape: the link_depth actor-Pregel BFS with a pivot dimension —
# state rows are (node, pivot) pairs (P·|V|, P fixed), each wave
# exchanges only newly-settled (node, pivot, depth) proposals, and the
# final reduce is a P-row sum. Pivots come from global_prune (P rows on
# the driver). More pivots = more accuracy, cost linear in P.

CP_PIVOTS = 4
CP_MAX_DEPTH = 16


def q_closeness_pivots(sf_dir: str, n_buckets: int = 64,
                       max_depth: int = CP_MAX_DEPTH):
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np

    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    cols = ["pivot", "n_reached", "sum_dist", "closeness_mbp"]
    if n_docs == 0:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    d = _read(sf_dir, "documents", columns=["doc_id"])

    def prune_piv(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "doc_id" not in df.columns:
            return df
        md5s = np.array(
            [hashlib.md5(f"cp:{int(v)}".encode()).hexdigest() for v in df["doc_id"]]
        )
        return df.iloc[np.sort(np.argsort(md5s)[:CP_PIVOTS])]

    pdf = global_prune(d, prune_piv)
    md5s = np.array(
        [hashlib.md5(f"cp:{int(v)}".encode()).hexdigest() for v in pdf["doc_id"]]
    )
    pivots = np.sort(pdf["doc_id"].to_numpy(np.int64)[np.argsort(md5s)[:CP_PIVOTS]])

    # state: kind 0 = out-edge (n1=src, n2=dst); kind 1 = (node, pivot)
    # distance cell (n1=node, n2=pivot, depth=-1 unsettled)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids_np = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids_np, n_docs)
        e = pd.DataFrame(
            {
                "kind": np.zeros(len(src), np.int8),
                "n1": src,
                "n2": dst,
                "depth": np.full(len(src), -1, np.int64),
                "b": (src & mask),
            }
        )
        node = np.repeat(ids_np, CP_PIVOTS)
        piv = np.tile(pivots, len(ids_np))
        st = pd.DataFrame(
            {
                "kind": np.ones(len(node), np.int8),
                "n1": node,
                "n2": piv,
                "depth": np.where(node == piv, 0, -1).astype(np.int64),
                "b": (node & mask),
            }
        )
        return pd.concat([e, st], ignore_index=True)

    def step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        e = state[state["kind"] == 0]
        st = state[state["kind"] == 1]
        if round_i == 0:
            depth = st["depth"].to_numpy().copy()
            settle = depth == 0
            n_changed = int(settle.sum())
            st2 = st
        else:
            if msgs is not None and len(msgs):
                best = (
                    msgs.groupby(["node", "piv"], as_index=False)["depth"]
                    .min()
                    .rename(columns={"depth": "prop"})
                )
            else:
                best = pd.DataFrame(
                    {
                        "node": pd.Series(dtype=np.int64),
                        "piv": pd.Series(dtype=np.int64),
                        "prop": pd.Series(dtype=np.int64),
                    }
                )
            st2 = st.merge(
                best, left_on=["n1", "n2"], right_on=["node", "piv"], how="left"
            )
            unsettled = st2["depth"].to_numpy() < 0
            has_prop = st2["prop"].notna().to_numpy()
            settle = unsettled & has_prop
            depth = st2["depth"].to_numpy().copy()
            depth[settle] = st2["prop"].to_numpy()[settle]
            n_changed = int(settle.sum())
        fan = settle & (depth <= max_depth - 1)
        senders = pd.DataFrame(
            {
                "src": st2["n1"].to_numpy(np.int64)[fan],
                "piv_s": st2["n2"].to_numpy(np.int64)[fan],
                "d": depth[fan],
            }
        )
        sm = e[["n1", "n2"]].merge(senders, left_on="n1", right_on="src",
                                   how="inner")
        out_msgs = (
            pd.DataFrame(
                {
                    "b": (sm["n2"].to_numpy(np.int64) & mask),
                    "node": sm["n2"].to_numpy(np.int64),
                    "piv": sm["piv_s"].to_numpy(np.int64),
                    "depth": sm["d"].to_numpy(np.int64) + 1,
                }
            )
            if len(sm)
            else None
        )
        if out_msgs is not None:
            # combiner: receiver takes the min per (node, pivot)
            out_msgs = out_msgs.groupby(["b", "node", "piv"], as_index=False)[
                "depth"
            ].min()
        new_st = pd.DataFrame(
            {
                "kind": np.ones(len(st2), np.int8),
                "n1": st2["n1"].to_numpy(np.int64),
                "n2": st2["n2"].to_numpy(np.int64),
                "depth": depth,
                "b": st2["b"].to_numpy(np.int64),
            }
        )
        return pd.concat([e, new_st], ignore_index=True), out_msgs, n_changed

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        step,
        key="b",
        max_iters=max_depth + 1,
    )
    if state_ds is None:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def partials(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df = df[(df["kind"] == 1) & (df["depth"] >= 0)]
        out = df.groupby("n2", as_index=False)["depth"].agg(["count", "sum"])
        out.columns = ["piv", "part_n", "part_sum"]
        return out.astype(np.int64)

    agg = (
        state_ds.map_batches(partials, batch_format="pyarrow")
        .groupby("piv")
        .sum(["part_n", "part_sum"])
        .to_pandas()  # ≤ P rows
    )
    rows = []
    for p in pivots:
        sub = agg[agg["piv"] == p]
        n_r = int(sub["sum(part_n)"].sum()) if len(sub) else 0
        s_d = int(sub["sum(part_sum)"].sum()) if len(sub) else 0
        rows.append(
            (
                int(p),
                n_r,
                s_d,
                (n_r - 1) * 1_000_000 // s_d if s_d > 0 else -1,
            )
        )
    return pd.DataFrame(rows, columns=cols).astype("int64")


def _closeness_sql() -> str:
    md5u = (
        "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR))"
        ", 1, 16)) AS UBIGINT)"
    )
    return f"""
WITH RECURSIVE n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
piv AS (SELECT doc_id AS p FROM documents
        ORDER BY md5('cp:' || CAST(doc_id AS VARCHAR)) LIMIT {CP_PIVOTS}),
walk(p, v, dep) AS (
  SELECT p, p, 0 FROM piv
  UNION
  SELECT w.p, e.dst, w.dep + 1
  FROM walk w JOIN e ON e.src = w.v
  WHERE w.dep < {CP_MAX_DEPTH}),
dist AS (SELECT p, v, MIN(dep) AS d FROM walk GROUP BY 1, 2)
SELECT CAST(p AS BIGINT) AS pivot,
       CAST(COUNT(*) AS BIGINT) AS n_reached,
       CAST(SUM(d) AS BIGINT) AS sum_dist,
       CAST(CASE WHEN SUM(d) > 0
            THEN (COUNT(*) - 1) * 1000000 // SUM(d) ELSE -1 END AS BIGINT)
         AS closeness_mbp
FROM dist GROUP BY p
"""


# ==================================================== modularity_score
#
# Directed modularity of the SOURCE partition of the internal link
# graph — "do providers link within themselves more than a random
# rewiring would?", the community-quality score a crawl-graph analyst
# reads before trusting per-source sharding. Over the distinct
# self-loop-free edge set (graph_reciprocity's convention),
# Q = Σ_c [e_c/m − (dout_c·din_c)/m²]; multiplying by m² keeps
# everything integer: q_term_c = m·e_c − dout_c·din_c, so
# Q = Σ q_term / m². All four per-community columns are exact integer
# counts — no quantized logs needed.
#
# Scale shape: per-doc edges are batch-local (dst is a formula of src),
# so the src community rides along free; attaching the DST community is
# the one real exchange — node rows keyed by doc_id and edge rows keyed
# by dst share a coarse-hash bucket, the in-task dict lookup maps each
# edge to its (c_src, c_dst) pair, and only the ≤S² pair-count table
# leaves the task. Driver math is a pandas pivot over ≤S² rows.

def q_modularity_score(sf_dir: str):
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id", "source"])
    cols = ["source", "e_in", "d_out", "d_in", "q_term"]
    if n_docs == 0:
        return pd.DataFrame(
            {c: pd.Series(dtype=str if c == "source" else np.int64) for c in cols}
        )

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        """kind 0 = node (key=doc_id, com=its source);
        kind 1 = edge (key=dst, com=src's community)."""
        if not len(df):
            return pd.DataFrame(
                {
                    "key": pd.Series(dtype=np.int64),
                    "kind": pd.Series(dtype=np.int8),
                    "com": pd.Series(dtype=str),
                }
            )
        ids = df["doc_id"].to_numpy(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        # per-doc distinct dst (the DISTINCT of the oracle's edge set —
        # duplicates can only be generated within one doc's edge run)
        pair = np.stack([src, dst], axis=1)
        pair = np.unique(pair, axis=0) if len(pair) else pair
        com = dict(zip(ids, df["source"].to_numpy()))
        nodes = pd.DataFrame(
            {"key": ids, "kind": np.int8(0), "com": df["source"].to_numpy()}
        )
        edges = pd.DataFrame(
            {
                "key": pair[:, 1] if len(pair) else np.zeros(0, np.int64),
                "kind": np.int8(1),
                "com": [com[s] for s in pair[:, 0]] if len(pair) else [],
            }
        )
        return pd.concat([nodes, edges], ignore_index=True)

    def pair_counts(g: pd.DataFrame) -> pd.DataFrame:
        node = g[g["kind"] == 0]
        edge = g[g["kind"] == 1]
        if not len(edge):
            return pd.DataFrame(
                {
                    "cs": pd.Series(dtype=str),
                    "cd": pd.Series(dtype=str),
                    "cnt": pd.Series(dtype=np.int64),
                }
            )
        dmap = dict(zip(node["key"].to_numpy(np.int64), node["com"].to_numpy()))
        out = pd.DataFrame(
            {
                "cs": edge["com"].to_numpy(),
                "cd": [dmap[k] for k in edge["key"].to_numpy(np.int64)],
            }
        )
        return out.groupby(["cs", "cd"], as_index=False).size().rename(
            columns={"size": "cnt"}
        )

    pc = (
        _with_coarse_group(d.map_batches(emit, batch_format="pandas"), "key")
        .groupby("_g")
        .map_groups(
            lambda g: pair_counts(g.drop(columns=["_g"])), batch_format="pandas"
        )
        .to_pandas()  # ≤ n_coarse_groups × S² rows, S = #sources
    )
    # communities with no edges still appear with zeros (oracle rule)
    def srcs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"source": df["source"].astype(str).unique()})

    all_src = global_prune(d, srcs)["source"].to_numpy()
    if not len(pc):
        z = np.zeros(len(all_src), np.int64)
        return pd.DataFrame(
            {"source": np.sort(all_src), "e_in": z, "d_out": z, "d_in": z,
             "q_term": z}
        )
    pc = pc.groupby(["cs", "cd"], as_index=False)["cnt"].sum()
    m = int(pc["cnt"].sum())
    dout = pc.groupby("cs")["cnt"].sum()
    din = pc.groupby("cd")["cnt"].sum()
    ein = pc[pc["cs"] == pc["cd"]].set_index("cs")["cnt"]
    rows = []
    for c in sorted(all_src):
        e_c = int(ein.get(c, 0))
        do = int(dout.get(c, 0))
        di = int(din.get(c, 0))
        rows.append((c, e_c, do, di, m * e_c - do * di))
    return pd.DataFrame(rows, columns=cols).astype(
        {c: np.int64 for c in cols[1:]}
    )


MODULARITY_SCORE_SQL = """
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
node AS (SELECT doc_id, source FROM documents),
ec AS (SELECT ns.source AS cs, nd.source AS cd, CAST(COUNT(*) AS BIGINT) AS cnt
       FROM e
       JOIN node ns ON ns.doc_id = e.src
       JOIN node nd ON nd.doc_id = e.dst
       GROUP BY 1, 2),
m AS (SELECT CAST(COALESCE(SUM(cnt), 0) AS BIGINT) AS m FROM ec),
coms AS (SELECT DISTINCT source FROM documents),
per AS (
  SELECT coms.source,
         CAST(COALESCE((SELECT SUM(cnt) FROM ec
                        WHERE cs = coms.source AND cd = coms.source), 0)
              AS BIGINT) AS e_in,
         CAST(COALESCE((SELECT SUM(cnt) FROM ec WHERE cs = coms.source), 0)
              AS BIGINT) AS d_out,
         CAST(COALESCE((SELECT SUM(cnt) FROM ec WHERE cd = coms.source), 0)
              AS BIGINT) AS d_in
  FROM coms)
SELECT source, e_in, d_out, d_in,
       CAST(m.m * e_in - d_out * d_in AS BIGINT) AS q_term
FROM per, m
"""


# ======================================================== deg_powerlaw
#
# In-degree distribution shape of the internal link graph: the
# histogram of in-degrees plus the OLS slope of ln(node count) on
# ln(degree) over the positive-degree points — the tail diagnostic
# (power-law-ish vs Poisson-ish) a webgraph analyst reads before
# picking hub-suppression thresholds. Parity is the zipf_slope device:
# exact integer histogram on both engines, logs quantized to
# floor(1e6·ln(x)) on the same libm double, integer moment sums, ONE
# final float division.
#
# Scale shape: per-batch edge generation with per-doc distinct dst
# (batch-local), per-batch (dst, c) partial counts → ONE coarse
# exchange on dst (exact in-degree per node in-task) → degree-bounded
# histogram partials → global_prune sum → tiny driver table.

def q_deg_powerlaw(sf_dir: str):
    import math

    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id"])
    cols = ["n_points", "n_zero_in", "slope"]
    if n_docs == 0:
        return pd.DataFrame(
            {"n_points": pd.Series(dtype=np.int64),
             "n_zero_in": pd.Series(dtype=np.int64),
             "slope": pd.Series(dtype=float)}
        )

    def dst_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        if len(src):
            pair = np.unique(np.stack([src, dst], axis=1), axis=0)
            dst = pair[:, 1]
        vals, cnts = np.unique(dst, return_counts=True)
        return pd.DataFrame({"dst": vals, "c": cnts.astype(np.int64)})

    def hist_in_task(g: pd.DataFrame) -> pd.DataFrame:
        deg = g.groupby("dst")["c"].sum().to_numpy(np.int64)
        vals, cnts = np.unique(deg, return_counts=True)
        return pd.DataFrame({"deg": vals, "cnt": cnts.astype(np.int64)})

    def hist_sum(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "deg" not in df.columns:
            return df
        return df.groupby("deg", as_index=False)["cnt"].sum()

    hist = global_prune(
        _with_coarse_group(d.map_batches(dst_partial, batch_format="pandas"), "dst")
        .groupby("_g")
        .map_groups(
            lambda g: hist_in_task(g.drop(columns=["_g"])), batch_format="pandas"
        ),
        hist_sum,
    )
    if not len(hist) or "deg" not in hist.columns:
        return pd.DataFrame(
            {"n_points": [0], "n_zero_in": [int(n_docs)], "slope": [0.0]}
        ).astype({"n_points": np.int64, "n_zero_in": np.int64})
    hist = hist.sort_values("deg").reset_index(drop=True)
    n_zero = int(n_docs) - int(hist["cnt"].sum())
    degs = hist["deg"].to_numpy(np.int64)
    cnts = hist["cnt"].to_numpy(np.int64)
    k = len(degs)
    lx = [int(math.floor(1e6 * math.log(int(v)))) for v in degs]
    ly = [int(math.floor(1e6 * math.log(int(c)))) for c in cnts]
    sx, sy = sum(lx), sum(ly)
    sxx = sum(x * x for x in lx)
    sxy = sum(x * y for x, y in zip(lx, ly))
    den = k * sxx - sx * sx
    slope = float(k * sxy - sx * sy) / float(den) if den else 0.0
    return pd.DataFrame(
        {"n_points": [k], "n_zero_in": [n_zero], "slope": [slope]}
    ).astype({"n_points": np.int64, "n_zero_in": np.int64})


DEG_POWERLAW_SQL = """
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
ind AS (SELECT dst, CAST(COUNT(*) AS BIGINT) AS deg FROM e GROUP BY 1),
hist AS (SELECT deg, CAST(COUNT(*) AS BIGINT) AS c FROM ind GROUP BY 1),
mom AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k,
         SUM(CAST(FLOOR(1e6 * ln(deg)) AS BIGINT)) AS sx,
         SUM(CAST(FLOOR(1e6 * ln(c)) AS BIGINT)) AS sy,
         SUM(CAST(FLOOR(1e6 * ln(deg)) AS BIGINT)
             * CAST(FLOOR(1e6 * ln(deg)) AS BIGINT)) AS sxx,
         SUM(CAST(FLOOR(1e6 * ln(deg)) AS BIGINT)
             * CAST(FLOOR(1e6 * ln(c)) AS BIGINT)) AS sxy
  FROM hist)
SELECT CAST(mom.k AS BIGINT) AS n_points,
       CAST((SELECT cnt FROM n) - (SELECT COUNT(*) FROM ind) AS BIGINT)
           AS n_zero_in,
       CASE WHEN mom.k * mom.sxx - mom.sx * mom.sx = 0 THEN 0.0
            ELSE CAST(mom.k * mom.sxy - mom.sx * mom.sy AS DOUBLE)
                 / CAST(mom.k * mom.sxx - mom.sx * mom.sx AS DOUBLE)
       END AS slope
FROM mom
"""


# ======================================================= truss_support
#
# Per-EDGE triangle support over the undirected deduped link graph:
# support(u,v) = |N(u) ∩ N(v)| — the edge-strength signal k-truss
# peeling thresholds on (an edge is in the k-truss iff support ≥ k−2,
# Cohen 2008). kcore_peel ranks NODES by embeddedness; this ranks
# EDGES, separating template/navigation links (support 0) from
# community-embedded links a crawl prioritizer should trust.
#
# Scale shape — three coarse exchanges, everything in-task vectorized,
# no driver state:
#   1. canonical edges (u<v, self-loops dropped) bucketed by u — all
#      copies of an edge co-locate, so the in-task dedup is globally
#      correct; the same task emits each node's higher-neighbor wedges
#      (b,c) keyed by b (a triangle is DISCOVERED once, at its smallest
#      corner) and passes edges through keyed by u;
#   2. wedge↔edge closing join per bucket (the closing edge (b,c) is
#      canonical with lower endpoint b, so it lives in the wedge's
#      bucket); each match fans out the triangle's THREE corner edges
#      keyed by their own canonical lower endpoint;
#   3. per-edge support count joined back onto the deduped edge list.
# Hub skew: wedge fan-out is quadratic in a node's higher-degree; this
# synthetic graph caps out-degree at 4, and the production guard is the
# same low-degree→high-degree orientation documented at
# q_triangle_count (queries.py:1425).

_TRUSS_NB = 64


def q_truss_support(sf_dir: str):
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pd.DataFrame(
        {
            "u": pd.Series(dtype=np.int64),
            "v": pd.Series(dtype=np.int64),
            "support": pd.Series(dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    mask = _TRUSS_NB - 1
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def edge_rows(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        u = np.minimum(src, dst)
        v = np.maximum(src, dst)
        return pd.DataFrame(
            {
                "kind": np.zeros(len(u), np.int8),
                "x": u,
                "y": v,
                "z": np.full(len(u), -1, np.int64),
                "b": u & mask,
            }
        )

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        e = g.drop_duplicates(["x", "y"])
        out = [
            pd.DataFrame(
                {
                    "kind": np.zeros(len(e), np.int8),
                    "x": e["x"].to_numpy(np.int64),
                    "y": e["y"].to_numpy(np.int64),
                    "z": np.full(len(e), -1, np.int64),
                    "b": e["x"].to_numpy(np.int64) & mask,
                }
            )
        ]
        for a, nb in e.groupby("x")["y"]:
            hi = np.sort(nb.to_numpy(np.int64))
            if len(hi) < 2:
                continue
            i, j = np.triu_indices(len(hi), k=1)
            out.append(
                pd.DataFrame(
                    {
                        "kind": np.ones(len(i), np.int8),
                        "x": np.full(len(i), a, np.int64),
                        "y": hi[i],
                        "z": hi[j],
                        "b": hi[i] & mask,
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    def close_join(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0]
        w = g[g["kind"] == 1]
        parts = [
            pd.DataFrame(
                {
                    "kind": np.zeros(len(e), np.int8),
                    "x": e["x"].to_numpy(np.int64),
                    "y": e["y"].to_numpy(np.int64),
                    "b": e["x"].to_numpy(np.int64) & mask,
                }
            )
        ]
        if len(w) and len(e):
            tri = w.merge(
                e[["x", "y"]].rename(columns={"x": "y", "y": "z"}),
                on=["y", "z"],
                how="inner",
            )
            if len(tri):
                a = tri["x"].to_numpy(np.int64)
                bb = tri["y"].to_numpy(np.int64)
                cc = tri["z"].to_numpy(np.int64)
                su = np.concatenate([a, a, bb])
                sv = np.concatenate([bb, cc, cc])
                parts.append(
                    pd.DataFrame(
                        {
                            "kind": np.full(len(su), 2, np.int8),
                            "x": su,
                            "y": sv,
                            "b": su & mask,
                        }
                    )
                )
        return pd.concat(parts, ignore_index=True)

    def support_count(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0][["x", "y"]].drop_duplicates()
        if e.empty:
            return empty
        s = (
            g[g["kind"] == 2]
            .groupby(["x", "y"], as_index=False)
            .size()
            .rename(columns={"size": "support"})
        )
        m = e.merge(s, on=["x", "y"], how="left")
        m["support"] = m["support"].fillna(0).astype(np.int64)
        return m.rename(columns={"x": "u", "y": "v"}).astype(np.int64)

    stage1 = (
        d.map_batches(edge_rows, batch_format="pyarrow")
        .groupby("b")
        .map_groups(lambda g: wedges(g.drop(columns=["b"])), batch_format="pandas")
    )
    stage2 = stage1.groupby("b").map_groups(
        lambda g: close_join(g.drop(columns=["b"])), batch_format="pandas"
    )
    return stage2.groupby("b").map_groups(
        lambda g: support_count(g.drop(columns=["b"])), batch_format="pandas"
    )


TRUSS_SUPPORT_SQL = """
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
raw AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
e AS (
  SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
  FROM raw WHERE src <> dst),
t AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.v
  JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v),
s AS (
  SELECT a AS u, b AS v FROM t
  UNION ALL SELECT a, c FROM t
  UNION ALL SELECT b, c FROM t)
SELECT CAST(e.u AS BIGINT) AS u, CAST(e.v AS BIGINT) AS v,
       CAST(COUNT(s.u) AS BIGINT) AS support
FROM e LEFT JOIN s ON s.u = e.u AND s.v = e.v
GROUP BY e.u, e.v
"""

# ===================================================== neighbor_degree
#
# Average-neighbor-degree curve knn(d) of the undirected link graph —
# the degree-correlation readout finer than the single assortativity
# coefficient: a falling curve (disassortative) says hubs link to
# leaves, the signature of hub-and-spoke crawl frontiers. Exact
# integers: per source degree d, avg_nbr_deg_ppm = 1e6 * sum(deg_dst)
# // count over all half-edges whose src has degree d.
#
# Scale shape: assortativity's two-exchange shape (degrees bucket-local
# with both edge directions stored; half-edges re-keyed by dst bucket
# to attach deg_dst), then per-task (deg_src, sum, cnt) partials — a
# DEGREE-DOMAIN histogram (the length_quantiles class of driver
# reduce), never an edge-scaled collect.


def q_neighbor_degree(sf_dir: str):
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id"])
    empty = pd.DataFrame(
        {"degree": pd.Series(dtype=np.int64),
         "n_half_edges": pd.Series(dtype=np.int64),
         "avg_nbr_deg_ppm": pd.Series(dtype=np.int64)}
    )
    if n_docs == 0:
        return empty

    def edges(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame(
            {"src": pd.Series(src, dtype=np.int64),
             "dst": pd.Series(dst, dtype=np.int64)}
        )
        e = pd.concat(
            [e, e.rename(columns={"src": "dst", "dst": "src"})],
            ignore_index=True,
        ).drop_duplicates()
        e["b"] = e["src"] % _KCORE_NB
        return e

    def stage_a(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["src", "dst"])
        deg = g.groupby("src")["dst"].size()
        he = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": g["dst"].to_numpy(np.int64),
                "deg": g["src"].map(deg).to_numpy(np.int64),
                "b2": g["dst"].to_numpy(np.int64) % _KCORE_NB,
            }
        )
        dd = pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": deg.index.to_numpy(np.int64),
                "deg": deg.to_numpy(np.int64),
                "b2": deg.index.to_numpy(np.int64) % _KCORE_NB,
            }
        )
        return pd.concat([he, dd], ignore_index=True)

    def stage_b(g: pd.DataFrame) -> pd.DataFrame:
        degs = dict(
            zip(g.loc[g["kind"] == 1, "node"], g.loc[g["kind"] == 1, "deg"])
        )
        he = g[g["kind"] == 0]
        if not len(he):
            return pd.DataFrame(
                {"degree": pd.Series(dtype=np.int64),
                 "s_part": pd.Series(dtype=np.int64),
                 "c_part": pd.Series(dtype=np.int64)}
            )
        dy = he["node"].map(degs).to_numpy(np.int64)
        out = (
            pd.DataFrame({"degree": he["deg"].to_numpy(np.int64), "dy": dy})
            .groupby("degree", as_index=False)
            .agg(s_part=("dy", "sum"), c_part=("dy", "size"))
        )
        return out.astype(np.int64)

    c = (
        d.map_batches(edges, batch_format="pyarrow")
        .groupby("b")
        .map_groups(stage_a, batch_format="pandas")
        .groupby("b2")
        .map_groups(stage_b, batch_format="pandas")
        .groupby("degree")
        .aggregate(
            Sum("s_part", alias_name="s"),
            Sum("c_part", alias_name="n_half_edges"),
        )
        .to_pandas()  # degree-domain rows
    )
    if not len(c):
        return empty
    c = c.astype({"degree": np.int64, "s": np.int64, "n_half_edges": np.int64})
    c["avg_nbr_deg_ppm"] = (
        c["s"].astype(object) * 1_000_000 // c["n_half_edges"].astype(object)
    ).astype(np.int64)
    return (
        c[["degree", "n_half_edges", "avg_nbr_deg_ppm"]]
        .sort_values("degree")
        .reset_index(drop=True)
    )


NEIGHBOR_DEGREE_SQL = """
WITH n0 AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
de AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n0
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
e AS (SELECT src, dst FROM de UNION SELECT dst, src FROM de),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d FROM e GROUP BY 1)
SELECT da.d AS degree,
       CAST(COUNT(*) AS BIGINT) AS n_half_edges,
       CAST(SUM(db.d) * 1000000 // COUNT(*) AS BIGINT) AS avg_nbr_deg_ppm
FROM e JOIN deg da ON da.node = e.src JOIN deg db ON db.node = e.dst
GROUP BY 1
"""


# =========================================================== rich_club
#
# Rich-club coefficient at degree threshold RC_K: among nodes of
# undirected degree > RC_K, the realized fraction of possible edges —
# phi_ppm = 1e6 * 2*E_rich // (N_rich * (N_rich - 1)). "Do the hubs
# form their own dense core" (Colizza et al. 2006), the elite-linkage
# audit after deg_powerlaw says hubs exist.
#
# Scale shape: same two exchanges as neighbor_degree; a rich half-edge
# is counted when BOTH endpoint degrees clear the threshold (each
# undirected edge contributes exactly two half-edges, so E_rich is the
# half-edge count // 2); per-task 1-row partials.

RC_K = 3


def q_rich_club(sf_dir: str):
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id"])
    empty = pd.DataFrame(
        {"k": pd.Series([RC_K], dtype=np.int64),
         "n_rich": pd.Series([0], dtype=np.int64),
         "n_edges_rich": pd.Series([0], dtype=np.int64),
         "phi_ppm": pd.Series([0], dtype=np.int64)}
    )
    if n_docs == 0:
        return empty

    def edges(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame(
            {"src": pd.Series(src, dtype=np.int64),
             "dst": pd.Series(dst, dtype=np.int64)}
        )
        e = pd.concat(
            [e, e.rename(columns={"src": "dst", "dst": "src"})],
            ignore_index=True,
        ).drop_duplicates()
        e["b"] = e["src"] % _KCORE_NB
        return e

    def stage_a(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["src", "dst"])
        deg = g.groupby("src")["dst"].size()
        rich_src = g["src"].map(deg).to_numpy(np.int64) > RC_K
        he = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": g["dst"].to_numpy(np.int64)[rich_src],
                "b2": (g["dst"].to_numpy(np.int64)[rich_src]) % _KCORE_NB,
            }
        )
        dd = pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": deg.index.to_numpy(np.int64),
                "b2": deg.index.to_numpy(np.int64) % _KCORE_NB,
            }
        )
        dd["rich"] = (deg.to_numpy(np.int64) > RC_K).astype(np.int64)
        he["rich"] = np.int64(0)
        return pd.concat([he, dd], ignore_index=True)

    def stage_b(g: pd.DataFrame) -> pd.DataFrame:
        nodes = g[g["kind"] == 1]
        rich_nodes = set(nodes.loc[nodes["rich"] == 1, "node"])
        he = g[g["kind"] == 0]
        n_he = int(he["node"].isin(rich_nodes).sum())
        return pd.DataFrame(
            {"rich_part": pd.Series([len(rich_nodes)], dtype=np.int64),
             "he_part": pd.Series([n_he], dtype=np.int64)}
        )

    parts = (
        d.map_batches(edges, batch_format="pyarrow")
        .groupby("b")
        .map_groups(stage_a, batch_format="pandas")
        .groupby("b2")
        .map_groups(stage_b, batch_format="pandas")
    )
    tot = parts.sum(["rich_part", "he_part"])
    n_rich = int(tot["sum(rich_part)"] or 0)
    n_edges = int(tot["sum(he_part)"] or 0) // 2
    phi = (
        1_000_000 * 2 * n_edges // (n_rich * (n_rich - 1))
        if n_rich > 1 else 0
    )
    return pd.DataFrame(
        {"k": pd.Series([RC_K], dtype=np.int64),
         "n_rich": pd.Series([n_rich], dtype=np.int64),
         "n_edges_rich": pd.Series([n_edges], dtype=np.int64),
         "phi_ppm": pd.Series([phi], dtype=np.int64)}
    )


RICH_CLUB_SQL = f"""
WITH n0 AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
de AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n0
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
e AS (SELECT src, dst FROM de UNION SELECT dst, src FROM de),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d FROM e GROUP BY 1),
rich AS (SELECT node FROM deg WHERE d > {RC_K}),
re AS (
  SELECT CAST(COUNT(*) // 2 AS BIGINT) AS n_edges_rich
  FROM e
  WHERE e.src IN (SELECT node FROM rich) AND e.dst IN (SELECT node FROM rich)),
nr AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_rich FROM rich)
SELECT CAST({RC_K} AS BIGINT) AS k, nr.n_rich, re.n_edges_rich,
       CAST(CASE WHEN nr.n_rich > 1
            THEN 1000000 * 2 * re.n_edges_rich
                 // (nr.n_rich * (nr.n_rich - 1))
            ELSE 0 END AS BIGINT) AS phi_ppm
FROM nr, re
"""


# ======================================================= edge_homophily
#
# Source mixing matrix of the DIRECTED link graph: for every
# (src_source, dst_source) pair, the distinct-edge count and its share
# of all edges in basis points — the network-mixing audit (is linking
# intra-source or cross-source) that complements modularity_score's
# single within-community number.
#
# Scale shape: node (doc_id, source) rows and half-edges co-locate in
# src-keyed buckets (source attaches in-task), half-edges re-key by dst
# bucket to attach the dst source; per-task (src_source, dst_source)
# count partials — a <= |sources|^2 SCHEMA-bounded table.


def q_edge_homophily(sf_dir: str):
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id", "source"])
    empty = pd.DataFrame(
        {"src_source": pd.Series(dtype=str),
         "dst_source": pd.Series(dtype=str),
         "n_edges": pd.Series(dtype=np.int64),
         "share_bp": pd.Series(dtype=np.int64)}
    )
    if n_docs == 0:
        return empty

    def emit(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        srcs = t.column("source").to_pylist()
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        he = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": pd.Series(src, dtype=np.int64),
                "other": pd.Series(dst, dtype=np.int64),
                "label": "",
            }
        )
        nd = pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": pd.Series(ids, dtype=np.int64),
                "other": np.int64(-1),
                "label": pd.Series(srcs, dtype=object),
            }
        )
        out = pd.concat([he, nd], ignore_index=True)
        out["b"] = out["node"] % _KCORE_NB
        return out

    def stage_a(g: pd.DataFrame) -> pd.DataFrame:
        lab = dict(
            zip(g.loc[g["kind"] == 1, "node"], g.loc[g["kind"] == 1, "label"])
        )
        he = g[g["kind"] == 0].drop_duplicates(["node", "other"])
        out = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": he["other"].to_numpy(np.int64),
                "label": he["node"].map(lab).astype(object),
                "b2": he["other"].to_numpy(np.int64) % _KCORE_NB,
            }
        )
        nd = g[g["kind"] == 1].copy()
        nd = pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": nd["node"].to_numpy(np.int64),
                "label": nd["label"].astype(object),
                "b2": nd["node"].to_numpy(np.int64) % _KCORE_NB,
            }
        )
        return pd.concat([out, nd], ignore_index=True)

    def stage_b(g: pd.DataFrame) -> pd.DataFrame:
        lab = dict(
            zip(g.loc[g["kind"] == 1, "node"], g.loc[g["kind"] == 1, "label"])
        )
        he = g[g["kind"] == 0]
        if not len(he):
            return pd.DataFrame(
                {"src_source": pd.Series(dtype=object),
                 "dst_source": pd.Series(dtype=object),
                 "n_part": pd.Series(dtype=np.int64)}
            )
        out = (
            pd.DataFrame(
                {"src_source": he["label"].astype(object),
                 "dst_source": he["node"].map(lab).astype(object)}
            )
            .groupby(["src_source", "dst_source"], as_index=False)
            .size()
        )
        out.columns = ["src_source", "dst_source", "n_part"]
        return out.astype({"n_part": np.int64})

    c = (
        d.map_batches(emit, batch_format="pyarrow")
        .groupby("b")
        .map_groups(stage_a, batch_format="pandas")
        .groupby("b2")
        .map_groups(stage_b, batch_format="pandas")
        .groupby(["src_source", "dst_source"])
        .aggregate(Sum("n_part", alias_name="n_edges"))
        .to_pandas()  # <= |sources|^2 rows, schema-bounded
    )
    if not len(c):
        return empty
    c = c.astype({"n_edges": np.int64})
    total = int(c["n_edges"].sum())
    c["share_bp"] = (
        c["n_edges"].astype(object) * 10000 // total
    ).astype(np.int64)
    return c.sort_values(["src_source", "dst_source"]).reset_index(drop=True)


EDGE_HOMOPHILY_SQL = """
WITH n0 AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents
),
de AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n0
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id
),
m AS (
  SELECT ds.source AS src_source, dd.source AS dst_source,
         CAST(COUNT(*) AS BIGINT) AS n_edges
  FROM de
  JOIN documents ds ON ds.doc_id = de.src
  JOIN documents dd ON dd.doc_id = de.dst
  GROUP BY 1, 2),
tot AS (SELECT CAST(SUM(n_edges) AS BIGINT) AS total FROM m)
SELECT src_source, dst_source, n_edges,
       CAST(n_edges * 10000 // total AS BIGINT) AS share_bp
FROM m, tot
"""


WEBGRAPH_SQL_QUERIES: dict[str, tuple] = {
    "closeness_pivots": (q_closeness_pivots, _closeness_sql(), "graph"),
    "kcore_peel": (q_kcore_peel, _kcore_sql(), "graph"),
    "degree_assortativity": (q_degree_assortativity, DEGREE_ASSORTATIVITY_SQL, "graph"),
    "hyperball_2hop": (q_hyperball_2hop, _hyperball_sql(), "graph"),
    "clustering_coeff": (q_clustering_coeff, _clustering_coeff_sql(), "graph"),
    "cocitation_pairs": (q_cocitation_pairs, COCITATION_PAIRS_SQL, "graph"),
    "graph_reciprocity": (q_graph_reciprocity, GRAPH_RECIPROCITY_SQL, "graph"),
    "butterfly_count": (q_butterfly_count, BUTTERFLY_COUNT_SQL, "graph"),
    "modularity_score": (q_modularity_score, MODULARITY_SCORE_SQL, "graph"),
    "neighbor_degree": (q_neighbor_degree, NEIGHBOR_DEGREE_SQL, "graph"),
    "rich_club": (q_rich_club, RICH_CLUB_SQL, "graph"),
    "edge_homophily": (q_edge_homophily, EDGE_HOMOPHILY_SQL, "graph"),
    "deg_powerlaw": (q_deg_powerlaw, DEG_POWERLAW_SQL, "graph"),
    "truss_support": (q_truss_support, TRUSS_SUPPORT_SQL, "graph"),
}
