"""Robustness / apportionment operators (round-5 batch 23): hub-attack
tolerance of the link graph (Albert, Jeong & Barabási 2000), largest-
remainder eval-budget apportionment (Hare quota), and the Gini mean
difference of document lengths.

Scale idioms: Pregel BFS with frontier-only messages for the
reachability passes; bounded top-K hub selection through
grouping.global_prune; value-domain histograms with exact prefix-sum
driver math for the order statistic.

Reference parity: the reference has no graph or sampling analytics;
these extend the brief's link-analysis / curation families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .ml_queries import _md5u


_LNK_MD5U = _md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")


# ====================================================== attack_tolerance
#
# Attack tolerance (Albert, Jeong & Barabási 2000): scale-free webs
# survive random failures but crumble when the top hubs go. The audit
# runs the pivot's undirected reachability twice — on the full graph
# and with the ATT_K highest-IN-DEGREE nodes deleted (ties broken by
# lower id) — and reports both reach counts plus the retained share.
# A crawl frontier whose connectivity hinges on a few hubs needs seed
# diversity before those hubs rate-limit it.
#
# Scale shape: in-degrees via ONE coarse exchange of (dst, count)
# partials; the K hubs via grouping.global_prune (O(K) driver rows at
# any block count); two Pregel BFS passes with frontier-only messages,
# the hub set broadcast inside the seed build. Driver sees 2 scalars.

ATT_K = 8
_ATT_NB = 64


def q_attack_tolerance(sf_dir: str, n_buckets: int = _ATT_NB):
    from .grouping import global_prune, with_coarse_group as _wcg
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np

    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    n_docs = _n_rows(sf_dir, "documents")
    out_cols = ("variant", "n_removed", "n_reached")
    if n_docs == 0:
        return pd.DataFrame(
            {
                "variant": ["full", "hubs_removed"],
                "n_removed": [0, 0],
                "n_reached": [0, 0],
            }
        ).astype({"n_removed": np.int64, "n_reached": np.int64})
    d = _read(sf_dir, "documents", columns=["doc_id"])
    pivot = 0

    # exact in-degrees (multiset, self-loops dropped like the und graph)
    def indeg_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        _, dst = internal_edges_np(ids, n_docs, drop_self=True)
        vals, cnts = np.unique(dst, return_counts=True)
        return pd.DataFrame(
            {"node": vals.astype(np.int64), "c_part": cnts.astype(np.int64)}
        )

    indeg = (
        _wcg(d.map_batches(indeg_partial, batch_format="pandas"), "node")
        .groupby("_g")
        .map_groups(
            lambda g: g.drop(columns=["_g"])
            .groupby("node", as_index=False)["c_part"]
            .sum(),
            batch_format="pandas",
        )
    )

    # the pivot must survive its own audit: if it is a hub, removing it
    # trivially zeroes the reach — exclude it BEFORE the top-K cut so
    # both engines pick the same K non-pivot hubs
    def prune_hubs(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "node" not in df.columns:
            return df
        t = df[df["node"] != pivot]
        t = t.sort_values(["c_part", "node"], ascending=[False, True])
        return t.head(ATT_K)

    hubs_df = global_prune(indeg, prune_hubs)
    hubs_df = hubs_df[hubs_df["node"] != pivot].sort_values(
        ["c_part", "node"], ascending=[False, True]
    ).head(ATT_K)
    hubs = frozenset(int(v) for v in hubs_df["node"])

    def reach(removed: frozenset) -> int:
        def seed_rows(t: pa.Table) -> pd.DataFrame:
            ids = t.column("doc_id").to_numpy().astype(np.int64)
            src, dst = internal_edges_np(ids, n_docs, drop_self=True)
            if removed:
                rm = np.array(sorted(removed), np.int64)
                keep = ~(np.isin(src, rm) | np.isin(dst, rm))
                src, dst = src[keep], dst[keep]
                ids = ids[~np.isin(ids, rm)]
            n1 = np.concatenate([src, dst, ids])
            n2 = np.concatenate(
                [dst, src, np.full(len(ids), -1, np.int64)]
            )
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
                    "seen": np.zeros(len(n1), np.int8),
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
                unseen = nodes[roster["seen"].to_numpy(np.int8) == 0]
                gained = np.intersect1d(m, unseen)
            if len(gained) == 0:
                return state, None, 0
            roster.loc[roster["n1"].isin(gained), "seen"] = np.int8(1)
            nb = np.unique(
                edges.loc[edges["n1"].isin(gained), "n2"].to_numpy(np.int64)
            )
            out = (
                pd.DataFrame({"b": nb & mask, "node": nb})
                if len(nb)
                else None
            )
            return (
                pd.concat([edges, roster], ignore_index=True),
                out,
                len(gained),
            )

        state_ds, converged, _ = pregel_actor_loop(
            d.map_batches(seed_rows, batch_format="pyarrow"),
            bfs_step,
            key="b",
            max_iters=64,
        )
        if not converged:
            raise RuntimeError("attack_tolerance: BFS did not converge")
        if state_ds is None:
            return 0

        def count_part(df: pd.DataFrame) -> pd.DataFrame:
            r = df[df["kind"] == 1]
            return pd.DataFrame(
                {"n_part": [int((r["seen"].to_numpy(np.int8) == 1).sum())]}
            ).astype(np.int64)

        return int(
            state_ds.map_batches(count_part, batch_format="pandas").sum(
                "n_part"
            )
        )

    full = reach(frozenset())
    attacked = reach(hubs)
    return pd.DataFrame(
        {
            "variant": ["full", "hubs_removed"],
            "n_removed": [0, len(hubs)],
            "n_reached": [full, attacked],
        }
    ).astype({"n_removed": np.int64, "n_reached": np.int64})


ATTACK_TOLERANCE_SQL = f"""
WITH RECURSIVE n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_LNK_MD5U} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
indeg AS (SELECT dst AS node, COUNT(*) AS c FROM e GROUP BY 1),
hubs AS (
  SELECT node FROM indeg WHERE node <> 0
  ORDER BY c DESC, node ASC LIMIT {ATT_K}),
full_r AS (
  SELECT CAST(0 AS BIGINT) AS node
  UNION
  SELECT CASE WHEN e.src = full_r.node THEN e.dst ELSE e.src END
  FROM e JOIN full_r ON e.src = full_r.node OR e.dst = full_r.node),
e2 AS (
  SELECT src, dst FROM e
  WHERE src NOT IN (SELECT node FROM hubs)
    AND dst NOT IN (SELECT node FROM hubs)),
att_r AS (
  SELECT CAST(0 AS BIGINT) AS node
  UNION
  SELECT CASE WHEN e2.src = att_r.node THEN e2.dst ELSE e2.src END
  FROM e2 JOIN att_r ON e2.src = att_r.node OR e2.dst = att_r.node)
SELECT 'full' AS variant, CAST(0 AS BIGINT) AS n_removed,
       CAST((SELECT COUNT(*) FROM full_r) AS BIGINT) AS n_reached
UNION ALL
SELECT 'hubs_removed', CAST((SELECT COUNT(*) FROM hubs) AS BIGINT),
       CAST((SELECT COUNT(*) FROM att_r) AS BIGINT)
"""


# ================================================== eval_quota_apportion
#
# Largest-remainder (Hare quota) apportionment of a fixed evaluation
# budget across sources: quota_s = floor(B·n_s / n), and the remaining
# B − Σ floors go one each to the largest remainders (B·n_s mod n,
# ties to the lexicographically smaller source) — the standard exact
# way to cut an eval set that mirrors corpus composition without
# fractional documents.
#
# Scale shape: per-batch source counts (source-domain bounded) → tiny
# groupby → exact integer driver apportionment over ≤ |sources| rows.

EVAL_BUDGET = 100


def q_eval_quota_apportion(sf_dir: str, budget: int = EVAL_BUDGET):
    d = _read(sf_dir, "documents", columns=["source"])
    empty = pd.DataFrame(
        {
            "source": pd.Series(dtype=str),
            "n_docs": pd.Series(dtype=np.int64),
            "quota": pd.Series(dtype=np.int64),
        }
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("source", as_index=False).size()
        out.columns = ["source", "c_part"]
        return out.astype({"c_part": np.int64})

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .aggregate(Sum("c_part", alias_name="n_docs"))
        .to_pandas()  # source-domain bounded
    )
    if not len(c):
        return empty
    c["n_docs"] = c["n_docs"].astype(np.int64)
    n = int(c["n_docs"].sum())
    c["quota"] = (
        c["n_docs"].astype(object) * budget // n
    ).astype(np.int64)
    c["rem"] = (c["n_docs"].astype(object) * budget % n).astype(np.int64)
    left = budget - int(c["quota"].sum())
    c = c.sort_values(["rem", "source"], ascending=[False, True]).reset_index(
        drop=True
    )
    if left > 0:
        c.loc[: left - 1, "quota"] += 1
    return (
        c[["source", "n_docs", "quota"]]
        .sort_values("source")
        .reset_index(drop=True)
    )


def _eval_quota_sql() -> str:
    return f"""
WITH c AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY 1),
tot AS (SELECT CAST(SUM(n_docs) AS BIGINT) AS n FROM c),
base AS (
  SELECT c.source, c.n_docs,
         CAST(c.n_docs * {EVAL_BUDGET} // tot.n AS BIGINT) AS q,
         CAST(c.n_docs * {EVAL_BUDGET} % tot.n AS BIGINT) AS rem,
         ROW_NUMBER() OVER (ORDER BY c.n_docs * {EVAL_BUDGET} % tot.n DESC,
                            c.source ASC) AS rk
  FROM c, tot),
left_over AS (
  SELECT CAST({EVAL_BUDGET} - SUM(q) AS BIGINT) AS lo FROM base)
SELECT base.source, base.n_docs,
       CAST(base.q + CASE WHEN base.rk <= left_over.lo THEN 1 ELSE 0 END
            AS BIGINT) AS quota
FROM base, left_over
"""


# ========================================================== length_gmd
#
# Gini mean difference of document lengths — the mean absolute
# pairwise difference E|X−Y|, the dispersion statistic behind the Gini
# coefficient, exactly computable from the sorted value histogram via
# prefix sums: Σ_{i<j}|v_i−v_j| = Σ_k v_k·(2·rank_sum terms) without
# ever materializing the O(n²) pairs. Reported as the exact pair sum
# plus the ppm-floored mean.
#
# Scale shape: per-batch (length → count, sum) partials → one value-
# domain-bounded groupby → exact Python-int prefix-sum driver math.


def q_length_gmd(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["n_chars"])
    empty = pd.DataFrame(
        {
            "n_docs": [0],
            "pair_abs_sum": [0],
            "gmd_ppm": [0],
        }
    ).astype(np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "v": pd.Series(dtype=np.int64),
                    "c_part": pd.Series(dtype=np.int64),
                }
            )
        v = df["n_chars"].to_numpy(np.int64)
        out = (
            pd.DataFrame({"v": v})
            .groupby("v", as_index=False)
            .size()
            .rename(columns={"size": "c_part"})
        )
        return out.astype(np.int64)

    h = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("v")
        .aggregate(Sum("c_part", alias_name="c"))
        .to_pandas()  # value-domain bounded
    )
    if not len(h):
        return empty
    h = h.astype(np.int64).sort_values("v").reset_index(drop=True)
    n = 0
    s = 0
    pair_sum = 0
    for v, c in zip(h["v"].tolist(), h["c"].tolist()):
        # all previously-seen values are <= v: they contribute
        # c * (n*v - s) to the absolute pair sum
        pair_sum += c * (n * v - s)
        n += c
        s += c * v
    n_pairs = n * (n - 1) // 2
    gmd_ppm = pair_sum * 1_000_000 // n_pairs if n_pairs else 0
    return pd.DataFrame(
        {
            "n_docs": [n],
            "pair_abs_sum": [pair_sum],
            "gmd_ppm": [gmd_ppm],
        }
    ).astype(np.int64)


LENGTH_GMD_SQL = """
WITH h AS (
  SELECT n_chars AS v, CAST(COUNT(*) AS HUGEINT) AS c
  FROM documents GROUP BY 1),
cum AS (
  SELECT v, c,
         COALESCE(SUM(c) OVER (ORDER BY v
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS n_before,
         COALESCE(SUM(c * v) OVER (ORDER BY v
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS s_before
  FROM h),
agg AS (
  SELECT CAST(SUM(c) AS HUGEINT) AS n,
         CAST(SUM(c * (n_before * v - s_before)) AS HUGEINT) AS pair_abs_sum
  FROM cum)
SELECT CAST(n AS BIGINT) AS n_docs,
       CAST(pair_abs_sum AS BIGINT) AS pair_abs_sum,
       CAST(CASE WHEN n > 1
            THEN pair_abs_sum * 1000000 // (n * (n - 1) // 2)
            ELSE 0 END AS BIGINT) AS gmd_ppm
FROM agg
"""


ROBUSTNESS_SQL_QUERIES: dict[str, tuple] = {
    "attack_tolerance": (q_attack_tolerance, ATTACK_TOLERANCE_SQL),
    "eval_quota_apportion": (q_eval_quota_apportion, _eval_quota_sql()),
    "length_gmd": (q_length_gmd, LENGTH_GMD_SQL),
}
