"""Assignment audit operators (round-5 batch 39): the
Mercator back-queue politeness assignment audit (Heydon & Najork
1999 — the host→queue mapping every polite crawler runs) and HNSW
layer assignment (Malkov & Yashunin 2016 — the geometric level draw
that shapes the graph-index hierarchy), determinized md5-style.

Scale idioms: both are bounded-domain reduces. Mercator requests
flow as per-batch (queue, host) count partials → ONE coarse host
exchange → B-row output (per-queue host counts, request counts, and
the largest-host share — the head-of-line-blocking number); HNSW
levels are a pure per-batch map into a ≤9-row histogram (level =
trailing base-4 zeros of the node hash — the geometric p=1/4 draw
made deterministic).

Reference parity: the reference's politeness is per-host token
buckets (europarl/workers/tokenbucket.py, mirrored in
state/politeness.py); the Mercator audit covers the queue layer above
it that the reference never needed at single-host scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data.aggregate import Max, Sum

from .._util import read_table as _read, table_rows as _n_rows
from ..stages.multimodal import _md5_64
from .grouping import with_coarse_group as _with_coarse_group
from .ml_queries import _md5u

MERC_HOSTS = 256  # host id = o_custkey % MERC_HOSTS
MERC_B = 16  # back queues


# ====================================================== mercator_queues
#
# Back-queue assignment audit: requests (orders rows) map to hosts
# (o_custkey % 256), hosts map to back queues via
# md5('bq:42:<host>') % B — the Mercator rule that keeps one host's
# requests on one queue (politeness) while spreading hosts across
# queues (throughput). Output per queue: #hosts, #requests, the
# largest host's request count, and its share ×100 — the head-of-line
# blocking number a queue sizing decision reads.
#
# Scale shape: per-batch (host, n) count partials → ONE coarse host
# exchange (hosts partition across groups) → per-group per-queue
# partials (≤ B rows each) → B-row bounded groupby.


def q_mercator_queues(sf_dir: str):
    empty = pd.DataFrame(
        {
            "queue": pd.Series(dtype=np.int64),
            "n_hosts": pd.Series(dtype=np.int64),
            "n_requests": pd.Series(dtype=np.int64),
            "max_host_requests": pd.Series(dtype=np.int64),
            "max_share_x100": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "orders") == 0:
        return empty
    o = _read(sf_dir, "orders", columns=["o_custkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        host = df["o_custkey"].to_numpy(np.int64) % MERC_HOSTS
        s = pd.Series(host).value_counts()
        return pd.DataFrame(
            {
                "host": s.index.to_numpy(np.int64),
                "n": s.to_numpy(np.int64),
            }
        )

    def per_queue(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        s = t.groupby("host", as_index=False)["n"].sum()
        hosts = s["host"].to_numpy(np.int64)
        q = np.fromiter(
            (_md5_64(f"bq:42:{int(h)}") % MERC_B for h in hosts),
            np.int64,
            len(hosts),
        )
        s["queue"] = q
        out = s.groupby("queue", as_index=False).agg(
            n_hosts=("host", "size"),
            n_requests=("n", "sum"),
            max_host_requests=("n", "max"),
        )
        return out.astype(np.int64)

    agg = (
        _with_coarse_group(
            o.map_batches(partial, batch_format="pandas"), "host"
        )
        .groupby("_g")
        .map_groups(per_queue, batch_format="pandas")
        .groupby("queue")
        .aggregate(
            Sum("n_hosts", alias_name="n_hosts"),
            Sum("n_requests", alias_name="n_requests"),
            Max("max_host_requests", alias_name="max_host_requests"),
        )
        .to_pandas()  # <= MERC_B rows
    )
    if not len(agg):
        return empty
    out = agg.astype(
        {c: np.int64 for c in agg.columns if c != "queue"}
    ).copy()
    out["queue"] = out["queue"].astype(np.int64)
    out["max_share_x100"] = (
        100
        * out["max_host_requests"].to_numpy(np.int64)
        // np.maximum(out["n_requests"].to_numpy(np.int64), 1)
    ).astype(np.int64)
    return out.sort_values("queue").reset_index(drop=True)


MERCATOR_QUEUES_SQL = f"""
WITH h AS (
  SELECT o_custkey % {MERC_HOSTS} AS host,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
q AS (
  SELECT {_md5u("'bq:42:' || CAST(host AS VARCHAR)")} % {MERC_B} AS queue,
         host, n
  FROM h),
agg AS (
  SELECT CAST(queue AS BIGINT) AS queue,
         CAST(COUNT(*) AS BIGINT) AS n_hosts,
         CAST(SUM(n) AS BIGINT) AS n_requests,
         CAST(MAX(n) AS BIGINT) AS max_host_requests
  FROM q GROUP BY 1)
SELECT queue, n_hosts, n_requests, max_host_requests,
       CAST(100 * max_host_requests // GREATEST(n_requests, 1) AS BIGINT)
         AS max_share_x100
FROM agg
"""


# ========================================================= hnsw_levels
#
# HNSW layer assignment, determinized: a node's level is the number
# of trailing base-4 zeros of md5_64('hnsw:42:<vec_id>') capped at 8
# — exactly the geometric p = 1/4 level draw (mL = 1/ln 4) the paper
# prescribes, made reproducible. Output: (level, n_nodes) histogram —
# the shape that fixes the index's memory plan and entry-point depth.
#
# Scale shape: pure per-batch map → ≤9-row histogram reduce.

HNSW_MAX_LEVEL = 8


def q_hnsw_levels(sf_dir: str):
    empty = pd.DataFrame(
        {
            "level": pd.Series(dtype=np.int64),
            "n_nodes": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "embeddings") == 0:
        return empty
    e = _read(sf_dir, "embeddings", columns=["vec_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(np.int64)
        lv = np.zeros(len(ids), np.int64)
        for j, i in enumerate(ids):
            h = _md5_64(f"hnsw:42:{int(i)}")
            k = 0
            while k < HNSW_MAX_LEVEL and h % 4 == 0:
                h //= 4
                k += 1
            lv[j] = k
        s = pd.Series(lv).value_counts()
        return pd.DataFrame(
            {
                "level": s.index.to_numpy(np.int64),
                "n": s.to_numpy(np.int64),
            }
        )

    agg = (
        e.map_batches(partial, batch_format="pandas")
        .groupby("level")
        .sum("n")
        .to_pandas()  # <= 9 rows
    )
    if not len(agg):
        return empty
    col = "sum(n)" if "sum(n)" in agg.columns else "n"
    out = pd.DataFrame(
        {
            "level": agg["level"].astype(np.int64),
            "n_nodes": agg[col].astype(np.int64),
        }
    )
    return out.sort_values("level").reset_index(drop=True)


def _hnsw_sql() -> str:
    h = _md5u("'hnsw:42:' || CAST(vec_id AS VARCHAR)")
    # level = trailing base-4 zeros, capped: nested CASE over k
    conds = []
    for k in range(HNSW_MAX_LEVEL, 0, -1):
        conds.append(
            f"WHEN {h} % {4**k} = 0 THEN {k}"
        )
    case = "CASE " + " ".join(conds) + " ELSE 0 END"
    return f"""
WITH l AS (
  SELECT CAST({case} AS BIGINT) AS level FROM embeddings)
SELECT level, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM l GROUP BY 1
"""


ASSIGNMENT_SQL_QUERIES: dict[str, tuple] = {
    "mercator_queues": (q_mercator_queues, MERCATOR_QUEUES_SQL),
    "hnsw_levels": (q_hnsw_levels, _hnsw_sql()),
}
