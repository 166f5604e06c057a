"""Assignment audit operator (round-5 batch 39): the Mercator
back-queue politeness assignment audit (Heydon & Najork 1999 — the
host→queue mapping every polite crawler runs).

Scale idiom: a bounded-domain reduce. Requests flow as per-batch
(queue, host) count partials → ONE coarse host exchange → B-row output
(per-queue host counts, request counts, and the largest-host share —
the head-of-line-blocking number).

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


ASSIGNMENT_SQL_QUERIES: dict[str, tuple] = {
    "mercator_queues": (q_mercator_queues, MERCATOR_QUEUES_SQL, "frontier"),
}
