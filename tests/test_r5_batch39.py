"""Tests for the round-5 batch-39 assignment operator mercator_queues
(assignment_ops) — DuckDB parity plus independent brute force; the
test pins the one-host-one-queue invariant.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.assignment_ops import (
    MERC_B,
    MERC_HOSTS,
    MERCATOR_QUEUES_SQL,
    q_mercator_queues,
)


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _oracle(d, sql, tables):
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{d}/{t}.parquet')"
        )
    return con.execute(sql).fetchdf()


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _parity(ray_df, sql_df):
    pd.testing.assert_frame_equal(
        _canon(ray_df), _canon(sql_df), check_dtype=False
    )


def _unwrap(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def test_mercator_one_host_one_queue_and_parity(ray_session, tmp_path):
    n = 500
    custkeys = [(i * 13) % 300 for i in range(n)]
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(range(n), pa.int64()),
                "o_custkey": pa.array(custkeys, pa.int64()),
                "o_totalprice": pa.array([1.0] * n, pa.float64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    got = _unwrap(q_mercator_queues(str(tmp_path)))
    # brute force
    hc = Counter(k % MERC_HOSTS for k in custkeys)
    per_q: dict[int, list] = {}
    for h, c in hc.items():
        per_q.setdefault(_md5_64(f"bq:42:{h}") % MERC_B, []).append(c)
    exp = {
        q: (len(cs), sum(cs), max(cs), 100 * max(cs) // sum(cs))
        for q, cs in per_q.items()
    }
    gotmap = {
        int(r["queue"]): (
            int(r["n_hosts"]),
            int(r["n_requests"]),
            int(r["max_host_requests"]),
            int(r["max_share_x100"]),
        )
        for _, r in got.iterrows()
    }
    assert gotmap == exp
    # invariant: total requests across queues == total orders
    assert sum(v[1] for v in gotmap.values()) == n
    _parity(got, _oracle(tmp_path, MERCATOR_QUEUES_SQL, ["orders"]))


