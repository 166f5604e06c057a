"""Tests for the round-5 batch-14 operator opic_scores (centrality_ops)
— DuckDB-oracle parity plus independent dict-based brute force on a
small synthetic table, and the OPIC cash-conservation invariant.
"""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.centrality_ops import (
    OPIC_ROUNDS,
    OPIC_SCALE,
    q_opic_scores,
    _opic_sql,
)
from europarl_crawler_ray.pipelines.queries import internal_edges_np
from europarl_crawler_ray.stages.multimodal import _md5_64

N_DOCS = 60


def _write_docs(d, n=N_DOCS):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(["t"] * n, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array([f"s{i % 3}" for i in range(n)], pa.string()),
                "n_chars": pa.array([1] * n, pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )


def _oracle(d, sql):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{d}/documents.parquet')"
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


def _edge_multiset(n=N_DOCS, drop_self=False):
    src, dst = internal_edges_np(list(range(n)), n, drop_self=drop_self)
    return list(zip(src.tolist(), dst.tolist()))


def test_opic_brute_force_conservation_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_opic_scores(str(tmp_path)))

    edges = _edge_multiset()
    k = {
        v: 1 + _md5_64(f"lnkk:42:{v}") % 4 for v in range(N_DOCS)
    }
    cash = dict.fromkeys(range(N_DOCS), OPIC_SCALE)
    hist = dict.fromkeys(range(N_DOCS), 0)
    for _ in range(OPIC_ROUNDS):
        share = {v: cash[v] // k[v] for v in range(N_DOCS)}
        incoming = dict.fromkeys(range(N_DOCS), 0)
        for u, v in edges:
            incoming[v] += share[u]
        for v in range(N_DOCS):
            distributed = share[v] * k[v]
            hist[v] += distributed
            cash[v] = cash[v] - distributed + incoming[v]
    exp = {v: (cash[v], hist[v]) for v in range(N_DOCS)}
    assert {
        int(r["doc_id"]): (int(r["cash"]), int(r["history"]))
        for _, r in got.iterrows()
    } == exp
    # OPIC invariant: cash is conserved across rounds
    assert int(got["cash"].sum()) == N_DOCS * OPIC_SCALE
    assert int(got["history"].sum()) > 0

    _parity(got, _oracle(tmp_path, _opic_sql()))


