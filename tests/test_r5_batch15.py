"""Tests for the round-5 batch-15 site-level operator dust_detect
(sitegraph_ops) — DuckDB-oracle parity plus independent brute force on
a small synthetic table.
"""

from __future__ import annotations

from itertools import combinations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.sitegraph_ops import (
    DUST_CAP,
    DUST_CLASSES,
    _dust_family,
    _dust_sql,
    q_dust_detect,
)

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


def test_dust_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_dust_detect(str(tmp_path)))

    fams = _dust_family(np.arange(N_DOCS, dtype=np.int64), N_DOCS)
    byfam: dict[int, list] = {}
    for i, f in enumerate(fams.tolist()):
        byfam.setdefault(f, []).append(i)
    exp = dict.fromkeys(DUST_CLASSES, 0)
    for ids in byfam.values():
        for u, v in combinations(sorted(ids)[:DUST_CAP], 2):
            if u % 3 != v % 3:
                exp["tld_mirror"] += 1
            elif u % 4 != v % 4:
                exp["subdomain_mirror"] += 1
            else:
                exp["path_alias"] += 1
    assert {
        r["dust_class"]: int(r["n_pairs"]) for _, r in got.iterrows()
    } == exp
    assert sum(exp.values()) > 0  # families must actually exist
    assert set(got["dust_class"]) == set(DUST_CLASSES)  # zero-filled domain

    _parity(got, _oracle(tmp_path, _dust_sql()))


