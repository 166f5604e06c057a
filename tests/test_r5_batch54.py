"""Tests for the round-5 batch-54 dedup-sketch operators
(dedupsketch_ops): supershingle_pairs, qgram_distance,
cdc_dedup_ratio — DuckDB parity plus property pins. Exact duplicate
docs must share ALL 8 super-shingles, distinct docs none; identical
strings give q-gram distance 0 and the metric obeys symmetry-in-mass
bounds; a corpus of repeated documents shows high CDC dup share
while unique docs show ~0.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.dedupsketch_ops import (
    CDC_DEDUP_RATIO_SQL,
    QGRAM_DISTANCE_SQL,
    SS_GROUPS,
    _supershingle_sql,
    q_cdc_dedup_ratio,
    q_qgram_distance,
    q_supershingle_pairs,
)


def _write(d, texts):
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(["s"] * n, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
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
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _parity(ray_df, sql_df):
    pd.testing.assert_frame_equal(
        _canon(ray_df), _canon(sql_df), check_dtype=False
    )


def _unwrap(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def test_supershingle_exact_dups_share_all_and_parity(
    ray_session, tmp_path, monkeypatch
):
    monkeypatch.setenv("EUROPARL_SCRATCH", "0")  # fresh tiny corpus
    texts = []
    dup = " ".join(f"d{j}" for j in range(30))
    for i in range(10):
        texts.append(" ".join(f"u{i}x{j}" for j in range(25)))
    texts += [dup, dup, dup]  # ids 10, 11, 12: exact triplicate
    _write(tmp_path, texts)
    got = _unwrap(q_supershingle_pairs(str(tmp_path)))
    pairs = {
        (int(r["doc_a"]), int(r["doc_b"])): int(r["n_shared"])
        for _, r in got.iterrows()
    }
    # the triplicate yields all three pairs with every group shared
    for p in [(10, 11), (10, 12), (11, 12)]:
        assert pairs[p] == SS_GROUPS
    # distinct docs never collide on 16 consecutive minhashes
    assert all(a >= 10 and b >= 10 for a, b in pairs)
    _parity(got, _oracle(tmp_path, _supershingle_sql()))


def test_qgram_identity_and_parity(ray_session, tmp_path):
    texts = [f"document number {i} with shared words" for i in range(40)]
    _write(tmp_path, texts)
    got = _unwrap(q_qgram_distance(str(tmp_path)))
    assert len(got) == 16
    for _, r in got.iterrows():
        # q-gram distance bounded by total mass of both profiles
        assert 0 <= int(r["qgram_dist"]) <= int(r["mass_a"]) + int(
            r["mass_b"]
        )
    _parity(got, _oracle(tmp_path, QGRAM_DISTANCE_SQL))


def test_qgram_zero_for_identical_pair(ray_session, tmp_path):
    # every doc identical: all 16 pairs must have distance 0
    _write(tmp_path, ["same exact text here"] * 40)
    got = _unwrap(q_qgram_distance(str(tmp_path)))
    assert (got["qgram_dist"].to_numpy(np.int64) == 0).all()


def test_cdc_dedup_ratio_extremes_and_parity(ray_session, tmp_path):
    # 20 copies of one doc: chunks repeat 20x -> dup share ~ 19/20
    dup = " ".join(f"w{j}" for j in range(40))
    _write(tmp_path, [dup] * 20)
    got = _unwrap(q_cdc_dedup_ratio(str(tmp_path))).iloc[0]
    assert int(got["n_chunks"]) == 20 * int(got["n_distinct"])
    assert int(got["dup_x1e6"]) == 10**6 * 19 // 20
    _parity(
        _unwrap(q_cdc_dedup_ratio(str(tmp_path))),
        _oracle(tmp_path, CDC_DEDUP_RATIO_SQL),
    )
    # all-unique corpus: duplicated share 0
    texts = [" ".join(f"q{i}x{j}" for j in range(30)) for i in range(15)]
    _write(tmp_path, texts)
    got2 = _unwrap(q_cdc_dedup_ratio(str(tmp_path))).iloc[0]
    assert int(got2["dup_x1e6"]) == 0
    _parity(
        _unwrap(q_cdc_dedup_ratio(str(tmp_path))),
        _oracle(tmp_path, CDC_DEDUP_RATIO_SQL),
    )
