"""Tests for the round-5 batch-48 coreset operators (coreset_ops):
facility_location, medoid_select, kernel_herding — DuckDB parity plus
mechanism pins. The facility test brute-forces every greedy step and
checks diminishing gains (submodularity along the greedy path); the
medoid test brute-forces the 1-median; the herding test checks the
first pick maximizes ⟨Σ_all, c⟩ and the selected mean drifts TOWARD
the global mean (the moment-matching property).
"""

from __future__ import annotations

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.coreset_ops import (
    CAND_N,
    FL_K,
    MEDOID_SELECT_SQL,
    _facility_sql,
    _herding_sql,
    q_facility_location,
    q_kernel_herding,
    q_medoid_select,
)

N_VEC = 150
DIM = 6


def _vecs():
    rng = np.random.RandomState(23)
    return np.round(rng.randn(N_VEC, DIM), 3)


def _write(d, vecs):
    n = len(vecs)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([0] * n, pa.int32()),
            }
        ),
        str(d / "embeddings.parquet"),
    )


def _oracle(d, sql):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{d}/embeddings.parquet')"
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


def _q(v):
    return np.floor(
        np.asarray(v, np.float32).astype(np.float64) * 1000.0
    ).astype(np.int64)


def _cands(n):
    return sorted(
        range(n), key=lambda v: hashlib.md5(f"cand:{v}".encode()).hexdigest()
    )[:CAND_N]


def test_facility_greedy_brute_force_and_parity(ray_session, tmp_path):
    vecs = _vecs()
    _write(tmp_path, vecs)
    got = _unwrap(q_facility_location(str(tmp_path)))
    qm = _q(vecs)
    cids = _cands(N_VEC)
    s = np.maximum(qm @ qm[cids].T, 0)  # (n, CAND_N)
    selected = []
    for step in range(1, FL_K + 1):
        cur = (
            s[:, selected].max(axis=1)
            if selected
            else np.zeros(len(qm), np.int64)
        )
        gains = np.maximum(s - cur[:, None], 0).sum(axis=0)
        best = min(
            (
                (-int(gains[i]), cids[i], i)
                for i in range(len(cids))
                if i not in selected
            )
        )
        r = got[got["step"] == step].iloc[0]
        assert int(r["vec_id"]) == best[1]
        assert int(r["gain"]) == -best[0]
        selected.append(best[2])
    # diminishing gains along the greedy path (submodularity)
    g = got.sort_values("step")["gain"].to_numpy(np.int64)
    assert (np.diff(g) <= 0).all()
    _parity(got, _oracle(tmp_path, _facility_sql()))


def test_medoid_brute_force_and_parity(ray_session, tmp_path):
    vecs = _vecs()
    _write(tmp_path, vecs)
    got = _unwrap(q_medoid_select(str(tmp_path)))
    qm = _q(vecs)
    cids = _cands(N_VEC)
    best = None
    for c in cids:
        d2 = int(((qm - qm[c]) ** 2).sum())
        if best is None or (d2, c) < best:
            best = (d2, c)
    assert int(got["vec_id"].iloc[0]) == best[1]
    assert int(got["total_d2"].iloc[0]) == best[0]
    _parity(got, _oracle(tmp_path, MEDOID_SELECT_SQL))


def test_herding_moment_matching_and_parity(ray_session, tmp_path):
    vecs = _vecs()
    _write(tmp_path, vecs)
    got = _unwrap(q_kernel_herding(str(tmp_path)))
    qm = _q(vecs)
    cids = _cands(N_VEC)
    sum_all = qm.sum(axis=0)
    # first pick maximizes <sum_all, c>
    first = max(
        ((int(sum_all @ qm[c]), -c) for c in cids)
    )
    assert int(got[got["step"] == 1]["vec_id"].iloc[0]) == -first[1]
    # moment matching: the selected mean's distance to the global mean
    # shrinks from step 1 to step K (floats only in the TEST metric)
    mu = qm.mean(axis=0)
    sel = got.sort_values("step")["vec_id"].astype(int).tolist()
    d1 = np.linalg.norm(qm[sel[0]] - mu)
    dk = np.linalg.norm(qm[sel].mean(axis=0) - mu)
    assert dk < d1
    _parity(got, _oracle(tmp_path, _herding_sql()))
