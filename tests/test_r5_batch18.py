"""Tests for the round-5 batch-18 crawl-yield operators
(crawlyield_ops): host_discovery_curve, effective_corpus_size,
directed_3cycles — DuckDB-oracle parity plus brute force.
"""

from __future__ import annotations

from fractions import Fraction

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.crawlyield_ops import (
    DIRECTED_3CYCLES_SQL,
    HDC_STEPS,
    HOST_DISCOVERY_CURVE_SQL,
    _effective_size_sql,
    q_directed_3cycles,
    q_effective_corpus_size,
    q_host_discovery_curve,
)
from europarl_crawler_ray.pipelines.queries import internal_edges_np
from europarl_crawler_ray.pipelines.sitegraph_ops import _dust_family

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


def test_host_discovery_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_host_discovery_curve(str(tmp_path)))

    first = {}
    for i in range(N_DOCS):
        h = (i % 4) * 97 + (i % 97)
        first.setdefault(h, i)
    for _, r in got.iterrows():
        t = int(r["step"])
        n_prefix = N_DOCS * t // HDC_STEPS
        assert int(r["n_prefix"]) == n_prefix
        assert int(r["hosts_seen"]) == sum(
            1 for f in first.values() if f < n_prefix
        )
    # curve is monotone and saturates at the full host set
    seen = got.sort_values("step")["hosts_seen"].to_numpy(np.int64)
    assert (np.diff(seen) >= 0).all()
    assert int(seen[-1]) == len(first)

    _parity(got, _oracle(tmp_path, HOST_DISCOVERY_CURVE_SQL))


def test_effective_size_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_effective_corpus_size(str(tmp_path)))

    fams = _dust_family(np.arange(N_DOCS, dtype=np.int64), N_DOCS)
    fsz: dict[int, int] = {}
    for f in fams.tolist():
        fsz[f] = fsz.get(f, 0) + 1
    exp: dict[str, list] = {}
    for i in range(N_DOCS):
        s = f"s{i % 3}"
        e = exp.setdefault(s, [0, 0])
        e[0] += 1
        e[1] += 1_000_000 // fsz[fams[i]]
    assert {
        r["source"]: (int(r["n_docs"]), int(r["eff_weight_ppm"]))
        for _, r in got.iterrows()
    } == {s: tuple(v) for s, v in exp.items()}
    # duplication must actually shrink the effective size
    assert int(got["eff_weight_ppm"].sum()) < N_DOCS * 1_000_000
    # and the ppm floor keeps it within one unit per doc of the exact sum
    exact = sum(Fraction(1, fsz[f]) for f in fams.tolist())
    assert (
        0
        <= int(exact * 1_000_000) - int(got["eff_weight_ppm"].sum())
        <= N_DOCS
    )

    _parity(got, _oracle(tmp_path, _effective_size_sql()))


def test_directed_3cycles_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_directed_3cycles(str(tmp_path)))

    src, dst = internal_edges_np(list(range(N_DOCS)), N_DOCS, drop_self=True)
    edges = set(zip(src.tolist(), dst.tolist()))
    out_adj: dict[int, set] = {}
    for u, v in edges:
        out_adj.setdefault(u, set()).add(v)
    n_wedges = sum(
        1
        for u, v in edges
        for w in out_adj.get(v, ())
        if w != u
    )
    n_cyc = sum(
        1
        for u, v in edges
        for w in out_adj.get(v, ())
        if w != u and u < v and u < w and (w, u) in edges
    )
    assert int(got["n_wedges"].iloc[0]) == n_wedges
    assert int(got["n_3cycles"].iloc[0]) == n_cyc
    assert n_wedges > 0

    _parity(got, _oracle(tmp_path, DIRECTED_3CYCLES_SQL))
