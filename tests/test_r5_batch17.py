"""Tests for the round-5 batch-17 diagnostics operator filter_kappa
(diagnostics_ops) — DuckDB-oracle parity plus brute-force
recomputation.
"""

from __future__ import annotations

from fractions import Fraction

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.diagnostics_ops import (
    FILTER_KAPPA_SQL,
    FK_DISTINCT,
    FK_LEN,
    q_filter_kappa,
)

N_DOCS = 60


def _texts(n=N_DOCS):
    out = []
    for i in range(n):
        if i % 4 == 0:
            out.append("héllo ωorld " * (1 + i % 3))       # 2-byte chars
        elif i % 4 == 1:
            out.append("中文 text 🎉 " * (1 + i % 3))        # 3- and 4-byte
        else:
            out.append(
                " ".join(
                    f"word{(i * 7 + j) % 29:02d}" for j in range(5 + i % 35)
                )
            )
    return out


def _write_docs(d, n=N_DOCS):
    texts = _texts(n)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(
                    [("en", "de", "fr")[i % 3] for i in range(n)], pa.string()
                ),
                "source": pa.array([f"s{i % 3}" for i in range(n)], pa.string()),
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


def test_filter_kappa_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_filter_kappa(str(tmp_path)))

    texts = _texts()
    cells = dict.fromkeys(range(4), 0)
    for t in texts:
        a = len(t) >= FK_LEN
        b = len(set(t.lower().split())) >= FK_DISTINCT
        cells[int(a) * 2 + int(b)] += 1
    n = N_DOCS
    n00, n01, n10, n11 = cells[0], cells[1], cells[2], cells[3]
    po = (n11 + n00) * 1_000_000 // n
    pe = ((n11 + n10) * (n11 + n01) + (n01 + n00) * (n10 + n00)) * 1_000_000 // (
        n * n
    )
    kappa = 0 if pe == 1_000_000 else max(po - pe, 0) * 1_000_000 // (
        1_000_000 - pe
    )
    r = got.iloc[0]
    assert (
        int(r["n_both"]),
        int(r["n_a_only"]),
        int(r["n_b_only"]),
        int(r["n_neither"]),
    ) == (n11, n10, n01, n00)
    assert int(r["po_ppm"]) == po
    assert int(r["pe_ppm"]) == pe
    assert int(r["kappa_ppm"]) == kappa
    # both filters must actually split the corpus (non-degenerate kappa)
    assert 0 < n11 < n

    # sanity: quantized kappa is within 1 ppm-floor of the exact value
    exact = Fraction(po - pe, 1_000_000 - pe) if pe != 1_000_000 else Fraction(0)
    if exact > 0:
        assert abs(kappa - int(exact * 1_000_000)) <= 1

    _parity(got, _oracle(tmp_path, FILTER_KAPPA_SQL))
