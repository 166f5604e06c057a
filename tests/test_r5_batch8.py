"""Tests for the round-5 batch-8 operators chi2_token_drift and
composition_entropy (webtext_ops) — DuckDB-oracle parity plus
brute-force checks: a scipy-free 2×K chi-square and a direct-math.log
entropy."""

from __future__ import annotations

import math
import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.webtext_ops import (
    CHI2_TOKEN_DRIFT_SQL,
    COMPOSITION_ENTROPY_SQL,
    SPEARMAN_TOP_K,
    q_chi2_token_drift,
    q_composition_entropy,
)

_WS = re.compile(r"[^ \t\n\r\f]+")


def _write_docs(d, rows):
    """rows: list of (text, lang, source)."""
    texts = [r[0] for r in rows]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(rows)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array([r[1] for r in rows], pa.string()),
                "source": pa.array([r[2] for r in rows], pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )


def _oracle(d, sql, tables):
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{d}/{t}.parquet')"
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


# ---------------------------------------------------- chi2_token_drift


def test_chi2_brute_force_and_parity(ray_session, tmp_path):
    rows = [
        ("alpha alpha alpha beta", "en", "s"),   # half A
        ("beta beta gamma gamma", "en", "s"),    # half B
        ("alpha gamma delta", "en", "s"),        # half A
        ("beta delta delta delta", "en", "s"),   # half B
    ]
    _write_docs(tmp_path, rows)
    got = _unwrap(q_chi2_token_drift(str(tmp_path)))

    na, nb = {}, {}
    for i, (text, _l, _s) in enumerate(rows):
        tgt = na if i % 2 == 0 else nb
        for t in _WS.findall(text.lower()):
            tgt[t] = tgt.get(t, 0) + 1
    toks = sorted(
        set(na) | set(nb),
        key=lambda t: (-(na.get(t, 0) + nb.get(t, 0)), t),
    )[:SPEARMAN_TOP_K]
    ta = sum(na.get(t, 0) for t in toks)
    tb = sum(nb.get(t, 0) for t in toks)
    tt = ta + tb
    chi2 = 0
    for tok in toks:
        oa, ob = na.get(tok, 0), nb.get(tok, 0)
        ct = oa + ob
        if ct == 0:
            continue
        chi2 += 1_000_000 * (oa * tt - ta * ct) ** 2 // (tt * ta * ct)
        chi2 += 1_000_000 * (ob * tt - tb * ct) ** 2 // (tt * tb * ct)
    assert int(got["n_tokens"].iloc[0]) == len(toks)
    assert int(got["dof"].iloc[0]) == len(toks) - 1
    assert int(got["chi2_ppm"].iloc[0]) == chi2

    _parity(got, _oracle(tmp_path, CHI2_TOKEN_DRIFT_SQL, ("documents",)))


def test_chi2_identical_halves_is_zero(ray_session, tmp_path):
    rows = [("x y z", "en", "s"), ("x y z", "en", "s")] * 4
    _write_docs(tmp_path, rows)
    got = _unwrap(q_chi2_token_drift(str(tmp_path)))
    assert int(got["chi2_ppm"].iloc[0]) == 0
    _parity(got, _oracle(tmp_path, CHI2_TOKEN_DRIFT_SQL, ("documents",)))


# ------------------------------------------------- composition_entropy


def test_composition_entropy_brute_force_and_parity(ray_session, tmp_path):
    rows = (
        [("t", "en", "mono")] * 6
        + [("t", "en", "mixed")] * 3
        + [("t", "de", "mixed")] * 2
        + [("t", "fr", "mixed")] * 1
    )
    _write_docs(tmp_path, rows)
    got = _unwrap(q_composition_entropy(str(tmp_path)))

    def h(cnts):
        n = sum(cnts)
        ln = math.floor(1e6 * math.log(n))
        sc = sum(v * math.floor(1e6 * math.log(v)) for v in cnts)
        return (n * ln - sc) // n

    g = got.set_index("source")
    assert int(g.loc["mono", "entropy_unats"]) == 0
    assert int(g.loc["mono", "n_langs"]) == 1
    assert int(g.loc["mixed", "entropy_unats"]) == h([3, 2, 1])
    assert int(g.loc["mixed", "n_langs"]) == 3

    _parity(got, _oracle(tmp_path, COMPOSITION_ENTROPY_SQL, ("documents",)))
