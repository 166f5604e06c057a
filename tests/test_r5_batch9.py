"""Tests for the round-5 batch-9 operators: js_token_drift
(webtext_ops) and coverage_maxcover (selection_ops) — DuckDB-oracle
parity plus brute-force checks: a direct quantized-KL JS computation
and a hand-run greedy max-coverage including the zero-gain stop."""

from __future__ import annotations

import math
import re

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.selection_ops import (
    MC_N,
    MC_R,
    _maxcover_sql,
    q_coverage_maxcover,
)
from europarl_crawler_ray.pipelines.webtext_ops import (
    JS_TOKEN_DRIFT_SQL,
    q_js_token_drift,
)

_WS = re.compile(r"[^ \t\n\r\f]+")


def _write_docs(d, texts):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
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


# ------------------------------------------------------ js_token_drift


def test_js_brute_force_and_parity(ray_session, tmp_path):
    texts = [
        "alpha alpha alpha beta",   # half A
        "beta beta gamma gamma",    # half B
        "alpha gamma",              # half A
        "beta delta delta",         # half B
    ]
    _write_docs(tmp_path, texts)
    got = _unwrap(q_js_token_drift(str(tmp_path)))

    na, nb = {}, {}
    for i, text in enumerate(texts):
        tgt = na if i % 2 == 0 else nb
        for t in _WS.findall(text.lower()):
            tgt[t] = tgt.get(t, 0) + 1
    toks = sorted(set(na) | set(nb))
    ta, tb = sum(na.values()), sum(nb.values())

    def L(x):
        return math.floor(1e6 * math.log(float(x)))

    num_a = sum(
        na[t] * (L(2 * na[t] * tb) - L(na[t] * tb + nb.get(t, 0) * ta))
        for t in toks if na.get(t, 0) > 0
    )
    num_b = sum(
        nb[t] * (L(2 * nb[t] * ta) - L(nb[t] * ta + na.get(t, 0) * tb))
        for t in toks if nb.get(t, 0) > 0
    )
    kla, klb = max(0, num_a) // ta, max(0, num_b) // tb
    assert int(got["kl_a_unats"].iloc[0]) == kla
    assert int(got["kl_b_unats"].iloc[0]) == klb
    assert int(got["js_unats"].iloc[0]) == (kla + klb) // 2

    _parity(got, _oracle(tmp_path, JS_TOKEN_DRIFT_SQL, ("documents",)))


def test_js_identical_halves_is_zero(ray_session, tmp_path):
    texts = ["x y z", "x y z"] * 4
    _write_docs(tmp_path, texts)
    got = _unwrap(q_js_token_drift(str(tmp_path)))
    assert int(got["js_unats"].iloc[0]) == 0
    _parity(got, _oracle(tmp_path, JS_TOKEN_DRIFT_SQL, ("documents",)))


def test_js_disjoint_halves_near_ln2(ray_session, tmp_path):
    # Disjoint vocabularies: JS = ln 2 = 693147 micro-nats (quantization
    # keeps it within a few units).
    texts = ["aa bb cc", "xx yy zz"] * 6
    _write_docs(tmp_path, texts)
    got = _unwrap(q_js_token_drift(str(tmp_path)))
    assert abs(int(got["js_unats"].iloc[0]) - 693147) <= 5
    _parity(got, _oracle(tmp_path, JS_TOKEN_DRIFT_SQL, ("documents",)))


# --------------------------------------------------- coverage_maxcover


def test_maxcover_greedy_brute_force_and_parity(ray_session, tmp_path):
    # Doc sets engineered so greedy picks a known order with a real
    # tie-break and a zero-gain stop: doc with the biggest set first,
    # then max marginal gain.
    texts = [
        "a b c d e",      # 0: 5 tokens
        "a b",            # 1: subset of 0 -> zero gain once 0 picked
        "f g h",          # 2: 3 new
        "c d f",          # 3: partially covered
        "i",              # 4: 1 new
        "a b c",          # 5: subset
    ]
    _write_docs(tmp_path, texts)
    got = _unwrap(q_coverage_maxcover(str(tmp_path))).sort_values(
        "rank"
    ).reset_index(drop=True)

    # brute-force greedy over the SAME md5-ranked candidate pool
    import hashlib

    order = sorted(
        range(len(texts)),
        key=lambda i: (hashlib.md5(f"mc:42:{i}".encode()).hexdigest(), i),
    )[:MC_N]
    sets = {i: set(_WS.findall(texts[i].lower())) for i in order}
    covered, expect = set(), []
    for rank in range(1, MC_R + 1):
        best, gain = None, -1
        for did in sorted(sets):
            g = len(sets[did] - covered)
            if g > gain:
                best, gain = did, g
        if gain <= 0 or best is None:
            break
        covered |= sets.pop(best)
        expect.append((rank, best, gain, len(covered)))
    assert [tuple(r) for r in got.to_numpy()] == expect
    # every token is coverable: the greedy must cover all 9
    assert expect[-1][3] == 9

    _parity(got, _oracle(tmp_path, _maxcover_sql(), ("documents",)))


def test_maxcover_stops_on_zero_gain(ray_session, tmp_path):
    texts = ["a b", "a b", "a", "b"]  # one pick covers everything
    _write_docs(tmp_path, texts)
    got = _unwrap(q_coverage_maxcover(str(tmp_path)))
    assert len(got) == 1
    assert int(got["covered_cum"].iloc[0]) == 2
    _parity(got, _oracle(tmp_path, _maxcover_sql(), ("documents",)))
