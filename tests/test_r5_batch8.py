"""Tests for the round-5 batch-8 operators: acf_daily,
sigma_outlier_days, seasonality_index (timeseries_ops) and
chi2_token_drift, composition_entropy (webtext_ops) — DuckDB-oracle
parity plus brute-force checks: direct O(n·k) ACF sums, the float
3-sigma rule against the cross-multiplied integer rule, hand-counted
weekday shares, a scipy-free 2×K chi-square, and a direct-math.log
entropy."""

from __future__ import annotations

import math
import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.timeseries_ops import (
    ACF_DAILY_SQL,
    ACF_MAX_LAG,
    SEASONALITY_INDEX_SQL,
    SIGMA_OUTLIER_DAYS_SQL,
    q_acf_daily,
    q_seasonality_index,
    q_sigma_outlier_days,
)
from europarl_crawler_ray.pipelines.webtext_ops import (
    CHI2_TOKEN_DRIFT_SQL,
    COMPOSITION_ENTROPY_SQL,
    SPEARMAN_TOP_K,
    q_chi2_token_drift,
    q_composition_entropy,
)

_WS = re.compile(r"[^ \t\n\r\f]+")


def _write_event_days(d, day_counts: dict[int, int]):
    rows = []
    for day, n in day_counts.items():
        for i in range(n):
            rows.append(day * 86_400_000_000 + i)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array(rows, pa.timestamp("us")),
                "user_id": pa.array([1] * len(rows), pa.int64()),
                "event_type": pa.array(["view"] * len(rows), pa.string()),
                "value": pa.array([0.0] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        str(d / "events.parquet"),
    )


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


# ------------------------------------------------------------ acf_daily


def test_acf_brute_force_and_parity(ray_session, tmp_path):
    # Period-2 series: strong negative lag-1, strong positive lag-2.
    counts = [10, 30, 12, 28, 11, 31, 9, 29]
    day_counts = {300 + i: c for i, c in enumerate(counts)}
    _write_event_days(tmp_path, day_counts)
    got = _unwrap(q_acf_daily(str(tmp_path))).sort_values("lag").reset_index(
        drop=True
    )

    n, t = len(counts), sum(counts)
    a = [n * v - t for v in counts]
    den = sum(v * v for v in a)
    for k in range(1, min(ACF_MAX_LAG, n - 1) + 1):
        num = sum(a[i] * a[i + k] for i in range(n - k))
        expect = float(num) / float(den)
        assert got.loc[got["lag"] == k, "acf"].iloc[0] == expect
    assert got.loc[got["lag"] == 1, "acf"].iloc[0] < 0
    assert got.loc[got["lag"] == 2, "acf"].iloc[0] > 0

    _parity(got, _oracle(tmp_path, ACF_DAILY_SQL, ("events",)))


def test_acf_constant_series_is_zero(ray_session, tmp_path):
    _write_event_days(tmp_path, {10 + i: 7 for i in range(5)})
    got = _unwrap(q_acf_daily(str(tmp_path)))
    assert (got["acf"] == 0.0).all()
    assert set(got["lag"]) == set(range(1, 5))  # lags >= n dropped
    _parity(got, _oracle(tmp_path, ACF_DAILY_SQL, ("events",)))


# --------------------------------------------------- sigma_outlier_days


def test_sigma_outliers_match_float_rule_and_parity(ray_session, tmp_path):
    # 30 quiet days +-2 around 20, one 40-event spike: with the long
    # baseline the spike's own contribution no longer masks it.
    counts = [20 + (i % 5) - 2 for i in range(30)]
    counts.insert(15, 40)
    day_counts = {50 + i: c for i, c in enumerate(counts)}
    _write_event_days(tmp_path, day_counts)
    got = _unwrap(q_sigma_outlier_days(str(tmp_path))).sort_values(
        "day"
    ).reset_index(drop=True)

    mean = sum(counts) / len(counts)
    var = sum((v - mean) ** 2 for v in counts) / len(counts)
    expect = [1 if (v - mean) ** 2 > 9 * var else 0 for v in counts]
    assert list(got["is_outlier"]) == expect
    assert expect[15] == 1 and sum(expect) == 1

    _parity(got, _oracle(tmp_path, SIGMA_OUTLIER_DAYS_SQL, ("events",)))


# ---------------------------------------------------- seasonality_index


def test_seasonality_hand_counts_and_parity(ray_session, tmp_path):
    # Two full weeks: dow d gets 10+d events each week.
    day_counts = {d: 10 + d % 7 for d in range(700, 714)}
    _write_event_days(tmp_path, day_counts)
    got = _unwrap(q_seasonality_index(str(tmp_path))).sort_values(
        "dow"
    ).reset_index(drop=True)
    total = sum(day_counts.values())
    for dow in range(7):
        n = 2 * (10 + dow)
        row = got[got["dow"] == dow]
        assert int(row["n_events"].iloc[0]) == n
        assert int(row["share_bp"].iloc[0]) == n * 10000 // total
    _parity(got, _oracle(tmp_path, SEASONALITY_INDEX_SQL, ("events",)))


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
