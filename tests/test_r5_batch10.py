"""Tests for the round-5 batch-10 operators: rbo_overlap,
good_turing_mass, token_length_hist (webtext_ops) — DuckDB-oracle
parity plus brute-force checks: a reference RBO computed with
fractions.Fraction (the exact rational the integer device must floor),
hand-counted singleton masses, and a dict-counted length histogram."""

from __future__ import annotations

import re
from fractions import Fraction

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.webtext_ops import (
    GOOD_TURING_MASS_SQL,
    RBO_DEPTH,
    SPEARMAN_TOP_K,
    TLH_CAP,
    TOKEN_LENGTH_HIST_SQL,
    _rbo_sql,
    q_good_turing_mass,
    q_rbo_overlap,
    q_token_length_hist,
)

_WS = re.compile(r"[^ \t\n\r\f]+")


def _write_docs(d, rows):
    """rows: list of (text, lang)."""
    texts = [r[0] for r in rows]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(rows)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array([r[1] for r in rows], pa.string()),
                "source": pa.array(["s"] * len(rows), pa.string()),
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


# ---------------------------------------------------------- rbo_overlap


def _brute_rbo(texts):
    na, nb = {}, {}
    for i, t in enumerate(texts):
        tgt = na if i % 2 == 0 else nb
        for tok in _WS.findall(t.lower()):
            tgt[tok] = tgt.get(tok, 0) + 1
    pool = sorted(
        set(na) | set(nb),
        key=lambda t: (-(na.get(t, 0) + nb.get(t, 0)), t),
    )[:SPEARMAN_TOP_K]
    ra = sorted(pool, key=lambda t: (-na.get(t, 0), t))
    rb = sorted(pool, key=lambda t: (-nb.get(t, 0), t))
    depth = min(RBO_DEPTH, len(pool))
    total = 0
    for d in range(1, depth + 1):
        a_d = len(set(ra[:d]) & set(rb[:d]))
        total += 1_000_000 * 9 ** (d - 1) * a_d // (10 ** (d - 1) * d)
    return depth, total // 10, ra, rb


def test_rbo_brute_force_and_parity(ray_session, tmp_path):
    rows = [
        ("alpha alpha alpha beta gamma", "en"),
        ("beta beta beta alpha delta", "en"),
        ("alpha gamma gamma epsilon", "en"),
        ("delta delta zeta", "en"),
    ]
    _write_docs(tmp_path, rows)
    got = _unwrap(q_rbo_overlap(str(tmp_path)))
    depth, rbo_ppm, _ra, _rb = _brute_rbo([r[0] for r in rows])
    assert int(got["depth"].iloc[0]) == depth
    assert int(got["rbo_ppm"].iloc[0]) == rbo_ppm
    # cross-check against the exact Fraction form of the same truncated
    # series: integer flooring loses < depth ppm
    frac = sum(
        Fraction(9, 10) ** (d - 1)
        * Fraction(
            len(set(_ra[:d]) & set(_rb[:d])), d
        )
        for d in range(1, depth + 1)
    ) * Fraction(1, 10)
    assert 0 <= float(frac) * 1e6 - rbo_ppm < depth + 1
    _parity(got, _oracle(tmp_path, _rbo_sql()))


def test_rbo_identical_lists_near_truncated_max(ray_session, tmp_path):
    rows = [("a a a b b c", "en"), ("a a a b b c", "en")] * 2
    _write_docs(tmp_path, rows)
    got = _unwrap(q_rbo_overlap(str(tmp_path)))
    depth = int(got["depth"].iloc[0])
    # identical rankings: every A_d = d, so rbo = (1-p) * sum p^(d-1)
    # = 1 - p^depth (truncated); in ppm with per-term flooring.
    expect = sum(
        1_000_000 * 9 ** (d - 1) * d // (10 ** (d - 1) * d)
        for d in range(1, depth + 1)
    ) // 10
    assert int(got["rbo_ppm"].iloc[0]) == expect
    _parity(got, _oracle(tmp_path, _rbo_sql()))


# ----------------------------------------------------- good_turing_mass


def test_good_turing_hand_counts_and_parity(ray_session, tmp_path):
    rows = [
        ("a a a b c", "en"),   # en: a=3, b=1, c=1  -> n1=2, n2=0, N=5
        ("d d e", "en"),       # en: d=2, e=1      -> n1=3, n2=1, N=8
        ("x y", "de"),         # de: all singletons -> n1=2, N=2
    ]
    _write_docs(tmp_path, rows)
    got = _unwrap(q_good_turing_mass(str(tmp_path))).set_index("lang")
    assert int(got.loc["en", "n1"]) == 3
    assert int(got.loc["en", "n2"]) == 1
    assert int(got.loc["en", "total"]) == 8
    assert int(got.loc["en", "n_types"]) == 5
    assert int(got.loc["en", "unseen_ppm"]) == 3 * 1_000_000 // 8
    assert int(got.loc["de", "unseen_ppm"]) == 1_000_000
    _parity(got.reset_index(), _oracle(tmp_path, GOOD_TURING_MASS_SQL))


# ---------------------------------------------------- token_length_hist


def test_token_length_hist_counts_and_parity(ray_session, tmp_path):
    long_tok = "z" * 30  # capped into the TLH_CAP bucket
    rows = [
        (f"a bb ccc bb {long_tok}", "en"),
        ("dddd a", "en"),
    ]
    _write_docs(tmp_path, rows)
    got = _unwrap(q_token_length_hist(str(tmp_path))).set_index("tok_len")
    assert int(got.loc[1, "n_tokens"]) == 2        # a, a
    assert int(got.loc[2, "n_tokens"]) == 2        # bb, bb
    assert int(got.loc[3, "n_tokens"]) == 1        # ccc
    assert int(got.loc[4, "n_tokens"]) == 1        # dddd
    assert int(got.loc[TLH_CAP, "n_tokens"]) == 1  # capped 30-char token
    total = int(got["n_tokens"].sum())
    assert int(got.loc[1, "share_ppm"]) == 2 * 1_000_000 // total
    _parity(
        got.reset_index(), _oracle(tmp_path, TOKEN_LENGTH_HIST_SQL)
    )
