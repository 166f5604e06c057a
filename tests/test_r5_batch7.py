"""Tests for the round-5 batch-7 operators: spearman_drift, kendall_tau,
hill_tail (webtext_ops) — DuckDB-oracle parity plus brute-force
checks: naive dict-counted Spearman, itertools pair-counted Kendall
and direct-math.log Hill."""

from __future__ import annotations

import itertools
import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.webtext_ops import (
    HILL_K,
    HILL_TAIL_SQL,
    KENDALL_N,
    KENDALL_TAU_SQL,
    SPEARMAN_DRIFT_SQL,
    SPEARMAN_TOP_K,
    q_hill_tail,
    q_kendall_tau,
    q_spearman_drift,
)

import re  # noqa: E402

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


def _oracle(d, sql, tables=("documents",)):
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


# ------------------------------------------------------ spearman_drift


def test_spearman_brute_force_and_parity(ray_session, tmp_path):
    # Even doc_ids say "alpha" a lot, odd doc_ids say "beta" a lot; the
    # rank swap between halves is fully predictable by hand.
    rows = [
        ("alpha alpha alpha beta gamma", "en"),   # doc 0 (half A)
        ("beta beta beta alpha delta", "en"),     # doc 1 (half B)
        ("alpha alpha gamma gamma", "en"),        # doc 2 (half A)
        ("beta delta delta", "en"),               # doc 3 (half B)
    ]
    _write_docs(tmp_path, rows)
    got = q_spearman_drift(str(tmp_path))
    got = got.to_pandas() if hasattr(got, "to_pandas") else got

    # brute force with dicts
    na, nb = {}, {}
    for i, (text, _l) in enumerate(rows):
        tgt = na if i % 2 == 0 else nb
        for t in _WS.findall(text.lower()):
            tgt[t] = tgt.get(t, 0) + 1
    toks = sorted(
        set(na) | set(nb),
        key=lambda t: (-(na.get(t, 0) + nb.get(t, 0)), t),
    )[:SPEARMAN_TOP_K]
    ra = {
        t: r + 1
        for r, t in enumerate(sorted(toks, key=lambda t: (-na.get(t, 0), t)))
    }
    rb = {
        t: r + 1
        for r, t in enumerate(sorted(toks, key=lambda t: (-nb.get(t, 0), t)))
    }
    d2 = sum((ra[t] - rb[t]) ** 2 for t in toks)
    n = len(toks)
    rho = 1.0 - 6.0 * float(d2) / (float(n) * (float(n) * float(n) - 1.0))
    assert int(got["n_tokens"].iloc[0]) == n
    assert int(got["sum_d2"].iloc[0]) == d2
    assert got["spearman_rho"].iloc[0] == rho

    _parity(got, _oracle(tmp_path, SPEARMAN_DRIFT_SQL))


def test_spearman_identical_halves_is_one(ray_session, tmp_path):
    rows = [("x y z w", "en"), ("x y z w", "en")] * 3
    _write_docs(tmp_path, rows)
    got = q_spearman_drift(str(tmp_path))
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert int(got["sum_d2"].iloc[0]) == 0
    assert float(got["spearman_rho"].iloc[0]) == 1.0
    _parity(got, _oracle(tmp_path, SPEARMAN_DRIFT_SQL))


# --------------------------------------------------------- kendall_tau


def test_kendall_brute_force_and_parity(ray_session, tmp_path):
    # n_chars orders docs one way; token counts another (spaces vs
    # single-char tokens), so tau is strictly between -1 and 1.
    rows = [
        ("a b c d e", "en"),          # 9 chars, 5 tokens
        ("abcdefgh", "en"),           # 8 chars, 1 token
        ("ab cd", "en"),              # 5 chars, 2 tokens
        ("a b c", "en"),              # 5 chars, 3 tokens (tie on chars)
        ("zz", "de"),                 # second lang, single doc: dropped
        ("a a", "de"),
        ("bbb", "de"),
    ]
    _write_docs(tmp_path, rows)
    got = q_kendall_tau(str(tmp_path))
    got = got.to_pandas() if hasattr(got, "to_pandas") else got

    feats = [
        (i, r[1], len(r[0]), len(_WS.findall(r[0].lower())))
        for i, r in enumerate(rows)
    ]
    for lang in ("en", "de"):
        panel = [f for f in feats if f[1] == lang][:KENDALL_N]
        conc = disc = 0
        for (ia, _la, ca, ta), (ib, _lb, cb, tb) in itertools.combinations(
            panel, 2
        ):
            d1 = (ca > cb) or (ca == cb and ia < ib)
            d2 = (ta > tb) or (ta == tb and ia < ib)
            conc += d1 == d2
            disc += d1 != d2
        n = len(panel)
        row = got[got["lang"] == lang]
        assert int(row["concordant"].iloc[0]) == conc
        assert int(row["discordant"].iloc[0]) == disc
        tau = float(conc - disc) / (float(n * (n - 1)) / 2.0)
        assert row["kendall_tau"].iloc[0] == tau

    _parity(got, _oracle(tmp_path, KENDALL_TAU_SQL))


# ----------------------------------------------------------- hill_tail


def test_hill_brute_force_and_parity(ray_session, tmp_path):
    # Pareto-ish lengths in one lang; a 1-doc lang must be dropped.
    lens = [1000, 640, 410, 263, 168, 108, 69, 44, 28, 18]
    rows = [("x" * n, "en") for n in lens] + [("yy", "solo")]
    _write_docs(tmp_path, rows)
    got = q_hill_tail(str(tmp_path))
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert set(got["lang"]) == {"en"}

    x = sorted(lens, reverse=True)
    k = min(HILL_K, len(x) - 1)
    q = [int(math.floor(1e6 * math.log(v))) for v in x[: k + 1]]
    hill_q = sum(q[:k]) - k * q[k]
    alpha = float(k) * 1000000.0 / float(hill_q)
    row = got.iloc[0]
    assert int(row["k_used"]) == k
    assert int(row["hill_q"]) == hill_q
    assert row["alpha_hill"] == alpha

    _parity(got, _oracle(tmp_path, HILL_TAIL_SQL))


def test_hill_prune_keeps_topk_plus_one(ray_session, tmp_path):
    # More docs than HILL_K+1: the associative prune must still pick the
    # global top-(K+1) lengths, so parity with the window-ranked oracle
    # is the discriminating assertion.
    rows = [("x" * (7 + 13 * i % 991), "en") for i in range(HILL_K * 3)]
    _write_docs(tmp_path, rows)
    got = q_hill_tail(str(tmp_path))
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert int(got["k_used"].iloc[0]) == HILL_K
    _parity(got, _oracle(tmp_path, HILL_TAIL_SQL))


