"""Tests for the round-5 batch-37 lexical-statistics operators
(lexstat_ops): yule_k, gries_dp, mcnemar_filters — DuckDB parity plus
independent brute force. The Yule test pins the closed form against a
count-of-counts computation; the DP test plants a token confined to
one source (DP near its theoretical max) and a perfectly-dispersed
token (DP 0 when shares match part sizes exactly); the McNemar test
plants asymmetric filter disagreement.
"""

from __future__ import annotations

import re
from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.lexstat_ops import (
    DP_TOPK,
    GRIES_DP_SQL,
    MC_LEN,
    MC_TYPES,
    MCNEMAR_FILTERS_SQL,
    YULE_K_SQL,
    q_gries_dp,
    q_mcnemar_filters,
    q_yule_k,
)

TOK = re.compile(r"[^ \t\n\r\f]+")


def _corpus():
    """3 sources of sizes 20/20/40 docs; 'confined' lives only in s0,
    'spread' appears once per doc everywhere (shares == part sizes)."""
    texts, langs, sources = [], [], []
    for i in range(80):
        s = "s0" if i < 20 else ("s1" if i < 40 else "s2")
        words = ["spread", "the", "and", f"w{i % 9}", f"w{i % 9}"]
        # equal doc lengths across parts -> 'spread' shares track part
        # sizes exactly (DP == 0)
        words += ["confined"] * 3 if s == "s0" else ["pad"] * 3
        texts.append(" ".join(words))
        langs.append(f"l{i % 2}")
        sources.append(s)
    return texts, langs, sources


def _write(d, texts=None, langs=None, sources=None, n_chars=None):
    if texts is None:
        texts, langs, sources = _corpus()
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs or ["en"] * n, pa.string()),
                "source": pa.array(sources or ["s"] * n, pa.string()),
                "n_chars": pa.array(
                    n_chars or [len(t) for t in texts], pa.int64()
                ),
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


def test_yule_k_brute_force_and_parity(ray_session, tmp_path):
    _write(tmp_path)
    texts, langs, _ = _corpus()
    got = _unwrap(q_yule_k(str(tmp_path)))
    for lg in sorted(set(langs)):
        cnt = Counter()
        for t, l in zip(texts, langs):
            if l == lg:
                cnt.update(TOK.findall(t.lower()))
        n = sum(cnt.values())
        s2 = sum(c * c for c in cnt.values())
        row = got[got["lang"] == lg].iloc[0]
        assert int(row["n_tokens"]) == n
        assert int(row["n_types"]) == len(cnt)
        assert int(row["k_x100"]) == 10**6 * (s2 - n) // (n * n)
    _parity(got, _oracle(tmp_path, YULE_K_SQL))


def test_gries_dp_planted_extremes_and_parity(ray_session, tmp_path):
    _write(tmp_path)
    texts, _, sources = _corpus()
    got = _unwrap(q_gries_dp(str(tmp_path)))
    assert len(got) <= DP_TOPK
    # brute force for the returned tokens
    part_n = Counter()
    tok_part = Counter()
    for t, s in zip(texts, sources):
        ws = TOK.findall(t.lower())
        part_n[s] += len(ws)
        for w in ws:
            tok_part[(w, s)] += 1
    n_total = sum(part_n.values())
    for _, r in got.iterrows():
        w = r["token"]
        c_tot = sum(c for (tw, _), c in tok_part.items() if tw == w)
        acc = 0
        for s, n_i in part_n.items():
            ci = tok_part.get((w, s), 0)
            acc += abs(ci * n_total - n_i * c_tot)
        assert int(r["total"]) == c_tot
        assert int(r["dp_x1e6"]) == 10**6 * acc // (2 * c_tot * n_total)
    # planted extremes: 'spread' shares == part sizes -> DP == 0;
    # 'confined' max-clumped in the smallest part -> DP ≈ 1 − s_0
    spread = got[got["token"] == "spread"]["dp_x1e6"]
    assert len(spread) and int(spread.iloc[0]) == 0
    confined = got[got["token"] == "confined"]["dp_x1e6"]
    if len(confined):  # in top-K only if frequent enough
        s0_share = part_n["s0"] / n_total
        assert abs(int(confined.iloc[0]) / 1e6 - (1 - s0_share)) < 1e-5
    _parity(got, _oracle(tmp_path, GRIES_DP_SQL))


def test_mcnemar_asymmetry_and_parity(ray_session, tmp_path):
    # 30 docs: A-pass/B-fail planted 6 times, B-pass/A-fail 2 times
    texts, n_chars = [], []
    for i in range(30):
        if i < 6:  # long but few types: A=1, B=0
            texts.append(" ".join(["x"] * 50))
            n_chars.append(MC_LEN + 10)
        elif i < 8:  # short but many types: A=0, B=1
            texts.append(" ".join(f"t{j}" for j in range(MC_TYPES + 2)))
            n_chars.append(MC_LEN - 10)
        elif i < 20:  # both pass
            texts.append(" ".join(f"u{j}" for j in range(MC_TYPES + 5)))
            n_chars.append(MC_LEN + 100)
        else:  # both fail
            texts.append("tiny doc")
            n_chars.append(5)
    _write(
        tmp_path,
        texts=texts,
        langs=["en"] * 30,
        sources=["s"] * 30,
        n_chars=n_chars,
    )
    got = _unwrap(q_mcnemar_filters(str(tmp_path)))
    r = got.iloc[0]
    assert (int(r["n10"]), int(r["n01"])) == (6, 2)
    assert int(r["n11"]) == 12 and int(r["n00"]) == 10
    assert int(r["mcnemar_x1e6"]) == 10**6 * (2 - 6) ** 2 // 8
    _parity(got, _oracle(tmp_path, MCNEMAR_FILTERS_SQL))


def test_empty_corpus_all_three(ray_session, tmp_path):
    _write(tmp_path, texts=[], langs=[], sources=[], n_chars=[])
    for fn in (q_yule_k, q_gries_dp, q_mcnemar_filters):
        got = _unwrap(fn(str(tmp_path)))
        assert len(got) == 0 and len(got.columns) >= 3
