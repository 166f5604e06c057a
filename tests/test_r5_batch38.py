"""Tests for the round-5 batch-38 posting-list operators
(postings_ops): roaring_size, champion_lists, kn_discounts — DuckDB
parity plus independent brute force. The Roaring test plants a dense
consecutive run (run container wins), a sparse scatter (array wins)
and a dense-but-gappy chunk (bitmap wins); the champion test pins the
tf-desc/doc-asc tie rule; the KN test pins count-of-counts on a
corpus with known singleton/doubleton structure.
"""

from __future__ import annotations

import re
from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.postings_ops import (
    CHAMP_C,
    CHAMPION_LISTS_SQL,
    KN_DISCOUNTS_SQL,
    ROAR_BITMAP_BYTES,
    ROAR_CHUNK,
    ROARING_SIZE_SQL,
    q_champion_lists,
    q_kn_discounts,
    q_roaring_size,
)

TOK = re.compile(r"[^ \t\n\r\f]+")


def _write(d, texts, langs=None, n=None):
    n = n or len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs or ["en"] * n, pa.string()),
                "source": pa.array(["s"] * n, pa.string()),
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


def test_roaring_container_choice_and_parity(ray_session, tmp_path):
    n = 200
    texts = []
    for i in range(n):
        words = ["base"]
        if i < 60:
            words.append("dense")  # docs 0..59: one 60-long run
        if i % 37 == 0:
            words.append("sparse")  # 6 scattered docs
        if i % 2 == 0:
            words.append("evens")  # 100 gappy docs: 100 runs
        texts.append(" ".join(words))
    _write(tmp_path, texts)
    got = _unwrap(q_roaring_size(str(tmp_path)))
    rows = {r["token"]: r for _, r in got.iterrows()}
    # dense: 1 run of 60 -> run container 2+4=6 < array 120 < bitmap
    assert int(rows["dense"]["bytes_best"]) == 6
    # sparse: 6 postings -> array 12 < run 2+4*6=26
    assert int(rows["sparse"]["bytes_best"]) == 12
    # evens: 100 postings, 100 runs -> bitmap 128 < array 200 < run 402
    assert int(rows["evens"]["bytes_best"]) == ROAR_BITMAP_BYTES
    # base: full run of 200 -> run 6
    assert int(rows["base"]["n_postings"]) == n
    assert int(rows["base"]["bytes_best"]) == 6
    assert all(
        int(r["n_containers"]) == 1 for r in rows.values()
    )  # 200 < ROAR_CHUNK
    _parity(got, _oracle(tmp_path, ROARING_SIZE_SQL))


def test_roaring_chunk_split(ray_session, tmp_path):
    n = ROAR_CHUNK + 50
    texts = ["x split" if i in (0, ROAR_CHUNK + 1) else "x" for i in range(n)]
    _write(tmp_path, texts)
    got = _unwrap(q_roaring_size(str(tmp_path)))
    r = got[got["token"] == "split"].iloc[0]
    assert int(r["n_containers"]) == 2  # postings straddle the chunk line
    _parity(got, _oracle(tmp_path, ROARING_SIZE_SQL))


def test_champion_tie_rule_and_parity(ray_session, tmp_path):
    # 6 docs contain 'q' with tfs 3,3,2,2,1,1 -> champions are the
    # first CHAMP_C by (tf desc, doc asc): docs 0,1,2,3 -> champ_tf 10
    tfs = [3, 3, 2, 2, 1, 1]
    texts = [" ".join(["q"] * k + ["pad"]) for k in tfs] + ["pad pad"]
    _write(tmp_path, texts)
    got = _unwrap(q_champion_lists(str(tmp_path)))
    r = got[got["token"] == "q"].iloc[0]
    assert int(r["df"]) == 6
    assert int(r["champ_tf"]) == sum(sorted(tfs, reverse=True)[:CHAMP_C])
    assert int(r["total_tf"]) == sum(tfs)
    assert int(r["coverage_x100"]) == 100 * 10 // 12
    _parity(got, _oracle(tmp_path, CHAMPION_LISTS_SQL))


def test_kn_discounts_brute_force_and_parity(ray_session, tmp_path):
    texts = [
        "a b c a",  # unigrams: a:2 b:1 c:1; bigrams: ab bc ca
        "a b d",  # a:1 b:1 d:1; ab bd
        "e e",  # e:2; ee
    ]
    langs = ["l0", "l0", "l1"]
    _write(tmp_path, texts, langs=langs)
    got = _unwrap(q_kn_discounts(str(tmp_path)))
    # brute force
    for lg in ("l0", "l1"):
        uni, bi = Counter(), Counter()
        for t, l in zip(texts, langs):
            if l != lg:
                continue
            ws = TOK.findall(t.lower())
            uni.update(ws)
            bi.update(
                ws[i] + " " + ws[i + 1] for i in range(len(ws) - 1)
            )
        for order, cnt in ((1, uni), (2, bi)):
            n1 = sum(1 for c in cnt.values() if c == 1)
            n2 = sum(1 for c in cnt.values() if c == 2)
            row = got[(got["lang"] == lg) & (got["ngram_order"] == order)]
            assert len(row) == 1
            assert int(row["n1"].iloc[0]) == n1
            assert int(row["n2"].iloc[0]) == n2
            exp = 10**6 * n1 // (n1 + 2 * n2) if n1 + 2 * n2 else 0
            assert int(row["d_x1e6"].iloc[0]) == exp
    _parity(got, _oracle(tmp_path, KN_DISCOUNTS_SQL))


def test_empty_corpus_all_three(ray_session, tmp_path):
    _write(tmp_path, [], n=0)
    for fn in (q_roaring_size, q_champion_lists, q_kn_discounts):
        got = _unwrap(fn(str(tmp_path)))
        assert len(got) == 0 and len(got.columns) >= 5
