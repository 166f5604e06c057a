"""Tests for the round-5 batch-32 tokenizer-learning operator
(bpetrain_ops.q_bpe_learn): a list-walk greedy BPE brute force
(the textbook Sennrich algorithm) must agree with the distributed
two-pass-replace implementation AND the DuckDB oracle — including
the self-pair run case ('aaaa' → 'aa aa') and abutting-occurrence
words where the first replace pass is blocked by a consumed space.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.bpetrain_ops import (
    _apply_merge,
    _bpe_sql,
    q_bpe_learn,
)


def _greedy_merge(ws: list, pa_: str, pb_: str) -> list:
    """Textbook greedy disjoint left-to-right merge on a symbol list."""
    out, i = [], 0
    while i < len(ws):
        if i + 1 < len(ws) and ws[i] == pa_ and ws[i + 1] == pb_:
            out.append(pa_ + pb_)
            i += 2
        else:
            out.append(ws[i])
            i += 1
    return out


def _brute_bpe(texts, k):
    vocab: dict[tuple, int] = {}
    for t in texts:
        for w in t.lower().split():
            key = tuple(w)
            vocab[key] = vocab.get(key, 0) + 1
    rows = []
    for r in range(1, k + 1):
        pairs: dict[tuple, int] = {}
        for ws, f in vocab.items():
            for a, b in zip(ws, ws[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + f
        if not pairs:
            break
        (pa_, pb_), n = min(
            pairs.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        vocab = {
            tuple(_greedy_merge(list(ws), pa_, pb_)): f
            for ws, f in vocab.items()
        }
        n_sym = sum(len(ws) * f for ws, f in vocab.items())
        rows.append((r, pa_, pb_, n, n_sym))
    return rows


def test_two_pass_replace_equals_greedy_list_walk():
    cases = [
        ("a a a a", "a", "a"),          # self-pair run -> 'aa aa'
        ("a b a b a b", "a", "b"),      # abutting occurrences chain
        ("x a b a b y", "a", "b"),
        ("ab b b", "ab", "b"),          # merged-token left side
        ("q", "a", "b"),                # single symbol, no-op
        ("b a b a b", "b", "a"),
    ]
    for s, pa_, pb_ in cases:
        got = _apply_merge(s, pa_, pb_)
        exp = " ".join(_greedy_merge(s.split(" "), pa_, pb_))
        assert got == exp, (s, pa_, pb_, got, exp)


TEXTS = [
    "lower lowest newer newest wider widest",
    "lower lower newer newer newer low new wide",
    "aaaa aab abab banana bandana",
    "lowest newest widest lowly newly",
    "zz zz zz zzz zzzz",
]


def _write_tables(d):
    n = len(TEXTS)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(TEXTS, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(["s0"] * n, pa.string()),
                "n_chars": pa.array([len(t) for t in TEXTS], pa.int64()),
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


def test_bpe_learn_brute_force_and_parity(ray_session, tmp_path):
    _write_tables(tmp_path)
    k = 8
    got = q_bpe_learn(str(tmp_path), n_merges=k)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got

    exp = _brute_bpe(TEXTS, k)
    assert [
        (int(r["round"]), r["pa"], r["pb"], int(r["n"]), int(r["corpus_symbols"]))
        for _, r in got.iterrows()
    ] == exp
    # merges actually compress: symbol count strictly decreases
    syms = [e[4] for e in exp]
    assert all(a > b for a, b in zip(syms, syms[1:])) or len(syms) <= 1
    # the planted 'zz...' docs force an early self-pair ('z','z') merge
    assert ("z", "z") in {(e[1], e[2]) for e in exp}

    sql_df = _oracle(tmp_path, _bpe_sql(k))
    pd.testing.assert_frame_equal(
        _canon(got), _canon(sql_df), check_dtype=False
    )


def test_bpe_learn_single_char_vocab_stops_early(ray_session, tmp_path):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "text": pa.array(["a b c a b"], pa.string()),
                "lang": pa.array(["en"], pa.string()),
                "source": pa.array(["s0"], pa.string()),
                "n_chars": pa.array([9], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = q_bpe_learn(str(tmp_path), n_merges=5)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    # every word is a single symbol -> zero pairs -> zero merges
    assert len(got) == 0
    sql_df = _oracle(tmp_path, _bpe_sql(5))
    assert len(sql_df) == 0
