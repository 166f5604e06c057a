"""Tests for the round-5 batch-34 set-similarity operators
(setsim_ops): allpairs_jaccard, freq_itemsets, cdc_token_chunks — DuckDB
parity plus independent brute force. The AllPairs test plants
near-duplicate doc pairs (shared shingle runs) that must surface with
exactly the right intersection/union counts; the Apriori test pins the
L1 head selection and the minsup floor; the CDC test verifies the
boundary-stability property (an insertion far from a chunk only moves
boundaries locally).
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from itertools import combinations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.setsim_ops import (
    ALLPAIRS_JACCARD_SQL,
    CDC_CHUNKS_SQL,
    CDC_D,
    CDC_SALT,
    DF_CAP,
    DF_MIN,
    FREQ_ITEMSETS_SQL,
    JACC_DEN,
    JACC_NUM,
    L1_K,
    MINSUP_DIV,
    SH_N,
    q_allpairs_jaccard,
    q_cdc_chunks,
    q_freq_itemsets,
)

TOK = re.compile(r"[^ \t\n\r\f]+")


def _texts():
    """60 docs: 0..39 distinct-ish, 40..49 near-dups of 0..9 (one word
    changed), 50..59 chatter sharing a tiny common vocabulary."""
    out = []
    for i in range(40):
        words = [f"w{i}x{j}" for j in range(12)] + ["the", "and"]
        out.append(" ".join(words))
    for i in range(10):
        words = [f"w{i}x{j}" for j in range(12)] + ["the", "zzz"]
        out.append(" ".join(words))
    for i in range(10):
        out.append(" ".join(["the", "and", "of", f"t{i % 3}"] * 3))
    return out


def _write(d, texts=None):
    texts = texts if texts is not None else _texts()
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
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


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _shingles(text):
    ws = TOK.findall(text.lower())
    return {
        " ".join(ws[i : i + SH_N]) for i in range(len(ws) - SH_N + 1)
    }


def _brute_allpairs(texts):
    sets = {i: _shingles(t) for i, t in enumerate(texts)}
    df = Counter(s for v in sets.values() for s in v)
    rare = {i: {s for s in v if DF_MIN <= df[s] <= DF_CAP} for i, v in sets.items()}
    inv = {}
    for i, v in rare.items():
        for s in v:
            inv.setdefault(s, []).append(i)
    pairs = Counter()
    for s, docs in inv.items():
        for a, b in combinations(sorted(docs), 2):
            pairs[(a, b)] += 1
    rows = []
    for (a, b), inter in sorted(pairs.items()):
        uni = len(rare[a]) + len(rare[b]) - inter
        if inter * JACC_DEN >= uni * JACC_NUM:
            rows.append((a, b, inter, uni, 100 * inter // uni))
    return pd.DataFrame(
        rows, columns=["doc_a", "doc_b", "inter", "uni", "jacc_x100"]
    )


def test_allpairs_brute_force_and_parity(ray_session, tmp_path):
    _write(tmp_path)
    got = _unwrap(q_allpairs_jaccard(str(tmp_path)))
    exp = _brute_allpairs(_texts())
    # the 10 planted near-dup pairs (i, 40+i) must all surface
    assert len(exp) >= 10
    planted = {(i, 40 + i) for i in range(10)}
    assert planted <= set(zip(exp["doc_a"], exp["doc_b"]))
    _parity(got, exp)
    _parity(got, _oracle(tmp_path, ALLPAIRS_JACCARD_SQL))


def test_allpairs_empty_corpus(ray_session, tmp_path):
    _write(tmp_path, texts=[])
    got = _unwrap(q_allpairs_jaccard(str(tmp_path)))
    assert len(got) == 0
    assert sorted(got.columns) == sorted(
        ["doc_a", "doc_b", "inter", "uni", "jacc_x100"]
    )


def _brute_itemsets(texts):
    sets = [set(TOK.findall(t.lower())) for t in texts]
    df = Counter(t for s in sets for t in s)
    l1 = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:L1_K]
    l1_tokens = {t for t, _ in l1}
    minsup = max(2, len(texts) // MINSUP_DIV)
    pc = Counter()
    for s in sets:
        present = sorted(s & l1_tokens)
        for a, b in combinations(present, 2):
            pc[(a, b)] += 1
    rows = [
        (a, b, c) for (a, b), c in sorted(pc.items()) if c >= minsup
    ]
    return pd.DataFrame(rows, columns=["t1", "t2", "support"])


def test_freq_itemsets_brute_force_and_parity(ray_session, tmp_path):
    _write(tmp_path)
    got = _unwrap(q_freq_itemsets(str(tmp_path)))
    exp = _brute_itemsets(_texts())
    # ('and','the') co-occur in 40 shared-header docs + chatter docs
    assert (
        exp[(exp["t1"] == "and") & (exp["t2"] == "the")]["support"].iloc[0]
        >= 40
    )
    _parity(got, exp)
    _parity(got, _oracle(tmp_path, FREQ_ITEMSETS_SQL))


def _brute_cdc(texts):
    rows = []
    for i, t in enumerate(texts):
        ws = TOK.findall(t.lower())
        n = len(ws)
        if n == 0:
            rows.append((i, 0, 0, 0))
            continue
        cuts = [
            j + 1
            for j, w in enumerate(ws)
            if _md5_64(CDC_SALT + w) % CDC_D == 0
        ]
        if not cuts or cuts[-1] != n:
            cuts.append(n)
        lens = np.diff([0] + cuts)
        rows.append((i, n, len(cuts), int(lens.max())))
    return pd.DataFrame(
        rows, columns=["doc_id", "n_tokens", "n_chunks", "max_chunk"]
    )


def test_cdc_brute_force_and_parity(ray_session, tmp_path):
    texts = _texts() + ["", "   "]  # empty + whitespace-only docs
    _write(tmp_path, texts=texts)
    got = _unwrap(q_cdc_chunks(str(tmp_path)))
    exp = _brute_cdc(texts)
    assert (got["n_chunks"].to_numpy() >= 0).all()
    _parity(got, exp)
    _parity(got, _oracle(tmp_path, CDC_CHUNKS_SQL))


def test_cdc_boundary_stability(ray_session, tmp_path):
    """The CDC property: tokens BEFORE an existing cut keep their chunk
    boundaries when text after that cut changes — chunk cut positions
    are a pure function of the token at the cut."""
    words = [f"v{i}" for i in range(400)]
    base = " ".join(words)
    cuts_base = [
        j for j, w in enumerate(words) if _md5_64(CDC_SALT + w) % CDC_D == 0
    ]
    assert cuts_base, "need at least one content cut in the base doc"
    pivot = cuts_base[0]
    mutated = " ".join(words[: pivot + 1] + ["inserted", "tokens"] + words[pivot + 1 :])
    mcut = [
        j
        for j, w in enumerate(TOK.findall(mutated.lower()))
        if _md5_64(CDC_SALT + w) % CDC_D == 0
    ]
    # every cut at or before the pivot is unchanged
    assert [c for c in mcut if c <= pivot] == [
        c for c in cuts_base if c <= pivot
    ]
