"""Tests for the round-5 batch-19 source-audit operators
(sourceaudit_ops): link_rot_filter, source_vocab_overlap,
stylometry_l1 — DuckDB-oracle parity plus brute force over a small
synthetic table with real token/length variety.
"""

from __future__ import annotations

from itertools import combinations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.queries import internal_edges_np
from europarl_crawler_ray.pipelines.sitegraph_ops import N_SITES
from europarl_crawler_ray.pipelines.sourceaudit_ops import (
    LRF_MIN_CHARS,
    SOURCE_VOCAB_OVERLAP_SQL,
    STYL_K,
    STYLOMETRY_L1_SQL,
    _link_rot_sql,
    q_link_rot_filter,
    q_source_vocab_overlap,
    q_stylometry_l1,
)

N_DOCS = 60


def _texts(n=N_DOCS):
    out = []
    for i in range(n):
        base = [f"tok{(i * 3 + j) % 17}" for j in range(4 + i % 6)]
        if i % 2 == 0:
            base += ["common", "words"] * (20 + i % 9)  # long docs pass the filter
        out.append(" ".join(base))
    return out


def _write_docs(d, n=N_DOCS):
    texts = _texts(n)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
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


def test_link_rot_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_link_rot_filter(str(tmp_path)))

    texts = _texts()
    keep = {i: len(texts[i]) >= LRF_MIN_CHARS for i in range(N_DOCS)}
    src, dst = internal_edges_np(list(range(N_DOCS)), N_DOCS)
    exp: dict[int, list] = {}
    for u, v in zip(src.tolist(), dst.tolist()):
        e = exp.setdefault(u % N_SITES, [0, 0])
        e[0] += 1
        e[1] += int(not keep[v])
    assert {
        int(r["src_site"]): (int(r["n_edges"]), int(r["n_broken"]))
        for _, r in got.iterrows()
    } == {s: tuple(v) for s, v in exp.items()}
    # the filter must actually break some links but not all
    assert 0 < int(got["n_broken"].sum()) < int(got["n_edges"].sum())

    _parity(got, _oracle(tmp_path, _link_rot_sql()))


def test_source_vocab_overlap_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_source_vocab_overlap(str(tmp_path)))

    texts = _texts()
    vocab: dict[str, set] = {}
    for i, t in enumerate(texts):
        vocab.setdefault(f"s{i % 3}", set()).update(t.lower().split())
    exp = {}
    for a, b in combinations(sorted(vocab), 2):
        inter = len(vocab[a] & vocab[b])
        union = len(vocab[a] | vocab[b])
        exp[(a, b)] = (inter, union, inter * 10000 // union)
    assert {
        (r["src_a"], r["src_b"]): (
            int(r["n_inter"]),
            int(r["n_union"]),
            int(r["jaccard_bp"]),
        )
        for _, r in got.iterrows()
    } == exp
    # shared "common words" guarantee non-trivial overlap
    assert all(v[0] > 0 for v in exp.values())

    _parity(got, _oracle(tmp_path, SOURCE_VOCAB_OVERLAP_SQL))


def test_stylometry_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_stylometry_l1(str(tmp_path)))

    texts = _texts()
    counts: dict[str, dict] = {}
    totals: dict[str, int] = {}
    glob: dict[str, int] = {}
    for i, t in enumerate(texts):
        s = f"s{i % 3}"
        toks = t.lower().split()
        totals[s] = totals.get(s, 0) + len(toks)
        for tok in toks:
            counts.setdefault(s, {})[tok] = counts.get(s, {}).get(tok, 0) + 1
            glob[tok] = glob.get(tok, 0) + 1
    topk = [
        t for t, _ in sorted(glob.items(), key=lambda kv: (-kv[1], kv[0]))[:STYL_K]
    ]
    exp = {}
    for a, b in combinations(sorted(totals), 2):
        l1 = sum(
            abs(
                counts[a].get(t, 0) * 1000 // totals[a]
                - counts[b].get(t, 0) * 1000 // totals[b]
            )
            for t in topk
        )
        exp[(a, b)] = l1
    assert {
        (r["src_a"], r["src_b"]): int(r["l1_pm"]) for _, r in got.iterrows()
    } == exp
    assert any(v > 0 for v in exp.values())  # sources must differ in style

    _parity(got, _oracle(tmp_path, STYLOMETRY_L1_SQL))
