"""Tests for the round-5 batch-11 operators (corpusstat_ops):
char_cond_entropy, dup_size_hist, zonemap_selectivity — DuckDB-oracle
parity plus brute-force checks: a dict-counted conditional entropy
(with the H(c1c2) − H(c1) identity), planted duplicate families the
sf testdata lacks, and hand-partitioned virtual row groups."""

from __future__ import annotations

import math

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.corpusstat_ops import (
    CHAR_COND_ENTROPY_SQL,
    DUP_CAP,
    DUP_SIZE_HIST_SQL,
    ZM_G,
    ZM_THRESHOLDS,
    ZONEMAP_SELECTIVITY_SQL,
    q_char_cond_entropy,
    q_dup_size_hist,
    q_zonemap_selectivity,
)


def _write_docs(d, rows, doc_ids=None):
    """rows: list of (text, lang)."""
    texts = [r[0] for r in rows]
    ids = doc_ids if doc_ids is not None else list(range(len(rows)))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
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


# ---------------------------------------------------- char_cond_entropy


def test_char_cond_entropy_brute_force_and_parity(ray_session, tmp_path):
    rows = [
        ("abab abba", "en"),
        ("zz9z!", "en"),       # digits/punct map to '_'
        ("qqqq", "de"),        # fully deterministic chain: H(c2|c1)=0
    ]
    _write_docs(tmp_path, rows)
    got = _unwrap(q_char_cond_entropy(str(tmp_path))).set_index("lang")

    def L(x):
        return math.floor(1e6 * math.log(x))

    # brute force for en
    pair, first = {}, {}
    for text, lang in rows:
        if lang != "en":
            continue
        s = "".join(c if "a" <= c <= "z" else "_" for c in text.lower())
        for a, b in zip(s, s[1:]):
            pair[(a, b)] = pair.get((a, b), 0) + 1
            first[a] = first.get(a, 0) + 1
    n = sum(pair.values())
    hp = (n * L(n) - sum(v * L(v) for v in pair.values())) // n
    hf = (n * L(n) - sum(v * L(v) for v in first.values())) // n
    assert int(got.loc["en", "n_bigrams"]) == n
    assert int(got.loc["en", "cond_entropy_unats"]) == max(0, hp - hf)
    assert int(got.loc["de", "cond_entropy_unats"]) == 0

    _parity(got.reset_index(), _oracle(tmp_path, CHAR_COND_ENTROPY_SQL))


def test_char_cond_entropy_skips_short_docs(ray_session, tmp_path):
    rows = [("a", "en"), ("", "en"), ("abc", "en")]
    _write_docs(tmp_path, rows)
    got = _unwrap(q_char_cond_entropy(str(tmp_path)))
    assert int(got["n_bigrams"].iloc[0]) == 2  # only "abc" contributes
    _parity(got, _oracle(tmp_path, CHAR_COND_ENTROPY_SQL))


# -------------------------------------------------------- dup_size_hist


def test_dup_size_hist_planted_families_and_parity(ray_session, tmp_path):
    rows = (
        [("dup-a", "en")] * 3          # one family of 3
        + [("dup-b", "en")] * 2        # one family of 2
        + [(f"uniq-{i}", "en") for i in range(4)]   # 4 singletons
        + [("mega", "en")] * (DUP_CAP + 5)          # capped family
    )
    _write_docs(tmp_path, rows)
    got = _unwrap(q_dup_size_hist(str(tmp_path))).set_index("family_size")
    assert int(got.loc[1, "n_families"]) == 4
    assert int(got.loc[2, "n_families"]) == 1
    assert int(got.loc[3, "n_families"]) == 1
    assert int(got.loc[DUP_CAP, "n_families"]) == 1
    assert int(got.loc[DUP_CAP, "n_docs"]) == DUP_CAP + 5  # uncapped docs
    _parity(got.reset_index(), _oracle(tmp_path, DUP_SIZE_HIST_SQL))


# --------------------------------------------------- zonemap_selectivity


def test_zonemap_hand_partitioned_and_parity(ray_session, tmp_path):
    # Group 0 (doc_ids 0..ZM_G-1): max length 150 -> prunable for all
    # thresholds; group 1: max 500 -> prunable only at 800; group 2:
    # max 900 -> never prunable.
    rows, ids = [], []
    spec = [(0, 150), (1, 500), (2, 900)]
    for g, mx in spec:
        base = g * ZM_G
        rows.append(("x" * mx, "en"))
        ids.append(base)
        rows.append(("x" * 10, "en"))
        ids.append(base + 1)
    _write_docs(tmp_path, rows, doc_ids=ids)
    got = _unwrap(q_zonemap_selectivity(str(tmp_path))).set_index("threshold")
    assert int(got.loc[200, "prunable"]) == 1
    assert int(got.loc[400, "prunable"]) == 1
    assert int(got.loc[800, "prunable"]) == 2
    assert (got["n_groups"] == 3).all()
    assert int(got.loc[800, "prunable_bp"]) == 2 * 10000 // 3
    assert list(got.index) == sorted(ZM_THRESHOLDS)
    _parity(got.reset_index(), _oracle(tmp_path, ZONEMAP_SELECTIVITY_SQL))
