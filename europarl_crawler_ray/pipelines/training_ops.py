"""Training-data preparation operators (round-3, second batch): bigram
LM train+score, document chunking, deterministic train-shard shuffle,
CDC-style upsert merge, and a CSV source round trip.

These are the "make a corpus trainable" stages a 100-TB web pipeline
runs after crawl/extract/dedup (reference has no equivalents — this is
the training-data operator family SURVEY.md §2 extends it with):

- ``bigram_lm_score`` — the classic two-phase model shape: train a
  bounded model on the whole corpus distributed (per-batch combiner →
  coarse exchange → top-K), broadcast it once (``ray.put``), score
  every document vectorized per batch.
- ``chunk_docs`` — flat-map fan-out of documents into fixed-size
  overlapping training windows (one input row → many output rows).
- ``train_shards`` — the deterministic global shuffle every trainer
  needs: md5-keyed shard assignment plus a within-shard total order.
- ``upsert_merge`` — latest-wins merge of a delta snapshot into the
  corpus (lakehouse compaction / CDC apply) on one keyed exchange.
- ``csv_roundtrip`` — documents → sharded CSV → ``ray.data.read_csv``,
  content-verified by md5 (completes the source matrix: parquet, JSONL,
  WARC, hive-partitioned, CSV).
- ``sequence_pack`` — concat-and-chunk packing of the token stream
  into fixed-length training sequences via a distributed prefix sum.

All are SQL-oracled. Scale idioms as elsewhere in the repo:
per-batch combiners before any exchange, coarse-hash co-location for
data-scaled keys (pipelines/grouping.py), broadcasts only for provably
bounded sides (the top-K model), per-row Python only at documented
string-kernel floors (md5, slicing).
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read
from ..functions.dedup import md5_hash64
from .grouping import with_coarse_group as _with_coarse_group


_TOKEN_PATTERN = r"[^ \t\n\r\f]+"


def _exploded_bigrams(df: pd.DataFrame) -> tuple[np.ndarray, pd.Series]:
    """(doc_ids, bigrams) for every consecutive lowercase token pair in
    the batch, fully vectorized: one explode, one shift-compare (a doc's
    tokens are contiguous after explode, so "next row is the same doc"
    == "this row starts a bigram")."""
    toks = df["text"].str.lower().str.findall(_TOKEN_PATTERN).explode().dropna()
    if toks.empty:
        return np.empty(0, dtype=np.int64), pd.Series([], dtype=object)
    doc = df["doc_id"].reindex(toks.index).to_numpy().astype(np.int64)
    tok = toks.to_numpy(dtype=object)
    same_doc = np.empty(len(doc), dtype=bool)
    same_doc[:-1] = doc[:-1] == doc[1:]
    same_doc[-1] = False  # last token of the batch never starts a bigram
    left = tok[:-1][same_doc[:-1]] if len(tok) > 1 else np.empty(0, object)
    right = tok[1:][same_doc[:-1]] if len(tok) > 1 else np.empty(0, object)
    bigrams = pd.Series(left, dtype=object).str.cat(pd.Series(right, dtype=object), sep=" ")
    return doc[same_doc], bigrams


# ===================================== bigram LM: train on corpus, score corpus

BIGRAM_MODEL_K = 1024


def _bigram_model_df(d: ray.data.Dataset, k: int) -> pd.DataFrame:
    """Top-``k`` corpus bigrams (count DESC, bigram ASC tie-break):
    per-batch value_counts combiner → coarse-hash bigram exchange →
    top-K of the aggregated vocabulary. The K-row result is the only
    driver materialization, bounded by construction."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        _, bigrams = _exploded_bigrams(df)
        vc = bigrams.value_counts()
        return pd.DataFrame(
            {
                "bigram": pd.Series(vc.index, dtype=object),
                "part_n": vc.to_numpy().astype(np.int64),
            }
        )

    def sum_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("bigram", as_index=False)["part_n"].sum()
        return out.rename(columns={"part_n": "n"}).astype({"n": np.int64})

    return (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "bigram")
        .groupby("_g")
        .map_groups(lambda g: sum_part(g.drop(columns=["_g"])), batch_format="pandas")
        .sort(["n", "bigram"], descending=[True, False])
        .limit(k)
        .to_pandas()  # bounded: exactly <=K rows by construction
    )


def q_bigram_lm_score(sf_dir: str, k: int = BIGRAM_MODEL_K):
    """Count-based bigram language model trained ON the corpus and then
    scored OVER the corpus — the canonical two-phase quality-model shape
    (CCNet/FineWeb train a KenLM the same way; here the model is the
    top-``k`` bigram set, so scores stay integer-exact for the oracle).

    Emits (doc_id, n_bigrams, n_hits) for every document with ≥2
    tokens: total bigram positions and how many are covered by the
    model. Tie-break at the K boundary is deterministic (count DESC,
    bigram ASC) on both sides.

    Scale shape: train = per-batch ``value_counts`` combiner (one row
    per distinct bigram per block crosses the wire) → coarse-hash
    exchange on the bigram → top-K sort of the already-aggregated
    vocabulary; the K-row model is the ONLY driver materialization
    (bounded by construction) and is broadcast once via ``ray.put``.
    Score = one more pass over documents, membership tested vectorized
    (``Series.isin``) per batch. No data-scaled shuffle in phase 2.
    """
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    model_df = _bigram_model_df(d, k)
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_bigrams": pa.array([], pa.int64()),
            "n_hits": pa.array([], pa.int64()),
        }
    )
    if model_df.empty:
        return empty
    model_ref = ray.put(frozenset(model_df["bigram"].tolist()))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        doc, bigrams = _exploded_bigrams(df)
        if not len(doc):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "n_bigrams": pd.Series([], dtype=np.int64),
                    "n_hits": pd.Series([], dtype=np.int64),
                }
            )
        model = ray.get(model_ref)  # plasma-local after first batch
        hit = bigrams.isin(model).to_numpy()
        g = pd.DataFrame({"doc_id": doc, "hit": hit.astype(np.int64)}).groupby(
            "doc_id", as_index=False
        )
        out = g.agg(n_bigrams=("hit", "size"), n_hits=("hit", "sum"))
        return out.astype({"doc_id": np.int64, "n_bigrams": np.int64, "n_hits": np.int64})

    return d.map_batches(score, batch_format="pandas")


BIGRAM_LM_SCORE_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_TOKEN_PATTERN}') AS ws
  FROM documents),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])) AS bigram
  FROM w WHERE len(ws) >= 2),
model AS (
  SELECT bigram FROM (SELECT bigram, COUNT(*) AS n FROM bg GROUP BY 1)
  ORDER BY n DESC, bigram ASC LIMIT {BIGRAM_MODEL_K})
SELECT bg.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(CASE WHEN m.bigram IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_hits
FROM bg LEFT JOIN model m USING (bigram)
GROUP BY bg.doc_id
"""


# =================================================== lm_removal_curve
#
# Quality-filter tuning curve: if every document whose bigram-LM
# coverage score (n_hits·10000 // n_bigrams, the q_bigram_lm_score
# signal) falls below threshold T is removed, how many documents and
# tokens go? Evaluated at T ∈ {1000..9000 step 2000} — the plot a
# CCNet-style pipeline reads before picking its perplexity cutoff.
#
# Scale shape: composes the bigram-LM pass (bounded K-row model), then
# reduces per-doc scores to a (score_bp → n_docs, n_tokens) histogram —
# the score domain is ≤ 10001 values, so the driver reduce is
# domain-bounded; each threshold is a prefix sum over it.

LM_CURVE_TS = [1000, 3000, 5000, 7000, 9000]


def q_lm_removal_curve(sf_dir: str):
    scored = q_bigram_lm_score(sf_dir)
    if not isinstance(scored, ray.data.Dataset):
        # empty-corpus path: q_bigram_lm_score returns an empty Arrow
        # table; the curve over nothing is the empty frame
        return pd.DataFrame(
            {
                c: pd.Series(dtype="int64")
                for c in [
                    "threshold_bp",
                    "docs_removed",
                    "tokens_removed",
                    "docs_total",
                    "tokens_total",
                ]
            }
        )

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "score_bp": pd.Series(dtype=np.int64),
                    "part_docs": pd.Series(dtype=np.int64),
                    "part_tokens": pd.Series(dtype=np.int64),
                }
            )
        nb = df["n_bigrams"].to_numpy(np.int64)
        bp = df["n_hits"].to_numpy(np.int64) * 10000 // np.maximum(nb, 1)
        out = pd.DataFrame(
            {"score_bp": bp, "part_docs": np.int64(1), "part_tokens": nb + 1}
        )
        return out.groupby("score_bp", as_index=False)[
            ["part_docs", "part_tokens"]
        ].sum()

    h = (
        scored.map_batches(hist, batch_format="pandas")
        .groupby("score_bp")
        .sum(["part_docs", "part_tokens"])
        .to_pandas()  # ≤ 10001 rows (bp domain)
    )
    cols = ["threshold_bp", "docs_removed", "tokens_removed",
            "docs_total", "tokens_total"]
    if h.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    h = h.sort_values("score_bp").reset_index(drop=True)
    sc = h["score_bp"].to_numpy(np.int64)
    cd = h["sum(part_docs)"].to_numpy(np.int64).cumsum()
    ct = h["sum(part_tokens)"].to_numpy(np.int64).cumsum()
    rows = []
    for t in LM_CURVE_TS:
        i = np.searchsorted(sc, t, side="left") - 1  # scores < t
        dr = int(cd[i]) if i >= 0 else 0
        tr = int(ct[i]) if i >= 0 else 0
        rows.append((t, dr, tr, int(cd[-1]), int(ct[-1])))
    return pd.DataFrame(rows, columns=cols).astype("int64")


def _lm_removal_sql() -> str:
    ts = ", ".join(f"({t})" for t in LM_CURVE_TS)
    return rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_TOKEN_PATTERN}') AS ws
  FROM documents),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])) AS bigram
  FROM w WHERE len(ws) >= 2),
model AS (
  SELECT bigram FROM (SELECT bigram, COUNT(*) AS n FROM bg GROUP BY 1)
  ORDER BY n DESC, bigram ASC LIMIT {BIGRAM_MODEL_K}),
sc AS (
  SELECT bg.doc_id,
         CAST(COUNT(*) AS BIGINT) AS nb,
         CAST(SUM(CASE WHEN m.bigram IS NOT NULL THEN 1 ELSE 0 END)
              * 10000 // COUNT(*) AS BIGINT) AS bp
  FROM bg LEFT JOIN model m USING (bigram) GROUP BY bg.doc_id),
ts(t) AS (VALUES {ts})
SELECT CAST(ts.t AS BIGINT) AS threshold_bp,
       CAST(COALESCE(SUM(CASE WHEN sc.bp < ts.t THEN 1 ELSE 0 END), 0)
            AS BIGINT) AS docs_removed,
       CAST(COALESCE(SUM(CASE WHEN sc.bp < ts.t THEN sc.nb + 1 ELSE 0 END), 0)
            AS BIGINT) AS tokens_removed,
       CAST(COUNT(*) AS BIGINT) AS docs_total,
       CAST(SUM(sc.nb + 1) AS BIGINT) AS tokens_total
FROM ts CROSS JOIN sc
GROUP BY ts.t
"""


# ======================================== chunking into training windows

CHUNK_SIZE = 512
CHUNK_OVERLAP = 64
_CHUNK_STEP = CHUNK_SIZE - CHUNK_OVERLAP


def q_chunk_docs(sf_dir: str):
    """Fixed-size overlapping character windows — the "split long
    documents into training examples" fan-out (window ``CHUNK_SIZE``,
    stride ``CHUNK_STEP``; the final window may be short). One input row
    → ``(n_chars-1)//step + 1`` output rows; empty documents produce
    none. Emits (doc_id, chunk_id, chunk_md5, chunk_len) — the md5
    proves chunk CONTENT end to end while keeping the result narrow.

    Scale shape: pure ``map_batches`` (embarrassingly parallel, no
    exchange); the fan-out happens inside the batch with
    ``np.repeat``/arange arithmetic, per-chunk slicing+md5 being the
    string-kernel floor (as in normalize_text)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].to_numpy(dtype=object)
        ids = df["doc_id"].to_numpy().astype(np.int64)
        n = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
        keep = n > 0
        texts, ids, n = texts[keep], ids[keep], n[keep]
        n_chunks = (n - 1) // _CHUNK_STEP + 1
        did = ids.repeat(n_chunks)
        texts_rep = texts.repeat(n_chunks)
        total = int(n_chunks.sum())
        k = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks
        )
        starts = k * _CHUNK_STEP
        pieces = [t[s : s + CHUNK_SIZE] for t, s in zip(texts_rep, starts)]
        return pd.DataFrame(
            {
                "doc_id": did,
                "chunk_id": k,
                "chunk_md5": pd.Series(
                    [hashlib.md5(c.encode("utf-8")).hexdigest() for c in pieces],
                    dtype=object,
                ),
                "chunk_len": pd.Series(
                    [len(c) for c in pieces], dtype=np.int64
                ),
            }
        )

    return d.map_batches(chunks, batch_format="pandas")


CHUNK_DOCS_SQL = f"""
WITH ks AS (
  SELECT doc_id, text,
         unnest(range(0, (length(text)-1)//{_CHUNK_STEP} + 1)) AS k
  FROM documents WHERE length(text) > 0)
SELECT doc_id,
       CAST(k AS BIGINT) AS chunk_id,
       md5(substr(text, CAST(k*{_CHUNK_STEP}+1 AS BIGINT), {CHUNK_SIZE})) AS chunk_md5,
       CAST(length(substr(text, CAST(k*{_CHUNK_STEP}+1 AS BIGINT), {CHUNK_SIZE})) AS BIGINT)
         AS chunk_len
FROM ks
"""


# ============================== deterministic train-shard global shuffle

N_TRAIN_SHARDS = 16
_SHUFFLE_SALT = ":shuffle1"


def q_train_shards(sf_dir: str, n_shards: int = N_TRAIN_SHARDS):
    """The deterministic global shuffle a trainer consumes: every doc
    gets a shard (uniform, md5-keyed — seeded by ``_SHUFFLE_SALT``) and
    a total order WITHIN its shard (md5 key ASC, doc_id tie-break), so
    any two runs produce byte-identical shard files. Emits (doc_id,
    shard, pos_in_shard).

    Scale shape: shard assignment is a pure map_batches; the
    within-shard ordering needs each shard co-located+ordered, which is
    exactly the trainer's own requirement — one ``groupby(shard)``
    exchange, in-task sort. Partitioning assumption (documented, same
    class as grouping.py's): one shard ≈ 1/n_shards of the corpus must
    fit a task; raise ``n_shards`` with corpus size (a real 100-TB run
    uses thousands of shards, keeping this well under block size)."""
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        keys = [str(i) + _SHUFFLE_SALT for i in ids]
        kk = pd.Series(
            [hashlib.md5(s.encode("utf-8")).hexdigest() for s in keys], dtype=object
        )
        shard = (md5_hash64(keys) % np.uint64(n_shards)).astype(np.int64)
        return pd.DataFrame({"doc_id": ids, "shard": shard, "kk": kk})

    def order_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["kk", "doc_id"], kind="mergesort").reset_index(drop=True)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy().astype(np.int64),
                "shard": g["shard"].to_numpy().astype(np.int64),
                "pos_in_shard": np.arange(len(g), dtype=np.int64),
            }
        )

    return (
        d.map_batches(assign, batch_format="pandas")
        .groupby("shard")
        .map_groups(order_shard, batch_format="pandas")
    )


TRAIN_SHARDS_SQL = f"""
WITH k AS (
  SELECT doc_id,
         md5(CAST(doc_id AS VARCHAR) || '{_SHUFFLE_SALT}') AS kk,
         CAST(CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR) || '{_SHUFFLE_SALT}'), 1, 16))
              AS UBIGINT) % {N_TRAIN_SHARDS} AS BIGINT) AS shard
  FROM documents)
SELECT doc_id, shard,
       CAST(ROW_NUMBER() OVER (PARTITION BY shard ORDER BY kk, doc_id) - 1 AS BIGINT)
         AS pos_in_shard
FROM k
"""


# ========================================= CDC / lakehouse upsert merge

UPSERT_UPDATE_MOD = 7
UPSERT_INSERT_MOD = 11
UPSERT_INSERT_OFFSET = 10_000_000


def q_upsert_merge(sf_dir: str):
    """Latest-wins merge of a delta snapshot into the corpus — the
    lakehouse compaction / CDC-apply step an incremental crawl runs to
    keep ONE row per doc. The delta is derived deterministically from
    the corpus so the oracle reproduces it: docs with
    ``doc_id % {UPSERT_UPDATE_MOD} == 0`` arrive updated ('v2 ' text
    prefix), docs with ``doc_id % {UPSERT_INSERT_MOD} == 0`` arrive as
    fresh inserts under ``doc_id + {UPSERT_INSERT_OFFSET}`` (assumes
    base ids < the offset — holds for every sf, asserted). Emits
    (doc_id, version, text_md5, n_chars) of the merged corpus.

    Scale shape: both sides are map_batches projections to 50-byte rows
    (id, version, md5, len) BEFORE the exchange — the merge never moves
    document bodies; then ONE coarse-hash exchange on doc_id and a
    vectorized keep-max-version per task. This is the
    ``snapshot_diff``/``dedup_keep_first`` family shape applied to
    multi-version compaction."""
    base = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def project_base(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        assert (ids < UPSERT_INSERT_OFFSET).all(), "insert-id space collision"
        return pd.DataFrame(
            {
                "doc_id": ids,
                "version": np.zeros(len(ids), dtype=np.int64),
                "text_md5": pd.Series(
                    [hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]],
                    dtype=object,
                ),
                "n_chars": pd.Series([len(t) for t in df["text"]], dtype=np.int64),
            }
        )

    def project_delta(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        up = ids % UPSERT_UPDATE_MOD == 0
        ins = ids % UPSERT_INSERT_MOD == 0
        up_ids = ids[up]
        up_texts = ["v2 " + t for t in df["text"].to_numpy(dtype=object)[up]]
        ins_ids = ids[ins] + UPSERT_INSERT_OFFSET
        ins_texts = list(df["text"].to_numpy(dtype=object)[ins])
        out_ids = np.concatenate([up_ids, ins_ids])
        out_texts = up_texts + ins_texts
        return pd.DataFrame(
            {
                "doc_id": out_ids,
                "version": np.ones(len(out_ids), dtype=np.int64),
                "text_md5": pd.Series(
                    [hashlib.md5(t.encode("utf-8")).hexdigest() for t in out_texts],
                    dtype=object,
                ),
                "n_chars": pd.Series([len(t) for t in out_texts], dtype=np.int64),
            }
        )

    unioned = base.map_batches(project_base, batch_format="pandas").union(
        base.map_batches(project_delta, batch_format="pandas")
    )

    def keep_latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "version"], ascending=[True, False], kind="mergesort")
        out = g.drop_duplicates("doc_id", keep="first").reset_index(drop=True)
        return out[["doc_id", "version", "text_md5", "n_chars"]].astype(
            {"doc_id": np.int64, "version": np.int64, "n_chars": np.int64}
        )

    return (
        _with_coarse_group(unioned, "doc_id")
        .groupby("_g")
        .map_groups(lambda g: keep_latest(g.drop(columns=["_g"])), batch_format="pandas")
    )


UPSERT_MERGE_SQL = f"""
WITH u AS (
  SELECT doc_id, 0 AS version, text FROM documents
  UNION ALL
  SELECT doc_id, 1, 'v2 ' || text FROM documents WHERE doc_id % {UPSERT_UPDATE_MOD} = 0
  UNION ALL
  SELECT doc_id + {UPSERT_INSERT_OFFSET}, 1, text FROM documents
  WHERE doc_id % {UPSERT_INSERT_MOD} = 0),
r AS (
  SELECT doc_id, version, text,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY version DESC) AS rn
  FROM u)
SELECT doc_id, CAST(version AS BIGINT) AS version,
       md5(text) AS text_md5,
       CAST(length(text) AS BIGINT) AS n_chars
FROM r WHERE rn = 1
"""


# ================================================== CSV source round trip


def q_csv_roundtrip(sf_dir: str, n_shards: int = 8):
    """documents → sharded CSV (quoted, embedded newlines allowed) →
    ``ray.data.read_csv`` (Arrow CSV reader, ``newlines_in_values``) →
    content verified by md5. Completes the source-format matrix
    (parquet / JSONL / WARC / hive / CSV); the oracle is the documents
    table itself. Mirrors q_jsonl_roundtrip's shard layout — the file
    is the parallelism unit."""
    import pyarrow.csv as pacsv

    shard_dir = os.path.join(
        "/tmp",
        "europarl_csv_" + hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10],
    )
    shutil.rmtree(shard_dir, ignore_errors=True)
    os.makedirs(shard_dir)
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return t.append_column(
            "_g",
            _pc.cast(_pc.bit_wise_and(t.column("doc_id"), n_shards - 1), pa.int32()),
        )

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["_g"].iloc[0])
        tmp = os.path.join(shard_dir, f".shard_{b:03d}.tmp")
        g.sort_values("doc_id")[["doc_id", "text"]].to_csv(tmp, index=False)
        os.replace(tmp, os.path.join(shard_dir, f"shard_{b:03d}.csv"))
        return pd.DataFrame({"n": [len(g)]})

    n_written = (
        docs.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(write_shard, batch_format="pandas")
        .sum("n")
    )
    if not n_written:  # empty corpus: nothing to read back
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text_md5": pa.array([], pa.string()),
                "n_chars_out": pa.array([], pa.int64()),
            }
        )

    def check(df: pd.DataFrame) -> pd.DataFrame:
        # pandas to_csv writes an empty string as an EMPTY FIELD; Arrow
        # reads that back as null — restore the round-trip identity
        texts = df["text"].fillna("")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "text_md5": pd.Series(
                    [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts],
                    dtype=object,
                ),
                "n_chars_out": pd.Series([len(t) for t in texts], dtype=np.int64),
            }
        )

    return ray.data.read_csv(
        shard_dir,
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
        convert_options=pacsv.ConvertOptions(
            column_types={"doc_id": pa.int64(), "text": pa.string()}
        ),
    ).map_batches(check, batch_format="pandas")


CSV_ROUNDTRIP_SQL = """
SELECT doc_id, md5(text) AS text_md5, CAST(length(text) AS BIGINT) AS n_chars_out
FROM documents
"""


def q_avro_roundtrip(sf_dir: str, n_shards: int = 8):
    """documents → sharded Avro Object Container Files (from-scratch
    writer, deflate codec, spec-golden-tested in sources/avro.py) →
    parse back with the verifying reader (magic/schema/codec/sync
    checks) → content verified by md5. Completes the source-format
    matrix (parquet / JSONL / WARC / hive / CSV / webdataset / Avro);
    the oracle is the documents table itself.

    Scale shape mirrors q_csv_roundtrip: the FILE is the parallelism
    unit — one bucket exchange writes each shard in a task, the read
    side is read_binary_files → per-file parse in map_batches (shared
    scaffolding: _roundtrip_shards / _roundtrip_read below)."""
    from ..sources.avro import read_ocf, sync_marker, write_ocf

    def write_one(t: pa.Table, path: str, b: int) -> None:
        write_ocf(
            path,
            t.column("doc_id").to_numpy(),
            [x or "" for x in t.column("text").to_pylist()],
            sync=sync_marker(f"shard{b}"),
        )

    shard_dir, n_written = _roundtrip_shards(sf_dir, "avro", n_shards, write_one)
    if not n_written:  # empty corpus: nothing to read back
        return pa.table({k: pa.array([], t) for k, t in _RT_EMPTY.items()})

    def parse_one(raw: bytes) -> pa.Table:
        ids, texts = read_ocf(raw)
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(ids, dtype=np.int64), pa.int64()),
                "text": pa.array(list(texts), pa.string()),
            }
        )

    return _roundtrip_read(shard_dir, parse_one)


AVRO_ROUNDTRIP_SQL = CSV_ROUNDTRIP_SQL


def _roundtrip_shards(sf_dir: str, fmt: str, n_shards: int, write_one):
    """Shared write side of the columnar round trips: documents →
    bucket exchange → one file per bucket via ``write_one(table, path,
    shard_id)``. Returns (shard_dir, n_written)."""
    assert n_shards & (n_shards - 1) == 0, "n_shards must be a power of two"
    shard_dir = os.path.join(
        "/tmp",
        f"europarl_{fmt}_"
        + hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10],
    )
    shutil.rmtree(shard_dir, ignore_errors=True)
    os.makedirs(shard_dir)
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return t.append_column(
            "_g",
            _pc.cast(_pc.bit_wise_and(t.column("doc_id"), n_shards - 1), pa.int32()),
        )

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["_g"].iloc[0])
        t = pa.Table.from_pandas(
            g.sort_values("doc_id")[["doc_id", "text"]], preserve_index=False
        ).cast(pa.schema([("doc_id", pa.int64()), ("text", pa.string())]))
        tmp = os.path.join(shard_dir, f".shard_{b:03d}.tmp")
        write_one(t, tmp, b)
        os.replace(tmp, os.path.join(shard_dir, f"shard_{b:03d}.{fmt}"))
        return pd.DataFrame({"n": [len(g)]})

    n_written = (
        docs.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(write_shard, batch_format="pandas")
        .sum("n")
    )
    return shard_dir, int(n_written or 0)


def _roundtrip_read(shard_dir: str, parse_one):
    """Shared read side: read_binary_files → per-file ``parse_one(raw)
    -> pa.Table`` → md5/length digest rows (the FILE is the parallelism
    unit, matching the write side)."""

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        out_ids, out_md5, out_len = [], [], []
        for raw in df["bytes"]:
            t = parse_one(bytes(raw))
            out_ids.extend(t.column("doc_id").to_pylist())
            for txt in t.column("text").to_pylist():
                txt = txt or ""
                out_md5.append(hashlib.md5(txt.encode("utf-8")).hexdigest())
                out_len.append(len(txt))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out_ids, dtype=np.int64),
                "text_md5": pd.Series(out_md5, dtype=object),
                "n_chars_out": pd.Series(out_len, dtype=np.int64),
            }
        )

    return ray.data.read_binary_files(shard_dir).map_batches(
        parse, batch_format="pandas"
    )


_RT_EMPTY = {
    "doc_id": pa.int64(),
    "text_md5": pa.string(),
    "n_chars_out": pa.int64(),
}


def q_orc_roundtrip(sf_dir: str, n_shards: int = 8):
    """documents → sharded ORC (pyarrow.orc, zstd stripes) → per-file
    parse → content verified by md5. Extends the source-format matrix
    (parquet / JSONL / WARC / hive / CSV / webdataset / Avro / ORC) —
    ORC is the other columnar lake format a 100-TB ingest job meets in
    the wild. Scale shape mirrors q_avro_roundtrip: the FILE is the
    parallelism unit on both sides."""
    import pyarrow.orc as paorc

    def write_one(t: pa.Table, path: str, _b: int) -> None:
        paorc.write_table(t, path, compression="zstd")

    shard_dir, n_written = _roundtrip_shards(sf_dir, "orc", n_shards, write_one)
    if not n_written:
        return pa.table({k: pa.array([], t) for k, t in _RT_EMPTY.items()})

    def parse_one(raw: bytes) -> pa.Table:
        f = paorc.ORCFile(pa.BufferReader(raw))
        t = f.read()
        if f.nrows != t.num_rows:  # verifying reader: footer vs data
            raise ValueError("ORC footer row count mismatch")
        return t

    return _roundtrip_read(shard_dir, parse_one)


def q_ipc_roundtrip(sf_dir: str, n_shards: int = 8):
    """documents → sharded Arrow IPC files (Feather V2, zstd buffers) →
    per-file parse → content verified by md5. IPC is the ZERO-COPY
    interchange format — the natural spill/cache format for Ray Data
    blocks themselves — so the matrix covers it alongside the lake
    formats. The verifying reader checks the footer record-batch count
    before trusting the payload."""

    def write_one(t: pa.Table, path: str, _b: int) -> None:
        opts = pa.ipc.IpcWriteOptions(compression="zstd")
        with pa.OSFile(path, "wb") as sink:
            with pa.ipc.new_file(sink, t.schema, options=opts) as w:
                w.write_table(t)

    shard_dir, n_written = _roundtrip_shards(sf_dir, "arrow", n_shards, write_one)
    if not n_written:
        return pa.table({k: pa.array([], t) for k, t in _RT_EMPTY.items()})

    def parse_one(raw: bytes) -> pa.Table:
        r = pa.ipc.open_file(pa.BufferReader(raw))
        if r.num_record_batches < 1:
            raise ValueError("IPC file with no record batches")
        return r.read_all()

    return _roundtrip_read(shard_dir, parse_one)


ORC_ROUNDTRIP_SQL = CSV_ROUNDTRIP_SQL
IPC_ROUNDTRIP_SQL = CSV_ROUNDTRIP_SQL


# ===================== sequence packing (concat-and-chunk, GPT-style)

SEQ_LEN = 256
PACK_N_RANGES = 64


def q_sequence_pack(sf_dir: str, seq_len: int = SEQ_LEN, n_ranges: int = PACK_N_RANGES):
    """Concat-and-chunk sequence packing — THE standard LLM-pretraining
    batching step: lay every document's tokens end-to-end in one global
    doc_id-ordered stream and cut it into fixed ``seq_len``-token
    training sequences (documents may span a boundary). Emits one row
    per (sequence × document) span: (seq_id, doc_id, tok_start_in_doc,
    n_toks_in_seq) — the packing manifest a trainer's loader consumes.
    Tokens are whitespace tokens (the repo-wide ``_TOKEN_PATTERN``).

    Scale shape — a distributed PREFIX SUM, the textbook two-pass:
    (1) one streaming pass computes per-doc token counts, kept as a
    materialized narrow projection (24-byte rows; re-tokenizing the
    corpus for pass 2 would double the string work — the projection is
    what the object store is for, and it spills); docs are keyed into
    ``n_ranges`` CONTIGUOUS doc_id ranges, whose per-range sums (a
    per-batch combiner, then a ≤``n_ranges``-group aggregate) are the
    ONLY driver materialization (bounded by construction) and become
    broadcast prefix offsets. (2) one exchange co-locates each range;
    in-task: sort by doc_id, local cumsum + range offset = each doc's
    global token offset, then the span fan-out is pure integer
    arithmetic (repeat/arange, as in chunk_docs). Partitioning
    assumption: 1/n_ranges of the (doc_id, n_toks) pairs fits a task —
    raise ``n_ranges`` with corpus size (rows are 24 bytes, so this
    holds far past 10^10 docs)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    empty = pa.table(
        {
            "seq_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "tok_start_in_doc": pa.array([], pa.int64()),
            "n_toks_in_seq": pa.array([], pa.int64()),
        }
    )
    max_id = _read(sf_dir, "documents", columns=["doc_id"]).max("doc_id")
    if max_id is None:  # empty corpus
        return empty
    width = int(max_id) // n_ranges + 1  # range_id = doc_id // width, contiguous

    def count_toks(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        n = df["text"].str.count(_TOKEN_PATTERN).to_numpy().astype(np.int64)
        return pd.DataFrame({"doc_id": ids, "n": n, "range_id": ids // width})

    counts = d.map_batches(count_toks, batch_format="pandas").materialize()

    def range_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("range_id", as_index=False)["n"].sum()
        return g.rename(columns={"n": "part_n"})

    sums = (
        counts.map_batches(range_partial, batch_format="pandas")
        .groupby("range_id")
        .sum("part_n")
        .to_pandas()  # bounded: <= n_ranges + 1 rows by construction
        .sort_values("range_id")
    )
    if sums.empty or int(sums["sum(part_n)"].sum()) == 0:
        return empty
    totals = sums["sum(part_n)"].to_numpy().astype(np.int64)
    base = dict(
        zip(
            sums["range_id"].to_numpy().astype(np.int64),
            np.cumsum(totals) - totals,
        )
    )
    base_ref = ray.put(base)

    def pack_range(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        rid = int(g["range_id"].iloc[0])
        n = g["n"].to_numpy().astype(np.int64)
        off = ray.get(base_ref)[rid] + np.cumsum(n) - n
        keep = n > 0
        ids, n, off = g["doc_id"].to_numpy().astype(np.int64)[keep], n[keep], off[keep]
        if not len(ids):
            return empty.to_pandas()
        first = off // seq_len
        cnt = (off + n - 1) // seq_len - first + 1
        did, off_r, n_r = ids.repeat(cnt), off.repeat(cnt), n.repeat(cnt)
        total = int(cnt.sum())
        k = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(cnt) - cnt, cnt)
            + first.repeat(cnt)
        )
        start = np.maximum(k * seq_len, off_r)
        end = np.minimum((k + 1) * seq_len, off_r + n_r)
        return pd.DataFrame(
            {
                "seq_id": k,
                "doc_id": did,
                "tok_start_in_doc": start - off_r,
                "n_toks_in_seq": end - start,
            }
        )

    return counts.groupby("range_id").map_groups(pack_range, batch_format="pandas")


SEQUENCE_PACK_SQL = rf"""
WITH t AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '{_TOKEN_PATTERN}')) AS BIGINT) AS n
  FROM documents),
c AS (
  SELECT doc_id, n,
         CAST(COALESCE(SUM(n) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS off
  FROM t),
s AS (
  SELECT doc_id, n, off,
         unnest(range(off//{SEQ_LEN}, (off+n-1)//{SEQ_LEN} + 1)) AS k
  FROM c WHERE n > 0)
SELECT CAST(k AS BIGINT) AS seq_id, doc_id,
       CAST(greatest(k*{SEQ_LEN}, off) - off AS BIGINT) AS tok_start_in_doc,
       CAST(least((k+1)*{SEQ_LEN}, off+n) - greatest(k*{SEQ_LEN}, off) AS BIGINT)
         AS n_toks_in_seq
FROM s
"""


# ============== the composed flagship: corpus → trainable shard stream


def q_corpus_to_shards(sf_dir: str, n_shards: int = N_TRAIN_SHARDS, n_buckets: int = 64):
    """The end-to-end training-data path a real team runs, as ONE
    streaming pipeline: quality gate (Gopher/FineWeb rule flags) →
    exact dedup keep-first → fixed-window chunking → deterministic
    shard assignment. Emits (doc_id, chunk_id, chunk_md5, shard) — the
    manifest of what lands in each trainer shard.

    Scale shape: the quality gate and the dedup KEY computation run in
    the same map pass (rejected docs never leave it); then ONE exchange
    — bucketed by the full text md5, so every duplicate group co-locates
    — where the min-doc_id winner is picked, chunk fan-out happens, and
    each chunk gets its md5-keyed shard, all in-task. Document bodies
    cross the wire exactly once, already quality-filtered. Dedup keys
    are the full 128-bit md5 hex (exactly SQL's ``GROUP BY md5(text)``
    — no 64-bit truncation to diverge on); the bucket uses its first 8
    bytes. Composes the pieces proven individually by quality_filter,
    dedup_keep_first, chunk_docs and train_shards; the oracle is the
    same composition in SQL."""
    assert n_buckets & (n_buckets - 1) == 0
    from .queries import quality_gate_columns

    d = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def gate_and_key(df: pd.DataFrame) -> pd.DataFrame:
        keep = quality_gate_columns(df["text"], df["lang"])["keep"].astype(bool)
        df = df[keep]
        hexes = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]]
        bucket = np.array(
            [int(h[:16], 16) & (n_buckets - 1) for h in hexes], dtype=np.int32
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "text": df["text"].to_numpy(dtype=object),
                "h": pd.Series(hexes, dtype=object),
                "bucket": bucket,
            }
        )

    def dedup_chunk_shard(g: pd.DataFrame) -> pd.DataFrame:
        w = g.sort_values("doc_id", kind="mergesort").drop_duplicates("h", keep="first")
        texts = w["text"].to_numpy(dtype=object)
        ids = w["doc_id"].to_numpy().astype(np.int64)
        n = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
        nz = n > 0
        texts, ids, n = texts[nz], ids[nz], n[nz]
        n_chunks = (n - 1) // _CHUNK_STEP + 1
        did = ids.repeat(n_chunks)
        texts_rep = texts.repeat(n_chunks)
        total = int(n_chunks.sum())
        k = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks
        )
        pieces = [t[s : s + CHUNK_SIZE] for t, s in zip(texts_rep, k * _CHUNK_STEP)]
        shard = (
            md5_hash64([f"{i}:{c}{_SHUFFLE_SALT}" for i, c in zip(did, k)])
            % np.uint64(n_shards)
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": did,
                "chunk_id": k,
                "chunk_md5": pd.Series(
                    [hashlib.md5(p.encode("utf-8")).hexdigest() for p in pieces],
                    dtype=object,
                ),
                "shard": shard,
            }
        )

    return (
        d.map_batches(gate_and_key, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: dedup_chunk_shard(g.drop(columns=["bucket"])),
            batch_format="pandas",
        )
    )


def _corpus_to_shards_sql() -> str:
    from .queries import _quality_filter_sql

    md5u = (
        "CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR) || ':' || "
        f"CAST(k AS VARCHAR) || '{_SHUFFLE_SALT}'), 1, 16)) AS UBIGINT)"
    )
    return f"""
WITH qf AS ({_quality_filter_sql()}),
kept AS (SELECT doc_id FROM qf WHERE keep = 1),
w AS (
  SELECT MIN(d.doc_id) AS doc_id
  FROM documents d JOIN kept USING (doc_id)
  GROUP BY md5(d.text)),
c AS (
  SELECT d.doc_id, d.text,
         unnest(range(0, (length(d.text)-1)//{_CHUNK_STEP} + 1)) AS k
  FROM documents d JOIN w USING (doc_id)
  WHERE length(d.text) > 0)
SELECT doc_id,
       CAST(k AS BIGINT) AS chunk_id,
       md5(substr(text, CAST(k*{_CHUNK_STEP}+1 AS BIGINT), {CHUNK_SIZE})) AS chunk_md5,
       CAST({md5u} % {N_TRAIN_SHARDS} AS BIGINT) AS shard
FROM c
"""


# ========================== budget-capped corpus selection (greedy prefix)
#
# "Give me ~20% of the corpus tokens, chosen deterministically": docs
# are taken in md5 order until the token budget fills (the last doc may
# overflow it — greedy-prefix semantics). The selection order being a
# hash order makes the sample unbiased AND stable under retries; the
# running total is a distributed prefix sum (the epoch_shuffle /
# sequence_pack machinery: hash-prefix buckets + a fixed 256-int offset
# vector), so no task ever sees the global order.

TBS_SEED = "tbs|"
TBS_BUDGET_DEN = 5  # budget = total_tokens // 5
_TBS_BUCKETS = 256


def q_token_budget_sample(sf_dir: str):
    """(doc_id, n_tok, prefix_tokens) for every SELECTED doc — those
    whose exclusive prefix sum of tokens (in (md5 key, doc_id) order)
    is below total_tokens // 5."""
    from ray.data.aggregate import Sum as _Sum

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        keys = [
            hashlib.md5(f"{TBS_SEED}{int(i)}".encode("utf-8")).hexdigest()
            for i in ids
        ]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "key": keys,
                "bucket": pd.Series([int(k[:2], 16) for k in keys], dtype=np.int64),
                "n_tok": pd.Series(
                    [len(t.split(" ")) for t in df["text"]], dtype=np.int64
                ),
            }
        )

    def bucket_sums(df: pd.DataFrame) -> pd.DataFrame:
        s = np.zeros(_TBS_BUCKETS, dtype=np.int64)
        np.add.at(s, df["bucket"].to_numpy(), df["n_tok"].to_numpy())
        return pd.DataFrame(
            {
                "bucket": pd.Series(range(_TBS_BUCKETS), dtype=np.int64),
                "s": pd.Series(s, dtype=np.int64),
            }
        )

    # hash + tokenize ONCE: the ~56-byte (doc_id, key, bucket, n_tok)
    # projection is materialized and drives both the counts pass and the
    # selection exchange (the sequence_pack pattern — bodies are read
    # once, never twice)
    kd = d.map_batches(keyed, batch_format="pandas").materialize()
    sums = (
        kd.map_batches(bucket_sums, batch_format="pandas")
        .groupby("bucket")
        .aggregate(_Sum("s", alias_name="s"))
        .to_pandas()
    )  # <= 256 rows — fixed-size driver reduce
    if sums.empty:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "n_tok": pd.Series([], dtype=np.int64),
                "prefix_tokens": pd.Series([], dtype=np.int64),
            }
        )
    full = np.zeros(_TBS_BUCKETS, dtype=np.int64)
    full[sums["bucket"].to_numpy()] = sums["s"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])
    budget = int(full.sum()) // TBS_BUDGET_DEN

    def select(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id"], kind="mergesort")
        b = int(g["bucket"].iloc[0])
        n = g["n_tok"].to_numpy()
        prefix = offsets[b] + np.concatenate([[0], np.cumsum(n)[:-1]])
        take = prefix < budget
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy()[take].astype(np.int64),
                "n_tok": n[take],
                "prefix_tokens": prefix[take],
            }
        )

    return kd.groupby("bucket").map_groups(select, batch_format="pandas")


TOKEN_BUDGET_SAMPLE_SQL = f"""
WITH k AS (
  SELECT doc_id,
         md5('{TBS_SEED}' || CAST(doc_id AS VARCHAR)) AS key,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tok
  FROM documents),
tot AS (SELECT SUM(n_tok) AS t FROM k),
c AS (
  SELECT doc_id, n_tok,
         COALESCE(SUM(n_tok) OVER (ORDER BY key, doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS prefix_tokens
  FROM k)
SELECT doc_id, n_tok, CAST(prefix_tokens AS BIGINT) AS prefix_tokens
FROM c, tot WHERE prefix_tokens < t // {TBS_BUDGET_DEN}
"""


# ==================== WebDataset tar-shard round trip (training I/O)
#
# The tar-of-samples layout (WebDataset) every multimodal trainer
# streams: each sample is a basename with one member per modality
# ({id}.txt body + {id}.json metadata), shards are plain tar files, and
# the SHARD is the parallelism unit — readers stream members
# sequentially, no random access needed, which is why the format wins
# on object stores.

WDS_N_SHARDS = 8


def q_webdataset_roundtrip(sf_dir: str, n_shards: int = WDS_N_SHARDS):
    """documents → tar shards (two members per sample, sorted by
    basename as WebDataset requires) → distributed read-back (one task
    per shard, the read_warc pattern) → md5-verified text + metadata.
    Emits (doc_id, text, lang) — the oracle is the documents table."""
    import io
    import json
    import tarfile

    import pyarrow.parquet as _pq

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
        }
    )
    if _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows == 0:
        return ray.data.from_arrow(empty)

    shard_dir = os.path.join(
        "/tmp",
        "europarl_wds_" + hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10],
    )
    shutil.rmtree(shard_dir, ignore_errors=True)
    os.makedirs(shard_dir)
    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def add_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return t.append_column(
            "_g",
            _pc.cast(_pc.bit_wise_and(t.column("doc_id"), n_shards - 1), pa.int32()),
        )

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["_g"].iloc[0])
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            for did, txt, lang in sorted(
                zip(g["doc_id"], g["text"], g["lang"]),
                key=lambda r: f"{int(r[0]):012d}",
            ):
                for ext, payload in (
                    ("txt", txt.encode("utf-8")),
                    ("json", json.dumps({"lang": lang}).encode("utf-8")),
                ):
                    info = tarfile.TarInfo(name=f"{int(did):012d}.{ext}")
                    info.size = len(payload)
                    info.mtime = 0  # deterministic shard bytes
                    tf.addfile(info, io.BytesIO(payload))
        tmp = os.path.join(shard_dir, f".shard_{b:03d}.tmp")
        with open(tmp, "wb") as f:
            f.write(buf.getvalue())
        os.replace(tmp, os.path.join(shard_dir, f"shard_{b:03d}.tar"))
        return pd.DataFrame({"n": [len(g)]})

    n = (
        docs.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(write_shard, batch_format="pandas")
        .sum("n")
    )
    if not n:
        return ray.data.from_arrow(empty)

    paths = sorted(
        os.path.join(shard_dir, f) for f in os.listdir(shard_dir) if f.endswith(".tar")
    )

    def read_shard(t: pa.Table) -> pa.Table:
        ids, texts, langs = [], [], []
        for path in t.column("path").to_pylist():
            samples: dict[str, dict] = {}
            with tarfile.open(path, mode="r") as tf:
                for m in tf:  # stream members in shard order
                    base, _, ext = m.name.rpartition(".")
                    samples.setdefault(base, {})[ext] = tf.extractfile(m).read()
            for base in sorted(samples):
                s = samples[base]
                ids.append(int(base))
                texts.append(s["txt"].decode("utf-8"))
                langs.append(json.loads(s["json"].decode("utf-8"))["lang"])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        )

    # one fused read+parse task per shard — the file is the parallelism
    # unit, exactly like sources/warc.read_warc
    return ray.data.from_arrow(
        pa.table({"path": pa.array(paths, pa.string())})
    ).map_batches(read_shard, batch_format="pyarrow", batch_size=1)


WEBDATASET_ROUNDTRIP_SQL = "SELECT doc_id, text, lang FROM documents"


# ==================================================== span_mask_stats
#
# T5/UL2-style span-corruption bookkeeping, deterministic: token
# position i starts a mask span iff md5('sm:'||doc||':'||i) % 20 == 0
# (≈5% starts × span length 3 ≈ 15% corruption); overlapping spans
# merge (the same gaps-and-islands union as exact_substr_spans), so
# n_masked is the TRUE corrupted-token count the training loader would
# produce, not starts × length. Pure per-doc map — embarrassingly
# parallel, no exchange at all; the per-position md5 is the
# epoch_shuffle string-kernel floor.

SPAN_MASK_MOD = 20
SPAN_MASK_LEN = 3


def q_span_mask_stats(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        ids, n_tok, n_sp, n_mask = [], [], [], []
        import re

        tok_re = re.compile(r"[^ \t\n\r\f]+")  # the oracle's exact class
        for did, txt in zip(df["doc_id"].to_numpy(np.int64), df["text"]):
            n = len(tok_re.findall((txt or "").lower()))
            ids.append(int(did))
            n_tok.append(n)
            if not n:
                n_sp.append(0)
                n_mask.append(0)
                continue
            keys = [f"sm:{int(did)}:{i}" for i in range(1, n + 1)]
            h = md5_hash64(keys) % SPAN_MASK_MOD
            p = np.nonzero(h == 0)[0] + 1  # 1-based start positions
            if not p.size:
                n_sp.append(0)
                n_mask.append(0)
                continue
            end = np.minimum(p + SPAN_MASK_LEN, n + 1)
            run_end = np.maximum.accumulate(end)
            starts = np.concatenate(([True], p[1:] > run_end[:-1]))
            last = np.concatenate((starts[1:], [True]))
            n_sp.append(int(starts.sum()))
            n_mask.append(int((run_end[last] - p[starts]).sum()))
        out = pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": pd.Series(n_tok, dtype="int64"),
                "n_spans": pd.Series(n_sp, dtype="int64"),
                "n_masked": pd.Series(n_mask, dtype="int64"),
            }
        )
        out["mask_bp"] = np.where(
            out["n_tokens"] > 0,
            out["n_masked"] * 10000 // np.maximum(out["n_tokens"], 1),
            0,
        ).astype(np.int64)
        return out

    return d.map_batches(stats, batch_format="pandas")


SPAN_MASK_STATS_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
  FROM documents),
pos AS (
  SELECT doc_id, len(ws) AS n, unnest(range(1, len(ws) + 1)) AS i
  FROM w WHERE len(ws) > 0),
st AS (
  SELECT doc_id, n, i AS p,
         LEAST(i + {SPAN_MASK_LEN}, n + 1) AS e
  FROM pos
  WHERE CAST(concat('0x', substr(md5('sm:' || CAST(doc_id AS VARCHAR) || ':'
        || CAST(i AS VARCHAR)), 1, 16)) AS UBIGINT) % {SPAN_MASK_MOD} = 0),
x AS (
  SELECT doc_id, p, e,
         MAX(e) OVER (PARTITION BY doc_id ORDER BY p
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_end
  FROM st),
g AS (
  SELECT doc_id, p, e,
         SUM(CASE WHEN prev_end IS NULL OR p > prev_end THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY p) AS isl
  FROM x),
spans AS (SELECT doc_id, isl, MIN(p) AS s, MAX(e) AS e2
          FROM g GROUP BY 1, 2),
cov AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
               CAST(SUM(e2 - s) AS BIGINT) AS n_masked
        FROM spans GROUP BY 1),
toks AS (SELECT doc_id, CAST(len(ws) AS BIGINT) AS n_tokens FROM w)
SELECT CAST(t.doc_id AS BIGINT) AS doc_id, t.n_tokens,
       COALESCE(c.n_spans, 0) AS n_spans,
       COALESCE(c.n_masked, 0) AS n_masked,
       CAST(CASE WHEN t.n_tokens > 0
            THEN COALESCE(c.n_masked, 0) * 10000 // t.n_tokens
            ELSE 0 END AS BIGINT) AS mask_bp
FROM toks t LEFT JOIN cov c USING (doc_id)
"""


# =========================================== perplexity_buckets (CCNet)
#
# CCNet's head/middle/tail split (Wenzek et al. 2020): per language,
# rank every scoreable document by its LM coverage score (bigram-LM
# score_bp = n_hits·10000 // n_bigrams, q_bigram_lm_score's signal)
# and cut the ranking into NTILE(3) terciles — bucket 1 = head (worst
# coverage under this orientation), 3 = tail. Reports the per-bucket
# census (count, score sum, min/max) a curation pipeline reads before
# choosing which tercile feeds training.
#
# Scale shape: the model build is _bigram_model_df's bounded-K plan;
# scoring emits per-batch (lang, score_bp) HISTOGRAM partials — the
# score domain is ≤ 10001 values so the collected histogram is
# domain-bounded (≤ |langs|·10001 rows), never corpus-bounded — and
# the NTILE census is exact driver math over the histogram: every doc
# in one boundary cell shares the same score, so count/sum/min/max per
# bucket are derivable without ever ranking individual docs. No
# per-doc exchange exists in the whole plan.

PB_NTILES = 3


def q_perplexity_buckets(sf_dir: str, k: int = BIGRAM_MODEL_K):
    d = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    out_empty = pd.DataFrame(
        {
            "lang": pd.Series(dtype=str),
            "bucket": pd.Series(dtype=np.int64),
            "n_docs": pd.Series(dtype=np.int64),
            "sum_score_bp": pd.Series(dtype=np.int64),
            "min_score_bp": pd.Series(dtype=np.int64),
            "max_score_bp": pd.Series(dtype=np.int64),
        }
    )
    model_df = _bigram_model_df(d, k)
    if model_df.empty:
        return out_empty
    model_ref = ray.put(frozenset(model_df["bigram"].tolist()))

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        doc, bigrams = _exploded_bigrams(df)
        cols = {"lang": str, "score_bp": np.int64, "n_part": np.int64}
        if not len(doc):
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in cols.items()}
            )
        model = ray.get(model_ref)
        hit = bigrams.isin(model).to_numpy()
        per_doc = (
            pd.DataFrame({"doc_id": doc, "hit": hit.astype(np.int64)})
            .groupby("doc_id", as_index=False)
            .agg(nb=("hit", "size"), nh=("hit", "sum"))
        )
        lang = dict(zip(df["doc_id"].astype(np.int64), df["lang"]))
        per_doc["lang"] = per_doc["doc_id"].map(lang)
        per_doc["score_bp"] = (
            per_doc["nh"].to_numpy(np.int64) * 10000
            // per_doc["nb"].to_numpy(np.int64)
        )
        out = (
            per_doc.groupby(["lang", "score_bp"], as_index=False)
            .size()
            .rename(columns={"size": "n_part"})
        )
        return out.astype({"score_bp": np.int64, "n_part": np.int64})

    hist = (
        d.map_batches(hist_partial, batch_format="pandas")
        .groupby(["lang", "score_bp"])
        .aggregate(Sum("n_part", alias_name="n"))
        .to_pandas()  # domain-bounded: <= |langs| * 10001 rows
    )
    if not len(hist):
        return out_empty
    rows = []
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("score_bp")
        scores = g["score_bp"].to_numpy(np.int64)
        counts = g["n"].to_numpy(np.int64)
        n = int(counts.sum())
        sizes = [n // PB_NTILES + (1 if i <= n % PB_NTILES else 0)
                 for i in range(1, PB_NTILES + 1)]
        cuts = np.cumsum(sizes)  # 1-indexed rank <= cuts[b] -> bucket b+1
        cum = 0
        agg = {
            b: [0, 0, None, None] for b in range(1, PB_NTILES + 1)
        }  # n, sum, min, max
        for s, m in zip(scores.tolist(), counts.tolist()):
            lo, hi = cum + 1, cum + m  # rank span of this score cell
            for b in range(1, PB_NTILES + 1):
                b_lo = 1 if b == 1 else int(cuts[b - 2]) + 1
                b_hi = int(cuts[b - 1])
                take = max(0, min(hi, b_hi) - max(lo, b_lo) + 1)
                if take:
                    a = agg[b]
                    a[0] += take
                    a[1] += take * s
                    a[2] = s if a[2] is None else min(a[2], s)
                    a[3] = s if a[3] is None else max(a[3], s)
            cum = hi
        for b, (nn, ss, mn, mx) in agg.items():
            if nn:
                rows.append((lang, b, nn, ss, mn, mx))
    return (
        pd.DataFrame(
            rows,
            columns=[
                "lang",
                "bucket",
                "n_docs",
                "sum_score_bp",
                "min_score_bp",
                "max_score_bp",
            ],
        )
        .astype(
            {
                "bucket": np.int64,
                "n_docs": np.int64,
                "sum_score_bp": np.int64,
                "min_score_bp": np.int64,
                "max_score_bp": np.int64,
            }
        )
        .sort_values(["lang", "bucket"])
        .reset_index(drop=True)
    )


PERPLEXITY_BUCKETS_SQL = rf"""
WITH w AS (
  SELECT doc_id, lang, regexp_extract_all(lower(text), '{_TOKEN_PATTERN}') AS ws
  FROM documents),
bg AS (
  SELECT doc_id, lang,
         unnest(list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])) AS bigram
  FROM w WHERE len(ws) >= 2),
model AS (
  SELECT bigram FROM (SELECT bigram, COUNT(*) AS n FROM bg GROUP BY 1)
  ORDER BY n DESC, bigram ASC LIMIT {BIGRAM_MODEL_K}),
sc AS (
  SELECT bg.doc_id, bg.lang,
         CAST(SUM(CASE WHEN m.bigram IS NOT NULL THEN 1 ELSE 0 END) * 10000
              // COUNT(*) AS BIGINT) AS score_bp
  FROM bg LEFT JOIN model m USING (bigram)
  GROUP BY bg.doc_id, bg.lang),
nt AS (
  SELECT lang, score_bp,
         NTILE({PB_NTILES}) OVER (
           PARTITION BY lang ORDER BY score_bp, doc_id) AS bucket
  FROM sc)
SELECT lang, CAST(bucket AS BIGINT) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(score_bp) AS BIGINT) AS sum_score_bp,
       CAST(MIN(score_bp) AS BIGINT) AS min_score_bp,
       CAST(MAX(score_bp) AS BIGINT) AS max_score_bp
FROM nt GROUP BY 1, 2
"""


TRAINING_SQL_QUERIES: dict[str, tuple] = {
    "perplexity_buckets": (q_perplexity_buckets, PERPLEXITY_BUCKETS_SQL, "selection"),
    "webdataset_roundtrip": (q_webdataset_roundtrip, WEBDATASET_ROUNDTRIP_SQL, "training"),
    "token_budget_sample": (q_token_budget_sample, TOKEN_BUDGET_SAMPLE_SQL, "selection"),
    "corpus_to_shards": (q_corpus_to_shards, _corpus_to_shards_sql(), "engine"),
    "bigram_lm_score": (q_bigram_lm_score, BIGRAM_LM_SCORE_SQL, "training"),
    "chunk_docs": (q_chunk_docs, CHUNK_DOCS_SQL, "training"),
    "train_shards": (q_train_shards, TRAIN_SHARDS_SQL, "training"),
    "upsert_merge": (q_upsert_merge, UPSERT_MERGE_SQL, "training"),
    "csv_roundtrip": (q_csv_roundtrip, CSV_ROUNDTRIP_SQL, "training"),
    "avro_roundtrip": (q_avro_roundtrip, AVRO_ROUNDTRIP_SQL, "training"),
    "orc_roundtrip": (q_orc_roundtrip, ORC_ROUNDTRIP_SQL, "training"),
    "ipc_roundtrip": (q_ipc_roundtrip, IPC_ROUNDTRIP_SQL, "training"),
    "sequence_pack": (q_sequence_pack, SEQUENCE_PACK_SQL, "training"),
    "span_mask_stats": (q_span_mask_stats, SPAN_MASK_STATS_SQL, "training"),
    "lm_removal_curve": (q_lm_removal_curve, _lm_removal_sql(), "selection"),
}
