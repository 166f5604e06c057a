"""Corpus-lifecycle / curation operators (round-3 batch 5): tokenizer-
vocabulary OOV coverage, leakage-safe train/val/test splitting, and
schema-evolution (union-by-name) snapshot ingest.

All three SQL-oracled; scale idioms per pipelines/grouping.py. The split
query composes the existing distributed connected-components operator
(ml_queries.q_dedup_clusters) — near-duplicates must never straddle a
train/test boundary, the canonical training-data-hygiene rule.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .._util import read_table as _read
from ..functions.dedup import md5_hash64
from .grouping import partitioned_anti_join
from .grouping import with_coarse_group as _with_coarse_group


# ====================================================== OOV coverage
#
# Tokenizer-vocabulary coverage: build the top-K global vocabulary
# (count DESC, token ASC — deterministic), then score every document's
# out-of-vocabulary rate against it. K is FIXED, so the vocabulary is
# broadcastable at any corpus scale; only the token-count aggregation
# exchanges (with a per-batch value_counts combiner).

OOV_VOCAB_K = 20


def q_oov_rate(sf_dir: str, k: int = OOV_VOCAB_K):
    """(doc_id, n_tokens, n_oov, oov_bp): per-doc OOV tokens vs the
    corpus top-k vocabulary; rate as integer basis points so the oracle
    is exact. Tokens are raw single-space splits (string_split parity,
    '' splits to [''])."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame(
            {"token": vc.index.astype(str), "part_n": vc.to_numpy().astype(np.int64)}
        )

    def sum_tokens(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("token", as_index=False)["part_n"].sum()
        return out.rename(columns={"part_n": "n"}).astype({"n": np.int64})

    vocab_df = (
        _with_coarse_group(
            d.map_batches(partial_counts, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(lambda g: sum_tokens(g.drop(columns=["_g"])), batch_format="pandas")
        .sort(["n", "token"], descending=[True, False])
        .limit(k)
        .to_pandas()  # k rows — fixed-size driver collect by construction
    )
    vocab = frozenset(vocab_df["token"]) if len(vocab_df) else frozenset()

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = [t.split(" ") for t in df["text"]]
        n_tok = np.array([len(ts) for ts in toks], dtype=np.int64)
        n_oov = np.array(
            [sum(1 for w in ts if w not in vocab) for ts in toks], dtype=np.int64
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "n_tokens": n_tok,
                "n_oov": n_oov,
                "oov_bp": n_oov * 10000 // n_tok,  # split('') -> [''] so n_tok >= 1
            }
        )

    return d.map_batches(score, batch_format="pandas")


OOV_RATE_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
vocab AS (
  SELECT tok FROM (
    SELECT tok, ROW_NUMBER() OVER (ORDER BY count(*) DESC, tok ASC) AS rn
    FROM toks GROUP BY tok) WHERE rn <= {OOV_VOCAB_K}),
j AS (
  SELECT t.doc_id, CASE WHEN v.tok IS NULL THEN 1 ELSE 0 END AS oov
  FROM toks t LEFT JOIN vocab v USING (tok))
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(oov) AS BIGINT) AS n_oov,
       CAST(sum(oov) * 10000 // count(*) AS BIGINT) AS oov_bp
FROM j GROUP BY doc_id
"""


# =============================================== leakage-safe split
#
# Train/val/test assignment BY NEAR-DUP CLUSTER, not by document: every
# member of a connected component of the MinHash candidate graph lands
# in the same split (md5 of the cluster id), so no near-duplicate of a
# test document can leak into train.

SPLIT_SALT = "split|"


def q_leakage_safe_split(sf_dir: str, n_buckets: int = 32):
    """(doc_id, cluster_id, split): cluster ids from the distributed
    connected-components operator (q_dedup_clusters — iterative bucketed
    label exchanges); docs in no candidate pair are their own singleton
    cluster via the shared partitioned ANTI-join (never a driver-side
    set); split = md5(salt||cluster_id) % 10 → 8/1/1."""
    from .ml_queries import q_dedup_clusters

    clustered = q_dedup_clusters(sf_dir).map_batches(
        lambda t: t.select(["doc_id", "cluster_id"]), batch_format="pyarrow"
    )
    docs = _read(sf_dir, "documents", columns=["doc_id"])
    singletons = partitioned_anti_join(
        docs, clustered, "doc_id", "doc_id", "doc_id", n_buckets
    ).map_batches(
        lambda t: t.append_column("cluster_id", t.column("doc_id")),
        batch_format="pyarrow",
    )

    def assign(t: pa.Table) -> pa.Table:
        cids = t.column("cluster_id").to_numpy()
        m = md5_hash64([f"{SPLIT_SALT}{int(c)}" for c in cids]) % np.uint64(10)
        split = np.where(m < 8, "train", np.where(m == 8, "val", "test"))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "cluster_id": t.column("cluster_id"),
                "split": pa.array(split.tolist(), pa.string()),
            }
        )

    return clustered.union(singletons).map_batches(assign, batch_format="pyarrow")


def _leakage_safe_split_sql() -> str:
    from .ml_queries import _dedup_clusters_sql

    base = _dedup_clusters_sql()
    head, _, _tail = base.rpartition("SELECT u AS doc_id, CAST(MIN(v) AS BIGINT)")
    return (
        head
        + """, comp AS (SELECT u, CAST(MIN(v) AS BIGINT) AS cid FROM reach GROUP BY u),
lab AS (
  SELECT d.doc_id, coalesce(c.cid, d.doc_id) AS cluster_id
  FROM documents d LEFT JOIN comp c ON c.u = d.doc_id),
m AS (
  SELECT doc_id, cluster_id,
         CAST(concat('0x', substr(md5('"""
        + SPLIT_SALT
        + """' || CAST(cluster_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 10 AS b
  FROM lab)
SELECT doc_id, cluster_id,
       CASE WHEN b < 8 THEN 'train' WHEN b = 8 THEN 'val' ELSE 'test' END AS split
FROM m
"""
    )


# ============================================ schema-evolution ingest
#
# Crawl snapshots evolve: later dumps carry columns earlier ones lack.
# Write two deterministic snapshot generations (v1: doc_id+text; v2:
# doc_id+text+lang), read them back, and union BY NAME with NULL fill —
# the read path a 100-TB multi-generation corpus actually needs.


def q_schema_evolution(sf_dir: str):
    """(doc_id, lang, snapshot, n_chars_read) across both snapshot
    generations; lang is NULL for v1 rows. Each snapshot is written
    distributed (one shard per hash bucket) and read back with
    read_parquet — the oracle recomputes the generation rule from the
    documents table."""
    base_dir = os.path.join(
        "/tmp",
        "europarl_schemaevo_"
        + hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10],
    )
    shutil.rmtree(base_dir, ignore_errors=True)
    v1_dir, v2_dir = os.path.join(base_dir, "v1"), os.path.join(base_dir, "v2")

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def even(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0)
        ).select(["doc_id", "text"])

    def odd(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 1))

    docs.map_batches(even, batch_format="pyarrow").write_parquet(v1_dir)
    docs.map_batches(odd, batch_format="pyarrow").write_parquet(v2_dir)

    def widen_v1(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": pa.nulls(n, pa.string()),
                "snapshot": pa.array(["v1"] * n, pa.string()),
                "n_chars_read": pc.cast(
                    pc.utf8_length(t.column("text")), pa.int64()
                ),
            }
        )

    def widen_v2(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "snapshot": pa.array(["v2"] * t.num_rows, pa.string()),
                "n_chars_read": pc.cast(
                    pc.utf8_length(t.column("text")), pa.int64()
                ),
            }
        )

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                    "snapshot": pa.array([], pa.string()),
                    "n_chars_read": pa.array([], pa.int64()),
                }
            )
        )

    def _snapshot(path: str, widen) -> ray.data.Dataset:
        # empty input may leave no parquet files behind; read_parquet on
        # a fileless dir raises, so substitute the typed empty
        files = os.listdir(path) if os.path.isdir(path) else []
        if not any(f.endswith(".parquet") for f in files):
            return _empty()
        return ray.data.read_parquet(path).map_batches(widen, batch_format="pyarrow")

    return _snapshot(v1_dir, widen_v1).union(_snapshot(v2_dir, widen_v2))


SCHEMA_EVOLUTION_SQL = """
SELECT doc_id,
       CASE WHEN doc_id % 2 = 0 THEN NULL ELSE lang END AS lang,
       CASE WHEN doc_id % 2 = 0 THEN 'v1' ELSE 'v2' END AS snapshot,
       CAST(length(text) AS BIGINT) AS n_chars_read
FROM documents
"""


# ===================== proportional source interleave (data mixing)
#
# The multi-source mixing order LLM trainers stream: each source s has
# an integer weight w_s; doc number r of a source is scheduled at
# virtual time (r+1)·D // w_s, so heavier sources appear
# proportionally more often in any prefix of the (vtime, source, rank)
# order. Fully deterministic (md5 within-source order), no RNG.

MIX_DENOM = 6


def mix_weight(source: str) -> int:
    """1 + (source number % 3) — the deterministic demo weight map
    (swap for a real mixture config in production)."""
    return 1 + int(source[3:]) % 3 if source[3:].isdigit() else 1


def q_mix_interleave(sf_dir: str):
    """(doc_id, source, rank_in_source, vtime): sorting by (vtime,
    source, rank_in_source) IS the training stream order.

    Scale shape: within-source ranks via the terasort prefix machinery
    generalized per source — counts reduce to a (n_sources × 256)
    offset table (sources are a schema-bounded dimension), one exchange
    on (source, key-prefix bucket) ranks every source's docs
    vectorized."""

    d = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        keys = [
            hashlib.md5(f"mix|{int(i)}".encode("utf-8")).hexdigest() for i in ids
        ]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "source": df["source"].to_numpy(),
                "key": keys,
                "bucket": pd.Series([int(k[:2], 16) for k in keys], dtype=np.int64),
            }
        )

    kd = d.map_batches(keyed, batch_format="pandas").materialize()

    def counts_part(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["source", "bucket"], as_index=False).size()
        out.columns = ["source", "bucket", "n_part"]
        return out.astype({"bucket": np.int64, "n_part": np.int64})

    def counts_merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["source", "bucket"], as_index=False)["n_part"].sum()
        out.columns = ["source", "bucket", "n"]
        return out.astype({"bucket": np.int64, "n": np.int64})

    # Ray groupby on source ONLY (|sources| groups; a (source, bucket)
    # key costs 256x more Ray groups for the same bounded result)
    counts = (
        kd.map_batches(counts_part, batch_format="pandas")
        .groupby("source")
        .map_groups(counts_merge, batch_format="pandas")
        .to_pandas()
    )  # n_sources × 256 rows — schema-bounded reduce
    if counts.empty:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "source": pd.Series([], dtype=object),
                "rank_in_source": pd.Series([], dtype=np.int64),
                "vtime": pd.Series([], dtype=np.int64),
            }
        )
    counts = counts.sort_values(["source", "bucket"])
    counts["offset"] = counts.groupby("source")["n"].cumsum() - counts["n"]
    offsets = {
        (s, int(b)): int(o)
        for s, b, o in zip(counts["source"], counts["bucket"], counts["offset"])
    }

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id"], kind="mergesort")
        src = g["source"].iloc[0]
        off = offsets[(src, int(g["bucket"].iloc[0]))]
        rs = off + np.arange(len(g), dtype=np.int64)
        w = mix_weight(src)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy().astype(np.int64),
                "source": g["source"].to_numpy(),
                "rank_in_source": rs,
                "vtime": (rs + 1) * MIX_DENOM // w,
            }
        )

    def rank_groups(outer: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [rank_group(sub) for _, sub in outer.groupby(["source", "bucket"])],
            ignore_index=True,
        )

    # co-locate on the bucket ONLY (256 Ray groups); every source's
    # slice of a bucket is ranked by the inner pandas groupby above
    return kd.groupby("bucket").map_groups(rank_groups, batch_format="pandas")


MIX_INTERLEAVE_SQL = f"""
WITH r AS (
  SELECT doc_id, source,
         CAST(ROW_NUMBER() OVER (PARTITION BY source
                ORDER BY md5('mix|' || CAST(doc_id AS VARCHAR)), doc_id) - 1
           AS BIGINT) AS rank_in_source,
         CASE WHEN regexp_matches(substr(source, 4), '^[0-9]+$')
              THEN 1 + CAST(substr(source, 4) AS BIGINT) % 3 ELSE 1 END AS w
  FROM documents)
SELECT doc_id, source, rank_in_source,
       CAST((rank_in_source + 1) * {MIX_DENOM} // w AS BIGINT) AS vtime
FROM r
"""


# ============================== row-level error isolation (quarantine)
#
# The no-poison-pill pattern: at 100 TB a handful of malformed records
# per billion is a certainty, and a parser exception must cost ONE ROW
# routed to a quarantine column, never a failed block (whose retry would
# re-hit the same record and wedge the pipeline). The strict parse runs
# per record inside the try; everything around it stays vectorized. The
# poison set is md5-deterministic so the DuckDB oracle reproduces the
# exact quarantine decisions and the error taxonomy.

QUARANTINE_MOD = 23


def _doc_payload(doc_id: int, text: str) -> str:
    """Per-doc JSON payload; a deterministic md5 subset is TRUNCATED
    mid-structure (what a crashed upstream writer leaves behind)."""
    import json as _json

    payload = _json.dumps({"id": int(doc_id), "body": text})
    h = int(hashlib.md5(f"poison|{int(doc_id)}".encode()).hexdigest()[:16], 16)
    if h % QUARANTINE_MOD == 0:
        return payload[: max(1, len(payload) // 2)]
    return payload


def q_quarantine_extract(sf_dir: str):
    """(doc_id, status, err_class, body_md5): strict-parse every doc's
    JSON payload; malformed records land in quarantine with an error
    class instead of failing the block. status ∈ {ok, quarantined};
    body_md5 = md5 of the parsed body for ok rows, '' otherwise.

    Scale shape: pure per-batch map; the try/except wraps exactly one
    record's parse (the string-kernel floor any real parser pays)."""
    import json as _json

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        status, err, md5s = [], [], []
        for did, txt in zip(ids, df["text"].fillna("")):
            raw = _doc_payload(int(did), txt)
            try:
                body = _json.loads(raw)["body"]
                status.append("ok")
                err.append("")
                md5s.append(hashlib.md5(body.encode("utf-8")).hexdigest())
            except (ValueError, KeyError) as exc:  # one row, never the block
                status.append("quarantined")
                err.append(type(exc).__name__)
                md5s.append("")
        return pd.DataFrame(
            {
                "doc_id": ids,
                "status": pd.Series(status, dtype=object),
                "err_class": pd.Series(err, dtype=object),
                "body_md5": pd.Series(md5s, dtype=object),
            }
        )

    return d.map_batches(parse, batch_format="pandas")


QUARANTINE_EXTRACT_SQL = f"""
WITH h AS (
  SELECT doc_id, text,
    CAST(concat('0x', substr(md5('poison|' || CAST(doc_id AS VARCHAR)), 1, 16))
      AS UBIGINT) % {QUARANTINE_MOD} AS r
  FROM documents)
SELECT doc_id,
  CASE WHEN r = 0 THEN 'quarantined' ELSE 'ok' END AS status,
  CASE WHEN r = 0 THEN 'JSONDecodeError' ELSE '' END AS err_class,
  CASE WHEN r = 0 THEN '' ELSE md5(text) END AS body_md5
FROM h
"""


CURATION_SQL_QUERIES: dict[str, tuple] = {
    "quarantine_extract": (q_quarantine_extract, QUARANTINE_EXTRACT_SQL, "selection"),
    "mix_interleave": (q_mix_interleave, MIX_INTERLEAVE_SQL, "selection"),
    "oov_rate": (q_oov_rate, OOV_RATE_SQL, "selection"),
    "leakage_safe_split": (q_leakage_safe_split, _leakage_safe_split_sql(), "selection"),
    "schema_evolution": (q_schema_evolution, SCHEMA_EVOLUTION_SQL, "backlog"),
}
