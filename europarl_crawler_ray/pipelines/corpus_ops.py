"""Corpus-analytics operators (round-3 additions): inverted index,
cross-document duplicate-n-gram coverage, benchmark-contamination check,
and text normalization.

All four are SQL-oracled (driver gate) and follow the repo's scale
idioms: per-batch combiners, coarse-hash exchanges for data-scaled keys
(see pipelines/grouping.py for the measured per-group Ray cost), and
bounded driver reductions only for provably-small sets (the B=8
benchmark sample, mirroring ann_ivf's md5-ranked centroid selection).
"""

from __future__ import annotations

import hashlib
import re
import unicodedata

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read
from ..functions.dedup import md5_hash31, shingle_strings
from .grouping import global_prune
from .grouping import with_coarse_group as _with_coarse_group


_TOKEN_RE = re.compile(r"[^ \t\n\r\f]+")
_WS_RUN_RE = re.compile(r"[ \t\n\r\f]+")


# ======================================================== inverted index

POSTINGS_K = 8


def q_inverted_index(sf_dir: str, k: int = POSTINGS_K):
    """Search-index building block: per term, document frequency, total
    term frequency, and a bounded posting list (the ``k`` smallest
    doc_ids, comma-joined — capped so output stays row-shaped at any
    corpus size; a real index would write the full postings columnar).

    Scale shape: per-batch (doc, term) tf combiner (each doc lives in
    one batch, so (doc, term) rows are globally unique — same invariant
    tfidf_topk relies on), ONE coarse-hash exchange on ``term``, then
    df/tf/postings computed vectorized per task (cumcount head-k; the
    per-term string join is a string-kernel floor, bounded at k ids)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (
            df.set_index("doc_id")["text"]
            .str.lower()
            .str.findall(_TOKEN_RE)
            .explode()
            .dropna()
        )
        g = toks.reset_index().groupby(["doc_id", "text"], as_index=False).size()
        g.columns = ["doc_id", "term", "tf"]
        return g.astype({"tf": np.int64})

    def per_term(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"]).sort_values(["term", "doc_id"], kind="mergesort")
        agg = g.groupby("term", as_index=False).agg(
            df=("doc_id", "size"), tf_total=("tf", "sum")
        )
        top = g[g.groupby("term").cumcount() < k].copy()
        top["s"] = top["doc_id"].astype(str)
        postings = top.groupby("term", as_index=False)["s"].agg(",".join)
        out = agg.merge(postings, on="term").rename(columns={"s": "postings"})
        return out.astype({"df": np.int64, "tf_total": np.int64})

    tf = d.map_batches(tf_partial, batch_format="pandas")
    return (
        _with_coarse_group(tf, "term")
        .groupby("_g")
        .map_groups(per_term, batch_format="pandas")
    )


INVERTED_INDEX_SQL = rf"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf FROM tok GROUP BY 1, 2),
agg AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
               CAST(SUM(tf) AS BIGINT) AS tf_total FROM tf GROUP BY 1),
rk AS (SELECT term, doc_id,
              ROW_NUMBER() OVER (PARTITION BY term ORDER BY doc_id) AS rn FROM tf),
post AS (SELECT term, string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
         FROM rk WHERE rn <= {POSTINGS_K} GROUP BY 1)
SELECT agg.term, agg.df, agg.tf_total, post.postings
FROM agg JOIN post ON agg.term = post.term
"""


# ===================== cross-document duplicate n-gram coverage (dedup QA)

DUP_NGRAM_N = 5


def _word_grams(text: str, n: int = DUP_NGRAM_N) -> list[str]:
    """All n-token window strings (lowercased); <n tokens → []. Mirrors
    the oracle's list_transform over range(1, len-n+2)."""
    words = _TOKEN_RE.findall(text.lower())
    if len(words) < n:
        return []
    return [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]


def q_dup_ngram_coverage(sf_dir: str, n: int = DUP_NGRAM_N):
    """The exact-substring-dedup signal (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better", §4 — approximated at
    n-gram granularity): per document, how many of its n-gram positions
    are covered by an n-gram that also appears in ANOTHER document.
    Emits (doc_id, n_pos, n_dup_pos) for docs with ≥n tokens; the dup
    fraction is the usual removal-candidate score.

    Scale shape — the corpus-wide gram-frequency table is never held
    anywhere whole: per-batch (gram-hash, doc, pos-count) combiner
    (grams deduped per doc via np.unique), coarse-hash exchange on the
    GRAM key where cross-doc multiplicity is decided and immediately
    re-reduced to per-doc partials, then a second coarse exchange on
    doc_id sums the partials. Two narrow-row exchanges, no broadcast."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids, hs, cs = [], [], []
        for did, txt in zip(df["doc_id"].to_numpy(), df["text"]):
            grams = _word_grams(txt, n)
            if not grams:
                continue
            h, c = np.unique(md5_hash31(grams), return_counts=True)
            ids.append(np.full(h.size, did, dtype=np.int64))
            hs.append(h.astype(np.int64))
            cs.append(c.astype(np.int64))
        if not ids:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "h": pd.Series([], dtype=np.int64),
                    "c": pd.Series([], dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(ids),
                "h": np.concatenate(hs),
                "c": np.concatenate(cs),
            }
        )

    def mark_dup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"])
        # (h, doc_id) rows are globally unique (per-doc np.unique + one
        # doc per batch), so rows-per-h == distinct docs containing h
        ndocs = g.groupby("h")["h"].transform("size")
        dup_c = np.where(ndocs.to_numpy() >= 2, g["c"].to_numpy(), 0)
        out = g.assign(dup_c=dup_c).groupby("doc_id", as_index=False).agg(
            n_pos_part=("c", "sum"), n_dup_part=("dup_c", "sum")
        )
        return out.astype({"n_pos_part": np.int64, "n_dup_part": np.int64})

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop(columns=["_g"])
            .groupby("doc_id", as_index=False)
            .agg(n_pos=("n_pos_part", "sum"), n_dup_pos=("n_dup_part", "sum"))
        )
        return out.astype({"n_pos": np.int64, "n_dup_pos": np.int64})

    grams = d.map_batches(gram_rows, batch_format="pandas")
    partials = (
        _with_coarse_group(grams, "h")
        .groupby("_g")
        .map_groups(mark_dup, batch_format="pandas")
    )
    return (
        _with_coarse_group(partials, "doc_id")
        .groupby("_g")
        .map_groups(per_doc, batch_format="pandas")
    )


DUP_NGRAM_COVERAGE_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
  FROM documents),
g AS (
  SELECT doc_id, unnest(list_transform(range(1, len(ws) - {DUP_NGRAM_N} + 2),
           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3] || ' ' || ws[i+4])) AS gram
  FROM w WHERE len(ws) >= {DUP_NGRAM_N}),
gh AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5(gram), 1, 16)) AS UBIGINT) % 2147483647 AS h
  FROM g),
pc AS (SELECT doc_id, h, CAST(COUNT(*) AS BIGINT) AS c FROM gh GROUP BY 1, 2),
nd AS (SELECT h, CAST(COUNT(*) AS BIGINT) AS n_docs FROM pc GROUP BY 1)
SELECT pc.doc_id,
       CAST(SUM(pc.c) AS BIGINT) AS n_pos,
       CAST(SUM(CASE WHEN nd.n_docs >= 2 THEN pc.c ELSE 0 END) AS BIGINT) AS n_dup_pos
FROM pc JOIN nd ON nd.h = pc.h
GROUP BY 1
"""


# ======================== benchmark-contamination check (eval-set overlap)

BENCH_DOCS = 8


def q_contamination_check(sf_dir: str, n_bench: int = BENCH_DOCS):
    """Decontamination (GPT-3 appx C / FineWeb practice): flag corpus
    documents sharing 3-gram shingles with a held-out benchmark set. The
    benchmark here is the ``n_bench`` docs with the smallest
    ``md5(doc_id)`` — the same deterministic-sample device as ann_ivf's
    centroid selection, so the oracle reproduces it bit-for-bit. Emits
    (doc_id, n_shingles, n_contaminated, contaminated) for every
    NON-benchmark doc (docs with no tokens get zeros).

    Scale shape: benchmark selection is a per-batch md5 prune → ONE
    distributed combine → O(n_bench) driver reduce (independent of block
    count — VERDICT r3 #2); the benchmark shingle-hash set is broadcast
    once via ray.put and probed with np.isin inside map_batches — no
    shuffle anywhere."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def cands(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if ids.size == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "md5": pa.array([], pa.string())}
            )
        md5s = np.array(
            [hashlib.md5(str(int(v)).encode()).hexdigest() for v in ids], dtype=object
        )
        order = np.lexsort((ids, md5s))[:n_bench]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "md5": pa.array(md5s[order], pa.string()),
            }
        )

    from .grouping import global_prune

    cand_rows = global_prune(
        _read(sf_dir, "documents", columns=["doc_id"]), cands, batch_format="pyarrow"
    )
    if len(cand_rows) and "md5" in cand_rows.columns:
        cand_rows = cand_rows.sort_values(["md5", "doc_id"], kind="mergesort").head(n_bench)
        bench_ids = np.sort(cand_rows["doc_id"].to_numpy().astype(np.int64))
    else:  # empty documents table: Ray's empty to_pandas() has no columns
        bench_ids = np.array([], dtype=np.int64)

    # fetch the benchmark docs (bounded: n_bench rows) and build the
    # broadcast shingle-hash set
    import pyarrow.compute as _pc

    bench_rows = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"],
            filter=_pc.field("doc_id").isin(bench_ids.tolist()),
        ).take_all()
        if bench_ids.size
        else []
    )
    bench_hashes = np.unique(
        np.concatenate(
            [md5_hash31(shingle_strings(r["text"])) for r in bench_rows]
            + [np.array([], dtype=np.uint64)]
        )
    ).astype(np.int64)
    bench_ref = ray.put(bench_hashes)
    bench_id_set = set(bench_ids.tolist())

    def score(df: pd.DataFrame) -> pd.DataFrame:
        bh = ray.get(bench_ref)
        ids, n_sh, n_ct = [], [], []
        for did, txt in zip(df["doc_id"].to_numpy(), df["text"]):
            if int(did) in bench_id_set:
                continue
            hs = np.unique(md5_hash31(shingle_strings(txt))).astype(np.int64)
            ids.append(int(did))
            n_sh.append(hs.size)
            n_ct.append(int(np.isin(hs, bh, assume_unique=True).sum()))
        n_ct_arr = np.asarray(n_ct, dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype=np.int64),
                "n_shingles": pd.Series(n_sh, dtype=np.int64),
                "n_contaminated": n_ct_arr,
                "contaminated": (n_ct_arr > 0).astype(np.int64),
            }
        )

    return d.map_batches(score, batch_format="pandas")


CONTAMINATION_CHECK_SQL = rf"""
WITH bsel AS (
  SELECT doc_id FROM documents
  ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id LIMIT {BENCH_DOCS}),
w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
  FROM documents),
sh AS (
  SELECT doc_id, unnest(
    CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
         ELSE list_transform(range(1, len(ws) - 1),
                             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
    END) AS s
  FROM w WHERE len(ws) > 0),
hd AS (
  SELECT DISTINCT doc_id,
         CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT) % 2147483647 AS h
  FROM sh),
bh AS (SELECT DISTINCT h FROM hd WHERE doc_id IN (SELECT doc_id FROM bsel)),
cnt AS (
  SELECT hd.doc_id, CAST(COUNT(*) AS BIGINT) AS n_shingles,
         CAST(COUNT(bh.h) AS BIGINT) AS n_contaminated
  FROM hd LEFT JOIN bh ON bh.h = hd.h GROUP BY 1)
SELECT d.doc_id,
       COALESCE(cnt.n_shingles, 0) AS n_shingles,
       COALESCE(cnt.n_contaminated, 0) AS n_contaminated,
       CAST(COALESCE(cnt.n_contaminated, 0) > 0 AS BIGINT) AS contaminated
FROM documents d
LEFT JOIN cnt ON cnt.doc_id = d.doc_id
WHERE d.doc_id NOT IN (SELECT doc_id FROM bsel)
"""


# ========================================================= normalization

def normalize_text(text: str) -> str:
    """lower → collapse whitespace runs to one space → strip → NFC.
    Mirrors the oracle's nfc_normalize(trim(regexp_replace(lower(..))));
    lower() agrees between Python and DuckDB on the ASCII corpus (the
    divergent locale cases — dotted I etc. — are documented, not hit)."""
    return unicodedata.normalize("NFC", _WS_RUN_RE.sub(" ", text.lower()).strip())


def q_normalize_text(sf_dir: str):
    """Canonical text-normalization stage every training-data pipeline
    runs before hashing/dedup: per doc, the md5 of the normalized text
    and its post-normalization length. Pure map_batches — embarrassingly
    parallel; the unicode NFC pass is a per-row string-kernel floor like
    the md5/extract stages."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        normed = [normalize_text(t) for t in df["text"]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "norm_md5": [hashlib.md5(s.encode("utf-8")).hexdigest() for s in normed],
                "n_chars_norm": pd.Series([len(s) for s in normed], dtype=np.int64),
            }
        )

    return d.map_batches(norm, batch_format="pandas")


NORMALIZE_TEXT_SQL = r"""
SELECT doc_id,
       md5(nfc_normalize(trim(regexp_replace(lower(text), '[ \t\n\r\f]+', ' ', 'g'))))
         AS norm_md5,
       CAST(length(nfc_normalize(trim(regexp_replace(lower(text), '[ \t\n\r\f]+', ' ', 'g'))))
         AS BIGINT) AS n_chars_norm
FROM documents
"""


# ================================================= crawl snapshot diff

def q_snapshot_diff(sf_dir: str):
    """Incremental-crawl bookkeeping: diff two crawl snapshots by
    content hash, emitting (doc_id, status) with status ∈ added /
    deleted / changed / same. The two snapshots are derived
    deterministically from the documents table (md5(doc_id) selects
    ~10% absent from the previous crawl → 'added', ~7.7% absent from
    the current → 'deleted', ~14% content-perturbed → 'changed') so the
    oracle reproduces both sides exactly.

    Scale shape: each snapshot is a map_batches projection to
    (doc_id, md5) — 33-byte rows regardless of document size — tagged
    with its side, then ONE coarse-hash exchange on doc_id aligns the
    two sides and the status compare runs vectorized per task (reindex
    + np.where). This is the full-outer-join shape with the narrow
    projection pushed below the shuffle."""
    from ..functions.dedup import md5_hash64

    def sides(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        h = md5_hash64([str(int(i)) for i in ids])
        cur_md5 = np.array(
            [hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]], dtype=object
        )
        prev_md5 = np.where(
            h % np.uint64(7) == 0,
            np.array(
                [hashlib.md5((t + " v1").encode("utf-8")).hexdigest() for t in df["text"]],
                dtype=object,
            ),
            cur_md5,
        )
        in_prev = h % np.uint64(10) != 0
        in_curr = h % np.uint64(13) != 0
        return pd.DataFrame(
            {
                "doc_id": np.concatenate([ids[in_prev], ids[in_curr]]),
                "side": np.concatenate(
                    [
                        np.zeros(int(in_prev.sum()), dtype=np.int8),
                        np.ones(int(in_curr.sum()), dtype=np.int8),
                    ]
                ),
                "m": np.concatenate([prev_md5[in_prev], cur_md5[in_curr]]),
            }
        )

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"])
        p = g[g["side"] == 0].set_index("doc_id")["m"]
        c = g[g["side"] == 1].set_index("doc_id")["m"]
        all_ids = p.index.union(c.index)
        pm, cm = p.reindex(all_ids), c.reindex(all_ids)
        status = np.where(
            pm.isna(),
            "added",
            np.where(cm.isna(), "deleted", np.where(pm != cm, "changed", "same")),
        )
        return pd.DataFrame(
            {"doc_id": all_ids.to_numpy().astype(np.int64), "status": status}
        )

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return (
        _with_coarse_group(d.map_batches(sides, batch_format="pandas"), "doc_id")
        .groupby("_g")
        .map_groups(diff, batch_format="pandas")
    )


SNAPSHOT_DIFF_SQL = r"""
WITH sel AS (
  SELECT doc_id, text,
         CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) AS h
  FROM documents),
prev AS (
  SELECT doc_id,
         CASE WHEN h % 7 = 0 THEN md5(text || ' v1') ELSE md5(text) END AS m
  FROM sel WHERE h % 10 <> 0),
curr AS (SELECT doc_id, md5(text) AS m FROM sel WHERE h % 13 <> 0)
SELECT COALESCE(p.doc_id, c.doc_id) AS doc_id,
       CASE WHEN p.doc_id IS NULL THEN 'added'
            WHEN c.doc_id IS NULL THEN 'deleted'
            WHEN p.m <> c.m THEN 'changed'
            ELSE 'same' END AS status
FROM prev p FULL OUTER JOIN curr c ON p.doc_id = c.doc_id
"""


# ============================================== JSONL source round trip

def q_jsonl_roundtrip(sf_dir: str, n_shards: int = 8):
    """documents → sharded JSONL (one file per hash bucket, written
    distributed with pandas to_json — the interchange format every
    web-text dump speaks) → ``ray.data.read_json`` → content verified
    by md5. Proves the JSONL source end to end; the oracle is the
    documents table itself. Mirrors q_warc_roundtrip's shard layout
    (the file is the parallelism unit)."""
    import os
    import shutil

    shard_dir = os.path.join(
        "/tmp",
        "europarl_jsonl_" + hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10],
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
        g.sort_values("doc_id")[["doc_id", "text"]].to_json(
            tmp, orient="records", lines=True, force_ascii=False
        )
        os.replace(tmp, os.path.join(shard_dir, f"shard_{b:03d}.jsonl"))
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
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "text_md5": [
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]
                ],
                "n_chars_out": pd.Series([len(t) for t in df["text"]], dtype=np.int64),
            }
        )

    return ray.data.read_json(shard_dir).map_batches(check, batch_format="pandas")


JSONL_ROUNDTRIP_SQL = r"""
SELECT doc_id, md5(text) AS text_md5, CAST(length(text) AS BIGINT) AS n_chars_out
FROM documents
"""


# ============================== hive-partitioned write + pruned read-back

def q_hive_partition_scan(sf_dir: str):
    """Resumable-output layout as a checked operator: documents written
    as hive-partitioned parquet (``partition_cols=["lang"]`` — one
    directory per language, the layout a 100-TB run needs so a restart
    can skip finished partitions), then ONE partition directory is read
    back — the scan never opens the other partitions' files — and
    aggregated. Oracle: the same aggregate over ``WHERE lang = 'en'``."""
    import os
    import shutil

    out_dir = os.path.join(
        "/tmp",
        "europarl_hive_" + hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10],
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    _read(sf_dir, "documents", columns=["doc_id", "lang", "source"]).write_parquet(
        out_dir, partition_cols=["lang"]
    )

    part = os.path.join(out_dir, "lang=en")
    if not os.path.isdir(part):  # empty corpus (or no 'en' docs)
        return pa.table(
            {
                "source": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "sum_doc_id": pa.array([], pa.int64()),
            }
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("source", as_index=False).agg(
            part_docs=("doc_id", "size"), part_sum=("doc_id", "sum")
        )
        return g.astype({"part_docs": np.int64, "part_sum": np.int64})

    return (
        ray.data.read_parquet(part, columns=["doc_id", "source"])
        .map_batches(partial, batch_format="pandas")
        .groupby("source")
        .aggregate(
            Sum("part_docs", alias_name="n_docs"),
            Sum("part_sum", alias_name="sum_doc_id"),
        )
    )


HIVE_PARTITION_SCAN_SQL = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(doc_id) AS BIGINT) AS sum_doc_id
FROM documents WHERE lang = 'en' GROUP BY source
"""


# =========================== stratified mixture sampling (data curation)

# per-stratum keep rule: lang 'en' keeps h % 2 == 0 (50%), every other
# stratum keeps h % 4 == 0 (25%) — the deterministic analogue of the
# mixture-reweighting step in training-data curation
def q_stratified_sample(sf_dir: str):
    """Deterministic stratified downsampling: each language stratum is
    kept at its own rate via a hash rule on doc_id (md5 family shared
    with the oracle — no RNG, so re-runs and retries keep the same
    rows; the property that makes sampling safe in a resumable
    pipeline). Pure map_batches filter — no shuffle, no state."""
    from ..functions.dedup import md5_hash64

    d = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        h = md5_hash64([str(int(i)) for i in ids])
        is_en = (df["lang"] == "en").to_numpy()
        keep = np.where(is_en, h % np.uint64(2) == 0, h % np.uint64(4) == 0)
        out = df.loc[keep, ["doc_id", "lang"]].copy()
        out["doc_id"] = out["doc_id"].astype(np.int64)
        return out

    return d.map_batches(pick, batch_format="pandas")


STRATIFIED_SAMPLE_SQL = """
WITH h AS (
  SELECT doc_id, lang,
         CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) AS hv
  FROM documents)
SELECT doc_id, lang FROM h
WHERE CASE WHEN lang = 'en' THEN hv % 2 = 0 ELSE hv % 4 = 0 END
"""


# ============================ per-group exact quantiles (length by lang)

GROUP_QUANTILE_PCTS = [25, 50, 75, 90]


def q_group_quantiles(sf_dir: str):
    """Exact per-language length quantiles (quantile = value at index
    floor((N-1)·q) of the sorted stratum — the same definition as
    q_length_quantiles, replicated per group). Per-batch (lang, value)
    histogram combiner → a 5-group exchange of HISTOGRAM rows (bounded
    by langs × value domain, not by row count) → vectorized
    cumsum + searchsorted per stratum."""
    d = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "n_chars"], as_index=False).size()
        g.columns = ["lang", "v", "c"]
        return g.astype({"v": np.int64, "c": np.int64})

    def quants(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby("v", as_index=False)["c"].sum().sort_values("v")
        cum = g["c"].to_numpy().cumsum()
        n = int(cum[-1])
        ks = np.floor(
            (n - 1) * np.asarray(GROUP_QUANTILE_PCTS, dtype=np.float64) / 100.0
        ).astype(np.int64)
        idx = np.searchsorted(cum, ks, side="right")
        return pd.DataFrame(
            {
                "pct": np.asarray(GROUP_QUANTILE_PCTS, dtype=np.int64),
                "value": g["v"].to_numpy()[idx].astype(np.int64),
            }
        )

    return (
        d.map_batches(hist, batch_format="pandas")
        .groupby("lang")
        .map_groups(
            lambda g: quants(g.drop(columns=["lang"])).assign(lang=g["lang"].iloc[0]),
            batch_format="pandas",
        )
    )


GROUP_QUANTILES_SQL = f"""
WITH rk AS (
  SELECT lang, n_chars,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n_chars) - 1 AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM documents),
q AS (SELECT unnest([{", ".join(str(p) for p in GROUP_QUANTILE_PCTS)}]) AS pct)
SELECT rk.lang, CAST(q.pct AS BIGINT) AS pct, CAST(rk.n_chars AS BIGINT) AS value
FROM rk JOIN q ON rk.rn = CAST(floor((rk.n - 1) * q.pct / 100.0) AS BIGINT)
"""


# ===================== n-gram novelty (first-occurrence attribution)
#
# Corpus-growth curation signal: a document's contribution is the share
# of its distinct n-grams that appear FIRST in it (first = smallest
# doc_id containing the gram — a deterministic stand-in for ingestion
# order). Complements dup_ngram_coverage: that op marks how much of a
# doc is duplicated ANYWHERE; this one attributes each shared gram to
# exactly one owner, so Σ n_novel over docs = |corpus gram vocabulary|.
#
# Scale shape: per-batch (gram, doc) rows deduped per doc → ONE coarse
# exchange on the GRAM CONTENT (routing by hash, equality on content —
# exact); in-task min-doc per gram and per-doc partial sums; second
# narrow exchange on doc_id sums partials, with zero-gram docs riding
# it as tagged meta rows. Nothing data-scaled touches the driver.

NOVELTY_N = 3


def q_ngram_novelty(sf_dir: str, n: int = NOVELTY_N):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids, gs = [], []
        for did, txt in zip(df["doc_id"].to_numpy(), df["text"]):
            grams = set(_word_grams(txt, n))
            ids.extend([int(did)] * len(grams))
            gs.extend(sorted(grams))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "gram": pd.Series(gs, dtype="object"),
            }
        )

    grams = _with_coarse_group(
        d.map_batches(gram_rows, batch_format="pandas"), "gram"
    )

    def attribute(df: pd.DataFrame) -> pd.DataFrame:
        first = df.groupby("gram")["doc_id"].transform("min")
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "part_grams": np.int64(1),
                "part_novel": (df["doc_id"] == first).astype("int64"),
            }
        )
        return out.groupby("doc_id", as_index=False)[
            ["part_grams", "part_novel"]
        ].sum()

    partials = grams.groupby("_g").map_groups(attribute, batch_format="pandas")

    def doc_meta(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "part_grams": np.int64(0),
                "part_novel": np.int64(0),
            }
        )

    meta = d.map_batches(doc_meta, batch_format="pandas")
    both = _with_coarse_group(partials.union(meta), "doc_id")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("doc_id", as_index=False)[["part_grams", "part_novel"]].sum()
        ng = s["part_grams"].to_numpy(np.int64)
        nv = s["part_novel"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": s["doc_id"].astype("int64"),
                "n_grams": ng,
                "n_novel": nv,
                "novelty_bp": np.where(ng > 0, nv * 10000 // np.maximum(ng, 1), 0),
            }
        )

    return both.groupby("_g").map_groups(finish, batch_format="pandas")


_NOVELTY_GRAM_EXPR = " || ' ' || ".join(
    f"ws[i+{j}]" if j else "ws[i]" for j in range(NOVELTY_N)
)

NGRAM_NOVELTY_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
  FROM documents),
g AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(1, len(ws) - {NOVELTY_N} + 2),
           i -> {_NOVELTY_GRAM_EXPR})) AS gram
  FROM w WHERE len(ws) >= {NOVELTY_N}),
fst AS (SELECT gram, MIN(doc_id) AS fd FROM g GROUP BY 1),
per AS (
  SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
         CAST(SUM(CASE WHEN fst.fd = g.doc_id THEN 1 ELSE 0 END) AS BIGINT)
           AS n_novel
  FROM g JOIN fst USING (gram) GROUP BY 1)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       COALESCE(per.n_grams, 0) AS n_grams,
       COALESCE(per.n_novel, 0) AS n_novel,
       CAST(COALESCE(per.n_novel * 10000 // per.n_grams, 0) AS BIGINT)
         AS novelty_bp
FROM documents d LEFT JOIN per USING (doc_id)
"""


# ========================================================= zipf_slope
#
# Zipf's-law fit per language: OLS slope of ln(frequency) on ln(rank)
# over the top-K tokens — the distribution-shape diagnostic a corpus
# curator reads to spot template-heavy or boilerplate-dominated
# languages (natural text slopes near -1; flat slopes flag synthetic
# or repetitive sources). Parity device: ranks and counts are exact
# integers on both engines; ln is quantized to floor(1e6·ln(x)) using
# the SAME libm double (math.log here, DuckDB ln in-process — both
# glibc), then the slope is the integer-moment least-squares closed
# form: exact integer sums and ONE final float division.
#
# Scale shape: per-batch (lang, token) combiner → ONE coarse exchange
# on token (all rows of a token co-locate, counts become exact there),
# per-task top-K-per-lang prune (a superset of the global top-K, so
# the selection is associative), one repartition(1) re-prune, and a
# ≤ K·n_langs driver table. Nothing vocabulary-scaled leaves a task.

ZIPF_TOP_K = 100


def _zipf_topk(df: pd.DataFrame, k: int = ZIPF_TOP_K) -> pd.DataFrame:
    df = df.sort_values(
        ["lang", "n", "token"], ascending=[True, False, True], kind="mergesort"
    )
    return df.groupby("lang", dropna=False).head(k).reset_index(drop=True)


def q_zipf_slope(sf_dir: str):
    import math

    d = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "lang": pd.Series(dtype=str),
                    "token": pd.Series(dtype=str),
                    "n": pd.Series(dtype=np.int64),
                }
            )
        toks = df.set_index("lang")["text"].str.lower().str.findall(_TOKEN_RE).explode().dropna()
        g = toks.reset_index().groupby(["lang", "text"], as_index=False).size()
        g.columns = ["lang", "token", "n"]
        return g.astype({"n": np.int64})

    def sum_and_prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"]).groupby(["lang", "token"], as_index=False)["n"].sum()
        return _zipf_topk(g.astype({"n": np.int64}))

    pruned = (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(sum_and_prune, batch_format="pandas")
    )
    top = (
        pruned.repartition(1)
        .map_batches(_zipf_topk, batch_format="pandas")
        .to_pandas()  # ≤ ZIPF_TOP_K × n_langs rows
    )
    cols = ["lang", "n_terms", "zipf_slope"]
    if top.empty or "lang" not in top.columns:
        return pd.DataFrame(
            {"lang": pd.Series(dtype=str), "n_terms": pd.Series(dtype=np.int64),
             "zipf_slope": pd.Series(dtype=float)}
        )
    rows = []
    for lang, g in top.groupby("lang", sort=True, dropna=False):
        g = g.sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        cnts = g["n"].to_numpy(np.int64)
        k = len(cnts)
        lx = [int(math.floor(1e6 * math.log(r))) for r in range(1, k + 1)]
        ly = [int(math.floor(1e6 * math.log(int(c)))) for c in cnts]
        sx, sy = sum(lx), sum(ly)
        sxx = sum(x * x for x in lx)
        sxy = sum(x * y for x, y in zip(lx, ly))
        den = k * sxx - sx * sx
        slope = float(k * sxy - sx * sy) / float(den) if den else 0.0
        rows.append((lang, k, slope))
    out = pd.DataFrame(rows, columns=cols)
    return out.astype({"n_terms": np.int64})


ZIPF_SLOPE_SQL = rf"""
WITH tok AS (
  SELECT lang, unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
c AS (SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY 1, 2),
r AS (SELECT lang, n,
             ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, token ASC) AS rk
      FROM c),
q AS (SELECT lang,
             CAST(FLOOR(1e6 * ln(rk)) AS HUGEINT) AS lx,
             CAST(FLOOR(1e6 * ln(n)) AS HUGEINT) AS ly
      FROM r WHERE rk <= {ZIPF_TOP_K}),
m AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS k,
             SUM(lx) AS sx, SUM(ly) AS sy,
             SUM(lx * lx) AS sxx, SUM(lx * ly) AS sxy
      FROM q GROUP BY 1)
SELECT lang, CAST(k AS BIGINT) AS n_terms,
       CASE WHEN k * sxx - sx * sx = 0 THEN 0.0
            ELSE CAST(k * sxy - sx * sy AS DOUBLE)
                 / CAST(k * sxx - sx * sx AS DOUBLE)
       END AS zipf_slope
FROM m
"""


# ======================================================== vocab_growth
#
# Heaps'-law saturation curve: distinct-vocabulary size after each
# decile of the corpus (by doc_id order) — the diminishing-returns
# diagnostic that tells a data buyer whether the next 10 TB of a crawl
# still adds vocabulary or only repeats it. Exact integers end to end:
# each token's contribution is pinned to min(doc_id), cutoffs are
# integer-division decile bounds of COUNT(*).
#
# Scale shape: per-batch token→min(doc_id) combiner → ONE coarse
# exchange on token (exact global min per token in-task) → each task
# emits a 10-row decile histogram partial → driver sums + cumsums a
# ≤ 10×n_groups table. The vocabulary itself never leaves the tasks.

VOCAB_DECILES = 10


def q_vocab_growth(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = int(d.count() or 0)
    cutoffs = np.array(
        [(k * n_docs) // VOCAB_DECILES for k in range(1, VOCAB_DECILES + 1)],
        dtype=np.int64,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"token": pd.Series(dtype=str), "first_id": pd.Series(dtype=np.int64)}
            )
        toks = df.set_index("doc_id")["text"].str.lower().str.findall(_TOKEN_RE).explode().dropna()
        g = toks.reset_index().groupby("text", as_index=False)["doc_id"].min()
        g.columns = ["token", "first_id"]
        return g.astype({"first_id": np.int64})

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        first = g.drop(columns=["_g"]).groupby("token", dropna=False)["first_id"].min()
        # decile index of first appearance: number of cutoffs <= first_id
        idx = np.searchsorted(cutoffs, first.to_numpy(np.int64), side="right")
        cnt = np.bincount(idx, minlength=VOCAB_DECILES)[:VOCAB_DECILES]
        return pd.DataFrame(
            {"d": np.arange(VOCAB_DECILES, dtype=np.int64), "cnt": cnt.astype(np.int64)}
        )

    parts = (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(hist, batch_format="pandas")
        .to_pandas()  # ≤ 10 × N_COARSE_GROUPS rows
    )
    total = np.zeros(VOCAB_DECILES, dtype=np.int64)
    if len(parts) and "d" in parts.columns:
        s = parts.groupby("d")["cnt"].sum()
        total[s.index.to_numpy(np.int64)] = s.to_numpy(np.int64)
    return pd.DataFrame(
        {
            "decile": np.arange(1, VOCAB_DECILES + 1, dtype=np.int64),
            "cutoff": cutoffs,
            "vocab_size": np.cumsum(total).astype(np.int64),
        }
    )


VOCAB_GROWTH_SQL = rf"""
WITH n AS (SELECT COUNT(*) AS nd FROM documents),
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
fst AS (SELECT token, MIN(doc_id) AS first_id FROM tok GROUP BY 1),
k AS (SELECT unnest(range(1, {VOCAB_DECILES} + 1)) AS decile)
SELECT CAST(k.decile AS BIGINT) AS decile,
       CAST(k.decile * n.nd // {VOCAB_DECILES} AS BIGINT) AS cutoff,
       CAST(COALESCE((SELECT COUNT(*) FROM fst
                      WHERE fst.first_id < k.decile * n.nd // {VOCAB_DECILES}), 0)
            AS BIGINT) AS vocab_size
FROM k, n ORDER BY decile
"""


# ==================================================== pmi_collocations
#
# Collocation mining: adjacent-bigram PMI over the PMI_V most frequent
# tokens — the classic phrase-discovery pass (Church & Hanks 1990) a
# tokenizer/phrase-vocab builder runs over a corpus. PMI is quantized
# as L(c_xy·N²) − L(c1·c2·B) with L(x) = floor(1e6·ln(double(x)))
# (double conversion BEFORE the log on both engines, the
# mi_composition device), where N = total tokens and B = total
# adjacent-bigram slots; only bigrams with both words in the top-V
# vocabulary and c_xy ≥ PMI_MIN_COUNT are reported.
#
# Scale shape: (1) exact unigram counts via the token_topk shape —
# per-batch value_counts combiner, ONE coarse-hash exchange on token,
# in-task sums; top-V selection via global_prune over the
# already-exact counts (associative, O(V) driver rows). (2) N and B
# are one-row per-batch partials through the same global_prune.
# (3) the bigram pass filters to the BROADCAST top-V set batch-side,
# so its exchange is bounded by V² keys regardless of corpus size.

PMI_V = 256
PMI_MIN_COUNT = 2


def q_pmi_collocations(sf_dir: str):
    import math

    from .grouping import global_prune

    d = _read(sf_dir, "documents", columns=["text"])
    cols = ["w1", "w2", "c_xy", "c1", "c2", "pmi_unats"]

    def uni_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.findall(_TOKEN_RE).explode().dropna()
        vc = toks.value_counts()
        return pd.DataFrame(
            {"token": vc.index.astype(str), "part_n": vc.to_numpy().astype(np.int64)}
        )

    counted = (
        _with_coarse_group(d.map_batches(uni_partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(
            lambda g: g.groupby("token", as_index=False, dropna=False)["part_n"]
            .sum()
            .rename(columns={"part_n": "n"}),
            batch_format="pandas",
        )
    )

    def top_v(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "token" not in df.columns:
            return df
        return df.sort_values(["n", "token"], ascending=[False, True]).head(PMI_V)

    vdf = global_prune(counted, top_v)
    if not len(vdf) or "token" not in vdf.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=str if c in ("w1", "w2") else np.int64) for c in cols}
        )
    vocab = dict(zip(vdf["token"], vdf["n"].astype(int)))

    def tot_partial(df: pd.DataFrame) -> pd.DataFrame:
        lens = (
            df["text"].str.lower().str.findall(_TOKEN_RE).str.len().to_numpy(np.int64)
            if len(df)
            else np.zeros(0, np.int64)
        )
        return pd.DataFrame(
            {
                "n": [int(lens.sum())],
                "b": [int(np.maximum(lens - 1, 0).sum())],
            }
        )

    def tot_sum(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(df["n"].sum())], "b": [int(df["b"].sum())]})

    tot = global_prune(d.map_batches(tot_partial, batch_format="pandas"), tot_sum)
    n_tok, n_big = int(tot["n"].iloc[0]), int(tot["b"].iloc[0])

    vset = frozenset(vocab)

    def big_partial(df: pd.DataFrame) -> pd.DataFrame:
        pairs: dict[tuple, int] = {}
        for text in df["text"].to_numpy():
            ts = _TOKEN_RE.findall(str(text).lower())
            for w1, w2 in zip(ts[:-1], ts[1:]):
                if w1 in vset and w2 in vset:
                    pairs[(w1, w2)] = pairs.get((w1, w2), 0) + 1
        if not pairs:
            return pd.DataFrame(
                {
                    "w1": pd.Series(dtype=str),
                    "w2": pd.Series(dtype=str),
                    "part_n": pd.Series(dtype=np.int64),
                }
            )
        k1, k2 = zip(*pairs.keys())
        return pd.DataFrame(
            {"w1": k1, "w2": k2, "part_n": np.fromiter(pairs.values(), np.int64)}
        )

    def big_sum(df: pd.DataFrame) -> pd.DataFrame:
        # idempotent: global_prune re-applies it to its own output,
        # where the count column is already named c_xy
        val = "part_n" if "part_n" in df.columns else "c_xy"
        if not len(df) or "w1" not in df.columns:
            return pd.DataFrame(
                {
                    "w1": pd.Series(dtype=str),
                    "w2": pd.Series(dtype=str),
                    "c_xy": pd.Series(dtype=np.int64),
                }
            )
        return (
            df.groupby(["w1", "w2"], as_index=False)[val]
            .sum()
            .rename(columns={val: "c_xy"})
        )

    # bigram key space is bounded by V² after the vocab filter, so the
    # global_prune combine task sees at most blocks × (block-local
    # distinct pairs) ≤ V² rows after its own re-sum
    bg = global_prune(d.map_batches(big_partial, batch_format="pandas"), big_sum)
    bg = bg[bg["c_xy"] >= PMI_MIN_COUNT].reset_index(drop=True)
    if not len(bg):
        return pd.DataFrame(
            {c: pd.Series(dtype=str if c in ("w1", "w2") else np.int64) for c in cols}
        )
    c1 = bg["w1"].map(vocab).to_numpy(np.int64)
    c2 = bg["w2"].map(vocab).to_numpy(np.int64)
    cxy = bg["c_xy"].to_numpy(np.int64)
    pmi = np.fromiter(
        (
            math.floor(1e6 * math.log(float(int(x) * n_tok * n_tok)))
            - math.floor(1e6 * math.log(float(int(a) * int(b) * n_big)))
            for x, a, b in zip(cxy, c1, c2)
        ),
        dtype=np.int64,
        count=len(bg),
    )
    return pd.DataFrame(
        {"w1": bg["w1"], "w2": bg["w2"], "c_xy": cxy, "c1": c1, "c2": c2,
         "pmi_unats": pmi}
    )


PMI_COLLOCATIONS_SQL = rf"""
WITH d AS (SELECT regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ts
           FROM documents),
tot AS (SELECT CAST(SUM(len(ts)) AS BIGINT) AS n,
               CAST(SUM(GREATEST(len(ts) - 1, 0)) AS BIGINT) AS b FROM d),
uc AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c
       FROM (SELECT unnest(ts) AS w FROM d) GROUP BY 1),
vocab AS (SELECT w, c FROM uc ORDER BY c DESC, w ASC LIMIT {PMI_V}),
idx AS (SELECT ts, unnest(range(1, len(ts))) AS i FROM d),
big AS (SELECT ts[i] AS w1, ts[i + 1] AS w2, CAST(COUNT(*) AS BIGINT) AS cxy
        FROM idx GROUP BY 1, 2),
cand AS (
  SELECT b.w1, b.w2, b.cxy, v1.c AS c1, v2.c AS c2
  FROM big b
  JOIN vocab v1 ON v1.w = b.w1
  JOIN vocab v2 ON v2.w = b.w2
  WHERE b.cxy >= {PMI_MIN_COUNT})
SELECT w1, w2, cxy AS c_xy, c1, c2,
       CAST(FLOOR(1e6 * ln(CAST(CAST(cxy AS HUGEINT) * tot.n * tot.n
                                AS DOUBLE))) AS BIGINT)
       - CAST(FLOOR(1e6 * ln(CAST(CAST(c1 AS HUGEINT) * c2 * tot.b
                                  AS DOUBLE))) AS BIGINT) AS pmi_unats
FROM cand, tot
"""


# ==================================================== token_burstiness
#
# Index of dispersion (variance-to-mean, Church & Gale 1995) of the
# per-document count of each top-BURST_TOP token — bursty tokens
# (names, topical terms) concentrate in few documents while function
# words spread evenly; the signal separates topical vocab from
# boilerplate when building stopword/keyword lists. All exact
# integers: with D total docs, s1 = Σ_doc c and s2 = Σ_doc c²,
# disp_n2 = D·s2 − s1² = D²·var (docs without the token contribute 0
# to both sums, exactly as the definition wants).
#
# Scale shape: per-batch per-doc token counts collapse to (token, s1,
# s2, df) partials — all three sums are associative, so NO doc-level
# co-location is needed; ONE coarse token exchange makes them exact,
# top-K selection is an associative global_prune, D comes from parquet
# metadata. Driver sees ≤ BURST_TOP rows.

BURST_TOP = 100


def q_token_burstiness(sf_dir: str):
    import pyarrow.parquet as _pq

    from .grouping import global_prune

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cols = ["token", "s1", "s2", "df", "disp_n2"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"token": pd.Series(dtype=str),
             "s1": pd.Series(dtype=np.int64),
             "s2": pd.Series(dtype=np.int64),
             "df": pd.Series(dtype=np.int64)}
        )
        if not len(df):
            return empty
        toks = (
            df.set_index("doc_id")["text"].str.lower().str.findall(_TOKEN_RE)
            .explode().dropna()
        )
        if not len(toks):
            return empty
        g = toks.reset_index().groupby(["doc_id", "text"], as_index=False).size()
        g.columns = ["doc_id", "token", "c"]
        c = g["c"].to_numpy(np.int64)
        out = pd.DataFrame(
            {"token": g["token"], "s1": c, "s2": c * c, "df": 1}
        )
        return out.groupby("token", as_index=False).sum()

    def sum_tokens(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("token", as_index=False, dropna=False)[
            ["s1", "s2", "df"]
        ].sum()

    counted = (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(
            lambda g: sum_tokens(g.drop(columns=["_g"])), batch_format="pandas"
        )
    )

    def top_k(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "token" not in df.columns:
            return df
        return df.sort_values(["s1", "token"], ascending=[False, True]).head(
            BURST_TOP
        )

    m = global_prune(counted, top_k)
    if not len(m) or "token" not in m.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=str if c == "token" else np.int64) for c in cols}
        )
    s1 = m["s1"].to_numpy(np.int64)
    s2 = m["s2"].to_numpy(np.int64)
    m = m.assign(disp_n2=n_docs * s2 - s1 * s1)
    return m[cols].reset_index(drop=True).astype(
        {c: np.int64 for c in cols[1:]}
    )


TOKEN_BURSTINESS_SQL = rf"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
tc AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS c
       FROM tok GROUP BY 1, 2),
per AS (SELECT token, CAST(SUM(c) AS BIGINT) AS s1,
               CAST(SUM(c * c) AS BIGINT) AS s2,
               CAST(COUNT(*) AS BIGINT) AS df
        FROM tc GROUP BY 1),
top AS (SELECT * FROM per ORDER BY s1 DESC, token ASC LIMIT {BURST_TOP}),
d AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n FROM documents)
SELECT token, s1, s2, df,
       CAST(d.n * s2 - CAST(s1 AS HUGEINT) * s1 AS BIGINT) AS disp_n2
FROM top, d
"""


# =================================================== markov_stationary
#
# Stationary distribution of the user-journey Markov chain: take the
# event-type transition matrix (consecutive event types per user in
# (ts, event_id) order), row-normalize to ppm, and run R = 12 power-
# iteration rounds from the uniform vector — the steady-state "where do
# sessions end up spending time" readout product analytics derives from
# the same matrix PageRank uses. States are the types observed as a
# transition SOURCE; transitions into never-a-source types are dropped
# before normalizing (deterministic on both engines). All arithmetic is
# integer ppm with per-term floor (vᵢ·P_ppm[i][j] // 1e6), so the
# DuckDB unrolled-CTE iteration is bit-identical.
#
# Scale shape: the transition count pass is ONE coarse user exchange,
# per-task vectorized shift-mask, ≤|types|² partial rows; the matrix
# is SCHEMA-bounded (|event types|²), so the R-round iteration runs on
# the driver over ≤25 integer cells — no per-round distributed work,
# unlike the data-scaled graph Pregel ops.

MARKOV_ROUNDS = 12


def q_markov_stationary(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    cols = ["event_type", "stat_ppm"]

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        same_user = g["user_id"].eq(g["user_id"].shift())
        pairs = pd.DataFrame(
            {
                "prev_type": g["event_type"].shift().where(same_user),
                "next_type": g["event_type"],
            }
        ).dropna()
        out = pairs.groupby(["prev_type", "next_type"], as_index=False).size()
        out.columns = ["prev_type", "next_type", "n_part"]
        return out.astype({"n_part": np.int64})

    c = (
        _with_coarse_group(ev, "user_id")
        .groupby("_g")
        .map_groups(lambda g: partial(g.drop(columns=["_g"])), batch_format="pandas")
        .groupby(["prev_type", "next_type"])
        .aggregate(Sum("n_part", alias_name="n"))
        .to_pandas()  # |event_types|² rows — schema-bounded
    )
    if not len(c):
        return pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "stat_ppm": pd.Series(dtype=np.int64)}
        )
    states = sorted(c["prev_type"].unique())
    idx = {t: i for i, t in enumerate(states)}
    k = len(states)
    c = c[c["next_type"].isin(idx)]
    P = np.zeros((k, k), np.int64)
    for _, r in c.iterrows():
        P[idx[r["prev_type"]], idx[r["next_type"]]] = int(r["n"])
    tot = P.sum(axis=1)
    P = np.where(tot[:, None] > 0, 1_000_000 * P // np.maximum(tot[:, None], 1), 0)
    v = np.full(k, 1_000_000 // k, np.int64)
    for _ in range(MARKOV_ROUNDS):
        v = ((v[:, None] * P) // 1_000_000).sum(axis=0)
    return pd.DataFrame({"event_type": states, "stat_ppm": v}).astype(
        {"stat_ppm": np.int64}
    )


def _markov_sql() -> str:
    rounds = []
    prev = "v0"
    nl = ",\n"
    for t in range(1, MARKOV_ROUNDS + 1):
        rounds.append(
            f"v{t} AS (SELECT p.next_type AS s, "
            f"CAST(SUM({prev}.val * p.p_ppm // 1000000) AS BIGINT) AS val "
            f"FROM {prev} JOIN p ON p.prev_type = {prev}.s GROUP BY 1)"
        )
        prev = f"v{t}"
    return f"""
WITH o AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type
  FROM events),
c AS (
  SELECT prev_type, event_type AS next_type, CAST(count(*) AS BIGINT) AS n
  FROM o WHERE prev_type IS NOT NULL GROUP BY 1, 2),
st AS (SELECT DISTINCT prev_type AS s FROM c),
cf AS (SELECT c.* FROM c JOIN st ON st.s = c.next_type),
rs AS (SELECT prev_type, SUM(n) AS tot FROM cf GROUP BY 1),
p AS (
  SELECT cf.prev_type, cf.next_type, 1000000 * cf.n // rs.tot AS p_ppm
  FROM cf JOIN rs USING (prev_type)),
v0 AS (SELECT s, 1000000 // (SELECT COUNT(*) FROM st) AS val FROM st),
{nl.join(rounds)}
SELECT st.s AS event_type,
       CAST(COALESCE({prev}.val, 0) AS BIGINT) AS stat_ppm
FROM st LEFT JOIN {prev} ON {prev}.s = st.s
"""


CORPUS_SQL_QUERIES: dict[str, tuple] = {
    "stratified_sample": (q_stratified_sample, STRATIFIED_SAMPLE_SQL, "backlog"),
    "group_quantiles": (q_group_quantiles, GROUP_QUANTILES_SQL, "backlog"),
    "snapshot_diff": (q_snapshot_diff, SNAPSHOT_DIFF_SQL, "backlog"),
    "jsonl_roundtrip": (q_jsonl_roundtrip, JSONL_ROUNDTRIP_SQL, "training"),
    "hive_partition_scan": (q_hive_partition_scan, HIVE_PARTITION_SCAN_SQL, "backlog"),
    "markov_stationary": (q_markov_stationary, _markov_sql(), "graph"),
    "inverted_index": (q_inverted_index, INVERTED_INDEX_SQL, "backlog"),
    "dup_ngram_coverage": (q_dup_ngram_coverage, DUP_NGRAM_COVERAGE_SQL, "backlog"),
    "contamination_check": (q_contamination_check, CONTAMINATION_CHECK_SQL, "selection"),
    "normalize_text": (q_normalize_text, NORMALIZE_TEXT_SQL, "backlog"),
    "ngram_novelty": (q_ngram_novelty, NGRAM_NOVELTY_SQL, "selection"),
    "zipf_slope": (q_zipf_slope, ZIPF_SLOPE_SQL, "text"),
    "vocab_growth": (q_vocab_growth, VOCAB_GROWTH_SQL, "backlog"),
    "pmi_collocations": (q_pmi_collocations, PMI_COLLOCATIONS_SQL, "text"),
    "token_burstiness": (q_token_burstiness, TOKEN_BURSTINESS_SQL, "backlog"),
}
