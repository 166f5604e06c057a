"""Webtext-cleaning operators (round-3 batch 4): PII scrubbing,
segment-level corpus dedup, boilerplate removal, and the deterministic
training-epoch shuffle.

All four are SQL-oracled and follow the repo's scale idioms (see
pipelines/grouping.py): per-batch vectorized kernels, coarse-hash
exchanges for data-scaled keys, bounded driver reductions only for
provably-fixed-size state (the 256-bucket rank offsets of
``epoch_shuffle``).

Reference parity: the reference has no cleaning stage beyond extraction
(europarl/rules/extraction.py); these are the additional training-data
operators the task brief asks for, shaped after C4/FineWeb-style
pipelines (PII redaction, line-level dedup, main-content extraction,
epoch shuffling before sharding).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read
from ..functions.boilerplate import extract_main_blocks, render_boilerplate_page
from .grouping import with_coarse_group as _with_coarse_group


# ============================================================ PII scrub
#
# C4/FineWeb-style safety pass: redact emails, NANP-shaped phone
# numbers, and value-checked IPv4 addresses. The synthetic documents
# carry no PII, so each doc is augmented with a deterministic contact
# footer derived from doc_id (the multimodal pattern: derived input
# recomputable in SQL) that also plants near-miss DECOYS the regexes
# must NOT touch (double-@ email, out-of-range octets, short phone,
# dotted version string). Patterns are RE2-compatible (no lookaround,
# no backreferences) so Python ``re`` and DuckDB scrub byte-identically
# — parity is fuzzed in tests/test_webtext_ops.py.

PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+1-[0-9]{3}-555-[0-9]{4}\b"
PII_IP_RE = (
    r"\b(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
    r"(?:\.(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])){3}\b"
)
_PII_DECOYS = "user@@example.com 999.999.999.999 +1-12-555-123 price.99.99"

_EMAIL_C = re.compile(PII_EMAIL_RE)
_PHONE_C = re.compile(PII_PHONE_RE)
_IP_C = re.compile(PII_IP_RE)


def pii_footer(doc_id: int) -> str:
    """Deterministic contact block; the SQL twin concatenates the same
    fields — any drift breaks the gate, which is the point."""
    d = int(doc_id)
    return (
        f" Contact: user{d}@example{d % 7}.com"
        f" or +1-{200 + d % 700}-555-{1000 + d % 9000}"
        f" at 10.{d % 200}.{(d // 200) % 200}.{1 + d % 250}"
        f" ; decoys {_PII_DECOYS}"
    )


def scrub_pii(text: str) -> tuple[str, int, int, int]:
    """(scrubbed, n_email, n_phone, n_ip). Replacement order is part of
    the contract (email → phone → ip) and mirrored in the oracle."""
    n_email = len(_EMAIL_C.findall(text))
    n_phone = len(_PHONE_C.findall(text))
    n_ip = len(_IP_C.findall(text))
    s = _EMAIL_C.sub("<EMAIL>", text)
    s = _PHONE_C.sub("<PHONE>", s)
    s = _IP_C.sub("<IP>", s)
    return s, n_email, n_phone, n_ip


def q_pii_scrub(sf_dir: str):
    """Redaction counts + md5 of the scrubbed text per document. Pure
    map_batches — embarrassingly parallel; the per-row regex scan is a
    string-kernel floor like md5/extract (documented repo-wide)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        rows = [scrub_pii(t + pii_footer(i)) for i, t in zip(ids, df["text"])]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_email": pd.Series([r[1] for r in rows], dtype=np.int64),
                "n_phone": pd.Series([r[2] for r in rows], dtype=np.int64),
                "n_ip": pd.Series([r[3] for r in rows], dtype=np.int64),
                "scrub_md5": [
                    hashlib.md5(r[0].encode("utf-8")).hexdigest() for r in rows
                ],
            }
        )

    return d.map_batches(scrub, batch_format="pandas")


PII_SCRUB_SQL = (
    """
WITH aug AS (
  SELECT doc_id,
         text || ' Contact: user' || CAST(doc_id AS VARCHAR)
              || '@example' || CAST(doc_id % 7 AS VARCHAR) || '.com'
              || ' or +1-' || CAST(200 + doc_id % 700 AS VARCHAR)
              || '-555-' || CAST(1000 + doc_id % 9000 AS VARCHAR)
              || ' at 10.' || CAST(doc_id % 200 AS VARCHAR)
              || '.' || CAST((doc_id // 200) % 200 AS VARCHAR)
              || '.' || CAST(1 + doc_id % 250 AS VARCHAR)
              || ' ; decoys """
    + _PII_DECOYS
    + """' AS s
  FROM documents)
SELECT doc_id,
       CAST(len(regexp_extract_all(s, '<<EMAIL>>')) AS BIGINT) AS n_email,
       CAST(len(regexp_extract_all(s, '<<PHONE>>')) AS BIGINT) AS n_phone,
       CAST(len(regexp_extract_all(s, '<<IP>>')) AS BIGINT) AS n_ip,
       md5(regexp_replace(regexp_replace(regexp_replace(
             s, '<<EMAIL>>', '<EMAIL>', 'g'),
             '<<PHONE>>', '<PHONE>', 'g'),
             '<<IP>>', '<IP>', 'g')) AS scrub_md5
FROM aug
""".replace("<<EMAIL>>", PII_EMAIL_RE)
    .replace("<<PHONE>>", PII_PHONE_RE)
    .replace("<<IP>>", PII_IP_RE)
)


# ============================================ segment-level corpus dedup
#
# FineWeb-style sub-document dedup: split every document into fixed
# 12-word segments (the corpus is single-line word soup, so fixed word
# windows play the role newline-split paragraphs play on real webtext),
# keep the GLOBALLY first occurrence of each distinct segment text
# ((doc_id, seg_no) lexicographic — deterministic under retries), and
# reassemble each document from its surviving segments.

SEG_W = 12


def dedup_segments(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_segs, n_kept, txt) — each document reassembled from
    its globally-surviving segments. The distributed core shared by
    q_paragraph_dedup and the composed q_refinery (so the two can never
    drift).

    Scale shape: ONE segmentation pass emits segment rows plus one
    header row per doc (carrying n_segs so fully-deduped docs still
    appear); exchange #1 co-locates rows by a coarse hash of a
    namespaced dedup key (``s:``+segment text; headers get a unique
    ``h:``+doc_id key and pass through) and keeps the (doc_id, seg_no)
    minimum per segment text; exchange #2 co-locates by doc_id and
    reassembles in seg_no order. Neither the segment universe nor any
    per-doc state ever touches the driver. Partitioning assumption:
    ~1/N_COARSE_GROUPS of the segment rows fits one task (grouping.py).
    The per-row split/join is the same string-kernel floor as
    shingling (functions/dedup.py)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def segment(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        seg_nos: list[int] = []
        segs: list[str] = []
        keys: list[str] = []
        n_segs: list[int] = []
        for did, txt in zip(df["doc_id"].to_numpy().astype(np.int64), df["text"]):
            ws = txt.split(" ")  # matches DuckDB string_split: '' -> ['']
            k = (len(ws) + SEG_W - 1) // SEG_W
            doc_ids.append(did)
            seg_nos.append(-1)
            segs.append("")
            keys.append(f"h:{did}")
            n_segs.append(k)
            for i in range(k):
                seg = " ".join(ws[i * SEG_W : (i + 1) * SEG_W])
                doc_ids.append(did)
                seg_nos.append(i)
                segs.append(seg)
                keys.append("s:" + seg)
                n_segs.append(k)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(doc_ids, dtype=np.int64),
                "seg_no": pd.Series(seg_nos, dtype=np.int64),
                "seg": segs,
                "key": keys,
                "n_segs": pd.Series(n_segs, dtype=np.int64),
            }
        )

    rows = d.map_batches(segment, batch_format="pandas")

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id", "seg_no"], kind="mergesort")
        return g.drop_duplicates("key").drop(columns=["key"])

    kept = (
        _with_coarse_group(rows, "key")
        .groupby("_g")
        .map_groups(lambda g: keep_first(g.drop(columns=["_g"])), batch_format="pandas")
    )

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        hdr = g[g["seg_no"] < 0][["doc_id", "n_segs"]]
        body = g[g["seg_no"] >= 0].sort_values(["doc_id", "seg_no"], kind="mergesort")
        agg = body.groupby("doc_id").agg(
            n_kept=("seg", "size"), txt=("seg", " ".join)
        )
        out = hdr.merge(agg, on="doc_id", how="left")
        out["n_kept"] = out["n_kept"].fillna(0).astype(np.int64)
        out["txt"] = out["txt"].fillna("")
        out["doc_id"] = out["doc_id"].astype(np.int64)
        out["n_segs"] = out["n_segs"].astype(np.int64)
        return out[["doc_id", "n_segs", "n_kept", "txt"]]

    return (
        _with_coarse_group(kept, "doc_id")
        .groupby("_g")
        .map_groups(lambda g: reassemble(g.drop(columns=["_g"])), batch_format="pandas")
    )


def q_paragraph_dedup(sf_dir: str):
    """Per doc: segment count, surviving-segment count, and md5 of the
    reassembled deduped text (see ``dedup_segments`` for the shape)."""

    def digest(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "n_segs": df["n_segs"].to_numpy().astype(np.int64),
                "n_kept": df["n_kept"].to_numpy().astype(np.int64),
                "dedup_md5": [
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["txt"]
                ],
            }
        )

    return dedup_segments(sf_dir).map_batches(digest, batch_format="pandas")


PARAGRAPH_DEDUP_SQL = f"""
WITH words AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
seg0 AS (
  SELECT doc_id, ws,
         unnest(range(CAST(ceil(len(ws) / {SEG_W}.0) AS BIGINT))) AS seg_no
  FROM words),
segs AS (
  SELECT doc_id, seg_no,
         array_to_string(ws[(seg_no*{SEG_W}+1):(seg_no*{SEG_W}+{SEG_W})], ' ') AS seg
  FROM seg0),
kept AS (
  SELECT * FROM (
    SELECT doc_id, seg_no, seg,
           ROW_NUMBER() OVER (PARTITION BY seg ORDER BY doc_id, seg_no) AS rn
    FROM segs) WHERE rn = 1),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_kept,
         string_agg(seg, ' ' ORDER BY seg_no) AS txt
  FROM kept GROUP BY doc_id),
tot AS (
  SELECT doc_id, CAST(ceil(len(ws) / {SEG_W}.0) AS BIGINT) AS n_segs FROM words)
SELECT t.doc_id, t.n_segs,
       coalesce(a.n_kept, 0) AS n_kept,
       md5(coalesce(a.txt, '')) AS dedup_md5
FROM tot t LEFT JOIN agg a USING (doc_id)
"""


# ======================================== main-content (boilerplate) ex.
#
# trafilatura/jusText-lite: each document is rendered as a full HTML
# page (title + link-dense nav + content paragraphs + link-dense
# footer) and the extractor recovers the content purely STATISTICALLY —
# per block element, link-char density <= 0.25 and >= 3 words — with no
# knowledge of the page template. The oracle reconstructs the expected
# result from the documents table (the html_roundtrip pattern).

MCE_CHUNK_W = 20  # words per rendered <p>; last chunk absorbs remainder


def q_main_content_extract(sf_dir: str):
    """Per doc: md5 of the extracted main text, kept-block count, and
    total block count. Pure map_batches (render + parse per row is the
    HTML string-kernel floor, same as html_roundtrip)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        main_md5, n_kept, n_total = [], [], []
        for did, txt, src in zip(ids, df["text"], df["source"]):
            page = render_boilerplate_page(int(did), txt, src, chunk_w=MCE_CHUNK_W)
            kept, total = extract_main_blocks(page)
            main = " ".join(kept)
            main_md5.append(hashlib.md5(main.encode("utf-8")).hexdigest())
            n_kept.append(len(kept))
            n_total.append(total)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "main_md5": main_md5,
                "n_blocks_kept": pd.Series(n_kept, dtype=np.int64),
                "n_blocks_total": pd.Series(n_total, dtype=np.int64),
            }
        )

    return d.map_batches(extract, batch_format="pandas")


MAIN_CONTENT_EXTRACT_SQL = f"""
SELECT doc_id,
       md5(text) AS main_md5,
       greatest(1, len(string_split(text, ' ')) // {MCE_CHUNK_W}) AS n_blocks_kept,
       greatest(1, len(string_split(text, ' ')) // {MCE_CHUNK_W}) + 3 AS n_blocks_total
FROM documents
"""


# ============================================= deterministic epoch shuffle
#
# The global shuffle every LLM training run does before sharding —
# expressed terasort-style so no single task ever sees the whole
# dataset: hash-keyed range partitioning into 256 buckets (md5 is
# uniform, so bucket = first key byte IS the range partitioner — no
# boundary sampling needed), exact per-bucket counts reduced to a
# FIXED 256-int offset vector on the driver, then one exchange that
# sorts each bucket locally and adds its global offset.

EPOCH_SEED = "epoch1"
EPOCH_BATCH_ROWS = 32
_N_SHUF_BUCKETS = 256


def q_epoch_shuffle(sf_dir: str):
    """(doc_id, shuffle_key, global_rank, batch_id): a deterministic
    total order over the corpus (md5 of seed|doc_id, doc_id tie-break)
    and the training batch each row lands in.

    The classic terasort trade, with the input hashed ONCE into a
    materialized keyed projection: pass 1 computes exact bucket counts
    over it (per-batch bincount → 256-group Ray aggregate → 256-row
    driver collect, fixed size at any data scale); pass 2 exchanges it
    on the bucket id and ranks each bucket vectorized. Because buckets
    are the leading byte of the sort key, local order + bucket offsets
    = the exact global order."""
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        keys = [
            hashlib.md5(f"{EPOCH_SEED}|{int(i)}".encode("utf-8")).hexdigest()
            for i in ids
        ]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "shuffle_key": keys,
                "bucket": pd.Series([int(k[:2], 16) for k in keys], dtype=np.int64),
            }
        )

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "bucket": pd.Series(range(_N_SHUF_BUCKETS), dtype=np.int64),
                "n": pd.Series(
                    np.bincount(df["bucket"], minlength=_N_SHUF_BUCKETS),
                    dtype=np.int64,
                ),
            }
        )

    # hash ONCE: the keyed projection is materialized and drives both
    # the counts pass and the rank exchange (the sequence_pack pattern)
    kd = d.map_batches(keyed, batch_format="pandas").materialize()
    counts = (
        kd.map_batches(bucket_counts, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )  # <= 256 rows — fixed-size driver reduce by construction
    if counts.empty:  # empty input: Ray's empty aggregate has NO columns
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "shuffle_key": pd.Series([], dtype=object),
                "global_rank": pd.Series([], dtype=np.int64),
                "batch_id": pd.Series([], dtype=np.int64),
            }
        )
    full = np.zeros(_N_SHUF_BUCKETS, dtype=np.int64)
    full[counts["bucket"].to_numpy()] = counts["n"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])  # tiny closure capture

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["shuffle_key", "doc_id"], kind="mergesort")
        b = int(g["bucket"].iloc[0])
        rank = offsets[b] + np.arange(len(g), dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy().astype(np.int64),
                "shuffle_key": g["shuffle_key"].to_numpy(),
                "global_rank": rank,
                "batch_id": rank // EPOCH_BATCH_ROWS,
            }
        )

    return kd.groupby("bucket").map_groups(rank_bucket, batch_format="pandas")


EPOCH_SHUFFLE_SQL = f"""
WITH k AS (
  SELECT doc_id,
         md5('{EPOCH_SEED}|' || CAST(doc_id AS VARCHAR)) AS shuffle_key
  FROM documents)
SELECT doc_id, shuffle_key,
       CAST(ROW_NUMBER() OVER (ORDER BY shuffle_key, doc_id) - 1 AS BIGINT)
         AS global_rank,
       CAST((ROW_NUMBER() OVER (ORDER BY shuffle_key, doc_id) - 1)
            // {EPOCH_BATCH_ROWS} AS BIGINT) AS batch_id
FROM k
"""


# ========================= composed refinery (dedup → gate → shuffle)
#
# Flagship composition #2 (corpus_to_shards is #1): the full cleaning
# chain a webtext corpus runs before training — segment-level dedup,
# an integer quality gate on the DEDUPED text, then the deterministic
# global shuffle over the survivors and shard assignment. Three
# exchanges total (two from dedup_segments, one for the rank), plus
# the fixed 256-int offset reduce.

REF_MIN_CHARS = 40
REF_N_SHARDS = 16
REF_SEED = "ref|"


def q_refinery(sf_dir: str):
    """(doc_id, n_segs, n_kept, n_chars_dedup, rank, shard) for every
    surviving document. Gate (all integer-exact): some segment
    survived, >= 40 deduped bytes, and <= 50% of segments lost
    (n_kept*2 >= n_segs). Rank/shard use the epoch_shuffle terasort
    machinery over the survivor stream."""
    from ray.data.aggregate import Sum as _Sum

    segs = dedup_segments(sf_dir)

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        n_chars = np.array([len(t.encode("utf-8")) for t in df["txt"]], np.int64)
        n_kept = df["n_kept"].to_numpy().astype(np.int64)
        n_segs = df["n_segs"].to_numpy().astype(np.int64)
        keep = (n_kept > 0) & (n_chars >= REF_MIN_CHARS) & (n_kept * 2 >= n_segs)
        ids = df["doc_id"].to_numpy().astype(np.int64)[keep]
        keys = [
            hashlib.md5(f"{REF_SEED}{int(i)}".encode("utf-8")).hexdigest()
            for i in ids
        ]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_segs": n_segs[keep],
                "n_kept": n_kept[keep],
                "n_chars_dedup": n_chars[keep],
                "key": keys,
                "bucket": pd.Series([int(k[:2], 16) for k in keys], dtype=np.int64),
            }
        )

    # survivors hashed once; the narrow projection drives both passes
    kd = segs.map_batches(gate, batch_format="pandas").materialize()

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "bucket": pd.Series(range(_N_SHUF_BUCKETS), dtype=np.int64),
                "n": pd.Series(
                    np.bincount(df["bucket"], minlength=_N_SHUF_BUCKETS),
                    dtype=np.int64,
                ),
            }
        )

    counts = (
        kd.map_batches(bucket_counts, batch_format="pandas")
        .groupby("bucket")
        .aggregate(_Sum("n", alias_name="n"))
        .to_pandas()
    )
    cols = ["doc_id", "n_segs", "n_kept", "n_chars_dedup", "rank", "shard"]
    if counts.empty:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    full = np.zeros(_N_SHUF_BUCKETS, dtype=np.int64)
    full[counts["bucket"].to_numpy()] = counts["n"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id"], kind="mergesort")
        rank = offsets[int(g["bucket"].iloc[0])] + np.arange(len(g), dtype=np.int64)
        out = g[["doc_id", "n_segs", "n_kept", "n_chars_dedup"]].reset_index(drop=True)
        out["rank"] = rank
        out["shard"] = rank % REF_N_SHARDS
        return out

    return kd.groupby("bucket").map_groups(rank_bucket, batch_format="pandas")


REFINERY_SQL = f"""
WITH words AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
seg0 AS (
  SELECT doc_id, ws,
         unnest(range(CAST(ceil(len(ws) / {SEG_W}.0) AS BIGINT))) AS seg_no
  FROM words),
segs AS (
  SELECT doc_id, seg_no,
         array_to_string(ws[(seg_no*{SEG_W}+1):(seg_no*{SEG_W}+{SEG_W})], ' ') AS seg
  FROM seg0),
kept AS (
  SELECT * FROM (
    SELECT doc_id, seg_no, seg,
           ROW_NUMBER() OVER (PARTITION BY seg ORDER BY doc_id, seg_no) AS rn
    FROM segs) WHERE rn = 1),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_kept,
         string_agg(seg, ' ' ORDER BY seg_no) AS txt
  FROM kept GROUP BY doc_id),
tot AS (
  SELECT doc_id, CAST(ceil(len(ws) / {SEG_W}.0) AS BIGINT) AS n_segs FROM words),
docs2 AS (
  SELECT t.doc_id, t.n_segs, coalesce(a.n_kept, 0) AS n_kept,
         coalesce(a.txt, '') AS txt
  FROM tot t LEFT JOIN agg a USING (doc_id)),
surv AS (
  SELECT doc_id, n_segs, n_kept, CAST(strlen(txt) AS BIGINT) AS n_chars_dedup
  FROM docs2
  WHERE n_kept > 0 AND strlen(txt) >= {REF_MIN_CHARS} AND n_kept * 2 >= n_segs),
r AS (
  SELECT doc_id, n_segs, n_kept, n_chars_dedup,
         CAST(ROW_NUMBER() OVER (
            ORDER BY md5('{REF_SEED}' || CAST(doc_id AS VARCHAR)), doc_id) - 1
           AS BIGINT) AS rank
  FROM surv)
SELECT doc_id, n_segs, n_kept, n_chars_dedup, rank,
       rank % {REF_N_SHARDS} AS shard
FROM r
"""


# ================================================= tokenizer fertility
#
# Per-language bytes/chars-per-token — the tokenizer-efficiency audit
# run before fixing a vocabulary for a multilingual corpus (languages
# with poor fertility eat the token budget). Whitespace tokens with the
# repo's canonical regex; all-integer output (x100 ratios via floor
# division) keeps the oracle exact.


def q_tokenizer_fertility(sf_dir: str):
    """(lang, n_docs, n_chars, n_bytes, n_tokens, chars_per_token_x100,
    bytes_per_token_x100) per language.

    Scale shape: per-batch per-lang integer sums (one row per lang per
    block) -> one bounded groupby on lang -> integer ratios in-task."""
    d = _read(sf_dir, "documents", columns=["lang", "text"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        txt = df["text"].fillna("")
        g = pd.DataFrame(
            {
                "lang": df["lang"].to_numpy(),
                "n_docs": np.int64(1),
                "n_chars": txt.str.len().to_numpy(np.int64),
                "n_bytes": np.fromiter(
                    (len(t.encode("utf-8")) for t in txt), np.int64, len(txt)
                ),
                "n_tokens": txt.str.count(tok_re).to_numpy(np.int64),
            }
        ).groupby("lang", as_index=False).sum()
        return g

    def ratios(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("lang", as_index=False)[
            ["n_docs", "n_chars", "n_bytes", "n_tokens"]
        ].sum()
        nt = np.maximum(s["n_tokens"].to_numpy(np.int64), 1)
        s["chars_per_token_x100"] = (100 * s["n_chars"].to_numpy(np.int64)) // nt
        s["bytes_per_token_x100"] = (100 * s["n_bytes"].to_numpy(np.int64)) // nt
        return s.astype(
            {c: np.int64 for c in s.columns if c != "lang"}
        )

    return (
        d.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .map_groups(ratios, batch_format="pandas")
    )


TOKENIZER_FERTILITY_SQL = r"""
WITH s AS (
  SELECT lang,
    CAST(COUNT(*) AS BIGINT) AS n_docs,
    CAST(SUM(length(text)) AS BIGINT) AS n_chars,
    CAST(SUM(octet_length(encode(text))) AS BIGINT) AS n_bytes,
    CAST(SUM(len(regexp_extract_all(text, '[^ \t\n\r\f]+'))) AS BIGINT) AS n_tokens
  FROM documents GROUP BY lang)
SELECT lang, n_docs, n_chars, n_bytes, n_tokens,
  CAST(100 * n_chars // GREATEST(n_tokens, 1) AS BIGINT) AS chars_per_token_x100,
  CAST(100 * n_bytes // GREATEST(n_tokens, 1) AS BIGINT) AS bytes_per_token_x100
FROM s
"""


# ===================================================== vocab_coverage
#
# Tokenizer-sizing curve: what fraction of all token OCCURRENCES is
# covered by the K most frequent types —
# the number that decides how large a subword vocabulary needs to be
# before <unk>/byte-fallback traffic becomes negligible.
#
# Scale shape: per-batch type-count combiner → ONE coarse exchange on
# the type → exact global counts; top-max(K) selected AFTER the
# exchange via global_prune (a prune on partial counts would be
# invalid), so the driver holds ≤ max(K) rows + one total scalar —
# vocabulary-bounded, never corpus-bounded.

# the synthetic corpus has a 31-type vocabulary, so the curve is
# probed at {2, 8, 16} to stay non-degenerate (coverage strictly rising
# with k and below 100% at the low points); real web text would use
# {2^8..2^15} — the machinery is K-independent
VOCAB_KS = [2, 8, 16]
_VC_TOKEN_RE = re.compile(r"[^ \t\n\r\f]+")


def q_vocab_coverage(sf_dir: str, ks=None):
    from .grouping import global_prune

    ks = sorted(ks or VOCAB_KS)
    kmax = ks[-1]
    d = _read(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = []
        for t in df["text"]:
            toks.extend(_VC_TOKEN_RE.findall((t or "").lower()))
        if not toks:
            return pd.DataFrame({"tok": pd.Series(dtype=object),
                                 "part_n": pd.Series(dtype=np.int64)})
        s = pd.Series(toks).value_counts()
        return pd.DataFrame({"tok": s.index, "part_n": s.to_numpy(np.int64)})

    parts = d.map_batches(partial, batch_format="pandas")

    def reduce_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("tok", as_index=False)["part_n"].sum()
        return out.rename(columns={"part_n": "n"})

    counts = (
        _with_coarse_group(parts, "tok")
        .groupby("_g")
        .map_groups(reduce_counts, batch_format="pandas")
    ).materialize()  # consumed twice: top-K prune + total sum

    def prune_top(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "tok" not in df.columns:
            return df
        return df.sort_values(["n", "tok"], ascending=[False, True]).head(kmax)

    top = global_prune(counts, prune_top)
    total = int(counts.sum("n") or 0)
    if top.empty or "n" not in top.columns:
        return pd.DataFrame(
            {
                "k": pd.Series(dtype="int64"),
                "n_types": pd.Series(dtype="int64"),
                "covered": pd.Series(dtype="int64"),
                "total": pd.Series(dtype="int64"),
                "coverage_bp": pd.Series(dtype="int64"),
            }
        )
    top = top.sort_values(["n", "tok"], ascending=[False, True]).reset_index(
        drop=True
    )
    cum = top["n"].to_numpy(np.int64).cumsum()
    rows = []
    for k in ks:
        n_types = min(k, len(top))
        covered = int(cum[n_types - 1]) if n_types else 0
        rows.append(
            (k, n_types, covered, total, covered * 10000 // max(total, 1))
        )
    return pd.DataFrame(
        rows, columns=["k", "n_types", "covered", "total", "coverage_bp"]
    ).astype("int64")


VOCAB_COVERAGE_SQL = rf"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS tok
  FROM documents),
cnt AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY 1),
rk AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n DESC, tok ASC) AS rn FROM cnt),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS total,
               CAST(COUNT(*) AS BIGINT) AS n_vocab FROM cnt),
ks(k) AS (VALUES {", ".join(f"({k})" for k in VOCAB_KS)})
SELECT CAST(ks.k AS BIGINT) AS k,
       CAST(LEAST(ks.k, tot.n_vocab) AS BIGINT) AS n_types,
       CAST(COALESCE(SUM(rk.n), 0) AS BIGINT) AS covered,
       tot.total,
       CAST(COALESCE(SUM(rk.n), 0) * 10000 // GREATEST(tot.total, 1) AS BIGINT)
         AS coverage_bp
FROM ks CROSS JOIN tot LEFT JOIN rk ON rk.rn <= ks.k
GROUP BY ks.k, tot.total, tot.n_vocab
"""


# ======================================================= token_entropy
#
# Per-document Shannon token diversity in integer micro-nats — the
# third diversity index beside token_simpson (concentration) and
# repetition_stats (top-gram mass); low entropy flags keyword-stuffed
# or template pages a quality filter should drop. Fully integer:
# H = ln(n) − (1/n)·Σ c·ln(c) is computed as
# (n·L(n) − Σ c·L(c)) // n with L(x) = floor(1e6·ln(x)), so both
# engines do exact integer sums over identically-quantized libm logs
# (the zipf_slope parity device applied per document).
#
# Scale shape: NO shuffle — a document is one row, so its token counts
# are batch-local; one vectorized pass per batch, output one narrow row
# per doc. L(c) is memoized over the batch's distinct counts.

def q_token_entropy(sf_dir: str):
    import math

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_id", "n_tokens", "distinct_tokens", "entropy_unats"]
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        out_n = np.zeros(len(df), dtype=np.int64)
        out_k = np.zeros(len(df), dtype=np.int64)
        out_e = np.zeros(len(df), dtype=np.int64)
        memo: dict[int, int] = {1: 0}
        for i, text in enumerate(df["text"].to_numpy()):
            toks = tok_re.findall(str(text).lower())
            n = len(toks)
            out_n[i] = n
            if not n:
                continue
            _, cnts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            out_k[i] = len(cnts)
            sc = 0
            for c in cnts:
                c = int(c)
                lc = memo.get(c)
                if lc is None:
                    lc = memo[c] = math.floor(1e6 * math.log(c))
                sc += c * lc
            ln = memo.get(n)
            if ln is None:
                ln = memo[n] = math.floor(1e6 * math.log(n))
            out_e[i] = (n * ln - sc) // n
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "n_tokens": out_n,
                "distinct_tokens": out_k,
                "entropy_unats": out_e,
            }
        )

    return d.map_batches(per_doc, batch_format="pandas")


TOKEN_ENTROPY_SQL = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
c AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY 1, 2),
per AS (
  SELECT doc_id, SUM(c) AS n, COUNT(*) AS k,
         SUM(c * CAST(FLOOR(1e6 * ln(c)) AS BIGINT)) AS sc
  FROM c GROUP BY 1)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(COALESCE(per.n, 0) AS BIGINT) AS n_tokens,
       CAST(COALESCE(per.k, 0) AS BIGINT) AS distinct_tokens,
       CAST(COALESCE((per.n * CAST(FLOOR(1e6 * ln(per.n)) AS BIGINT) - per.sc)
                     // per.n, 0) AS BIGINT) AS entropy_unats
FROM documents d LEFT JOIN per USING (doc_id)
"""


# ========================================================== psi_drift
#
# Population Stability Index of each source's doc-length distribution
# against the rest of the corpus — the drift score a data buyer tracks
# per provider/snapshot before remixing. Laplace-smoothed over 20
# fixed-width length bins; the ln of the (integer) odds ratio is
# quantized to floor(1e6·ln(x)) on both engines, every other step is
# exact big-integer arithmetic, so parity is exact. Each term
# (p−q)(L(aB')−L(bA')) is ≥ 0 because floor preserves the ordering of
# its arguments.
#
# Scale shape: per-batch (source, bin) count partials (≤ sources×20
# rows per block) → ONE global_prune combine → a ≤ sources×20-row
# driver table reduced with Python big ints. No shuffle.

PSI_BIN_WIDTH = 50
PSI_BINS = 20


def q_psi_drift(sf_dir: str):
    import math

    d = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "source": pd.Series(dtype=str),
                    "bin": pd.Series(dtype=np.int64),
                    "a": pd.Series(dtype=np.int64),
                }
            )
        bins = np.minimum(
            df["n_chars"].to_numpy(np.int64) // PSI_BIN_WIDTH, PSI_BINS - 1
        )
        g = pd.DataFrame({"source": df["source"], "bin": bins, "a": 1})
        return g.groupby(["source", "bin"], as_index=False)["a"].sum()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.groupby(["source", "bin"], as_index=False)["a"].sum()

    from .grouping import global_prune

    m = global_prune(d.map_batches(partial, batch_format="pandas"), combine)
    cols = ["source", "n_docs", "psi_unats"]
    if not len(m) or "source" not in m.columns:
        return pd.DataFrame(
            {"source": pd.Series(dtype=str), "n_docs": pd.Series(dtype=np.int64),
             "psi_unats": pd.Series(dtype=np.int64)}
        )
    # pivot to the full sources × bins grid with integer zeros
    pv = m.pivot_table(index="source", columns="bin", values="a",
                       aggfunc="sum", fill_value=0)
    pv = pv.reindex(columns=range(PSI_BINS), fill_value=0).astype(np.int64)
    tot = pv.sum(axis=0).to_numpy(np.int64)
    rows = []
    for source, arow in pv.iterrows():
        a = arow.to_numpy(np.int64)
        b = tot - a
        ap = int(a.sum()) + PSI_BINS
        bp = int(b.sum()) + PSI_BINS
        psi = 0
        for i in range(PSI_BINS):
            ai, bi = int(a[i]) + 1, int(b[i]) + 1
            diff = ai * bp - bi * ap
            lnr = math.floor(1e6 * math.log(ai * bp)) - math.floor(
                1e6 * math.log(bi * ap)
            )
            psi += diff * lnr
        rows.append((source, int(a.sum()), psi // (ap * bp)))
    return pd.DataFrame(rows, columns=cols).astype(
        {"n_docs": np.int64, "psi_unats": np.int64}
    )


PSI_DRIFT_SQL = f"""
WITH t AS (
  SELECT source, LEAST(n_chars // {PSI_BIN_WIDTH}, {PSI_BINS} - 1) AS bin,
         CAST(COUNT(*) AS BIGINT) AS a
  FROM documents GROUP BY 1, 2),
tot AS (SELECT bin, SUM(a) AS tt FROM t GROUP BY 1),
grid AS (
  SELECT s.source, g.bin
  FROM (SELECT DISTINCT source FROM documents) s,
       (SELECT unnest(range(0, {PSI_BINS})) AS bin) g),
f AS (
  SELECT grid.source, grid.bin,
         CAST(COALESCE(t.a, 0) AS HUGEINT) AS a,
         CAST(COALESCE(tot.tt, 0) - COALESCE(t.a, 0) AS HUGEINT) AS b
  FROM grid
  LEFT JOIN t ON t.source = grid.source AND t.bin = grid.bin
  LEFT JOIN tot ON tot.bin = grid.bin),
tots AS (SELECT source, SUM(a) + {PSI_BINS} AS ap, SUM(b) + {PSI_BINS} AS bp
         FROM f GROUP BY 1),
terms AS (
  SELECT f.source,
         ((f.a + 1) * tots.bp - (f.b + 1) * tots.ap)
         * (CAST(FLOOR(1e6 * ln(CAST((f.a + 1) * tots.bp AS DOUBLE)))
                 AS HUGEINT)
            - CAST(FLOOR(1e6 * ln(CAST((f.b + 1) * tots.ap AS DOUBLE)))
                   AS HUGEINT)) AS term,
         tots.ap AS ap, tots.bp AS bp
  FROM f JOIN tots USING (source))
SELECT source,
       CAST(MAX(ap) - {PSI_BINS} AS BIGINT) AS n_docs,
       CAST(SUM(term) // (MAX(ap) * MAX(bp)) AS BIGINT) AS psi_unats
FROM terms GROUP BY 1
"""


# ====================================================== mi_composition
#
# Pointwise mutual information of every (lang, source) cell of the
# corpus composition table — the audit that tells a mixture designer
# which providers over-/under-supply which languages before weights are
# set. pmi_unats = L(n_ls·N) − L(n_l·n_s) with L(x) =
# floor(1e6·ln(double(x))): the argument is converted to double BEFORE
# the log on both engines (Python float(int) and DuckDB's
# HUGEINT→DOUBLE round identically), so the quantized logs match
# bit-for-bit even when the products overflow 2^53. Summing
# n_ls·pmi // N over cells gives corpus MI; the cells themselves are
# the deliverable.
#
# Scale shape: per-batch (lang, source) count partials (≤ L×S rows per
# block) → ONE global_prune combine → a ≤ L×S-row driver table where
# marginals are two numpy sums. NO shuffle.

def q_mi_composition(sf_dir: str):
    import math

    d = _read(sf_dir, "documents", columns=["lang", "source"])
    cols = ["lang", "source", "n_docs", "n_lang", "n_source", "pmi_unats"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "lang": pd.Series(dtype=str),
                    "source": pd.Series(dtype=str),
                    "n": pd.Series(dtype=np.int64),
                }
            )
        g = df.assign(n=1).groupby(["lang", "source"], as_index=False)["n"].sum()
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.groupby(["lang", "source"], as_index=False)["n"].sum()

    from .grouping import global_prune

    m = global_prune(d.map_batches(partial, batch_format="pandas"), combine)
    if not len(m) or "lang" not in m.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64 if c.startswith(("n_", "pmi")) else str)
             for c in cols}
        )
    nl = m.groupby("lang")["n"].transform("sum").to_numpy(np.int64)
    ns = m.groupby("source")["n"].transform("sum").to_numpy(np.int64)
    n = m["n"].to_numpy(np.int64)
    nt = int(n.sum())
    pmi = np.fromiter(
        (
            math.floor(1e6 * math.log(float(int(c) * nt)))
            - math.floor(1e6 * math.log(float(int(l) * int(s))))
            for c, l, s in zip(n, nl, ns)
        ),
        dtype=np.int64,
        count=len(m),
    )
    return pd.DataFrame(
        {
            "lang": m["lang"].to_numpy(),
            "source": m["source"].to_numpy(),
            "n_docs": n,
            "n_lang": nl,
            "n_source": ns,
            "pmi_unats": pmi,
        }
    )


MI_COMPOSITION_SQL = """
WITH c AS (SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n
           FROM documents GROUP BY 1, 2),
m AS (
  SELECT lang, source, n,
         SUM(n) OVER (PARTITION BY lang) AS nl,
         SUM(n) OVER (PARTITION BY source) AS ns,
         SUM(n) OVER () AS nt
  FROM c)
SELECT lang, source, n AS n_docs,
       CAST(nl AS BIGINT) AS n_lang,
       CAST(ns AS BIGINT) AS n_source,
       CAST(FLOOR(1e6 * ln(CAST(n * nt AS DOUBLE))) AS BIGINT)
       - CAST(FLOOR(1e6 * ln(CAST(nl * ns AS DOUBLE))) AS BIGINT) AS pmi_unats
FROM m
"""


# ======================================================= filter_funnel
#
# Per-source survivorship through a C4/RefinedWeb-style quality-gate
# cascade — the audit table a curation run publishes so a data buyer
# can see WHERE each provider's documents die. Four cumulative gates,
# all integer-exact: length (n_chars ≥ 200), token count (≥ 30),
# type-token ratio (distinct·10⁴ // n ≥ 2500), and max-token share
# (top count·10⁴ // n ≤ 2000, the keyword-stuffing gate). Counts are
# cumulative ANDs, so n_docs ≥ n_len ≥ n_tok ≥ n_distinct ≥ n_rep.
#
# Scale shape: one tokenizing pass per batch (per-doc np.unique — the
# token_entropy kernel), per-source partial sums (≤ sources rows per
# block) → ONE global_prune combine → ≤ sources driver rows. NO
# shuffle.

FUNNEL_MIN_CHARS = 200
FUNNEL_MIN_TOKENS = 30
FUNNEL_MIN_TTR_BP = 2500
FUNNEL_MAX_TOP_BP = 2000


def q_filter_funnel(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["source", "text", "n_chars"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")
    cols = ["source", "n_docs", "n_len", "n_tok", "n_distinct", "n_rep"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(dtype=str if c == "source" else np.int64)
                 for c in cols}
            )
        nc = df["n_chars"].to_numpy(np.int64)
        g1 = nc >= FUNNEL_MIN_CHARS
        g2 = np.zeros(len(df), dtype=bool)
        g3 = np.zeros(len(df), dtype=bool)
        g4 = np.zeros(len(df), dtype=bool)
        for i, text in enumerate(df["text"].to_numpy()):
            toks = tok_re.findall(str(text).lower())
            n = len(toks)
            if not n:
                continue
            _, cnts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            g2[i] = n >= FUNNEL_MIN_TOKENS
            g3[i] = len(cnts) * 10000 // n >= FUNNEL_MIN_TTR_BP
            g4[i] = int(cnts.max()) * 10000 // n <= FUNNEL_MAX_TOP_BP
        out = pd.DataFrame(
            {
                "source": df["source"].to_numpy(),
                "n_docs": 1,
                "n_len": g1.astype(np.int64),
                "n_tok": (g1 & g2).astype(np.int64),
                "n_distinct": (g1 & g2 & g3).astype(np.int64),
                "n_rep": (g1 & g2 & g3 & g4).astype(np.int64),
            }
        )
        return out.groupby("source", as_index=False).sum()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "source" not in df.columns:
            return df
        return df.groupby("source", as_index=False).sum()

    from .grouping import global_prune

    m = global_prune(d.map_batches(partial, batch_format="pandas"), combine)
    if not len(m) or "source" not in m.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=str if c == "source" else np.int64) for c in cols}
        )
    return m[cols].astype({c: np.int64 for c in cols[1:]})


FILTER_FUNNEL_SQL = rf"""
WITH t AS (
  SELECT doc_id, source, n_chars,
         regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ts
  FROM documents),
tc AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS c
       FROM (SELECT doc_id, unnest(ts) AS w FROM t) GROUP BY 1, 2),
st AS (SELECT doc_id, SUM(c) AS n, CAST(COUNT(*) AS BIGINT) AS k,
              MAX(c) AS mx
       FROM tc GROUP BY 1),
p AS (
  SELECT t.source,
         t.n_chars >= {FUNNEL_MIN_CHARS} AS g1,
         COALESCE(st.n, 0) >= {FUNNEL_MIN_TOKENS} AS g2,
         CASE WHEN COALESCE(st.n, 0) > 0
              THEN st.k * 10000 // st.n >= {FUNNEL_MIN_TTR_BP}
              ELSE FALSE END AS g3,
         CASE WHEN COALESCE(st.n, 0) > 0
              THEN st.mx * 10000 // st.n <= {FUNNEL_MAX_TOP_BP}
              ELSE FALSE END AS g4
  FROM t LEFT JOIN st USING (doc_id))
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN g1 THEN 1 ELSE 0 END) AS BIGINT) AS n_len,
       CAST(SUM(CASE WHEN g1 AND g2 THEN 1 ELSE 0 END) AS BIGINT) AS n_tok,
       CAST(SUM(CASE WHEN g1 AND g2 AND g3 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_distinct,
       CAST(SUM(CASE WHEN g1 AND g2 AND g3 AND g4 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_rep
FROM p GROUP BY 1
"""


# ======================================================= proximity_rank
#
# Minimal-window phrase proximity (the IR signal BM25 can't see): for
# every document containing ALL of the PROX_TERMS, the length of the
# shortest token window covering one occurrence of each — the classic
# proximity feature a retrieval reranker adds on top of bm25_rank.
# Tokenization is the repo's whitespace class on lowercased text;
# min_span = min over occurrence triples of (max pos − min pos + 1),
# pure integer arithmetic.
#
# Scale shape: one streaming map_batches pass — per-doc term position
# lists are found vectorized (np.where over the token array) and the
# window minimization is a broadcast over the (tiny) per-doc occurrence
# grid; docs missing any term emit nothing. NO shuffle; at 100 TB this
# runs at read bandwidth like the other single-pass text scans.

PROX_TERMS = ("scan", "join", "sort")


def q_proximity_rank(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def spans(df: pd.DataFrame) -> pd.DataFrame:
        ids, out = [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = np.array(tok_re.findall(str(text).lower()), dtype=object)
            pos = []
            ok = True
            for t in PROX_TERMS:
                w = np.where(toks == t)[0]
                if not len(w):
                    ok = False
                    break
                pos.append(w.astype(np.int64))
            if not ok:
                continue
            a, b, c = pos
            ga, gb, gc = np.meshgrid(a, b, c, indexing="ij", sparse=True)
            grid_max = np.maximum(np.maximum(ga, gb), gc)
            grid_min = np.minimum(np.minimum(ga, gb), gc)
            ids.append(int(doc_id))
            out.append(int((grid_max - grid_min).min()) + 1)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype=np.int64),
                "min_span": pd.Series(out, dtype=np.int64),
            }
        )

    return d.map_batches(spans, batch_format="pandas")


PROXIMITY_RANK_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
  FROM documents),
t AS (
  SELECT doc_id, CAST(i.i AS BIGINT) AS pos, ws[CAST(i.i AS INTEGER)] AS tok
  FROM w, unnest(range(1, len(ws) + 1)) AS i(i)),
p1 AS (SELECT doc_id, pos FROM t WHERE tok = '{PROX_TERMS[0]}'),
p2 AS (SELECT doc_id, pos FROM t WHERE tok = '{PROX_TERMS[1]}'),
p3 AS (SELECT doc_id, pos FROM t WHERE tok = '{PROX_TERMS[2]}')
SELECT p1.doc_id,
       CAST(MIN(GREATEST(p1.pos, p2.pos, p3.pos)
                - LEAST(p1.pos, p2.pos, p3.pos) + 1) AS BIGINT) AS min_span
FROM p1
JOIN p2 ON p2.doc_id = p1.doc_id
JOIN p3 ON p3.doc_id = p1.doc_id
GROUP BY p1.doc_id
"""


# ======================================================= spearman_drift
#
# Spearman rank correlation of the top-K token-frequency ranks between
# the two corpus halves (doc_id parity split) — the distribution-drift
# diagnostic a curator runs before mixing two crawl snapshots: rho near
# 1 means the halves agree on what the common vocabulary is; a low rho
# flags a topical or template shift. No ties by construction (ranks
# break on token asc), so the classic 1 - 6*sum(d^2)/(n(n^2-1)) closed
# form applies: exact integer rank diffs, ONE final float expression
# mirrored verbatim in the oracle.
#
# Scale shape: per-batch (token, half) count combiner -> ONE coarse
# exchange on token (counts become exact in-task) -> per-task top-K
# prune by (total desc, token asc) (associative: the global top-K is a
# subset of any union of per-task top-Ks) -> global_prune re-prune ->
# a <= K-row driver table; ranks and rho are driver math over K rows.

SPEARMAN_TOP_K = 100


def _spearman_prune(df: pd.DataFrame) -> pd.DataFrame:
    if not len(df):
        return df
    g = df.groupby("token", as_index=False)[["na", "nb"]].sum()
    g["nt"] = g["na"] + g["nb"]
    g = g.sort_values(["nt", "token"], ascending=[False, True], kind="mergesort")
    return g.head(SPEARMAN_TOP_K).drop(columns=["nt"]).astype(
        {"na": np.int64, "nb": np.int64}
    )


def _half_token_topk(sf_dir: str) -> pd.DataFrame:
    """Shared first stage of the token-drift family (spearman / chi2 /
    js): exact (token, half-A count, half-B count) for the global top-K
    tokens by total count. Per-batch (token,half) combiner -> ONE coarse
    token exchange -> associative top-K prune -> global_prune -> a
    <= SPEARMAN_TOP_K-row driver table."""
    from .grouping import global_prune

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"token": pd.Series(dtype=str),
                 "na": pd.Series(dtype=np.int64),
                 "nb": pd.Series(dtype=np.int64)}
            )
        half = (df["doc_id"].to_numpy(np.int64) % 2)
        toks = df["text"].astype(str).str.lower().str.findall(tok_re)
        rec = pd.DataFrame(
            {"token": toks, "half": half}
        ).explode("token").dropna(subset=["token"])
        g = rec.groupby(["token", "half"], as_index=False).size()
        w = g.pivot_table(index="token", values="size", columns="half",
                          fill_value=0, aggfunc="sum")
        out = pd.DataFrame({
            "token": w.index.astype(str),
            "na": w[0].to_numpy(np.int64) if 0 in w.columns else 0,
            "nb": w[1].to_numpy(np.int64) if 1 in w.columns else 0,
        })
        return out.astype({"na": np.int64, "nb": np.int64})

    def sum_and_prune(g: pd.DataFrame) -> pd.DataFrame:
        return _spearman_prune(g.drop(columns=["_g"]))

    pruned = (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(sum_and_prune, batch_format="pandas")
    )
    return global_prune(pruned, _spearman_prune)  # <= SPEARMAN_TOP_K rows


def q_spearman_drift(sf_dir: str):
    top = _half_token_topk(sf_dir)
    cols = {"n_tokens": np.int64, "sum_d2": np.int64, "spearman_rho": float}
    if top.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    top = top.sort_values(["na", "token"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    ra = pd.Series(np.arange(1, len(top) + 1, dtype=np.int64),
                   index=top["token"])
    top = top.sort_values(["nb", "token"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    rb = pd.Series(np.arange(1, len(top) + 1, dtype=np.int64),
                   index=top["token"])
    d2 = int(((ra - rb.reindex(ra.index)) ** 2).sum())
    n = len(top)
    rho = 0.0 if n < 2 else 1.0 - 6.0 * float(d2) / (
        float(n) * (float(n) * float(n) - 1.0)
    )
    return pd.DataFrame(
        {"n_tokens": [n], "sum_d2": [d2], "spearman_rho": [rho]}
    ).astype({"n_tokens": np.int64, "sum_d2": np.int64})


SPEARMAN_DRIFT_SQL = rf"""
WITH tok AS (
  SELECT doc_id % 2 AS half,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
c AS (
  SELECT token,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT) AS na,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT) AS nb
  FROM tok GROUP BY 1),
t AS (
  SELECT token, na, nb,
         ROW_NUMBER() OVER (ORDER BY na + nb DESC, token ASC) AS rk
  FROM c),
k AS (SELECT token, na, nb FROM t WHERE rk <= {SPEARMAN_TOP_K}),
r AS (
  SELECT token,
         ROW_NUMBER() OVER (ORDER BY na DESC, token ASC) AS ra,
         ROW_NUMBER() OVER (ORDER BY nb DESC, token ASC) AS rb
  FROM k),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_tokens,
         CAST(SUM((ra - rb) * (ra - rb)) AS BIGINT) AS sum_d2
  FROM r)
SELECT n_tokens, sum_d2,
       CASE WHEN n_tokens < 2 THEN 0.0
            ELSE 1.0 - 6.0 * CAST(sum_d2 AS DOUBLE)
                 / (CAST(n_tokens AS DOUBLE)
                    * (CAST(n_tokens AS DOUBLE) * CAST(n_tokens AS DOUBLE)
                       - 1.0))
       END AS spearman_rho
FROM m
"""


# ========================================================== kendall_tau
#
# Kendall tau-a between two document orderings — by raw length
# (n_chars) vs by whitespace token count — over a deterministic per-
# language panel (the KENDALL_N lowest doc_ids). The ranking-agreement
# readout an eval harness uses to decide whether two "document size"
# features are interchangeable. Both orderings are made TOTAL by the
# doc_id tiebreak, so every pair is concordant or discordant (no tie
# class) and tau = (C - D) / (n(n-1)/2): exact integer pair counts, one
# final float expression mirrored in the oracle.
#
# Scale shape: a single streaming pass computes (lang, doc_id, n_chars,
# n_tokens); the per-lang panel selection (KENDALL_N smallest doc_ids)
# is an associative prune through global_prune -> <= N x n_langs driver
# rows; the O(N^2) pair comparison is vectorized driver numpy over the
# fixed-size panel. Nothing data-scaled leaves the tasks.

KENDALL_N = 80


def _kendall_prune(df: pd.DataFrame) -> pd.DataFrame:
    if not len(df):
        return df
    df = df.sort_values(["lang", "doc_id"], kind="mergesort")
    return df.groupby("lang", dropna=False).head(KENDALL_N).reset_index(drop=True)


def q_kendall_tau(sf_dir: str):
    from .grouping import global_prune

    d = _read(sf_dir, "documents", columns=["lang", "doc_id", "text", "n_chars"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "lang": df["lang"].astype(str),
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "n_chars": df["n_chars"].to_numpy(np.int64),
                "n_tokens": df["text"].astype(str).str.lower()
                .str.findall(tok_re).str.len().to_numpy(np.int64),
            }
        )
        return _kendall_prune(out)

    panel = global_prune(
        d.map_batches(feats, batch_format="pandas"), _kendall_prune
    )  # <= KENDALL_N x n_langs rows
    cols = ["lang", "n_docs", "concordant", "discordant", "kendall_tau"]
    if panel.empty or "lang" not in panel.columns:
        return pd.DataFrame(
            {"lang": pd.Series(dtype=str),
             "n_docs": pd.Series(dtype=np.int64),
             "concordant": pd.Series(dtype=np.int64),
             "discordant": pd.Series(dtype=np.int64),
             "kendall_tau": pd.Series(dtype=float)}
        )
    rows = []
    for lang, g in panel.groupby("lang", sort=True, dropna=False):
        nc = g["n_chars"].to_numpy(np.int64)
        nt = g["n_tokens"].to_numpy(np.int64)
        did = g["doc_id"].to_numpy(np.int64)
        n = len(g)
        if n < 2:
            continue
        pair = did[:, None] < did[None, :]
        dir1 = (nc[:, None] > nc[None, :]) | (
            (nc[:, None] == nc[None, :]) & (did[:, None] < did[None, :])
        )
        dir2 = (nt[:, None] > nt[None, :]) | (
            (nt[:, None] == nt[None, :]) & (did[:, None] < did[None, :])
        )
        c = int(((dir1 == dir2) & pair).sum())
        total = int(pair.sum())
        dcount = total - c
        tau = float(c - dcount) / (float(n * (n - 1)) / 2.0)
        rows.append((str(lang), n, c, dcount, tau))
    out = pd.DataFrame(rows, columns=cols)
    return out.astype(
        {"n_docs": np.int64, "concordant": np.int64, "discordant": np.int64}
    )


KENDALL_TAU_SQL = rf"""
WITH t AS (
  SELECT lang, doc_id, n_chars,
         CAST(len(regexp_extract_all(lower(text), '[^ \t\n\r\f]+'))
              AS BIGINT) AS n_tokens,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY doc_id ASC) AS rk
  FROM documents),
k AS (SELECT lang, doc_id, n_chars, n_tokens FROM t WHERE rk <= {KENDALL_N}),
p AS (
  SELECT a.lang,
         CASE WHEN (a.n_chars > b.n_chars
                    OR (a.n_chars = b.n_chars AND a.doc_id < b.doc_id))
                   = (a.n_tokens > b.n_tokens
                      OR (a.n_tokens = b.n_tokens AND a.doc_id < b.doc_id))
              THEN 1 ELSE 0 END AS conc
  FROM k a JOIN k b ON a.lang = b.lang AND a.doc_id < b.doc_id),
m AS (
  SELECT lang, CAST(SUM(conc) AS BIGINT) AS concordant,
         CAST(COUNT(*) - SUM(conc) AS BIGINT) AS discordant
  FROM p GROUP BY 1),
cnt AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs FROM k GROUP BY 1)
SELECT m.lang, cnt.n_docs, m.concordant, m.discordant,
       CAST(m.concordant - m.discordant AS DOUBLE)
       / (CAST(cnt.n_docs * (cnt.n_docs - 1) AS DOUBLE) / 2.0) AS kendall_tau
FROM m JOIN cnt ON cnt.lang = m.lang
"""


# ============================================================ hill_tail
#
# Hill tail-index estimator of the per-language document-length
# distribution: over the k largest n_chars values x_(1) >= ... >=
# x_(k+1), alpha = k / sum_{{i<=k}} (ln x_(i) - ln x_(k+1)) — the
# standard heavy-tail exponent a capacity planner reads to size shard
# limits (alpha <= 2 means unbounded variance: giant documents WILL
# dominate shards). Parity device: zipf_slope's quantized-ln rule —
# each ln is floor(1e6*ln(x)) with the same glibc double on both
# engines, hill_q is an exact integer sum, and alpha is ONE final float
# division.
#
# Scale shape: a column-pruned read (lang, doc_id, n_chars — never
# text), per-task top-(k+1)-per-lang prune by (n_chars desc, doc_id
# asc) (associative) -> global_prune -> <= (k+1) x n_langs driver rows.

HILL_K = 50


def _hill_prune(df: pd.DataFrame) -> pd.DataFrame:
    if not len(df):
        return df
    df = df.sort_values(
        ["lang", "n_chars", "doc_id"], ascending=[True, False, True],
        kind="mergesort"
    )
    return df.groupby("lang", dropna=False).head(HILL_K + 1).reset_index(drop=True)


def q_hill_tail(sf_dir: str):
    import math

    from .grouping import global_prune

    d = _read(sf_dir, "documents", columns=["lang", "doc_id", "n_chars"]).filter(
        expr="n_chars > 0"
    )
    top = global_prune(
        d.map_batches(_hill_prune, batch_format="pandas"), _hill_prune
    )  # <= (HILL_K+1) x n_langs rows
    cols = ["lang", "k_used", "hill_q", "alpha_hill"]
    if top.empty or "lang" not in top.columns:
        return pd.DataFrame(
            {"lang": pd.Series(dtype=str),
             "k_used": pd.Series(dtype=np.int64),
             "hill_q": pd.Series(dtype=np.int64),
             "alpha_hill": pd.Series(dtype=float)}
        )
    rows = []
    for lang, g in top.groupby("lang", sort=True, dropna=False):
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True],
                          kind="mergesort")
        x = g["n_chars"].to_numpy(np.int64)
        if len(x) < 2:
            continue
        k = min(HILL_K, len(x) - 1)
        q = [int(math.floor(1e6 * math.log(int(v)))) for v in x[: k + 1]]
        hill_q = sum(q[:k]) - k * q[k]
        alpha = (
            float(k) * 1000000.0 / float(hill_q) if hill_q > 0 else 0.0
        )
        rows.append((str(lang), k, hill_q, alpha))
    out = pd.DataFrame(rows, columns=cols)
    return out.astype({"k_used": np.int64, "hill_q": np.int64})


HILL_TAIL_SQL = rf"""
WITH d AS (
  SELECT lang, doc_id, n_chars FROM documents WHERE n_chars > 0),
r AS (
  SELECT lang, n_chars,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id ASC) AS rk,
         COUNT(*) OVER (PARTITION BY lang) AS cnt
  FROM d),
b AS (
  SELECT lang, LEAST({HILL_K}, cnt - 1) AS k
  FROM r WHERE rk = 1 AND cnt >= 2),
q AS (
  SELECT r.lang, b.k,
         CAST(FLOOR(1e6 * ln(r.n_chars)) AS BIGINT) AS ql, r.rk
  FROM r JOIN b USING (lang) WHERE r.rk <= b.k + 1),
m AS (
  SELECT lang, k,
         SUM(CASE WHEN rk <= k THEN ql ELSE 0 END)
           - k * MAX(CASE WHEN rk = k + 1 THEN ql ELSE 0 END) AS hill_q
  FROM q GROUP BY 1, 2)
SELECT lang, CAST(k AS BIGINT) AS k_used, CAST(hill_q AS BIGINT) AS hill_q,
       CASE WHEN hill_q > 0
            THEN CAST(k AS DOUBLE) * 1000000.0 / CAST(hill_q AS DOUBLE)
            ELSE 0.0 END AS alpha_hill
FROM m
"""


# ===================================================== chi2_token_drift
#
# Pearson chi-square divergence between the two corpus halves' top-K
# token counts (the same doc_id-parity split and top-K selection as
# spearman_drift, which reads rank ORDER agreement; this reads MASS
# divergence — the pair a curator uses to separate "same vocabulary,
# different emphasis" from "different vocabulary"). The 2xK contingency
# chi-square is computed per cell as the cross-multiplied integer
# 1e6*(O*T - rowtot*coltot)^2 // (T*rowtot*coltot) — Python unbounded
# ints on the driver, HUGEINT in the oracle (exact to 1e38: safe while
# count*total < 1e19, i.e. any corpus whose top-K token counts fit
# ~3e9; past that, re-scale to bp — documented bound, test-pinned).
#
# Scale shape: identical to spearman_drift — (token,half) partials ->
# ONE coarse token exchange -> associative top-K prune -> global_prune
# -> <= K-row driver table; the chi-square is driver math over 2K cells.


def q_chi2_token_drift(sf_dir: str):
    top = _half_token_topk(sf_dir)
    cols = {"n_tokens": np.int64, "dof": np.int64, "chi2_ppm": np.int64}
    if top.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    na = [int(v) for v in top["na"]]
    nb = [int(v) for v in top["nb"]]
    ta, tb = sum(na), sum(nb)
    t = ta + tb
    chi2 = 0
    for oa, ob in zip(na, nb):
        ct = oa + ob
        if ct == 0:
            continue
        if ta > 0:
            chi2 += 1_000_000 * (oa * t - ta * ct) ** 2 // (t * ta * ct)
        if tb > 0:
            chi2 += 1_000_000 * (ob * t - tb * ct) ** 2 // (t * tb * ct)
    k = len(top)
    return pd.DataFrame(
        {"n_tokens": [k], "dof": [k - 1], "chi2_ppm": [chi2]}
    ).astype(cols)


CHI2_TOKEN_DRIFT_SQL = rf"""
WITH tok AS (
  SELECT doc_id % 2 AS half,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
c AS (
  SELECT token,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS HUGEINT) AS na,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS HUGEINT) AS nb
  FROM tok GROUP BY 1),
t AS (
  SELECT token, na, nb,
         ROW_NUMBER() OVER (ORDER BY na + nb DESC, token ASC) AS rk
  FROM c),
k AS (SELECT token, na, nb FROM t WHERE rk <= {SPEARMAN_TOP_K}),
m AS (
  SELECT CAST(SUM(na) AS HUGEINT) AS ta, CAST(SUM(nb) AS HUGEINT) AS tb,
         CAST(COUNT(*) AS BIGINT) AS n_tokens
  FROM k),
cells AS (
  SELECT m.n_tokens,
         CASE WHEN m.ta > 0 AND k.na + k.nb > 0
              THEN 1000000 * (k.na * (m.ta + m.tb) - m.ta * (k.na + k.nb))
                   * (k.na * (m.ta + m.tb) - m.ta * (k.na + k.nb))
                   // ((m.ta + m.tb) * m.ta * (k.na + k.nb))
              ELSE 0 END
         + CASE WHEN m.tb > 0 AND k.na + k.nb > 0
              THEN 1000000 * (k.nb * (m.ta + m.tb) - m.tb * (k.na + k.nb))
                   * (k.nb * (m.ta + m.tb) - m.tb * (k.na + k.nb))
                   // ((m.ta + m.tb) * m.tb * (k.na + k.nb))
              ELSE 0 END AS term
  FROM k, m)
SELECT n_tokens, CAST(n_tokens - 1 AS BIGINT) AS dof,
       CAST(SUM(term) AS BIGINT) AS chi2_ppm
FROM cells GROUP BY 1
"""


# ================================================== composition_entropy
#
# Per-source language-mix entropy in integer micro-nats — "is this
# source monolingual or a mixed bag", the composition readout next to
# mi_composition's association score. token_entropy's quantized-log
# device applied to the (source, lang) doc-count distribution:
# H_q = (n*L(n) - sum c*L(c)) // n with L(x) = floor(1e6*ln(x)).
#
# Scale shape: per-batch (source, lang) count combiner -> ONE groupby
# on the composition cell (bounded by |sources| x |langs|, schema-
# bounded) -> driver entropy over the cell table. Document text never
# leaves the scan.


def q_composition_entropy(sf_dir: str):
    import math

    d = _read(sf_dir, "documents", columns=["source", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["source", "lang"], as_index=False).size()
        out.columns = ["source", "lang", "n_part"]
        return out.astype({"n_part": np.int64})

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby(["source", "lang"])
        .aggregate(Sum("n_part", alias_name="n"))
        .to_pandas()  # <= |sources| x |langs| rows, schema-bounded
    )
    cols = {"source": str, "n_docs": np.int64, "n_langs": np.int64,
            "entropy_unats": np.int64}
    if not len(c):
        return pd.DataFrame(
            {"source": pd.Series(dtype=str),
             "n_docs": pd.Series(dtype=np.int64),
             "n_langs": pd.Series(dtype=np.int64),
             "entropy_unats": pd.Series(dtype=np.int64)}
        )
    rows = []
    for source, g in c.groupby("source", sort=True, dropna=False):
        cnts = [int(v) for v in g["n"]]
        n = sum(cnts)
        ln = math.floor(1e6 * math.log(n)) if n > 0 else 0
        sc = sum(v * math.floor(1e6 * math.log(v)) for v in cnts if v > 0)
        h = (n * ln - sc) // n if n > 0 else 0
        rows.append((str(source), n, len(cnts), h))
    return pd.DataFrame(
        rows, columns=["source", "n_docs", "n_langs", "entropy_unats"]
    ).astype({"n_docs": np.int64, "n_langs": np.int64,
              "entropy_unats": np.int64})


COMPOSITION_ENTROPY_SQL = """
WITH c AS (
  SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2),
s AS (
  SELECT source, CAST(SUM(n) AS BIGINT) AS n_docs,
         CAST(COUNT(*) AS BIGINT) AS n_langs,
         CAST(SUM(n * CAST(FLOOR(1e6 * ln(n)) AS BIGINT)) AS BIGINT) AS sc
  FROM c GROUP BY 1)
SELECT source, n_docs, n_langs,
       CAST((n_docs * CAST(FLOOR(1e6 * ln(n_docs)) AS BIGINT) - sc)
            // n_docs AS BIGINT) AS entropy_unats
FROM s
"""


# ======================================================= js_token_drift
#
# Jensen-Shannon divergence between the halves' top-K token
# distributions — the bounded, symmetric drift number (0..ln2) that
# completes the family: spearman reads rank ORDER, chi2 reads MASS
# significance, JS reads distributional DISTANCE on a fixed scale.
# Integer device: for each half, the KL-to-mixture numerator is
# sum_i n_i * (L(2*n_i*T_other) - L(n_i*T_other + m_i*T_self)) with
# L(x) = floor(1e6*ln(CAST(x AS DOUBLE))) — the mi_composition rule:
# the product converts to double BEFORE the log on both engines, so
# >2^53 products stay parity-exact. Each KL is clamped at 0 before its
# ONE floor division (quantization can push a near-zero KL a hair
# negative, and DuckDB // truncates toward zero while Python floors —
# clamping makes the operands nonnegative so the semantics agree).


def q_js_token_drift(sf_dir: str):
    import math

    top = _half_token_topk(sf_dir)
    cols = {"n_tokens": np.int64, "kl_a_unats": np.int64,
            "kl_b_unats": np.int64, "js_unats": np.int64}
    if top.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    na = [int(v) for v in top["na"]]
    nb = [int(v) for v in top["nb"]]
    ta, tb = sum(na), sum(nb)

    def L(x: int) -> int:
        return math.floor(1e6 * math.log(float(x)))

    kla = klb = 0
    if ta > 0 and tb > 0:
        num_a = sum(
            n * (L(2 * n * tb) - L(n * tb + m * ta))
            for n, m in zip(na, nb) if n > 0
        )
        num_b = sum(
            m * (L(2 * m * ta) - L(m * ta + n * tb))
            for n, m in zip(na, nb) if m > 0
        )
        kla = max(0, num_a) // ta
        klb = max(0, num_b) // tb
    js = (kla + klb) // 2
    return pd.DataFrame(
        {"n_tokens": [len(top)], "kl_a_unats": [kla],
         "kl_b_unats": [klb], "js_unats": [js]}
    ).astype(cols)


JS_TOKEN_DRIFT_SQL = rf"""
WITH tok AS (
  SELECT doc_id % 2 AS half,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
c AS (
  SELECT token,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS HUGEINT) AS na,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS HUGEINT) AS nb
  FROM tok GROUP BY 1),
t AS (
  SELECT token, na, nb,
         ROW_NUMBER() OVER (ORDER BY na + nb DESC, token ASC) AS rk
  FROM c),
k AS (SELECT token, na, nb FROM t WHERE rk <= {SPEARMAN_TOP_K}),
m AS (
  SELECT CAST(SUM(na) AS HUGEINT) AS ta, CAST(SUM(nb) AS HUGEINT) AS tb,
         CAST(COUNT(*) AS BIGINT) AS n_tokens
  FROM k),
terms AS (
  SELECT m.n_tokens, m.ta, m.tb,
         CASE WHEN k.na > 0 AND m.ta > 0 AND m.tb > 0
              THEN k.na * (CAST(FLOOR(1e6 * ln(CAST(2 * k.na * m.tb
                                                    AS DOUBLE))) AS HUGEINT)
                           - CAST(FLOOR(1e6 * ln(CAST(k.na * m.tb
                                                      + k.nb * m.ta
                                                      AS DOUBLE))) AS HUGEINT))
              ELSE 0 END AS term_a,
         CASE WHEN k.nb > 0 AND m.ta > 0 AND m.tb > 0
              THEN k.nb * (CAST(FLOOR(1e6 * ln(CAST(2 * k.nb * m.ta
                                                    AS DOUBLE))) AS HUGEINT)
                           - CAST(FLOOR(1e6 * ln(CAST(k.nb * m.ta
                                                      + k.na * m.tb
                                                      AS DOUBLE))) AS HUGEINT))
              ELSE 0 END AS term_b
  FROM k, m),
kl AS (
  SELECT n_tokens,
         CASE WHEN ta > 0 THEN GREATEST(0, SUM(term_a)) // ta
              ELSE 0 END AS kla,
         CASE WHEN tb > 0 THEN GREATEST(0, SUM(term_b)) // tb
              ELSE 0 END AS klb
  FROM terms GROUP BY n_tokens, ta, tb)
SELECT n_tokens, CAST(kla AS BIGINT) AS kl_a_unats,
       CAST(klb AS BIGINT) AS kl_b_unats,
       CAST((kla + klb) // 2 AS BIGINT) AS js_unats
FROM kl
"""


# ========================================================== rbo_overlap
#
# Rank-biased overlap (Webber et al. 2010) between the two halves'
# token rankings, restricted to the shared global top-K pool — the
# top-weighted list-similarity measure that (unlike Kendall/Spearman)
# cares most about the head of the list. Exact-rational device: with
# persistence p = 9/10, the weight p^(d-1) is the exact integer pair
# (9^(d-1), 10^(d-1)), so each term 1e6 * p^(d-1) * A_d / d is the
# integer floor 1e6*9^(d-1)*A_d // (10^(d-1)*d) (A_d = overlap of the
# two depth-d prefixes), summed over d <= RBO_DEPTH and multiplied by
# (1-p) as a final // 10. Depth is capped at 32 so 9^31*1e6*32 < 1e38
# stays inside the oracle's HUGEINT (documented bound; Python ints are
# unbounded).


RBO_DEPTH = 32


def q_rbo_overlap(sf_dir: str):
    top = _half_token_topk(sf_dir)
    cols = {"depth": np.int64, "rbo_ppm": np.int64}
    if top.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    ta = top.sort_values(["na", "token"], ascending=[False, True],
                         kind="mergesort")["token"].tolist()
    tb = top.sort_values(["nb", "token"], ascending=[False, True],
                         kind="mergesort")["token"].tolist()
    depth = min(RBO_DEPTH, len(top))
    sa, sb = set(), set()
    total = 0
    for d in range(1, depth + 1):
        sa.add(ta[d - 1])
        sb.add(tb[d - 1])
        a_d = len(sa & sb)
        total += 1_000_000 * 9 ** (d - 1) * a_d // (10 ** (d - 1) * d)
    return pd.DataFrame(
        {"depth": [depth], "rbo_ppm": [total // 10]}
    ).astype(cols)


def _rbo_sql() -> str:
    """Depth-unrolled exact-rational RBO: each depth contributes ONE
    integer term computed from the two ROW_NUMBER-ranked prefixes."""
    terms = []
    for d in range(1, RBO_DEPTH + 1):
        terms.append(
            f"SELECT {d} AS d, CAST({10 ** (d - 1)} AS HUGEINT) * {d} AS den,"
            f" CAST({9 ** (d - 1)} AS HUGEINT) AS num,"
            f" (SELECT COUNT(*) FROM"
            f" (SELECT token FROM ra WHERE rk <= {d}"
            f"  INTERSECT SELECT token FROM rb WHERE rk <= {d})) AS a_d"
        )
    nl = "\nUNION ALL\n"
    return f"""
WITH tok AS (
  SELECT doc_id % 2 AS half,
         unnest(regexp_extract_all(lower(text), '[^ \\t\\n\\r\\f]+'))
           AS token
  FROM documents),
c AS (
  SELECT token,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT) AS na,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT) AS nb
  FROM tok GROUP BY 1),
t AS (
  SELECT token, na, nb,
         ROW_NUMBER() OVER (ORDER BY na + nb DESC, token ASC) AS rk
  FROM c),
k AS MATERIALIZED (SELECT token, na, nb FROM t WHERE rk <= {SPEARMAN_TOP_K}),
ra AS MATERIALIZED (
  SELECT token, ROW_NUMBER() OVER (ORDER BY na DESC, token ASC) AS rk FROM k),
rb AS MATERIALIZED (
  SELECT token, ROW_NUMBER() OVER (ORDER BY nb DESC, token ASC) AS rk FROM k),
depth AS (SELECT LEAST({RBO_DEPTH}, (SELECT COUNT(*) FROM k)) AS depth),
terms AS ({nl.join(terms)})
SELECT CAST(depth.depth AS BIGINT) AS depth,
       CAST(SUM(1000000 * terms.num * terms.a_d // terms.den) // 10
            AS BIGINT) AS rbo_ppm
FROM terms, depth
WHERE terms.d <= depth.depth
GROUP BY depth.depth
"""


# ===================================================== good_turing_mass
#
# Good-Turing unseen-probability estimate per language: the classic
# n_1/N mass (Gale & Sampson 1995) — "what fraction of the NEXT crawl's
# tokens will be types we have never seen", the coverage planning
# number beside vocab_growth's Heaps curve. Also emits the r=1
# Good-Turing discount numerator/denominator (2*n_2, n_1) as exact
# integers instead of the float r* = 2*n_2/n_1.
#
# Scale shape: (lang, token) partials -> ONE coarse token exchange
# (exact counts in-task) -> per-task count-of-counts histogram CAPPED
# at r <= 2 plus totals (a <= 3 x n_langs-row partial per task) -> one
# small groupby -> driver division. The vocabulary never leaves tasks.


def q_good_turing_mass(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["lang", "text"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"lang": pd.Series(dtype=str),
                 "token": pd.Series(dtype=str),
                 "n": pd.Series(dtype=np.int64)}
            )
        toks = df.set_index("lang")["text"].astype(str).str.lower().str.findall(
            tok_re
        ).explode().dropna()
        g = toks.reset_index().groupby(["lang", "text"], as_index=False).size()
        g.columns = ["lang", "token", "n"]
        return g.astype({"n": np.int64})

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"]).groupby(["lang", "token"], as_index=False)[
            "n"
        ].sum()
        n = g["n"].to_numpy(np.int64)
        out = []
        for lang, gl in g.assign(n=n).groupby("lang", dropna=False):
            nl_ = gl["n"].to_numpy(np.int64)
            out.append(
                (lang, int((nl_ == 1).sum()), int((nl_ == 2).sum()),
                 int(nl_.sum()), len(nl_))
            )
        return pd.DataFrame(
            out, columns=["lang", "n1_part", "n2_part", "total_part",
                          "types_part"]
        )

    agg = (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(hist, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            Sum("n1_part", alias_name="n1"),
            Sum("n2_part", alias_name="n2"),
            Sum("total_part", alias_name="total"),
            Sum("types_part", alias_name="n_types"),
        )
        .to_pandas()  # n_langs rows
    )
    if not len(agg):
        return pd.DataFrame(
            {"lang": pd.Series(dtype=str), "n_types": pd.Series(dtype=np.int64),
             "n1": pd.Series(dtype=np.int64), "n2": pd.Series(dtype=np.int64),
             "total": pd.Series(dtype=np.int64),
             "unseen_ppm": pd.Series(dtype=np.int64)}
        )
    agg = agg[["lang", "n_types", "n1", "n2", "total"]].astype(
        {"n_types": np.int64, "n1": np.int64, "n2": np.int64,
         "total": np.int64}
    )
    agg["unseen_ppm"] = (
        agg["n1"].astype(object) * 1_000_000 // agg["total"].astype(object)
    ).astype(np.int64)
    return agg


GOOD_TURING_MASS_SQL = rf"""
WITH tok AS (
  SELECT lang,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
c AS (SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n
      FROM tok GROUP BY 1, 2)
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
       CAST(SUM(CASE WHEN n = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n2,
       CAST(SUM(n) AS BIGINT) AS total,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1000000 // SUM(n)
            AS BIGINT) AS unseen_ppm
FROM c GROUP BY 1
"""


# ==================================================== token_length_hist
#
# Corpus-wide token-length histogram (1..TLH_CAP chars, capped) in
# counts and ppm — the tokenizer-design diagnostic: a heavy tail of
# 20+-char "tokens" flags unsegmented markup/URLs that a whitespace
# tokenizer is passing through.
#
# Scale shape: pure per-batch histogram partials (length domain is
# CAPPED, so each task emits <= TLH_CAP rows) -> one tiny groupby ->
# driver ppm. NO data-scaled exchange at all.

TLH_CAP = 20


def q_token_length_hist(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"tok_len": pd.Series(dtype=np.int64),
                 "n_part": pd.Series(dtype=np.int64)}
            )
        lens = (
            df["text"].astype(str).str.lower().str.findall(tok_re)
            .explode().dropna().str.len().to_numpy(np.int64)
        )
        if not len(lens):
            return pd.DataFrame(
                {"tok_len": pd.Series(dtype=np.int64),
                 "n_part": pd.Series(dtype=np.int64)}
            )
        lens = np.minimum(lens, TLH_CAP)
        vals, cnts = np.unique(lens, return_counts=True)
        return pd.DataFrame(
            {"tok_len": vals.astype(np.int64), "n_part": cnts.astype(np.int64)}
        )

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("tok_len")
        .aggregate(Sum("n_part", alias_name="n_tokens"))
        .to_pandas()  # <= TLH_CAP rows
    )
    if not len(c):
        return pd.DataFrame(
            {"tok_len": pd.Series(dtype=np.int64),
             "n_tokens": pd.Series(dtype=np.int64),
             "share_ppm": pd.Series(dtype=np.int64)}
        )
    c = c.astype({"tok_len": np.int64, "n_tokens": np.int64})
    total = int(c["n_tokens"].sum())
    c["share_ppm"] = (
        c["n_tokens"].astype(object) * 1_000_000 // total
    ).astype(np.int64)
    return c.sort_values("tok_len").reset_index(drop=True)


TOKEN_LENGTH_HIST_SQL = rf"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents),
h AS (
  SELECT LEAST(length(token), {TLH_CAP}) AS tok_len,
         CAST(COUNT(*) AS BIGINT) AS n_tokens
  FROM tok GROUP BY 1),
tot AS (SELECT CAST(SUM(n_tokens) AS BIGINT) AS total FROM h)
SELECT CAST(tok_len AS BIGINT) AS tok_len, n_tokens,
       CAST(n_tokens * 1000000 // total AS BIGINT) AS share_ppm
FROM h, tot
"""


WEBTEXT_SQL_QUERIES: dict[str, tuple] = {
    "rbo_overlap": (q_rbo_overlap, _rbo_sql(), "backlog"),
    "good_turing_mass": (q_good_turing_mass, GOOD_TURING_MASS_SQL, "backlog"),
    "token_length_hist": (q_token_length_hist, TOKEN_LENGTH_HIST_SQL, "text"),
    "js_token_drift": (q_js_token_drift, JS_TOKEN_DRIFT_SQL, "backlog"),
    "chi2_token_drift": (q_chi2_token_drift, CHI2_TOKEN_DRIFT_SQL, "backlog"),
    "composition_entropy": (q_composition_entropy, COMPOSITION_ENTROPY_SQL, "backlog"),
    "spearman_drift": (q_spearman_drift, SPEARMAN_DRIFT_SQL, "backlog"),
    "kendall_tau": (q_kendall_tau, KENDALL_TAU_SQL, "backlog"),
    "hill_tail": (q_hill_tail, HILL_TAIL_SQL, "backlog"),
    "proximity_rank": (q_proximity_rank, PROXIMITY_RANK_SQL, "backlog"),
    "tokenizer_fertility": (q_tokenizer_fertility, TOKENIZER_FERTILITY_SQL, "text"),
    "refinery": (q_refinery, REFINERY_SQL, "training"),
    "pii_scrub": (q_pii_scrub, PII_SCRUB_SQL, "text"),
    "paragraph_dedup": (q_paragraph_dedup, PARAGRAPH_DEDUP_SQL, "dedup"),
    "main_content_extract": (q_main_content_extract, MAIN_CONTENT_EXTRACT_SQL, "text"),
    "epoch_shuffle": (q_epoch_shuffle, EPOCH_SHUFFLE_SQL, "engine"),
    "vocab_coverage": (q_vocab_coverage, VOCAB_COVERAGE_SQL, "selection"),
    "token_entropy": (q_token_entropy, TOKEN_ENTROPY_SQL, "text"),
    "psi_drift": (q_psi_drift, PSI_DRIFT_SQL, "backlog"),
    "mi_composition": (q_mi_composition, MI_COMPOSITION_SQL, "backlog"),
    "filter_funnel": (q_filter_funnel, FILTER_FUNNEL_SQL, "text"),
}
