"""Dedup-sketch operators (round-5 batch 54): Broder super-shingles
(Broder 1997 — the AltaVista trick: sketch the sketch, so only
near-identical documents ever collide), the q-gram profile distance
(Ukkonen 1992 — the L1 string distance that lower-bounds edit
distance), and the corpus CDC dedup ratio (the storage-dedup number
the cdc_chunks boundary rule exists to enable) — three
sub-document / cross-document redundancy detectors.

Scale idioms: super-shingles compress each doc's 128-value minhash
signature (derived from the SHARED shingle scratch — no re-hash) to
8 md5 features; the (group, value) buckets then co-locate and emit
pair partials exactly like the AllPairs join — bucket fan-out is the
near-dup cluster size by construction (cap+salt at scale, as the
banded-LSH family documents). The CDC ratio ships one md5 chunk key
per chunk through a coarse exchange whose groups count distincts
(group-partitioned nunique). The q-gram op probes a BOUNDED 32-doc
md5-chosen set (global_prune broadcast) and runs profile math on the
driver's 16 pairs.

Reference parity: the reference dedupes whole URLs only; these
extend the brief's dedup family at signature and chunk granularity
(dedup_minhash, cdc_chunks are the siblings).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .._util import read_table as _read, table_rows as _n_rows
from ..stages.multimodal import _md5_64
from .grouping import global_prune, with_coarse_group as _with_coarse_group
from .ml_queries import _md5u, _perms_values, _shingle_sets

SS_GROUPS = 8  # 128 minhashes -> 8 super-shingles of 16
QG_PROBES = 32  # q-gram probe docs (16 pairs)
CDC_D = 16
CDC_SALT = "cdc:42:"
TOK_RE = r"[^ \t\n\r\f]+"


# =================================================== supershingle_pairs
#
# Each doc's 128 mod-p minhashes split into 8 runs of 16; run g's
# super-shingle is md5_64('ss:<g>:' || comma-joined run values) >> 1.
# Output: every doc pair sharing ≥ 1 (g, value) feature, with the
# shared-feature count — colliding on 16 consecutive minhashes needs
# near-total shingle overlap, which is the whole point.


def q_supershingle_pairs(sf_dir: str):
    empty = pd.DataFrame(
        {
            "doc_a": pd.Series(dtype=np.int64),
            "doc_b": pd.Series(dtype=np.int64),
            "n_shared": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    from ..functions.dedup import N_PERM, minhash_sigs_from_hashes

    run = N_PERM // SS_GROUPS
    sets = _shingle_sets(sf_dir)

    def features(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "g": pd.Series(dtype=np.int64),
                    "ssv": pd.Series(dtype=np.int64),
                }
            )
        sigs = minhash_sigs_from_hashes(
            [np.frombuffer(x, dtype=np.uint64) for x in df["hs"]]
        )
        ids = df["doc_id"].to_numpy(np.int64)
        rows = {"doc_id": [], "g": [], "ssv": []}
        for i, did in enumerate(ids):
            for g in range(SS_GROUPS):
                seg = sigs[i, g * run : (g + 1) * run]
                s = f"ss:{g}:" + ",".join(str(int(v)) for v in seg)
                rows["doc_id"].append(int(did))
                rows["g"].append(g)
                rows["ssv"].append(_md5_64(s) >> 1)
        return pd.DataFrame(rows).astype(np.int64)

    feats = sets.map_batches(features, batch_format="pandas")

    def fkey(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["key"] = (out["g"].to_numpy(np.int64) << np.int64(60)) ^ out[
            "ssv"
        ].to_numpy(np.int64)
        return out

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        ka, kb = [], []
        for _, grp in t.groupby("key"):
            ds = np.sort(grp["doc_id"].to_numpy(np.int64))
            if len(ds) < 2:
                continue
            iu, ju = np.triu_indices(len(ds), 1)
            ka.append(ds[iu])
            kb.append(ds[ju])
        if not ka:
            return pd.DataFrame(
                {
                    "a": pd.Series(dtype=np.int64),
                    "b": pd.Series(dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {"a": np.concatenate(ka), "b": np.concatenate(kb)}
        )

    pairs = (
        _with_coarse_group(
            feats.map_batches(fkey, batch_format="pandas"), "key"
        )
        .groupby("_g")
        .map_groups(bucket_pairs, batch_format="pandas")
    )

    def pkey(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["pk"] = (out["a"].to_numpy(np.int64) << np.int64(32)) | out[
            "b"
        ].to_numpy(np.int64)
        return out

    def count_shared(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        s = t.groupby(["a", "b"], as_index=False).size()
        return pd.DataFrame(
            {
                "doc_a": s["a"].to_numpy(np.int64),
                "doc_b": s["b"].to_numpy(np.int64),
                "n_shared": s["size"].to_numpy(np.int64),
            }
        )

    return (
        _with_coarse_group(
            pairs.map_batches(pkey, batch_format="pandas"), "pk"
        )
        .groupby("_g")
        .map_groups(count_shared, batch_format="pandas")
    )


def _supershingle_sql() -> str:
    from ..functions.dedup import N_PERM

    run = N_PERM // SS_GROUPS
    return rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents
),
sh AS (
  SELECT doc_id, unnest(
    CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
         ELSE list_transform(range(1, len(ws) - 1),
                             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
    END) AS s
  FROM w WHERE len(ws) > 0
),
hh AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT)
           % 2147483647 AS h
  FROM sh
),
perms(j, a, b) AS (VALUES {_perms_values()}),
sig AS (
  SELECT doc_id, j,
         MIN((CAST(a AS UBIGINT) * h + CAST(b AS UBIGINT)) % 2147483647)
           AS m
  FROM hh CROSS JOIN perms GROUP BY doc_id, j
),
ss AS (
  SELECT doc_id, j // {run} AS g,
         CAST(CAST(concat('0x', substr(md5(
           'ss:' || CAST(j // {run} AS VARCHAR) || ':'
           || string_agg(CAST(m AS VARCHAR), ',' ORDER BY j)
         ), 1, 16)) AS UBIGINT) // 2 AS BIGINT) AS ssv
  FROM sig GROUP BY doc_id, j // {run}
)
SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
       CAST(COUNT(*) AS BIGINT) AS n_shared
FROM ss x JOIN ss y
  ON y.g = x.g AND y.ssv = x.ssv AND x.doc_id < y.doc_id
GROUP BY 1, 2
"""


# ======================================================= qgram_distance
#
# Ukkonen's q-gram distance for 16 md5-chosen probe pairs: the L1
# distance between character-3-gram count profiles of lower(text) —
# a lower bound on 2·q·edit_distance, cheap enough to screen pairs
# before any alignment. Output per pair: both ids, the distance and
# both profile masses.


def q_qgram_distance(sf_dir: str):
    empty = pd.DataFrame(
        {
            "doc_a": pd.Series(dtype=np.int64),
            "doc_b": pd.Series(dtype=np.int64),
            "qgram_dist": pd.Series(dtype=np.int64),
            "mass_a": pd.Series(dtype=np.int64),
            "mass_b": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "doc_id" not in df.columns:
            return df
        md5s = np.array(
            [
                hashlib.md5(f"qg:{int(v)}".encode()).hexdigest()
                for v in df["doc_id"]
            ]
        )
        return df.iloc[np.sort(np.argsort(md5s)[:QG_PROBES])]

    probes = global_prune(d, prune)
    if probes.empty:
        return empty
    md5s = np.array(
        [
            hashlib.md5(f"qg:{int(v)}".encode()).hexdigest()
            for v in probes["doc_id"]
        ]
    )
    probes = probes.iloc[np.argsort(md5s)[:QG_PROBES]]

    def profile(text: str):
        t = str(text).lower()
        c: dict[str, int] = {}
        for i in range(len(t) - 2):
            g = t[i : i + 3]
            c[g] = c.get(g, 0) + 1
        return c

    rows = []
    recs = list(
        zip(probes["doc_id"].astype(int), probes["text"].astype(str))
    )
    for k in range(0, len(recs) - 1, 2):
        (ida, ta), (idb, tb) = recs[k], recs[k + 1]
        pa_, pb_ = profile(ta), profile(tb)
        grams = set(pa_) | set(pb_)
        dist = sum(abs(pa_.get(g, 0) - pb_.get(g, 0)) for g in grams)
        rows.append(
            (
                ida,
                idb,
                dist,
                sum(pa_.values()),
                sum(pb_.values()),
            )
        )
    return pd.DataFrame(
        rows, columns=["doc_a", "doc_b", "qgram_dist", "mass_a", "mass_b"]
    ).astype(np.int64)


QGRAM_DISTANCE_SQL = f"""
WITH probes AS (
  SELECT doc_id, lower(text) AS t,
         ROW_NUMBER() OVER (
           ORDER BY md5('qg:' || CAST(doc_id AS VARCHAR))
         ) AS rn
  FROM documents
  ORDER BY md5('qg:' || CAST(doc_id AS VARCHAR)) LIMIT {QG_PROBES}),
pairs AS (
  SELECT a.doc_id AS doc_a, a.t AS ta, b.doc_id AS doc_b, b.t AS tb,
         a.rn AS pid
  FROM probes a JOIN probes b ON b.rn = a.rn + 1
  WHERE a.rn % 2 = 1),
ga AS (
  SELECT pid, substr(ta, CAST(i.i AS INTEGER), 3) AS g,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pairs, unnest(range(1, length(ta) - 1)) AS i(i)
  GROUP BY 1, 2),
gb AS (
  SELECT pid, substr(tb, CAST(i.i AS INTEGER), 3) AS g,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pairs, unnest(range(1, length(tb) - 1)) AS i(i)
  GROUP BY 1, 2),
u AS (
  SELECT COALESCE(ga.pid, gb.pid) AS pid,
         ABS(COALESCE(ga.c, 0) - COALESCE(gb.c, 0)) AS d
  FROM ga FULL OUTER JOIN gb ON gb.pid = ga.pid AND gb.g = ga.g)
SELECT p.doc_a, p.doc_b,
       CAST(COALESCE((SELECT SUM(d) FROM u WHERE u.pid = p.pid), 0)
            AS BIGINT) AS qgram_dist,
       CAST(GREATEST(length(p.ta) - 2, 0) AS BIGINT) AS mass_a,
       CAST(GREATEST(length(p.tb) - 2, 0) AS BIGINT) AS mass_b
FROM pairs p
"""


# ====================================================== cdc_dedup_ratio
#
# The corpus-level payoff of content-defined chunking: total chunks,
# distinct chunk-content hashes, and the duplicated share ×10⁶ — the
# fraction of chunk mass a dedup store would NOT have to write.
# Chunk rule identical to cdc_chunks (cut after token t when
# md5('cdc:42:'+t) % 16 == 0, forced cut at end); chunk key =
# md5_64('cch:42:' + space-joined chunk tokens) >> 1.
#
# Scale shape: per-batch chunk keys → ONE coarse key exchange whose
# groups PARTITION the key space (per-group nunique sums exactly) →
# 2-scalar reduce.


def q_cdc_dedup_ratio(sf_dir: str):
    import re

    empty = pd.DataFrame(
        {
            "n_chunks": pd.Series(dtype=np.int64),
            "n_distinct": pd.Series(dtype=np.int64),
            "dup_x1e6": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(TOK_RE)

    def chunk_keys(df: pd.DataFrame) -> pd.DataFrame:
        cache: dict[str, bool] = {}

        def is_cut(tok: str) -> bool:
            v = cache.get(tok)
            if v is None:
                v = _md5_64(CDC_SALT + tok) % CDC_D == 0
                cache[tok] = v
            return v

        keys = []
        for text in df["text"].astype(str):
            toks = tok_re.findall(text.lower())
            if not toks:
                continue
            start = 0
            for i, t in enumerate(toks):
                if is_cut(t) or i == len(toks) - 1:
                    chunk = " ".join(toks[start : i + 1])
                    keys.append(_md5_64("cch:42:" + chunk) >> 1)
                    start = i + 1
        return pd.DataFrame({"key": np.asarray(keys, dtype=np.int64)})

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        return pd.DataFrame(
            {
                "total": [np.int64(len(t))],
                "distinct": [np.int64(t["key"].nunique())],
            }
        )

    agg = (
        _with_coarse_group(
            d.map_batches(chunk_keys, batch_format="pandas"), "key"
        )
        .groupby("_g")
        .map_groups(per_group, batch_format="pandas")
        .to_pandas()  # <= N_COARSE_GROUPS rows
    )
    total = int(agg["total"].sum())
    distinct = int(agg["distinct"].sum())
    if total == 0:
        return empty
    return pd.DataFrame(
        {
            "n_chunks": [np.int64(total)],
            "n_distinct": [np.int64(distinct)],
            "dup_x1e6": [np.int64(10**6 * (total - distinct) // total)],
        }
    )


CDC_DEDUP_RATIO_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents),
u AS (
  SELECT doc_id, CAST(i.i AS BIGINT) AS j,
         ws[CAST(i.i AS INTEGER)] AS tok, CAST(len(ws) AS BIGINT) AS n
  FROM w, unnest(range(1, len(ws) + 1)) AS i(i)),
b AS (
  SELECT doc_id, j, tok, n,
         CASE WHEN {_md5u(f"'{CDC_SALT}' || tok")} % {CDC_D} = 0
               OR j = n THEN 1 ELSE 0 END AS cut
  FROM u),
cid AS (
  SELECT doc_id, j, tok,
         COALESCE(SUM(cut) OVER (
           PARTITION BY doc_id ORDER BY j
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS c
  FROM b),
chunks AS (
  SELECT doc_id, c,
         CAST(CAST(concat('0x', substr(md5(
           'cch:42:' || string_agg(tok, ' ' ORDER BY j)
         ), 1, 16)) AS UBIGINT) // 2 AS BIGINT) AS key
  FROM cid GROUP BY doc_id, c)
SELECT CAST(COUNT(*) AS BIGINT) AS n_chunks,
       CAST(COUNT(DISTINCT key) AS BIGINT) AS n_distinct,
       CAST(1000000 * (COUNT(*) - COUNT(DISTINCT key)) // COUNT(*)
            AS BIGINT) AS dup_x1e6
FROM chunks
"""


DEDUPSKETCH_SQL_QUERIES: dict[str, tuple] = {
    "supershingle_pairs": (q_supershingle_pairs, _supershingle_sql(), "dedup"),
    "qgram_distance": (q_qgram_distance, QGRAM_DISTANCE_SQL, "dedup"),
    "cdc_dedup_ratio": (q_cdc_dedup_ratio, CDC_DEDUP_RATIO_SQL, "dedup"),
}
