"""Posting-list engineering operators (round-5 batch 38): the Roaring
bitmap container-size audit (Chambi, Lemire et al. 2016 — per-chunk
array/bitmap/run container selection), champion lists / impact-ordered
index heads (Manning-Raghavan-Schütze ch.7), and Kneser-Ney absolute
discount estimation from count-of-counts (Kneser & Ney 1995; Chen &
Goodman 1998, D = n₁/(n₁+2n₂)) — the index-layout / query-pruning /
LM-smoothing trio.

Scale idioms: all three ride ONE coarse token/gram-keyed exchange of
per-batch partials. Roaring needs each token's postings SORTED within
the group — run boundaries come from one vectorized diff over the
(token, doc) sort, and container choice is pure integer arithmetic on
(n, runs) per 1024-chunk; champion selection is a vectorized
sort-head inside the group (tf desc, doc asc tie rule); KN reduces
each gram group to count-of-count partials (n₁, n₂) into a
#langs×2-row reduce. Quantized integer quotients everywhere.

Reference parity: the reference's index is Elasticsearch-internal
(europarl/elasticsearch/); these audit the layouts a native index
would choose for the same corpus.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import with_coarse_group as _with_coarse_group

TOK_RE = r"[^ \t\n\r\f]+"

ROAR_CHUNK = 1024  # roaring-1024 variant: container = doc_id // 1024
ROAR_BITMAP_BYTES = ROAR_CHUNK // 8
CHAMP_C = 4


def _doc_token_tf(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, token, tf) — exact per doc (each doc whole in one
    batch)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids, toks, tfs = [], [], []
        for did, text in zip(
            df["doc_id"].to_numpy(np.int64), df["text"].astype(str)
        ):
            cnt: dict[str, int] = {}
            for t in tok_re.findall(text.lower()):
                cnt[t] = cnt.get(t, 0) + 1
            ids.extend([did] * len(cnt))
            toks.extend(cnt.keys())
            tfs.extend(cnt.values())
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "token": np.asarray(toks, dtype=object),
                "tf": np.asarray(tfs, dtype=np.int64),
            }
        )

    return d.map_batches(partial, batch_format="pandas")


# ========================================================= roaring_size
#
# Container-layout audit: each token's posting list splits into
# 1024-doc chunks; per chunk the encoder picks the cheapest of
#   array   2·n bytes      (16-bit values, our 1024-universe variant)
#   bitmap  128 bytes      (1024 bits)
#   run     2 + 4·r bytes  (r maximal consecutive-id runs)
# (ties resolve in that order — array ≺ bitmap ≺ run, the Roaring
# preference). Output per token: postings, containers, best-layout
# bytes, plain 8-byte bytes, and ratio ×100.
#
# Scale shape: (doc, token) rows → ONE coarse token exchange → inside
# the group one (token, doc) sort; run boundaries are a vectorized
# diff (new token, new chunk, or gap ≠ 1); per-chunk (n, r) →
# container cost → per-token sums. Output is vocabulary-bounded.


def q_roaring_size(sf_dir: str):
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=object),
            "n_postings": pd.Series(dtype=np.int64),
            "n_containers": pd.Series(dtype=np.int64),
            "bytes_best": pd.Series(dtype=np.int64),
            "bytes_plain": pd.Series(dtype=np.int64),
            "ratio_x100": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    dt = _doc_token_tf(sf_dir)

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])[["token", "doc_id"]]
        if not len(t):
            return empty
        t = t.sort_values(["token", "doc_id"], kind="mergesort")
        tok = t["token"].to_numpy(object)
        doc = t["doc_id"].to_numpy(np.int64)
        chunk = doc // ROAR_CHUNK
        new_tok = np.ones(len(t), bool)
        new_tok[1:] = tok[1:] != tok[:-1]
        new_chunk = np.ones(len(t), bool)
        new_chunk[1:] = new_tok[1:] | (chunk[1:] != chunk[:-1])
        gap = np.ones(len(t), bool)
        gap[1:] = new_chunk[1:] | (doc[1:] - doc[:-1] != 1)
        cf = pd.DataFrame(
            {
                "token": tok,
                "chunk": chunk,
                "one": np.ones(len(t), np.int64),
                "run": gap.astype(np.int64),
            }
        )
        cc = cf.groupby(["token", "chunk"], as_index=False).sum()
        n = cc["one"].to_numpy(np.int64)
        r = cc["run"].to_numpy(np.int64)
        cost = np.minimum(
            np.minimum(2 * n, np.int64(ROAR_BITMAP_BYTES)), 2 + 4 * r
        )
        cc["cost"] = cost
        cc["cont"] = np.int64(1)
        s = cc.groupby("token", as_index=False)[
            ["one", "cont", "cost"]
        ].sum()
        npost = s["one"].to_numpy(np.int64)
        best = s["cost"].to_numpy(np.int64)
        plain = 8 * npost
        return pd.DataFrame(
            {
                "token": s["token"].to_numpy(object),
                "n_postings": npost,
                "n_containers": s["cont"].to_numpy(np.int64),
                "bytes_best": best,
                "bytes_plain": plain,
                "ratio_x100": 100 * best // plain,
            }
        )

    return (
        _with_coarse_group(dt, "token")
        .groupby("_g")
        .map_groups(audit, batch_format="pandas")
    )


ROARING_SIZE_SQL = rf"""
WITH dt AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
o AS (
  SELECT token, doc_id, doc_id // {ROAR_CHUNK} AS chunk,
         CASE WHEN doc_id
                   - LAG(doc_id) OVER (PARTITION BY token ORDER BY doc_id)
                   = 1
               AND doc_id // {ROAR_CHUNK}
                   = LAG(doc_id // {ROAR_CHUNK})
                       OVER (PARTITION BY token ORDER BY doc_id)
              THEN 0 ELSE 1 END AS run_start
  FROM dt),
cc AS (
  SELECT token, chunk,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(run_start) AS BIGINT) AS r
  FROM o GROUP BY 1, 2),
cost AS (
  SELECT token, n,
         LEAST(2 * n, {ROAR_BITMAP_BYTES}, 2 + 4 * r) AS cost
  FROM cc)
SELECT token,
       CAST(SUM(n) AS BIGINT) AS n_postings,
       CAST(COUNT(*) AS BIGINT) AS n_containers,
       CAST(SUM(cost) AS BIGINT) AS bytes_best,
       CAST(8 * SUM(n) AS BIGINT) AS bytes_plain,
       CAST(100 * SUM(cost) // (8 * SUM(n)) AS BIGINT) AS ratio_x100
FROM cost GROUP BY 1
"""


# ====================================================== champion_lists
#
# Impact-ordered index heads: per token the CHAMP_C documents with the
# highest term frequency (ties: smallest doc_id) form the champion
# list; the audit reports how much of the token's total tf mass the
# champions cover — the number that decides whether champion-only
# first-pass scoring is safe.
#
# Scale shape: (doc, token, tf) rows → ONE coarse token exchange →
# vectorized (token, tf desc, doc asc) sort + head-C per group;
# vocabulary-bounded output.


def q_champion_lists(sf_dir: str):
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=object),
            "df": pd.Series(dtype=np.int64),
            "champ_tf": pd.Series(dtype=np.int64),
            "total_tf": pd.Series(dtype=np.int64),
            "coverage_x100": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    dt = _doc_token_tf(sf_dir)

    def champs(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        if not len(t):
            return empty
        t = t.sort_values(
            ["token", "tf", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        head = t.groupby("token").head(CHAMP_C)
        hsum = head.groupby("token", as_index=False)["tf"].sum()
        tot = t.groupby("token", as_index=False).agg(
            df=("tf", "size"), total_tf=("tf", "sum")
        )
        m = tot.merge(hsum.rename(columns={"tf": "champ_tf"}), on="token")
        return pd.DataFrame(
            {
                "token": m["token"].to_numpy(object),
                "df": m["df"].to_numpy(np.int64),
                "champ_tf": m["champ_tf"].to_numpy(np.int64),
                "total_tf": m["total_tf"].to_numpy(np.int64),
                "coverage_x100": 100
                * m["champ_tf"].to_numpy(np.int64)
                // m["total_tf"].to_numpy(np.int64),
            }
        )

    return (
        _with_coarse_group(dt, "token")
        .groupby("_g")
        .map_groups(champs, batch_format="pandas")
    )


CHAMPION_LISTS_SQL = rf"""
WITH t AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
tf AS (
  SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
  FROM t GROUP BY 1, 2),
r AS (
  SELECT token, tf,
         ROW_NUMBER() OVER (
           PARTITION BY token ORDER BY tf DESC, doc_id ASC
         ) AS rn
  FROM tf)
SELECT token,
       CAST(COUNT(*) AS BIGINT) AS df,
       CAST(SUM(CASE WHEN rn <= {CHAMP_C} THEN tf ELSE 0 END) AS BIGINT)
         AS champ_tf,
       CAST(SUM(tf) AS BIGINT) AS total_tf,
       CAST(100 * SUM(CASE WHEN rn <= {CHAMP_C} THEN tf ELSE 0 END)
            // SUM(tf) AS BIGINT) AS coverage_x100
FROM r GROUP BY 1
"""


# ======================================================== kn_discounts
#
# Kneser-Ney absolute-discount estimation per language and n-gram
# order: D = n₁ / (n₁ + 2·n₂) where n₁/n₂ are the numbers of n-gram
# TYPES seen exactly once/twice — the Chen-Goodman closed form every
# KN-smoothed LM starts from. Orders 1 (unigram) and 2 (bigram,
# within-document adjacency). d_x1e6 quantized; 0 when n₁+2n₂ = 0.
#
# Scale shape: (lang, gram) partial counts → ONE coarse gram exchange
# → per-group count-of-count partials (n₁, n₂ only) → #langs×2-row
# reduce. The gram vocabulary is the only exchanged set.


def q_kn_discounts(sf_dir: str):
    empty = pd.DataFrame(
        {
            "lang": pd.Series(dtype=object),
            "ngram_order": pd.Series(dtype=np.int64),
            "n1": pd.Series(dtype=np.int64),
            "n2": pd.Series(dtype=np.int64),
            "d_x1e6": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["lang", "text"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"lang": [], "order": [], "gram": [], "c": []}
        for lg, text in zip(df["lang"].to_numpy(object), df["text"].astype(str)):
            ws = tok_re.findall(text.lower())
            cnt: dict[tuple, int] = {}
            for w in ws:
                k = (1, w)
                cnt[k] = cnt.get(k, 0) + 1
            for i in range(len(ws) - 1):
                k = (2, ws[i] + " " + ws[i + 1])
                cnt[k] = cnt.get(k, 0) + 1
            for (o, gm), c in cnt.items():
                rows["lang"].append(lg)
                rows["order"].append(o)
                rows["gram"].append(gm)
                rows["c"].append(c)
        out = pd.DataFrame(
            {
                "lang": np.asarray(rows["lang"], object),
                "order": np.asarray(rows["order"], np.int64),
                "gram": np.asarray(rows["gram"], object),
                "c": np.asarray(rows["c"], np.int64),
            }
        )
        return out.groupby(
            ["lang", "order", "gram"], as_index=False
        )["c"].sum()

    def coc(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        s = t.groupby(["lang", "order", "gram"], as_index=False)["c"].sum()
        c = s["c"].to_numpy(np.int64)
        s["n1"] = (c == 1).astype(np.int64)
        s["n2"] = (c == 2).astype(np.int64)
        return s.groupby(["lang", "order"], as_index=False)[
            ["n1", "n2"]
        ].sum()

    agg = (
        _with_coarse_group(
            d.map_batches(partial, batch_format="pandas"), "gram"
        )
        .groupby("_g")
        .map_groups(coc, batch_format="pandas")
        .groupby(["lang", "order"])
        .aggregate(Sum("n1", alias_name="n1"), Sum("n2", alias_name="n2"))
        .to_pandas()  # <= #langs × 2 rows
    )
    if not len(agg):
        return empty
    n1 = agg["n1"].to_numpy(np.int64)
    n2 = agg["n2"].to_numpy(np.int64)
    d_x = np.where(
        n1 + 2 * n2 > 0, 10**6 * n1 // np.maximum(n1 + 2 * n2, 1), 0
    )
    out = pd.DataFrame(
        {
            "lang": agg["lang"],
            "ngram_order": agg["order"].astype(np.int64),
            "n1": n1,
            "n2": n2,
            "d_x1e6": d_x.astype(np.int64),
        }
    )
    return out.sort_values(["lang", "ngram_order"]).reset_index(drop=True)


KN_DISCOUNTS_SQL = rf"""
WITH w AS (
  SELECT lang, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents),
g1 AS (
  SELECT lang, 1 AS ngram_order,
         ws[CAST(i.i AS INTEGER)] AS gram
  FROM w, unnest(range(1, len(ws) + 1)) AS i(i)),
g2 AS (
  SELECT lang, 2 AS ngram_order,
         ws[CAST(i.i AS INTEGER)] || ' ' || ws[CAST(i.i AS INTEGER) + 1]
           AS gram
  FROM w, unnest(range(1, len(ws))) AS i(i)),
c AS (
  SELECT lang, ngram_order, gram, CAST(COUNT(*) AS BIGINT) AS c
  FROM (SELECT * FROM g1 UNION ALL SELECT * FROM g2)
  GROUP BY 1, 2, 3),
m AS (
  SELECT lang, CAST(ngram_order AS BIGINT) AS ngram_order,
         CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(SUM(CASE WHEN c = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n2
  FROM c GROUP BY 1, 2)
SELECT lang, ngram_order, n1, n2,
       CAST(CASE WHEN n1 + 2 * n2 > 0
                 THEN 1000000 * n1 // (n1 + 2 * n2)
                 ELSE 0 END AS BIGINT) AS d_x1e6
FROM m
"""


POSTINGS_SQL_QUERIES: dict[str, tuple] = {
    "roaring_size": (q_roaring_size, ROARING_SIZE_SQL),
    "champion_lists": (q_champion_lists, CHAMPION_LISTS_SQL),
    "kn_discounts": (q_kn_discounts, KN_DISCOUNTS_SQL),
}
