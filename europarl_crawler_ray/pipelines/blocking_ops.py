"""Blocking / partition-audit operators (round-5 batch 21): sorted-
neighborhood dedup blocking (Hernández & Stolfo 1995), hash-partition
balance audit (chi-square uniformity), and token-level conditional
entropy per language.

Scale idioms: the SNM sort is range-partitioned on the leading key
character with a bounded (≤ 2(w−1) rows per bucket) boundary hand-off
— the terasort-with-seams shape shuffle_mixing_audit uses; the
balance audit and entropy reduce to fixed- or task-bounded partials;
ln quantization is the repo's floor(1e6·ln n) double-before-ln device.

Reference parity: the reference dedups by exact (rule, url) key only
(europarl/db/urls.py); these extend the brief's dedup / governance /
text-analysis families.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pandas as pd
from ray.data.aggregate import Sum

from .._util import read_table as _read
from .grouping import with_coarse_group as _with_coarse_group


# ========================================================= snm_blocking
#
# Sorted-Neighborhood Method blocking census: sort the corpus by a
# cheap blocking key (the first SNM_KLEN chars of the lowercased
# text), slide a window of SNM_W rows, and treat every in-window pair
# as a linkage candidate — the O(n·w) alternative to O(n²) comparison
# that record-linkage pipelines run before an expensive verifier. The
# census reports the candidate volume and how many candidates already
# agree on `source` (the label a verifier would confirm first) — the
# blocking-quality readout that decides the window size.
#
# Scale shape: range-partition on the key's leading character (the
# natural SNM order — a hash partition would destroy the neighborhood)
# → per-range sort + vectorized shift-compare pairs in-task → each
# range hands the driver only its first/last (w−1) rows, and the
# ≤ 2(w−1)·|ranges| boundary rows are stitched exactly. Key skew is
# the documented trade: a production run salts hot leading characters
# into sub-ranges (same seam logic), which this synthetic corpus
# doesn't need.

SNM_KLEN = 12
SNM_W = 4


def q_snm_blocking(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
    empty = pd.DataFrame(
        {
            "n_docs": [0],
            "n_candidates": [0],
            "n_same_source": [0],
            "same_source_bp": [0],
        }
    ).astype(np.int64)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        keys = [str(t).lower()[:SNM_KLEN] for t in df["text"]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "source": df["source"].astype(object),
                "key": keys,
                "rng": [k[:1] for k in keys],  # leading char = range
            }
        )

    # kind 0 = range summary (n, in-range candidates/same); kind 1 =
    # boundary row (local rank + source). A row deeper than w-1 from
    # both range edges can never pair across a seam, so the first and
    # last min(w-1, n) rows per range (deduped by local rank) are a
    # complete basis for every cross-range pair — even pairs that span
    # a range smaller than the window.
    def window(g: pd.DataFrame) -> pd.DataFrame:
        t = g.sort_values(["key", "doc_id"], kind="mergesort")
        src = t["source"].to_numpy(object)
        n = len(t)
        cand = same = 0
        for gap in range(1, SNM_W):
            if n > gap:
                cand += n - gap
                same += int((src[gap:] == src[:-gap]).sum())
        b_ranks = sorted(
            set(range(min(SNM_W - 1, n)))
            | set(range(max(n - (SNM_W - 1), 0), n))
        )
        summary = pd.DataFrame(
            {
                "rng": [str(t["rng"].iloc[0])],
                "kind": [0],
                "n_part": [n],
                "cand_part": [cand],
                "same_part": [same],
                "lrank": [-1],
                "src": [""],
            }
        )
        edge = pd.DataFrame(
            {
                "rng": str(t["rng"].iloc[0]),
                "kind": 1,
                "n_part": 0,
                "cand_part": 0,
                "same_part": 0,
                "lrank": b_ranks,
                "src": [str(src[i]) for i in b_ranks],
            }
        )
        out = pd.concat([summary, edge], ignore_index=True)
        return out.astype(
            {
                "kind": np.int64,
                "n_part": np.int64,
                "cand_part": np.int64,
                "same_part": np.int64,
                "lrank": np.int64,
            }
        )

    parts = (
        d.map_batches(keyed, batch_format="pandas")
        .groupby("rng")
        .map_groups(window, batch_format="pandas")
        .to_pandas()  # <= |leading chars| * (1 + 2(w-1)) rows
    )
    if not len(parts):
        return empty
    summ = (
        parts[parts["kind"] == 0].sort_values("rng").reset_index(drop=True)
    )
    n = int(summ["n_part"].sum())
    cand = int(summ["cand_part"].sum())
    same = int(summ["same_part"].sum())
    # exact global ranks for the boundary basis, then every cross-range
    # pair with rank distance < w
    offsets = {}
    off = 0
    for _, r in summ.iterrows():
        offsets[r["rng"]] = off
        off += int(r["n_part"])
    edge = parts[parts["kind"] == 1]
    granks = np.array(
        [offsets[r["rng"]] + int(r["lrank"]) for _, r in edge.iterrows()],
        np.int64,
    )
    gsrcs = edge["src"].to_numpy(object)
    grngs = edge["rng"].to_numpy(object)
    order = np.argsort(granks, kind="stable")
    granks, gsrcs, grngs = granks[order], gsrcs[order], grngs[order]
    for i in range(len(granks)):
        for j in range(i + 1, len(granks)):
            dist = granks[j] - granks[i]
            if dist >= SNM_W:
                break
            if grngs[i] != grngs[j]:
                cand += 1
                same += int(gsrcs[i] == gsrcs[j])
    bp = same * 10000 // cand if cand else 0
    return pd.DataFrame(
        {
            "n_docs": [n],
            "n_candidates": [cand],
            "n_same_source": [same],
            "same_source_bp": [bp],
        }
    ).astype(np.int64)


SNM_BLOCKING_SQL = f"""
WITH keyed AS (
  SELECT doc_id, source, substr(lower(text), 1, {SNM_KLEN}) AS key
  FROM documents),
ranked AS (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (ORDER BY key, doc_id) AS r
  FROM keyed),
pairs AS (
  SELECT a.source AS sa, b.source AS sb
  FROM ranked a JOIN ranked b
    ON b.r > a.r AND b.r - a.r < {SNM_W}),
agg AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_candidates,
         CAST(SUM(CASE WHEN sa = sb THEN 1 ELSE 0 END) AS BIGINT)
             AS n_same_source
  FROM pairs)
SELECT CAST((SELECT COUNT(*) FROM documents) AS BIGINT) AS n_docs,
       n_candidates, n_same_source,
       CAST(CASE WHEN n_candidates > 0
            THEN n_same_source * 10000 // n_candidates ELSE 0 END AS BIGINT)
           AS same_source_bp
FROM agg
"""


# =================================================== hash_balance_audit
#
# Hash-partitioner balance audit: split the corpus into HBA_PARTS
# partitions by the md5 of the text and report the load spread plus
# the exact integer chi-square statistic ×1000
# ((P·Σo² − n²)·1000 // n — the algebraic form of Σ(o−e)²/e with
# e = n/P, no division until the end) — the number that says whether
# the partitioner the dedup exchange relies on actually spreads load
# (a skewed χ² here predicts a hot shard at 10^10 rows).
#
# Scale shape: per-batch partition-count partials → one ≤ HBA_PARTS
# groupby → driver integer math over P rows.

HBA_PARTS = 64


def q_hash_balance_audit(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"p": pd.Series(dtype=np.int64),
                 "n_part": pd.Series(dtype=np.int64)}
            )
        ps = np.array(
            [
                int(hashlib.md5(str(t).encode("utf-8")).hexdigest()[:16], 16)
                % HBA_PARTS
                for t in df["text"]
            ],
            np.int64,
        )
        vals, cnts = np.unique(ps, return_counts=True)
        return pd.DataFrame(
            {"p": vals.astype(np.int64), "n_part": cnts.astype(np.int64)}
        )

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("p")
        .aggregate(Sum("n_part", alias_name="n"))
        .to_pandas()  # <= HBA_PARTS rows
    )
    loads = np.zeros(HBA_PARTS, np.int64)
    for _, r in c.iterrows():
        loads[int(r["p"])] = int(r["n"])
    n = int(loads.sum())
    if n == 0:
        return pd.DataFrame(
            {
                "n_parts": [HBA_PARTS],
                "n_docs": [0],
                "max_load": [0],
                "min_load": [0],
                "chi2_x1000": [0],
            }
        ).astype(np.int64)
    sq = sum(int(x) * int(x) for x in loads)
    chi2 = (HBA_PARTS * sq - n * n) * 1000 // n
    return pd.DataFrame(
        {
            "n_parts": [HBA_PARTS],
            "n_docs": [n],
            "max_load": [int(loads.max())],
            "min_load": [int(loads.min())],
            "chi2_x1000": [chi2],
        }
    ).astype(np.int64)


HASH_BALANCE_AUDIT_SQL = f"""
WITH assign AS (
  SELECT CAST(('0x' || substr(md5(text), 1, 16)) AS UBIGINT) % {HBA_PARTS} AS p
  FROM documents),
loads AS (
  SELECT g.p, CAST(COUNT(assign.p) AS BIGINT) AS o
  FROM (SELECT unnest(range(0, {HBA_PARTS})) AS p) g
  LEFT JOIN assign ON assign.p = g.p
  GROUP BY g.p),
agg AS (
  SELECT CAST(SUM(o) AS BIGINT) AS n, CAST(SUM(o * o) AS BIGINT) AS sq,
         CAST(MAX(o) AS BIGINT) AS mx, CAST(MIN(o) AS BIGINT) AS mn
  FROM loads)
SELECT CAST({HBA_PARTS} AS BIGINT) AS n_parts, n AS n_docs,
       mx AS max_load, mn AS min_load,
       CAST(CASE WHEN n > 0
            THEN ({HBA_PARTS} * sq - n * n) * 1000 // n ELSE 0 END AS BIGINT)
           AS chi2_x1000
FROM agg
"""


# ================================================== token_cond_entropy
#
# Token-level conditional bigram entropy H(w2|w1) per language — the
# unbounded-vocabulary sibling of char_cond_entropy's 27²-capped
# census: low H(w2|w1) relative to the unigram entropy means the text
# is template/boilerplate (next token predictable from the previous),
# the signal a boilerplate filter keys on. Aggregated per language as
# (Σ_w1 n_w1·L(n_w1) − Σ_pairs c·L(c)) // N with the repo's
# floor(1e6·ln) quantized-ln device.
#
# Scale shape: per-batch (lang, w1, w2) count partials → ONE coarse
# exchange on (lang, w1) — every (w1, *) context lands whole in one
# task, so the per-context entropy terms are computed in-task and only
# ≤ |langs| partial-sum rows leave each task → tiny groupby → per-lang
# division on the driver. The bigram vocabulary never reaches the
# driver.

_TCE_TOKEN_RE = r"[^ \t\n\r\f]+"


def q_token_cond_entropy(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["lang", "text"])
    tok_re = re.compile(_TCE_TOKEN_RE)
    empty = pd.DataFrame(
        {
            "lang": pd.Series(dtype=str),
            "n_bigrams": pd.Series(dtype=np.int64),
            "n_contexts": pd.Series(dtype=np.int64),
            "cond_entropy_unats": pd.Series(dtype=np.int64),
        }
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rec: dict[tuple, int] = {}
        for lg, t in zip(df["lang"], df["text"]):
            toks = tok_re.findall(str(t).lower())
            for a, b in zip(toks, toks[1:]):
                k = (lg, a, b)
                rec[k] = rec.get(k, 0) + 1
        if not rec:
            return pd.DataFrame(
                {
                    "lang": pd.Series(dtype=object),
                    "w1": pd.Series(dtype=object),
                    "w2": pd.Series(dtype=object),
                    "n_part": pd.Series(dtype=np.int64),
                    "ckey": pd.Series(dtype=object),
                }
            )
        out = pd.DataFrame(
            [(lg, a, b, v) for (lg, a, b), v in rec.items()],
            columns=["lang", "w1", "w2", "n_part"],
        )
        out["ckey"] = out["lang"].astype(str) + "\x1f" + out["w1"].astype(str)
        return out.astype({"n_part": np.int64})

    def entropy_terms(g: pd.DataFrame) -> pd.DataFrame:
        t = (
            g.drop(columns=["_g"])
            .groupby(["lang", "w1", "w2"], as_index=False)["n_part"]
            .sum()
        )
        rows = []
        for (lg, _w1), grp in t.groupby(["lang", "w1"]):
            cnts = [int(v) for v in grp["n_part"]]
            nn = sum(cnts)
            term = nn * math.floor(1e6 * math.log(nn)) - sum(
                v * math.floor(1e6 * math.log(v)) for v in cnts
            )
            rows.append((lg, nn, 1, term))
        out = pd.DataFrame(
            rows, columns=["lang", "n_part", "ctx_part", "term_part"]
        )
        out = out.groupby("lang", as_index=False).sum()
        return out.astype(
            {"n_part": np.int64, "ctx_part": np.int64, "term_part": np.int64}
        )

    c = (
        _with_coarse_group(
            d.map_batches(partial, batch_format="pandas"), "ckey"
        )
        .groupby("_g")
        .map_groups(entropy_terms, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            Sum("n_part", alias_name="n_bigrams"),
            Sum("ctx_part", alias_name="n_contexts"),
            Sum("term_part", alias_name="term"),
        )
        .to_pandas()  # <= |langs| rows
    )
    if not len(c):
        return empty
    rows = []
    for _, r in c.iterrows():
        nb = int(r["n_bigrams"])
        rows.append(
            (r["lang"], nb, int(r["n_contexts"]), int(r["term"]) // nb)
        )
    return (
        pd.DataFrame(
            rows,
            columns=["lang", "n_bigrams", "n_contexts", "cond_entropy_unats"],
        )
        .astype(
            {
                "n_bigrams": np.int64,
                "n_contexts": np.int64,
                "cond_entropy_unats": np.int64,
            }
        )
        .sort_values("lang")
        .reset_index(drop=True)
    )


TOKEN_COND_ENTROPY_SQL = rf"""
WITH w AS (
  SELECT lang, regexp_extract_all(lower(text), '{_TCE_TOKEN_RE}') AS ws
  FROM documents),
bg AS (
  SELECT lang,
         unnest(list_transform(range(1, len(ws)), i -> ws[i])) AS w1,
         unnest(list_transform(range(1, len(ws)), i -> ws[i+1])) AS w2
  FROM w WHERE len(ws) >= 2),
c AS (
  SELECT lang, w1, w2, CAST(COUNT(*) AS BIGINT) AS n
  FROM bg GROUP BY 1, 2, 3),
ctx AS (
  SELECT lang, w1, CAST(SUM(n) AS BIGINT) AS nn,
         CAST(SUM(n * CAST(FLOOR(1e6 * ln(n)) AS BIGINT)) AS BIGINT) AS sc
  FROM c GROUP BY 1, 2),
s AS (
  SELECT lang, CAST(SUM(nn) AS BIGINT) AS n_bigrams,
         CAST(COUNT(*) AS BIGINT) AS n_contexts,
         CAST(SUM(nn * CAST(FLOOR(1e6 * ln(nn)) AS BIGINT) - sc) AS BIGINT)
             AS term
  FROM ctx GROUP BY 1)
SELECT lang, n_bigrams, n_contexts,
       CAST(term // n_bigrams AS BIGINT) AS cond_entropy_unats
FROM s
"""


BLOCKING_SQL_QUERIES: dict[str, tuple] = {
    "snm_blocking": (q_snm_blocking, SNM_BLOCKING_SQL),
    "hash_balance_audit": (q_hash_balance_audit, HASH_BALANCE_AUDIT_SQL),
    "token_cond_entropy": (q_token_cond_entropy, TOKEN_COND_ENTROPY_SQL),
}
