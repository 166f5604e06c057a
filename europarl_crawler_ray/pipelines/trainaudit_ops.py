"""Training-prep audit operators (round-5 batch 20): shuffle mixing
audit (adjacent same-source clumping after the epoch shuffle) and
Otsu's automatic threshold over the document-length histogram.

Scale idioms: the shuffle audit rides epoch_shuffle's 256-bucket
terasort layout — per-bucket sorted adjacency in-task plus a ≤ 256-row
boundary hand-off; Otsu reduces to a value-domain histogram and exact
Python-int driver math (the SQL oracle mirrors it in HUGEINT, whose
~1e38 headroom covers the small-sf gate; at corpus scale the driver
side is the arbitrary-precision one).

Reference parity: the reference has no training-prep surface; these
extend the brief's training-prep / quality-filter families.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
from ray.data.aggregate import Sum

from .._util import read_table as _read
from .webtext_ops import EPOCH_SEED


# ================================================== shuffle_mixing_audit
#
# Does the epoch shuffle actually mix sources? Sequence packing feeds
# consecutive shuffled docs into one context window, so adjacent
# same-source runs leak correlated text into single windows. The audit
# walks the exact epoch_shuffle order (md5(seed|doc_id), doc_id
# tie-break) and counts adjacent pairs that share a source, against
# the exact hypergeometric expectation Σ n_s(n_s−1) / n — both in ppm
# of the n−1 adjacencies. observed ≈ expected certifies the shuffle;
# observed ≫ expected flags a broken key.
#
# Scale shape: the shuffle's own 256-bucket terasort layout — leading
# key byte = bucket, so global order = (bucket, key) order. Each
# bucket task sorts locally and counts its internal adjacencies; the
# 255 bucket-boundary adjacencies travel as one (first, last) row per
# bucket (≤ 256 rows to the driver). Source totals for the
# expectation are a source-domain-bounded aggregate.


def q_shuffle_mixing_audit(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "source"])
    empty = pd.DataFrame(
        {
            "n_docs": [0],
            "n_adjacencies": [0],
            "same_src_pairs": [0],
            "observed_ppm": [0],
            "expected_ppm": [0],
        }
    ).astype(np.int64)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        keys = [
            hashlib.md5(f"{EPOCH_SEED}|{int(i)}".encode("utf-8")).hexdigest()
            for i in ids
        ]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "source": df["source"].astype(object),
                "key": keys,
                "bucket": pd.Series(
                    [int(k[:2], 16) for k in keys], dtype=np.int64
                ),
            }
        )

    def bucket_audit(g: pd.DataFrame) -> pd.DataFrame:
        t = g.sort_values(["key", "doc_id"], kind="mergesort")
        src = t["source"].to_numpy(object)
        same = int((src[1:] == src[:-1]).sum()) if len(src) > 1 else 0
        return pd.DataFrame(
            {
                "bucket": [int(t["bucket"].iloc[0])],
                "n_part": [len(t)],
                "same_part": [same],
                "first_src": [str(src[0])],
                "last_src": [str(src[-1])],
            }
        )

    parts = (
        d.map_batches(keyed, batch_format="pandas")
        .groupby("bucket")
        .map_groups(bucket_audit, batch_format="pandas")
        .to_pandas()  # <= 256 rows (one per non-empty bucket)
    )
    if not len(parts):
        return empty
    parts = parts.sort_values("bucket").reset_index(drop=True)
    n = int(parts["n_part"].sum())
    same = int(parts["same_part"].sum())
    # bucket-boundary adjacencies: last of bucket b vs first of the next
    # non-empty bucket
    same += int(
        (
            parts["last_src"].to_numpy(object)[:-1]
            == parts["first_src"].to_numpy(object)[1:]
        ).sum()
    )
    n_adj = n - 1
    src_counts = (
        d.map_batches(
            lambda df: df.groupby("source", as_index=False)
            .size()
            .rename(columns={"size": "c"}),
            batch_format="pandas",
        )
        .groupby("source")
        .aggregate(Sum("c", alias_name="n_s"))
        .to_pandas()  # source-domain bounded
    )
    ns = src_counts["n_s"].to_numpy(np.int64)
    expected_num = int(sum(int(x) * (int(x) - 1) for x in ns))  # / n
    observed_ppm = same * 1_000_000 // n_adj if n_adj else 0
    # E[same] = (n-1) * Σ n_s(n_s-1) / (n(n-1)) = Σ n_s(n_s-1) / n
    expected_ppm = expected_num * 1_000_000 // n if n > 1 else 0
    return pd.DataFrame(
        {
            "n_docs": [n],
            "n_adjacencies": [n_adj],
            "same_src_pairs": [same],
            "observed_ppm": [observed_ppm],
            "expected_ppm": [expected_ppm],
        }
    ).astype(np.int64)


SHUFFLE_MIXING_AUDIT_SQL = f"""
WITH keyed AS (
  SELECT doc_id, source,
         md5('{EPOCH_SEED}|' || CAST(doc_id AS VARCHAR)) AS key
  FROM documents),
seqd AS (
  SELECT source,
         lag(source) OVER (ORDER BY key, doc_id) AS prev
  FROM keyed),
adj AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_adj,
         CAST(SUM(CASE WHEN source = prev THEN 1 ELSE 0 END) AS BIGINT)
             AS same
  FROM seqd WHERE prev IS NOT NULL),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
ex AS (
  SELECT CAST(SUM(c * (c - 1)) AS BIGINT) AS num
  FROM (SELECT COUNT(*) AS c FROM documents GROUP BY source))
SELECT tot.n AS n_docs, adj.n_adj AS n_adjacencies,
       adj.same AS same_src_pairs,
       CAST(CASE WHEN adj.n_adj > 0
            THEN adj.same * 1000000 // adj.n_adj ELSE 0 END AS BIGINT)
           AS observed_ppm,
       CAST(CASE WHEN tot.n > 1
            THEN ex.num * 1000000 // tot.n ELSE 0 END AS BIGINT)
           AS expected_ppm
FROM adj, tot, ex
"""


# ======================================================= otsu_threshold
#
# Otsu's method (Otsu 1979) over the document-length histogram: the
# threshold t maximizing the between-class variance
# (S0·n1 − S1·n0)² / (n0·n1) over splits {len ≤ t} / {len > t} — the
# automatic two-class cutoff a length-based quality filter uses
# instead of a hand-picked constant. The score is the exact integer
# numerator-over-denominator floor, argmax tie-broken by the smaller
# threshold, so both engines pick the identical cutoff.
#
# Scale shape: per-batch (n_chars → count, sum) partials → one
# value-domain-bounded groupby (distinct lengths) → exact Python-int
# argmax on the driver over the bounded histogram. The SQL mirror runs
# in HUGEINT (headroom ~1e38 covers the gate's scale; the driver side
# is arbitrary-precision for the real corpus).


def q_otsu_threshold(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["n_chars"])
    empty = pd.DataFrame(
        {
            "threshold": pd.Series(dtype=np.int64),
            "n_below": pd.Series(dtype=np.int64),
            "n_above": pd.Series(dtype=np.int64),
            "score": pd.Series(dtype=np.int64),
        }
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "v": pd.Series(dtype=np.int64),
                    "c_part": pd.Series(dtype=np.int64),
                    "s_part": pd.Series(dtype=np.int64),
                }
            )
        v = df["n_chars"].to_numpy(np.int64)
        out = (
            pd.DataFrame({"v": v})
            .groupby("v", as_index=False)
            .size()
            .rename(columns={"size": "c_part"})
        )
        out["s_part"] = out["v"].to_numpy(np.int64) * out["c_part"].to_numpy(
            np.int64
        )
        return out.astype(np.int64)

    h = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("v")
        .aggregate(
            Sum("c_part", alias_name="c"),
            Sum("s_part", alias_name="s"),
        )
        .to_pandas()  # value-domain bounded (distinct lengths)
    )
    if not len(h):
        return empty
    h = h.astype(np.int64).sort_values("v").reset_index(drop=True)
    vs = h["v"].tolist()
    cs = h["c"].tolist()
    ss = h["s"].tolist()
    n_tot, s_tot = sum(cs), sum(ss)
    best = None  # (score, threshold, n0)
    n0 = s0 = 0
    for v, c, s in zip(vs, cs, ss):
        n0 += c
        s0 += s
        n1 = n_tot - n0
        if n0 == 0 or n1 == 0:
            continue
        s1 = s_tot - s0
        num = s0 * n1 - s1 * n0
        score = (num * num) // (n0 * n1)
        if best is None or score > best[0]:
            best = (score, v, n0)
    if best is None:  # single distinct value — no valid split
        return pd.DataFrame(
            {
                "threshold": [vs[0]],
                "n_below": [n_tot],
                "n_above": [0],
                "score": [0],
            }
        ).astype(np.int64)
    score, thr, n0 = best
    return pd.DataFrame(
        {
            "threshold": [thr],
            "n_below": [n0],
            "n_above": [n_tot - n0],
            "score": [score],
        }
    ).astype(np.int64)


OTSU_THRESHOLD_SQL = """
WITH h AS (
  SELECT n_chars AS v, CAST(COUNT(*) AS HUGEINT) AS c,
         CAST(SUM(n_chars) AS HUGEINT) AS s
  FROM documents GROUP BY 1),
tot AS (SELECT SUM(c) AS n_tot, SUM(s) AS s_tot FROM h),
cum AS (
  SELECT v,
         SUM(c) OVER (ORDER BY v) AS n0,
         SUM(s) OVER (ORDER BY v) AS s0
  FROM h),
scored AS (
  SELECT cum.v,
         cum.n0,
         tot.n_tot - cum.n0 AS n1,
         (cum.s0 * (tot.n_tot - cum.n0) - (tot.s_tot - cum.s0) * cum.n0)
           * (cum.s0 * (tot.n_tot - cum.n0) - (tot.s_tot - cum.s0) * cum.n0)
           // (cum.n0 * (tot.n_tot - cum.n0)) AS score
  FROM cum, tot
  WHERE cum.n0 > 0 AND tot.n_tot - cum.n0 > 0),
pick AS (
  SELECT v, n0, n1, score FROM scored
  ORDER BY score DESC, v ASC LIMIT 1),
fallback AS (
  SELECT MIN(v) AS v, n_tot AS n0, CAST(0 AS HUGEINT) AS n1,
         CAST(0 AS HUGEINT) AS score
  FROM h, tot GROUP BY n_tot)
SELECT CAST(v AS BIGINT) AS threshold,
       CAST(n0 AS BIGINT) AS n_below,
       CAST(n1 AS BIGINT) AS n_above,
       CAST(score AS BIGINT) AS score
FROM (
  SELECT * FROM pick
  UNION ALL
  SELECT * FROM fallback WHERE NOT EXISTS (SELECT 1 FROM pick)
)
"""


TRAINAUDIT_SQL_QUERIES: dict[str, tuple] = {
    "shuffle_mixing_audit": (q_shuffle_mixing_audit, SHUFFLE_MIXING_AUDIT_SQL),
    "otsu_threshold": (q_otsu_threshold, OTSU_THRESHOLD_SQL),
}
