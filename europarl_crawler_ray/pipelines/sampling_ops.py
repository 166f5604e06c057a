"""Sampling / robust-statistics operators (round-4 batch).

Three curation stages a 100-TB training-data pipeline runs constantly:

- ``weighted_sample`` — Efraimidis–Spirakis weighted sampling WITHOUT
  replacement (VLDB 2006 / the "exponential key" trick): key_i =
  ln(u_i)/w_i with u_i a deterministic md5-uniform, take the global
  top-k keys. One per-batch prune + the shared ``global_prune``
  distributed combine, so the driver sees k rows regardless of corpus
  or block count — the deterministic-sample device (ann_ivf /
  contamination_check) generalized to WEIGHTED sampling.
- ``winsorize`` — per-event-type p05/p95 winsorization of the value
  column in exact integer cents (the standard feature-clipping step):
  value-domain histogram → thresholds (bounded driver reduce, the
  quantile_map pattern) → broadcast → vectorized clip map.
- ``mad_outliers`` — per-source median/MAD robust outlier flags on doc
  length: BOTH medians derive from ONE (source, n_chars) histogram (the
  deviation histogram is a transform of the value histogram, so no
  second pass over the data), then the per-source (med, mad) table
  broadcasts and a map flags |x−med| > 3·MAD.

All SQL-oracled with exact-integer or identical-formula float contracts;
scale idioms per pipelines/grouping.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .._util import read_table as _read
from .grouping import global_prune
from .ml_queries import _md5u


# ===================================== weighted sampling (E-S top-k keys)

WEIGHTED_SAMPLE_K = 50
_2_64F = 18446744073709551616.0  # 2^64 as the shared float constant


def q_weighted_sample(sf_dir: str, k: int = WEIGHTED_SAMPLE_K):
    """(rank, doc_id, w): the k-item weighted sample without replacement,
    weight = n_chars. Key = ln(u)/w (monotone in the classic u^(1/w)),
    u = (md5_64('ws|'||doc_id)+1)/2^64 — deterministic, so retries and
    re-runs draw the SAME sample (the property that makes sampling safe
    in a resumable pipeline) and the oracle replicates it bit-for-bit
    formula-wise (ln is the one library call; keys are well separated,
    the measure-zero-tie argument shared with the ANN oracles).

    Scale shape: per-batch top-k prune → ONE distributed combine
    (grouping.global_prune) → O(k) driver rows independent of block
    count."""
    from ..functions.dedup import md5_hash64

    d = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["n_chars"].to_numpy() > 0]
        if not len(df):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "n_chars": pd.Series([], dtype=np.int64),
                }
            )
        ids = df["doc_id"].to_numpy(np.int64)
        w = df["n_chars"].to_numpy(np.float64)
        h = md5_hash64([f"ws|{int(i)}" for i in ids])
        u = (h.astype(np.float64) + 1.0) / _2_64F
        key = np.log(u) / w
        # top-k by key DESC, doc_id ASC tie-break
        order = np.lexsort((ids, -key))[:k]
        return pd.DataFrame(
            {
                "doc_id": ids[order],
                "n_chars": df["n_chars"].to_numpy(np.int64)[order],
            }
        )

    top = global_prune(d, prune, batch_format="pandas")
    if top.empty:
        return pd.DataFrame(
            {
                "rank": pd.Series([], dtype=np.int64),
                "doc_id": pd.Series([], dtype=np.int64),
                "w": pd.Series([], dtype=np.int64),
            }
        )
    # final O(k) ranking on the driver (global_prune already ordered the
    # rows, but re-derive the keys so the rank column is self-contained)
    from ..functions.dedup import md5_hash64 as _h64

    ids = top["doc_id"].to_numpy(np.int64)
    w = top["n_chars"].to_numpy(np.float64)
    u = (_h64([f"ws|{int(i)}" for i in ids]).astype(np.float64) + 1.0) / _2_64F
    key = np.log(u) / w
    order = np.lexsort((ids, -key))[:k]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(order) + 1, dtype=np.int64),
            "doc_id": ids[order],
            "w": top["n_chars"].to_numpy(np.int64)[order],
        }
    )


def _weighted_sample_sql(k: int = WEIGHTED_SAMPLE_K) -> str:
    h = _md5u("'ws|' || CAST(doc_id AS VARCHAR)")
    return f"""
WITH d AS (SELECT doc_id, CAST(n_chars AS BIGINT) AS w FROM documents WHERE n_chars > 0),
keys AS (
  SELECT doc_id, w,
         ln((CAST({h} AS DOUBLE) + 1) / {_2_64F}) / w AS key
  FROM d)
SELECT CAST(rn AS BIGINT) AS rank, doc_id, w
FROM (SELECT doc_id, w,
        ROW_NUMBER() OVER (ORDER BY key DESC, doc_id ASC) AS rn
      FROM keys)
WHERE rn <= {k}
"""


# ========================================= winsorization (exact cents)

WINSOR_LO_Q = 0.05
WINSOR_HI_Q = 0.95


def q_winsorize(sf_dir: str):
    """(event_id, cents, lo, hi, clipped): per-event-type p05/p95
    winsorization of value-cents. Quantile definition = value at index
    floor((N-1)·q) of the sorted stratum (the length_quantiles /
    group_quantiles convention), so everything is exact int64.

    Scale shape: per-batch (event_type, cents) histogram combiner →
    bounded driver reduce (value-domain × type count, never row count)
    → thresholds broadcast via ray.put → vectorized clip map. The ONE
    driver collect is the histogram, same contract the scale-guard spy
    pins for quantile_map."""
    ev = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    "cents": pd.Series([], dtype=np.int64),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        cents = np.floor(df["value"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"].to_numpy(), "cents": cents})
            .groupby(["event_type", "cents"], as_index=False)
            .size()
        )
        g.columns = ["event_type", "cents", "n"]
        return g.astype({"cents": np.int64, "n": np.int64})

    def merge_type(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["event_type", "cents"], as_index=False)["n"].sum()
        return out.astype({"cents": np.int64, "n": np.int64})

    # coarse-keyed merge (group count = |event types|, the measured Ray
    # groupby rule) so the driver collect is EXACTLY the distinct
    # (event_type, cents) histogram, not per-block partial copies
    hdf = (
        ev.map_batches(hist, batch_format="pandas")
        .groupby("event_type")
        .map_groups(merge_type, batch_format="pandas")
        .to_pandas()
    )
    empty = pd.DataFrame(
        {
            "event_id": pd.Series([], dtype=np.int64),
            "cents": pd.Series([], dtype=np.int64),
            "lo": pd.Series([], dtype=np.int64),
            "hi": pd.Series([], dtype=np.int64),
            "clipped": pd.Series([], dtype=np.int64),
        }
    )
    if hdf.empty or "event_type" not in hdf.columns:
        return empty
    hdf = hdf.groupby(["event_type", "cents"], as_index=False)["n"].sum()
    th: dict[str, tuple[int, int]] = {}
    for et, g in hdf.groupby("event_type"):
        g = g.sort_values("cents")
        cum = g["n"].to_numpy().cumsum()
        n = int(cum[-1])
        ks = np.floor((n - 1) * np.array([WINSOR_LO_Q, WINSOR_HI_Q])).astype(np.int64)
        idx = np.searchsorted(cum, ks, side="right")
        vals = g["cents"].to_numpy()[idx]
        th[et] = (int(vals[0]), int(vals[1]))
    th_ref = ray.put(th)

    def clip(df: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(th_ref)
        cents = np.floor(df["value"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        los = np.array([t[e][0] for e in df["event_type"]], dtype=np.int64)
        his = np.array([t[e][1] for e in df["event_type"]], dtype=np.int64)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(np.int64),
                "cents": cents,
                "lo": los,
                "hi": his,
                "clipped": np.minimum(np.maximum(cents, los), his),
            }
        )

    return ev.map_batches(clip, batch_format="pandas")


WINSORIZE_SQL = f"""
WITH c AS (
  SELECT event_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events),
r AS (
  SELECT event_type, cents,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY cents) - 1 AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM c),
th AS (
  SELECT event_type,
         MAX(CASE WHEN rn = CAST(floor((n - 1) * {WINSOR_LO_Q}) AS BIGINT)
                  THEN cents END) AS lo,
         MAX(CASE WHEN rn = CAST(floor((n - 1) * {WINSOR_HI_Q}) AS BIGINT)
                  THEN cents END) AS hi
  FROM r GROUP BY event_type)
SELECT c.event_id, c.cents,
       CAST(th.lo AS BIGINT) AS lo, CAST(th.hi AS BIGINT) AS hi,
       CAST(LEAST(GREATEST(c.cents, th.lo), th.hi) AS BIGINT) AS clipped
FROM c JOIN th USING (event_type)
"""


# ================================== MAD robust outliers (one histogram)

MAD_SIGMA = 3


def q_mad_outliers(sf_dir: str):
    """(doc_id, n_chars, med, mad, outlier): per-source lower-median and
    MAD of doc length; outlier = |x − med| > 3·MAD. BOTH medians come
    from the ONE (source, n_chars) histogram — the deviation histogram
    is |v − med| re-keyed with the same counts, so no second data pass.

    Scale shape: per-batch histogram combiner → bounded driver reduce
    (distinct (source, n_chars) pairs — the quantile_map contract) →
    (med, mad) broadcast → flag map."""
    d = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "n_chars"], as_index=False).size()
        g.columns = ["source", "v", "n"]
        return g.astype({"v": np.int64, "n": np.int64})

    def merge_source(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["source", "v"], as_index=False)["n"].sum()
        return out.astype({"v": np.int64, "n": np.int64})

    hdf = (
        d.map_batches(hist, batch_format="pandas")
        .groupby("source")
        .map_groups(merge_source, batch_format="pandas")
        .to_pandas()
    )
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype=np.int64),
            "n_chars": pd.Series([], dtype=np.int64),
            "med": pd.Series([], dtype=np.int64),
            "mad": pd.Series([], dtype=np.int64),
            "outlier": pd.Series([], dtype=np.int64),
        }
    )
    if hdf.empty or "source" not in hdf.columns:
        return empty
    hdf = hdf.groupby(["source", "v"], as_index=False)["n"].sum()

    def _median_of(vals: np.ndarray, counts: np.ndarray) -> int:
        order = np.argsort(vals, kind="mergesort")
        vals, counts = vals[order], counts[order]
        cum = counts.cumsum()
        kth = (int(cum[-1]) - 1) // 2  # lower median
        return int(vals[np.searchsorted(cum, kth, side="right")])

    stats: dict[str, tuple[int, int]] = {}
    for src, g in hdf.groupby("source"):
        v = g["v"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        med = _median_of(v, n)
        mad = _median_of(np.abs(v - med), n)  # same counts, re-keyed values
        stats[src] = (med, mad)
    ref = ray.put(stats)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(ref)
        med = np.array([s[x][0] for x in df["source"]], dtype=np.int64)
        mad = np.array([s[x][1] for x in df["source"]], dtype=np.int64)
        x = df["n_chars"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "n_chars": x,
                "med": med,
                "mad": mad,
                "outlier": (np.abs(x - med) > MAD_SIGMA * mad).astype(np.int64),
            }
        )

    return d.map_batches(flag, batch_format="pandas")


MAD_OUTLIERS_SQL = f"""
WITH d AS (SELECT doc_id, source, CAST(n_chars AS BIGINT) AS x FROM documents),
r1 AS (
  SELECT source, x,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY x) - 1 AS rn,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM d),
med AS (
  SELECT source, MAX(CASE WHEN rn = (n - 1) // 2 THEN x END) AS med
  FROM r1 GROUP BY source),
a AS (
  SELECT d.doc_id, d.source, d.x, med.med, ABS(d.x - med.med) AS dev
  FROM d JOIN med USING (source)),
r2 AS (
  SELECT source, dev,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY dev) - 1 AS rn,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM a),
mad AS (
  SELECT source, MAX(CASE WHEN rn = (n - 1) // 2 THEN dev END) AS mad
  FROM r2 GROUP BY source)
SELECT a.doc_id, a.x AS n_chars,
       CAST(a.med AS BIGINT) AS med, CAST(mad.mad AS BIGINT) AS mad,
       CAST(CASE WHEN a.dev > {MAD_SIGMA} * mad.mad THEN 1 ELSE 0 END AS BIGINT)
         AS outlier
FROM a JOIN mad USING (source)
"""


SAMPLING_SQL_QUERIES: dict[str, tuple] = {
    "weighted_sample": (q_weighted_sample, _weighted_sample_sql()),
    "winsorize": (q_winsorize, WINSORIZE_SQL),
    "mad_outliers": (q_mad_outliers, MAD_OUTLIERS_SQL),
}
