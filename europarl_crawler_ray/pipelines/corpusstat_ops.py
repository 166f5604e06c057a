"""Corpus-statistics / storage-audit operators (round-5 batch 11):
conditional character-bigram entropy, exact-duplicate family-size
histogram, and a zone-map pruning-selectivity estimate.

Scale idioms per pipelines/grouping.py: per-batch combiners, ONE
coarse-hash exchange per data-scaled key, histogram-domain driver
reduces only. Float parity is the repo rule: quantized-ln integer
sums (zipf_slope's floor(1e6·ln) device), integer basis points, and
clamps that make floor-vs-truncate division agree across engines.

Reference parity: the reference has no corpus statistics
(europarl/tools/status.py is its only analytics); these extend the
brief's text-analysis / data-governance families.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
from ray.data.aggregate import Sum

from .._util import read_table as _read
from .grouping import with_coarse_group as _with_coarse_group


# ==================================================== char_cond_entropy
#
# Conditional character-bigram entropy H(c2|c1) per language over the
# 27-symbol alphabet {a..z, _} (every non-letter maps to '_') — the
# character-level predictability score a language-ID or gibberish
# filter thresholds on: natural language sits well below the ln(27)
# ceiling, while key-mash / base64 blobs push toward it. Computed as
# H(c1,c2) − H(c1) with token_entropy's quantized-ln device; the
# mathematically-nonnegative difference is clamped at 0 so a ±1-unit
# quantization dip cannot go negative (and // stays on nonnegative
# operands where DuckDB's truncate equals Python's floor).
#
# Scale shape: per-batch (lang, c1, c2) bigram-count partials — the
# pair domain is CAPPED at 27² per language — into one schema-bounded
# groupby; the entropy arithmetic is driver math over ≤ 729·|langs|
# cells. Text never leaves the scan.


def _map_char(c: str) -> str:
    return c if "a" <= c <= "z" else "_"


def q_char_cond_entropy(sf_dir: str):
    import math

    d = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"lang": str, "c1": str, "c2": str, "n_part": np.int64}
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
        recs: dict[tuple, int] = {}
        for lang, text in zip(df["lang"], df["text"]):
            s = str(text).lower()
            if len(s) < 2:
                continue
            # vectorized map: letters keep, everything else -> '_'
            arr = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
            mapped = np.where((arr >= 97) & (arr <= 122), arr, 95)
            pairs, cnts = np.unique(
                mapped[:-1].astype(np.int64) * 1024 + mapped[1:], return_counts=True
            )
            for p, c in zip(pairs, cnts):
                key = (lang, chr(int(p) // 1024), chr(int(p) % 1024))
                recs[key] = recs.get(key, 0) + int(c)
        if not recs:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
        out = pd.DataFrame(
            [(k[0], k[1], k[2], v) for k, v in recs.items()],
            columns=["lang", "c1", "c2", "n_part"],
        )
        return out.astype({"n_part": np.int64})

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby(["lang", "c1", "c2"])
        .aggregate(Sum("n_part", alias_name="n"))
        .to_pandas()  # <= 27^2 x |langs| rows, schema-bounded
    )
    out_cols = ["lang", "n_bigrams", "cond_entropy_unats"]
    if not len(c):
        return pd.DataFrame(
            {"lang": pd.Series(dtype=str),
             "n_bigrams": pd.Series(dtype=np.int64),
             "cond_entropy_unats": pd.Series(dtype=np.int64)}
        )

    def L(x: int) -> int:
        return math.floor(1e6 * math.log(x))

    rows = []
    for lang, g in c.groupby("lang", sort=True, dropna=False):
        pair_counts = [int(v) for v in g["n"]]
        first_counts = [
            int(v) for v in g.groupby("c1")["n"].sum()
        ]
        n = sum(pair_counts)
        h_pair = (n * L(n) - sum(v * L(v) for v in pair_counts)) // n
        h_first = (n * L(n) - sum(v * L(v) for v in first_counts)) // n
        rows.append((str(lang), n, max(0, h_pair - h_first)))
    return pd.DataFrame(rows, columns=out_cols).astype(
        {"n_bigrams": np.int64, "cond_entropy_unats": np.int64}
    )


CHAR_COND_ENTROPY_SQL = """
WITH ch AS (
  SELECT lang,
         CASE WHEN substr(lower(text), CAST(i.i AS INTEGER), 1)
                   BETWEEN 'a' AND 'z'
              THEN substr(lower(text), CAST(i.i AS INTEGER), 1)
              ELSE '_' END AS c1,
         CASE WHEN substr(lower(text), CAST(i.i AS INTEGER) + 1, 1)
                   BETWEEN 'a' AND 'z'
              THEN substr(lower(text), CAST(i.i AS INTEGER) + 1, 1)
              ELSE '_' END AS c2
  FROM documents, unnest(range(1, length(text))) AS i(i)
  WHERE length(text) >= 2),
pc AS (SELECT lang, c1, c2, CAST(COUNT(*) AS BIGINT) AS n
       FROM ch GROUP BY 1, 2, 3),
fc AS (SELECT lang, c1, CAST(SUM(n) AS BIGINT) AS n FROM pc GROUP BY 1, 2),
tot AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS nt FROM pc GROUP BY 1),
hp AS (
  SELECT pc.lang,
         SUM(pc.n * CAST(FLOOR(1e6 * ln(pc.n)) AS BIGINT)) AS sc
  FROM pc GROUP BY 1),
hf AS (
  SELECT fc.lang,
         SUM(fc.n * CAST(FLOOR(1e6 * ln(fc.n)) AS BIGINT)) AS sc
  FROM fc GROUP BY 1)
SELECT tot.lang, tot.nt AS n_bigrams,
       CAST(GREATEST(0,
            (tot.nt * CAST(FLOOR(1e6 * ln(tot.nt)) AS BIGINT) - hp.sc)
              // tot.nt
            - (tot.nt * CAST(FLOOR(1e6 * ln(tot.nt)) AS BIGINT) - hf.sc)
              // tot.nt) AS BIGINT) AS cond_entropy_unats
FROM tot JOIN hp ON hp.lang = tot.lang JOIN hf ON hf.lang = tot.lang
"""


# ======================================================== dup_size_hist
#
# Exact-duplicate family-size histogram: group identical texts, then
# count families by size (capped at DUP_CAP) — the "how duplicated is
# this crawl, and in what shape" readout that decides between cheap
# keep-first dedup (mass in size 2-3) and cluster dedup (heavy tail).
#
# Scale shape: per-batch md5 pre-hash (text never crosses the wire as
# a key) -> ONE coarse exchange on the digest -> per-task exact family
# sizes -> capped histogram partials (<= DUP_CAP rows/task) -> one tiny
# groupby -> driver share math.

DUP_CAP = 10


def q_dup_size_hist(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["text"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        h = [
            hashlib.md5(str(t).encode()).hexdigest() for t in df["text"]
        ]
        out = pd.DataFrame({"h": h}).groupby("h", as_index=False).size()
        out.columns = ["h", "n_part"]
        return out.astype({"n_part": np.int64})

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        fam = g.drop(columns=["_g"]).groupby("h", as_index=False)["n_part"].sum()
        size = np.minimum(fam["n_part"].to_numpy(np.int64), DUP_CAP)
        vals, cnts = np.unique(size, return_counts=True)
        docs = np.array(
            [int(fam["n_part"].to_numpy(np.int64)[size == v].sum()) for v in vals],
            np.int64,
        )
        return pd.DataFrame(
            {"family_size": vals.astype(np.int64),
             "fam_part": cnts.astype(np.int64),
             "doc_part": docs}
        )

    c = (
        _with_coarse_group(d.map_batches(pre, batch_format="pandas"), "h")
        .groupby("_g")
        .map_groups(hist, batch_format="pandas")
        .groupby("family_size")
        .aggregate(
            Sum("fam_part", alias_name="n_families"),
            Sum("doc_part", alias_name="n_docs"),
        )
        .to_pandas()  # <= DUP_CAP rows
    )
    if not len(c):
        return pd.DataFrame(
            {"family_size": pd.Series(dtype=np.int64),
             "n_families": pd.Series(dtype=np.int64),
             "n_docs": pd.Series(dtype=np.int64)}
        )
    return (
        c.astype(np.int64).sort_values("family_size").reset_index(drop=True)
    )


DUP_SIZE_HIST_SQL = f"""
WITH fam AS (
  SELECT text, CAST(COUNT(*) AS BIGINT) AS sz
  FROM documents GROUP BY 1),
h AS (
  SELECT LEAST(sz, {DUP_CAP}) AS family_size,
         CAST(COUNT(*) AS BIGINT) AS n_families,
         CAST(SUM(sz) AS BIGINT) AS n_docs
  FROM fam GROUP BY 1)
SELECT family_size, n_families, n_docs FROM h
"""


# ================================================== zonemap_selectivity
#
# Zone-map (min/max statistics) pruning effectiveness: split the table
# into virtual row groups of ZM_G consecutive doc_ids and, for each
# audit predicate ``n_chars > C``, count the groups a reader could skip
# because the group's max(n_chars) <= C — the storage-layout diagnostic
# behind zorder_index/compaction_plan: low prunability says the sort
# key doesn't cluster the filter column.
#
# Scale shape: per-batch (group, max) combiner -> ONE coarse exchange
# on the group id (exact per-group max in-task) -> per-task histogram
# partial over the FIXED threshold list (<= |ZM_THRESHOLDS| rows/task)
# -> tiny groupby -> driver bp math. The per-group max table (data/ZM_G
# rows) itself never reaches the driver.

ZM_G = 128
ZM_THRESHOLDS = (200, 400, 800)


def q_zonemap_selectivity(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        g = (df["doc_id"].to_numpy(np.int64) // ZM_G)
        out = (
            pd.DataFrame({"g_id": g, "mx": df["n_chars"].to_numpy(np.int64)})
            .groupby("g_id", as_index=False)["mx"].max()
        )
        return out.astype(np.int64)

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        mx = (
            g.drop(columns=["_g"]).groupby("g_id", as_index=False)["mx"].max()
        )["mx"].to_numpy(np.int64)
        rows = [
            (int(c), len(mx), int((mx <= c).sum())) for c in ZM_THRESHOLDS
        ]
        return pd.DataFrame(
            rows, columns=["threshold", "grp_part", "prun_part"]
        ).astype(np.int64)

    c = (
        _with_coarse_group(d.map_batches(pre, batch_format="pandas"), "g_id")
        .groupby("_g")
        .map_groups(hist, batch_format="pandas")
        .groupby("threshold")
        .aggregate(
            Sum("grp_part", alias_name="n_groups"),
            Sum("prun_part", alias_name="prunable"),
        )
        .to_pandas()  # |ZM_THRESHOLDS| rows
    )
    if not len(c):
        return pd.DataFrame(
            {"threshold": pd.Series(dtype=np.int64),
             "n_groups": pd.Series(dtype=np.int64),
             "prunable": pd.Series(dtype=np.int64),
             "prunable_bp": pd.Series(dtype=np.int64)}
        )
    c = c.astype(np.int64)
    c["prunable_bp"] = (
        c["prunable"].astype(object) * 10000 // c["n_groups"].astype(object)
    ).astype(np.int64)
    return c.sort_values("threshold").reset_index(drop=True)


ZONEMAP_SELECTIVITY_SQL = f"""
WITH g AS (
  SELECT doc_id // {ZM_G} AS g_id, CAST(MAX(n_chars) AS BIGINT) AS mx
  FROM documents GROUP BY 1),
th AS (SELECT CAST(t.t AS BIGINT) AS threshold
       FROM unnest([{", ".join(str(t) for t in ZM_THRESHOLDS)}]) AS t(t))
SELECT th.threshold,
       CAST(COUNT(*) AS BIGINT) AS n_groups,
       CAST(SUM(CASE WHEN g.mx <= th.threshold THEN 1 ELSE 0 END) AS BIGINT)
           AS prunable,
       CAST(SUM(CASE WHEN g.mx <= th.threshold THEN 1 ELSE 0 END) * 10000
            // COUNT(*) AS BIGINT) AS prunable_bp
FROM g, th GROUP BY 1
"""


CORPUSSTAT_SQL_QUERIES: dict[str, tuple] = {
    "char_cond_entropy": (q_char_cond_entropy, CHAR_COND_ENTROPY_SQL),
    "dup_size_hist": (q_dup_size_hist, DUP_SIZE_HIST_SQL),
    "zonemap_selectivity": (q_zonemap_selectivity, ZONEMAP_SELECTIVITY_SQL),
}
