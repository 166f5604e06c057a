"""Lexical-statistics operators (round-5 batch 37): Yule's K
characteristic (Yule 1944, the classic repeat-rate lexical-diversity
constant), Gries' Deviation of Proportions dispersion (Gries 2008 —
whether a token's mass follows the corpus-part sizes or clumps), and
the McNemar paired-filter test statistic (McNemar 1947 — whether two
quality filters disagree systematically or symmetrically) — the
vocabulary-health / dispersion / filter-A-B trio of corpus QA.

Scale idioms: Yule's K needs only Σc² and N per language — (lang,
token) count partials through ONE coarse token exchange, then
per-group moment partials into a #langs-row reduce (the corpus never
re-scans); DP restricts to the top-K tokens via `global_prune` after
the same exchange, with part sizes a #sources-row broadcast and the
absent-part mass folded in closed form (C·N_absent — no part×token
grid materializes); McNemar is a pure per-batch contingency combiner
into a #langs-bounded groupby. All three quantize exact integer
rationals (HUGEINT in the oracle) — no float in any comparison.

Reference parity: the reference has no corpus-statistics surface
(analytics stop at status-code counts, europarl/db/queries.py);
these extend the brief's text-analysis family.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import global_prune, with_coarse_group as _with_coarse_group

TOK_RE = r"[^ \t\n\r\f]+"


def _lang_token_counts(sf_dir: str, by: str = "lang") -> ray.data.Dataset:
    """Exact (by, token, c) counts: per-batch partials → ONE coarse
    token exchange."""
    d = _read(sf_dir, "documents", columns=[by, "text"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].astype(str).str.lower().str.findall(tok_re)
        n = toks.str.len().to_numpy(np.int64)
        if not n.sum():
            return pd.DataFrame(
                {
                    by: pd.Series(dtype=object),
                    "token": pd.Series(dtype=object),
                    "c": pd.Series(dtype=np.int64),
                }
            )
        flat = pd.DataFrame(
            {
                by: np.repeat(df[by].to_numpy(object), n),
                "token": np.concatenate(
                    [np.array(t, dtype=object) for t in toks]
                ),
            }
        )
        s = flat.groupby([by, "token"]).size().reset_index(name="c")
        s["c"] = s["c"].astype(np.int64)
        return s

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        s = t.groupby([by, "token"], as_index=False)["c"].sum()
        s["c"] = s["c"].astype(np.int64)
        return s

    return (
        _with_coarse_group(
            d.map_batches(partial, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(combine, batch_format="pandas")
    )


# ============================================================== yule_k
#
# Yule's K per language: K = 10^4 · (Σ_types c² − N) / N² — the
# repeat-rate constant that is (unlike type-token ratio) independent
# of sample size under Yule's urn model. Output k_x100 =
# ⌊10^6 · (S2 − N) / N²⌋ (i.e. K scaled ×100), exact HUGEINT rational.
#
# Scale shape: the (lang, token) exchange is vocabulary-bounded; each
# group contributes one (lang, ΣC², ΣC) moment partial → #langs-row
# bounded groupby → driver quotient.


def q_yule_k(sf_dir: str):
    empty = pd.DataFrame(
        {
            "lang": pd.Series(dtype=object),
            "n_tokens": pd.Series(dtype=np.int64),
            "n_types": pd.Series(dtype=np.int64),
            "k_x100": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    counts = _lang_token_counts(sf_dir)

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        c = df["c"].to_numpy(np.int64)
        g = pd.DataFrame(
            {"lang": df["lang"].to_numpy(object), "n": c, "s2": c * c,
             "ty": np.ones(len(c), np.int64)}
        )
        return g.groupby("lang", as_index=False)[["n", "s2", "ty"]].sum()

    agg = (
        counts.map_batches(moments, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            Sum("n", alias_name="n_tokens"),
            Sum("s2", alias_name="s2"),
            Sum("ty", alias_name="n_types"),
        )
        .to_pandas()  # <= #langs rows
    )
    if not len(agg):
        return empty
    out = pd.DataFrame(
        {
            "lang": agg["lang"],
            "n_tokens": agg["n_tokens"].astype(np.int64),
            "n_types": agg["n_types"].astype(np.int64),
            "k_x100": [
                (10**6 * (int(s2) - int(n))) // (int(n) * int(n))
                if int(n) > 0
                else 0
                for s2, n in zip(agg["s2"], agg["n_tokens"])
            ],
        }
    )
    out["k_x100"] = out["k_x100"].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


YULE_K_SQL = rf"""
WITH t AS (
  SELECT lang, unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
c AS (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS c FROM t GROUP BY 1, 2),
m AS (
  SELECT lang,
         CAST(SUM(c) AS BIGINT) AS n_tokens,
         CAST(SUM(CAST(c AS HUGEINT) * c) AS HUGEINT) AS s2,
         CAST(COUNT(*) AS BIGINT) AS n_types
  FROM c GROUP BY 1)
SELECT lang, n_tokens, n_types,
       CAST(CAST(1000000 AS HUGEINT) * (s2 - n_tokens)
            // (CAST(n_tokens AS HUGEINT) * n_tokens) AS BIGINT) AS k_x100
FROM m
"""


# ============================================================= gries_dp
#
# Deviation of Proportions (Gries 2008) for the DP_TOPK most frequent
# tokens, with corpus parts = sources: DP(w) = ½ Σ_parts |v_i − s_i|
# where v_i is the share of w's occurrences in part i and s_i the
# part-size share. 0 = perfectly even, →1 = clumped in one part.
# Exact rational: dp_x1e6 = ⌊10^6 · Σ|c_i·N − n_i·C| / (2·C·N)⌋, with
# the absent-part mass folded as C·(N − Σ_present n_i) — the
# part×token grid never materializes.
#
# Scale shape: (source, token) exchange (vocabulary-bounded) → token
# totals → global_prune top-K (O(K) driver rows) → driver DP math
# against the #sources-row part-size table.

DP_TOPK = 20


def q_gries_dp(sf_dir: str):
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=object),
            "total": pd.Series(dtype=np.int64),
            "dp_x1e6": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    counts = _lang_token_counts(sf_dir, by="source").materialize()

    # part sizes: #sources-row reduce
    def psize(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False)["c"].sum()

    ps = (
        counts.map_batches(psize, batch_format="pandas")
        .groupby("source")
        .sum("c")
        .to_pandas()
    )
    ccol = "sum(c)" if "sum(c)" in ps.columns else "c"
    n_map = dict(zip(ps["source"], ps[ccol].astype(np.int64)))
    n_total = int(sum(n_map.values()))
    if n_total == 0:
        return empty

    # top-K tokens by total count (ties: token asc) — global_prune
    def totals(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("token", as_index=False)["c"].sum()
        return s.rename(columns={"c": "total"})

    def head(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False)["total"].sum()
        return g.sort_values(
            ["total", "token"], ascending=[False, True], kind="mergesort"
        ).head(DP_TOPK)

    top = global_prune(
        counts.map_batches(totals, batch_format="pandas"), head
    )
    if not len(top):
        return empty
    top_tokens = set(top["token"])

    # per-(token, source) rows of the K winners: bounded collect
    def keep_top(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["token"].isin(top_tokens)]

    rows = counts.map_batches(keep_top, batch_format="pandas").to_pandas()
    out = []
    for token, g in rows.groupby("token"):
        c_tot = int(g["c"].sum())
        present = dict(zip(g["source"], g["c"].astype(np.int64)))
        acc = 0
        n_present = 0
        for s, n_i in n_map.items():
            ci = int(present.get(s, 0))
            if ci:
                acc += abs(ci * n_total - int(n_i) * c_tot)
                n_present += int(n_i)
        acc += c_tot * (n_total - n_present)  # absent parts: |0 − n_i·C|
        out.append(
            (token, c_tot, 10**6 * acc // (2 * c_tot * n_total))
        )
    res = pd.DataFrame(out, columns=["token", "total", "dp_x1e6"])
    res["total"] = res["total"].astype(np.int64)
    res["dp_x1e6"] = res["dp_x1e6"].astype(np.int64)
    return res.sort_values("token").reset_index(drop=True)


GRIES_DP_SQL = rf"""
WITH t AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
c AS (
  SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c FROM t GROUP BY 1, 2),
np AS (SELECT source, CAST(SUM(c) AS BIGINT) AS n_i FROM c GROUP BY 1),
nt AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM c),
tot AS (SELECT token, CAST(SUM(c) AS BIGINT) AS total FROM c GROUP BY 1),
topk AS (
  SELECT token, total FROM (
    SELECT token, total,
           ROW_NUMBER() OVER (ORDER BY total DESC, token ASC) AS rn
    FROM tot) WHERE rn <= {DP_TOPK}),
present AS (
  SELECT k.token, k.total,
         CAST(SUM(ABS(CAST(c.c AS HUGEINT) * nt.n
                      - CAST(np.n_i AS HUGEINT) * k.total)) AS HUGEINT)
           AS acc_present,
         CAST(SUM(np.n_i) AS BIGINT) AS n_present
  FROM topk k
  JOIN c ON c.token = k.token
  JOIN np ON np.source = c.source, nt
  GROUP BY 1, 2)
SELECT p.token, p.total,
       CAST((p.acc_present
             + CAST(p.total AS HUGEINT) * (nt.n - p.n_present))
            * 1000000
            // (2 * CAST(p.total AS HUGEINT) * nt.n) AS BIGINT) AS dp_x1e6
FROM present p, nt
"""


# ====================================================== mcnemar_filters
#
# McNemar's paired test statistic between two deterministic quality
# filters over the same documents — filter A: n_chars ≥ MC_LEN,
# filter B: distinct-token count ≥ MC_TYPES. Per language: the full
# 2×2 contingency (n00, n01, n10, n11) and the uncorrected statistic
# χ² = (n01 − n10)² / (n01 + n10), quantized ×10^6 (0 when the
# discordant count is 0). The discordant cells are the filter-A/B
# disagreement — the number a filter migration decision reads.
#
# Scale shape: pure per-batch contingency combiner → #langs-bounded
# groupby; no exchange carries tokens.

MC_LEN = 300
MC_TYPES = 12


def q_mcnemar_filters(sf_dir: str):
    empty = pd.DataFrame(
        {
            "lang": pd.Series(dtype=object),
            "n00": pd.Series(dtype=np.int64),
            "n01": pd.Series(dtype=np.int64),
            "n10": pd.Series(dtype=np.int64),
            "n11": pd.Series(dtype=np.int64),
            "mcnemar_x1e6": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["lang", "text", "n_chars"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        a = df["n_chars"].to_numpy(np.int64) >= MC_LEN
        b = np.fromiter(
            (
                len(set(tok_re.findall(str(t).lower()))) >= MC_TYPES
                for t in df["text"]
            ),
            bool,
            len(df),
        )
        g = pd.DataFrame(
            {
                "lang": df["lang"].to_numpy(object),
                "n00": (~a & ~b).astype(np.int64),
                "n01": (~a & b).astype(np.int64),
                "n10": (a & ~b).astype(np.int64),
                "n11": (a & b).astype(np.int64),
            }
        )
        return g.groupby("lang", as_index=False).sum()

    agg = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            Sum("n00", alias_name="n00"),
            Sum("n01", alias_name="n01"),
            Sum("n10", alias_name="n10"),
            Sum("n11", alias_name="n11"),
        )
        .to_pandas()
    )
    if not len(agg):
        return empty
    b = agg["n01"].to_numpy(np.int64)
    c = agg["n10"].to_numpy(np.int64)
    stat = np.where(
        b + c > 0,
        10**6 * (b - c) * (b - c) // np.maximum(b + c, 1),
        0,
    )
    out = agg.copy()
    out["mcnemar_x1e6"] = stat.astype(np.int64)
    for col in ("n00", "n01", "n10", "n11"):
        out[col] = out[col].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


MCNEMAR_FILTERS_SQL = rf"""
WITH f AS (
  SELECT lang,
         CASE WHEN n_chars >= {MC_LEN} THEN 1 ELSE 0 END AS a,
         CASE WHEN len(list_distinct(
                regexp_extract_all(lower(text), '{TOK_RE}')))
                >= {MC_TYPES} THEN 1 ELSE 0 END AS b
  FROM documents),
g AS (
  SELECT lang,
         CAST(SUM(CASE WHEN a = 0 AND b = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n00,
         CAST(SUM(CASE WHEN a = 0 AND b = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n01,
         CAST(SUM(CASE WHEN a = 1 AND b = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n10,
         CAST(SUM(CASE WHEN a = 1 AND b = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n11
  FROM f GROUP BY 1)
SELECT lang, n00, n01, n10, n11,
       CAST(CASE WHEN n01 + n10 > 0
                 THEN 1000000 * (n01 - n10) * (n01 - n10) // (n01 + n10)
                 ELSE 0 END AS BIGINT) AS mcnemar_x1e6
FROM g
"""


LEXSTAT_SQL_QUERIES: dict[str, tuple] = {
    "yule_k": (q_yule_k, YULE_K_SQL, "text"),
    "gries_dp": (q_gries_dp, GRIES_DP_SQL, "text"),
    "mcnemar_filters": (q_mcnemar_filters, MCNEMAR_FILTERS_SQL, "text"),
}
