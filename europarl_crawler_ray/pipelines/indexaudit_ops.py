"""Index-audit operators (round-5 batch 35): Monroe-style log-odds
distinctive terms per language (Monroe, Colaresi & Quinn 2008,
"Fightin' Words"), the Elias-Fano posting-list size audit (Vigna,
WSDM 2013 quasi-succinct indices), and WAND max-score upper bounds
(Broder et al., CIKM 2003) — the vocabulary / compression / pruning
triad an inverted index is tuned with.

Scale idioms: all three are vocabulary-bounded — per-batch (token[,
lang|doc]) count partials flow through ONE coarse token-keyed
exchange; language marginals are a #langs-row driver broadcast; the
log-odds ranking replaces float ln with the exact rational odds
ratio (ln is monotone, so ranking by the quantized HUGEINT quotient
is rank-identical — the repo's integer-formula convention), and the
Elias-Fano size needs only (df, universe), never the posting list
itself: l = max(0, bitlen(u // n) - 1), bits = n·l + n + (u >> l).

Reference parity: the reference's Elasticsearch sink delegates all
indexing (europarl/elasticsearch/); these audit the index a native
engine would build from the same corpus.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import global_prune, with_coarse_group as _with_coarse_group

TOK_RE = r"[^ \t\n\r\f]+"


# ================================================== distinctive_tokens
#
# Per-language distinctive vocabulary: for token w in language L with
# occurrence count c (of N_L total tokens in L), rest-count c_R (of
# N_R), and corpus vocabulary size V, the Laplace-smoothed odds ratio
#
#   OR = ((c+1) / (N_L − c + V)) / ((c_R+1) / (N_R − c_R + V))
#
# is a monotone transform of the Monroe et al. log-odds score, so the
# top-K ranking is identical — and OR is a ratio of exact integer
# products, quantized to score_x1e9 on both engines (no ln float).
# Output: top DISTINCT_K tokens per language, rank + score.
#
# Scale shape: (lang, token) partials → ONE coarse token exchange for
# exact counts (vocabulary-bounded); N_L marginals and V are an
# O(#langs + 1) driver reduce; ranking via per-lang global_prune
# (O(#langs × K) driver rows).

DISTINCT_K = 10


def q_distinctive_tokens(sf_dir: str):
    empty = pd.DataFrame(
        {
            "lang": pd.Series(dtype=object),
            "token": pd.Series(dtype=object),
            "rank": pd.Series(dtype=np.int64),
            "score_x1e9": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["lang", "text"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].astype(str).str.lower().str.findall(tok_re)
        n = toks.str.len().to_numpy(np.int64)
        if not n.sum():
            return pd.DataFrame(
                {
                    "lang": pd.Series(dtype=object),
                    "token": pd.Series(dtype=object),
                    "c": pd.Series(dtype=np.int64),
                }
            )
        flat = pd.DataFrame(
            {
                "lang": np.repeat(df["lang"].to_numpy(object), n),
                "token": np.concatenate(
                    [np.array(t, dtype=object) for t in toks]
                ),
            }
        )
        s = flat.groupby(["lang", "token"]).size().reset_index(name="c")
        s["c"] = s["c"].astype(np.int64)
        return s

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        s = t.groupby(["lang", "token"], as_index=False)["c"].sum()
        s["c"] = s["c"].astype(np.int64)
        return s

    counts = (
        _with_coarse_group(
            d.map_batches(partial, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(combine, batch_format="pandas")
        .materialize()  # vocabulary-scaled pin, reused by 3 consumers
    )

    # marginals: N_L per lang (≤ #langs rows) and V (one scalar)
    def lang_part(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("lang", as_index=False)["c"].sum()
        return s

    nl = (
        counts.map_batches(lang_part, batch_format="pandas")
        .groupby("lang")
        .sum("c")
        .to_pandas()
    )
    ccol = "sum(c)" if "sum(c)" in nl.columns else "c"
    nl_map = dict(zip(nl["lang"], nl[ccol].astype(np.int64)))
    n_tot = int(sum(nl_map.values()))

    # V (vocab size): distinct tokens — the coarse groups PARTITION the
    # token space (all of a token's lang-rows share one group), so
    # per-group nunique sums exactly; one bounded reduce.
    def vgroup(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": [np.int64(g["token"].nunique())]})

    v_tot = int(
        _with_coarse_group(counts, "token")
        .groupby("_g")
        .map_groups(vgroup, batch_format="pandas")
        .sum("v")
    )

    # per-token totals re-derive inside the scoring group (same token
    # key — the group holds every lang-row of its tokens).
    def score_group(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        ct = t.groupby("token")["c"].transform("sum").to_numpy(np.int64)
        c = t["c"].to_numpy(np.int64)
        langs = t["lang"].to_numpy(object)
        scores = []
        for ci, cti, lg in zip(c, ct, langs):
            ci, cti, nli = int(ci), int(cti), int(nl_map[lg])
            num = (ci + 1) * ((n_tot - nli) - (cti - ci) + v_tot)
            den = (cti - ci + 1) * (nli - ci + v_tot)
            scores.append(10**9 * num // den)
        out = pd.DataFrame(
            {
                "lang": langs,
                "token": t["token"].to_numpy(object),
                "score_x1e9": np.asarray(scores, dtype=np.int64),
            }
        )
        return out

    scored = (
        _with_coarse_group(counts, "token")
        .groupby("_g")
        .map_groups(score_group, batch_format="pandas")
    )

    def head(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(
                ["lang", "score_x1e9", "token"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("lang", as_index=False)
            .head(DISTINCT_K)
        )

    top = global_prune(scored, head)
    if not len(top):
        return empty
    top = top.sort_values(
        ["lang", "score_x1e9", "token"],
        ascending=[True, False, True],
        kind="mergesort",
    ).reset_index(drop=True)
    top["rank"] = top.groupby("lang").cumcount().to_numpy(np.int64) + 1
    return top[["lang", "token", "rank", "score_x1e9"]]


DISTINCTIVE_TOKENS_SQL = rf"""
WITH t AS (
  SELECT lang, unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
c AS (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS c FROM t GROUP BY 1, 2),
nl AS (SELECT lang, CAST(SUM(c) AS BIGINT) AS nl FROM c GROUP BY 1),
tot AS (
  SELECT CAST(SUM(c) AS BIGINT) AS nt,
         CAST(COUNT(DISTINCT token) AS BIGINT) AS v
  FROM c),
ct AS (SELECT token, CAST(SUM(c) AS BIGINT) AS ct FROM c GROUP BY 1),
s AS (
  SELECT c.lang, c.token,
         CAST(1000000000 *
              (CAST(c.c + 1 AS HUGEINT)
               * CAST((tot.nt - nl.nl) - (ct.ct - c.c) + tot.v AS HUGEINT))
              // (CAST(ct.ct - c.c + 1 AS HUGEINT)
                  * CAST(nl.nl - c.c + tot.v AS HUGEINT))
              AS BIGINT) AS score_x1e9
  FROM c JOIN nl USING (lang) JOIN ct USING (token), tot),
r AS (
  SELECT lang, token, score_x1e9,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY lang ORDER BY score_x1e9 DESC, token ASC
         ) AS BIGINT) AS rank
  FROM s)
SELECT lang, token, rank, score_x1e9 FROM r WHERE rank <= {DISTINCT_K}
"""


# ===================================================== elias_fano_bits
#
# Quasi-succinct posting-list size audit: for a token with df = n
# postings over a universe of u = n_docs document ids, the Elias-Fano
# encoding takes  n·l + n + (u >> l)  bits with
# l = max(0, bitlen(u // n) − 1)  — a pure function of (n, u), so the
# audit never materializes a posting list. Output per token: df,
# ef_bits, plain 64-bit size, and the compression ratio ×100.
#
# Scale shape: per-batch per-doc-distinct (token) partial df counts →
# ONE coarse token exchange → per-token closed-form arithmetic
# (vocabulary-bounded output).


def q_elias_fano_bits(sf_dir: str):
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=object),
            "n_postings": pd.Series(dtype=np.int64),
            "ef_bits": pd.Series(dtype=np.int64),
            "plain_bits": pd.Series(dtype=np.int64),
            "ratio_x100": pd.Series(dtype=np.int64),
        }
    )
    u = _n_rows(sf_dir, "documents")
    if u == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cnt: dict[str, int] = {}
        for text in df["text"].astype(str):
            for t in set(tok_re.findall(text.lower())):
                cnt[t] = cnt.get(t, 0) + 1
        return pd.DataFrame(
            {
                "token": np.array(list(cnt.keys()), dtype=object),
                "n": np.array(list(cnt.values()), dtype=np.int64),
            }
        )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        s = t.groupby("token", as_index=False)["n"].sum()
        n = s["n"].to_numpy(np.int64)
        q = u // n
        # exact bitlen (no float log2 near power-of-two edges):
        l = np.array([max(0, int(x).bit_length() - 1) for x in q], np.int64)
        ef = n * l + n + (u >> l)
        plain = n * np.int64(64)
        return pd.DataFrame(
            {
                "token": s["token"].to_numpy(object),
                "n_postings": n,
                "ef_bits": ef.astype(np.int64),
                "plain_bits": plain,
                "ratio_x100": (100 * ef // plain).astype(np.int64),
            }
        )

    return (
        _with_coarse_group(
            d.map_batches(partial, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(finish, batch_format="pandas")
    )


ELIAS_FANO_BITS_SQL = rf"""
WITH dt AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
u AS (SELECT CAST(COUNT(*) AS BIGINT) AS u FROM documents),
df AS (
  SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM dt GROUP BY 1),
f AS (
  SELECT token, n, u.u,
         GREATEST(0, CAST(length(bin(GREATEST(u.u // n, 1))) AS BIGINT) - 1)
           AS l
  FROM df, u)
SELECT token,
       n AS n_postings,
       CAST(n * l + n + (u >> CAST(l AS INTEGER)) AS BIGINT) AS ef_bits,
       CAST(n * 64 AS BIGINT) AS plain_bits,
       CAST(100 * (n * l + n + (u >> CAST(l AS INTEGER))) // (n * 64)
            AS BIGINT) AS ratio_x100
FROM f
"""


# ======================================================== wand_bounds
#
# WAND max-score pruning bounds: for each token, the maximum per-doc
# term frequency across the corpus (the upper bound WAND uses to skip
# non-competitive documents) and the document attaining it (smallest
# doc_id on ties — deterministic). Output: token, df, max_tf, arg_doc.
#
# Scale shape: per-batch exact per-doc tf (each doc entirely in one
# batch) → ONE coarse token exchange → vectorized per-token
# max / argmax with the doc-id tie rule applied via lexicographic
# sort; vocabulary-bounded output.


def q_wand_bounds(sf_dir: str):
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=object),
            "df": pd.Series(dtype=np.int64),
            "max_tf": pd.Series(dtype=np.int64),
            "arg_doc": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
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

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        t = t.sort_values(
            ["token", "tf", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        first = t.groupby("token", as_index=False).first()
        dfc = t.groupby("token", as_index=False).size()
        out = first.merge(dfc, on="token")
        return pd.DataFrame(
            {
                "token": out["token"].to_numpy(object),
                "df": out["size"].to_numpy(np.int64),
                "max_tf": out["tf"].to_numpy(np.int64),
                "arg_doc": out["doc_id"].to_numpy(np.int64),
            }
        )

    return (
        _with_coarse_group(
            d.map_batches(partial, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(finish, batch_format="pandas")
    )


WAND_BOUNDS_SQL = rf"""
WITH t AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
tf AS (
  SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
  FROM t GROUP BY 1, 2),
r AS (
  SELECT token, doc_id, tf,
         ROW_NUMBER() OVER (
           PARTITION BY token ORDER BY tf DESC, doc_id ASC
         ) AS rn,
         CAST(COUNT(*) OVER (PARTITION BY token) AS BIGINT) AS df
  FROM tf)
SELECT token, df, CAST(tf AS BIGINT) AS max_tf, doc_id AS arg_doc
FROM r WHERE rn = 1
"""


INDEXAUDIT_SQL_QUERIES: dict[str, tuple] = {
    "distinctive_tokens": (q_distinctive_tokens, DISTINCTIVE_TOKENS_SQL),
    "elias_fano_bits": (q_elias_fano_bits, ELIAS_FANO_BITS_SQL),
    "wand_bounds": (q_wand_bounds, WAND_BOUNDS_SQL),
}
