"""IR / distribution audit operators (round-5 batch 24): pseudo-
relevance-feedback query expansion (RM3-lite over the BM25 top-k),
per-token position bias (template detection), and the distribution-
free central tolerance interval of document lengths (Wilks 1941 order
statistics).

Scale idioms: the PRF feedback set is the BM25 top-k (driver-bounded
by construction); expansion-term counting is restricted to those k
docs via a broadcast id set; position bias rides the bounded top-K
vocabulary broadcast; the tolerance interval is exact rank math over
the value-domain histogram.

Reference parity: the reference has no IR surface; these extend the
brief's text-analysis / training-prep families.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read
from .grouping import with_coarse_group as _with_coarse_group


# =========================================================== prf_expand
#
# Pseudo-relevance feedback (the RM3 shape, counting form): run the
# fixed BM25 query, take the top-BM25_TOPK feedback docs, and rank
# candidate expansion terms by their total term frequency inside the
# feedback set (query terms excluded; ties tf DESC, token ASC) — the
# classic zero-supervision query expander. Emits the top PRF_T terms
# with their feedback-set tf and df.
#
# Scale shape: the feedback set is q_bm25_rank's driver-bounded top-k
# (its own plan is the one-reduce + broadcast-constants shape);
# expansion counting reads ONLY those k docs via a broadcast id set
# and pushes the tf combine per batch; the candidate vocabulary is
# bounded by k documents' tokens.

PRF_T = 5


def q_prf_expand(sf_dir: str):
    from .weblinkage_ops import BM25_QUERY, q_bm25_rank

    top = q_bm25_rank(sf_dir)
    empty = pd.DataFrame(
        {
            "expansion_rank": pd.Series(dtype=np.int64),
            "token": pd.Series(dtype=str),
            "fb_tf": pd.Series(dtype=np.int64),
            "fb_df": pd.Series(dtype=np.int64),
        }
    )
    if top is None or not len(top):
        return empty
    fb_ids = frozenset(int(v) for v in top["doc_id"])
    ids_ref = ray.put(fb_ids)
    qset = frozenset(BM25_QUERY)
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        fb = ray.get(ids_ref)
        rec: dict[str, list] = {}
        for i, t in zip(df["doc_id"].to_numpy(np.int64), df["text"]):
            if int(i) not in fb:
                continue
            seen_here = set()
            for tok in str(t).split(" "):
                if not tok or tok in qset:
                    continue
                r = rec.setdefault(tok, [0, 0])
                r[0] += 1
                if tok not in seen_here:
                    r[1] += 1
                    seen_here.add(tok)
        if not rec:
            return pd.DataFrame(
                {
                    "token": pd.Series(dtype=object),
                    "tf_part": pd.Series(dtype=np.int64),
                    "df_part": pd.Series(dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "token": list(rec),
                "tf_part": np.array([v[0] for v in rec.values()], np.int64),
                "df_part": np.array([v[1] for v in rec.values()], np.int64),
            }
        )

    c = (
        d.map_batches(counts, batch_format="pandas")
        .groupby("token")
        .aggregate(
            Sum("tf_part", alias_name="fb_tf"),
            Sum("df_part", alias_name="fb_df"),
        )
        .to_pandas()  # bounded by k feedback docs' vocabulary
    )
    if not len(c):
        return empty
    c["fb_tf"] = c["fb_tf"].astype(np.int64)
    c["fb_df"] = c["fb_df"].astype(np.int64)
    c = c.sort_values(
        ["fb_tf", "token"], ascending=[False, True]
    ).head(PRF_T)
    c.insert(
        0, "expansion_rank", np.arange(1, len(c) + 1, dtype=np.int64)
    )
    return c.reset_index(drop=True)


def _prf_sql() -> str:
    from .weblinkage_ops import BM25_QUERY, _bm25_sql

    qlist = ", ".join(f"'{q}'" for q in BM25_QUERY)
    return f"""
WITH bm AS ({_bm25_sql()}),
toks AS (
  SELECT bm.doc_id, t.tok
  FROM bm JOIN documents d ON d.doc_id = bm.doc_id,
       unnest(string_split(d.text, ' ')) AS t(tok)
  WHERE t.tok <> '' AND t.tok NOT IN ({qlist})),
c AS (
  SELECT tok AS token, CAST(COUNT(*) AS BIGINT) AS fb_tf,
         CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS fb_df
  FROM toks GROUP BY 1)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY fb_tf DESC, token ASC) AS BIGINT)
         AS expansion_rank,
       token, fb_tf, fb_df
FROM c
ORDER BY fb_tf DESC, token ASC
LIMIT {PRF_T}
"""


# ================================================== token_position_bias
#
# Per-token position bias over the shared top-K vocabulary: the mean
# relative position (ppm of the 0..len−1 span, per-occurrence floor)
# of each frequent token. Natural-language tokens sit near 500000;
# a token pinned near 0 or 10^6 is boilerplate chrome (headers,
# footers, signatures) — the template signal main-content extraction
# thresholds on.
#
# Scale shape: bounded top-K vocabulary (count DESC, token ASC)
# broadcast via ray.put; per-batch (token, Σpos_ppm, n) partials over
# the K domain → ≤K-row groupby → floor mean. Docs with < 2 tokens
# have no defined span and are skipped on both engines.

TPB_K = 32
_TPB_TOKEN_RE = r"[^ \t\n\r\f]+"


def q_token_position_bias(sf_dir: str, k: int = TPB_K):
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(_TPB_TOKEN_RE)
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=str),
            "n_occ": pd.Series(dtype=np.int64),
            "mean_pos_ppm": pd.Series(dtype=np.int64),
        }
    )

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        rec: dict[str, int] = {}
        for t in df["text"]:
            for tok in tok_re.findall(str(t).lower()):
                rec[tok] = rec.get(tok, 0) + 1
        if not rec:
            return pd.DataFrame(
                {"token": pd.Series(dtype=object),
                 "n_part": pd.Series(dtype=np.int64)}
            )
        return pd.DataFrame(
            {"token": list(rec),
             "n_part": np.array(list(rec.values()), np.int64)}
        )

    topk = (
        _with_coarse_group(
            d.map_batches(tok_counts, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(
            lambda g: g.drop(columns=["_g"])
            .groupby("token", as_index=False)["n_part"]
            .sum(),
            batch_format="pandas",
        )
        .sort(["n_part", "token"], descending=[True, False])
        .limit(k)
        .to_pandas()  # exactly <= K rows by construction
    )
    if topk.empty:
        return empty
    vocab_ref = ray.put(frozenset(topk["token"].tolist()))

    def pos_partial(df: pd.DataFrame) -> pd.DataFrame:
        vocab = ray.get(vocab_ref)
        rec: dict[str, list] = {}
        for t in df["text"]:
            toks = tok_re.findall(str(t).lower())
            if len(toks) < 2:
                continue
            span = len(toks) - 1
            for i, tok in enumerate(toks):
                if tok in vocab:
                    r = rec.setdefault(tok, [0, 0])
                    r[0] += i * 1_000_000 // span
                    r[1] += 1
        if not rec:
            return pd.DataFrame(
                {
                    "token": pd.Series(dtype=object),
                    "s_part": pd.Series(dtype=np.int64),
                    "n_part": pd.Series(dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "token": list(rec),
                "s_part": np.array([v[0] for v in rec.values()], np.int64),
                "n_part": np.array([v[1] for v in rec.values()], np.int64),
            }
        )

    c = (
        d.map_batches(pos_partial, batch_format="pandas")
        .groupby("token")
        .aggregate(
            Sum("s_part", alias_name="s"),
            Sum("n_part", alias_name="n_occ"),
        )
        .to_pandas()  # <= K rows
    )
    if not len(c):
        return empty
    c["n_occ"] = c["n_occ"].astype(np.int64)
    c["mean_pos_ppm"] = (
        c["s"].astype(object) // c["n_occ"].astype(object)
    ).astype(np.int64)
    return (
        c[["token", "n_occ", "mean_pos_ppm"]]
        .sort_values("token")
        .reset_index(drop=True)
    )


TOKEN_POSITION_BIAS_SQL = rf"""
WITH w AS (
  SELECT regexp_extract_all(lower(text), '{_TPB_TOKEN_RE}') AS ws
  FROM documents),
alltok AS (
  SELECT unnest(ws) AS token FROM w),
topk AS (
  SELECT token FROM (SELECT token, COUNT(*) AS n FROM alltok GROUP BY 1)
  ORDER BY n DESC, token ASC LIMIT {TPB_K}),
pos AS (
  SELECT unnest(list_transform(range(1, len(ws) + 1), i -> ws[i])) AS token,
         unnest(list_transform(range(1, len(ws) + 1),
                i -> CAST((i - 1) * 1000000 // (len(ws) - 1) AS BIGINT)))
             AS pos_ppm
  FROM w WHERE len(ws) >= 2)
SELECT pos.token,
       CAST(COUNT(*) AS BIGINT) AS n_occ,
       CAST(SUM(pos.pos_ppm) // COUNT(*) AS BIGINT) AS mean_pos_ppm
FROM pos JOIN topk USING (token)
GROUP BY pos.token
"""


# ========================================= length_tolerance_interval
#
# Distribution-free central tolerance interval (Wilks 1941): the
# lengths at ranks floor(n·α/2)+1 and n − floor(n·α/2) (α = 10%) bound
# the central ~90% of the corpus with no distributional assumption —
# the robust clip range a length filter uses instead of mean ± kσ.
#
# Scale shape: value-domain histogram partials → one bounded groupby
# → exact rank walk on the driver.

TOL_ALPHA_BP = 1000  # 10% total, 5% per tail


def q_length_tolerance_interval(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["n_chars"])
    empty = pd.DataFrame(
        {
            "n_docs": [0],
            "lo_rank": [0],
            "hi_rank": [0],
            "lo_value": [0],
            "hi_value": [0],
        }
    ).astype(np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"v": pd.Series(dtype=np.int64),
                 "c_part": pd.Series(dtype=np.int64)}
            )
        v = df["n_chars"].to_numpy(np.int64)
        out = (
            pd.DataFrame({"v": v})
            .groupby("v", as_index=False)
            .size()
            .rename(columns={"size": "c_part"})
        )
        return out.astype(np.int64)

    h = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("v")
        .aggregate(Sum("c_part", alias_name="c"))
        .to_pandas()  # value-domain bounded
    )
    if not len(h):
        return empty
    h = h.astype(np.int64).sort_values("v").reset_index(drop=True)
    n = int(h["c"].sum())
    tail = n * TOL_ALPHA_BP // 2 // 10000
    lo_rank, hi_rank = tail + 1, n - tail
    lo_v = hi_v = None
    cum = 0
    for v, c in zip(h["v"].tolist(), h["c"].tolist()):
        if lo_v is None and cum + c >= lo_rank:
            lo_v = v
        if hi_v is None and cum + c >= hi_rank:
            hi_v = v
        cum += c
    return pd.DataFrame(
        {
            "n_docs": [n],
            "lo_rank": [lo_rank],
            "hi_rank": [hi_rank],
            "lo_value": [lo_v],
            "hi_value": [hi_v],
        }
    ).astype(np.int64)


LENGTH_TOLERANCE_INTERVAL_SQL = f"""
WITH ranked AS (
  SELECT n_chars AS v,
         ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS r
  FROM documents),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
bounds AS (
  SELECT n,
         CAST(n * {TOL_ALPHA_BP} // 2 // 10000 + 1 AS BIGINT) AS lo_rank,
         CAST(n - n * {TOL_ALPHA_BP} // 2 // 10000 AS BIGINT) AS hi_rank
  FROM tot)
SELECT b.n AS n_docs, b.lo_rank, b.hi_rank,
       CAST((SELECT v FROM ranked WHERE r = b.lo_rank) AS BIGINT) AS lo_value,
       CAST((SELECT v FROM ranked WHERE r = b.hi_rank) AS BIGINT) AS hi_value
FROM bounds b
"""


IRAUDIT_SQL_QUERIES: dict[str, tuple] = {
    "prf_expand": (q_prf_expand, _prf_sql()),
    "token_position_bias": (q_token_position_bias, TOKEN_POSITION_BIAS_SQL),
    "length_tolerance_interval": (
        q_length_tolerance_interval,
        LENGTH_TOLERANCE_INTERVAL_SQL,
    ),
}
