"""Data-validation and curation-mix operators.

A crawl corpus feeding a training pipeline needs mixture control
(temperature-scaled language sampling, NLLB / mT5-style), readability
scoring, and the evaluation metrics (KS drift, NDCG, MRR / MAP, ROC-AUC)
and embedding-outlier audit of the curation loop.

Reference parity: the reference's quality gates are the downloader's
status/content checks (europarl-crawler downloader/postprocessor); the
rest are training-data additions (temperature sampling: Arivazhagan et
al. 2019 §3; Flesch 1948). All oracled exactly:
every score is either pure integer arithmetic or a single
correctly-rounded division of exact integers, so DuckDB and numpy
agree bit-for-bit (repo convention, see queries.q_pagerank's
scaled-integer note).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .._util import read_table as _read
from ..functions.dedup import md5_hash64
from .grouping import global_prune, with_coarse_group as _with_coarse_group


def _cents(values: np.ndarray) -> np.ndarray:
    """floor(v*100 + 0.5) — the repo's exact-cents rule (identical IEEE
    arithmetic in numpy and DuckDB)."""
    return np.floor(values * 100.0 + 0.5).astype(np.int64)


# ================================================= temperature_mix
#
# Temperature-scaled language mixture (alpha = 0.5 via sqrt — sqrt is
# IEEE-correctly-rounded everywhere, so the integer weights agree
# bit-for-bit with the SQL oracle; a libm pow() would not). Target
# counts by integer largest-remainder apportionment; the per-language
# sample is the md5-smallest doc_ids (deterministic, retry-safe). A
# language with fewer docs than its target is capped at its size — no
# recursive redistribution (both sides agree, documented).

MIX_TOTAL_CAP = 1000


def _mix_targets(lang_counts: dict[str, int], total: int) -> dict[str, int]:
    """Integer largest-remainder apportionment of ``total`` over
    sqrt-scaled language weights (exact int arithmetic end to end)."""
    langs = sorted(lang_counts)
    import math

    w = {l: int(math.floor(math.sqrt(lang_counts[l]) * 1048576.0)) for l in langs}
    W = sum(w.values())
    if W == 0:
        return {l: 0 for l in langs}
    base = {l: (total * w[l]) // W for l in langs}
    rem = {l: (total * w[l]) % W for l in langs}
    leftover = total - sum(base.values())
    for l in sorted(langs, key=lambda l: (-rem[l], l))[:leftover]:
        base[l] += 1
    return base


def q_temperature_mix(sf_dir: str):
    """Per-block per-language md5-smallest prune → global_prune combine
    → O(total) driver rows; counts come from a 5-group native groupby
    (small fixed dim — the one case Ray-native aggregate is right).

    Scale shape: the language histogram is a metadata-sized reduce; the
    sample prune ships at most ``target`` rows per block."""
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    total = min(MIX_TOTAL_CAP, n_docs)
    d = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    if n_docs == 0:
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64), "lang": pd.Series([], dtype=str)}
        )
    cdf = d.groupby("lang").count().to_pandas()
    targets = _mix_targets(dict(zip(cdf["lang"], cdf["count()"].astype(int))), total)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        ids = df["doc_id"].to_numpy().astype(np.int64)
        if "hv" not in df.columns:
            df = df.assign(hv=md5_hash64([f"tmix:{int(i)}" for i in ids]))
        parts = []
        for lang, g in df.groupby("lang", sort=True):
            k = targets.get(lang, 0)
            if k:
                parts.append(g.nsmallest(k, ["hv", "doc_id"]))
        if not parts:
            return df.iloc[:0]
        return pd.concat(parts, ignore_index=True)

    out = global_prune(d, prune)
    out = out.drop(columns=["hv"], errors="ignore")
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.reset_index(drop=True)


TEMPERATURE_MIX_SQL = f"""
WITH c AS (SELECT lang, COUNT(*) AS c FROM documents GROUP BY 1),
t AS (SELECT LEAST({MIX_TOTAL_CAP}, (SELECT COUNT(*) FROM documents)) AS total),
w AS (SELECT lang, CAST(floor(sqrt(CAST(c AS DOUBLE)) * 1048576.0) AS BIGINT) AS wl FROM c),
tot AS (SELECT SUM(wl) AS W FROM w),
alloc AS (
  SELECT lang, (t.total * wl) // tot.W AS base, (t.total * wl) % tot.W AS rem
  FROM w, tot, t),
lo AS (SELECT (SELECT total FROM t) - SUM(base) AS leftover FROM alloc),
tgt AS (
  SELECT lang, base + CASE WHEN ROW_NUMBER() OVER (ORDER BY rem DESC, lang ASC)
                                <= (SELECT leftover FROM lo) THEN 1 ELSE 0 END AS target
  FROM alloc),
r AS (
  SELECT doc_id, lang,
         ROW_NUMBER() OVER (PARTITION BY lang
           ORDER BY CAST(concat('0x', substr(md5('tmix:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT),
                    doc_id) AS rn
  FROM documents)
SELECT r.doc_id, r.lang FROM r JOIN tgt USING (lang) WHERE rn <= target
"""


# ================================================= readability
#
# Flesch reading-ease in milli-units from integer token counts: words
# (the repo's [^ \t\n\r\f]+ class — NOT .split(), see token_stats),
# vowel-group syllables, sentence count (min 1). Pure integer floor
# arithmetic — exact against SQL.


def q_readability(sf_dir: str):
    """Pure map_batches — no shuffle, no state; counts via vectorized
    pandas .str.count over compiled regexes."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        words = t.str.count(r"[^ \t\n\r\f]+").to_numpy().astype(np.int64)
        syll = t.str.count(r"[aeiouy]+").to_numpy().astype(np.int64)
        sents = np.maximum(t.str.count(r"\.").to_numpy().astype(np.int64), 1)
        flesch = 206835 - (1015 * words) // sents - (84600 * syll) // np.maximum(words, 1)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "n_words": words,
                "n_syllables": syll,
                "n_sentences": sents,
                "flesch_milli": flesch.astype(np.int64),
            }
        )

    return d.map_batches(score, batch_format="pandas")


READABILITY_SQL = r"""
WITH c AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[^ \t\n\r\f]+')) AS BIGINT) AS n_words,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[aeiouy]+')) AS BIGINT) AS n_syllables,
         GREATEST(CAST(len(regexp_extract_all(coalesce(text, ''), '\.')) AS BIGINT), 1) AS n_sentences
  FROM documents)
SELECT doc_id, n_words, n_syllables, n_sentences,
       CAST(206835 - (1015 * n_words) // n_sentences
                   - (84600 * n_syllables) // GREATEST(n_words, 1) AS BIGINT) AS flesch_milli
FROM c
"""


# ========================================================== ks_drift
#
# Two-sample Kolmogorov-Smirnov distance between the value
# distributions of two event types — the distribution-drift monitor a
# pipeline runs between crawl snapshots before trusting a quality
# model trained on the old one. Exact rational arithmetic: with cents
# c, D = max_t |F_a(t)·n_b − F_b(t)·n_a| / (n_a·n_b), the numerator an
# integer maximized over observed values only (where the sup of a step
# function difference lives).
#
# Scale shape: per-batch (cents, side) histogram partials → ONE coarse
# exchange on cents → value-domain-bounded driver reduce (the
# rank_normalize boundedness argument), then an O(distinct values)
# cumsum-max on the driver.

KS_SIDE_A = "click"
KS_SIDE_B = "purchase"


def q_ks_drift(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin([KS_SIDE_A, KS_SIDE_B])]
        if not len(df):
            return pd.DataFrame(
                {
                    "c": pd.Series(dtype=np.int64),
                    "part_a": pd.Series(dtype=np.int64),
                    "part_b": pd.Series(dtype=np.int64),
                }
            )
        c = _cents(df["value"].to_numpy())
        a = (df["event_type"] == KS_SIDE_A).to_numpy().astype(np.int64)
        out = pd.DataFrame({"c": c, "part_a": a, "part_b": 1 - a})
        return out.groupby("c", as_index=False)[["part_a", "part_b"]].sum()

    parts = ev.map_batches(hist, batch_format="pandas")
    h = (
        _with_coarse_group(parts, "c")
        .groupby("_g")
        .map_groups(
            lambda g: g.groupby("c", as_index=False)[["part_a", "part_b"]].sum(),
            batch_format="pandas",
        )
        .to_pandas()  # value-domain-bounded
    )
    cols = ["n_a", "n_b", "d_num", "d_bp"]
    if h.empty or "c" not in h.columns:
        return pd.DataFrame({k: pd.Series(dtype="int64") for k in cols})
    h = h.sort_values("c").reset_index(drop=True)
    fa = h["part_a"].to_numpy(np.int64).cumsum()
    fb = h["part_b"].to_numpy(np.int64).cumsum()
    n_a, n_b = int(fa[-1]), int(fb[-1])
    d_num = int(np.abs(fa * n_b - fb * n_a).max()) if n_a and n_b else 0
    d_bp = d_num * 10000 // (n_a * n_b) if n_a and n_b else -1
    return pd.DataFrame(
        {"n_a": [n_a], "n_b": [n_b], "d_num": [d_num], "d_bp": [d_bp]}
    ).astype("int64")


KS_DRIFT_SQL = f"""
WITH v AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS c,
         CASE WHEN event_type = '{KS_SIDE_A}' THEN 1 ELSE 0 END AS a
  FROM events WHERE event_type IN ('{KS_SIDE_A}', '{KS_SIDE_B}')),
h AS (SELECT c, SUM(a) AS ca, SUM(1 - a) AS cb FROM v GROUP BY 1),
cum AS (
  SELECT c, SUM(ca) OVER (ORDER BY c) AS fa, SUM(cb) OVER (ORDER BY c) AS fb
  FROM h),
tot AS (SELECT SUM(ca) AS na, SUM(cb) AS nb FROM h)
SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
       CAST(MAX(ABS(fa * nb - fb * na)) AS BIGINT) AS d_num,
       CAST(CASE WHEN na = 0 OR nb = 0 THEN -1
            ELSE MAX(ABS(fa * nb - fb * na)) * 10000 // (na * nb)
            END AS BIGINT) AS d_bp
FROM cum, tot GROUP BY na, nb
"""


# ========================================================= ndcg_eval
#
# NDCG@10 retrieval evaluation: 8 md5-chosen query vectors, candidates
# ranked by the integer-quantized dot product (the auc_eval coordinate
# rule), md5-derived relevance grades 0-3 per (query, candidate), gain
# 2^rel − 1, and rank discounts 1/log2(i+1) inlined as the SAME
# round(1e9/log2(i+1)) integer literals on both engines (no libm call
# on either side). ndcg_bp = 10000·DCG // IDCG, all
# integer.
#
# Scale shape: queries broadcast (global_prune, 8 rows); scoring is one
# matvec per batch; per-batch top-10 per query → bounded exchange →
# final top-10 (a valid prune — scores are per-row final); IDCG needs
# only the per-(query, grade) COUNTS — a 8×4-bounded aggregation.

NDCG_Q = 8
NDCG_K = 10
# round(1e9 / log2(i+1)) for ranks i = 1..10, precomputed constants so
# neither engine touches libm at query time
NDCG_DISC = [
    1000000000, 630929754, 500000000, 430676558, 386852807,
    356207187, 333333333, 315464877, 301029996, 289064826,
]


def _ndcg_rel(qid: np.ndarray, did: np.ndarray) -> np.ndarray:
    import hashlib

    return np.fromiter(
        (
            int(
                hashlib.md5(f"rel:{int(q)}:{int(d)}".encode()).hexdigest()[:16],
                16,
            )
            % 4
            for q, d in zip(qid, did)
        ),
        dtype=np.int64,
        count=len(qid),
    )


def q_ndcg_eval(sf_dir: str):
    import hashlib

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def prune_q(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "vec_id" not in df.columns:
            return df
        md5s = np.array(
            [hashlib.md5(f"nq:{int(v)}".encode()).hexdigest() for v in df["vec_id"]]
        )
        keep = np.argsort(md5s)[:NDCG_Q]
        return df.iloc[np.sort(keep)]

    qdf = global_prune(emb, prune_q)
    cols = ["query_id", "n_cands", "dcg", "idcg", "ndcg_bp"]
    if qdf.empty or "vec_id" not in qdf.columns:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    md5s = np.array(
        [hashlib.md5(f"nq:{int(v)}".encode()).hexdigest() for v in qdf["vec_id"]]
    )
    qdf = qdf.iloc[np.argsort(md5s)[:NDCG_Q]].sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = np.floor(
        np.stack(qdf["embedding"].to_numpy()).astype(np.float64) * 1000.0
    ).astype(np.int64)

    def score_rows(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "q": pd.Series(dtype=np.int64),
                    "d": pd.Series(dtype=np.int64),
                    "s": pd.Series(dtype=np.int64),
                    "rel": pd.Series(dtype=np.int64),
                }
            )
        ids = df["vec_id"].to_numpy(np.int64)
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        s = mat @ qmat.T  # (n, Q) integer scores
        out = []
        for j, q in enumerate(qids):
            keep = ids != q  # a query never ranks itself
            dd = ids[keep]
            sc = s[keep, j]
            # per-batch top-k prune by (score DESC, vec_id ASC)
            order = np.lexsort((dd, -sc))[:NDCG_K]
            out.append(
                pd.DataFrame(
                    {
                        "q": np.full(order.size, q, np.int64),
                        "d": dd[order],
                        "s": sc[order],
                        "rel": _ndcg_rel(np.full(order.size, q), dd[order]),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    topk = emb.map_batches(score_rows, batch_format="pandas")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["s", "d"], ascending=[False, True]).head(NDCG_K)
        g = g.reset_index(drop=True)
        disc = np.array(NDCG_DISC[: len(g)], np.int64)
        gain = (2 ** g["rel"].to_numpy(np.int64)) - 1
        return pd.DataFrame(
            {"q": [int(g["q"].iloc[0])], "dcg": [int((gain * disc).sum())]}
        )

    dcg_df = (
        topk.groupby("q").map_groups(final_topk, batch_format="pandas")
    ).to_pandas()  # ≤ NDCG_Q rows

    # IDCG from per-(q, rel) candidate counts — an 8×4-bounded reduce
    def rel_counts(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "q": pd.Series(dtype=np.int64),
                    "rel": pd.Series(dtype=np.int64),
                    "part_n": pd.Series(dtype=np.int64),
                }
            )
        ids = df["vec_id"].to_numpy(np.int64)
        out = []
        for q in qids:
            dd = ids[ids != q]
            rel = _ndcg_rel(np.full(dd.size, q), dd)
            u, c = np.unique(rel, return_counts=True)
            out.append(
                pd.DataFrame(
                    {
                        "q": np.full(u.size, q, np.int64),
                        "rel": u.astype(np.int64),
                        "part_n": c.astype(np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    rc = (
        emb.map_batches(rel_counts, batch_format="pandas")
        .groupby(["q", "rel"])
        .sum("part_n")
        .to_pandas()  # ≤ 8×4 rows
    )
    rc = rc.rename(columns={"sum(part_n)": "n"})
    rows = []
    for q in qids:
        sub = rc[rc["q"] == q]
        n_cands = int(sub["n"].sum())
        # ideal ranking: grades descending, take the first NDCG_K
        grades = []
        for r in (3, 2, 1, 0):
            cnt = int(sub.loc[sub["rel"] == r, "n"].sum())
            grades.extend([r] * min(cnt, NDCG_K - len(grades)))
            if len(grades) >= NDCG_K:
                break
        disc = np.array(NDCG_DISC[: len(grades)], np.int64)
        gain = (2 ** np.array(grades, np.int64)) - 1
        idcg = int((gain * disc).sum())
        dcg = int(dcg_df.loc[dcg_df["q"] == q, "dcg"].sum())
        rows.append(
            (int(q), n_cands, dcg, idcg, dcg * 10000 // idcg if idcg else -1)
        )
    return pd.DataFrame(rows, columns=cols).astype("int64")


def _ndcg_sql() -> str:
    disc_cases = " ".join(
        f"WHEN {i + 1} THEN {d}" for i, d in enumerate(NDCG_DISC)
    )
    return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
qs AS (SELECT vec_id AS qid, q AS qv FROM e
       ORDER BY md5('nq:' || CAST(vec_id AS VARCHAR)) LIMIT {NDCG_Q}),
scored AS (
  SELECT qs.qid, e.vec_id AS did,
         list_inner_product(qs.qv, e.q) AS s,
         CAST(CAST(concat('0x', substr(md5('rel:' || CAST(qs.qid AS VARCHAR)
              || ':' || CAST(e.vec_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4
              AS BIGINT) AS rel
  FROM qs JOIN e ON e.vec_id <> qs.qid),
rk AS (
  SELECT qid, rel,
         ROW_NUMBER() OVER (PARTITION BY qid ORDER BY s DESC, did ASC) AS rn
  FROM scored),
dcg AS (
  SELECT qid, SUM((POWER(2, rel) - 1) * CASE rn {disc_cases} END) AS dcg
  FROM rk WHERE rn <= {NDCG_K} GROUP BY 1),
irk AS (
  SELECT qid, rel,
         ROW_NUMBER() OVER (PARTITION BY qid ORDER BY rel DESC, did ASC) AS rn
  FROM scored),
idcg AS (
  SELECT qid, SUM((POWER(2, rel) - 1) * CASE rn {disc_cases} END) AS idcg,
         (SELECT COUNT(*) FROM scored s2 WHERE s2.qid = irk.qid) AS n_cands
  FROM irk WHERE rn <= {NDCG_K} GROUP BY qid),
j AS (SELECT dcg.qid, idcg.n_cands, dcg.dcg, idcg.idcg
      FROM dcg JOIN idcg USING (qid))
SELECT CAST(qid AS BIGINT) AS query_id,
       CAST(n_cands AS BIGINT) AS n_cands,
       CAST(dcg AS BIGINT) AS dcg,
       CAST(idcg AS BIGINT) AS idcg,
       CAST(CASE WHEN idcg = 0 THEN -1
            ELSE CAST(dcg AS BIGINT) * 10000 // CAST(idcg AS BIGINT)
            END AS BIGINT) AS ndcg_bp
FROM j
"""


# ====================================================== mrr / map eval
#
# Reciprocal-rank and average-precision@K over the same integer
# retrieval setup ndcg_eval grades (NDCG_Q md5-picked queries,
# floor(1000x) integer dot scores, md5-derived rel grades; relevant =
# grade > 0) — the other two standard retrieval metrics an
# embedding-quality report carries beside nDCG. All arithmetic is
# integer so the DuckDB oracle is bit-exact: rr_bp = 10000 //
# first_rel_rank, and each AP precision term is (1e6 * cum_rel) // rank
# summed over relevant top-K positions, normalized by min(R, K).
#
# Scale shape: one per-batch (integer matmul, top-K prune) map over the
# corpus -> a Q-bounded groupby for the global top-K -> a Q-bounded
# reduce for total-relevant counts. Driver sees <= Q rows.

RANK_EVAL_K = NDCG_K


def _rank_eval_metrics(sf_dir: str) -> pd.DataFrame:
    import hashlib

    cols = ["query_id", "first_rel_rank", "rr_bp", "n_rel", "ap_num", "ap_bp"]
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def prune_q(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "vec_id" not in df.columns:
            return df
        md5s = np.array(
            [hashlib.md5(f"nq:{int(v)}".encode()).hexdigest() for v in df["vec_id"]]
        )
        keep = np.argsort(md5s)[:NDCG_Q]
        return df.iloc[np.sort(keep)]

    qdf = global_prune(emb, prune_q)
    if qdf.empty or "vec_id" not in qdf.columns:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    md5s = np.array(
        [hashlib.md5(f"nq:{int(v)}".encode()).hexdigest() for v in qdf["vec_id"]]
    )
    qdf = qdf.iloc[np.argsort(md5s)[:NDCG_Q]].sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = np.floor(
        np.stack(qdf["embedding"].to_numpy()).astype(np.float64) * 1000.0
    ).astype(np.int64)

    def score_rows(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "q": pd.Series(dtype=np.int64),
                    "d": pd.Series(dtype=np.int64),
                    "s": pd.Series(dtype=np.int64),
                    "rel": pd.Series(dtype=np.int64),
                }
            )
        ids = df["vec_id"].to_numpy(np.int64)
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        s = mat @ qmat.T
        out = []
        for j, q in enumerate(qids):
            keep = ids != q
            dd = ids[keep]
            sc = s[keep, j]
            order = np.lexsort((dd, -sc))[:RANK_EVAL_K]
            out.append(
                pd.DataFrame(
                    {
                        "q": np.full(order.size, q, np.int64),
                        "d": dd[order],
                        "s": sc[order],
                        "rel": _ndcg_rel(np.full(order.size, q), dd[order]),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    topk = emb.map_batches(score_rows, batch_format="pandas")

    def final_metrics(g: pd.DataFrame) -> pd.DataFrame:
        g = (
            g.sort_values(["s", "d"], ascending=[False, True])
            .head(RANK_EVAL_K)
            .reset_index(drop=True)
        )
        rel = g["rel"].to_numpy(np.int64) > 0
        pos = np.nonzero(rel)[0]
        if pos.size:
            fr = int(pos[0]) + 1
            cum = np.cumsum(rel.astype(np.int64))
            ap_num = int(((1000000 * cum[pos]) // (pos + 1)).sum())
        else:
            fr, ap_num = 0, 0
        return pd.DataFrame(
            {"q": [int(g["q"].iloc[0])], "first_rel_rank": [fr], "ap_num": [ap_num]}
        )

    met = (
        topk.groupby("q").map_groups(final_metrics, batch_format="pandas")
    ).to_pandas()  # <= NDCG_Q rows

    def nrel_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"q": pd.Series(dtype=np.int64), "part_n": pd.Series(dtype=np.int64)}
            )
        ids = df["vec_id"].to_numpy(np.int64)
        rows = []
        for q in qids:
            dd = ids[ids != q]
            rel = _ndcg_rel(np.full(dd.size, q), dd)
            rows.append((int(q), int((rel > 0).sum())))
        return pd.DataFrame(rows, columns=["q", "part_n"])

    rc = (
        emb.map_batches(nrel_partial, batch_format="pandas")
        .groupby("q")
        .sum("part_n")
        .to_pandas()  # <= NDCG_Q rows
    ).rename(columns={"sum(part_n)": "n_rel"})
    out = met.merge(rc, on="q", how="left")
    out["n_rel"] = out["n_rel"].fillna(0).astype(np.int64)
    fr = out["first_rel_rank"].to_numpy(np.int64)
    out["rr_bp"] = np.where(fr > 0, 10000 // np.maximum(fr, 1), 0)
    denom = 100 * np.maximum(np.minimum(out["n_rel"].to_numpy(np.int64), RANK_EVAL_K), 1)
    out["ap_bp"] = out["ap_num"].to_numpy(np.int64) // denom
    out = out.rename(columns={"q": "query_id"}).sort_values("query_id")
    return out[cols].astype("int64").reset_index(drop=True)


def q_mrr_eval(sf_dir: str):
    """Per-query MRR@K (K=RANK_EVAL_K): (query_id, first_rel_rank,
    rr_bp). rr_bp is 10000 // rank of the first relevant candidate in
    the integer-scored top-K, 0 when none — integer-exact vs the
    window-function oracle."""
    m = _rank_eval_metrics(sf_dir)
    return m[["query_id", "first_rel_rank", "rr_bp"]]


def q_map_eval(sf_dir: str):
    """Per-query AP@K (K=RANK_EVAL_K): (query_id, n_rel, ap_num,
    ap_bp). ap_num sums (1e6 * cum_rel) // rank over relevant top-K
    positions; ap_bp divides by 100 * min(n_rel, K) — trec-style AP@K,
    all integer."""
    m = _rank_eval_metrics(sf_dir)
    return m[["query_id", "n_rel", "ap_num", "ap_bp"]]


def _rank_scored_cte() -> str:
    """Shared e/qs/scored/rk CTE prefix (ndcg_eval's integer setup)."""
    return f"""
WITH e AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
qs AS (SELECT vec_id AS qid, q AS qv FROM e
       ORDER BY md5('nq:' || CAST(vec_id AS VARCHAR)) LIMIT {NDCG_Q}),
scored AS (
  SELECT qs.qid, e.vec_id AS did,
         list_inner_product(qs.qv, e.q) AS s,
         CAST(CAST(concat('0x', substr(md5('rel:' || CAST(qs.qid AS VARCHAR)
              || ':' || CAST(e.vec_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4
              AS BIGINT) AS rel
  FROM qs JOIN e ON e.vec_id <> qs.qid),
rk AS (
  SELECT qid, did, rel,
         ROW_NUMBER() OVER (PARTITION BY qid ORDER BY s DESC, did ASC) AS rn
  FROM scored)"""


MRR_EVAL_SQL = (
    _rank_scored_cte()
    + f""",
fr AS (SELECT qid, CAST(MIN(rn) AS BIGINT) AS fr
       FROM rk WHERE rn <= {RANK_EVAL_K} AND rel > 0 GROUP BY 1)
SELECT CAST(qs.qid AS BIGINT) AS query_id,
       COALESCE(fr.fr, 0) AS first_rel_rank,
       CASE WHEN fr.fr IS NULL THEN CAST(0 AS BIGINT)
            ELSE CAST(10000 AS BIGINT) // fr.fr END AS rr_bp
FROM qs LEFT JOIN fr ON fr.qid = qs.qid
"""
)

MAP_EVAL_SQL = (
    _rank_scored_cte()
    + f""",
ck AS (
  SELECT qid, rel, rn,
         SUM(CASE WHEN rel > 0 THEN 1 ELSE 0 END)
             OVER (PARTITION BY qid ORDER BY rn) AS cum
  FROM rk),
ap AS (SELECT qid, CAST(SUM((1000000 * cum) // rn) AS BIGINT) AS ap_num
       FROM ck WHERE rn <= {RANK_EVAL_K} AND rel > 0 GROUP BY 1),
nr AS (SELECT qid, CAST(SUM(CASE WHEN rel > 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_rel
       FROM scored GROUP BY 1)
SELECT CAST(qs.qid AS BIGINT) AS query_id,
       COALESCE(nr.n_rel, 0) AS n_rel,
       COALESCE(ap.ap_num, 0) AS ap_num,
       COALESCE(ap.ap_num, 0)
           // (100 * GREATEST(LEAST(COALESCE(nr.n_rel, 0),
                                    {RANK_EVAL_K}), 1)) AS ap_bp
FROM qs
LEFT JOIN nr ON nr.qid = qs.qid
LEFT JOIN ap ON ap.qid = qs.qid
"""
)


# ========================================================== auc_eval
#
# Exact ROC-AUC of an integer linear scorer against the embedding
# labels (positive = label 0) via the Mann-Whitney rank-sum identity
# with midrank tie handling — the classifier-evaluation primitive a
# quality-filter pipeline runs after training. Everything is integer:
# coordinates quantize to floor(1000·x) (double-cast on both engines,
# so the floor is IEEE-identical), weights are md5-derived in [-8, 8],
# and AUC uses 2·midrank = 2·RANK + ties − 1 so no halves appear.
#
# Scale shape: scores are a per-batch matvec; the rank statistic needs
# only the (score, n_pos, n_neg) HISTOGRAM — per-batch partials → one
# coarse exchange on score → distinct-score-bounded driver reduce (the
# rank_normalize boundedness argument; scores take ≤ |corpus| values
# but collapse heavily under quantization).

AUC_DIM = 64
AUC_POS_LABEL = 0


def _auc_weights() -> np.ndarray:
    import hashlib

    return np.array(
        [
            int(hashlib.md5(f"auc:{i}".encode()).hexdigest()[:16], 16) % 17 - 8
            for i in range(1, AUC_DIM + 1)
        ],
        dtype=np.int64,
    )


def q_auc_eval(sf_dir: str):
    emb = _read(sf_dir, "embeddings", columns=["embedding", "label"])
    w = _auc_weights()

    def score_hist(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "s": pd.Series(dtype=np.int64),
                    "part_pos": pd.Series(dtype=np.int64),
                    "part_neg": pd.Series(dtype=np.int64),
                }
            )
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(mat * 1000.0).astype(np.int64)
        s = q @ w
        pos = (df["label"].to_numpy(np.int64) == AUC_POS_LABEL).astype(np.int64)
        out = pd.DataFrame({"s": s, "part_pos": pos, "part_neg": 1 - pos})
        return out.groupby("s", as_index=False)[["part_pos", "part_neg"]].sum()

    parts = emb.map_batches(score_hist, batch_format="pandas")

    def reduce_hist(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("s", as_index=False)[["part_pos", "part_neg"]].sum()

    hist = (
        _with_coarse_group(parts, "s")
        .groupby("_g")
        .map_groups(lambda g: reduce_hist(g.drop(columns=["_g"])),
                    batch_format="pandas")
        .to_pandas()  # distinct-score-bounded (see header note)
    )
    cols = ["n_pos", "n_neg", "auc_bp"]
    if hist.empty or "s" not in hist.columns:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    hist = hist.sort_values("s").reset_index(drop=True)
    c_pos = hist["part_pos"].to_numpy(np.int64)
    c_neg = hist["part_neg"].to_numpy(np.int64)
    c = c_pos + c_neg
    # min rank of each score value = 1 + #items strictly below
    below = np.concatenate(([0], np.cumsum(c)[:-1]))
    rk = below + 1
    sum2mid = int((c_pos * (2 * rk + c - 1)).sum())
    n_pos, n_neg = int(c_pos.sum()), int(c_neg.sum())
    if n_pos == 0 or n_neg == 0:
        auc_bp = -1
    else:
        auc_bp = (sum2mid - n_pos * (n_pos + 1)) * 10000 // (2 * n_pos * n_neg)
    return pd.DataFrame(
        {"n_pos": [n_pos], "n_neg": [n_neg], "auc_bp": [auc_bp]}
    ).astype("int64")


AUC_EVAL_SQL = f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e,
         CASE WHEN label = {AUC_POS_LABEL} THEN 1 ELSE 0 END AS pos
  FROM embeddings),
w AS (
  SELECT i,
         CAST(CAST(concat('0x', substr(md5('auc:' || CAST(i AS VARCHAR)),
              1, 16)) AS UBIGINT) % 17 AS BIGINT) - 8 AS wt
  FROM (SELECT unnest(range(1, {AUC_DIM} + 1)) AS i)),
q AS (
  SELECT e.vec_id, MAX(e.pos) AS pos,
         SUM(CAST(floor(e.e[w.i] * 1000) AS BIGINT) * w.wt) AS s
  FROM e, w GROUP BY e.vec_id),
r AS (SELECT pos, RANK() OVER (ORDER BY s) AS rk,
             COUNT(*) OVER (PARTITION BY s) AS c
      FROM q),
u AS (SELECT SUM(CASE WHEN pos = 1 THEN 2 * rk + c - 1 ELSE 0 END) AS sum2mid,
             SUM(pos) AS np, SUM(1 - pos) AS nn
      FROM r)
SELECT CAST(np AS BIGINT) AS n_pos, CAST(nn AS BIGINT) AS n_neg,
       CAST(CASE WHEN np = 0 OR nn = 0 THEN -1
            ELSE (sum2mid - np * (np + 1)) * 10000 // (2 * np * nn)
            END AS BIGINT) AS auc_bp
FROM u WHERE np IS NOT NULL
"""


# =================================================== embedding_outliers
#
# The OUTLIER_TOPK vectors farthest from the corpus mean embedding —
# the anomaly shortlist (mislabeled modality, corrupt encode, off-
# distribution content) an embedding QA pass surfaces for human review.
# Exact integer arithmetic at n²-scale: with s1_d = Σ_i q_id and n the
# corpus count, dist_n2 = Σ_d (n·q_id − s1_d)² = n²·‖q_i − mean‖², so
# no division ever happens and both engines rank identical integers
# (ties → smaller vec_id).
#
# Scale shape: pass 1 is a D-row partial (n, s1 per dim) →
# global_prune; pass 2 broadcasts the D-vector s1 and computes
# dist_n2 per batch (one vectorized matvec), then top-K via
# global_prune — O(K) driver rows, NO shuffle.

OUTLIER_TOPK = 20


def q_embedding_outliers(sf_dir: str):
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cols = ["vec_id", "dist_n2"]

    def mom_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ("dim", "n", "s1")}
            )
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "dim": np.arange(1, mat.shape[1] + 1, dtype=np.int64),
                "n": np.full(mat.shape[1], mat.shape[0], np.int64),
                "s1": mat.sum(axis=0),
            }
        )

    def mom_combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "dim" not in df.columns:
            return df
        return df.groupby("dim", as_index=False)[["n", "s1"]].sum()

    m = global_prune(emb.map_batches(mom_partial, batch_format="pandas"),
                     mom_combine)
    if not len(m) or "dim" not in m.columns:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    m = m.sort_values("dim")
    n = int(m["n"].iloc[0])
    s1 = m["s1"].to_numpy(np.int64)

    def dist(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        diff = n * mat - s1[None, :]
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(np.int64),
                "dist_n2": (diff * diff).sum(axis=1),
            }
        )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "dist_n2" not in df.columns:
            return df
        return df.sort_values(
            ["dist_n2", "vec_id"], ascending=[False, True]
        ).head(OUTLIER_TOPK)

    return global_prune(
        emb.map_batches(dist, batch_format="pandas"), topk
    ).reset_index(drop=True)


EMBEDDING_OUTLIERS_SQL = f"""
WITH e AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
idx AS (SELECT vec_id, q, unnest(range(1, len(q) + 1)) AS dim FROM e),
s AS (SELECT dim, CAST(SUM(q[dim]) AS BIGINT) AS s1,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM idx GROUP BY 1),
d AS (
  SELECT idx.vec_id,
         SUM((CAST(s.n AS HUGEINT) * idx.q[idx.dim] - s.s1)
             * (CAST(s.n AS HUGEINT) * idx.q[idx.dim] - s.s1)) AS dist
  FROM idx JOIN s USING (dim) GROUP BY 1)
SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(dist AS BIGINT) AS dist_n2
FROM d ORDER BY dist DESC, vec_id LIMIT {OUTLIER_TOPK}
"""


VALIDATION_SQL_QUERIES: dict[str, tuple] = {
    "temperature_mix": (q_temperature_mix, TEMPERATURE_MIX_SQL, "selection"),
    "readability": (q_readability, READABILITY_SQL, "text"),
    "auc_eval": (q_auc_eval, AUC_EVAL_SQL, "sketch"),
    "ks_drift": (q_ks_drift, KS_DRIFT_SQL, "sketch"),
    "ndcg_eval": (q_ndcg_eval, _ndcg_sql(), "sketch"),
    "mrr_eval": (q_mrr_eval, MRR_EVAL_SQL, "sketch"),
    "map_eval": (q_map_eval, MAP_EVAL_SQL, "sketch"),
    "embedding_outliers": (q_embedding_outliers, EMBEDDING_OUTLIERS_SQL, "ann"),
}
