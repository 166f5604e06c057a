"""Data-validation and curation-mix operators.

A crawl corpus feeding a training pipeline needs mixture control
(temperature-scaled language sampling, NLLB / mT5-style), readability
scoring, link-prediction scores over the crawl graph, small-file
compaction planning, and a first-digit (Benford) audit of numeric feeds.

Reference parity: the reference's quality gates are the downloader's
status/content checks (europarl-crawler downloader/postprocessor); the
rest are training-data additions (temperature sampling: Arivazhagan et
al. 2019 §3; Adamic-Adar 2003; Flesch 1948). All oracled exactly:
every score is either pure integer arithmetic or a single
correctly-rounded division of exact integers, so DuckDB and numpy
agree bit-for-bit (repo convention, see queries.q_pagerank's
scaled-integer note).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

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


# ================================================= adamic_adar
#
# Link-prediction scores over the synthetic crawl graph: for each
# co-cited page pair, AA = Σ_{src→both} 1/ln(outdeg(src)). The
# out-degree cap (≤4 distinct) lets 1/ln(d) be inlined as scaled-int
# literals (×1e6) on BOTH sides — no libm ln() in either engine, so
# the sum is pure integer arithmetic and exact.

_AA_W = {2: 1442695, 3: 910239, 4: 721348}  # round(1e6 / ln(d))
AA_MIN_SUPPORT = 2


def q_adamic_adar(sf_dir: str):
    """Same shape as q_cocitation_pairs (bounded per-src pair fan-out →
    ONE coarse exchange on the unordered pair key → in-task sum), with
    the per-src degree weight attached before the exchange so the
    reduce is a plain groupby-sum."""
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    d = _read(sf_dir, "documents", columns=["doc_id"])
    empty = pd.DataFrame(
        {
            "dst_a": pd.Series([], dtype=np.int64),
            "dst_b": pd.Series([], dtype=np.int64),
            "n_common": pd.Series([], dtype=np.int64),
            "aa_micro": pd.Series([], dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty

    def pairs(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame(
            {"src": pd.Series(src, dtype=np.int64), "dst": pd.Series(dst, dtype=np.int64)}
        ).drop_duplicates()
        deg = e.groupby("src")["dst"].transform("size")
        e = e.assign(w=deg.map(_AA_W).fillna(0).astype(np.int64))
        m = e.merge(e[["src", "dst"]], on="src", suffixes=("_a", "_b"))
        m = m[m["dst_a"] < m["dst_b"]]
        out = m[["dst_a", "dst_b", "w"]].reset_index(drop=True)
        out["pair"] = out["dst_a"] * np.int64(n_docs) + out["dst_b"]
        return out

    kd = _with_coarse_group(d.map_batches(pairs, batch_format="pyarrow"), "pair")

    def reduce_(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["dst_a", "dst_b"], as_index=False).agg(
            n_common=("w", "size"), aa_micro=("w", "sum")
        )
        out = out[out["n_common"] >= AA_MIN_SUPPORT]
        return out.astype(np.int64)

    return kd.groupby("_g").map_groups(reduce_, batch_format="pandas")


ADAMIC_ADAR_SQL = f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
wt AS (
  SELECT src, CASE COUNT(*) WHEN 2 THEN {_AA_W[2]} WHEN 3 THEN {_AA_W[3]}
                            WHEN 4 THEN {_AA_W[4]} ELSE 0 END AS w
  FROM e GROUP BY 1)
SELECT a.dst AS dst_a, b.dst AS dst_b,
       CAST(COUNT(*) AS BIGINT) AS n_common, CAST(SUM(w) AS BIGINT) AS aa_micro
FROM e a JOIN e b ON a.src = b.src AND a.dst < b.dst
JOIN wt ON wt.src = a.src
GROUP BY 1, 2
HAVING COUNT(*) >= {AA_MIN_SUPPORT}
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


# ================================================= compaction_plan
#
# Small-file compaction planning per table partition (source): files
# (docs, size = n_chars) packed size-DESC into target-size bins by a
# running prefix sum — the standard sorted sequential packing used by
# lakehouse OPTIMIZE jobs. Per-partition plans, so the exchange is one
# coarse group on source and the packing runs vectorized in-task.

COMPACT_TARGET_BYTES = 4096


def q_compaction_plan(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"]).sort_values(
            ["source", "n_chars", "doc_id"], ascending=[True, False, True], kind="mergesort"
        )
        sizes = g["n_chars"].to_numpy().astype(np.int64)
        cum = g.assign(_s=sizes).groupby("source")["_s"].cumsum().to_numpy()
        return pd.DataFrame(
            {
                "source": g["source"].to_numpy(),
                "doc_id": g["doc_id"].to_numpy().astype(np.int64),
                "size_bytes": sizes,
                "bin": ((cum - sizes) // COMPACT_TARGET_BYTES).astype(np.int64),
            }
        )

    return (
        _with_coarse_group(d, "source")
        .groupby("_g")
        .map_groups(pack, batch_format="pandas")
    )


COMPACTION_PLAN_SQL = f"""
SELECT source, doc_id, CAST(n_chars AS BIGINT) AS size_bytes,
       CAST((SUM(n_chars) OVER (PARTITION BY source
                ORDER BY n_chars DESC, doc_id
                ROWS UNBOUNDED PRECEDING) - n_chars)
            // {COMPACT_TARGET_BYTES} AS BIGINT) AS bin
FROM documents
"""


# ===================================================== benford_audit
#
# First-digit (Benford's law) audit over order totals — the classic
# forensic data-quality screen for fabricated or re-keyed numeric
# feeds (Nigrini 1996). Expected frequencies are the standard
# log10(1 + 1/d) values rounded to parts-per-million; the nine
# constants are hardcoded IDENTICALLY on both sides (they sum to
# exactly 1,000,000), so the only arithmetic is integer. The per-digit
# deviation statistic is a 10^6-scaled chi-square contribution:
# chi2_scaled = floor((n_obs·10^6 − exp_ppm·N)^2 / (exp_ppm·N))
#             = floor(10^6 · (obs − exp)^2 / exp).
# The square can exceed 2^63 (N=150k ⇒ dev^2 ≈ 10^22), so the SQL
# computes it in HUGEINT and the Python side in arbitrary-precision
# int — both floor-divide, the final quotient fits int64.

BENFORD_PPM = (
    (1, 301030), (2, 176091), (3, 124939), (4, 96910), (5, 79181),
    (6, 66947), (7, 57992), (8, 51153), (9, 45757),
)


def q_benford_audit(sf_dir: str):
    """(digit, n_obs, exp_ppm, chi2_scaled) for digits 1-9.

    Scale shape: per-block first-digit bincount (9-column partial row)
    → ONE global_prune sum → 9-row driver solve. The scan is
    embarrassingly parallel; nothing data-scaled leaves the tasks."""
    orders = _read(sf_dir, "orders", columns=["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["o_totalprice"].to_numpy())
        cents = cents[cents > 0]  # guard: SQL filters cents > 0 too
        # exact first digit via decimal string (float log10 flips at
        # powers of ten — the repo's integer-exactness rule applies)
        first = (
            pd.Series(cents).astype(str).str[0].astype(np.int64)
            if len(cents)
            else np.array([], np.int64)
        )
        counts = np.bincount(first, minlength=10)[1:10]
        return pd.DataFrame(
            {f"d{i}": [int(counts[i - 1])] for i in range(1, 10)}
        ).astype(np.int64)

    def sum_partials(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.sum(axis=0).to_frame().T.astype(np.int64)

    counts = global_prune(orders.map_batches(partial, batch_format="pandas"), sum_partials)
    empty = pd.DataFrame(
        {
            "digit": pd.Series([], dtype=np.int64),
            "n_obs": pd.Series([], dtype=np.int64),
            "exp_ppm": pd.Series([], dtype=np.int64),
            "chi2_scaled": pd.Series([], dtype=np.int64),
        }
    )
    if not len(counts):
        return empty
    obs = {i: int(counts[f"d{i}"].iloc[0]) for i in range(1, 10)}
    n = sum(obs.values())
    if n == 0:
        return empty
    rows = []
    for d, exp_ppm in BENFORD_PPM:
        dev = obs[d] * 1_000_000 - exp_ppm * n  # Python int: no overflow
        rows.append((d, obs[d], exp_ppm, (dev * dev) // (exp_ppm * n)))
    return pd.DataFrame(
        rows, columns=["digit", "n_obs", "exp_ppm", "chi2_scaled"]
    ).astype(np.int64)


BENFORD_AUDIT_SQL = f"""
WITH c AS (
  SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents FROM orders
),
d AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM c WHERE cents > 0
),
obs AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS n_obs FROM d GROUP BY 1),
bexp(digit, exp_ppm) AS (
  VALUES {", ".join(f"({d}, {p})" for d, p in BENFORD_PPM)}
),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM d)
SELECT CAST(e.digit AS BIGINT) AS digit,
       CAST(COALESCE(o.n_obs, 0) AS BIGINT) AS n_obs,
       CAST(e.exp_ppm AS BIGINT) AS exp_ppm,
       CAST(
         (CAST(COALESCE(o.n_obs, 0) AS HUGEINT) * 1000000
            - CAST(e.exp_ppm AS HUGEINT) * t.n)
         * (CAST(COALESCE(o.n_obs, 0) AS HUGEINT) * 1000000
            - CAST(e.exp_ppm AS HUGEINT) * t.n)
         // (CAST(e.exp_ppm AS HUGEINT) * t.n)
       AS BIGINT) AS chi2_scaled
FROM bexp e LEFT JOIN obs o ON o.digit = e.digit CROSS JOIN tot t
WHERE t.n > 0
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
# round(1e9/log2(i+1)) integer literals on both engines (the
# adamic_adar no-libm convention). ndcg_bp = 10000·DCG // IDCG, all
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


# ==================================================== ece_calibration
#
# Expected-calibration-error table of the integer linear scorer against
# the embedding labels: scores are min-max normalized to basis points,
# bucketed into 10 confidence bins, and each bin reports mean predicted
# confidence vs observed positive rate — the reliability-diagram
# primitive a quality-classifier pipeline runs beside auc_eval. Fully
# integer (same floor(1000·x) coordinates, md5 weights, and
# integer-division normalization), so parity is exact by construction.
#
# Scale shape: identical to auc_eval — per-batch (score, n_pos, n)
# histogram partials → one coarse exchange on score → distinct-score-
# bounded driver reduce; min/max and binning run over the collapsed
# histogram, never the corpus.

ECE_BINS = 10


def _ece_weights() -> np.ndarray:
    import hashlib

    return np.array(
        [
            int(hashlib.md5(f"ece:{i}".encode()).hexdigest()[:16], 16) % 19 - 9
            for i in range(1, AUC_DIM + 1)
        ],
        dtype=np.int64,
    )


def q_ece_calibration(sf_dir: str):
    emb = _read(sf_dir, "embeddings", columns=["embedding", "label"])
    w = _ece_weights()

    def score_hist(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "s": pd.Series(dtype=np.int64),
                    "part_pos": pd.Series(dtype=np.int64),
                    "part_n": pd.Series(dtype=np.int64),
                }
            )
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(mat * 1000.0).astype(np.int64)
        s = q @ w
        pos = (df["label"].to_numpy(np.int64) == AUC_POS_LABEL).astype(np.int64)
        out = pd.DataFrame({"s": s, "part_pos": pos, "part_n": 1})
        return out.groupby("s", as_index=False)[["part_pos", "part_n"]].sum()

    parts = emb.map_batches(score_hist, batch_format="pandas")

    def reduce_hist(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("s", as_index=False)[["part_pos", "part_n"]].sum()

    hist = (
        _with_coarse_group(parts, "s")
        .groupby("_g")
        .map_groups(lambda g: reduce_hist(g.drop(columns=["_g"])),
                    batch_format="pandas")
        .to_pandas()  # distinct-score-bounded (see auc_eval note)
    )
    cols = ["bin", "n", "conf_bp", "acc_bp", "gap_bp"]
    if hist.empty or "s" not in hist.columns:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    s = hist["s"].to_numpy(np.int64)
    n = hist["part_n"].to_numpy(np.int64)
    npos = hist["part_pos"].to_numpy(np.int64)
    smin, smax = int(s.min()), int(s.max())
    span = smax - smin
    pbp = ((s - smin) * 10000) // span if span else np.zeros_like(s)
    bins = np.minimum(pbp // 1000, ECE_BINS - 1)
    agg = pd.DataFrame(
        {"bin": bins, "n": n, "sp": pbp * n, "npos": npos}
    ).groupby("bin", as_index=False).sum()
    return pd.DataFrame(
        {
            "bin": agg["bin"].to_numpy(np.int64),
            "n": agg["n"].to_numpy(np.int64),
            "conf_bp": (agg["sp"].to_numpy(np.int64) // agg["n"].to_numpy(np.int64)),
            "acc_bp": (agg["npos"].to_numpy(np.int64) * 10000 // agg["n"].to_numpy(np.int64)),
            "gap_bp": np.abs(
                agg["sp"].to_numpy(np.int64) // agg["n"].to_numpy(np.int64)
                - agg["npos"].to_numpy(np.int64) * 10000 // agg["n"].to_numpy(np.int64)
            ),
        }
    ).astype("int64")


ECE_CALIBRATION_SQL = f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e,
         CASE WHEN label = {AUC_POS_LABEL} THEN 1 ELSE 0 END AS pos
  FROM embeddings),
w AS (
  SELECT i,
         CAST(CAST(concat('0x', substr(md5('ece:' || CAST(i AS VARCHAR)),
              1, 16)) AS UBIGINT) % 19 AS BIGINT) - 9 AS wt
  FROM (SELECT unnest(range(1, {AUC_DIM} + 1)) AS i)),
q AS (
  SELECT e.vec_id, MAX(e.pos) AS pos,
         SUM(CAST(floor(e.e[w.i] * 1000) AS BIGINT) * w.wt) AS s
  FROM e, w GROUP BY e.vec_id),
mm AS (SELECT MIN(s) AS smin, MAX(s) AS smax FROM q),
p AS (SELECT q.pos,
             CASE WHEN mm.smax > mm.smin
                  THEN (q.s - mm.smin) * 10000 // (mm.smax - mm.smin)
                  ELSE 0 END AS pbp
      FROM q, mm),
b AS (SELECT LEAST(pbp // 1000, {ECE_BINS} - 1) AS bin,
             COUNT(*) AS n, SUM(pbp) AS sp, SUM(pos) AS npos
      FROM p GROUP BY 1)
SELECT CAST(bin AS BIGINT) AS bin, CAST(n AS BIGINT) AS n,
       CAST(sp // n AS BIGINT) AS conf_bp,
       CAST(npos * 10000 // n AS BIGINT) AS acc_bp,
       CAST(abs(sp // n - npos * 10000 // n) AS BIGINT) AS gap_bp
FROM b
"""


# ==================================================== silhouette_eval
#
# Simplified (centroid-based) silhouette over the embedding table —
# the cluster-quality score a curation pipeline reads before trusting
# a clustering for SemDeDup / mixture balancing. Centroids are the
# SIL_CELLS md5-smallest vectors ('sil:{vec_id}', the repo's
# deterministic-sample device); every vector and centroid quantizes to
# floor(1000·x) int64, so squared euclidean distances are EXACT
# integers via the a·a − 2a·b + b·b expansion (same identity
# _kcenter_sql uses). a2 = d² to the assigned (nearest, ties → smaller
# cid) centroid, b2 = min d² over the others, sil_bp =
# (b2−a2)·10000 // max(a2,b2,1) — non-negative by construction since
# the assignment minimizes d², so // is plain integer division on both
# engines.
#
# Scale shape: centroid pick via global_prune (O(SIL_CELLS) driver
# rows regardless of block count); the scoring pass is one integer
# matmul per batch against the broadcast SIL_CELLS×D centroid matrix —
# NO shuffle, one narrow output row per vector.

SIL_CELLS = 12


def _sil_centroids(sf_dir: str):
    """The md5('sil:{vec_id}')-smallest SIL_CELLS vectors, quantized —
    the shared clustering q_silhouette_eval and q_cluster_purity both
    grade (same cells, two quality views). Returns (cids, cmat) sorted
    by vec_id, or (None, None) on an empty table."""
    import hashlib

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def prune_c(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "vec_id" not in df.columns:
            return df
        md5s = np.array(
            [hashlib.md5(f"sil:{int(v)}".encode()).hexdigest() for v in df["vec_id"]]
        )
        keep = np.argsort(md5s)[:SIL_CELLS]
        return df.iloc[np.sort(keep)]

    cdf = global_prune(emb, prune_c)
    if cdf.empty or "vec_id" not in cdf.columns:
        return None, None
    md5s = np.array(
        [hashlib.md5(f"sil:{int(v)}".encode()).hexdigest() for v in cdf["vec_id"]]
    )
    cdf = cdf.iloc[np.argsort(md5s)[:SIL_CELLS]].sort_values("vec_id")
    cids = cdf["vec_id"].to_numpy(np.int64)
    cmat = np.floor(
        np.stack(cdf["embedding"].to_numpy()).astype(np.float64) * 1000.0
    ).astype(np.int64)
    return cids, cmat


def q_silhouette_eval(sf_dir: str):
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cols = ["vec_id", "cell", "a2", "b2", "sil_bp"]
    cids, cmat = _sil_centroids(sf_dir)
    if cids is None:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    cnorm = (cmat * cmat).sum(axis=1)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        ids = df["vec_id"].to_numpy(np.int64)
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        d2 = (mat * mat).sum(axis=1)[:, None] - 2 * (mat @ cmat.T) + cnorm[None, :]
        # cids are ascending and argmin takes the FIRST minimum, so
        # distance ties resolve to the smaller centroid id (oracle rule)
        own = np.argmin(d2, axis=1)
        rows = np.arange(len(ids))
        a2 = d2[rows, own]
        masked = d2.copy()
        masked[rows, own] = np.iinfo(np.int64).max
        b2 = masked.min(axis=1)
        sil = (b2 - a2) * 10000 // np.maximum(np.maximum(a2, b2), 1)
        return pd.DataFrame(
            {"vec_id": ids, "cell": cids[own], "a2": a2, "b2": b2, "sil_bp": sil}
        )

    return emb.map_batches(score, batch_format="pandas")


SILHOUETTE_EVAL_SQL = f"""
WITH e AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
cent AS (SELECT vec_id AS cid, q AS cq FROM e
         ORDER BY md5('sil:' || CAST(vec_id AS VARCHAR)) LIMIT {SIL_CELLS}),
d AS (
  SELECT e.vec_id, c.cid,
         CAST(list_inner_product(e.q, e.q)
              - 2 * list_inner_product(e.q, c.cq)
              + list_inner_product(c.cq, c.cq) AS BIGINT) AS d2
  FROM e CROSS JOIN cent c),
own AS (
  SELECT vec_id, cid, d2,
         ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, cid) AS rn
  FROM d),
a AS (SELECT vec_id, cid AS cell, d2 AS a2 FROM own WHERE rn = 1),
b AS (SELECT d.vec_id, MIN(d.d2) AS b2
      FROM d JOIN a ON a.vec_id = d.vec_id AND d.cid <> a.cell GROUP BY 1)
SELECT CAST(a.vec_id AS BIGINT) AS vec_id,
       CAST(a.cell AS BIGINT) AS cell,
       CAST(a.a2 AS BIGINT) AS a2,
       CAST(b.b2 AS BIGINT) AS b2,
       CAST((b.b2 - a.a2) * 10000
            // GREATEST(a.a2, b.b2, 1) AS BIGINT) AS sil_bp
FROM a JOIN b USING (vec_id)
"""


# ================================================== embedding_moments
#
# Per-dimension first/second moments of the quantized embedding matrix
# — the feature-health audit (dead dims, scale outliers) an embedding
# pipeline runs before ANN indexing or whitening. Coordinates quantize
# to floor(1000·x) int64 (the repo's vector convention), so s1 = Σq and
# s2 = Σq² are exact integers and n²·var = n·s2 − s1² is exact too
# (HUGEINT on the SQL side; Python ints never overflow).
#
# Scale shape: one per-batch D-row partial (n, s1, s2 per dimension) →
# ONE global_prune combine → a D-row driver table. NO shuffle; D is the
# fixed embedding width.

def q_embedding_moments(sf_dir: str):
    emb = _read(sf_dir, "embeddings", columns=["embedding"])
    cols = ["dim", "n", "s1", "s2", "var_n2"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in
                                 ("dim", "n", "s1", "s2")})
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "dim": np.arange(1, mat.shape[1] + 1, dtype=np.int64),
                "n": np.full(mat.shape[1], mat.shape[0], np.int64),
                "s1": mat.sum(axis=0),
                "s2": (mat * mat).sum(axis=0),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "dim" not in df.columns:
            return df
        return df.groupby("dim", as_index=False)[["n", "s1", "s2"]].sum()

    m = global_prune(emb.map_batches(partial, batch_format="pandas"), combine)
    if not len(m) or "dim" not in m.columns:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    # Python big ints: n·s2 − s1² can exceed int64 at corpus scale
    var = [int(n) * int(s2) - int(s1) * int(s1)
           for n, s1, s2 in zip(m["n"], m["s1"], m["s2"])]
    out = m.sort_values("dim").reset_index(drop=True)
    out["var_n2"] = np.array(var, dtype=np.int64)
    return out[cols].astype({c: np.int64 for c in cols})


EMBEDDING_MOMENTS_SQL = """
WITH e AS (
  SELECT list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
idx AS (SELECT q, unnest(range(1, len(q) + 1)) AS dim FROM e),
per AS (
  SELECT CAST(dim AS BIGINT) AS dim,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(q[dim]) AS BIGINT) AS s1,
         CAST(SUM(q[dim] * q[dim]) AS BIGINT) AS s2
  FROM idx GROUP BY 1)
SELECT dim, n, s1, s2,
       CAST(CAST(n AS HUGEINT) * s2
            - CAST(s1 AS HUGEINT) * s1 AS BIGINT) AS var_n2
FROM per
"""


# ====================================================== cluster_purity
#
# Label purity of the SAME deterministic clustering silhouette_eval
# grades (md5-picked centroids, min-d² assignment): per cell, member
# count, distinct labels, and purity_bp = top-label count·10⁴ // n —
# the external cluster-quality view (geometric cohesion is
# silhouette's). All counting, no floats.
#
# Scale shape: assignment is the broadcast-centroid matvec; per-batch
# (cell, label) count partials (≤ cells×labels rows per block) → ONE
# global_prune combine → driver purity over the bounded grid.

def q_cluster_purity(sf_dir: str):
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    cols = ["cell", "n", "n_labels", "top_count", "purity_bp"]
    cids, cmat = _sil_centroids(sf_dir)
    if cids is None:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    cnorm = (cmat * cmat).sum(axis=1)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ("cell", "label", "cnt")}
            )
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        d2 = (mat * mat).sum(axis=1)[:, None] - 2 * (mat @ cmat.T) + cnorm[None, :]
        own = np.argmin(d2, axis=1)  # ties → smaller centroid id (cids asc)
        out = pd.DataFrame(
            {"cell": cids[own], "label": df["label"].to_numpy(np.int64), "cnt": 1}
        )
        return out.groupby(["cell", "label"], as_index=False)["cnt"].sum()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "cell" not in df.columns:
            return df
        return df.groupby(["cell", "label"], as_index=False)["cnt"].sum()

    m = global_prune(emb.map_batches(partial, batch_format="pandas"), combine)
    if not len(m) or "cell" not in m.columns:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    rows = []
    for cell, g in m.groupby("cell", sort=True):
        n = int(g["cnt"].sum())
        top = int(g["cnt"].max())
        rows.append((int(cell), n, len(g), top, top * 10000 // n))
    return pd.DataFrame(rows, columns=cols).astype({c: np.int64 for c in cols})


CLUSTER_PURITY_SQL = f"""
WITH e AS (
  SELECT vec_id, label,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
cent AS (SELECT vec_id AS cid, q AS cq FROM e
         ORDER BY md5('sil:' || CAST(vec_id AS VARCHAR)) LIMIT {SIL_CELLS}),
own AS (
  SELECT vec_id, label, cid, ROW_NUMBER() OVER (
           PARTITION BY vec_id
           ORDER BY list_inner_product(q, q)
                    - 2 * list_inner_product(q, cq)
                    + list_inner_product(cq, cq), cid) AS rn
  FROM e CROSS JOIN cent),
a AS (SELECT vec_id, label, cid AS cell FROM own WHERE rn = 1),
lc AS (SELECT cell, label, CAST(COUNT(*) AS BIGINT) AS cnt
       FROM a GROUP BY 1, 2)
SELECT CAST(cell AS BIGINT) AS cell,
       CAST(SUM(cnt) AS BIGINT) AS n,
       CAST(COUNT(*) AS BIGINT) AS n_labels,
       CAST(MAX(cnt) AS BIGINT) AS top_count,
       CAST(MAX(cnt) * 10000 // SUM(cnt) AS BIGINT) AS purity_bp
FROM lc GROUP BY 1
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
# Scale shape: pass 1 is embedding_moments' D-row partial (n, s1 per
# dim) → global_prune; pass 2 broadcasts the D-vector s1 and computes
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


# ====================================================== bootstrap_means
#
# Deterministic multiplier bootstrap of the mean document length: B
# resample replicas where doc i's multiplicity in replica b is
# md5('boot:{b}:{doc_id}') % 3 ∈ {0,1,2} (mean 1 — a discrete stand-in
# for Poisson(1), the standard streaming-bootstrap trick), giving the
# spread a data buyer quotes as the CI of a corpus statistic without a
# second pass over the data. mean_ppm = 1e6·Σ(m·x) // Σm is exact
# integer arithmetic; the md5 device is the multimodal_meta convention
# so DuckDB recomputes identical multiplicities.
#
# Scale shape: each batch contributes one B-row partial (replica,
# n_eff, sx) — B is fixed, so partials are metadata-sized; ONE
# global_prune combine → B driver rows. NO shuffle; cost is B md5s per
# row (the documented price of B replicas in one pass).

BOOT_B = 32


def q_bootstrap_means(sf_dir: str):
    from ..stages.multimodal import _md5_64

    d = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    cols = ["replica", "n_eff", "sx", "mean_ppm"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ("replica", "n_eff", "sx")}
            )
        ids = df["doc_id"].to_numpy(np.int64)
        x = df["n_chars"].to_numpy(np.int64)
        rows = []
        for b in range(BOOT_B):
            m = np.fromiter(
                (_md5_64(f"boot:{b}:{int(i)}") % 3 for i in ids),
                np.int64,
                len(ids),
            )
            rows.append((b, int(m.sum()), int((m * x).sum())))
        return pd.DataFrame(rows, columns=["replica", "n_eff", "sx"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "replica" not in df.columns:
            return df
        return df.groupby("replica", as_index=False)[["n_eff", "sx"]].sum()

    m = global_prune(d.map_batches(partial, batch_format="pandas"), combine)
    if not len(m) or "replica" not in m.columns:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    m = m.sort_values("replica").reset_index(drop=True)
    ne = m["n_eff"].to_numpy(np.int64)
    sx = m["sx"].to_numpy(np.int64)
    m["mean_ppm"] = np.where(ne > 0, (1_000_000 * sx) // np.maximum(ne, 1), 0)
    return m[cols].astype({c: np.int64 for c in cols})


BOOTSTRAP_MEANS_SQL = f"""
WITH reps AS (SELECT unnest(range(0, {BOOT_B})) AS replica),
m AS (
  SELECT reps.replica, d.n_chars,
         CAST(CAST(concat('0x', substr(md5('boot:' || CAST(reps.replica AS VARCHAR)
              || ':' || CAST(d.doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 3
              AS BIGINT) AS mult
  FROM reps CROSS JOIN documents d)
SELECT CAST(replica AS BIGINT) AS replica,
       CAST(COALESCE(SUM(mult), 0) AS BIGINT) AS n_eff,
       CAST(COALESCE(SUM(mult * n_chars), 0) AS BIGINT) AS sx,
       CAST(CASE WHEN COALESCE(SUM(mult), 0) > 0
            THEN (1000000 * SUM(mult * n_chars)) // SUM(mult)
            ELSE 0 END AS BIGINT) AS mean_ppm
FROM m GROUP BY 1
"""


# ================================================== conformal_coverage
#
# Split-conformal audit of a corpus statistic (Vovk et al. 2005;
# Angelopoulos & Bates 2023): a deterministic md5 split assigns ~1/5 of
# docs to a CALIBRATION set; the conformal threshold is the
# ⌈(n_cal+1)·(1−α)⌉-th smallest calibration score (α = 0.1, score =
# n_chars — a calibrated 90% upper bound on document length), and
# coverage is the share of TEST docs at or under it. A data buyer runs
# this gate to check that a quantile promised on a sample actually
# holds on the rest of the corpus. All integer-exact: the threshold is
# an order statistic of an integer multiset, coverage_bp an integer
# division.
#
# Scale shape: ONE streaming pass emits per-batch (split, score, cnt)
# histogram partials — the score domain is bounded by max doc length,
# so partials are metadata-sized — then ONE global_prune combine; the
# driver takes the order statistic from the cumulative histogram
# (O(|score domain|) rows) and reads coverage off the same histogram.
# NO shuffle, no second pass.

CONF_ALPHA_BP = 1000  # α = 0.1 in basis points
CONF_CAL_MOD = 5      # md5 % 5 == 0 → calibration split


def q_conformal_coverage(sf_dir: str):
    from ..stages.multimodal import _md5_64

    d = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    cols = ["n_cal", "n_test", "threshold", "n_covered", "coverage_bp"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ("split", "score", "cnt")}
            )
        ids = df["doc_id"].to_numpy(np.int64)
        cal = np.fromiter(
            (_md5_64(f"conf:42:{int(i)}") % CONF_CAL_MOD == 0 for i in ids),
            bool,
            len(ids),
        )
        out = pd.DataFrame(
            {"split": cal.astype(np.int64), "score": df["n_chars"].to_numpy(np.int64)}
        )
        return out.groupby(["split", "score"], as_index=False).size().rename(
            columns={"size": "cnt"}
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "split" not in df.columns:
            return df
        return df.groupby(["split", "score"], as_index=False)["cnt"].sum()

    h = global_prune(d.map_batches(partial, batch_format="pandas"), combine)
    if not len(h) or "split" not in h.columns:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    h = h.sort_values(["split", "score"]).reset_index(drop=True)
    cal = h[h["split"] == 1]
    test = h[h["split"] == 0]
    n_cal = int(cal["cnt"].sum())
    n_test = int(test["cnt"].sum())
    # k-th smallest calibration score, k = ⌈(n_cal+1)(1−α)⌉ clamped to n_cal
    k = min(n_cal, -(-((n_cal + 1) * (10000 - CONF_ALPHA_BP)) // 10000))
    if n_cal == 0:
        thr = 0
    else:
        cum = cal["cnt"].cumsum().to_numpy(np.int64)
        thr = int(cal["score"].to_numpy(np.int64)[np.searchsorted(cum, k)])
    n_cov = int(test.loc[test["score"] <= thr, "cnt"].sum())
    cov_bp = 10000 * n_cov // n_test if n_test else 0
    return pd.DataFrame(
        {
            "n_cal": [n_cal],
            "n_test": [n_test],
            "threshold": [thr],
            "n_covered": [n_cov],
            "coverage_bp": [cov_bp],
        }
    ).astype({c: np.int64 for c in cols})


CONFORMAL_COVERAGE_SQL = f"""
WITH d AS (
  SELECT n_chars AS score,
         CASE WHEN CAST(concat('0x', substr(md5('conf:42:' ||
              CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)
              % {CONF_CAL_MOD} = 0 THEN 1 ELSE 0 END AS split
  FROM documents),
nc AS (SELECT COUNT(*) AS n_cal FROM d WHERE split = 1),
kk AS (
  SELECT CASE WHEN n_cal < ((n_cal + 1) * {10000 - CONF_ALPHA_BP} + 9999) // 10000
         THEN n_cal
         ELSE ((n_cal + 1) * {10000 - CONF_ALPHA_BP} + 9999) // 10000 END AS k,
         n_cal
  FROM nc),
thr AS (
  SELECT COALESCE(
    (SELECT score FROM d WHERE split = 1 ORDER BY score
     LIMIT 1 OFFSET (SELECT k - 1 FROM kk WHERE k > 0)), 0) AS threshold)
SELECT CAST((SELECT n_cal FROM nc) AS BIGINT) AS n_cal,
       CAST(COUNT(*) AS BIGINT) AS n_test,
       CAST((SELECT threshold FROM thr) AS BIGINT) AS threshold,
       CAST(COALESCE(SUM(CASE WHEN score <= (SELECT threshold FROM thr)
                         THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_covered,
       CAST(CASE WHEN COUNT(*) > 0
            THEN 10000 * COALESCE(SUM(CASE WHEN score <=
                 (SELECT threshold FROM thr) THEN 1 ELSE 0 END), 0) // COUNT(*)
            ELSE 0 END AS BIGINT) AS coverage_bp
FROM d WHERE split = 0
"""


VALIDATION_SQL_QUERIES: dict[str, tuple] = {
    "temperature_mix": (q_temperature_mix, TEMPERATURE_MIX_SQL),
    "adamic_adar": (q_adamic_adar, ADAMIC_ADAR_SQL),
    "readability": (q_readability, READABILITY_SQL),
    "compaction_plan": (q_compaction_plan, COMPACTION_PLAN_SQL),
    "benford_audit": (q_benford_audit, BENFORD_AUDIT_SQL),
    "auc_eval": (q_auc_eval, AUC_EVAL_SQL),
    "ks_drift": (q_ks_drift, KS_DRIFT_SQL),
    "ndcg_eval": (q_ndcg_eval, _ndcg_sql()),
    "mrr_eval": (q_mrr_eval, MRR_EVAL_SQL),
    "map_eval": (q_map_eval, MAP_EVAL_SQL),
    "ece_calibration": (q_ece_calibration, ECE_CALIBRATION_SQL),
    "silhouette_eval": (q_silhouette_eval, SILHOUETTE_EVAL_SQL),
    "embedding_moments": (q_embedding_moments, EMBEDDING_MOMENTS_SQL),
    "embedding_outliers": (q_embedding_outliers, EMBEDDING_OUTLIERS_SQL),
    "cluster_purity": (q_cluster_purity, CLUSTER_PURITY_SQL),
    "bootstrap_means": (q_bootstrap_means, BOOTSTRAP_MEANS_SQL),
    "conformal_coverage": (q_conformal_coverage, CONFORMAL_COVERAGE_SQL),
}
