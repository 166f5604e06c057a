"""Mergeable-sketch operators (round-3, third batch): HyperLogLog
registers and a count-min sketch over the corpus vocabulary.

At 100 TB, "how many distinct X" and "roughly how often does Y occur"
must be answered WITHOUT a data-scaled exchange: both sketches here are
classic bounded-state combiners — every block contributes a fixed-size
partial (≤64 registers / ≤4096 cells), merge is an elementwise max/sum,
and the sketch (not the data) is the only thing that ever crosses the
wire or reaches the driver.

Unlike library HLL/CMS implementations whose hash seeds are
implementation-defined, these hash with the repo-standard first-8-bytes
md5 (``functions/dedup.md5_hash64`` == SQL ``CAST('0x'||substr(md5(s),
1,16) AS UBIGINT)``), so the oracle recomputes the register values
BIT-FOR-BIT in DuckDB — the same trick ``distinct_tokens_kmv``
(queries.py) uses, extended to HLL's leading-zero ranks via DuckDB's
``bin()`` (no-leading-zero binary string: rho = 59 - length(bin(rest))).

Complements the exact/KMV family: ``distinct_tokens_kmv`` carries the
exact count + KMV state; ``hll_distinct`` carries the HLL register
vector (the estimator everyone actually deploys for cross-partition
mergeability); ``cms_sketch`` is the frequency side (heavy-hitter
prefilter for ``token_topk``-style queries when the vocabulary itself
is too large to exchange).

Three more synopses round out the family: ``equidepth_hist`` (the
quantile-boundary histogram every engine keeps per column),
``topk_threshold`` (Fagin's Threshold Algorithm early-stop audit,
Fagin, Lotem & Naor, PODS 2001) and ``count_sketch`` (Charikar, Chen &
Farach-Colton 2002 — the signed, median-of-rows counterpart of the
count-min sketch above). All three compare integers only, so the
oracles match bit-for-bit.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from ..functions.dedup import _WORD_RE, md5_hash64
from ..stages.multimodal import _md5_64
from .grouping import global_prune, with_coarse_group as _with_coarse_group
from .ml_queries import _md5u

TOK_RE = r"[^ \t\n\r\f]+"


# ----------------------------------------------------------- HyperLogLog

HLL_P = 6                      # 2^6 = 64 registers
_HLL_REST_BITS = 64 - HLL_P    # 58
_HLL_REST_MASK = np.uint64((1 << _HLL_REST_BITS) - 1)


def _bitlen_u58(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 values < 2^58.

    float64 log2 is only floor-exact below 2^32 (a 55-bit integer can
    ROUND UP to a power of two when cast to float64, overstating the
    bit length by one), so split into exact 26/32-bit halves first.
    """
    hi = (x >> np.uint64(32)).astype(np.float64)  # < 2^26, exact
    lo = (x & np.uint64(0xFFFFFFFF)).astype(np.float64)  # < 2^32, exact
    out = np.zeros(len(x), dtype=np.int64)
    m_hi = hi > 0
    out[m_hi] = 33 + np.floor(np.log2(hi[m_hi])).astype(np.int64)
    m_lo = ~m_hi & (lo > 0)
    out[m_lo] = 1 + np.floor(np.log2(lo[m_lo])).astype(np.int64)
    return out


def hll_partial(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register, rho) per hash: register = top ``HLL_P`` bits, rho =
    1 + leading zeros of the remaining 58 bits (Flajolet et al. 2007,
    the '+1' convention: rho(0-bits-exhausted) = 59)."""
    reg = (hashes >> np.uint64(_HLL_REST_BITS)).astype(np.int64)
    rest = hashes & _HLL_REST_MASK
    rho = np.int64(_HLL_REST_BITS + 1) - _bitlen_u58(rest)
    return reg, rho


def q_hll_distinct(sf_dir: str):
    """Per-language HyperLogLog register vector over the token
    vocabulary — the mergeable distinct-count sketch. Emits one row per
    (lang, register) OBSERVED: (lang, reg, max_rho); the harmonic-mean
    estimate is derived downstream (it is a float — the registers are
    the integer-exact contract the oracle checks).

    Scale shape: per-batch combiner (per-lang token dedup → hash →
    per-register max, ≤ 64·n_langs rows per block regardless of block
    size) → one bounded-cardinality ``groupby(lang, reg).max()``. No
    data-scaled exchange; the merge is HLL's register-wise max, which
    is exactly what makes the sketch cluster-friendly."""
    docs = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, g in df.groupby("lang"):
            words = set()
            for t in g["text"]:
                words.update(_WORD_RE.findall((t or "").lower()))
            if not words:
                continue
            reg, rho = hll_partial(md5_hash64(sorted(words)))
            m = pd.DataFrame({"reg": reg, "part_rho": rho}).groupby("reg", as_index=False)[
                "part_rho"
            ].max()
            m.insert(0, "lang", lang)
            out.append(m)
        if not out:
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype=object),
                    "reg": pd.Series([], dtype=np.int64),
                    "part_rho": pd.Series([], dtype=np.int64),
                }
            )
        return pd.concat(out, ignore_index=True)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": df["lang"].astype(object),
                "reg": df["reg"].to_numpy().astype(np.int64),
                "max_rho": df["max(part_rho)"].to_numpy().astype(np.int64),
            }
        )

    return (
        docs.map_batches(partial, batch_format="pandas")
        .groupby(["lang", "reg"])
        .max("part_rho")
        .map_batches(rename, batch_format="pandas")
    )


HLL_DISTINCT_SQL = rf"""
WITH w AS (
  SELECT lang, unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS tok
  FROM documents),
h AS (
  SELECT DISTINCT lang,
         CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS hv
  FROM w),
r AS (
  SELECT lang, CAST(hv >> {_HLL_REST_BITS} AS BIGINT) AS reg,
         CASE WHEN (hv & CAST({int(_HLL_REST_MASK)} AS UBIGINT)) = 0
              THEN {_HLL_REST_BITS + 1}
              ELSE {_HLL_REST_BITS + 1}
                   - length(bin(hv & CAST({int(_HLL_REST_MASK)} AS UBIGINT)))
         END AS rho
  FROM h)
SELECT lang, reg, CAST(MAX(rho) AS BIGINT) AS max_rho
FROM r GROUP BY lang, reg
"""


# ------------------------------------------------------ count-min sketch

CMS_DEPTH = 4
CMS_WIDTH = 1024


def q_cms_sketch(sf_dir: str, depth: int = CMS_DEPTH, width: int = CMS_WIDTH):
    """Count-min sketch (Cormode & Muthukrishnan 2005) of token
    OCCURRENCE frequencies: ``depth`` hash rows × ``width`` buckets,
    row j hashing with salt ``"{{j}}:"``. Emits (row_id, bucket,
    n_count) for every non-empty cell — the point estimate for a token
    is min over rows of its cell, an upper bound on the true count.

    Scale shape: per-batch combiner (``value_counts`` → salted hash →
    per-cell sum: ≤ depth·width rows per block) → coarse-hash exchange
    on the flat cell id → vectorized in-task sum. The sketch is
    ≤ {CMS_DEPTH * CMS_WIDTH} cells total regardless of corpus size —
    counts merge by addition, so this is the frequency sketch that
    survives any re-partitioning."""
    docs = _read(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.findall(_WORD_RE).explode().dropna()
        if toks.empty:
            return pd.DataFrame(
                {
                    "cell": pd.Series([], dtype=np.int64),
                    "part_n": pd.Series([], dtype=np.int64),
                }
            )
        vc = toks.value_counts()
        words = list(vc.index)
        counts = vc.to_numpy().astype(np.int64)
        cells, ns = [], []
        for j in range(depth):
            b = (md5_hash64([f"{j}:{w}" for w in words]) % np.uint64(width)).astype(
                np.int64
            )
            g = pd.DataFrame({"cell": j * width + b, "n": counts}).groupby(
                "cell", as_index=False
            )["n"].sum()
            cells.append(g["cell"].to_numpy())
            ns.append(g["n"].to_numpy())
        return pd.DataFrame(
            {
                "cell": np.concatenate(cells).astype(np.int64),
                "part_n": np.concatenate(ns).astype(np.int64),
            }
        )

    def sum_cells(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("cell", as_index=False)["part_n"].sum()
        return pd.DataFrame(
            {
                "row_id": (s["cell"] // width).to_numpy().astype(np.int64),
                "bucket": (s["cell"] % width).to_numpy().astype(np.int64),
                "n_count": s["part_n"].to_numpy().astype(np.int64),
            }
        )

    return (
        _with_coarse_group(docs.map_batches(partial, batch_format="pandas"), "cell")
        .groupby("_g")
        .map_groups(lambda g: sum_cells(g.drop(columns=["_g"])), batch_format="pandas")
    )


CMS_SKETCH_SQL = rf"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS tok
  FROM documents),
c AS (
  SELECT j.row_id,
         CAST(CAST(concat('0x', substr(md5(CAST(j.row_id AS VARCHAR) || ':' || tok), 1, 16))
              AS UBIGINT) % {CMS_WIDTH} AS BIGINT) AS bucket
  FROM tok, (SELECT unnest(range(0, {CMS_DEPTH})) AS row_id) j)
SELECT CAST(row_id AS BIGINT) AS row_id, bucket, CAST(COUNT(*) AS BIGINT) AS n_count
FROM c GROUP BY row_id, bucket
"""


# ------------------------------------------------- equi-depth histogram
#
# The equi-depth histogram of n_chars over N_CELLS cells of CELL_W
# chars: boundary t is the smallest cell whose cumulative count
# reaches t/B of the total (B = EQD_B). Each bucket carries its count
# and its quantized SSE against the bucket mean (sse_x100 =
# ⌊100·(len·Σf² − (Σf)²)/len⌋, exact integers in both engines).
#
# Scale shape: the 64-cell frequency vector is a bounded reduce (cells
# never exceed N_CELLS however large the corpus); the quantile sweep is
# driver math over those 64 counts.

N_CELLS = 64
CELL_W = 64  # cell = min(n_chars // CELL_W, N_CELLS - 1)
EQD_B = 8


def _cell_counts(sf_dir: str) -> np.ndarray:
    """Exact 64-cell frequency vector of n_chars (bounded reduce)."""
    d = _read(sf_dir, "documents", columns=["n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.minimum(
            df["n_chars"].to_numpy(np.int64) // CELL_W, N_CELLS - 1
        )
        s = pd.Series(c).value_counts()
        return pd.DataFrame(
            {"cell": s.index.to_numpy(np.int64), "n": s.to_numpy(np.int64)}
        )

    agg = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("cell")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    f = np.zeros(N_CELLS, np.int64)
    if len(agg):
        f[agg["cell"].to_numpy(np.int64)] = agg["n"].to_numpy(np.int64)
    return f


def _sse_x100(f: np.ndarray, j: int, i: int) -> int:
    """Quantized SSE of approximating cells j..i by their mean count."""
    seg = f[j : i + 1]
    ln = len(seg)
    s1 = int(seg.sum())
    s2 = int((seg * seg).sum())
    return (100 * (ln * s2 - s1 * s1)) // ln


_HIST_COLS = {
    "bucket": np.int64,
    "lo_cell": np.int64,
    "hi_cell": np.int64,
    "count_sum": np.int64,
    "sse_x100": np.int64,
}


def _hist_df(rows) -> pd.DataFrame:
    df = pd.DataFrame(
        rows, columns=["bucket", "lo_cell", "hi_cell", "count_sum", "sse_x100"]
    )
    return df.astype(_HIST_COLS)


_HIST_EMPTY = pd.DataFrame(
    {c: pd.Series(dtype=t) for c, t in _HIST_COLS.items()}
)


def q_equidepth_hist(sf_dir: str):
    if _n_rows(sf_dir, "documents") == 0:
        return _HIST_EMPTY
    f = _cell_counts(sf_dir)
    total = int(f.sum())
    cum = np.cumsum(f)
    bounds = []
    lo = 0
    for t in range(1, EQD_B + 1):
        if t == EQD_B:
            hi = N_CELLS - 1
        else:
            hi = int(np.searchsorted(cum, (total * t + EQD_B - 1) // EQD_B))
            hi = min(max(hi, lo), N_CELLS - 1)
        bounds.append((lo, hi))
        lo = min(hi + 1, N_CELLS - 1)
    rows = [
        (k, lo, hi, int(f[lo : hi + 1].sum()), _sse_x100(f, lo, hi))
        for k, (lo, hi) in enumerate(bounds)
    ]
    return _hist_df(rows)


def _equidepth_sql() -> str:
    head = f"""
WITH f0 AS (
  SELECT LEAST(n_chars // {CELL_W}, {N_CELLS - 1}) AS cell,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM documents GROUP BY 1),
cells AS (SELECT CAST(i.i AS BIGINT) AS cell
          FROM unnest(range(0, {N_CELLS})) AS i(i)),
f AS (
  SELECT cells.cell, CAST(COALESCE(f0.n, 0) AS BIGINT) AS n
  FROM cells LEFT JOIN f0 ON f0.cell = cells.cell),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM f),
cum AS (
  SELECT cell, n,
         CAST(SUM(n) OVER (ORDER BY cell) AS BIGINT) AS c
  FROM f)"""
    # boundary t: smallest cell with c >= ceil(total*t/B)
    bnds = []
    for t in range(1, EQD_B):
        bnds.append(
            f"""bd{t} AS (
  SELECT LEAST(COALESCE(MIN(cell), {N_CELLS - 1}), {N_CELLS - 1}) AS hi
  FROM cum, tot
  WHERE c >= (tot.total * {t} + {EQD_B - 1}) // {EQD_B})"""
        )
    # lo/hi chain with the CLAMPED hi feeding the next lo, exactly
    # like the Python sweep (nested expressions, 8 deep)
    los, his = ["CAST(0 AS BIGINT)"], []
    for t in range(1, EQD_B + 1):
        raw = (
            f"(SELECT hi FROM bd{t})"
            if t < EQD_B
            else f"CAST({N_CELLS - 1} AS BIGINT)"
        )
        hi = f"GREATEST(LEAST({raw}, {N_CELLS - 1}), {los[t - 1]})"
        his.append(hi)
        los.append(f"LEAST({hi} + 1, {N_CELLS - 1})")
    rows = []
    for k in range(EQD_B):
        rows.append(
            f"SELECT CAST({k} AS BIGINT) AS bucket, "
            f"CAST({los[k]} AS BIGINT) AS lo, "
            f"CAST({his[k]} AS BIGINT) AS hi"
        )
    tail = f"""
b AS ({" UNION ALL ".join(rows)}),
agg AS (
  SELECT b.bucket, b.lo, b.hi,
         CAST(SUM(f.n) AS BIGINT) AS cnt,
         CAST(100 * ((b.hi - b.lo + 1)
                     * SUM(CAST(f.n AS HUGEINT) * f.n)
                     - CAST(SUM(f.n) AS HUGEINT) * SUM(f.n))
              // (b.hi - b.lo + 1) AS BIGINT) AS s
  FROM b JOIN f ON f.cell BETWEEN b.lo AND b.hi
  GROUP BY 1, 2, 3)
SELECT bucket, lo AS lo_cell, hi AS hi_cell, cnt AS count_sum,
       s AS sse_x100
FROM agg
"""
    return head + ",\n" + ",\n".join(bnds) + ",\n" + tail


# ------------------------------------------------ threshold-algorithm top-k
#
# Fagin's TA on score(d) = x + y with two ranked lists (x desc, y
# desc): at depth r the threshold is T(r) = x_(r) + y_(r); TA stops at
# the smallest r where the k-th best score ≥ T(r). Output: the top-k
# (rank, doc_id, score) with the stop round attached — the audit
# number that says how much of each ranked list a fair TA run reads.
#
# Scale shape: top-k and the x/y prefixes come from head-R
# global_prunes with R DOUBLING until the stop condition falls inside
# the fetched prefix — the access pattern mirrors TA's own early stop;
# no full sorted list ever ships.

TA_K = 10


def _doc_xy(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, x = n_chars, y = distinct token count) — the two
    rankings topk_threshold scores over."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    tok_re = re.compile(TOK_RE)

    def xy(df: pd.DataFrame) -> pd.DataFrame:
        y = np.fromiter(
            (
                len(set(tok_re.findall(str(t).lower())))
                for t in df["text"]
            ),
            np.int64,
            len(df),
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "x": df["n_chars"].to_numpy(np.int64),
                "y": y,
            }
        )

    return d.map_batches(xy, batch_format="pandas")


_XY_SQL = rf"""
  SELECT doc_id, n_chars AS x,
         CAST(len(list_distinct(
              regexp_extract_all(lower(text), '{TOK_RE}'))) AS BIGINT) AS y
  FROM documents
"""


def q_topk_threshold(sf_dir: str):
    empty = pd.DataFrame(
        {
            "rank": pd.Series(dtype=np.int64),
            "doc_id": pd.Series(dtype=np.int64),
            "score": pd.Series(dtype=np.int64),
            "stop_round": pd.Series(dtype=np.int64),
        }
    )
    n = _n_rows(sf_dir, "documents")
    if n == 0:
        return empty
    xy = _doc_xy(sf_dir).materialize()  # feeds 3+ prunes

    def head_score(df: pd.DataFrame) -> pd.DataFrame:
        t = df.copy()
        t["score"] = t["x"] + t["y"]
        return t.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(TA_K)

    top = global_prune(xy, head_score)
    if not len(top):
        return empty
    kth = int(top["score"].iloc[min(TA_K, len(top)) - 1])

    def head_col(col: str, r: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.sort_values(
                [col, "doc_id"], ascending=[False, True], kind="mergesort"
            ).head(r)

        return fn

    stop = None
    r_fetch = max(TA_K, 16)
    while stop is None:
        r_fetch = min(r_fetch, n)
        xs = global_prune(xy, head_col("x", r_fetch))["x"].to_numpy(
            np.int64
        )
        ys = global_prune(xy, head_col("y", r_fetch))["y"].to_numpy(
            np.int64
        )
        depth = min(len(xs), len(ys))
        thr = xs[:depth] + ys[:depth]
        hit = np.flatnonzero(kth >= thr)
        if len(hit):
            stop = int(hit[0]) + 1
        elif r_fetch >= n:
            stop = n  # exhausted both lists
        else:
            r_fetch *= 2
    out = top.head(TA_K).copy().reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["stop_round"] = np.int64(stop)
    return out[["rank", "doc_id", "score", "stop_round"]].astype(np.int64)


TOPK_THRESHOLD_SQL = f"""
WITH t AS ({_XY_SQL}),
s AS (
  SELECT doc_id, x + y AS score,
         ROW_NUMBER() OVER (ORDER BY x + y DESC, doc_id ASC) AS rn
  FROM t),
kth AS (SELECT score AS kth FROM s WHERE rn = LEAST({TA_K}, (SELECT COUNT(*) FROM s))),
xr AS (SELECT x, ROW_NUMBER() OVER (ORDER BY x DESC, doc_id ASC) AS r FROM t),
yr AS (SELECT y, ROW_NUMBER() OVER (ORDER BY y DESC, doc_id ASC) AS r FROM t),
thr AS (
  SELECT xr.r, xr.x + yr.y AS tr FROM xr JOIN yr ON yr.r = xr.r),
stop AS (
  SELECT COALESCE(MIN(thr.r), (SELECT COUNT(*) FROM t)) AS stop_round
  FROM thr, kth WHERE kth.kth >= thr.tr)
SELECT CAST(s.rn AS BIGINT) AS rank, s.doc_id,
       CAST(s.score AS BIGINT) AS score,
       CAST(stop.stop_round AS BIGINT) AS stop_round
FROM s, stop WHERE s.rn <= {TA_K}
"""


# ---------------------------------------------------------- count-sketch
#
# Count-Sketch point estimation for the CS_TOPK highest-count tokens:
# C[j, h_j(t)] += sign_j(t)·c_t over d=3 rows × w=1024 buckets; the
# estimate for t is the MEDIAN over rows of sign_j(t)·C[j, h_j(t)]
# (median-of-3 computed as a+b+c − max − min: exact integers, no
# interpolating median). Output per top token: exact count, estimate,
# absolute error.
#
# Scale shape: the 3×1024 counter table is the only sketch state —
# per-batch signed partials → 3072-key bounded groupby; the top-K
# truth rides the coarse token exchange + global_prune.

CS_D = 3
CS_W = 1024
CS_TOPK = 10


def _batch_token_counts(df: pd.DataFrame, tok_re) -> pd.Series:
    toks = df["text"].astype(str).str.lower().str.findall(tok_re)
    flat = [t for lst in toks for t in lst]
    if not flat:
        return pd.Series(dtype=np.int64)
    return pd.Series(flat).value_counts()


def _exact_token_counts(sf_dir: str) -> ray.data.Dataset:
    """(token, c) exact global counts via ONE coarse token exchange."""
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = _batch_token_counts(df, tok_re)
        return pd.DataFrame(
            {
                "token": s.index.to_numpy(object),
                "c": s.to_numpy(np.int64),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        return t.groupby("token", as_index=False)["c"].sum()

    return (
        _with_coarse_group(
            d.map_batches(partial, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(combine, batch_format="pandas")
    )


def _sign(salt: str, j: int, token: str) -> int:
    return 1 if _md5_64(f"{salt}:{j}:{token}") % 2 == 0 else -1


def q_count_sketch(sf_dir: str):
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=object),
            "exact": pd.Series(dtype=np.int64),
            "estimate": pd.Series(dtype=np.int64),
            "abs_err": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(TOK_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = _batch_token_counts(df, tok_re)
        rows: dict[tuple, int] = {}
        for tok, c in s.items():
            for j in range(CS_D):
                h = _md5_64(f"csh:{j}:{tok}") % CS_W
                rows[(j, h)] = rows.get((j, h), 0) + _sign(
                    "css", j, tok
                ) * int(c)
        if not rows:
            return pd.DataFrame(
                {
                    "j": pd.Series(dtype=np.int64),
                    "h": pd.Series(dtype=np.int64),
                    "v": pd.Series(dtype=np.int64),
                }
            )
        ks = np.array(list(rows.keys()), np.int64)
        return pd.DataFrame(
            {
                "j": ks[:, 0],
                "h": ks[:, 1],
                "v": np.fromiter(rows.values(), np.int64, len(rows)),
            }
        )

    table = (
        d.map_batches(partial, batch_format="pandas")
        .groupby(["j", "h"])
        .aggregate(Sum("v", alias_name="v"))
        .to_pandas()  # <= CS_D * CS_W rows
    )
    cmap = {
        (int(r["j"]), int(r["h"])): int(r["v"]) for _, r in table.iterrows()
    }

    counts = _exact_token_counts(sf_dir)

    def head(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False)["c"].sum()
        return g.sort_values(
            ["c", "token"], ascending=[False, True], kind="mergesort"
        ).head(CS_TOPK)

    top = global_prune(counts, head)
    if not len(top):
        return empty
    rows = []
    for _, r in top.iterrows():
        tok = r["token"]
        ests = sorted(
            _sign("css", j, tok)
            * cmap.get((j, _md5_64(f"csh:{j}:{tok}") % CS_W), 0)
            for j in range(CS_D)
        )
        med = ests[CS_D // 2]
        exact = int(r["c"])
        rows.append((tok, exact, med, abs(med - exact)))
    out = pd.DataFrame(
        rows, columns=["token", "exact", "estimate", "abs_err"]
    )
    for c in ("exact", "estimate", "abs_err"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("token").reset_index(drop=True)


COUNT_SKETCH_SQL = rf"""
WITH t AS (
  SELECT unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS c FROM t GROUP BY 1),
cs AS (
  SELECT CAST(j.j AS BIGINT) AS j,
         {_md5u("'csh:' || CAST(j.j AS VARCHAR) || ':' || token")} % {CS_W}
           AS h,
         CAST(SUM(CASE WHEN {_md5u("'css:' || CAST(j.j AS VARCHAR) || ':' || token")} % 2 = 0
                       THEN c ELSE -c END) AS BIGINT) AS v
  FROM c, unnest(range(0, {CS_D})) AS j(j)
  GROUP BY 1, 2),
topk AS (
  SELECT token, c FROM (
    SELECT token, c, ROW_NUMBER() OVER (ORDER BY c DESC, token ASC) AS rn
    FROM c) WHERE rn <= {CS_TOPK}),
grid AS (
  SELECT k.token, k.c, CAST(j.j AS BIGINT) AS j
  FROM topk k, unnest(range(0, {CS_D})) AS j(j)),
ests AS (
  SELECT g.token, g.c,
         CASE WHEN {_md5u("'css:' || CAST(g.j AS VARCHAR) || ':' || g.token")} % 2 = 0
              THEN 1 ELSE -1 END
         * COALESCE(cs.v, 0) AS e
  FROM grid g
  LEFT JOIN cs ON cs.j = g.j
    AND cs.h = {_md5u("'csh:' || CAST(g.j AS VARCHAR) || ':' || g.token")} % {CS_W}),
med AS (
  SELECT token, c,
         CAST(SUM(e) - MAX(e) - MIN(e) AS BIGINT) AS estimate
  FROM ests GROUP BY 1, 2)
SELECT token, c AS exact, estimate,
       CAST(ABS(estimate - c) AS BIGINT) AS abs_err
FROM med
"""


SKETCH_SQL_QUERIES: dict[str, tuple] = {
    "hll_distinct": (q_hll_distinct, HLL_DISTINCT_SQL, "sketch"),
    "cms_sketch": (q_cms_sketch, CMS_SKETCH_SQL, "sketch"),
    "equidepth_hist": (q_equidepth_hist, _equidepth_sql(), "sketch"),
    "topk_threshold": (q_topk_threshold, TOPK_THRESHOLD_SQL, "sketch"),
    "count_sketch": (q_count_sketch, COUNT_SKETCH_SQL, "sketch"),
}
