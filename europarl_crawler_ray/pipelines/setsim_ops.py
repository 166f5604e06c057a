"""Set-similarity operators (round-5 batch 34): the AllPairs
rare-token Jaccard self-join (Bayardo, Ma & Srikant, WWW 2007), Apriori
frequent-2-itemset mining over doc token sets (Agrawal & Srikant, VLDB
1994), and token-level content-defined chunking (the gear/Rabin CDC
boundary rule used by dedup storage systems, LBFS Muthitacharoen et
al. SOSP 2001) — the candidate-pair / co-occurrence / chunk-boundary
trio a storage-aware dedup pipeline is built from.

Scale idioms: the pair join keys every exchange on data-scaled ids but
bounds fan-out by construction — a token only generates pairs while its
document frequency is ≤ DF_CAP, so one token emits ≤ C(DF_CAP,2) = 28
pair rows (the cap IS the skew guard: stopword-frequency tokens are
excluded by the df window, exactly as AllPairs' prefix filter excludes
them from candidate generation); itemset counting reduces to a 32×32
boolean Gram matrix per batch (M.T @ M — one BLAS call, ≤ 496 partial
keys total); CDC is a pure per-batch map whose only string-kernel cost
is one md5 per DISTINCT token per batch (cached), with per-doc chunk
stats vectorized over boundary positions.

Reference parity: the reference dedupes at whole-URL granularity only
(europarl/db/urls.py UNIQUE(rule, url)); these extend the brief's
dedup/storage families with pair-level and sub-document granularity.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .._util import read_table as _read
from ..stages.multimodal import _md5_64
from .grouping import global_prune, with_coarse_group as _with_coarse_group
from .ml_queries import _md5u

TOK_RE = r"[^ \t\n\r\f]+"


def _doc_tokens(sf_dir: str) -> ray.data.Dataset:
    """Distinct (doc_id, token) rows — each doc lives in one batch, so a
    per-batch distinct IS a per-doc distinct."""
    import re

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(TOK_RE)

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].astype(str).str.lower().str.findall(tok_re)
        n = toks.str.len().to_numpy(np.int64)
        out = pd.DataFrame(
            {
                "doc_id": np.repeat(df["doc_id"].to_numpy(np.int64), n),
                "token": np.concatenate(
                    [np.array(t, dtype=object) for t in toks]
                )
                if n.sum()
                else np.array([], dtype=object),
            }
        )
        return out.drop_duplicates()

    return d.map_batches(expand, batch_format="pandas")


# ===================================================== allpairs_jaccard
#
# Exact Jaccard self-join over each document's RARE-SHINGLE set (word
# 3-grams with document frequency in [DF_MIN, DF_CAP]) at threshold
# τ = 1/2: output every doc pair (a < b) with |R(a)∩R(b)| * 2 ≥
# |R(a)∪R(b)|. The df window is the AllPairs insight turned into a
# partitioning bound: a boilerplate shingle shared by thousands of
# docs can never certify a high-Jaccard pair on its own, and capping
# df caps the candidate fan-out per shingle at C(DF_CAP, 2) = 28
# regardless of corpus size. Shingles (not raw tokens) are the set
# elements because token vocabularies are tiny and universally shared
# — 3-gram shingles are near-unique except between near-duplicates,
# which is exactly the signal a similarity self-join exists to find.
#
# Scale shape: 3 coarse exchanges, all data-scaled with bounded
# per-key volume — (1) shingle-keyed: df filter + pair/size partial
# emission (≤ 28 pair rows per surviving shingle, vectorized through
# per-df triu index tables), (2) a-keyed: per-(a,b) intersection
# counts AND |R(a)| fold into ONE union-co-location group, (3)
# b-keyed: |R(b)| + the τ filter likewise (no separate pair- or
# size-aggregation shuffle; no broadcast of a data-scaled side). The
# partial table is materialized once — it feeds both attach unions.

SH_N = 3
DF_MIN = 2
DF_CAP = 8
JACC_NUM = 1  # τ = JACC_NUM / JACC_DEN
JACC_DEN = 2

_PAIR_EMPTY = pd.DataFrame(
    {
        "doc_a": pd.Series(dtype=np.int64),
        "doc_b": pd.Series(dtype=np.int64),
        "inter": pd.Series(dtype=np.int64),
        "uni": pd.Series(dtype=np.int64),
        "jacc_x100": pd.Series(dtype=np.int64),
    }
)


def _doc_shingles(sf_dir: str) -> ray.data.Dataset:
    """Distinct (doc_id, token=3-gram shingle) rows."""
    import re

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(TOK_RE)

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        ids, shs = [], []
        for did, text in zip(
            df["doc_id"].to_numpy(np.int64), df["text"].astype(str)
        ):
            ws = tok_re.findall(text.lower())
            if len(ws) < SH_N:
                continue
            uniq = {
                " ".join(ws[i : i + SH_N]) for i in range(len(ws) - SH_N + 1)
            }
            ids.extend([did] * len(uniq))
            shs.extend(uniq)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "token": np.asarray(shs, dtype=object),
            }
        )

    return d.map_batches(expand, batch_format="pandas")


def q_allpairs_jaccard(sf_dir: str):
    import pyarrow.parquet as _pq

    if _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows == 0:
        return _PAIR_EMPTY
    dt = _doc_shingles(sf_dir)

    # precomputed upper-triangle index tables, one per df in window
    _TRIU = {d: np.triu_indices(d, 1) for d in range(DF_MIN, DF_CAP + 1)}

    def token_stage(g: pd.DataFrame) -> pd.DataFrame:
        """Per rare token: emit C(df,2) pair partials (kind 0) and one
        size partial per member doc (kind 1). Vectorized: tokens with
        the same df are processed as ONE (n_tokens, df) matrix through
        a precomputed triu index table — no per-token Python loop."""
        t = g.drop(columns=["_g"])
        t = t.sort_values(["token", "doc_id"], kind="mergesort")
        df_per_row = t.groupby("token")["doc_id"].transform("size").to_numpy(
            np.int64
        )
        keep = (df_per_row >= DF_MIN) & (df_per_row <= DF_CAP)
        docs = t["doc_id"].to_numpy(np.int64)[keep]
        dfs = df_per_row[keep]
        out_a = [docs]  # size partials: one per kept (doc, token) row
        out_b = [np.full(len(docs), -1, np.int64)]
        out_k = [np.ones(len(docs), np.int64)]
        for d in range(DF_MIN, DF_CAP + 1):
            sel = dfs == d
            if not sel.any():
                continue
            m = docs[sel].reshape(-1, d)  # token-sorted doc matrix
            iu, ju = _TRIU[d]
            out_a.append(m[:, iu].ravel())
            out_b.append(m[:, ju].ravel())
            out_k.append(np.zeros(m.shape[0] * len(iu), np.int64))
        return pd.DataFrame(
            {
                "a": np.concatenate(out_a),
                "b": np.concatenate(out_b),
                "kind": np.concatenate(out_k),
            }
        )

    # materialize: `parts` feeds BOTH the size and the pair branches —
    # without the pin the shingle pass + token exchange re-execute per
    # consumer (and `sizes` feeds two attach stages downstream). The
    # pin is df-window-filtered (≤ C(DF_CAP,2)+DF_CAP rows per
    # surviving shingle), far smaller than the raw shingle stream; the
    # object store spills it under pressure at scale.
    parts = (
        _with_coarse_group(dt, "token")
        .groupby("_g")
        .map_groups(token_stage, batch_format="pandas")
        .materialize()
    )


    # Two union-co-location exchanges finish the job (pair counting and
    # size counting fold INTO the attach groups — a-keyed rows carry
    # both the raw pair partials and doc a's raw size partials, so no
    # separate pair- or size-aggregation shuffle exists):
    #   exchange A (key = a): inter = per-(a,b) row count,
    #                         size_a = count of doc a's kind-1 rows;
    #   exchange B (key = b): size_b likewise, then the τ filter.
    # Uniform 8-column schema keeps the unions schema-stable:
    # (key, side, a, b, inter, size_a, size_b, sz).
    COLS = ["key", "side", "a", "b", "inter", "size_a", "size_b", "sz"]

    def uniform(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({c: df.get(c, np.int64(0)) for c in COLS})
        return out.astype({c: np.int64 for c in COLS})

    def split_parts(df: pd.DataFrame) -> pd.DataFrame:
        pr = df[df["kind"] == 0]
        sz = df[df["kind"] == 1]
        return pd.concat(
            [
                uniform(
                    pd.DataFrame(
                        {
                            "key": pr["a"],
                            "side": np.int64(0),
                            "a": pr["a"],
                            "b": pr["b"],
                        }
                    )
                ),
                uniform(
                    pd.DataFrame({"key": sz["a"], "side": np.int64(1)})
                ),
            ],
            ignore_index=True,
        )

    def attach_a(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        sz = t[t["side"] == 1].groupby("key").size()
        pr = t[t["side"] == 0]
        if len(pr):
            agg = pr.groupby(["a", "b"], as_index=False).size()
            pr = pd.DataFrame(
                {
                    "key": agg["b"],  # re-key for exchange B
                    "side": np.int64(0),
                    "a": agg["a"],
                    "b": agg["b"],
                    "inter": agg["size"],
                    "size_a": agg["a"].map(sz).to_numpy(np.int64),
                }
            )
            pr = uniform(pr)
        else:
            pr = uniform(pr)
        return pr

    def size_rows_b(df: pd.DataFrame) -> pd.DataFrame:
        sz = df[df["kind"] == 1]
        return uniform(pd.DataFrame({"key": sz["a"], "side": np.int64(1)}))

    def attach_b(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        sz = t[t["side"] == 1].groupby("key").size()
        pr = t[t["side"] == 0].copy()
        if len(pr):
            pr["size_b"] = pr["key"].map(sz).to_numpy(np.int64)
        return pr[COLS].astype({c: np.int64 for c in COLS})

    step1 = (
        _with_coarse_group(
            parts.map_batches(split_parts, batch_format="pandas"), "key"
        )
        .groupby("_g")
        .map_groups(attach_a, batch_format="pandas")
    )
    step2 = (
        _with_coarse_group(
            step1.union(
                parts.map_batches(size_rows_b, batch_format="pandas")
            ),
            "key",
        )
        .groupby("_g")
        .map_groups(attach_b, batch_format="pandas")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return _PAIR_EMPTY
        inter = df["inter"].to_numpy(np.int64)
        uni = (
            df["size_a"].to_numpy(np.int64)
            + df["size_b"].to_numpy(np.int64)
            - inter
        )
        keep = inter * JACC_DEN >= uni * JACC_NUM
        return pd.DataFrame(
            {
                "doc_a": df["a"].to_numpy(np.int64)[keep],
                "doc_b": df["b"].to_numpy(np.int64)[keep],
                "inter": inter[keep],
                "uni": uni[keep],
                "jacc_x100": 100 * inter[keep] // uni[keep],
            }
        )

    return step2.map_batches(finish, batch_format="pandas")


ALLPAIRS_JACCARD_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents),
dt AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i.i AS INTEGER)] || ' ' || ws[CAST(i.i AS INTEGER) + 1]
           || ' ' || ws[CAST(i.i AS INTEGER) + 2] AS token
  FROM w, unnest(range(1, len(ws) - 1)) AS i(i)),
df AS (
  SELECT token, CAST(COUNT(*) AS BIGINT) AS df FROM dt GROUP BY 1),
rare AS (
  SELECT dt.doc_id, dt.token
  FROM dt JOIN df ON df.token = dt.token
  WHERE df.df BETWEEN {DF_MIN} AND {DF_CAP}),
sz AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS size FROM rare GROUP BY 1),
pr AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(COUNT(*) AS BIGINT) AS inter
  FROM rare a JOIN rare b
    ON b.token = a.token AND a.doc_id < b.doc_id
  GROUP BY 1, 2)
SELECT pr.doc_a, pr.doc_b, pr.inter,
       CAST(sa.size + sb.size - pr.inter AS BIGINT) AS uni,
       CAST(100 * pr.inter // (sa.size + sb.size - pr.inter) AS BIGINT)
         AS jacc_x100
FROM pr
JOIN sz sa ON sa.doc_id = pr.doc_a
JOIN sz sb ON sb.doc_id = pr.doc_b
WHERE pr.inter * {JACC_DEN} >= (sa.size + sb.size - pr.inter) * {JACC_NUM}
"""


# ======================================================== freq_itemsets
#
# Apriori restricted to the L1 head: the 32 highest-df tokens (ties by
# token asc) are the frequent singletons; every 2-itemset drawn from L1
# is counted exactly and kept when its support reaches
# max(2, n_docs // 50). Bounding L1 at 32 bounds the candidate space at
# C(32,2) = 496 keys AND the per-batch work at one 32×32 boolean Gram
# matrix — the Apriori candidate-pruning step made into a static
# partitioning guarantee.
#
# Scale shape: df pass (token-keyed partial counts → global_prune top
# 32, O(32) driver rows); counting pass is a pure per-batch map
# (membership matrix → M.T @ M) emitting ≤ 496 partial keys per batch
# into a bounded groupby.

L1_K = 32
MINSUP_DIV = 50

_ITEMSET_EMPTY = pd.DataFrame(
    {
        "t1": pd.Series(dtype=object),
        "t2": pd.Series(dtype=object),
        "support": pd.Series(dtype=np.int64),
    }
)


def q_freq_itemsets(sf_dir: str):
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    if n_docs == 0:
        return _ITEMSET_EMPTY
    minsup = max(2, n_docs // MINSUP_DIV)
    dt = _doc_tokens(sf_dir)

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("token").size()
        return pd.DataFrame(
            {"token": s.index.to_numpy(object), "c": s.to_numpy(np.int64)}
        )

    def dfg(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        s = t.groupby("token")["c"].sum()
        return pd.DataFrame(
            {"token": s.index.to_numpy(object), "df": s.to_numpy(np.int64)}
        )

    df_tbl = (
        _with_coarse_group(
            dt.map_batches(df_partial, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(dfg, batch_format="pandas")
    )

    def head(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["df", "token"], ascending=[False, True], kind="mergesort"
        ).head(L1_K)

    l1 = global_prune(df_tbl, head)
    if not len(l1):
        return _ITEMSET_EMPTY
    l1_tokens = sorted(l1["token"].tolist())  # lexicographic index order
    tok_idx = {t: i for i, t in enumerate(l1_tokens)}
    k = len(l1_tokens)

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    import re

    tok_re = re.compile(TOK_RE)

    def count_pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = np.zeros((len(df), k), dtype=np.int64)
        for r, text in enumerate(df["text"].astype(str)):
            for t in set(tok_re.findall(text.lower())):
                j = tok_idx.get(t)
                if j is not None:
                    m[r, j] = 1
        gram = m.T @ m  # co-occurrence counts, diagonal = singleton df
        iu, ju = np.triu_indices(k, 1)
        c = gram[iu, ju]
        nz = c > 0
        return pd.DataFrame(
            {
                "i": iu[nz].astype(np.int64),
                "j": ju[nz].astype(np.int64),
                "c": c[nz],
            }
        )

    agg = (
        d.map_batches(count_pairs, batch_format="pandas")
        .groupby(["i", "j"])
        .sum("c")
        .to_pandas()  # <= 496 rows
    )
    if not len(agg):
        return _ITEMSET_EMPTY
    col = "sum(c)" if "sum(c)" in agg.columns else "c"
    agg = agg[agg[col] >= minsup]
    out = pd.DataFrame(
        {
            "t1": [l1_tokens[int(i)] for i in agg["i"]],
            "t2": [l1_tokens[int(j)] for j in agg["j"]],
            "support": agg[col].to_numpy(np.int64),
        }
    )
    return out.sort_values(["t1", "t2"]).reset_index(drop=True)


FREQ_ITEMSETS_SQL = rf"""
WITH dt AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOK_RE}')) AS token
  FROM documents),
df AS (
  SELECT token, CAST(COUNT(*) AS BIGINT) AS df FROM dt GROUP BY 1),
l1 AS (
  SELECT token FROM (
    SELECT token,
           ROW_NUMBER() OVER (ORDER BY df DESC, token ASC) AS rn
    FROM df) WHERE rn <= {L1_K}),
m AS (
  SELECT dt.doc_id, dt.token FROM dt JOIN l1 ON l1.token = dt.token),
n AS (SELECT GREATEST(2, COUNT(*) // {MINSUP_DIV}) AS minsup FROM documents)
SELECT a.token AS t1, b.token AS t2,
       CAST(COUNT(*) AS BIGINT) AS support
FROM m a JOIN m b ON b.doc_id = a.doc_id AND a.token < b.token, n
GROUP BY 1, 2, n.minsup
HAVING COUNT(*) >= n.minsup
"""


# ===================================================== cdc_token_chunks
#
# Token-level content-defined chunking: a chunk boundary falls AFTER
# token j when md5_64('cdc:42:' || token_j) % CDC_D == 0 (expected
# chunk length CDC_D tokens), plus a forced boundary at end-of-doc —
# the LBFS/gear rule at word granularity, which keeps chunk boundaries
# stable under insertions (the property dedup storage and ExactSubstr
# sharding rely on). Output per doc: token count, chunk count, and the
# largest chunk.
#
# Scale shape: a pure per-batch map — no exchange at all; the md5 is
# evaluated once per DISTINCT token per batch (cached dict), and chunk
# stats come from vectorized diffs over boundary positions.

CDC_D = 16
CDC_SALT = "cdc:42:"

_CDC_EMPTY = pd.DataFrame(
    {
        "doc_id": pd.Series(dtype=np.int64),
        "n_tokens": pd.Series(dtype=np.int64),
        "n_chunks": pd.Series(dtype=np.int64),
        "max_chunk": pd.Series(dtype=np.int64),
    }
)


def q_cdc_chunks(sf_dir: str):
    import re

    import pyarrow.parquet as _pq

    if _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows == 0:
        return _CDC_EMPTY
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(TOK_RE)

    def chunks(df: pd.DataFrame) -> pd.DataFrame:
        cache: dict[str, bool] = {}

        def is_cut(tok: str) -> bool:
            v = cache.get(tok)
            if v is None:
                v = _md5_64(CDC_SALT + tok) % CDC_D == 0
                cache[tok] = v
            return v

        ids = df["doc_id"].to_numpy(np.int64)
        nt = np.zeros(len(df), np.int64)
        nc = np.zeros(len(df), np.int64)
        mx = np.zeros(len(df), np.int64)
        for r, text in enumerate(df["text"].astype(str)):
            toks = tok_re.findall(text.lower())
            n = len(toks)
            nt[r] = n
            if n == 0:
                continue
            cuts = np.fromiter(
                (is_cut(t) for t in toks), dtype=bool, count=n
            )
            cuts[n - 1] = True
            pos = np.flatnonzero(cuts) + 1  # 1-based boundary positions
            lens = np.diff(np.concatenate(([0], pos)))
            nc[r] = len(pos)
            mx[r] = int(lens.max())
        return pd.DataFrame(
            {"doc_id": ids, "n_tokens": nt, "n_chunks": nc, "max_chunk": mx}
        )

    return d.map_batches(chunks, batch_format="pandas")


CDC_CHUNKS_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents),
u AS (
  SELECT doc_id, CAST(i.i AS BIGINT) AS j,
         ws[CAST(i.i AS INTEGER)] AS tok, CAST(len(ws) AS BIGINT) AS n
  FROM w, unnest(range(1, len(ws) + 1)) AS i(i)),
b AS (
  SELECT doc_id, j, n FROM u
  WHERE {_md5u(f"'{CDC_SALT}' || tok")} % {CDC_D} = 0 OR j = n),
c AS (
  SELECT doc_id,
         j - COALESCE(LAG(j) OVER (PARTITION BY doc_id ORDER BY j), 0)
           AS clen
  FROM b),
agg AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_chunks,
         CAST(MAX(clen) AS BIGINT) AS max_chunk
  FROM c GROUP BY 1)
SELECT w.doc_id,
       CAST(len(w.ws) AS BIGINT) AS n_tokens,
       CAST(COALESCE(agg.n_chunks, 0) AS BIGINT) AS n_chunks,
       CAST(COALESCE(agg.max_chunk, 0) AS BIGINT) AS max_chunk
FROM w LEFT JOIN agg ON agg.doc_id = w.doc_id
"""


SETSIM_SQL_QUERIES: dict[str, tuple] = {
    "allpairs_jaccard": (q_allpairs_jaccard, ALLPAIRS_JACCARD_SQL),
    "freq_itemsets": (q_freq_itemsets, FREQ_ITEMSETS_SQL),
    "cdc_token_chunks": (q_cdc_chunks, CDC_CHUNKS_SQL),
}
