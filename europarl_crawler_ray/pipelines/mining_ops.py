"""Corpus-mining operators: redirect-chain resolution by pointer
doubling, DSIR-style hashed n-gram importance scoring, and mergeable
Misra-Gries heavy hitters with an exact second pass.

Reference parity: the crawler resolves HTTP 3xx chains before frontier
insertion (reference: europarl-crawler frontier/url handling); the
importance-resampling and heavy-hitter ops are training-data additions
(DSIR, Xie et al. 2023; Misra-Gries 1982 / Agarwal et al. "Mergeable
Summaries" 2013). All SQL-oracled; scale idioms per pipelines/grouping.py.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

import pyarrow.compute as pc

from .._util import read_table as _read
from .grouping import compact_small as _compact_small
from .grouping import with_coarse_group as _with_coarse_group
from .ml_queries import _md5u


def _pending_count(state: ray.data.Dataset) -> int:
    """Scalar count of not-yet-resolved rows via per-block partial sums
    (never collects rows to the driver)."""

    def part(t: pa.Table) -> pa.Table:
        n = pc.sum(pc.cast(pc.invert(t.column("done")), pa.int64())).as_py()
        return pa.table({"n": pa.array([n or 0], pa.int64())})

    res = state.map_batches(part, batch_format="pyarrow").sum("n")
    return int(res or 0)


def _md5_u64(prefix: str, ids: np.ndarray) -> np.ndarray:
    """The repo's md5-uint64 hash family (matches SQL _md5u), vectorized
    over an int array: h = int(md5(prefix||id)[:16], 16)."""
    return np.fromiter(
        (
            int(hashlib.md5(f"{prefix}{int(i)}".encode()).hexdigest()[:16], 16)
            for i in ids
        ),
        dtype=np.uint64,
        count=len(ids),
    )


# ================================================ redirect chain resolution
#
# The synthetic redirect graph over documents: ~2% of pages self-loop
# (classic misconfigured canonical-URL trap), a further ~25% 301 to an
# md5-uniform target page; the rest are terminal content pages. A
# crawler must resolve every chain to its final landing page (or flag
# the loop) before frontier dedup, else each alias is fetched separately.

REDIRECT_HOP_CAP = 32  # chains longer than this are treated as loops
_REDIRECT_ROUNDS = 9  # 2^9 = 512 doubling reach >> any true chain here


def _redirect_nodes(sf_dir: str) -> tuple[ray.data.Dataset, int]:
    docs = _read(sf_dir, "documents", columns=["doc_id"])
    n_docs = docs.count()  # parquet metadata, no scan

    def build(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        self_loop = _md5_u64("rcy:", ids) % 50 == 0
        plain = _md5_u64("rdr:", ids) % 4 == 0
        is_r = self_loop | plain
        tgt = (_md5_u64("rtg:", ids) % np.uint64(max(n_docs, 1))).astype(np.int64)
        tgt = np.where(self_loop, ids, tgt)
        # pointer-doubling state: succ = 2^k-step-ahead pointer, dist =
        # hops covered by succ, done = succ is the final landing page
        return pa.table(
            {
                "id": pa.array(ids),
                "orig_r": pa.array(is_r),
                "succ": pa.array(np.where(is_r, tgt, ids)),
                "dist": pa.array(np.where(is_r, 1, 0).astype(np.int64)),
                "done": pa.array(~is_r),
            }
        )

    return docs.map_batches(build, batch_format="pyarrow"), n_docs


def q_redirect_resolve(sf_dir: str):
    """(src_id, final_id, n_hops, status) for every redirect page:
    follow 301 pointers to the terminal page ('ok', hop count) or flag
    chains that do not terminate within REDIRECT_HOP_CAP hops ('cycle',
    final_id = n_hops = -1).

    Scale shape: PARALLEL POINTER DOUBLING, not per-row walking — each
    round every unresolved page jumps to its successor's current
    pointer, so reach doubles per round and the whole frontier resolves
    in O(log L) bucket exchanges (L = longest chain) instead of O(L)
    sequential lookups. Each round is one coarse-hash exchange
    (grouping.py) co-locating lookups with the pointer snapshot; the
    driver only sees the per-round pending COUNT (one scalar aggregate)
    and rounds are capped at 9 (2^9 reach ≫ the 32-hop cap), so cycles
    cannot loop the job."""
    state, _ = _redirect_nodes(sf_dir)
    state = state.materialize()

    def roles(t: pa.Table) -> pa.Table:
        # every node contributes its pointer record as the INDEX role
        # (keyed by id); pending nodes also emit a QUERY role keyed by
        # their current succ — one flat stream, so each round is exactly
        # one exchange with a stable block count (no per-round unions)
        idx = t.append_column("_k", t.column("id")).append_column(
            "_q", pa.array(np.zeros(t.num_rows, dtype=bool))
        )
        pend = t.filter(pc.invert(t.column("done")))
        qry = pend.append_column("_k", pend.column("succ")).append_column(
            "_q", pa.array(np.ones(pend.num_rows, dtype=bool))
        )
        return pa.concat_tables([idx, qry])

    _OUT = ["id", "orig_r", "succ", "dist", "done"]

    def jump(g: pd.DataFrame) -> pd.DataFrame:
        idx = g[~g["_q"]]
        q = g[g["_q"]]
        # done nodes are emitted once, from their index role; pending
        # nodes are emitted once, updated, from their query role
        keep = idx.loc[idx["done"], _OUT]
        if len(q) == 0:
            return keep.reset_index(drop=True)
        rec = idx.set_index("id")[["succ", "dist", "done"]]
        j = q.join(rec, on="succ", rsuffix="_r")
        upd = pd.DataFrame(
            {
                "id": j["id"].to_numpy(np.int64),
                "orig_r": j["orig_r"].to_numpy(bool),
                "succ": j["succ_r"].to_numpy(np.int64),
                "dist": (j["dist"] + j["dist_r"]).to_numpy(np.int64),
                "done": j["done_r"].to_numpy(bool),
            }
        )
        # dist > cap is already a 'cycle' verdict whatever the pointer
        # eventually resolves to (the SQL walk stops at the cap too), so
        # freeze the row — this is what bounds the loop at O(log cap)
        # rounds even when the graph contains real cycles
        upd.loc[upd["dist"] > REDIRECT_HOP_CAP, "done"] = True
        return pd.concat([keep, upd], ignore_index=True)

    for _ in range(_REDIRECT_ROUNDS):
        # cheap scalar: rows still carrying an unresolved pointer
        if _pending_count(state) == 0:
            break
        state = (
            _with_coarse_group(
                state.map_batches(roles, batch_format="pyarrow"), "_k", n=32
            )
            .groupby("_g")
            .map_groups(
                lambda g: jump(g.drop(columns=["_g", "_k"])), batch_format="pandas"
            )
            .materialize()
        )

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["orig_r"]]
        ok = df["done"].to_numpy(bool) & (
            df["dist"].to_numpy(np.int64) <= REDIRECT_HOP_CAP
        )
        return pa.table(
            {
                "src_id": pa.array(df["id"].to_numpy(np.int64)),
                "final_id": pa.array(
                    np.where(ok, df["succ"].to_numpy(np.int64), -1)
                ),
                "n_hops": pa.array(
                    np.where(ok, df["dist"].to_numpy(np.int64), -1)
                ),
                "status": pa.array(np.where(ok, "ok", "cycle")),
            }
        )

    return state.map_batches(finish, batch_format="pyarrow")


REDIRECT_RESOLVE_SQL = f"""
WITH RECURSIVE node AS (
  SELECT doc_id,
    ({_md5u("'rcy:' || CAST(doc_id AS VARCHAR)")} % 50 = 0
     OR {_md5u("'rdr:' || CAST(doc_id AS VARCHAR)")} % 4 = 0) AS is_r,
    CASE WHEN {_md5u("'rcy:' || CAST(doc_id AS VARCHAR)")} % 50 = 0 THEN doc_id
         ELSE CAST({_md5u("'rtg:' || CAST(doc_id AS VARCHAR)")}
                   % (SELECT COUNT(*) FROM documents) AS BIGINT)
    END AS tgt
  FROM documents
),
walk AS (
  SELECT doc_id AS src, tgt AS cur, CAST(1 AS BIGINT) AS hops
  FROM node WHERE is_r
  UNION ALL
  SELECT w.src, nd.tgt, w.hops + 1
  FROM walk w JOIN node nd ON nd.doc_id = w.cur
  WHERE nd.is_r AND w.hops < {REDIRECT_HOP_CAP}
),
resolved AS (
  SELECT w.src, w.cur AS final_id, w.hops
  FROM walk w JOIN node nd ON nd.doc_id = w.cur
  WHERE NOT nd.is_r
)
SELECT n0.doc_id AS src_id,
  COALESCE(r.final_id, -1) AS final_id,
  COALESCE(r.hops, -1) AS n_hops,
  CASE WHEN r.src IS NULL THEN 'cycle' ELSE 'ok' END AS status
FROM node n0 LEFT JOIN resolved r ON r.src = n0.doc_id
WHERE n0.is_r
"""


# ======================================= DSIR hashed importance resampling
#
# Data Selection via Importance Resampling (Xie et al. 2023): score each
# raw document by how much its hashed n-gram profile resembles a curated
# target corpus, then keep the top slice. This integer-exact variant
# scores each token occurrence by the target's share of that feature
# bucket, floor(1e6 * cnt_target / cnt_all) — rank-equivalent to the
# target/raw probability ratio, but IEEE-free so the oracle is exact.

DSIR_BUCKETS = 4096
DSIR_TOPK = 100
_DSIR_SCALE = 1_000_000


def _dsir_target_mask(ids: np.ndarray) -> np.ndarray:
    # stand-in for the curated target corpus: a deterministic 1/8 sample
    return _md5_u64("dsirT:", ids) % 8 == 0


class _DsirTokens:
    """Per-batch tokenize + feature-hash, with a per-actor cache of
    token→bucket (vocab is heavy-tailed: the cache hits almost always)."""

    def __init__(self):
        self._cache: dict[str, np.uint64] = {}

    def buckets(self, toks: pd.Series) -> np.ndarray:
        cache = self._cache
        out = np.empty(len(toks), dtype=np.uint64)
        for i, tok in enumerate(toks.to_numpy()):
            b = cache.get(tok)
            if b is None:
                b = (
                    int(hashlib.md5(f"dsirF:{tok}".encode()).hexdigest()[:16], 16)
                    % DSIR_BUCKETS
                )
                cache[tok] = b
            out[i] = b
        return out

    @staticmethod
    def explode(df: pd.DataFrame) -> pd.Series:
        return (
            df.set_index("doc_id")["text"]
            .str.lower()
            .str.findall(r"[^ \t\n\r\f]+")
            .explode()
            .dropna()
        )


def q_dsir_score(sf_dir: str):
    """(doc_id, score): DSIR-style target-affinity score per document;
    top-{DSIR_TOPK} by (score DESC, doc_id). Docs with no tokens score 0.

    Scale shape: pass 1 builds the per-bucket (cnt_all, cnt_target)
    table — per-batch combiner rows are bounded by the FIXED bucket
    space (4096), so the repartition(1) merge and the driver collect are
    O(buckets), independent of corpus size. The bucket table is then
    ray.put-broadcast once and pass 2 rescans documents scoring each
    batch vectorized against the shared arrays; the top-k leaves via the
    per-block-prune → single-combine path (grouping.global_prune
    contract). No shuffle touches a data-scaled key."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok = _DsirTokens()

    def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = tok.explode(df)
        if len(toks) == 0:
            return pd.DataFrame(
                {
                    "f": pd.Series(dtype=np.int64),
                    "part_a": pd.Series(dtype=np.int64),
                    "part_t": pd.Series(dtype=np.int64),
                }
            )
        f = tok.buckets(toks).astype(np.int64)
        is_t = _dsir_target_mask(toks.index.to_numpy().astype(np.int64))
        g = pd.DataFrame({"f": f, "part_a": 1, "part_t": is_t.astype(np.int64)})
        out = g.groupby("f", as_index=False).sum()
        return out.astype({"f": np.int64, "part_a": np.int64, "part_t": np.int64})

    def bucket_merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        return df.groupby("f", as_index=False)[["part_a", "part_t"]].sum()

    partial = d.map_batches(bucket_partial, batch_format="pandas")
    merged = (
        partial.repartition(1).map_batches(bucket_merge, batch_format="pandas")
    ).to_pandas()

    cnt_a = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    cnt_t = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    if len(merged):
        cnt_a[merged["f"].to_numpy(np.int64)] = merged["part_a"].to_numpy(np.int64)
        cnt_t[merged["f"].to_numpy(np.int64)] = merged["part_t"].to_numpy(np.int64)
    stats_ref = ray.put((cnt_a, cnt_t))

    class Scorer:
        def __init__(self):
            self.cnt_a, self.cnt_t = ray.get(stats_ref)
            self.tok = _DsirTokens()

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            toks = self.tok.explode(df)
            base = pd.DataFrame(
                {
                    "doc_id": df["doc_id"].to_numpy(np.int64),
                    "score": np.zeros(len(df), dtype=np.int64),
                }
            )
            if len(toks) == 0:
                return base
            f = self.tok.buckets(toks).astype(np.int64)
            contrib = _DSIR_SCALE * self.cnt_t[f] // self.cnt_a[f]
            per_doc = (
                pd.DataFrame({"doc_id": toks.index.to_numpy(np.int64), "c": contrib})
                .groupby("doc_id")["c"]
                .sum()
            )
            base["score"] = (
                base["doc_id"].map(per_doc).fillna(0).to_numpy(np.int64)
            )
            return base

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "score" not in df.columns:
            # repartition(1) of an empty dataset hands the prune fn a
            # column-less empty frame (grouping.global_prune contract)
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "score": pd.Series(dtype=np.int64),
                }
            )
        return df.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(DSIR_TOPK)

    from .grouping import global_prune

    # autoscaling pool: a FIXED pool of size >= the session's CPU count
    # would reserve every core and starve the downstream repartition
    # (observed as a live-lock under the 4-CPU test fixture)
    scored = d.map_batches(Scorer, batch_format="pandas", concurrency=(1, 4))
    return global_prune(scored, prune)


DSIR_SCORE_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents
),
feat AS (
  SELECT doc_id,
         CAST({_md5u("'dsirF:' || token")} % {DSIR_BUCKETS} AS BIGINT) AS f
  FROM tok
),
cnts AS (
  SELECT f,
    CAST(COUNT(*) AS BIGINT) AS cnt_a,
    CAST(COUNT(*) FILTER (
      WHERE {_md5u("'dsirT:' || CAST(doc_id AS VARCHAR)")} % 8 = 0
    ) AS BIGINT) AS cnt_t
  FROM feat GROUP BY f
),
scored AS (
  SELECT feat.doc_id,
         SUM({_DSIR_SCALE} * c.cnt_t // c.cnt_a) AS score
  FROM feat JOIN cnts c USING (f) GROUP BY feat.doc_id
)
SELECT d.doc_id, CAST(COALESCE(s.score, 0) AS BIGINT) AS score
FROM documents d LEFT JOIN scored s ON s.doc_id = d.doc_id
ORDER BY score DESC, d.doc_id ASC
LIMIT {DSIR_TOPK}
"""


# ====================================== Misra-Gries heavy hitters (exact)
#
# Stream = a deterministic Zipf(~2) item stream derived from event_id:
# item = M // (1 + md5u('hh:'||event_id) % M), so P(item=j) ~ 1/(j(j+1))
# — item 1 carries ~half the stream, the tail is ~10^6 distinct items.
# A Misra-Gries summary per block (exact in-block counts truncated to k
# counters by subtracting the (k+1)-th largest) is MERGEABLE with
# undercount <= N/(k+1) (Agarwal et al. 2013), so the merged candidate
# set provably contains every item with true frequency > N/k; a second
# exact pass restricted to the candidates makes the output EXACT.

HH_M = 1 << 20
HH_K = 64
_HH_CAPACITY = 2 * HH_K  # summary capacity; extra margin over the bound


def _hh_items(event_ids: np.ndarray) -> np.ndarray:
    h = _md5_u64("hh:", event_ids) % np.uint64(HH_M)
    return (np.uint64(HH_M) // (h + np.uint64(1))).astype(np.int64)


def _mg_truncate(df: pd.DataFrame, cap: int = _HH_CAPACITY) -> pd.DataFrame:
    """Reduce exact/merged (item, part_n) counts to a Misra-Gries
    summary of <= cap counters: sum per item, subtract the (cap+1)-th
    largest count from all, keep positive."""
    if len(df) == 0 or "item" not in df.columns:
        return pd.DataFrame(
            {"item": pd.Series(dtype=np.int64), "part_n": pd.Series(dtype=np.int64)}
        )
    g = df.groupby("item", as_index=False)["part_n"].sum()
    if len(g) > cap:
        counts = np.sort(g["part_n"].to_numpy(np.int64))[::-1]
        off = counts[cap]
        g["part_n"] = g["part_n"] - off
        g = g[g["part_n"] > 0]
    return g.astype({"item": np.int64, "part_n": np.int64})


def q_heavy_hitters(sf_dir: str):
    """(item, cnt): EXACT counts of every stream item with frequency
    > N/{HH_K}, found without ever shuffling the full item space.

    Scale shape: pass 1 builds a per-block Misra-Gries summary (exact
    in-block value_counts truncated to 2k counters — a vectorized
    sort/subtract, no Python loop) and merges the O(blocks * k) summary
    rows in one repartition(1) task, so the driver receives <= 2k
    candidate rows regardless of stream size. The mergeable-summary
    bound guarantees the candidates cover all true heavy hitters; pass 2
    re-scans with the candidate set broadcast (ray.put once) and counts
    ONLY candidate items exactly — per-block partials are <= 2k rows, so
    the final merge is O(blocks * k) again, never O(distinct items)."""
    ev = _read(sf_dir, "events", columns=["event_id"])
    n_total = ev.count()

    def mg_partial(df: pd.DataFrame) -> pd.DataFrame:
        items = _hh_items(df["event_id"].to_numpy().astype(np.int64))
        vc = pd.Series(items).value_counts()
        return _mg_truncate(
            pd.DataFrame(
                {"item": vc.index.to_numpy(np.int64), "part_n": vc.to_numpy(np.int64)}
            )
        )

    candidates = (
        ev.map_batches(mg_partial, batch_format="pandas")
        .repartition(1)
        .map_batches(_mg_truncate, batch_format="pandas")
        .to_pandas()
    )
    if "item" not in candidates.columns:  # zero-block input
        candidates = _mg_truncate(pd.DataFrame())
    cand_ref = ray.put(np.sort(candidates["item"].to_numpy(np.int64)))

    class ExactPass:
        def __init__(self):
            self.cand = ray.get(cand_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            items = _hh_items(df["event_id"].to_numpy().astype(np.int64))
            keep = items[np.isin(items, self.cand)]
            vc = pd.Series(keep).value_counts()
            return pd.DataFrame(
                {"item": vc.index.to_numpy(np.int64), "cnt": vc.to_numpy(np.int64)}
            )

    def exact_merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "item" not in df.columns:
            return pd.DataFrame(
                {"item": pd.Series(dtype=np.int64), "cnt": pd.Series(dtype=np.int64)}
            )
        return df.groupby("item", as_index=False)["cnt"].sum()

    exact = (
        ev.map_batches(ExactPass, batch_format="pandas", concurrency=(1, 4))
        .repartition(1)
        .map_batches(exact_merge, batch_format="pandas")
        .to_pandas()
    )
    if "item" not in exact.columns:
        exact = pd.DataFrame(
            {"item": pd.Series(dtype=np.int64), "cnt": pd.Series(dtype=np.int64)}
        )
    out = exact[exact["cnt"].to_numpy(np.int64) * HH_K > n_total]
    return (
        out.sort_values(["cnt", "item"], ascending=[False, True], kind="mergesort")
        .reset_index(drop=True)
        .astype({"item": np.int64, "cnt": np.int64})
    )


HEAVY_HITTERS_SQL = f"""
WITH stream AS (
  SELECT CAST(
    CAST({HH_M} AS UBIGINT)
    // (CAST(1 AS UBIGINT) + {_md5u("'hh:' || CAST(event_id AS VARCHAR)")} % {HH_M})
  AS BIGINT) AS item
  FROM events
),
c AS (SELECT item, CAST(COUNT(*) AS BIGINT) AS cnt FROM stream GROUP BY item)
SELECT item, cnt FROM c
WHERE cnt * {HH_K} > (SELECT COUNT(*) FROM events)
ORDER BY cnt DESC, item ASC
"""


# ================================================= SemDeDup (cluster dedup)
#
# Semantic dedup (SemDeDup, Abbas et al. 2023): cluster the embedding
# space coarsely, then drop within-cluster semantic near-duplicates by
# cosine. Deterministic variant: the cluster centroids are the IVF
# md5-smallest sample (same scheme as ann_ivf, ml_queries.py:1366) and
# the keep rule is canonical-min-id — a vector is dropped iff a
# lower-id vector in its cluster has cosine >= tau with it.

SEMDEDUP_TAU = 0.45
_SEMDEDUP_QTAU = int(round(SEMDEDUP_TAU * 1000))  # floor(1000x) comparison
SEMDEDUP_CELLS = 16


def q_semdedup(sf_dir: str):
    """(vec_id, cell, kept): cluster assignment plus the SemDeDup keep
    verdict per embedding (zero-norm vectors excluded, as everywhere in
    the ANN family).

    Scale shape: centroid selection is the shuffle-free md5 sample
    through global_prune (O(cells) driver rows); assignment is one
    vectorized matmul per batch against the broadcast centroid matrix;
    the dedup itself exchanges each vector ONCE keyed by its cell and
    runs the pairwise cosine inside the cell task. Partitioning
    assumption: one cell's vectors fit one task — at 100 TB raise
    SEMDEDUP_CELLS so cells stay bounded (SemDeDup itself uses ~100k
    clusters for exactly this reason); cost is sum of cell^2, so more
    cells is also FASTER."""
    import hashlib as _hl

    from .grouping import global_prune

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def cent_candidates(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "vec_id" not in df.columns:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series([], dtype=np.int64),
                    "md5": pd.Series([], dtype=object),
                    "embedding": pd.Series([], dtype=object),
                }
            )
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        ok = np.linalg.norm(mat, axis=1) > 0
        df = df[ok]
        md5s = np.array(
            [_hl.md5(str(int(v)).encode()).hexdigest() for v in df["vec_id"]]
        )
        keep = np.argsort(md5s)[:SEMDEDUP_CELLS]
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy()[keep],
                "md5": md5s[keep],
                "embedding": df["embedding"].to_numpy()[keep],
            }
        )

    cands = global_prune(emb, cent_candidates, batch_format="pandas")
    empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "cell": pa.array([], pa.int64()),
            "kept": pa.array([], pa.bool_()),
        }
    )
    if cands.empty:
        return ray.data.from_arrow(empty)
    # ascending cid order so argmax's first-max tie-break = `c.cid ASC`
    cent_df = (
        cands.sort_values("md5").head(SEMDEDUP_CELLS).sort_values("vec_id")
    )
    cids = cent_df["vec_id"].to_numpy(np.int64)
    cent = np.stack(cent_df["embedding"].to_numpy()).astype(np.float64)
    cent = cent / np.linalg.norm(cent, axis=1, keepdims=True)
    cref = ray.put((cids, cent))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        cids_, ct = ray.get(cref)
        if not len(df):
            return pd.DataFrame(
                {
                    "vec_id": pd.Series(dtype=np.int64),
                    "cell": pd.Series(dtype=np.int64),
                    "vec": pd.Series(dtype=object),
                }
            )
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        ok = norms[:, 0] > 0
        df, mat, norms = df[ok], mat[ok], norms[ok]
        matn = mat / norms
        # floor(1000x)-quantized cosine so the argmax decision is the
        # same integer comparison DuckDB's oracle makes (tie -> smallest
        # cid: cids_ sorted ASC + argmax-first == ROW_NUMBER cid ASC)
        cell = cids_[np.floor(1000.0 * (matn @ ct.T)).argmax(axis=1)]
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(np.int64),
                "cell": cell.astype(np.int64),
                "vec": [v.tobytes() for v in matn],
            }
        )

    def dedup_cell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy(np.int64)
        mat = np.stack([np.frombuffer(v, dtype=np.float64) for v in g["vec"]])
        qsims = np.floor(1000.0 * (mat @ mat.T))
        # dropped iff ANY lower-id vector in the cell is >= tau similar
        # (quantized-integer comparison, identical in the SQL oracle)
        dup = (np.triu(qsims >= _SEMDEDUP_QTAU, k=1)).any(axis=0)
        return pd.DataFrame(
            {
                "vec_id": ids,
                "cell": g["cell"].to_numpy(np.int64),
                "kept": ~dup,
            }
        )

    # cell cardinality is the FIXED SEMDEDUP_CELLS — direct groupby is fine
    return (
        emb.map_batches(assign, batch_format="pandas")
        .groupby("cell")
        .map_groups(dedup_cell, batch_format="pandas")
    )


SEMDEDUP_SQL = f"""
WITH d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
           WHERE list_inner_product(CAST(embedding AS DOUBLE[]),
                                    CAST(embedding AS DOUBLE[])) > 0),
cent AS (SELECT vec_id AS cid, e FROM d
         ORDER BY md5(CAST(vec_id AS VARCHAR)) LIMIT {SEMDEDUP_CELLS}),
cells AS (
  SELECT vec_id, cid AS cell FROM (
    SELECT d.vec_id, c.cid,
           ROW_NUMBER() OVER (PARTITION BY d.vec_id
                              ORDER BY floor(1000 * list_cosine_similarity(d.e, c.e)) DESC,
                                       c.cid ASC) AS rn
    FROM d CROSS JOIN cent c) WHERE rn = 1)
SELECT ce.vec_id, CAST(ce.cell AS BIGINT) AS cell,
  NOT EXISTS (
    SELECT 1 FROM cells ce2 JOIN d d2 ON d2.vec_id = ce2.vec_id
    WHERE ce2.cell = ce.cell AND ce2.vec_id < ce.vec_id
      AND floor(1000 * list_cosine_similarity(
            (SELECT e FROM d WHERE d.vec_id = ce.vec_id), d2.e
          )) >= {_SEMDEDUP_QTAU}
  ) AS kept
FROM cells ce
"""


# ============================================ MMR diversity re-ranking
#
# Maximal Marginal Relevance (Carbonell & Goldstein 1998) as the
# standard retrieve-then-rerank: a DISTRIBUTED top-P candidate pass by
# query similarity, then the greedy diversity re-rank on the bounded
# pool. All similarity math is integer dot products over
# floor(x*1000+0.5)-quantized embeddings (the repo's exact-cents
# convention lifted to vectors), so greedy argmax decisions are
# bit-identical in Ray and DuckDB — no IEEE summation-order hazard.

MMR_POOL = 64  # stage-1 candidates
MMR_K = 8  # final selections
MMR_QUERY_VEC = 0  # the query is embedding vec_id 0


def _quant_vec(mat: np.ndarray) -> np.ndarray:
    """floor(x*1000 + 0.5) per element in float64 — identical op order
    to the SQL list_transform."""
    return np.floor(mat.astype(np.float64) * 1000.0 + 0.5).astype(np.int64)


def q_mmr_rerank(sf_dir: str, pool: int = MMR_POOL, k: int = MMR_K):
    """(rank, vec_id, simq, mmr_score): the k docs MMR picks (λ=0.5,
    scaled ×2 to stay integer: score = simq − max dot-to-selected;
    rank 1 is pure relevance).

    Scale shape: the query vector broadcasts once (``ray.put``); each
    batch computes integer sims vectorized and keeps its top-``pool``
    rows (quantized vector riding along as bytes); ``global_prune``
    re-selects the global top-``pool`` in a task so the driver sees at
    most ``pool`` rows; the O(pool²) greedy runs on that bounded pool —
    the two-stage shape every production reranker uses."""
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    empty = pd.DataFrame(
        {
            "rank": pd.Series([], dtype=np.int64),
            "vec_id": pd.Series([], dtype=np.int64),
            "simq": pd.Series([], dtype=np.int64),
            "mmr_score": pd.Series([], dtype=np.int64),
        }
    )
    qdf = emb.filter(expr=f"vec_id == {MMR_QUERY_VEC}").to_pandas()
    if qdf.empty:
        return empty
    qvec = _quant_vec(np.stack(qdf["embedding"].to_numpy()))[0]
    qref = ray.put(qvec)

    def top_pool(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["vec_id"] != MMR_QUERY_VEC]
        if df.empty:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series([], dtype=np.int64),
                    "simq": pd.Series([], dtype=np.int64),
                    "qv": pd.Series([], dtype=object),
                }
            )
        q = ray.get(qref)
        mat = _quant_vec(np.stack(df["embedding"].to_numpy()))
        sims = mat @ q
        out = pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(np.int64),
                "simq": sims.astype(np.int64),
                "qv": [m.tobytes() for m in mat],
            }
        )
        return out.sort_values(
            ["simq", "vec_id"], ascending=[False, True]
        ).head(pool)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        # first pass sees raw (vec_id, embedding) blocks, the combine
        # pass sees already-pruned (vec_id, simq, qv) frames; empty
        # frames (repartition(1) of an empty ds may carry NO columns)
        # exit in the pruned schema
        if df.empty:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series([], dtype=np.int64),
                    "simq": pd.Series([], dtype=np.int64),
                    "qv": pd.Series([], dtype=object),
                }
            )
        if "embedding" in df.columns:
            return top_pool(df)
        return df.sort_values(
            ["simq", "vec_id"], ascending=[False, True]
        ).head(pool)

    from .grouping import global_prune

    cand = global_prune(emb, prune)
    if cand.empty:
        return empty
    cand = cand.sort_values(["simq", "vec_id"], ascending=[False, True]).head(pool)
    ids = cand["vec_id"].to_numpy(np.int64)
    simq = cand["simq"].to_numpy(np.int64)
    mat = np.stack([np.frombuffer(b, dtype=np.int64) for b in cand["qv"]])
    dots = mat @ mat.T  # pool × pool integer, exact
    picked: list[int] = []
    rows = []
    remaining = list(range(len(ids)))
    for r in range(1, min(k, len(ids)) + 1):
        best_i, best_key = None, None
        for i in remaining:
            score = int(simq[i]) - (
                max(int(dots[i, j]) for j in picked) if picked else 0
            )
            key = (-score, int(ids[i]))
            if best_key is None or key < best_key:
                best_i, best_key = i, key
        score = -best_key[0]
        rows.append((r, int(ids[best_i]), int(simq[best_i]), score))
        picked.append(best_i)
        remaining.remove(best_i)
    return pd.DataFrame(
        rows, columns=["rank", "vec_id", "simq", "mmr_score"]
    ).astype(np.int64)


def _mmr_rerank_sql(pool: int = MMR_POOL, k: int = MMR_K) -> str:
    parts = [
        f"""WITH qv AS (
  SELECT vec_id,
         list_transform(embedding, x -> CAST(FLOOR(x * 1000 + 0.5) AS BIGINT)) AS q
  FROM embeddings),
qq AS (SELECT q FROM qv WHERE vec_id = {MMR_QUERY_VEC}),
sim AS (
  SELECT v.vec_id, CAST(list_dot_product(v.q, qq.q) AS BIGINT) AS simq
  FROM qv v, qq WHERE v.vec_id <> {MMR_QUERY_VEC}),
cand AS MATERIALIZED (
  SELECT vec_id, simq FROM sim ORDER BY simq DESC, vec_id ASC LIMIT {pool}),
pd AS MATERIALIZED (
  SELECT a.vec_id AS ca, b.vec_id AS cb,
         CAST(list_dot_product(qa.q, qb.q) AS BIGINT) AS d
  FROM cand a JOIN cand b ON a.vec_id <> b.vec_id
  JOIN qv qa ON qa.vec_id = a.vec_id
  JOIN qv qb ON qb.vec_id = b.vec_id),
sel1 AS MATERIALIZED (
  SELECT vec_id, simq, simq AS score FROM cand
  ORDER BY simq DESC, vec_id ASC LIMIT 1),
s1 AS (SELECT vec_id FROM sel1)"""
    ]
    for i in range(2, k + 1):
        parts.append(
            f"""sel{i} AS MATERIALIZED (
  SELECT c.vec_id, c.simq,
         c.simq - (SELECT MAX(p.d) FROM pd p, s{i - 1} s
                   WHERE p.ca = c.vec_id AND p.cb = s.vec_id) AS score
  FROM cand c WHERE c.vec_id NOT IN (SELECT vec_id FROM s{i - 1})
  ORDER BY score DESC, c.vec_id ASC LIMIT 1),
s{i} AS (SELECT vec_id FROM s{i - 1} UNION ALL SELECT vec_id FROM sel{i})"""
        )
    union = "\nUNION ALL\n".join(
        f"SELECT CAST({i} AS BIGINT) AS rank, vec_id, simq, "
        f"CAST(score AS BIGINT) AS mmr_score FROM sel{i}"
        for i in range(1, k + 1)
    )
    return ",\n".join(parts) + "\n" + union


# ==================================================== dedup_cascade
#
# The FineWeb/CCNet-style THREE-STAGE dedup cascade as ONE streaming
# pipeline: exact (md5 text identity, keep min doc_id) → MinHash LSH
# near-dup (drop a stage-1 survivor iff a SMALLER stage-1 survivor is
# an n_agree≥26 pair partner) → SemDeDup semantic (cells + τ-cosine,
# restricted to stage-2 survivors, centroids md5-sampled FROM the
# survivors). Output: (doc_id, verdict) with verdict 0=kept,
# 1=exact-dup, 2=near-dup, 3=semantic-dup — each doc dropped by the
# EARLIEST stage that catches it, so downstream stages never pay for
# it (the cost argument for cascading at 100 TB).
#
# Scale shape: stage 1 is one content-hash exchange; stage 2 reuses
# q_dedup_minhash's banded LSH pair stream and filters it through two
# id-keyed tagged-union exchanges (survivor sets never leave tasks);
# stage 3 reuses the SemDeDup shape with the survivor flag attached by
# one more id-keyed exchange before the cell exchange. Embeddings are
# document embeddings keyed vec_id == doc_id (the testdata contract);
# docs without a usable embedding (zero-norm) simply skip stage 3.

CASCADE_MIN_AGREE = 26


def _tagged_filter(pairs, key_col: str, flags):
    """Keep pair rows whose ``key_col`` id is flagged as a survivor.
    ``flags`` rows: (k, keep). Both ride ONE coarse exchange on k."""

    cols = ["k", "is_flag", "keep", "doc_a", "doc_b"]

    def tag_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            k=df[key_col].astype(np.int64), is_flag=np.int8(0), keep=np.int8(0)
        )[cols]

    def tag_flags(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            is_flag=np.int8(1), doc_a=np.int64(-1), doc_b=np.int64(-1)
        )[cols]

    both = _with_coarse_group(
        pairs.map_batches(tag_pairs, batch_format="pandas").union(
            flags.map_batches(tag_flags, batch_format="pandas")
        ),
        "k",
    )

    def keep_flagged(df: pd.DataFrame) -> pd.DataFrame:
        surv = set(
            df.loc[(df["is_flag"] == 1) & (df["keep"] == 1), "k"].astype(np.int64)
        )
        p = df[df["is_flag"] == 0]
        return p.loc[p["k"].isin(surv), ["doc_a", "doc_b"]].astype(np.int64)

    return both.groupby("_g").map_groups(keep_flagged, batch_format="pandas")


def q_dedup_cascade(sf_dir: str, _timings: dict | None = None):
    from ..functions.dedup import md5_hash64
    from .grouping import global_prune
    from .ml_queries import q_dedup_minhash

    import time as _time

    _t = {"last": _time.perf_counter()}

    def _mark(label: str) -> None:
        if _timings is not None:
            now = _time.perf_counter()
            _timings[label] = round(now - _t["last"], 2)
            _t["last"] = now

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    # ---- stage 1: exact content identity, keep the smallest doc_id
    def h_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "h": md5_hash64(list(df["text"])).astype(np.int64),
            }
        )

    def keep_min(df: pd.DataFrame) -> pd.DataFrame:
        first = df.groupby("h")["doc_id"].transform("min")
        return pd.DataFrame(
            {
                "k": df["doc_id"].astype("int64"),
                "keep": (df["doc_id"] == first).astype(np.int8),
            }
        )

    # verdict/pair intermediates are MATERIALIZED: each is consumed by
    # 2-3 downstream branches, and a lazy Ray DAG re-executes its whole
    # upstream per consumer — without the pins the banded-LSH pass ran
    # 4× and the cascade cost 270 s at sf0.1 instead of ~25 s. Three
    # pins are narrow id/flag tables (O(docs) ints); the fourth (semb)
    # pins the stage-2-survivor embeddings in the object store
    # (spillable — the same footprint an IVF build holds).
    v1 = (
        _with_coarse_group(d.map_batches(h_rows, batch_format="pandas"), "h")
        .groupby("_g")
        .map_groups(keep_min, batch_format="pandas")
    ).materialize()
    v1 = _compact_small(v1)
    _mark("s1_exact_verdict")

    # ---- stage 2: LSH pairs, both ends stage-1 survivors → drop doc_b
    pairs = q_dedup_minhash(sf_dir, min_agree=CASCADE_MIN_AGREE)
    pa_ok = _tagged_filter(pairs, "doc_a", v1)
    pb_ok = _tagged_filter(pa_ok, "doc_b", v1)

    def drops2_rows(df: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(df["doc_b"].to_numpy(np.int64))
        return pd.DataFrame({"k": v, "keep": np.zeros(v.size, np.int8)})

    d2 = _compact_small(
        pb_ok.map_batches(drops2_rows, batch_format="pandas").materialize()
    )
    _mark("s2_lsh_pairs_filtered")

    # verdict after stage 2: one id-keyed exchange combining v1 and d2
    def v2_combine(df: pd.DataFrame) -> pd.DataFrame:
        # kind 1 = stage-1 verdict rows (keep∈{0,1}); kind 2 = stage-2
        # drop notices. stage = 1 if exact-dropped, 2 if near-dropped,
        # else 0 — all vectorized per-k boolean reductions
        k = df["k"].to_numpy(np.int64)
        drop1 = ((df["kind"] == 1) & (df["keep"] == 0)).to_numpy()
        drop2 = (df["kind"] == 2).to_numpy()
        s1 = pd.Series(drop1).groupby(k).any()
        s2 = pd.Series(drop2).groupby(k).any()
        ids = s1.index.to_numpy(np.int64)
        st = np.where(s1.to_numpy(), 1, np.where(s2.to_numpy(), 2, 0))
        return pd.DataFrame({"k": ids, "stage": st.astype(np.int64)})

    v2 = (
        _with_coarse_group(
            v1.map_batches(
                lambda df: df.assign(kind=np.int8(1)), batch_format="pandas"
            ).union(
                d2.map_batches(
                    lambda df: df.assign(kind=np.int8(2)), batch_format="pandas"
                )
            ),
            "k",
        )
        .groupby("_g")
        .map_groups(v2_combine, batch_format="pandas")
    ).materialize()
    v2 = _compact_small(v2)
    _mark("v2_verdict")

    # ---- stage 3: SemDeDup restricted to stage-2 survivors
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    jcols = ["k", "kind", "stage", "eb"]

    def tag_emb(df: pd.DataFrame) -> pd.DataFrame:
        # embedding rides the exchange as BYTES: a mixed tensor/null
        # Arrow column breaks the shuffle concat (measured at sf0.1)
        return pd.DataFrame(
            {
                "k": df["vec_id"].astype("int64"),
                "kind": np.int8(0),
                "stage": np.int64(-1),
                "eb": [
                    np.asarray(v, dtype=np.float64).tobytes()
                    for v in df["embedding"]
                ],
            }
        )[jcols]

    def tag_v2(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(kind=np.int8(1), eb=b"")[jcols]

    joined = _with_coarse_group(
        emb.map_batches(tag_emb, batch_format="pandas").union(
            v2.map_batches(tag_v2, batch_format="pandas")
        ),
        "k",
    )

    def surv_vec(df: pd.DataFrame) -> pd.DataFrame:
        surv = set(
            df.loc[(df["kind"] == 1) & (df["stage"] == 0), "k"].astype(np.int64)
        )
        e = df[df["kind"] == 0]
        e = e[e["k"].isin(surv)]
        if not len(e):
            return pd.DataFrame(
                {
                    "vec_id": pd.Series(dtype=np.int64),
                    "embedding": pd.Series(dtype=object),
                }
            )
        mat = np.stack(
            [np.frombuffer(b, dtype=np.float64) for b in e["eb"]]
        )
        ok = np.linalg.norm(mat, axis=1) > 0
        e, mat = e[ok], mat[ok]
        return pd.DataFrame(
            {
                "vec_id": e["k"].to_numpy(np.int64),
                "embedding": list(mat),
            }
        )

    semb = _compact_small(joined.groupby("_g").map_groups(
        surv_vec, batch_format="pandas"
    ).materialize())
    _mark("s3_survivor_vectors")

    def cent_cand(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) or "vec_id" not in df.columns:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series(dtype=np.int64),
                    "embedding": pd.Series(dtype=object),
                }
            )
        md5s = np.array(
            [
                hashlib.md5(f"cas:{int(v)}".encode()).hexdigest()
                for v in df["vec_id"]
            ]
        )
        keep = np.argsort(md5s)[:SEMDEDUP_CELLS]
        return df.iloc[np.sort(keep)][["vec_id", "embedding"]]

    cent_df = global_prune(semb, cent_cand)
    _mark("s3_centroid_prune")
    if cent_df.empty:
        # no survivors with usable embeddings: verdicts are v2 as-is
        def finish_nosem(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": df["k"].astype("int64"),
                    "verdict": df["stage"].astype("int64"),
                }
            )

        return v2.map_batches(finish_nosem, batch_format="pandas")

    md5s = np.array(
        [hashlib.md5(f"cas:{int(v)}".encode()).hexdigest() for v in cent_df["vec_id"]]
    )
    order = np.argsort(md5s)[:SEMDEDUP_CELLS]
    cent_df = cent_df.iloc[order].sort_values("vec_id")
    cids = cent_df["vec_id"].to_numpy(np.int64)
    cent = np.stack(cent_df["embedding"].to_numpy()).astype(np.float64)
    cent = cent / np.linalg.norm(cent, axis=1, keepdims=True)
    cref = ray.put((cids, cent))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        cids_, ct = ray.get(cref)
        if not len(df):
            return pd.DataFrame(
                {
                    "vec_id": pd.Series(dtype=np.int64),
                    "cell": pd.Series(dtype=np.int64),
                    "vec": pd.Series(dtype=object),
                }
            )
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        # floor(1000x)-quantized cosine: the argmax decision is the same
        # integer comparison the SQL oracle makes (tie -> smallest cid:
        # cids_ sorted ASC + argmax-first == ROW_NUMBER cid ASC)
        qsims = np.floor(1000.0 * (matn @ ct.T))
        cell = cids_[qsims.argmax(axis=1)]
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(np.int64),
                "cell": cell.astype(np.int64),
                "vec": [v.tobytes() for v in matn],
            }
        )

    def drop_cell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy(np.int64)
        mat = np.stack([np.frombuffer(v, dtype=np.float64) for v in g["vec"]])
        qsims = np.floor(1000.0 * (mat @ mat.T))
        dup = (np.triu(qsims >= _SEMDEDUP_QTAU, k=1)).any(axis=0)
        v = ids[dup]
        return pd.DataFrame({"k": v, "kind": np.full(v.size, 3, np.int8)})

    d3 = (
        semb.map_batches(assign, batch_format="pandas")
        .groupby("cell")
        .map_groups(drop_cell, batch_format="pandas")
    )
    if _timings is not None:
        d3 = d3.materialize()
        _mark("s3_assign_cells")

    # ---- final verdict: v2 (stage 0/1/2) + stage-3 drop notices
    def final_combine(df: pd.DataFrame) -> pd.DataFrame:
        k = df["k"].to_numpy(np.int64)
        stage = df["stage"].groupby(k).max()  # v2 carry 0/1/2; d3 carry -1
        sem = pd.Series((df["kind"] == 3).to_numpy()).groupby(k).any()
        ids = stage.index.to_numpy(np.int64)
        st = stage.to_numpy(np.int64)
        verdict = np.where((st == 0) & sem.to_numpy(), 3, st)
        return pd.DataFrame(
            {"doc_id": ids, "verdict": verdict.astype(np.int64)}
        )

    fcols = ["k", "stage", "kind"]
    final = (
        _with_coarse_group(
            v2.map_batches(
                lambda df: df.assign(kind=np.int8(0))[fcols],
                batch_format="pandas",
            ).union(
                d3.map_batches(
                    lambda df: df.assign(stage=np.int64(-1))[fcols],
                    batch_format="pandas",
                )
            ),
            "k",
        )
        .groupby("_g")
        .map_groups(final_combine, batch_format="pandas")
    )
    if _timings is not None:
        final = final.materialize()
        _mark("s3_assign_dedup_final")
        _timings["_final_stats"] = final.stats()
    return final


def _dedup_cascade_sql() -> str:
    from ..functions.dedup import N_BANDS, N_PERM
    from .ml_queries import _perms_values

    return f"""
WITH v1 AS (
  SELECT doc_id,
         CASE WHEN doc_id = MIN(doc_id) OVER (PARTITION BY md5(text))
              THEN 0 ELSE 1 END AS d1
  FROM documents),
s1 AS (SELECT doc_id FROM v1 WHERE d1 = 0),
w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
  FROM documents),
sh AS (
  SELECT doc_id, unnest(
    CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
         ELSE list_transform(range(1, len(ws) - 1),
                             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
    END) AS s
  FROM w WHERE len(ws) > 0),
hh AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT) % 2147483647 AS h
  FROM sh),
perms(j, a, b) AS (VALUES {_perms_values()}),
sig AS (
  SELECT doc_id, j,
         MIN((CAST(a AS UBIGINT) * h + CAST(b AS UBIGINT)) % 2147483647) AS m
  FROM hh CROSS JOIN perms GROUP BY doc_id, j),
bands AS (
  SELECT doc_id, j // {N_PERM // N_BANDS} AS band, list(m ORDER BY j) AS bsig
  FROM sig GROUP BY 1, 2),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y
    ON x.band = y.band AND x.bsig = y.bsig AND x.doc_id < y.doc_id),
agree AS (
  SELECT c.doc_a, c.doc_b,
         CAST(SUM(CASE WHEN sa.m = sb.m THEN 1 ELSE 0 END) AS BIGINT) AS n_agree
  FROM cand c
  JOIN sig sa ON sa.doc_id = c.doc_a
  JOIN sig sb ON sb.doc_id = c.doc_b AND sb.j = sa.j
  GROUP BY 1, 2),
d2 AS (
  SELECT DISTINCT p.doc_b AS doc_id
  FROM agree p
  JOIN s1 a ON a.doc_id = p.doc_a
  JOIN s1 b ON b.doc_id = p.doc_b
  WHERE p.n_agree >= {CASCADE_MIN_AGREE}),
s2 AS (SELECT doc_id FROM s1
       WHERE doc_id NOT IN (SELECT doc_id FROM d2)),
e0 AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
       WHERE list_inner_product(CAST(embedding AS DOUBLE[]),
                                CAST(embedding AS DOUBLE[])) > 0),
sv AS (SELECT e0.vec_id, e0.e FROM e0 JOIN s2 ON s2.doc_id = e0.vec_id),
cent AS (SELECT vec_id AS cid, e FROM sv
         ORDER BY md5('cas:' || CAST(vec_id AS VARCHAR))
         LIMIT {SEMDEDUP_CELLS}),
cells AS (
  SELECT vec_id, cid AS cell FROM (
    SELECT sv.vec_id, c.cid,
           ROW_NUMBER() OVER (PARTITION BY sv.vec_id
                              ORDER BY floor(1000 * list_cosine_similarity(sv.e, c.e)) DESC,
                                       c.cid ASC) AS rn
    FROM sv CROSS JOIN cent c) WHERE rn = 1),
d3 AS (
  SELECT ce.vec_id AS doc_id FROM cells ce
  WHERE EXISTS (
    SELECT 1 FROM cells ce2 JOIN sv v2 ON v2.vec_id = ce2.vec_id
    WHERE ce2.cell = ce.cell AND ce2.vec_id < ce.vec_id
      AND floor(1000 * list_cosine_similarity(
            (SELECT e FROM sv WHERE sv.vec_id = ce.vec_id), v2.e
          )) >= {_SEMDEDUP_QTAU}))
SELECT CAST(v1.doc_id AS BIGINT) AS doc_id,
       CAST(CASE WHEN v1.d1 = 1 THEN 1
                 WHEN v1.doc_id IN (SELECT doc_id FROM d2) THEN 2
                 WHEN v1.doc_id IN (SELECT doc_id FROM d3) THEN 3
                 ELSE 0 END AS BIGINT) AS verdict
FROM v1
"""


# ==================================================== hard_negatives
#
# Contrastive-pair mining for embedding training: for each of 8
# md5-chosen query vectors, the best positive (nearest candidate with
# the SAME label) and the hardest negative (nearest with a DIFFERENT
# label) by the integer-quantized dot product, plus the margin — the
# triplet-mining pass a retrieval fine-tune runs per epoch. Negative
# margins mark queries whose nearest neighbor crosses the label
# boundary (the pairs worth training on).
#
# Scale shape: the 8 queries are a global_prune broadcast; every batch
# computes one matvec and prunes to its local best pos/neg per query
# (a valid prune — scores are per-row final), so the exchange carries
# ≤ 16 rows per block and the final reduce is 16 rows.

HN_Q = 8


def q_hard_negatives(sf_dir: str):
    from .grouping import global_prune

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def prune_q(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "vec_id" not in df.columns:
            return df
        md5s = np.array(
            [hashlib.md5(f"hn:{int(v)}".encode()).hexdigest() for v in df["vec_id"]]
        )
        return df.iloc[np.sort(np.argsort(md5s)[:HN_Q])]

    qdf = global_prune(emb, prune_q)
    cols = ["query_id", "label", "pos_id", "pos_s", "neg_id", "neg_s", "margin"]
    if qdf.empty or "vec_id" not in qdf.columns:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    md5s = np.array(
        [hashlib.md5(f"hn:{int(v)}".encode()).hexdigest() for v in qdf["vec_id"]]
    )
    qdf = qdf.iloc[np.argsort(md5s)[:HN_Q]].sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy(np.int64)
    qlabels = qdf["label"].to_numpy(np.int64)
    qmat = np.floor(
        np.stack(qdf["embedding"].to_numpy()).astype(np.float64) * 1000.0
    ).astype(np.int64)

    def best_rows(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = {
            "q": np.int64,
            "d": np.int64,
            "s": np.int64,
            "same": np.int8,
        }
        if not len(df):
            return pd.DataFrame(
                {k: pd.Series(dtype=v) for k, v in out_cols.items()}
            )
        ids = df["vec_id"].to_numpy(np.int64)
        labels = df["label"].to_numpy(np.int64)
        mat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        s = mat @ qmat.T
        rows = []
        for j, (q, ql) in enumerate(zip(qids, qlabels)):
            keep = ids != q
            for same in (1, 0):
                m = keep & ((labels == ql) == bool(same))
                if not m.any():
                    continue
                dd, sc = ids[m], s[m, j]
                i = np.lexsort((dd, -sc))[0]
                rows.append((int(q), int(dd[i]), int(sc[i]), same))
        return pd.DataFrame(rows, columns=list(out_cols)).astype(out_cols)

    pruned = emb.map_batches(best_rows, batch_format="pandas")

    def final_best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["s", "d"], ascending=[False, True])
        rows = []
        for same in (1, 0):
            sub = g[g["same"] == same]
            if len(sub):
                rows.append(sub.iloc[0])
        return pd.DataFrame(rows)

    best = (
        pruned.groupby(["q", "same"])
        .map_groups(final_best, batch_format="pandas")
        .to_pandas()  # ≤ 2·HN_Q rows
    )
    rows = []
    for q, ql in zip(qids, qlabels):
        p = best[(best["q"] == q) & (best["same"] == 1)]
        n = best[(best["q"] == q) & (best["same"] == 0)]
        pos_id, pos_s = (
            (int(p["d"].iloc[0]), int(p["s"].iloc[0])) if len(p) else (-1, 0)
        )
        neg_id, neg_s = (
            (int(n["d"].iloc[0]), int(n["s"].iloc[0])) if len(n) else (-1, 0)
        )
        rows.append(
            (int(q), int(ql), pos_id, pos_s, neg_id, neg_s, pos_s - neg_s)
        )
    return pd.DataFrame(rows, columns=cols).astype("int64")


HARD_NEGATIVES_SQL = f"""
WITH e AS (
  SELECT vec_id, label,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
qs AS (SELECT vec_id AS qid, label AS ql, q AS qv FROM e
       ORDER BY md5('hn:' || CAST(vec_id AS VARCHAR)) LIMIT {HN_Q}),
scored AS (
  SELECT qs.qid, qs.ql, e.vec_id AS did, e.label AS dl,
         list_inner_product(qs.qv, e.q) AS s,
         CASE WHEN e.label = qs.ql THEN 1 ELSE 0 END AS same
  FROM qs JOIN e ON e.vec_id <> qs.qid),
rk AS (
  SELECT qid, ql, did, s, same,
         ROW_NUMBER() OVER (PARTITION BY qid, same
                            ORDER BY s DESC, did ASC) AS rn
  FROM scored),
p AS (SELECT qid, ql, did AS pos_id, s AS pos_s FROM rk
      WHERE same = 1 AND rn = 1),
n AS (SELECT qid, did AS neg_id, s AS neg_s FROM rk
      WHERE same = 0 AND rn = 1)
SELECT CAST(q.qid AS BIGINT) AS query_id,
       CAST(q.ql AS BIGINT) AS label,
       CAST(COALESCE(p.pos_id, -1) AS BIGINT) AS pos_id,
       CAST(COALESCE(p.pos_s, 0) AS BIGINT) AS pos_s,
       CAST(COALESCE(n.neg_id, -1) AS BIGINT) AS neg_id,
       CAST(COALESCE(n.neg_s, 0) AS BIGINT) AS neg_s,
       CAST(COALESCE(p.pos_s, 0) - COALESCE(n.neg_s, 0) AS BIGINT) AS margin
FROM qs q LEFT JOIN p ON p.qid = q.qid LEFT JOIN n ON n.qid = q.qid
"""


# ===================================================== editdist_verify
#
# Edit-distance spot audit of the dedup stack: draw a deterministic
# md5-ranked sample of 2·N docs, pair rank 1↔2, 3↔4, …, and compute the
# character Levenshtein distance plus the length-normalized similarity
# sim_bp = 10000 − 10000·lev // max(len) for each pair — the ground-
# truth metric a curator samples to sanity-check what the
# MinHash/SimHash thresholds are actually admitting. DuckDB's
# levenshtein() is the oracle; the Ray side is a vectorized
# two-row numpy DP (the insertion chain folded with the
# min-plus-prefix identity cur = i + min.accumulate(cur − i)), so both
# engines count the same unit-cost edits.
#
# Scale shape: sample selection is the md5-smallest-2N global_prune
# (associative prune — O(N) driver rows regardless of block count, text
# payload bounded by 2N docs); the quadratic DP runs distributed over a
# from_items pair list, one task per batch of pairs. Nothing quadratic
# ever touches the full corpus.

EDV_PAIRS = 20


def _lev_np(a: str, b: str) -> int:
    """Unit-cost Levenshtein, vectorized rows (same result as DuckDB's
    levenshtein())."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    bb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    idx = np.arange(len(b) + 1, dtype=np.int64)
    prev = idx.copy()
    for i, ca in enumerate(a, 1):
        cost = (bb != ord(ca)).astype(np.int64)
        cur = np.empty(len(b) + 1, np.int64)
        cur[0] = i
        cur[1:] = np.minimum(prev[1:] + 1, prev[:-1] + cost)
        # fold the sequential insertion chain: cur[j] = min_k≤j cur[k]+(j−k)
        cur = idx + np.minimum.accumulate(cur - idx)
        prev = cur
    return int(prev[-1])


def q_editdist_verify(sf_dir: str):
    from .grouping import global_prune

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cols = ["doc_a", "doc_b", "lev", "sim_bp"]
    empty = pd.DataFrame(
        {
            "doc_a": pd.Series(dtype=np.int64),
            "doc_b": pd.Series(dtype=np.int64),
            "lev": pd.Series(dtype=np.int64),
            "sim_bp": pd.Series(dtype=np.int64),
        }
    )

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        h = df["doc_id"].map(
            lambda i: hashlib.md5(f"edv:42:{int(i)}".encode()).hexdigest()
        )
        out = df.assign(_h=h).sort_values(["_h", "doc_id"], kind="mergesort")
        return out.head(2 * EDV_PAIRS)

    sample = global_prune(d, prune)
    if not len(sample) or "doc_id" not in sample.columns:
        return empty
    sample = sample.sort_values(["_h", "doc_id"], kind="mergesort").reset_index(
        drop=True
    )
    n_pairs = len(sample) // 2
    if n_pairs == 0:
        return empty
    pairs = [
        {
            "doc_a": int(sample["doc_id"].iloc[2 * i]),
            "doc_b": int(sample["doc_id"].iloc[2 * i + 1]),
            "ta": sample["text"].iloc[2 * i],
            "tb": sample["text"].iloc[2 * i + 1],
        }
        for i in range(n_pairs)
    ]

    def dist(df: pd.DataFrame) -> pd.DataFrame:
        lev = np.fromiter(
            (_lev_np(a, b) for a, b in zip(df["ta"], df["tb"])),
            np.int64,
            len(df),
        )
        mx = np.maximum(
            df["ta"].str.len().to_numpy(np.int64),
            np.maximum(df["tb"].str.len().to_numpy(np.int64), 1),
        )
        return pd.DataFrame(
            {
                "doc_a": df["doc_a"].to_numpy(np.int64),
                "doc_b": df["doc_b"].to_numpy(np.int64),
                "lev": lev,
                "sim_bp": 10000 - 10000 * lev // mx,
            }
        )

    return ray.data.from_items(pairs).map_batches(dist, batch_format="pandas")


EDITDIST_VERIFY_SQL = f"""
WITH r AS (
  SELECT doc_id, text,
         ROW_NUMBER() OVER (
           ORDER BY md5('edv:42:' || CAST(doc_id AS VARCHAR)), doc_id) AS rk
  FROM documents),
s AS (SELECT * FROM r WHERE rk <= 2 * {EDV_PAIRS}),
p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.text AS ta, b.text AS tb
  FROM s a JOIN s b ON b.rk = a.rk + 1 AND a.rk % 2 = 1)
SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
       CAST(levenshtein(ta, tb) AS BIGINT) AS lev,
       CAST(10000 - 10000 * levenshtein(ta, tb)
            // GREATEST(length(ta), length(tb), 1) AS BIGINT) AS sim_bp
FROM p
"""


MINING_SQL_QUERIES: dict[str, tuple] = {
    "editdist_verify": (q_editdist_verify, EDITDIST_VERIFY_SQL, "dedup"),
    "redirect_resolve": (q_redirect_resolve, REDIRECT_RESOLVE_SQL, "backlog"),
    "dsir_score": (q_dsir_score, DSIR_SCORE_SQL, "selection"),
    "heavy_hitters": (q_heavy_hitters, HEAVY_HITTERS_SQL, "sketch"),
    "semdedup": (q_semdedup, SEMDEDUP_SQL, "dedup"),
    "mmr_rerank": (q_mmr_rerank, _mmr_rerank_sql(), "ann"),
    "dedup_cascade": (q_dedup_cascade, _dedup_cascade_sql(), "dedup"),
    "hard_negatives": (q_hard_negatives, HARD_NEGATIVES_SQL, "ann"),
}
