"""Vector-space / fingerprint audit operators (round-5 batch 22):
hubness audit of the kNN graph (Radovanović et al. 2010), mutual-kNN
rate, and SimHash per-bit balance.

Vector arithmetic is the repo's bit-exact device (hard_negatives):
components quantized floor(x·1000) to int64, INTEGER dot products
(DuckDB's list_inner_product is exact for these magnitudes in
float64), ranks tie-broken (score DESC, vec_id ASC). The all-pairs
kNN here is the documented brute-force baseline over the broadcast
quantized matrix — the 10^10-scale path is the IVF-bucketed variant
(cells like semdedup), same per-cell kernel.

Reference parity: the reference has no vector surface; these extend
the brief's similarity-search / dedup families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read


HUB_K = 5
HUB_CAP = 20


def _quantized_matrix(sf_dir: str):
    """(vec_ids, int64 matrix) of ALL embeddings, floor(x·1000) —
    broadcast once via ray.put by callers. Bounded by the embeddings
    table (the brute-force-baseline trade documented above)."""
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]).to_pandas()
    if emb.empty:
        return np.array([], np.int64), np.zeros((0, 1), np.int64)
    ids = emb["vec_id"].to_numpy(np.int64)
    order = np.argsort(ids)
    mat = np.floor(
        np.stack(emb["embedding"].to_numpy()).astype(np.float64) * 1000.0
    ).astype(np.int64)
    return ids[order], mat[order]


def _knn_edges_ds(sf_dir: str, k: int):
    """Dataset of kNN edges (q, nbr): per batch, integer dots against
    the broadcast matrix, top-k by (s DESC, vec_id ASC), self excluded."""
    ids, mat = _quantized_matrix(sf_dir)
    if not len(ids):
        return None
    ref = ray.put((ids, mat))
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        all_ids, all_mat = ray.get(ref)
        qids = df["vec_id"].to_numpy(np.int64)
        qmat = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        s = qmat @ all_mat.T
        rows_q, rows_n = [], []
        for r, q in enumerate(qids):
            sr = s[r]
            keep = all_ids != q
            order = np.lexsort((all_ids[keep], -sr[keep]))[:k]
            nbrs = all_ids[keep][order]
            rows_q.extend([int(q)] * len(nbrs))
            rows_n.extend(int(x) for x in nbrs)
        return pd.DataFrame(
            {"q": np.array(rows_q, np.int64), "nbr": np.array(rows_n, np.int64)}
        )

    return emb.map_batches(topk, batch_format="pandas")


# ======================================================== hubness_audit
#
# Hubness (Radovanović, Nanopoulos & Ivanović 2010): in high
# dimensions some points appear in a disproportionate share of other
# points' k-NN lists; those hubs dominate retrieval results and break
# ANN-based dedup. The audit is the k-occurrence histogram — how many
# points appear in exactly c other points' top-HUB_K lists (capped at
# HUB_CAP) — whose right tail is the hubness pathology.
#
# Scale shape: kNN per batch against the broadcast quantized matrix;
# per-batch (nbr → count) partials → ONE coarse-free bounded groupby
# on nbr? No — occurrence counting needs exact per-point totals, so
# the partials exchange ONCE on nbr (coarse hash) and collapse to the
# ≤ HUB_CAP+1-row histogram in-task before the tiny final groupby;
# zero-occurrence points enter via n_points − |seen|.


def q_hubness_audit(sf_dir: str, k: int = HUB_K):
    from .grouping import with_coarse_group as _wcg

    edges = _knn_edges_ds(sf_dir, k)
    if edges is None:
        return pd.DataFrame(
            {
                "k_occurrences": pd.Series(dtype=np.int64),
                "n_points": pd.Series(dtype=np.int64),
            }
        )
    import pyarrow.parquet as _pq

    n_total = _pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows

    def occ_partial(df: pd.DataFrame) -> pd.DataFrame:
        vals, cnts = np.unique(df["nbr"].to_numpy(np.int64), return_counts=True)
        return pd.DataFrame(
            {"nbr": vals.astype(np.int64), "c_part": cnts.astype(np.int64)}
        )

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        t = (
            g.drop(columns=["_g"])
            .groupby("nbr", as_index=False)["c_part"]
            .sum()
        )
        occ = np.minimum(t["c_part"].to_numpy(np.int64), HUB_CAP)
        vals, cnts = np.unique(occ, return_counts=True)
        out = pd.DataFrame(
            {
                "k_occurrences": vals.astype(np.int64),
                "n_part": cnts.astype(np.int64),
            }
        )
        # carry the number of distinct points seen so the driver can
        # zero-fill (points never chosen as a neighbour)
        out = pd.concat(
            [
                out,
                pd.DataFrame({"k_occurrences": [-1], "n_part": [len(t)]}),
            ],
            ignore_index=True,
        )
        return out.astype(np.int64)

    c = (
        _wcg(edges.map_batches(occ_partial, batch_format="pandas"), "nbr")
        .groupby("_g")
        .map_groups(hist, batch_format="pandas")
        .groupby("k_occurrences")
        .aggregate(Sum("n_part", alias_name="n_points"))
        .to_pandas()  # <= HUB_CAP + 2 rows
    )
    c = c.astype(np.int64)
    seen = int(c.loc[c["k_occurrences"] == -1, "n_points"].sum())
    c = c[c["k_occurrences"] >= 0]
    zero = n_total - seen
    if zero > 0:
        has0 = c["k_occurrences"] == 0
        if has0.any():
            c.loc[has0, "n_points"] += zero
        else:
            c = pd.concat(
                [pd.DataFrame({"k_occurrences": [0], "n_points": [zero]}), c],
                ignore_index=True,
            )
    return (
        c.astype(np.int64)
        .sort_values("k_occurrences")
        .reset_index(drop=True)
    )


HUBNESS_AUDIT_SQL = f"""
WITH e AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
scored AS (
  SELECT a.vec_id AS qid, b.vec_id AS did,
         ROW_NUMBER() OVER (PARTITION BY a.vec_id
                            ORDER BY list_inner_product(a.q, b.q) DESC,
                                     b.vec_id ASC) AS rn
  FROM e a JOIN e b ON a.vec_id <> b.vec_id),
knn AS (SELECT qid, did FROM scored WHERE rn <= {HUB_K}),
occ AS (
  SELECT e.vec_id,
         CAST(LEAST(COUNT(knn.did), {HUB_CAP}) AS BIGINT) AS k_occurrences
  FROM e LEFT JOIN knn ON knn.did = e.vec_id
  GROUP BY e.vec_id)
SELECT k_occurrences, CAST(COUNT(*) AS BIGINT) AS n_points
FROM occ GROUP BY 1
"""


# ====================================================== knn_mutual_rate
#
# Mutual-kNN rate: the share of kNN edges (q → nbr) whose reverse edge
# also exists. Mutual edges are the backbone of density-based
# clustering and reliable near-dup verification; a LOW mutual rate is
# the same pathology hubness_audit's tail shows, seen from the edge
# side.
#
# Scale shape: the kNN edge stream exchanges ONCE on the canonical
# (min, max) pair key; each task counts pairs with both directions
# present; the driver sees three scalars.


def q_knn_mutual_rate(sf_dir: str, k: int = HUB_K):
    from .grouping import with_coarse_group as _wcg

    edges = _knn_edges_ds(sf_dir, k)
    import pyarrow.parquet as _pq

    if edges is None:
        return pd.DataFrame(
            {
                "n_points": [0],
                "k": [k],
                "n_edges": [0],
                "n_mutual_pairs": [0],
                "mutual_bp": [0],
            }
        ).astype(np.int64)
    n_total = _pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        q = df["q"].to_numpy(np.int64)
        n = df["nbr"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "a": np.minimum(q, n),
                "b": np.maximum(q, n),
                "fwd": (q < n).astype(np.int64),
            }
        )

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        per = t.groupby(["a", "b"], as_index=False)["fwd"].agg(["sum", "size"])
        per.columns = ["a", "b", "n_fwd", "n_rows"]
        mutual = int(
            ((per["n_rows"] == 2) & (per["n_fwd"] == 1)).sum()
        )
        return pd.DataFrame(
            {"e_part": [int(per["n_rows"].sum())], "m_part": [mutual]}
        ).astype(np.int64)

    # key the exchange on the canonical pair string so both directions
    # of an edge land in one task
    def with_key(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["pk"] = (
            out["a"].astype(np.int64).astype(str)
            + "|"
            + out["b"].astype(np.int64).astype(str)
        )
        return out

    c = (
        _wcg(
            edges.map_batches(canon, batch_format="pandas").map_batches(
                with_key, batch_format="pandas"
            ),
            "pk",
        )
        .groupby("_g")
        .map_groups(count_pairs, batch_format="pandas")
        .sum(["e_part", "m_part"])
    )
    n_edges = int(c["sum(e_part)"])
    n_mutual = int(c["sum(m_part)"])
    return pd.DataFrame(
        {
            "n_points": [n_total],
            "k": [k],
            "n_edges": [n_edges],
            "n_mutual_pairs": [n_mutual],
            "mutual_bp": [2 * n_mutual * 10000 // n_edges if n_edges else 0],
        }
    ).astype(np.int64)


KNN_MUTUAL_RATE_SQL = f"""
WITH e AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings),
scored AS (
  SELECT a.vec_id AS qid, b.vec_id AS did,
         ROW_NUMBER() OVER (PARTITION BY a.vec_id
                            ORDER BY list_inner_product(a.q, b.q) DESC,
                                     b.vec_id ASC) AS rn
  FROM e a JOIN e b ON a.vec_id <> b.vec_id),
knn AS (SELECT qid, did FROM scored WHERE rn <= {HUB_K}),
mutual AS (
  SELECT COUNT(*) AS m
  FROM knn x JOIN knn y ON x.qid = y.did AND x.did = y.qid
  WHERE x.qid < x.did)
SELECT CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_points,
       CAST({HUB_K} AS BIGINT) AS k,
       CAST((SELECT COUNT(*) FROM knn) AS BIGINT) AS n_edges,
       CAST(mutual.m AS BIGINT) AS n_mutual_pairs,
       CAST(CASE WHEN (SELECT COUNT(*) FROM knn) > 0
            THEN 2 * mutual.m * 10000 // (SELECT COUNT(*) FROM knn)
            ELSE 0 END AS BIGINT) AS mutual_bp
FROM mutual
"""


# =================================================== simhash_bit_balance
#
# SimHash per-bit balance: for each of the 64 signature bits, the
# share of documents with the bit set. A balanced fingerprint has
# every bit near 50% — a biased bit carries less than one bit of
# entropy, inflating collision rates in banded SimHash LSH. The
# signature audited here is the md5-featured formulation (token
# feature hash = md5 high 64 bits, functions/dedup.md5_hash64 — the
# same construction dedup_simhash's SQL oracle evaluates; the dedup
# Ray path's crc32 feature hash has no DuckDB mirror, so the audit
# pins the oracle-exact variant).
#
# Scale shape: per-batch signature computation (string kernel) + bit
# unpack → 64-row count partials → one 64-row groupby → bp math.


def _md5_simhash64(tokens: list[str]) -> int:
    from ..functions.dedup import md5_hash64

    h = md5_hash64(tokens)
    bits = (
        (h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    ).astype(np.int64)
    score = (2 * bits - 1).sum(axis=0)
    return int(
        ((score > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum()
    )


def q_simhash_bit_balance(sf_dir: str):
    import re as _re

    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = _re.compile(r"[^ \t\n\r\f]+")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # token-less docs have no signature (the SQL th CTE drops them)
        tok_lists = [
            toks
            for t in df["text"]
            if (toks := tok_re.findall(str(t).lower()))
        ]
        if not tok_lists:
            return pd.DataFrame(
                {
                    "bit": pd.Series(dtype=np.int64),
                    "ones_part": pd.Series(dtype=np.int64),
                    "n_part": pd.Series(dtype=np.int64),
                }
            )
        sigs = np.array(
            [_md5_simhash64(toks) for toks in tok_lists], np.uint64
        )
        bits = (
            (sigs[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "bit": np.arange(64, dtype=np.int64),
                "ones_part": bits.sum(axis=0),
                "n_part": np.full(64, len(tok_lists), np.int64),
            }
        )

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("bit")
        .aggregate(
            Sum("ones_part", alias_name="n_ones"),
            Sum("n_part", alias_name="n_docs"),
        )
        .to_pandas()  # exactly 64 rows
    )
    if not len(c):
        return pd.DataFrame(
            {
                "bit": pd.Series(dtype=np.int64),
                "n_ones": pd.Series(dtype=np.int64),
                "n_docs": pd.Series(dtype=np.int64),
                "ones_bp": pd.Series(dtype=np.int64),
            }
        )
    c = c.astype(np.int64)
    c["ones_bp"] = (
        c["n_ones"].astype(object) * 10000 // c["n_docs"].astype(object)
    ).astype(np.int64)
    return c.sort_values("bit").reset_index(drop=True)


SIMHASH_BIT_BALANCE_SQL = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS w
  FROM documents),
th AS (
  SELECT doc_id, CAST(concat('0x', substr(md5(w), 1, 16)) AS UBIGINT) AS h
  FROM tok),
bits AS (
  SELECT doc_id, b,
         CASE WHEN SUM(CASE WHEN ((h >> b) & 1) = 1 THEN 1 ELSE -1 END) > 0
              THEN 1 ELSE 0 END AS v
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS b) bb
  GROUP BY doc_id, b),
n AS (SELECT CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS nd FROM th)
SELECT CAST(bits.b AS BIGINT) AS bit,
       CAST(SUM(bits.v) AS BIGINT) AS n_ones,
       n.nd AS n_docs,
       CAST(SUM(bits.v) * 10000 // n.nd AS BIGINT) AS ones_bp
FROM bits, n
GROUP BY bits.b, n.nd
"""


VECTORAUDIT_SQL_QUERIES: dict[str, tuple] = {
    "hubness_audit": (q_hubness_audit, HUBNESS_AUDIT_SQL, "ann"),
    "knn_mutual_rate": (q_knn_mutual_rate, KNN_MUTUAL_RATE_SQL, "ann"),
    "simhash_bit_balance": (q_simhash_bit_balance, SIMHASH_BIT_BALANCE_SQL, "ann"),
}
