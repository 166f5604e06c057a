"""Coreset-selection operators (round-5 batch 48): greedy facility
location (the Nemhauser-Wolsey-Fisher 1978 greedy with its (1−1/e)
guarantee — the workhorse of data-efficient training subset
selection), the exact medoid / 1-median (the PAM seed of Kaufman &
Rousseeuw 1987), and kernel herding (Welling 2009 — greedy moment
matching of the mean embedding) — three ways to pick K
representative documents from an embedding table.

Determinization: similarities are integer dots of component-quantized
vectors (⌊1000·x⌋, the hard_negatives convention); greedy argmax
ties break on the smallest candidate id; herding's mean-matching
scores clear denominators (n·|S| cross-multiplication) so every
decision is exact integer arithmetic. Candidates come from a CAND_N
md5-chosen pool — the standard candidate-pool restriction that turns
each greedy step into a bounded-fanout exchange.

Scale idioms: every step is per-batch (rows × ≤64-candidate matmul)
partials → a ≤CAND_N-row bounded reduce → driver argmax; the
selected set (≤ K vectors) re-broadcasts into the next step's map,
so coverage state never ships — it is recomputed vectorized per
batch from the tiny selected set.

Reference parity: the reference has no selection surface; these
extend the brief's curation/selection family (coreset_kcenter,
coverage_maxcover, mmr_rerank are the siblings).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import global_prune
from .ml_queries import _md5u

CAND_N = 64
FL_K = 8


def _qmat(embs) -> np.ndarray:
    return np.floor(
        np.stack(embs).astype(np.float64) * 1000.0
    ).astype(np.int64)


def _cand_pool(emb: ray.data.Dataset) -> pd.DataFrame:
    """CAND_N vectors with smallest md5('cand:<vec_id>') — the
    global_prune broadcast every op in this module selects from."""

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "vec_id" not in df.columns:
            return df
        md5s = np.array(
            [
                hashlib.md5(f"cand:{int(v)}".encode()).hexdigest()
                for v in df["vec_id"]
            ]
        )
        return df.iloc[np.sort(np.argsort(md5s)[:CAND_N])]

    out = global_prune(emb, prune)
    if out.empty:
        return out
    md5s = np.array(
        [
            hashlib.md5(f"cand:{int(v)}".encode()).hexdigest()
            for v in out["vec_id"]
        ]
    )
    return out.iloc[np.argsort(md5s)[:CAND_N]].sort_values("vec_id")


_CAND_SQL = f"""
cand AS MATERIALIZED (
  SELECT vec_id AS cid, q AS cv FROM e
  ORDER BY md5('cand:' || CAST(vec_id AS VARCHAR)) LIMIT {CAND_N})
"""

_E_SQL = """
e AS MATERIALIZED (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS q
  FROM embeddings)
"""


# ==================================================== facility_location
#
# Greedy facility location: repeatedly add the candidate maximizing
# the marginal coverage gain Σ_v max(0, sim(v,c) − cur(v)) where
# cur(v) = max sim to the already-selected set (0 before the first
# pick — similarities clamp at 0, the standard nonneg kernel floor).
# Output: (step, vec_id, gain) for K = 8 steps.
#
# Scale shape: per step ONE pass — each batch computes its rows'
# (≤64-candidate) gain partials against the broadcast selected set →
# ≤CAND_N-row reduce → driver argmax; K passes total.


def q_facility_location(sf_dir: str):
    empty = pd.DataFrame(
        {
            "step": pd.Series(dtype=np.int64),
            "vec_id": pd.Series(dtype=np.int64),
            "gain": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "embeddings") == 0:
        return empty
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cands = _cand_pool(emb)
    if cands.empty:
        return empty
    c_ids = cands["vec_id"].to_numpy(np.int64)
    c_mat = _qmat(cands["embedding"].to_numpy())

    # ONE text... vector pass: per-row clamped candidate-sim vector as
    # a 64-int64 blob — the narrow projection all 8 greedy steps then
    # stream (re-reading + re-quantizing per step cost 8× the work)
    def simvec(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"sv": pd.Series(dtype=object)})
        mat = _qmat(df["embedding"].to_numpy())
        s = np.maximum(mat @ c_mat.T, 0).astype(np.int64)
        return pd.DataFrame({"sv": [r.tobytes() for r in s]})

    sims = emb.map_batches(simvec, batch_format="pandas").materialize()

    selected: list[int] = []
    rows = []
    for step in range(1, min(FL_K, len(c_ids)) + 1):
        sel_idx = np.array(
            [int(np.flatnonzero(c_ids == s)[0]) for s in selected],
            np.int64,
        )

        def gains(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame(
                    {
                        "ci": pd.Series(dtype=np.int64),
                        "g": pd.Series(dtype=np.int64),
                    }
                )
            s = np.frombuffer(
                b"".join(df["sv"]), dtype=np.int64
            ).reshape(len(df), -1)
            if len(sel_idx):
                cur = s[:, sel_idx].max(axis=1)
            else:
                cur = np.zeros(len(s), np.int64)
            g = np.maximum(s - cur[:, None], 0).sum(axis=0)
            return pd.DataFrame(
                {
                    "ci": np.arange(len(c_ids), dtype=np.int64),
                    "g": g.astype(np.int64),
                }
            )

        def combine(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("ci", as_index=False)["g"].sum()

        # global_prune shape: per-block 64-row partials → ONE re-reduce
        # task → 64 driver rows regardless of block count
        agg = (
            sims.map_batches(gains, batch_format="pandas")
            .repartition(1)
            .map_batches(combine, batch_format="pandas")
            .to_pandas()
        )
        gmap = dict(zip(agg["ci"].astype(int), agg["g"].astype(int)))
        best = None
        for i, cid in enumerate(c_ids):
            if int(cid) in selected:
                continue
            key = (-gmap.get(i, 0), int(cid))
            if best is None or key < best:
                best = key
        gain, cid = -best[0], best[1]
        selected.append(cid)
        rows.append((step, cid, gain))
    return pd.DataFrame(rows, columns=["step", "vec_id", "gain"]).astype(
        np.int64
    )


def _facility_sql() -> str:
    parts = [f"WITH {_E_SQL}, {_CAND_SQL},"]
    parts.append(
        """sim AS MATERIALIZED (
  SELECT e.vec_id AS v, cand.cid,
         GREATEST(list_inner_product(e.q, cand.cv), 0) AS s
  FROM e CROSS JOIN cand),"""
    )
    prev_sel = None
    for t in range(1, FL_K + 1):
        if prev_sel is None:
            cur = "CAST(0 AS BIGINT) AS cur"
            curfrom = "(SELECT DISTINCT v FROM sim) base"
            gain_join = "JOIN sim ON sim.v = base.v"
            gain = (
                f"""g{t} AS MATERIALIZED (
  SELECT sim.cid, CAST(SUM(sim.s) AS BIGINT) AS g
  FROM sim GROUP BY 1)"""
            )
        else:
            gain = f"""cur{t} AS MATERIALIZED (
  SELECT v, CAST(GREATEST(MAX(s), 0) AS BIGINT) AS cur
  FROM sim WHERE cid IN (SELECT cid FROM selset{t - 1}) GROUP BY 1),
g{t} AS MATERIALIZED (
  SELECT sim.cid,
         CAST(SUM(GREATEST(sim.s - cur{t}.cur, 0)) AS BIGINT) AS g
  FROM sim JOIN cur{t} ON cur{t}.v = sim.v
  WHERE sim.cid NOT IN (SELECT cid FROM selset{t - 1})
  GROUP BY 1)"""
        pick = f"""pick{t} AS MATERIALIZED (
  SELECT cid, g FROM g{t} ORDER BY g DESC, cid ASC LIMIT 1)"""
        if prev_sel is None:
            selset = f"selset{t} AS MATERIALIZED (SELECT cid FROM pick{t})"
        else:
            selset = (
                f"selset{t} AS MATERIALIZED (SELECT cid FROM selset{t - 1} "
                f"UNION ALL SELECT cid FROM pick{t})"
            )
        parts.append(gain + ",\n" + pick + ",\n" + selset + ",")
        prev_sel = t
    unions = " UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS step, cid AS vec_id, g AS gain "
        f"FROM pick{t}"
        for t in range(1, FL_K + 1)
    )
    parts.append(f"out AS ({unions})\nSELECT step, vec_id, gain FROM out")
    return "\n".join(parts)


# ======================================================== medoid_select
#
# Exact 1-median over the candidate pool: the candidate minimizing
# Σ_v d²(v, c) with the integer squared distance
# d² = |v|² − 2⟨v,c⟩ + |c|². Output one row: (vec_id, total_d2).
#
# Scale shape: one pass of per-batch (row × candidates) partials →
# bounded reduce → driver argmin.


def q_medoid_select(sf_dir: str):
    empty = pd.DataFrame(
        {
            "vec_id": pd.Series(dtype=np.int64),
            "total_d2": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "embeddings") == 0:
        return empty
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cands = _cand_pool(emb)
    if cands.empty:
        return empty
    c_ids = cands["vec_id"].to_numpy(np.int64)
    c_mat = _qmat(cands["embedding"].to_numpy())
    c_nrm = (c_mat * c_mat).sum(axis=1)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "ci": pd.Series(dtype=np.int64),
                    "d2": pd.Series(dtype=np.int64),
                }
            )
        mat = _qmat(df["embedding"].to_numpy())
        vn = (mat * mat).sum(axis=1)
        d2 = vn[:, None] - 2 * (mat @ c_mat.T) + c_nrm[None, :]
        return pd.DataFrame(
            {
                "ci": np.arange(len(c_ids), dtype=np.int64),
                "d2": d2.sum(axis=0).astype(np.int64),
            }
        )

    agg = (
        emb.map_batches(partial, batch_format="pandas")
        .groupby("ci")
        .aggregate(Sum("d2", alias_name="d2"))
        .to_pandas()
    )
    dmap = dict(zip(agg["ci"].astype(int), agg["d2"].astype(int)))
    best = min(
        ((dmap.get(i, 0), int(cid)) for i, cid in enumerate(c_ids)),
    )
    return pd.DataFrame(
        {
            "vec_id": [np.int64(best[1])],
            "total_d2": [np.int64(best[0])],
        }
    )


MEDOID_SELECT_SQL = f"""
WITH {_E_SQL}, {_CAND_SQL},
d AS (
  SELECT cand.cid,
         CAST(SUM(list_inner_product(e.q, e.q)
                  - 2 * list_inner_product(e.q, cand.cv)
                  + list_inner_product(cand.cv, cand.cv)) AS BIGINT)
           AS total_d2
  FROM e CROSS JOIN cand GROUP BY 1)
SELECT cid AS vec_id, total_d2
FROM d ORDER BY total_d2 ASC, cid ASC LIMIT 1
"""


# ======================================================= kernel_herding
#
# Kernel herding: greedily pick the candidate whose embedding best
# matches what is missing from the running mean — step t maximizes
# ⟨n·Σ_all·|S| − n·|S|·mean(S)·..., c⟩; cleared of denominators the
# exact integer score is  score(c) = ⟨|S|·Σ_all − n·Σ_S, c⟩  with
# Σ_all the global component sum (n vectors) and Σ_S the selected
# sum — the argmax ranks the mean-matching direction exactly (|S|=1
# for the first pick, where the score is just ⟨Σ_all, c⟩). Output:
# (step, vec_id, score).
#
# Scale shape: Σ_all is one bounded component-sum reduce; each step
# is then pure driver math over the candidate pool.


def q_kernel_herding(sf_dir: str):
    empty = pd.DataFrame(
        {
            "step": pd.Series(dtype=np.int64),
            "vec_id": pd.Series(dtype=np.int64),
            "score": pd.Series(dtype=object),
        }
    )
    if _n_rows(sf_dir, "embeddings") == 0:
        return empty
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cands = _cand_pool(emb)
    if cands.empty:
        return empty
    c_ids = cands["vec_id"].to_numpy(np.int64)
    c_mat = _qmat(cands["embedding"].to_numpy())

    def sums(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "k": pd.Series(dtype=np.int64),
                    "s": pd.Series(dtype=np.int64),
                    "n": pd.Series(dtype=np.int64),
                }
            )
        mat = _qmat(df["embedding"].to_numpy())
        s = mat.sum(axis=0)
        out = pd.DataFrame(
            {
                "k": np.arange(mat.shape[1], dtype=np.int64),
                "s": s.astype(np.int64),
                "n": np.zeros(mat.shape[1], np.int64),
            }
        )
        out.loc[0, "n"] = len(mat)
        return out

    agg = (
        emb.map_batches(sums, batch_format="pandas")
        .groupby("k")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("k")
    )
    sum_all = agg["s"].to_numpy(np.int64).astype(object)
    n = int(agg["n"].sum())
    sel_sum = np.zeros(len(sum_all), dtype=object)
    selected: list[int] = []
    rows = []
    for step in range(1, min(FL_K, len(c_ids)) + 1):
        t = len(selected) if selected else 1  # |S|; 1 on the first pick
        w = sum_all * t - sel_sum * n
        best = None
        for i, cid in enumerate(c_ids):
            if int(cid) in selected:
                continue
            sc = int((w * c_mat[i].astype(object)).sum())
            key = (-sc, int(cid))
            if best is None or key < best:
                best = key
        sc, cid = -best[0], best[1]
        i = int(np.flatnonzero(c_ids == cid)[0])
        selected.append(cid)
        sel_sum = sel_sum + c_mat[i].astype(object)
        rows.append((step, cid, str(sc)))
    out = pd.DataFrame(rows, columns=["step", "vec_id", "score"])
    out["step"] = out["step"].astype(np.int64)
    out["vec_id"] = out["vec_id"].astype(np.int64)
    return out


def _herding_sql() -> str:
    parts = [
        f"WITH {_E_SQL}, {_CAND_SQL},",
        """dims AS (SELECT CAST(i.i AS INTEGER) AS k
  FROM unnest(range(1, len((SELECT q FROM e LIMIT 1)) + 1)) AS i(i)),
sall AS MATERIALIZED (
  SELECT dims.k, CAST(SUM(e.q[dims.k]) AS HUGEINT) AS s,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM e, dims GROUP BY 1),""",
    ]
    prev = None
    for t in range(1, FL_K + 1):
        tsize = 1 if prev is None else t - 1
        if prev is None:
            ssel = "CAST(0 AS HUGEINT)"
            notin = ""
        else:
            ssel = (
                f"(SELECT COALESCE(SUM(cv_k), 0) FROM selvec{t - 1} sv "
                f"WHERE sv.k = sall.k)"
            )
            notin = (
                f"WHERE cand.cid NOT IN (SELECT cid FROM selset{t - 1})"
            )
        parts.append(
            f"""sc{t} AS MATERIALIZED (
  SELECT cand.cid,
         CAST(SUM((sall.s * {tsize} - ({ssel}) * sall.n)
                  * cand.cv[sall.k]) AS HUGEINT) AS sc
  FROM cand CROSS JOIN sall
  {notin}
  GROUP BY 1),
pick{t} AS MATERIALIZED (
  SELECT cid, sc FROM sc{t} ORDER BY sc DESC, cid ASC LIMIT 1),"""
        )
        if prev is None:
            parts.append(
                f"""selset{t} AS MATERIALIZED (SELECT cid FROM pick{t}),
selvec{t} AS MATERIALIZED (
  SELECT dims.k, CAST(cand.cv[dims.k] AS HUGEINT) AS cv_k
  FROM pick{t} JOIN cand ON cand.cid = pick{t}.cid, dims),"""
            )
        else:
            parts.append(
                f"""selset{t} AS MATERIALIZED (
  SELECT cid FROM selset{t - 1} UNION ALL SELECT cid FROM pick{t}),
selvec{t} AS MATERIALIZED (
  SELECT sv.k, CAST(SUM(sv.cv_k) AS HUGEINT) AS cv_k FROM (
    SELECT k, cv_k FROM selvec{t - 1}
    UNION ALL
    SELECT dims.k, CAST(cand.cv[dims.k] AS HUGEINT)
    FROM pick{t} JOIN cand ON cand.cid = pick{t}.cid, dims) sv
  GROUP BY 1),"""
            )
        prev = t
    unions = " UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS step, cid AS vec_id, "
        f"CAST(sc AS VARCHAR) AS score FROM pick{t}"
        for t in range(1, FL_K + 1)
    )
    parts.append(f"out AS ({unions})\nSELECT step, vec_id, score FROM out")
    return "\n".join(parts)


CORESET_SQL_QUERIES: dict[str, tuple] = {
    "facility_location": (q_facility_location, _facility_sql()),
    "medoid_select": (q_medoid_select, MEDOID_SELECT_SQL),
    "kernel_herding": (q_kernel_herding, _herding_sql()),
}
