"""Crawl-yield / corpus-value operators (round-5 batch 18): host
discovery curve (coverage yield of continued crawling), duplication-
aware effective corpus size (SlimPajama-style 1/family weights), and
the directed 3-cycle census (spider-ring / link-farm signal).

Scale idioms: bounded-domain exchanges only — the host domain (≤ 388
sub×site combos), the source domain, and canonical-vertex wedge
buckets; integer ppm weights with per-doc floors so both engines sum
identically.

Reference parity: the reference has no coverage or yield analytics
(europarl/tools/status.py counts rows); these extend the brief's
crawl-frontier / dedup families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data.aggregate import Min, Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import with_coarse_group as _with_coarse_group
from .ml_queries import _md5u


# ================================================= host_discovery_curve
#
# Host-coverage yield of continued crawling: after the first
# n·t/HDC_STEPS pages (crawl order = doc_id, the generator's order),
# how many distinct hosts (sub.site combos of the url rule — ≤ 388)
# have been seen? The flattening point of this curve is where a
# breadth-oriented crawl stops discovering new hosts and a scheduler
# should rebalance toward depth or recrawl.
#
# Scale shape: per-batch (host, min doc_id) partials → one
# host-domain-bounded groupby Min → the STEP grid is driver math over
# ≤ 388 rows. Nothing data-scaled leaves the tasks.

HDC_STEPS = 8


def q_host_discovery_curve(sf_dir: str):
    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "step": pd.Series(dtype=np.int64),
            "n_prefix": pd.Series(dtype=np.int64),
            "hosts_seen": pd.Series(dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        host = (ids % 4) * 97 + (ids % 97)  # sub index * 97 + site index
        out = (
            pd.DataFrame({"host": host, "first_doc": ids})
            .groupby("host", as_index=False)["first_doc"]
            .min()
        )
        return out.astype(np.int64)

    firsts = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("host")
        .aggregate(Min("first_doc", alias_name="first_doc"))
        .to_pandas()  # <= 388 rows (host domain)
    )
    fd = firsts["first_doc"].to_numpy(np.int64)
    rows = []
    for t in range(1, HDC_STEPS + 1):
        n_prefix = n_docs * t // HDC_STEPS
        rows.append((t, n_prefix, int((fd < n_prefix).sum())))
    return pd.DataFrame(
        rows, columns=["step", "n_prefix", "hosts_seen"]
    ).astype(np.int64)


HOST_DISCOVERY_CURVE_SQL = f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
firsts AS (
  SELECT (doc_id % 4) * 97 + (doc_id % 97) AS host,
         MIN(doc_id) AS first_doc
  FROM documents GROUP BY 1),
grid AS (
  SELECT CAST(t.t AS BIGINT) AS step, CAST(n.cnt * t.t // {HDC_STEPS} AS BIGINT) AS n_prefix
  FROM unnest(range(1, {HDC_STEPS + 1})) AS t(t), n)
SELECT g.step, g.n_prefix,
       CAST(SUM(CASE WHEN f.first_doc < g.n_prefix THEN 1 ELSE 0 END)
            AS BIGINT) AS hosts_seen
FROM grid g, firsts f
GROUP BY g.step, g.n_prefix
"""


# ================================================ effective_corpus_size
#
# Duplication-aware effective corpus size (the SlimPajama /
# deduplicated-sampling convention): a document in an alias family of
# size s contributes weight 1/s, so a source whose volume is alias
# shadow contributes its family count, not its row count. Weight is
# the ppm floor 10^6 // s per document (both engines floor per doc,
# then sum — order-independent). Families are the dust:42 rule
# (sitegraph_ops.q_dust_detect's synthetic alias structure).
#
# Scale shape: (doc, source, fam) → ONE coarse family exchange →
# in-task family sizes → per-source weight partials (source-domain
# bounded) → tiny groupby.


def q_effective_corpus_size(sf_dir: str):
    from .sitegraph_ops import _dust_family

    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "source": pd.Series(dtype=str),
            "n_docs": pd.Series(dtype=np.int64),
            "eff_weight_ppm": pd.Series(dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def fam(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "source": df["source"].astype(object),
                "fam": _dust_family(ids, n_docs),
            }
        )

    def weigh(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        sz = t.groupby("fam")["doc_id"].transform("size").to_numpy(np.int64)
        t = t.assign(w=1_000_000 // sz)
        out = t.groupby("source", as_index=False).agg(
            n_part=("w", "size"), w_part=("w", "sum")
        )
        return out.astype({"n_part": np.int64, "w_part": np.int64})

    c = (
        _with_coarse_group(d.map_batches(fam, batch_format="pandas"), "fam")
        .groupby("_g")
        .map_groups(weigh, batch_format="pandas")
        .groupby("source")
        .aggregate(
            Sum("n_part", alias_name="n_docs"),
            Sum("w_part", alias_name="eff_weight_ppm"),
        )
        .to_pandas()  # bounded by the source domain
    )
    if not len(c):
        return empty
    c["n_docs"] = c["n_docs"].astype(np.int64)
    c["eff_weight_ppm"] = c["eff_weight_ppm"].astype(np.int64)
    return c.sort_values("source").reset_index(drop=True)


def _effective_size_sql() -> str:
    md5u = _md5u("'dust:42:' || CAST(doc_id AS VARCHAR)")
    return f"""
WITH n AS (SELECT GREATEST(COUNT(*) // 3, 1) AS nf FROM documents),
f AS (
  SELECT doc_id, source, CAST({md5u} % n.nf AS BIGINT) AS fam
  FROM documents, n),
w AS (
  SELECT source,
         1000000 // COUNT(*) OVER (PARTITION BY fam) AS w
  FROM f)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(w) AS BIGINT) AS eff_weight_ppm
FROM w GROUP BY source
"""


# ==================================================== directed_3cycles
#
# Directed 3-cycle census over the DISTINCT edge set (u→v→w→u, each
# cycle counted once at its canonical lowest vertex) plus the directed
# 2-path (wedge) count — the u→v→w→u density versus wedge supply is
# the link-farm / spider-ring signal reciprocal-pair counting misses
# (rings of length 3 have zero reciprocity).
#
# Scale shape — the triangle_count node-iterator adapted to direction:
# edges dedup per src bucket; wedges u→v→w are emitted from v's bucket
# (where in-edge u→v meets out-edge v→w) keyed by w, where the closing
# out-edge w→u lives; the canonical u < v ∧ u < w filter counts each
# cycle exactly once. Everything is vectorized pandas merges inside
# bucket tasks; the driver sees two scalars.

_D3_NB = 64


def q_directed_3cycles(sf_dir: str, n_buckets: int = _D3_NB):
    from .queries import internal_edges_np

    n_docs = _n_rows(sf_dir, "documents")
    if n_docs == 0:
        return pd.DataFrame({"n_wedges": [0], "n_3cycles": [0]}).astype(
            np.int64
        )
    d = _read(sf_dir, "documents", columns=["doc_id"])

    # kind 0 = edge (n1=src, n2=dst) bucketed by src (serves v→w and
    # w→u lookups); kind 1 = the same edge bucketed by dst (serves the
    # u→v side of wedge assembly at v)
    def emit(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        e = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        out = pd.concat(
            [
                e.assign(kind=np.int64(0), b=e["src"].to_numpy(np.int64) % n_buckets),
                e.assign(kind=np.int64(1), b=e["dst"].to_numpy(np.int64) % n_buckets),
            ],
            ignore_index=True,
        )
        return out

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"]).drop_duplicates(["kind", "src", "dst"])
        e_in = t[t["kind"] == 1][["src", "dst"]].rename(
            columns={"src": "u", "dst": "v"}
        )
        e_out = t[t["kind"] == 0][["src", "dst"]].rename(
            columns={"src": "v", "dst": "w"}
        )
        j = e_in.merge(e_out, on="v")
        j = j[j["u"] != j["w"]]  # a 2-cycle u→v→u is not a wedge
        if not len(j):
            return pd.DataFrame(
                {
                    "u": pd.Series(dtype=np.int64),
                    "v": pd.Series(dtype=np.int64),
                    "w": pd.Series(dtype=np.int64),
                    "wb": pd.Series(dtype=np.int64),
                }
            )
        j = j.astype(np.int64)
        j["wb"] = j["w"].to_numpy(np.int64) % n_buckets
        return j[["u", "v", "w", "wb"]]

    def close(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        wd = t[t["u"] >= 0][["u", "v", "w"]]
        ed = t[t["u"] < 0][["src", "dst"]].drop_duplicates()
        n_w = len(wd)
        if not n_w or not len(ed):
            return pd.DataFrame(
                {"wedge_part": [n_w], "cyc_part": [0]}
            ).astype(np.int64)
        j = wd.merge(
            ed.rename(columns={"src": "w", "dst": "u"}), on=["w", "u"]
        )
        canon = j[(j["u"] < j["v"]) & (j["u"] < j["w"])]
        return pd.DataFrame(
            {"wedge_part": [n_w], "cyc_part": [len(canon)]}
        ).astype(np.int64)

    # stage 1: wedge assembly in v's bucket
    wedge_ds = (
        _with_coarse_group(
            d.map_batches(emit, batch_format="pandas"), "b"
        )
        .groupby("_g")
        .map_groups(wedges, batch_format="pandas")
    )

    # stage 2: close at w's bucket — union wedges (u>=0) with edges
    # re-keyed by src (marked with u = -1)
    def edges_by_src(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        e = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        return pd.DataFrame(
            {
                "u": np.full(len(e), -1, np.int64),
                "v": np.full(len(e), -1, np.int64),
                "w": np.full(len(e), -1, np.int64),
                "src": e["src"].to_numpy(np.int64),
                "dst": e["dst"].to_numpy(np.int64),
                "wb": e["src"].to_numpy(np.int64) % n_buckets,
            }
        )

    def pad_wedges(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["src"] = np.full(len(out), -1, np.int64)
        out["dst"] = np.full(len(out), -1, np.int64)
        return out

    unioned = wedge_ds.map_batches(pad_wedges, batch_format="pandas").union(
        d.map_batches(edges_by_src, batch_format="pandas")
    )
    c = (
        _with_coarse_group(unioned, "wb")
        .groupby("_g")
        .map_groups(close, batch_format="pandas")
        .sum(["wedge_part", "cyc_part"])
    )
    return pd.DataFrame(
        {
            "n_wedges": [int(c["sum(wedge_part)"])],
            "n_3cycles": [int(c["sum(cyc_part)"])],
        }
    ).astype(np.int64)


DIRECTED_3CYCLES_SQL = f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")} % 4 AS BIGINT) AS k
       FROM documents),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
wedge AS (
  SELECT a.src AS u, a.dst AS v, b.dst AS w
  FROM e a JOIN e b ON a.dst = b.src
  WHERE a.src <> b.dst),
cyc AS (
  SELECT wedge.u FROM wedge JOIN e c ON c.src = wedge.w AND c.dst = wedge.u
  WHERE wedge.u < wedge.v AND wedge.u < wedge.w)
SELECT
  CAST((SELECT COUNT(*) FROM wedge) AS BIGINT) AS n_wedges,
  CAST((SELECT COUNT(*) FROM cyc) AS BIGINT) AS n_3cycles
"""


CRAWLYIELD_SQL_QUERIES: dict[str, tuple] = {
    "host_discovery_curve": (q_host_discovery_curve, HOST_DISCOVERY_CURVE_SQL, "frontier"),
    "effective_corpus_size": (q_effective_corpus_size, _effective_size_sql(), "frontier"),
    "directed_3cycles": (q_directed_3cycles, DIRECTED_3CYCLES_SQL, "frontier"),
}
