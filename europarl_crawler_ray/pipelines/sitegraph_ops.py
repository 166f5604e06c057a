"""Site-level web-corpus operators (round-5 batch 15): DUST alias-rule
mining (Bar-Yossef, Keidar & Schonfeld, WWW 2007), host-level PageRank
contraction, and the page-graph → host-graph contraction.

Scale idioms per pipelines/grouping.py: per-batch combiners, ONE
coarse exchange per data-scaled key, capped per-family work with the
cap surfaced as a constant, and fixed-domain (≤ |classes| or ≤ 97²)
driver reduces. All arithmetic is integer.

Reference parity: the reference crawls a single host
(europarl/settings.ini) and has no cross-site analytics; these extend
the brief's crawl-frontier / link-analysis families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import with_coarse_group as _with_coarse_group
from .ml_queries import _md5u


# ========================================================== dust_detect
#
# DUST — Different URLs with Similar Text: mine which URL axis explains
# each alias pair so the canonicalizer can learn rewrite rules instead
# of fetching every alias. Alias families are the deterministic
# md5-derived rule content_id = md5_64("dust:42:" + doc_id) % (n//3)
# (the corpus-synthesis idiom the link graph's lnkk:42 rule uses — the
# testdata has no planted exact-dup texts). Within a family, every
# unordered pair of the DUST_CAP lowest doc_ids is classified by the
# url-generation rule's axes (q_surt_keys' rule): differing subdomain
# with same TLD → 'subdomain_mirror'; differing TLD →
# 'tld_mirror'; same sub + same TLD → 'path_alias'. The census over
# the fixed 3-class domain is the rule-miner's priority list.
#
# Scale shape: per-batch content-id map → ONE coarse exchange on the
# family id (a family lands whole in one task) → per-task capped pair
# classification (≤ C(DUST_CAP,2) = 28 pairs per family, cap surfaced)
# → 3-row partials → tiny groupby → zero-filled fixed-domain output.

DUST_CAP = 8
DUST_CLASSES = ("subdomain_mirror", "tld_mirror", "path_alias")


def _dust_family(ids: np.ndarray, n_docs: int) -> np.ndarray:
    from ..stages.multimodal import _md5_64

    n_fam = max(n_docs // 3, 1)
    return np.fromiter(
        (_md5_64(f"dust:42:{int(i)}") % n_fam for i in ids),
        np.int64,
        len(ids),
    )


def q_dust_detect(sf_dir: str):
    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "dust_class": pd.Series(list(DUST_CLASSES), dtype=str),
            "n_pairs": np.zeros(len(DUST_CLASSES), np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def fam(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids, "fam": _dust_family(ids, n_docs)})

    def classify(g: pd.DataFrame) -> pd.DataFrame:
        out = dict.fromkeys(DUST_CLASSES, 0)
        t = g.drop(columns=["_g"])
        for _, grp in t.groupby("fam"):
            ids = np.sort(grp["doc_id"].to_numpy(np.int64))[:DUST_CAP]
            if len(ids) < 2:
                continue
            a, b = np.triu_indices(len(ids), k=1)
            u, v = ids[a], ids[b]
            sub_diff = (u % 4) != (v % 4)
            tld_diff = (u % 3) != (v % 3)
            out["tld_mirror"] += int(tld_diff.sum())
            out["subdomain_mirror"] += int((sub_diff & ~tld_diff).sum())
            out["path_alias"] += int((~sub_diff & ~tld_diff).sum())
        return pd.DataFrame(
            {
                "dust_class": list(out),
                "n_part": np.array(list(out.values()), np.int64),
            }
        )

    c = (
        _with_coarse_group(d.map_batches(fam, batch_format="pandas"), "fam")
        .groupby("_g")
        .map_groups(classify, batch_format="pandas")
        .groupby("dust_class")
        .aggregate(Sum("n_part", alias_name="n_pairs"))
        .to_pandas()  # <= 3 rows
    )
    out = empty[["dust_class"]].merge(c, on="dust_class", how="left").fillna(
        {"n_pairs": 0}
    )
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    return out.reset_index(drop=True)


def _dust_sql() -> str:
    md5u = _md5u("'dust:42:' || CAST(doc_id AS VARCHAR)")
    return f"""
WITH n AS (SELECT GREATEST(COUNT(*) // 3, 1) AS nf FROM documents),
f AS (
  SELECT doc_id, CAST({md5u} % n.nf AS BIGINT) AS fam,
         ROW_NUMBER() OVER (
           PARTITION BY CAST({md5u} % n.nf AS BIGINT) ORDER BY doc_id
         ) AS rn
  FROM documents, n),
capped AS (SELECT doc_id, fam FROM f WHERE rn <= {DUST_CAP}),
pairs AS (
  SELECT a.doc_id AS u, b.doc_id AS v
  FROM capped a JOIN capped b ON a.fam = b.fam AND a.doc_id < b.doc_id),
cls AS (
  SELECT CASE
    WHEN u % 3 <> v % 3 THEN 'tld_mirror'
    WHEN u % 4 <> v % 4 THEN 'subdomain_mirror'
    ELSE 'path_alias' END AS dust_class
  FROM pairs),
dom(dust_class) AS (
  VALUES ('subdomain_mirror'), ('tld_mirror'), ('path_alias'))
SELECT dom.dust_class,
       CAST(COALESCE(COUNT(cls.dust_class), 0) AS BIGINT) AS n_pairs
FROM dom LEFT JOIN cls ON dom.dust_class = cls.dust_class
GROUP BY dom.dust_class
"""


# ====================================================== domain_pagerank
#
# Host-level PageRank: contract the page PageRank onto registrable
# domains (the url rule's site index, doc_id % 97) — the site-priority
# table a crawl scheduler actually consumes (per-host budgets want a
# per-host importance, not 10^10 per-page scores). Reuses q_pagerank's
# actor-Pregel run verbatim; the contraction is a bounded-domain
# (≤ 97 rows) groupby after a per-batch partial sum.
#
# Scale shape: everything data-scaled happens inside the pagerank
# engine; the contraction adds one schema-bounded exchange.

N_SITES = 97  # the url-generation rule's registrable-domain count


def q_domain_pagerank(sf_dir: str):
    from .queries import q_pagerank

    pr = q_pagerank(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "site": pd.Series(dtype=np.int64),
                    "pr_part": pd.Series(dtype=np.int64),
                    "n_part": pd.Series(dtype=np.int64),
                }
            )
        site = df["doc_id"].to_numpy(np.int64) % N_SITES
        out = (
            pd.DataFrame(
                {"site": site, "pr": df["pagerank"].to_numpy(np.int64)}
            )
            .groupby("site", as_index=False)
            .agg(pr_part=("pr", "sum"), n_part=("pr", "size"))
        )
        return out.astype(np.int64)

    c = (
        pr.map_batches(partial, batch_format="pandas")
        .groupby("site")
        .aggregate(
            Sum("pr_part", alias_name="pagerank_sum"),
            Sum("n_part", alias_name="n_pages"),
        )
        .to_pandas()  # <= N_SITES rows
    )
    if not len(c):
        return pd.DataFrame(
            {
                "site": pd.Series(dtype=np.int64),
                "pagerank_sum": pd.Series(dtype=np.int64),
                "n_pages": pd.Series(dtype=np.int64),
            }
        )
    return c.astype(np.int64).sort_values("site").reset_index(drop=True)


def _domain_pagerank_sql() -> str:
    from .queries import _pagerank_sql

    return f"""
WITH pr_out AS ({_pagerank_sql()})
SELECT doc_id % {N_SITES} AS site,
       CAST(SUM(pagerank) AS BIGINT) AS pagerank_sum,
       CAST(COUNT(*) AS BIGINT) AS n_pages
FROM pr_out GROUP BY 1
"""


# =================================================== hostgraph_contract
#
# Page-graph → host-graph contraction: nodes are registrable domains
# (site index), edge weight = number of page-level link-multiset rows
# between the two sites (self-site rows kept and labelled, so the
# intra/inter split is read off the same table) — the standard first
# reduction of a 10^10-page web graph to something a scheduler or a
# site-level ranker can hold.
#
# Scale shape: per-batch edge fan-out mapped straight to (hs, hd)
# partials (the page ids never leave the task) → one schema-bounded
# (≤ 97²-row) groupby. No data-scaled exchange at all.


def q_hostgraph_contract(sf_dir: str):
    from .queries import internal_edges_np

    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "src_site": pd.Series(dtype=np.int64),
            "dst_site": pd.Series(dtype=np.int64),
            "n_edges": pd.Series(dtype=np.int64),
            "intra": pd.Series(dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        src, dst = internal_edges_np(ids, n_docs)
        out = (
            pd.DataFrame(
                {"src_site": src % N_SITES, "dst_site": dst % N_SITES}
            )
            .groupby(["src_site", "dst_site"], as_index=False)
            .size()
        )
        out.columns = ["src_site", "dst_site", "n_part"]
        return out.astype(np.int64)

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby(["src_site", "dst_site"])
        .aggregate(Sum("n_part", alias_name="n_edges"))
        .to_pandas()  # <= 97^2 rows, schema-bounded
    )
    if not len(c):
        return empty
    c = c.astype(np.int64)
    c["intra"] = (
        c["src_site"].to_numpy(np.int64) == c["dst_site"].to_numpy(np.int64)
    ).astype(np.int64)
    return c.sort_values(["src_site", "dst_site"]).reset_index(drop=True)


_LNK_MD5U = _md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")

HOSTGRAPH_CONTRACT_SQL = f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_LNK_MD5U} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n)
SELECT src % {N_SITES} AS src_site, dst % {N_SITES} AS dst_site,
       CAST(COUNT(*) AS BIGINT) AS n_edges,
       CAST(CASE WHEN src % {N_SITES} = dst % {N_SITES} THEN 1 ELSE 0 END
            AS BIGINT) AS intra
FROM e GROUP BY 1, 2
"""


# ================================================ alias_canonical_share
#
# Canonicalization attrition report: if the crawler keeps only the
# canonical member of every DUST alias family (lowest doc_id — the
# keep-first rule dedup_keep_first demonstrates), how much of each
# source survives? The per-source canonical share is the number a
# curation report quotes when a source's volume is mostly alias
# shadow (loss concentrated in one source flags a mirror farm, not
# real coverage).
#
# Scale shape: (doc_id, source, fam) per batch → ONE coarse exchange
# on the family id (a family lands whole in one task) → in-task family
# min → per-source partials (bounded by the source domain) → tiny
# groupby → integer-bp driver math.


def q_alias_canonical_share(sf_dir: str):
    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "source": pd.Series(dtype=str),
            "n_docs": pd.Series(dtype=np.int64),
            "n_canonical": pd.Series(dtype=np.int64),
            "canonical_bp": pd.Series(dtype=np.int64),
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

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        fmin = t.groupby("fam")["doc_id"].transform("min")
        t = t.assign(
            canon=(t["doc_id"].to_numpy(np.int64) == fmin.to_numpy(np.int64))
        )
        out = t.groupby("source", as_index=False).agg(
            n_part=("canon", "size"), c_part=("canon", "sum")
        )
        return out.astype({"n_part": np.int64, "c_part": np.int64})

    c = (
        _with_coarse_group(d.map_batches(fam, batch_format="pandas"), "fam")
        .groupby("_g")
        .map_groups(mark, batch_format="pandas")
        .groupby("source")
        .aggregate(
            Sum("n_part", alias_name="n_docs"),
            Sum("c_part", alias_name="n_canonical"),
        )
        .to_pandas()  # bounded by the source domain
    )
    if not len(c):
        return empty
    c["n_docs"] = c["n_docs"].astype(np.int64)
    c["n_canonical"] = c["n_canonical"].astype(np.int64)
    c["canonical_bp"] = (
        c["n_canonical"].astype(object) * 10000 // c["n_docs"].astype(object)
    ).astype(np.int64)
    return c.sort_values("source").reset_index(drop=True)


def _alias_share_sql() -> str:
    md5u = _md5u("'dust:42:' || CAST(doc_id AS VARCHAR)")
    return f"""
WITH n AS (SELECT GREATEST(COUNT(*) // 3, 1) AS nf FROM documents),
f AS (
  SELECT doc_id, source, CAST({md5u} % n.nf AS BIGINT) AS fam
  FROM documents, n),
m AS (
  SELECT doc_id, source,
         CASE WHEN doc_id = MIN(doc_id) OVER (PARTITION BY fam)
              THEN 1 ELSE 0 END AS canon
  FROM f)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(canon) AS BIGINT) AS n_canonical,
       CAST(SUM(canon) * 10000 // COUNT(*) AS BIGINT) AS canonical_bp
FROM m GROUP BY source
"""


SITEGRAPH_SQL_QUERIES: dict[str, tuple] = {
    "alias_canonical_share": (q_alias_canonical_share, _alias_share_sql()),
    "dust_detect": (q_dust_detect, _dust_sql()),
    "domain_pagerank": (q_domain_pagerank, _domain_pagerank_sql()),
    "hostgraph_contract": (q_hostgraph_contract, HOSTGRAPH_CONTRACT_SQL),
}
