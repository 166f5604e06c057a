"""Site-level web-corpus operator (round-5 batch 15): DUST alias-rule
mining (Bar-Yossef, Keidar & Schonfeld, WWW 2007).

Scale idioms per pipelines/grouping.py: per-batch combiners, ONE
coarse exchange per data-scaled key, capped per-family work with the
cap surfaced as a constant, and fixed-domain (≤ |classes| or ≤ 97²)
driver reduces. All arithmetic is integer.

Reference parity: the reference crawls a single host
(europarl/settings.ini) and has no cross-site analytics; these extend
the brief's crawl-frontier family.
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


SITEGRAPH_SQL_QUERIES: dict[str, tuple] = {
    "dust_detect": (q_dust_detect, _dust_sql(), "frontier"),
}
