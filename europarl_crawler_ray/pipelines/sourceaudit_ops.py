"""Cross-source corpus-audit operators (round-5 batch 19): link rot
under curation filters, exact vocabulary overlap between sources, and
a Burrows-Delta-style stylometric distance over the shared top-K
vocabulary.

Scale idioms: bounded-domain outputs (≤ |sources|² pairs, ≤ 97 sites),
ONE coarse exchange per data-scaled key (dst node, token), broadcast
of the bounded top-K vocabulary via ray.put, integer per-mille /
basis-point quantization with per-item floors so both engines sum
identically.

Reference parity: the reference is single-source by construction
(europarl/settings.ini); these extend the brief's curation /
text-analysis families.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import with_coarse_group as _with_coarse_group
from .ml_queries import _md5u


_TOKEN_RE = r"[^ \t\n\r\f]+"


# ====================================================== link_rot_filter
#
# Link rot under curation: if every document shorter than LRF_MIN_CHARS
# is dropped by the quality filter, how many of each site's outgoing
# links break (point at a dropped document)? A site whose links mostly
# die under the filter loses its navigational value for recrawl
# seeding — the connectivity cost of a length cutoff, reported before
# the cutoff ships.
#
# Scale shape — edge_homophily's label-join plane, one exchange: the
# keep/drop label of a node and the edges POINTING AT it co-locate in
# the dst-owner's bucket (labels are read off the scanned n_chars
# column — no second pass), where per-src_site partials (≤ 97 rows per
# task) are emitted into a schema-bounded groupby.

LRF_MIN_CHARS = 200
_LRF_NB = 64


def q_link_rot_filter(sf_dir: str, n_buckets: int = _LRF_NB):
    from .queries import internal_edges_np
    from .sitegraph_ops import N_SITES

    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "src_site": pd.Series(dtype=np.int64),
            "n_edges": pd.Series(dtype=np.int64),
            "n_broken": pd.Series(dtype=np.int64),
            "broken_bp": pd.Series(dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    # kind 0 = edge keyed by dst (carries the src site), kind 1 = node
    # keep/drop label keyed by the node itself
    def emit(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        src, dst = internal_edges_np(ids, n_docs)
        he = pd.DataFrame(
            {
                "kind": np.int64(0),
                "node": dst,
                "src_site": src % N_SITES,
                "keep": np.int64(-1),
            }
        )
        nd = pd.DataFrame(
            {
                "kind": np.int64(1),
                "node": ids,
                "src_site": np.int64(-1),
                "keep": (
                    df["n_chars"].to_numpy(np.int64) >= LRF_MIN_CHARS
                ).astype(np.int64),
            }
        )
        out = pd.concat([he, nd], ignore_index=True)
        out["b"] = out["node"].to_numpy(np.int64) % n_buckets
        return out

    def tally(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        lab = dict(
            zip(t.loc[t["kind"] == 1, "node"], t.loc[t["kind"] == 1, "keep"])
        )
        he = t[t["kind"] == 0]
        if not len(he):
            return pd.DataFrame(
                {
                    "src_site": pd.Series(dtype=np.int64),
                    "e_part": pd.Series(dtype=np.int64),
                    "b_part": pd.Series(dtype=np.int64),
                }
            )
        keep = he["node"].map(lab).to_numpy(np.int64)
        out = (
            pd.DataFrame(
                {
                    "src_site": he["src_site"].to_numpy(np.int64),
                    "broken": (keep == 0).astype(np.int64),
                }
            )
            .groupby("src_site", as_index=False)
            .agg(e_part=("broken", "size"), b_part=("broken", "sum"))
        )
        return out.astype(np.int64)

    c = (
        _with_coarse_group(d.map_batches(emit, batch_format="pandas"), "b")
        .groupby("_g")
        .map_groups(tally, batch_format="pandas")
        .groupby("src_site")
        .aggregate(
            Sum("e_part", alias_name="n_edges"),
            Sum("b_part", alias_name="n_broken"),
        )
        .to_pandas()  # <= 97 rows
    )
    if not len(c):
        return empty
    c = c.astype(np.int64)
    c["broken_bp"] = (
        c["n_broken"].astype(object) * 10000 // c["n_edges"].astype(object)
    ).astype(np.int64)
    return c.sort_values("src_site").reset_index(drop=True)


def _link_rot_sql() -> str:
    from .sitegraph_ops import N_SITES

    lnk = _md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {lnk} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
lab AS (
  SELECT doc_id,
         CASE WHEN n_chars >= {LRF_MIN_CHARS} THEN 1 ELSE 0 END AS keep
  FROM documents)
SELECT e.src % {N_SITES} AS src_site,
       CAST(COUNT(*) AS BIGINT) AS n_edges,
       CAST(SUM(1 - lab.keep) AS BIGINT) AS n_broken,
       CAST(SUM(1 - lab.keep) * 10000 // COUNT(*) AS BIGINT) AS broken_bp
FROM e JOIN lab ON lab.doc_id = e.dst
GROUP BY 1
"""


# ================================================== source_vocab_overlap
#
# Exact vocabulary overlap between source pairs: per unordered source
# pair, |V_a ∩ V_b|, |V_a ∪ V_b| and the Jaccard (basis points) over
# distinct lowercase whitespace tokens — the corpus-mixing signal that
# says whether two feeds are redundant (high overlap) or complementary
# before a mixture weight is assigned to each.
#
# Scale shape: per-batch (token, source) distinct partials → ONE
# coarse token exchange → per-task source-SET per token → pair
# increments (≤ C(|sources|,2) per token, source-domain bounded) plus
# per-source vocab partials → two tiny groupbys → driver join over
# ≤ |sources|² rows. The vocabulary itself never reaches the driver.


def q_source_vocab_overlap(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["source", "text"])
    tok_re = re.compile(_TOKEN_RE)
    empty = pd.DataFrame(
        {
            "src_a": pd.Series(dtype=str),
            "src_b": pd.Series(dtype=str),
            "n_inter": pd.Series(dtype=np.int64),
            "n_union": pd.Series(dtype=np.int64),
            "jaccard_bp": pd.Series(dtype=np.int64),
        }
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = set()
        for s, t in zip(df["source"], df["text"]):
            for tok in tok_re.findall(str(t).lower()):
                rows.add((tok, s))
        if not rows:
            return pd.DataFrame(
                {"token": pd.Series(dtype=object),
                 "source": pd.Series(dtype=object)}
            )
        out = pd.DataFrame(list(rows), columns=["token", "source"])
        return out

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"]).drop_duplicates(["token", "source"])
        rec: dict[tuple, int] = {}
        vocab: dict[str, int] = {}
        for _, grp in t.groupby("token"):
            ss = sorted(set(grp["source"]))
            for s in ss:
                vocab[s] = vocab.get(s, 0) + 1
            for i in range(len(ss)):
                for j in range(i + 1, len(ss)):
                    k = (ss[i], ss[j])
                    rec[k] = rec.get(k, 0) + 1
        out_i = pd.DataFrame(
            [(a, b, v, 0) for (a, b), v in rec.items()],
            columns=["src_a", "src_b", "i_part", "v_part"],
        )
        out_v = pd.DataFrame(
            [(s, "", 0, v) for s, v in vocab.items()],
            columns=["src_a", "src_b", "i_part", "v_part"],
        )
        out = pd.concat([out_i, out_v], ignore_index=True)
        return out.astype({"i_part": np.int64, "v_part": np.int64})

    c = (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(pairs, batch_format="pandas")
        .groupby(["src_a", "src_b"])
        .aggregate(
            Sum("i_part", alias_name="n_inter"),
            Sum("v_part", alias_name="vocab"),
        )
        .to_pandas()  # <= |sources|^2 rows
    )
    if not len(c):
        return empty
    vocab = {
        r["src_a"]: int(r["vocab"]) for _, r in c[c["src_b"] == ""].iterrows()
    }
    pairs_df = c[c["src_b"] != ""].copy()
    rows = []
    for _, r in pairs_df.iterrows():
        a, b, inter = r["src_a"], r["src_b"], int(r["n_inter"])
        union = vocab[a] + vocab[b] - inter
        rows.append((a, b, inter, union, inter * 10000 // union))
    return (
        pd.DataFrame(
            rows,
            columns=["src_a", "src_b", "n_inter", "n_union", "jaccard_bp"],
        )
        .astype(
            {"n_inter": np.int64, "n_union": np.int64, "jaccard_bp": np.int64}
        )
        .sort_values(["src_a", "src_b"])
        .reset_index(drop=True)
    )


SOURCE_VOCAB_OVERLAP_SQL = rf"""
WITH tv AS (
  SELECT DISTINCT source,
         unnest(regexp_extract_all(lower(text), '{_TOKEN_RE}')) AS token
  FROM documents),
v AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS nv FROM tv GROUP BY 1),
inter AS (
  SELECT a.source AS src_a, b.source AS src_b,
         CAST(COUNT(*) AS BIGINT) AS n_inter
  FROM tv a JOIN tv b ON a.token = b.token AND a.source < b.source
  GROUP BY 1, 2)
SELECT i.src_a, i.src_b, i.n_inter,
       CAST(va.nv + vb.nv - i.n_inter AS BIGINT) AS n_union,
       CAST(i.n_inter * 10000 // (va.nv + vb.nv - i.n_inter) AS BIGINT)
           AS jaccard_bp
FROM inter i
JOIN v va ON va.source = i.src_a
JOIN v vb ON vb.source = i.src_b
"""


# ======================================================== stylometry_l1
#
# Burrows-Delta-style stylometric distance between sources, integer
# form: per source, the per-mille frequency (count·1000 // total over
# the shared top-STYL_K corpus vocabulary, floored per cell) of each
# top-K token; distance(a, b) = Σ_tokens |f_a − f_b| — the L1 profile
# distance stylometry uses to flag a "source" that is actually two
# mixed feeds (high intra-pair distance) or a mirrored feed (near 0).
#
# Scale shape: top-K vocabulary via the bounded global top-K plan
# (count DESC, token ASC tie-break) broadcast once via ray.put; then
# per-batch (source, token) count partials restricted to the K-token
# domain → one (≤ |sources|·K)-row groupby → driver L1 over the
# bounded profile table.

STYL_K = 64


def q_stylometry_l1(sf_dir: str, k: int = STYL_K):
    d = _read(sf_dir, "documents", columns=["source", "text"])
    tok_re = re.compile(_TOKEN_RE)
    empty = pd.DataFrame(
        {
            "src_a": pd.Series(dtype=str),
            "src_b": pd.Series(dtype=str),
            "l1_pm": pd.Series(dtype=np.int64),
        }
    )

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        rec: dict[str, int] = {}
        for t in df["text"]:
            for tok in tok_re.findall(str(t).lower()):
                rec[tok] = rec.get(tok, 0) + 1
        if not rec:
            return pd.DataFrame(
                {"token": pd.Series(dtype=object),
                 "n_part": pd.Series(dtype=np.int64)}
            )
        return pd.DataFrame(
            {"token": list(rec), "n_part": np.array(list(rec.values()), np.int64)}
        )

    topk = (
        _with_coarse_group(
            d.map_batches(tok_counts, batch_format="pandas"), "token"
        )
        .groupby("_g")
        .map_groups(
            lambda g: g.drop(columns=["_g"])
            .groupby("token", as_index=False)["n_part"]
            .sum(),
            batch_format="pandas",
        )
        .sort(["n_part", "token"], descending=[True, False])
        .limit(k)
        .to_pandas()  # exactly <= K rows by construction
    )
    if topk.empty:
        return empty
    vocab_ref = ray.put(frozenset(topk["token"].tolist()))

    def src_counts(df: pd.DataFrame) -> pd.DataFrame:
        vocab = ray.get(vocab_ref)
        rec: dict[tuple, list] = {}
        for s, t in zip(df["source"], df["text"]):
            for tok in tok_re.findall(str(t).lower()):
                key = (s, tok)
                if tok in vocab:
                    r = rec.setdefault(key, [0])
                    r[0] += 1
                # total tokens per source tracked separately below
        tot: dict[str, int] = {}
        for s, t in zip(df["source"], df["text"]):
            tot[s] = tot.get(s, 0) + len(tok_re.findall(str(t).lower()))
        rows = [(s, tok, v[0], 0) for (s, tok), v in rec.items()]
        rows += [(s, "", 0, n) for s, n in tot.items()]
        out = pd.DataFrame(
            rows, columns=["source", "token", "c_part", "t_part"]
        )
        return out.astype({"c_part": np.int64, "t_part": np.int64})

    prof = (
        d.map_batches(src_counts, batch_format="pandas")
        .groupby(["source", "token"])
        .aggregate(
            Sum("c_part", alias_name="c"),
            Sum("t_part", alias_name="t"),
        )
        .to_pandas()  # <= |sources| * (K + 1) rows
    )
    totals = {
        r["source"]: int(r["t"]) for _, r in prof[prof["token"] == ""].iterrows()
    }
    cells = prof[prof["token"] != ""]
    toks = sorted(topk["token"].tolist())
    srcs = sorted(totals)
    f = {
        (r["source"], r["token"]): int(r["c"]) * 1000 // totals[r["source"]]
        for _, r in cells.iterrows()
    }
    rows = []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            a, b = srcs[i], srcs[j]
            l1 = sum(
                abs(f.get((a, t), 0) - f.get((b, t), 0)) for t in toks
            )
            rows.append((a, b, l1))
    return (
        pd.DataFrame(rows, columns=["src_a", "src_b", "l1_pm"])
        .astype({"l1_pm": np.int64})
        .sort_values(["src_a", "src_b"])
        .reset_index(drop=True)
    )


STYLOMETRY_L1_SQL = rf"""
WITH toks AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '{_TOKEN_RE}')) AS token
  FROM documents),
topk AS (
  SELECT token FROM (SELECT token, COUNT(*) AS n FROM toks GROUP BY 1)
  ORDER BY n DESC, token ASC LIMIT {STYL_K}),
tot AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS t FROM toks GROUP BY 1),
cells AS (
  SELECT toks.source, toks.token, CAST(COUNT(*) AS BIGINT) AS c
  FROM toks JOIN topk USING (token) GROUP BY 1, 2),
prof AS (
  SELECT s.source, k.token,
         COALESCE(c.c, 0) * 1000 // s.t AS f
  FROM tot s CROSS JOIN topk k
  LEFT JOIN cells c ON c.source = s.source AND c.token = k.token)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(SUM(ABS(a.f - b.f)) AS BIGINT) AS l1_pm
FROM prof a JOIN prof b ON a.token = b.token AND a.source < b.source
GROUP BY 1, 2
"""


SOURCEAUDIT_SQL_QUERIES: dict[str, tuple] = {
    "link_rot_filter": (q_link_rot_filter, _link_rot_sql()),
    "source_vocab_overlap": (q_source_vocab_overlap, SOURCE_VOCAB_OVERLAP_SQL),
    "stylometry_l1": (q_stylometry_l1, STYLOMETRY_L1_SQL),
}
