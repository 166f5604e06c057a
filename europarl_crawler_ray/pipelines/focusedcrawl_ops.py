"""Focused-crawl operators (round-5 batch 56): Shark-Search score
inheritance (Hersovici et al. 1998 — children inherit a decayed
ancestor relevance), Fish-Search depth potential (De Bra & Post 1994
— how far a relevant 'school' propagates along out-links), and the
harvest-rate curve (Chakrabarti et al. 1999 — the focused crawler's
headline metric: cumulative relevant share per crawl wave) — the
classic trio that turns a breadth crawl into a topical one.

Relevance is the integer term frequency of the query token
'{REL_TERM}' per document; 'relevant' means tf ≥ {REL_T}. Shark's
decay is the integer halving i_t(v) = max_parents ⌊(r(p)+i_(t-1)(p))/2⌋
over SHARK_ROUNDS rounds; Fish is a SHARK_ROUNDS-hop forward BFS
from the relevant seeds (depth, or −1 when unreached). All integer,
both engines.

Scale idioms: the propagation rounds ride union-co-location
exchanges over the resident directed edge list
(attach parent value at src, re-key dst, max/min-combine in-group) —
one value row per node per round, messages bounded by the edge
count; the harvest curve is an 8-wave bounded reduce plus a driver
cumsum.

Reference parity: the reference crawls breadth-only by date rules
(europarl/rules/); these add the focused-crawl surface the brief's
crawl tier implies at 10^10-URL scale (priority = topical yield).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import compact_small, with_coarse_group as _with_coarse_group
from .ml_queries import _md5u

REL_TERM = "join"
REL_T = 2
SHARK_ROUNDS = 3
HARVEST_WAVES = 8

TOK_RE = r"[^ \t\n\r\f]+"


def _dir_edges(sf_dir: str, n_docs: int) -> ray.data.Dataset:
    """Deduped directed (src, dst) edges, self-loops dropped."""
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])

    def expand(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        e = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        return pa.Table.from_pandas(e, preserve_index=False)

    return d.map_batches(expand, batch_format="pyarrow")


def _relevance(sf_dir: str) -> ray.data.Dataset:
    """(node, r) — tf of the query term per doc."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    term_re = re.compile(TOK_RE)

    def rel(df: pd.DataFrame) -> pd.DataFrame:
        r = np.fromiter(
            (
                sum(
                    1
                    for t in term_re.findall(str(x).lower())
                    if t == REL_TERM
                )
                for x in df["text"]
            ),
            np.int64,
            len(df),
        )
        return pd.DataFrame(
            {"node": df["doc_id"].to_numpy(np.int64), "r": r}
        )

    return d.map_batches(rel, batch_format="pandas")


_REL_SQL = rf"""
rel AS (
  SELECT doc_id AS node,
         CAST(len(list_filter(
           regexp_extract_all(lower(text), '{TOK_RE}'),
           x -> x = '{REL_TERM}')) AS BIGINT) AS r
  FROM documents)
"""


def _propagate(
    sf_dir: str, init_col: str, step, rounds: int
) -> pd.DataFrame:
    """Generic WL-style round loop: values live per node; each round
    attaches the parent's value to its out-edges (key = src), re-keys
    by dst, and combines in-group via `step(parent_values, own)`.
    Returns the final per-node frame (node, r, val). `step` must be a
    per-node reduction over the received parent (r + val) rows."""
    n_docs = _n_rows(sf_dir, "documents")
    edges = compact_small(_dir_edges(sf_dir, n_docs).materialize())
    vals = _relevance(sf_dir).materialize()  # (node, r)

    def init(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["val"] = np.int64(0) if init_col == "zero" else out["r"]
        return out

    state = compact_small(
        vals.map_batches(init, batch_format="pandas").materialize()
    )
    for _ in range(rounds):

        def tag_edge(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": df["src"].to_numpy(np.int64),
                    "side": np.int64(0),
                    "other": df["dst"].to_numpy(np.int64),
                    "r": np.zeros(len(df), np.int64),
                    "val": np.zeros(len(df), np.int64),
                }
            )

        def tag_val(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": df["node"].to_numpy(np.int64),
                    "side": np.int64(1),
                    "other": np.full(len(df), -1, np.int64),
                    "r": df["r"].to_numpy(np.int64),
                    "val": df["val"].to_numpy(np.int64),
                }
            )

        def attach(g: pd.DataFrame) -> pd.DataFrame:
            t = g.drop(columns=["_g"])
            own = t[t["side"] == 1].set_index("key")
            e = t[t["side"] == 0].drop_duplicates(["key", "other"])
            return pd.DataFrame(
                {
                    "key": e["other"].to_numpy(np.int64),
                    "pr": e["key"].map(own["r"]).to_numpy(np.int64),
                    "pv": e["key"].map(own["val"]).to_numpy(np.int64),
                }
            )

        msgs = (
            _with_coarse_group(
                edges.map_batches(tag_edge, batch_format="pandas").union(
                    state.map_batches(tag_val, batch_format="pandas")
                ),
                "key",
            )
            .groupby("_g")
            .map_groups(attach, batch_format="pandas")
        )

        def combine(g: pd.DataFrame) -> pd.DataFrame:
            t = g.drop(columns=["_g"])
            own = t[t["side"] == 1]
            inbox = t[t["side"] == 0]
            by = {
                k: grp for k, grp in inbox.groupby("key")
            }
            nodes = own["node"].to_numpy(np.int64)
            r = own["r"].to_numpy(np.int64)
            v = own["val"].to_numpy(np.int64)
            out = np.fromiter(
                (
                    step(
                        by.get(int(nd), None), int(rr), int(vv)
                    )
                    for nd, rr, vv in zip(nodes, r, v)
                ),
                np.int64,
                len(nodes),
            )
            return pd.DataFrame({"node": nodes, "r": r, "val": out})

        def msg_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": df["key"].to_numpy(np.int64),
                    "side": np.int64(0),
                    "node": df["key"].to_numpy(np.int64),
                    "r": df["pr"].to_numpy(np.int64),
                    "val": df["pv"].to_numpy(np.int64),
                }
            )

        def own_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": df["node"].to_numpy(np.int64),
                    "side": np.int64(1),
                    "node": df["node"].to_numpy(np.int64),
                    "r": df["r"].to_numpy(np.int64),
                    "val": df["val"].to_numpy(np.int64),
                }
            )

        state = compact_small(
            _with_coarse_group(
                state.map_batches(own_rows, batch_format="pandas").union(
                    msgs.map_batches(msg_rows, batch_format="pandas")
                ),
                "key",
            )
            .groupby("_g")
            .map_groups(combine, batch_format="pandas")
            .materialize()
        )
    return state.to_pandas()


# ========================================================= shark_search
#
# i_t(v) = max over parents p→v of ⌊(r(p) + i_(t-1)(p)) / 2⌋ for
# SHARK_ROUNDS rounds (i_0 = 0): the integer-halving decay of
# inherited relevance. Output: (doc_id, relevance, inherited).


def q_shark_search(sf_dir: str):
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype=np.int64),
            "relevance": pd.Series(dtype=np.int64),
            "inherited": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty

    def step(inbox, r, v):
        if inbox is None or not len(inbox):
            return 0
        pr = inbox["r"].to_numpy(np.int64)
        pv = inbox["val"].to_numpy(np.int64)
        return int(((pr + pv) // 2).max())

    out = _propagate(sf_dir, "zero", step, SHARK_ROUNDS)
    res = pd.DataFrame(
        {
            "doc_id": out["node"].to_numpy(np.int64),
            "relevance": out["r"].to_numpy(np.int64),
            "inherited": out["val"].to_numpy(np.int64),
        }
    )
    return res.sort_values("doc_id").reset_index(drop=True)


def _graph_sql_head() -> str:
    md5u = _md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")
    return f"""
n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id)"""


def _shark_sql() -> str:
    parts = [f"WITH {_graph_sql_head()},", _REL_SQL + ","]
    prev = None
    for t in range(1, SHARK_ROUNDS + 1):
        pv = "0" if prev is None else f"COALESCE(i{t - 1}.v, 0)"
        join = (
            ""
            if prev is None
            else f"LEFT JOIN i{t - 1} ON i{t - 1}.node = e.src"
        )
        parts.append(
            f"""i{t} AS MATERIALIZED (
  SELECT e.dst AS node,
         CAST(MAX((rel.r + {pv}) // 2) AS BIGINT) AS v
  FROM e JOIN rel ON rel.node = e.src
  {join}
  GROUP BY 1),"""
        )
        prev = t
    parts.append(
        f"""fin AS (SELECT 1)
SELECT rel.node AS doc_id, rel.r AS relevance,
       CAST(COALESCE(i{SHARK_ROUNDS}.v, 0) AS BIGINT) AS inherited
FROM rel LEFT JOIN i{SHARK_ROUNDS} ON i{SHARK_ROUNDS}.node = rel.node"""
    )
    return "\n".join(parts)


# ========================================================== fish_search
#
# Forward BFS from the relevant seeds (tf ≥ REL_T): potential_depth =
# hops from the nearest seed (0 for seeds), −1 if unreached within
# SHARK_ROUNDS hops. Output: (doc_id, relevance, potential_depth).


def q_fish_search(sf_dir: str):
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype=np.int64),
            "relevance": pd.Series(dtype=np.int64),
            "potential_depth": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    # depth encoded as val = depth + 1 (0 = unreached): seeds pin
    # themselves at 1; a child's candidate is min parent-enc + 1
    def enc_step(inbox, r, v):
        own = 1 if r >= REL_T else (v if v > 0 else 0)
        best = own if own > 0 else None
        if inbox is not None and len(inbox):
            pr = inbox["r"].to_numpy(np.int64)
            pv = inbox["val"].to_numpy(np.int64)
            pdep = np.where(pr >= REL_T, 1, np.where(pv > 0, pv, 0))
            reach = pdep[pdep > 0]
            if len(reach):
                cand = int(reach.min()) + 1
                best = cand if best is None else min(best, cand)
        return best if best is not None else 0

    out = _propagate(sf_dir, "zero", enc_step, SHARK_ROUNDS)
    enc = out["val"].to_numpy(np.int64)
    r = out["r"].to_numpy(np.int64)
    depth = np.where(enc > 0, enc - 1, -1)
    res = pd.DataFrame(
        {
            "doc_id": out["node"].to_numpy(np.int64),
            "relevance": r,
            "potential_depth": depth.astype(np.int64),
        }
    )
    return res.sort_values("doc_id").reset_index(drop=True)


def _fish_sql() -> str:
    parts = [f"WITH {_graph_sql_head()},", _REL_SQL + ","]
    parts.append(
        f"""d0 AS MATERIALIZED (
  SELECT node, CAST(0 AS BIGINT) AS d FROM rel WHERE r >= {REL_T}),"""
    )
    for t in range(1, SHARK_ROUNDS + 1):
        parts.append(
            f"""d{t} AS MATERIALIZED (
  SELECT node, CAST(MIN(d) AS BIGINT) AS d FROM (
    SELECT node, d FROM d{t - 1}
    UNION ALL
    SELECT e.dst AS node, d{t - 1}.d + 1 AS d
    FROM e JOIN d{t - 1} ON d{t - 1}.node = e.src)
  GROUP BY 1),"""
        )
    parts.append(
        f"""fin AS (SELECT 1)
SELECT rel.node AS doc_id, rel.r AS relevance,
       CAST(COALESCE(d{SHARK_ROUNDS}.d, -1) AS BIGINT) AS potential_depth
FROM rel LEFT JOIN d{SHARK_ROUNDS} ON d{SHARK_ROUNDS}.node = rel.node"""
    )
    return "\n".join(parts)


# ========================================================= harvest_rate
#
# Crawl-order proxy: 8 doc_id waves; per wave the relevant count and
# the CUMULATIVE harvest rate ×10⁶ — the curve a focused crawler
# watches to decide whether its frontier ordering is earning its
# keep. Output: (wave, n_docs, n_relevant, cum_harvest_x1e6).


def q_harvest_rate(sf_dir: str):
    empty = pd.DataFrame(
        {
            "wave": pd.Series(dtype=np.int64),
            "n_docs": pd.Series(dtype=np.int64),
            "n_relevant": pd.Series(dtype=np.int64),
            "cum_harvest_x1e6": pd.Series(dtype=np.int64),
        }
    )
    n = _n_rows(sf_dir, "documents")
    if n == 0:
        return empty
    width = n // HARVEST_WAVES + 1
    rel = _relevance(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df["node"].to_numpy(np.int64) // width
        g = pd.DataFrame(
            {
                "wave": w,
                "n": np.ones(len(df), np.int64),
                "rel": (df["r"].to_numpy(np.int64) >= REL_T).astype(
                    np.int64
                ),
            }
        )
        return g.groupby("wave", as_index=False)[["n", "rel"]].sum()

    agg = (
        rel.map_batches(partial, batch_format="pandas")
        .groupby("wave")
        .aggregate(Sum("n", alias_name="n"), Sum("rel", alias_name="rel"))
        .to_pandas()
        .sort_values("wave")
    )
    rows = []
    cn = cr = 0
    for _, r in agg.iterrows():
        cn += int(r["n"])
        cr += int(r["rel"])
        rows.append(
            (int(r["wave"]), int(r["n"]), int(r["rel"]), 10**6 * cr // cn)
        )
    return pd.DataFrame(
        rows, columns=["wave", "n_docs", "n_relevant", "cum_harvest_x1e6"]
    ).astype(np.int64)


def _harvest_sql() -> str:
    return f"""
WITH {_REL_SQL.strip().rstrip()},
nn AS (SELECT COUNT(*) AS n FROM documents),
w AS (
  SELECT rel.node // (nn.n // {HARVEST_WAVES} + 1) AS wave,
         CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(CASE WHEN rel.r >= {REL_T} THEN 1 ELSE 0 END) AS BIGINT)
           AS n_relevant
  FROM rel, nn GROUP BY 1)
SELECT CAST(wave AS BIGINT) AS wave, n_docs, n_relevant,
       CAST(1000000 * SUM(n_relevant) OVER (ORDER BY wave)
            // SUM(n_docs) OVER (ORDER BY wave) AS BIGINT)
         AS cum_harvest_x1e6
FROM w
"""


FOCUSEDCRAWL_SQL_QUERIES: dict[str, tuple] = {
    "shark_search": (q_shark_search, _shark_sql(), "frontier"),
    "fish_search": (q_fish_search, _fish_sql(), "frontier"),
    "harvest_rate": (q_harvest_rate, _harvest_sql(), "frontier"),
}
