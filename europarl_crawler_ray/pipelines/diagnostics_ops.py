"""Corpus / pipeline diagnostics operators (round-5 batch 17): UTF-8
byte-class census (tokenizer byte-budget planning), PageRank
convergence curve (iterative-job observability), and inter-filter
Cohen's kappa (curation-rule agreement audit).

Scale idioms: per-batch combiners over fixed domains (≤ |langs|·1
rows, ≤ R curve points, 4 confusion cells), integer arithmetic
throughout (ppm quantization with Python-int driver math where
products exceed int64), and the actor-resident Pregel engine for the
iterative pass.

Reference parity: the reference's only diagnostics are status counts
(europarl/tools/status.py); these extend the brief's text-analysis /
data-governance families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .ml_queries import _md5u


# =================================================== utf8_class_census
#
# UTF-8 byte-class census per language: how many code points encode as
# 1/2/3/4 bytes — the number that sizes a byte-level (BPE/byte-fallback)
# tokenizer's budget per language before training starts (a corpus
# whose "characters" are mostly 3-byte CJK costs 3× the bytes its char
# count suggests). bytes_total cross-checks as ascii + 2·b2 + 3·b3 +
# 4·b4, which the test pins.
#
# Scale shape: pure per-batch vectorized census (a utf-32 codepoint
# view) → ≤ |langs|-row groupby. Text never leaves the scan.


def q_utf8_class_census(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["lang", "text"])
    cols = (
        "lang",
        "n_docs",
        "n_chars",
        "ascii",
        "two_byte",
        "three_byte",
        "four_byte",
        "bytes_total",
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    c: pd.Series(dtype=(str if c == "lang" else np.int64))
                    for c in cols
                }
            )
        recs: dict[str, list] = {}
        for lang, text in zip(df["lang"], df["text"]):
            s = str(text)
            a = recs.setdefault(lang, [0, 0, 0, 0, 0, 0, 0])
            a[0] += 1
            if not s:
                continue
            cp = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
            a[1] += len(cp)
            a[2] += int((cp < 0x80).sum())
            a[3] += int(((cp >= 0x80) & (cp < 0x800)).sum())
            a[4] += int(((cp >= 0x800) & (cp < 0x10000)).sum())
            a[5] += int((cp >= 0x10000).sum())
        for lang, a in recs.items():
            a[6] = a[2] + 2 * a[3] + 3 * a[4] + 4 * a[5]
        out = pd.DataFrame(
            [(lang, *a) for lang, a in recs.items()], columns=list(cols)
        )
        return out.astype({c: np.int64 for c in cols[1:]})

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            *[Sum(c, alias_name=c) for c in cols[1:]]
        )
        .to_pandas()  # <= |langs| rows
    )
    if not len(c):
        return pd.DataFrame(
            {
                c2: pd.Series(dtype=(str if c2 == "lang" else np.int64))
                for c2 in cols
            }
        )
    for c2 in cols[1:]:
        c[c2] = c[c2].astype(np.int64)
    return c.sort_values("lang").reset_index(drop=True)


UTF8_CLASS_CENSUS_SQL = r"""
WITH per_doc AS (
  SELECT lang,
    CAST(length(text) AS BIGINT) AS n_chars,
    CAST(len(regexp_extract_all(text, '[\x{0080}-\x{07FF}]')) AS BIGINT) AS b2,
    CAST(len(regexp_extract_all(text, '[\x{0800}-\x{FFFF}]')) AS BIGINT) AS b3,
    CAST(len(regexp_extract_all(text, '[\x{10000}-\x{10FFFF}]')) AS BIGINT) AS b4
  FROM documents)
SELECT lang,
  CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(n_chars) AS BIGINT) AS n_chars,
  CAST(SUM(n_chars - b2 - b3 - b4) AS BIGINT) AS ascii,
  CAST(SUM(b2) AS BIGINT) AS two_byte,
  CAST(SUM(b3) AS BIGINT) AS three_byte,
  CAST(SUM(b4) AS BIGINT) AS four_byte,
  CAST(SUM(n_chars - b2 - b3 - b4) + 2 * SUM(b2) + 3 * SUM(b3)
       + 4 * SUM(b4) AS BIGINT) AS bytes_total
FROM per_doc GROUP BY lang
"""


# ================================================ pagerank_delta_curve
#
# PageRank convergence curve: the per-iteration L1 movement
# Σ_v |pr_t(v) − pr_{t−1}(v)| in the same scaled-integer arithmetic as
# q_pagerank — the observability readout that decides how many
# iterations a 10^10-node run actually needs (flat curve → stop paying
# for rounds). PDC_ITERS extends past q_pagerank's 3 so the curve
# shows the decay.
#
# Scale shape: one actor-resident Pregel run; each roster row carries
# its own per-round |delta| columns, so the curve falls out of a
# fixed-R-row aggregate at the end — no per-round driver contact
# beyond the engine's changed-count scalar.

PDC_ITERS = 6
_PDC_SCALE = 1_000_000
_PDC_DAMP = 85
_PDC_BASE = _PDC_SCALE * 15 // 100


def q_pagerank_delta_curve(sf_dir: str, n_buckets: int = 64):
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "iter": pd.Series(dtype=np.int64),
            "l1_delta": pd.Series(dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])
    dcols = [f"d{t}" for t in range(1, PDC_ITERS + 1)]

    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst, deg = internal_edges_np(ids, n_docs, return_counts=True)
        n_e, n_r = len(src), len(ids)
        n1 = np.concatenate([src, ids])
        base = pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n_e, np.int8), np.ones(n_r, np.int8)]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, np.full(n_r, -1, np.int64)]),
                "deg": np.concatenate([deg, np.zeros(n_r, np.int64)]),
                "pr": np.concatenate(
                    [np.zeros(n_e, np.int64), np.full(n_r, _PDC_SCALE, np.int64)]
                ),
                "b": (n1 & mask),
            }
        )
        for c in dcols:
            base[c] = np.zeros(len(base), np.int64)
        return base

    def step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        edges = state[state["kind"] == 0]
        roster = state[state["kind"] == 1].copy()
        if round_i > 0:
            if msgs is not None and len(msgs):
                m = (
                    msgs.groupby("node", as_index=False)["c"]
                    .sum()
                    .rename(columns={"node": "n1"})
                )
                roster = roster.merge(m, on="n1", how="left")
                got = roster["c"].fillna(0).astype(np.int64)
                roster = roster.drop(columns=["c"])
            else:
                got = pd.Series(np.zeros(len(roster), np.int64))
            pr_new = _PDC_BASE + got.to_numpy(np.int64)
            roster[f"d{round_i}"] = np.abs(
                pr_new - roster["pr"].to_numpy(np.int64)
            )
            roster["pr"] = pr_new
        out = None
        if round_i < PDC_ITERS:
            send = roster[["n1", "pr"]]
            j = edges.merge(send, on="n1", how="inner", suffixes=("", "_r"))
            if len(j):
                contrib = (
                    j["pr_r"].to_numpy(np.int64)
                    * _PDC_DAMP
                    // (j["deg"].to_numpy(np.int64) * 100)
                )
                out = (
                    pd.DataFrame({"node": j["n2"].to_numpy(np.int64), "c": contrib})
                    .groupby("node", as_index=False)["c"]
                    .sum()
                )
                out["b"] = out["node"].to_numpy(np.int64) & mask
        new_state = pd.concat([edges, roster], ignore_index=True)
        return new_state, out, (len(out) if out is not None else 0)

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        step,
        key="b",
        max_iters=PDC_ITERS + 1,
    )
    if state_ds is None:
        return empty

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["kind"] == 1]
        return pd.DataFrame(
            {
                "iter": np.arange(1, PDC_ITERS + 1, dtype=np.int64),
                "d_part": np.array(
                    [int(r[c].sum()) for c in dcols], np.int64
                ),
            }
        )

    c = (
        state_ds.map_batches(partial, batch_format="pandas")
        .groupby("iter")
        .aggregate(Sum("d_part", alias_name="l1_delta"))
        .to_pandas()  # exactly PDC_ITERS rows
    )
    return (
        c.astype(np.int64).sort_values("iter").reset_index(drop=True)
    )


def _pdc_sql() -> str:
    md5u = _md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")
    rounds = []
    deltas = []
    prev = "pr0"
    for t in range(1, PDC_ITERS + 1):
        rounds.append(
            f"""c{t} AS (
  SELECT e.dst AS doc_id, SUM({prev}.pr * {_PDC_DAMP} // (e.outdeg * 100)) AS s
  FROM e JOIN {prev} ON e.src = {prev}.doc_id GROUP BY 1),
pr{t} AS (
  SELECT d.doc_id, {_PDC_BASE} + COALESCE(c{t}.s, 0) AS pr
  FROM documents d LEFT JOIN c{t} ON d.doc_id = c{t}.doc_id)"""
        )
        deltas.append(
            f"SELECT CAST({t} AS BIGINT) AS iter, "
            f"CAST(SUM(ABS(pr{t}.pr - {prev}.pr)) AS BIGINT) AS l1_delta "
            f"FROM pr{t} JOIN {prev} ON pr{t}.doc_id = {prev}.doc_id"
        )
        prev = f"pr{t}"
    joined = ",\n".join(rounds)
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst, k AS outdeg
  FROM (SELECT doc_id, k, unnest(range(1, k + 1)) AS j FROM kk), n),
pr0 AS (SELECT doc_id, CAST({_PDC_SCALE} AS BIGINT) AS pr FROM documents),
{joined}
{' UNION ALL '.join(deltas)}
"""


# ========================================================= filter_kappa
#
# Cohen's kappa between two curation filters — rule A (length:
# n_chars ≥ FK_LEN) and rule B (lexical diversity: ≥ FK_DISTINCT
# distinct lowercase whitespace tokens). Raw agreement over-credits
# filters that both pass nearly everything; kappa subtracts the
# chance-agreement floor, the standard report when deciding whether a
# second filter adds signal or just re-labels the first.
#
# po/pe/kappa are ppm-quantized with PYTHON-int driver math (the
# marginal products exceed int64 at corpus scale; the SQL side uses
# HUGEINT), over exactly 4 confusion cells — the only driver state.
#
# Scale shape: per-batch 4-cell confusion partials → one tiny groupby
# → 1-row output.

FK_LEN = 200
FK_DISTINCT = 20
_FK_TOKEN_RE = r"[^ \t\n\r\f]+"


def q_filter_kappa(sf_dir: str):
    import re

    d = _read(sf_dir, "documents", columns=["n_chars", "text"])
    tok_re = re.compile(_FK_TOKEN_RE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "cell": pd.Series(dtype=np.int64),
                    "n_part": pd.Series(dtype=np.int64),
                }
            )
        a = df["n_chars"].to_numpy(np.int64) >= FK_LEN
        b = np.fromiter(
            (
                len(set(tok_re.findall(str(t).lower()))) >= FK_DISTINCT
                for t in df["text"]
            ),
            bool,
            len(df),
        )
        cell = a.astype(np.int64) * 2 + b.astype(np.int64)  # 0..3
        vals, cnts = np.unique(cell, return_counts=True)
        return pd.DataFrame(
            {"cell": vals.astype(np.int64), "n_part": cnts.astype(np.int64)}
        )

    c = (
        d.map_batches(partial, batch_format="pandas")
        .groupby("cell")
        .aggregate(Sum("n_part", alias_name="n"))
        .to_pandas()  # <= 4 rows
    )
    cells = dict.fromkeys(range(4), 0)
    for _, r in c.iterrows():
        cells[int(r["cell"])] = int(r["n"])
    n00, n01, n10, n11 = cells[0], cells[1], cells[2], cells[3]
    n = n00 + n01 + n10 + n11
    if n == 0:
        po = pe = kappa = 0
    else:
        po = (n11 + n00) * 1_000_000 // n
        a1, b1 = n11 + n10, n11 + n01
        a0, b0 = n01 + n00, n10 + n00
        pe = (a1 * b1 + a0 * b0) * 1_000_000 // (n * n)
        # clamp at 0: a below-chance kappa would put a negative numerator
        # into floor (Python) vs truncate (DuckDB) division
        kappa = (
            0
            if pe == 1_000_000
            else max(po - pe, 0) * 1_000_000 // (1_000_000 - pe)
        )
    return pd.DataFrame(
        {
            "n_docs": [n],
            "n_both": [n11],
            "n_a_only": [n10],
            "n_b_only": [n01],
            "n_neither": [n00],
            "po_ppm": [po],
            "pe_ppm": [pe],
            "kappa_ppm": [kappa],
        }
    ).astype(np.int64)


FILTER_KAPPA_SQL = rf"""
WITH f AS (
  SELECT
    CASE WHEN n_chars >= {FK_LEN} THEN 1 ELSE 0 END AS a,
    CASE WHEN len(list_distinct(
           regexp_extract_all(lower(text), '{_FK_TOKEN_RE}')))
         >= {FK_DISTINCT} THEN 1 ELSE 0 END AS b
  FROM documents),
cells AS (
  SELECT
    CAST(COUNT(*) AS HUGEINT) AS n,
    CAST(SUM(CASE WHEN a = 1 AND b = 1 THEN 1 ELSE 0 END) AS HUGEINT) AS n11,
    CAST(SUM(CASE WHEN a = 1 AND b = 0 THEN 1 ELSE 0 END) AS HUGEINT) AS n10,
    CAST(SUM(CASE WHEN a = 0 AND b = 1 THEN 1 ELSE 0 END) AS HUGEINT) AS n01,
    CAST(SUM(CASE WHEN a = 0 AND b = 0 THEN 1 ELSE 0 END) AS HUGEINT) AS n00
  FROM f),
m AS (
  SELECT n, n11, n10, n01, n00,
    (n11 + n00) * 1000000 // n AS po,
    ((n11 + n10) * (n11 + n01) + (n01 + n00) * (n10 + n00)) * 1000000
      // (n * n) AS pe
  FROM cells)
SELECT
  CAST(n AS BIGINT) AS n_docs,
  CAST(n11 AS BIGINT) AS n_both,
  CAST(n10 AS BIGINT) AS n_a_only,
  CAST(n01 AS BIGINT) AS n_b_only,
  CAST(n00 AS BIGINT) AS n_neither,
  CAST(po AS BIGINT) AS po_ppm,
  CAST(pe AS BIGINT) AS pe_ppm,
  CAST(CASE WHEN pe = 1000000 THEN 0
       ELSE GREATEST(po - pe, 0) * 1000000 // (1000000 - pe) END
       AS BIGINT) AS kappa_ppm
FROM m
"""


DIAGNOSTICS_SQL_QUERIES: dict[str, tuple] = {
    "utf8_class_census": (q_utf8_class_census, UTF8_CLASS_CENSUS_SQL),
    "pagerank_delta_curve": (q_pagerank_delta_curve, _pdc_sql()),
    "filter_kappa": (q_filter_kappa, FILTER_KAPPA_SQL),
}
