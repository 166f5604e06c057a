"""Curation diagnostics (round-5 batch 17): inter-filter Cohen's kappa
(curation-rule agreement audit).

Scale idiom: a per-batch combiner over the 4 confusion cells, integer
arithmetic throughout.

Reference parity: the reference's only diagnostics are status counts
(europarl/tools/status.py); this extends the brief's data-curation
family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data.aggregate import Sum

from .._util import read_table as _read


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
    "filter_kappa": (q_filter_kappa, FILTER_KAPPA_SQL, "selection"),
}
