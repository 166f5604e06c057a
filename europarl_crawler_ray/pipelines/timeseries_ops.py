"""Time-series diagnostics over the event stream (round-5 batch 8):
lag autocorrelation, integer 3-sigma outlier days, and day-of-week
seasonality — the telemetry readouts a crawl operator watches beside
cusum_drift's change-point monitor.

All follow the repo's scale idioms: the only distributed work is a
per-batch day-count combiner and ONE groupby on day, whose result is
bounded by the DATE DOMAIN (schema-bounded, like markov_stationary's
|types|² matrix); every subsequent scan is driver numpy / Python-int
math over that bounded table. Float parity follows the repo rule: exact
integer moments end to end, one final float expression mirrored
verbatim in the oracle (CAST of an exact integer to DOUBLE is IEEE
round-to-nearest on both engines).

Reference parity: the reference has no analytics beyond the status
summary (europarl/tools/status.py); these are webtext-pipeline
additions in the brief's "text analysis / telemetry" family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data.aggregate import Sum

from .._util import read_table as _read


def _daily_counts(sf_dir: str) -> pd.DataFrame:
    """(day, n_events) sorted by day — the shared date-domain-bounded
    reduction all three operators start from."""
    ev = _read(sf_dir, "events", columns=["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"day": df["ts"].astype("int64").to_numpy() // 86_400_000_000}
        ).groupby("day", as_index=False).size()
        out.columns = ["day", "n_part"]
        return out.astype(np.int64)

    c = (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("day")
        .aggregate(Sum("n_part", alias_name="n_events"))
        .to_pandas()  # <= date-domain rows, schema-bounded
    )
    if not len(c):
        return pd.DataFrame(
            {"day": pd.Series(dtype=np.int64),
             "n_events": pd.Series(dtype=np.int64)}
        )
    return c.sort_values("day", kind="mergesort").reset_index(drop=True)


# ============================================================ acf_daily
#
# Positional lag-k autocorrelation of the daily event-count series for
# k = 1..ACF_MAX_LAG — the "is traffic periodic, at what period"
# readout. With a_t = n*x_t - T (the n-scaled mean deviation, an exact
# integer), num_k = sum a_t * a_{t+k} over consecutive POSITIONS in day
# order and den = sum a_t^2; acf = num/den as ONE float division of two
# exact integers (Python unbounded ints; the oracle sums HUGEINT
# products — exact to 1e38, far past any real date domain).

ACF_MAX_LAG = 7


def q_acf_daily(sf_dir: str):
    c = _daily_counts(sf_dir)
    cols = {"lag": np.int64, "acf": float}
    if len(c) < 2:
        return pd.DataFrame({k: pd.Series(dtype=t) for k, t in cols.items()})
    x = [int(v) for v in c["n_events"]]
    n, t = len(x), sum(x)
    a = [n * v - t for v in x]
    den = sum(v * v for v in a)
    rows = []
    for k in range(1, ACF_MAX_LAG + 1):
        if k >= n:
            break
        num = sum(a[i] * a[i + k] for i in range(n - k))
        acf = float(num) / float(den) if den > 0 else 0.0
        rows.append((k, acf))
    return pd.DataFrame(rows, columns=["lag", "acf"]).astype({"lag": np.int64})


ACF_DAILY_SQL = f"""
WITH dcnt AS (
  SELECT CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day,
         CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1),
tot AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_days,
         CAST(SUM(n_events) AS BIGINT) AS t
  FROM dcnt),
s AS (
  SELECT CAST(n_days * n_events - t AS HUGEINT) AS a,
         ROW_NUMBER() OVER (ORDER BY day) AS pos, n_days
  FROM dcnt, tot),
den AS (SELECT SUM(a * a) AS den FROM s),
lags AS (SELECT CAST(l.l AS BIGINT) AS lag
         FROM unnest(range(1, {ACF_MAX_LAG} + 1)) AS l(l)),
num AS (
  SELECT lags.lag, SUM(s1.a * s2.a) AS num
  FROM lags
  JOIN s s1 ON TRUE
  JOIN s s2 ON s2.pos = s1.pos + lags.lag
  WHERE lags.lag < s1.n_days
  GROUP BY 1)
SELECT num.lag,
       CASE WHEN den.den > 0
            THEN CAST(num.num AS DOUBLE) / CAST(den.den AS DOUBLE)
            ELSE 0.0 END AS acf
FROM num, den
"""


# ==================================================== sigma_outlier_days
#
# Integer 3-sigma point-anomaly flags on the daily series: day t is an
# outlier iff (x_t - mean)^2 > 9 * var, cross-multiplied to the exact
# integer rule (n*x_t - T)^2 > 9 * (n * sum(x^2) - T^2) — no float mean
# or variance is ever computed, so both engines agree bit for bit.
# Complements cusum_drift (level SHIFTS) with single-day spikes.


def q_sigma_outlier_days(sf_dir: str):
    c = _daily_counts(sf_dir)
    if not len(c):
        return pd.DataFrame(
            {"day": pd.Series(dtype=np.int64),
             "n_events": pd.Series(dtype=np.int64),
             "is_outlier": pd.Series(dtype=np.int64)}
        )
    x = [int(v) for v in c["n_events"]]
    n, t = len(x), sum(x)
    s2 = sum(v * v for v in x)
    rhs = 9 * (n * s2 - t * t)
    flag = [1 if (n * v - t) ** 2 > rhs else 0 for v in x]
    return pd.DataFrame(
        {"day": c["day"].to_numpy(np.int64),
         "n_events": np.array(x, np.int64),
         "is_outlier": np.array(flag, np.int64)}
    )


SIGMA_OUTLIER_DAYS_SQL = """
WITH dcnt AS (
  SELECT CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day,
         CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1),
tot AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(n_events) AS HUGEINT) AS t,
         CAST(SUM(CAST(n_events AS HUGEINT) * n_events) AS HUGEINT) AS s2
  FROM dcnt)
SELECT day, n_events,
       CAST(CASE WHEN (n * n_events - t) * (n * n_events - t)
                      > 9 * (n * s2 - t * t)
            THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
FROM dcnt, tot
"""


# ===================================================== seasonality_index
#
# Day-of-week traffic profile: each weekday's share of total events in
# basis points (integer floor division) plus its count — the weekly
# seasonal fingerprint recrawl schedulers budget against. Weekday 0 is
# Thursday (epoch day 0 = 1970-01-01), computed as day % 7 on both
# engines so no calendar library is involved.


def q_seasonality_index(sf_dir: str):
    c = _daily_counts(sf_dir)
    if not len(c):
        return pd.DataFrame(
            {"dow": pd.Series(dtype=np.int64),
             "n_events": pd.Series(dtype=np.int64),
             "share_bp": pd.Series(dtype=np.int64)}
        )
    g = (
        pd.DataFrame(
            {"dow": c["day"].to_numpy(np.int64) % 7,
             "n_events": c["n_events"].to_numpy(np.int64)}
        )
        .groupby("dow", as_index=False)["n_events"].sum()
    )
    total = int(g["n_events"].sum())
    g["share_bp"] = (g["n_events"].astype(object) * 10000 // total).astype(
        np.int64
    )
    return g.astype(np.int64)


SEASONALITY_INDEX_SQL = """
WITH dcnt AS (
  SELECT CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) % 7 AS dow,
         CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1),
tot AS (SELECT CAST(SUM(n_events) AS BIGINT) AS total FROM dcnt)
SELECT dow, n_events,
       CAST(n_events * 10000 // total AS BIGINT) AS share_bp
FROM dcnt, tot
"""


TIMESERIES_SQL_QUERIES: dict[str, tuple] = {
    "acf_daily": (q_acf_daily, ACF_DAILY_SQL),
    "sigma_outlier_days": (q_sigma_outlier_days, SIGMA_OUTLIER_DAYS_SQL),
    "seasonality_index": (q_seasonality_index, SEASONALITY_INDEX_SQL),
}
