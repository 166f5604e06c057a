"""SQL-oracled query library over the driver testdata tables.

Each entry maps one operator family from SURVEY.md §2 (or a training-data
op) onto the TPC-H-ish tables in ``/root/testdata/sf*`` so the graft
driver can verify it against DuckDB at sf0.01. Column names and types are
chosen to match the SQL exactly (aggregates CAST to BIGINT, dates to DATE).

Idioms: ``read_parquet(columns=...)`` pruning, vectorized ``map_batches``,
partial aggregation before ``groupby`` where the map side reduces volume,
broadcast (ray.put) semi-/anti-joins instead of shuffle joins when one
side is small.
"""

from __future__ import annotations

import hashlib
from datetime import date, timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from .._util import read_table as _read
from ..functions import rules as R
from ..functions.textstats import fingerprints, quality_stats, token_counts

# --------------------------------------------------------------- helpers


# shared coarse-group shuffle infrastructure — see pipelines/grouping.py
# for the measured rationale (Ray groupby cost ~0.1 ms per GROUP)
from .grouping import with_coarse_group as _with_coarse_group  # noqa: E402


# Derived per-event HTTP-ish status (deterministic from event_id) — used to
# map the reference's requests-log operators (A1/F3) onto the events table.
STATUS_SQL = (
    "CASE WHEN event_id % 100 < 70 THEN 200 "
    "WHEN event_id % 100 < 85 THEN 404 "
    "WHEN event_id % 100 < 90 THEN 429 "
    "WHEN event_id % 100 < 95 THEN 408 "
    "ELSE 503 END"
)


def _status_np(event_id: np.ndarray) -> np.ndarray:
    m = event_id % 100
    return np.select(
        [m < 70, m < 85, m < 90, m < 95], [200, 404, 429, 408], default=503
    ).astype(np.int64)


# =========================================================== url generation
# M1-M8: date-range × 23-rule unfold, byte-identical urls.

URLGEN_START = date(1979, 6, 1)
URLGEN_END = date(2025, 12, 31)


def q_url_generation(sf_dir: str):
    n_days = (URLGEN_END - URLGEN_START).days + 1
    base = np.datetime64(URLGEN_START.isoformat(), "D")

    def unfold(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy()
        days = base + ids.astype("timedelta64[D]")
        parts = []
        for rule in R.RULES:
            urls = rule.url_vec(days)
            parts.append(
                pa.table(
                    {
                        "day": pa.array(days, pa.date32()),
                        "rulename": pa.array([rule.name] * len(days), pa.string()),
                        "url": pa.array(urls, pa.string()),
                    }
                )
            )
        return pa.concat_tables(parts)

    return ray.data.range(n_days).map_batches(unfold, batch_format="pyarrow")


def _urlgen_sql() -> str:
    term_case = " ".join(
        f"WHEN day > DATE '{lo.isoformat()}' AND day < DATE '{hi.isoformat()}' THEN '{key}'"
        for key, lo, hi in R.TERMS
    )
    rule_values = ", ".join(
        f"('{r.name}', '{r.prefix}', '{r.infix}', '{r.language}', '{r.format}')"
        for r in R.RULES
    )
    return f"""
    WITH days AS (
      SELECT CAST(unnest(generate_series(TIMESTAMP '{URLGEN_START.isoformat()}',
                                         TIMESTAMP '{URLGEN_END.isoformat()}',
                                         INTERVAL 1 DAY)) AS DATE) AS day),
    rules(rulename, prefix, infix, lang, fmt) AS (VALUES {rule_values}),
    t AS (SELECT day, rulename, prefix, infix, lang, fmt,
                 CASE {term_case} ELSE '0' END AS term
          FROM days CROSS JOIN rules)
    SELECT day, rulename,
           'https://europarl.europa.eu/doceo/document/' || prefix || '-' || term
           || '-' || strftime(day, '%Y-%m-%d')
           || CASE WHEN infix = '' THEN '' ELSE '-' || infix END
           || '_' || lang || fmt AS url
    FROM t
    """


# ======================================================== F3: unchecked days


def q_unchecked_days(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["ts"])
    observed = ev.map_batches(
        lambda t: pa.table({"day": pc.cast(t.column("ts"), pa.date32())}),
        batch_format="pyarrow",
    ).unique("day")
    # `unique` returns None on an empty dataset (review finding — same
    # class as q_todo_combos); an empty events table has no day window
    obs = set(observed or [])
    if not obs:
        return pa.table({"day": pa.array([], pa.date32())})
    lo, hi = min(obs), max(obs)
    hi_ext = hi + timedelta(days=14)
    cand = [lo + timedelta(days=i) for i in range((hi_ext - lo).days + 1)]
    missing = sorted((d for d in cand if d not in obs), reverse=True)[:50]
    return pa.table({"day": pa.array(missing, pa.date32())})


UNCHECKED_DAYS_SQL = """
WITH bounds AS (SELECT CAST(MIN(ts) AS DATE) AS lo,
                       CAST(MAX(ts) AS DATE) + 14 AS hi FROM events),
cand AS (SELECT CAST(unnest(generate_series(CAST(lo AS TIMESTAMP),
                                            CAST(hi AS TIMESTAMP),
                                            INTERVAL 1 DAY)) AS DATE) AS day
         FROM bounds),
observed AS (SELECT DISTINCT CAST(ts AS DATE) AS day FROM events)
SELECT c.day FROM cand c LEFT JOIN observed o ON c.day = o.day
WHERE o.day IS NULL ORDER BY c.day DESC LIMIT 50
"""


# =================================== F3 retry branch: combos never succeeded


def q_retry_pairs(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        status = _status_np(t.column("event_id").to_numpy())
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pc.cast(t.column("ts"), pa.date32()),
                "ok": pa.array((status == 200).astype(np.int64)),
            }
        )

    # (user_id, day) cardinality scales with the data → coarse-grouped
    # pandas aggregate (see pipelines/grouping.py for the measured
    # ~0.1 ms/group cost of Ray-native aggregates)
    def never_ok(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "day"], as_index=False, dropna=False)["ok"].max()
        return g.loc[g["ok"] == 0, ["user_id", "day"]]

    return (
        _with_coarse_group(ev.map_batches(derive, batch_format="pyarrow"), "user_id")
        .groupby("_g")
        .map_groups(lambda g: never_ok(g.drop(columns=["_g"])), batch_format="pandas")
    )


RETRY_PAIRS_SQL = f"""
SELECT user_id, CAST(ts AS DATE) AS day
FROM events GROUP BY 1, 2
HAVING MAX(CASE WHEN ({STATUS_SQL}) = 200 THEN 1 ELSE 0 END) = 0
"""


# ============================= F2: todo combos (cross join minus observed)


def q_todo_combos(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        status = _status_np(t.column("event_id").to_numpy())
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pc.cast(t.column("ts"), pa.date32()),
                "ok": pa.array(status == 200),
            }
        )

    # per-batch distinct (combiner) — the shuffle below only ever moves
    # the small distinct (user, day, ok) set, never raw events
    d = ev.map_batches(derive, batch_format="pyarrow").map_batches(
        lambda t: pa.Table.from_pandas(
            t.to_pandas().drop_duplicates(), preserve_index=False
        ),
        batch_format="pyarrow",
    ).materialize()  # consumed twice below — avoid re-running the scan
    # confirmed_days is the SMALL dimension (calendar days) → broadcast;
    # the dates×users cross product is unfolded PER USER inside a keyed
    # map_groups, so neither the cross table nor the observed set ever
    # exists on the driver (VERDICT r1 #8)
    # `unique` returns None on an empty dataset (no 200s at all)
    confirmed_days = sorted(set(d.filter(expr="ok").unique("day") or []))
    conf_ref = ray.put(np.array(confirmed_days, dtype="datetime64[D]"))

    def missing_group(t: pa.Table) -> pa.Table:
        # all users of one coarse bucket handled in one task (per-entity
        # map_groups pays Ray-level cost per group — see _with_coarse_group).
        # Fully vectorized (VERDICT r2 #6): mark observed (user, conf-day)
        # cells in a users×K boolean grid and emit the unmarked cells —
        # no per-row Python iteration (K = |confirmed days| is calendar-
        # bounded, so the grid is |bucket users| × small).
        conf = ray.get(conf_ref)  # sorted datetime64[D]
        if len(conf) == 0:  # no confirmed days → nothing can be missing
            return pa.table(
                {
                    "day": pa.array([], pa.date32()),
                    "user_id": pa.array([], pa.int64()),
                }
            )
        users = t.column("user_id").to_numpy()
        days = t.column("day").to_numpy(zero_copy_only=False).astype("datetime64[D]")
        uu, uidx = np.unique(users, return_inverse=True)
        pos = np.searchsorted(conf, days)
        in_conf = (pos < len(conf)) & (conf[np.clip(pos, 0, len(conf) - 1)] == days)
        mark = np.zeros((len(uu), len(conf)), dtype=bool)
        mark[uidx[in_conf], pos[in_conf]] = True
        ui, ci = np.nonzero(~mark)
        return pa.table(
            {
                "day": pa.array(conf[ci]),
                "user_id": pa.array(uu[ui], pa.int64()),
            }
        )

    # every user appears in observed (observed spans ALL events), so the
    # per-user groups cover the full user dimension
    return (
        _with_coarse_group(d, "user_id")
        .groupby("_g")
        .map_groups(missing_group, batch_format="pyarrow")
    )


TODO_COMBOS_SQL = f"""
WITH st AS (SELECT user_id, CAST(ts AS DATE) AS day, ({STATUS_SQL}) AS status
            FROM events),
confirmed AS (SELECT DISTINCT day FROM st WHERE status = 200),
users AS (SELECT DISTINCT user_id FROM events),
observed AS (SELECT DISTINCT day, user_id FROM st)
SELECT c.day, u.user_id
FROM confirmed c CROSS JOIN users u
LEFT JOIN observed o ON o.day = c.day AND o.user_id = u.user_id
WHERE o.day IS NULL
"""


# ================================================== A1: status-code summary


def q_status_summary(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_id"])

    def derive(t: pa.Table) -> pa.Table:
        status = _status_np(t.column("event_id").to_numpy())
        # partial pre-aggregation inside the map task (combiner) — the
        # groupby then shuffles ≤5 rows per block instead of all rows
        uniq, counts = np.unique(status, return_counts=True)
        return pa.table({"status_code": uniq, "partial_n": counts.astype(np.int64)})

    return (
        ev.map_batches(derive, batch_format="pyarrow")
        .groupby("status_code")
        .aggregate(Sum("partial_n", alias_name="n"))
    )


STATUS_SUMMARY_SQL = f"""
SELECT CAST(({STATUS_SQL}) AS BIGINT) AS status_code, COUNT(*) AS n
FROM events GROUP BY 1
"""


# ============================================= ordering: top-k newest first


def q_top_k_recent(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    return (
        ev.sort(["ts", "event_id"], descending=[True, True])
        .limit(100)
        .select_columns(["event_id", "ts", "user_id", "event_type"])
    )


TOP_K_RECENT_SQL = """
SELECT event_id, ts, user_id, event_type
FROM events ORDER BY ts DESC, event_id DESC LIMIT 100
"""


# ==================================== F4: anti-join (orders never fetched)


def q_uncrawled_orders(sf_dir: str, n_buckets: int = 32):
    """orders ANTI-JOIN lineitem with BOTH sides large (lineitem's key set
    is the big side — a driver-collected broadcast would OOM at 100×).
    The shared partitioned-hash anti-join (``grouping.
    partitioned_anti_join``): map-side distinct per batch (lineitem has
    ~4 rows per order → the combiner shrinks the shuffle ~4×), bucket by
    ``key & (B-1)``, one ``groupby(bucket)`` shuffle, per-bucket set
    difference. The driver never touches the key set."""
    from .grouping import partitioned_anti_join

    return partitioned_anti_join(
        _read(sf_dir, "orders", columns=["o_orderkey"]),
        _read(sf_dir, "lineitem", columns=["l_orderkey"]),
        "o_orderkey",
        "l_orderkey",
        "o_orderkey",
        n_buckets,
    )


UNCRAWLED_ORDERS_SQL = """
SELECT o_orderkey FROM orders
WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)
"""


# ================================= F5: unprocessed scan (filter+sort+limit)


def q_unprocessed_documents(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return d.filter(expr="n_chars < 200").sort("doc_id").limit(100)


UNPROCESSED_DOCUMENTS_SQL = """
SELECT doc_id, lang, n_chars FROM documents
WHERE n_chars < 200 ORDER BY doc_id LIMIT 100
"""


# ================================ E5: metadata enrichment (broadcast joins)


def q_nation_order_stats(sf_dir: str, n_buckets: int = 32):
    """4-way join where only customer and nation are genuinely small.

    Two-stage shape (VERDICT r2 #1 — the old version collected the full
    ``orders`` table on the driver, a 100×-scale OOM): broadcast ONLY
    customer⨝nation (custkey → nationkey, a bounded dimension), tag each
    distributed ``orders`` batch with its nation code via the broadcast,
    then join orders↔lineitem through the ``q_partitioned_join`` bucket
    exchange. The driver never materializes a data-scaled table; the
    global groupby only ever sees ≤25 partial rows per bucket.
    Reference semantics: europarl/db/documents.py:202-240 (E5)."""
    assert n_buckets & (n_buckets - 1) == 0
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    if customer.empty or nation.empty:  # inner-join semantics: no output
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_name": pa.array([], pa.string()),
                    "n_items": pa.array([], pa.int64()),
                    "sum_qty": pa.array([], pa.int64()),
                }
            )
        )
    cust_nation = customer.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    ck = cust_nation["c_custkey"].to_numpy()
    order_ = np.argsort(ck)
    cust_ref = ray.put((ck[order_], cust_nation["n_nationkey"].to_numpy()[order_]))
    code_to_name = dict(zip(nation["n_nationkey"].tolist(), nation["n_name"].tolist()))

    def orders_side(t: pa.Table) -> pa.Table:
        sk, sc = ray.get(cust_ref)
        keys = t.column("o_orderkey").to_numpy()
        custs = t.column("o_custkey").to_numpy()
        pos = np.clip(np.searchsorted(sk, custs), 0, len(sk) - 1)
        member = sk[pos] == custs  # guard custkeys missing from the dim
        keys, pos = keys[member], pos[member]
        return pa.table(
            {
                "key": pa.array(keys, pa.int64()),
                "code": pa.array(sc[pos].astype(np.int32)),
                "qty": pa.nulls(len(keys), pa.float64()),
                "side": pa.array(np.zeros(len(keys), dtype=np.int8)),
                "bucket": pa.array((keys & (n_buckets - 1)).astype(np.int32)),
            }
        )

    def items_side(t: pa.Table) -> pa.Table:
        keys = t.column("l_orderkey").to_numpy()
        return pa.table(
            {
                "key": pa.array(keys, pa.int64()),
                "code": pa.nulls(t.num_rows, pa.int32()),
                "qty": pc.cast(t.column("l_quantity"), pa.float64()),
                "side": pa.array(np.ones(t.num_rows, dtype=np.int8)),
                "bucket": pa.array((keys & (n_buckets - 1)).astype(np.int32)),
            }
        )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(
        orders_side, batch_format="pyarrow"
    )
    items = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"]).map_batches(
        items_side, batch_format="pyarrow"
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g.loc[g["side"] == 0, ["key", "code"]].drop_duplicates("key")
        right = g.loc[g["side"] == 1].groupby("key", as_index=False).agg(
            part_items=("qty", "size"), part_qty=("qty", "sum")
        )
        j = left.merge(right, on="key", how="inner")
        out = j.groupby("code", as_index=False).agg(
            part_items=("part_items", "sum"), part_qty=("part_qty", "sum")
        )
        out["part_items"] = out["part_items"].astype(np.int64)
        return out[["code", "part_items", "part_qty"]]

    agg = (
        orders.union(items)
        .groupby("bucket")
        .map_groups(join_bucket, batch_format="pandas")
        .groupby("code")
        .aggregate(Sum("part_items", alias_name="n_items"), Sum("part_qty", alias_name="qty_d"))
    )

    def decode(t: pa.Table) -> pa.Table:
        codes = t.column("code").to_pylist()
        return pa.table(
            {
                "n_name": pa.array([code_to_name[c] for c in codes], pa.string()),
                "n_items": pc.cast(t.column("n_items"), pa.int64()),
                "sum_qty": pc.cast(pc.round(t.column("qty_d")), pa.int64()),
            }
        )

    return agg.map_batches(decode, batch_format="pyarrow")


NATION_ORDER_STATS_SQL = """
SELECT n_name, COUNT(*) AS n_items, CAST(ROUND(SUM(l_quantity)) AS BIGINT) AS sum_qty
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
GROUP BY n_name
"""


# ==================== large×large partitioned hash join (explicit buckets)


def q_partitioned_join(sf_dir: str, n_buckets: int = 32):
    """orders ⨝ lineitem with BOTH sides large: tag rows with a side
    marker, bucket by ``key % B``, one ``groupby(bucket)`` shuffle
    co-locates each key's rows, and the per-bucket task joins+aggregates.
    The portable partitioned-hash-join pattern when no side fits a
    broadcast (document B; salt hot keys into sub-buckets if skewed)."""
    assert n_buckets & (n_buckets - 1) == 0, "bucketing uses a bit mask → power of two"
    orders = _read(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        lambda t: pa.table(
            {
                "key": t.column("o_orderkey"),
                "qty": pa.nulls(t.num_rows, pa.float64()),
                "side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        ),
        batch_format="pyarrow",
    )
    items = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"]).map_batches(
        lambda t: pa.table(
            {
                "key": t.column("l_orderkey"),
                "qty": pc.cast(t.column("l_quantity"), pa.float64()),
                "side": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        ),
        batch_format="pyarrow",
    )
    both = orders.union(items).map_batches(
        lambda t: t.append_column(
            "bucket", pc.cast(pc.bit_wise_and(t.column("key"), n_buckets - 1), pa.int32())
        ),
        batch_format="pyarrow",
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0][["key"]].drop_duplicates()
        right = g[g["side"] == 1]
        agg = right.groupby("key", as_index=False).agg(
            n_items=("qty", "size"), sum_qty=("qty", "sum")
        )
        out = left.merge(agg, on="key", how="inner")  # inner join semantics
        out = out.rename(columns={"key": "o_orderkey"})
        out["n_items"] = out["n_items"].astype(np.int64)
        out["sum_qty"] = out["sum_qty"].round().astype(np.int64)
        return out[["o_orderkey", "n_items", "sum_qty"]]

    return both.groupby("bucket").map_groups(join_bucket, batch_format="pandas")


PARTITIONED_JOIN_SQL = """
SELECT o.o_orderkey, COUNT(*) AS n_items,
       CAST(ROUND(SUM(l.l_quantity)) AS BIGINT) AS sum_qty
FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
GROUP BY 1
"""


# ========================================== F1/training: exact deduplication


def q_dedup_exact(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    # text_hash cardinality ≈ n_docs → coarse-grouped pandas aggregate
    # (Ray-native aggregate costs ~0.1 ms/group — unusable at billions of
    # distinct hashes; see _with_coarse_group)
    def agg(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("text_hash", as_index=False, dropna=False).agg(
            first_doc_id=("doc_id", "min"), n_dups=("doc_id", "size")
        )
        out["n_dups"] = out["n_dups"].astype(np.int64)
        return out

    return (
        _with_coarse_group(d.map_batches(_md5_doc_hashes, batch_format="pyarrow"), "text_hash")
        .groupby("_g")
        .map_groups(lambda g: agg(g.drop(columns=["_g"])), batch_format="pandas")
    )


DEDUP_EXACT_SQL = """
SELECT md5(text) AS text_hash, MIN(doc_id) AS first_doc_id, COUNT(*) AS n_dups
FROM documents GROUP BY 1
"""


# =========================== link rewriting, byte-exact vs SQL (M11 oracle)


def q_rewrite_absolutize(sf_dir: str):
    """M11 under a hard oracle: each document's text becomes an HTML page
    with one relative link; ``rewrite_links`` (the bs4+lxml-faithful DOM
    reserializer) must produce EXACTLY the bytes the oracle assembles by
    string concatenation — absolutized href, minimally re-escaped text,
    all other bytes identical."""
    import html as _H

    from ..functions.rewrite import rewrite_links

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    base = "https://www.example.org"

    def rw(t: pa.Table) -> pa.Table:
        out = []
        for doc_id, txt in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
            src = (
                f'<html><body><a href="/doc/{doc_id}">'
                f"{_H.escape(txt, quote=False)}</a></body></html>"
            )
            out.append(rewrite_links(src, base))
        return pa.table({"doc_id": t.column("doc_id"), "html_out": pa.array(out, pa.string())})

    return d.map_batches(rw, batch_format="pyarrow")


REWRITE_ABSOLUTIZE_SQL = r"""
SELECT doc_id,
       '<html><body><a href="https://www.example.org/doc/' || doc_id || '">'
       || replace(replace(replace(text, '&', '&amp;'), '<', '&lt;'), '>', '&gt;')
       || '</a></body></html>' AS html_out
FROM documents
"""


# ====================================== exact dedup, materialized survivors


def _md5_doc_hashes(t: pa.Table) -> pa.Table:
    """(text_hash, doc_id) rows — shared by the exact-dedup queries.
    md5-per-document is the vectorization floor (C digest over full
    texts; no numpy/arrow md5 kernel exists); runs inside map_batches so
    it scales out."""
    hashes = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t.column("text").to_pylist()]
    return pa.table({"text_hash": pa.array(hashes, pa.string()), "doc_id": t.column("doc_id")})


def q_dedup_keep_first(sf_dir: str):
    """The dedup most pipelines actually run: keep the FIRST (min doc_id)
    document of every exact-duplicate group and return the surviving ids
    — the keep-list a downstream stage joins/filters the full table by.
    One keyed shuffle of (hash, id) rows; document payloads never move."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("text_hash", as_index=False, dropna=False)["doc_id"].min()[["doc_id"]]

    return (
        _with_coarse_group(d.map_batches(_md5_doc_hashes, batch_format="pyarrow"), "text_hash")
        .groupby("_g")
        .map_groups(lambda g: winners(g.drop(columns=["_g"])), batch_format="pandas")
    )


DEDUP_KEEP_FIRST_SQL = """
SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY md5(text)
"""


# ================================= deterministic per-group sampling (k/key)


def q_sample_per_group(sf_dir: str, k: int = 20):
    """Deterministic k-per-group sampling — the scale-safe way to draw a
    fixed-size sample per key without a global shuffle: rank rows inside
    each co-located group by a content hash (md5 of the doc id — uniform,
    reproducible, order-free) and keep the top k."""
    d = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        keys = g["doc_id"].map(lambda i: hashlib.md5(str(i).encode()).hexdigest())
        g = g.assign(_k=keys).sort_values(["_k", "doc_id"]).head(k)
        return g[["doc_id", "lang"]]

    return d.groupby("lang").map_groups(pick, batch_format="pandas")


SAMPLE_PER_GROUP_SQL = """
WITH r AS (
  SELECT doc_id, lang,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk
  FROM documents)
SELECT doc_id, lang FROM r WHERE rk <= 20
"""


# ================================================ pdf render→extract (E3)
# The reference's pdf text path is pdfminer.high_level.extract_text
# (extraction.py:44-45). Proven here as a lossless round trip: every
# document's text is rendered into a structurally valid PDF (FlateDecode /
# TJ-kerning variants chosen per doc_id) and recovered byte-identically by
# the from-scratch extractor — the oracle is the documents table itself.


def q_pdf_roundtrip(sf_dir: str):
    from ..functions.pdf import pdf_to_text, render_pdf_text, unwrap_lines

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def roundtrip(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        recovered = []
        for doc_id, txt in zip(ids, t.column("text").to_pylist()):
            # '\n' and '\x0c' are the extractor's STRUCTURE characters
            # (line / page separators) — normalize them to spaces on both
            # sides so the round trip stays exact for arbitrary text (the
            # oracle applies the identical replace)
            safe = txt.replace("\x0c", " ").replace("\n", " ")
            pdf = render_pdf_text(
                safe, compress=(doc_id % 3 != 0), tj_words=(doc_id % 4 == 0)
            )
            ext = pdf_to_text(pdf)
            recovered.append(None if ext is None else unwrap_lines(ext))
        return pa.table(
            {"doc_id": t.column("doc_id"), "text": pa.array(recovered, pa.string())}
        )

    return d.map_batches(roundtrip, batch_format="pyarrow")


PDF_ROUNDTRIP_SQL = (
    "SELECT doc_id, replace(replace(text, chr(12), ' '), chr(10), ' ') AS text "
    "FROM documents"
)


# ================================================ html render→extract (E2)
# Same round-trip proof for the bs4-4.9.3-byte-identical get_text path
# (functions/extract.py): each document's text is escaped into an HTML
# body, parsed and extracted by the real extractor, and must come back
# byte-identical — the oracle is the documents table itself.


def q_html_roundtrip(sf_dir: str):
    import html as _H

    from ..functions.extract import html_to_text

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def roundtrip(t: pa.Table) -> pa.Table:
        out = []
        for txt in t.column("text").to_pylist():
            doc = f"<html><body><p>{_H.escape(txt)}</p></body></html>".encode("utf-8")
            out.append(html_to_text(doc))
        return pa.table({"doc_id": t.column("doc_id"), "text": pa.array(out, pa.string())})

    return d.map_batches(roundtrip, batch_format="pyarrow")


HTML_ROUNDTRIP_SQL = "SELECT doc_id, text FROM documents"


# =============================================== token counting (per lang)


def q_token_stats(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["lang", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(part_tokens=token_counts(df["text"]), part_docs=1)
        return df.groupby("lang", as_index=False)[["part_tokens", "part_docs"]].sum()

    return (
        d.map_batches(stats, batch_format="pandas")
        .groupby("lang")
        .aggregate(Sum("part_docs", alias_name="n_docs"), Sum("part_tokens", alias_name="total_tokens"))
    )


TOKEN_STATS_SQL = r"""
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(len(regexp_extract_all(text, '[^ \t\n\r\f]+'))) AS BIGINT) AS total_tokens
FROM documents GROUP BY lang
"""


# ============================== corpus heavy hitters (top-k frequent tokens)


def q_token_topk(sf_dir: str, k: int = 100):
    """Most frequent tokens corpus-wide. Scale shape: per-batch
    value_counts is the map-side combiner (the shuffle moves one row per
    distinct token per block, not one per occurrence), then a keyed
    groupby-sum and a top-k sort of the already-aggregated vocabulary.
    Deterministic tie-break: count DESC, token ASC."""
    d = _read(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.findall(r"[^ \t\n\r\f]+").explode().dropna()
        vc = toks.value_counts()
        return pd.DataFrame(
            {"token": vc.index.astype(str), "part_n": vc.to_numpy().astype(np.int64)}
        )

    def sum_tokens(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("token", as_index=False, dropna=False)["part_n"].sum()
        return out.rename(columns={"part_n": "n"}).astype({"n": np.int64})

    # vocabulary cardinality scales with the corpus → coarse-grouped
    # pandas sum (see _with_coarse_group); the final sort ranks the
    # already-aggregated vocabulary
    agg = (
        _with_coarse_group(d.map_batches(partial, batch_format="pandas"), "token")
        .groupby("_g")
        .map_groups(lambda g: sum_tokens(g.drop(columns=["_g"])), batch_format="pandas")
    )
    return agg.sort(["n", "token"], descending=[True, False]).limit(k)


TOKEN_TOPK_SQL = r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS token
  FROM documents
),
c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY token)
SELECT token, n FROM c ORDER BY n DESC, token ASC LIMIT 100
"""


# ======================= tf-idf top terms (search-indexing building block)


def q_tfidf_topk(sf_dir: str, k: int = 3):
    """Top-k characteristic terms per document by an integer tf-idf
    score ``(tf * 1e6) // df`` (floats avoided so the DuckDB oracle is
    exact; rarity still dominates). Tie-break: score DESC, term ASC.

    Scale shape — two coarse-hash exchanges, both keyed on data-scaled
    columns, neither a per-key Ray groupby:
    1. per-batch tokenize + in-batch (doc, term) tf combiner (the
       shuffle moves one row per distinct doc-term per block);
    2. exchange on ``term``: every row of a term lands in one task, so
       df is computed AND attached there in one pass — no separate df
       table, no broadcast of a data-scaled vocabulary;
    3. exchange on ``doc_id``: vectorized per-doc top-k
       (sort + groupby.head) inside each coarse task."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index("doc_id")["text"].str.lower().str.findall(r"[^ \t\n\r\f]+").explode().dropna()
        g = toks.reset_index().groupby(["doc_id", "text"], as_index=False).size()
        g.columns = ["doc_id", "term", "tf"]
        return g.astype({"tf": np.int64})

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"])
        g["df"] = g.groupby("term")["term"].transform("size").astype(np.int64)
        g["score"] = g["tf"].to_numpy() * 1_000_000 // g["df"].to_numpy()
        return g

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_g"]).sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True], kind="mergesort"
        )
        out = g.groupby("doc_id").head(k).copy()
        out["rank"] = out.groupby("doc_id").cumcount().to_numpy() + 1
        return out.astype({"rank": np.int64})

    tf = d.map_batches(tf_partial, batch_format="pandas")
    scored = (
        _with_coarse_group(tf, "term").groupby("_g").map_groups(attach_df, batch_format="pandas")
    )
    return (
        _with_coarse_group(scored, "doc_id")
        .groupby("_g")
        .map_groups(topk, batch_format="pandas")
    )


TFIDF_TOPK_SQL = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf FROM tok GROUP BY 1, 2),
dfx AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY 1),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf, dfx.df, tf.tf * 1000000 // dfx.df AS score
  FROM tf JOIN dfx USING (term)),
rk AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                               ORDER BY score DESC, term ASC) AS rank
  FROM scored)
SELECT doc_id, term, tf, df, CAST(score AS BIGINT) AS score, CAST(rank AS BIGINT) AS rank
FROM rk WHERE rank <= 3
"""


# =============================== BPE-ish token counting + stopword quality


def q_bpe_token_stats(sf_dir: str):
    from ..functions.textstats import bpe_token_counts

    d = _read(sf_dir, "documents", columns=["lang", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(part_tokens=bpe_token_counts(df["text"]), part_docs=1)
        return df.groupby("lang", as_index=False)[["part_tokens", "part_docs"]].sum()

    return (
        d.map_batches(stats, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            Sum("part_docs", alias_name="n_docs"),
            Sum("part_tokens", alias_name="total_bpe_tokens"),
        )
    )


BPE_TOKEN_STATS_SQL = r"""
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(len(regexp_extract_all(text, '[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9 \t\n\r\f]'))) AS BIGINT)
         AS total_bpe_tokens
FROM documents GROUP BY lang
"""


def q_stopword_stats(sf_dir: str):
    from ..functions.textstats import stopword_counts

    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        n_stop, n_words = stopword_counts(df["text"])
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "n_stopwords": n_stop, "n_words": n_words}
        )

    return d.map_batches(stats, batch_format="pandas")


def _stopword_sql() -> str:
    from ..functions.textstats import STOPWORDS_EN

    sw = ", ".join(f"'{w}'" for w in STOPWORDS_EN)
    return f"""
    SELECT doc_id,
           CAST(len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                                w -> w IN ({sw}))) AS BIGINT) AS n_stopwords,
           CAST(len(regexp_extract_all(lower(text), '[a-z]+')) AS BIGINT) AS n_words
    FROM documents
    """


# ====================================================== quality scoring


def q_text_quality(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        q = quality_stats(df["text"])
        q.insert(0, "doc_id", df["doc_id"].to_numpy())
        return q

    return d.map_batches(stats, batch_format="pandas")


TEXT_QUALITY_SQL = r"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS BIGINT) AS n_alpha,
       CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS BIGINT) AS n_digit,
       CAST(len(regexp_extract_all(text, '[^ \t\n\r\f]+')) AS BIGINT) AS n_tokens
FROM documents
"""


# ===================== outlink extraction / frontier expansion graph


def _link_targets(doc_id: int, n_docs: int) -> list[int]:
    """Deterministic outlink targets for a doc (shared with the SQL
    oracle): k = 1 + md5 % 4 links to (doc_id*37 + j*101) mod n_docs."""
    from ..stages.multimodal import _md5_64

    k = 1 + _md5_64(f"lnkk:42:{doc_id}") % 4
    return [(doc_id * 37 + j * 101) % n_docs for j in range(1, k + 1)]


def iter_internal_edges(doc_ids, n_docs: int):
    """Yield every (src, dst) internal link of the rendered pages for
    ``doc_ids`` — the ONE render → parse → ``/doc/<id>`` filter walk
    shared by q_link_graph, q_graph_reciprocity and q_kcore_peel (review
    finding: the walk was triplicated and could desynchronize from the
    'lnkk:42' oracle rule). Self-loops are NOT filtered here — callers
    that exclude them do so explicitly (q_link_graph counts them)."""
    import re as _re

    from ..functions.extract import extract_hrefs

    internal = _re.compile(r"^/doc/([0-9]+)$")
    for did in doc_ids:
        html = _render_link_page(did, _link_targets(did, n_docs))
        for href in extract_hrefs(html):
            m = internal.match(href)
            if m:
                yield did, int(m.group(1))


def internal_edges_np(
    doc_ids, n_docs: int, *, drop_self: bool = False, return_counts: bool = False
):
    """Vectorized ``iter_internal_edges``: identical (src, dst) edge
    multiset (pinned by tests/test_webcorpus.py edge-equivalence), but
    the per-edge fan-out is numpy repeat/arange instead of a per-doc
    render → DOM-parse walk (VERDICT r3 #4: the walk fed ≥5 graph
    queries and dominated their timings). The per-doc md5 that sets the
    out-degree is the string-kernel floor — everything after it is
    vectorized. ``q_link_graph``/``q_anchor_texts`` keep the real
    render → parse path: they ARE the extraction operators; this helper
    serves the graph-math consumers (reciprocity, k-core,
    assortativity, co-citation) that only need the edge list."""
    from ..stages.multimodal import _md5_64

    ids = np.asarray(doc_ids, dtype=np.int64)
    if ids.size == 0 or n_docs == 0:
        e = np.array([], np.int64)
        return (e, e, e.copy()) if return_counts else (e, e)
    ks = np.fromiter(
        (1 + _md5_64(f"lnkk:42:{int(d)}") % 4 for d in ids), np.int64, len(ids)
    )
    src = np.repeat(ids, ks)
    first = np.cumsum(ks) - ks  # start offset of each doc's edge run
    j = np.arange(int(ks.sum()), dtype=np.int64) - np.repeat(first, ks) + 1
    dst = (src * 37 + j * 101) % n_docs
    deg = np.repeat(ks, ks)  # per-edge out-degree of its source (pre-drop)
    if drop_self:
        keep = src != dst
        src, dst, deg = src[keep], dst[keep], deg[keep]
    return (src, dst, deg) if return_counts else (src, dst)


def _render_link_page(doc_id: int, targets: list[int]) -> str:
    """A crawled page whose REAL anchors point at ``/doc/<id>`` — plus
    the decoys a regex extractor would wrongly pick up: an anchor inside
    a comment, one inside script CDATA text, and an external link (the
    parser sees it; the internal-link filter must drop it)."""
    links = "\n".join(
        # the anchor LABEL varies by source (ref class = doc_id % 7) and
        # hides a character reference: a DOM text walk reads "doc T ref C",
        # a raw-HTML regex reads the unconverted "ref&#32;C"
        f'<li><a href="/doc/{t}">doc {t} ref&#32;{doc_id % 7}</a></li>'
        for t in targets
    )
    return (
        "<!DOCTYPE html>\n"
        f"<html><head><title>doc {doc_id}</title>\n"
        "<script>var decoy = '<a href=\"/doc/999999\">not a link</a>';</script>\n"
        "</head><body>\n"
        f"<h1>Document {doc_id}</h1>\n"
        '<!-- <a href="/doc/888888">commented out</a> -->\n'
        f'<p>See also <a href="https://example.invalid/ext/{doc_id}">external</a>.</p>\n'
        f"<ul>\n{links}\n</ul>\n"
        "</body></html>\n"
    )


def q_link_graph(sf_dir: str):
    """Frontier expansion as an operator: render a real HTML page per
    doc, extract its outlinks with the DOM-walking ``LinkExtractor``
    (regex decoys in comments/script must NOT count), keep internal
    ``/doc/<id>`` links, and aggregate per-doc out-degree and in-degree.

    Scale shape: edge extraction is one streaming ``map_batches`` pass;
    the degree aggregate keys on doc_id (data-scaled cardinality), so it
    runs as a per-batch combiner (one row per doc per block) followed by
    a coarse-hash-keyed pandas sum — never a per-key Ray groupby. The
    doc count (for the synthetic target formula) comes from parquet
    metadata, not a scan."""
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "out_degree": pa.array([], pa.int64()),
            "in_degree": pa.array([], pa.int64()),
        }
    )
    if n_docs == 0:
        return ray.data.from_arrow(empty)
    def edges_partial(t: pa.Table) -> pa.Table:
        """Render → parse → per-batch degree combiner. The edges come
        from the REAL render → DOM-parse walk (this is the extraction
        operator); the degree math after it is numpy (the per-edge dict
        loop was the last Python combiner on this path)."""
        batch_ids = t.column("doc_id").to_numpy().astype(np.int64)
        pairs = list(iter_internal_edges(batch_ids.tolist(), n_docs))
        src = np.fromiter((a for a, _ in pairs), np.int64, len(pairs))
        dst = np.fromiter((b for _, b in pairs), np.int64, len(pairs))
        ids = np.unique(np.concatenate([batch_ids, src, dst]))
        out_n = np.zeros(len(ids), np.int64)
        in_n = np.zeros(len(ids), np.int64)
        si, sc = np.unique(src, return_counts=True)
        di, dc = np.unique(dst, return_counts=True)
        out_n[np.searchsorted(ids, si)] = sc
        in_n[np.searchsorted(ids, di)] = dc
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "part_out": pa.array(out_n, pa.int64()),
                "part_in": pa.array(in_n, pa.int64()),
            }
        )

    def sum_group(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", as_index=False)[["part_out", "part_in"]].sum()
        return out.rename(columns={"part_out": "out_degree", "part_in": "in_degree"}).astype(
            np.int64
        )

    d = _read(sf_dir, "documents", columns=["doc_id"])
    return (
        _with_coarse_group(d.map_batches(edges_partial, batch_format="pyarrow"), "doc_id")
        .groupby("_g")
        .map_groups(lambda g: sum_group(g.drop(columns=["_g"])), batch_format="pandas")
    )


def _link_graph_sql() -> str:
    md5u = "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
o AS (SELECT src AS doc_id, COUNT(*) AS out_degree FROM e GROUP BY 1),
i AS (SELECT dst AS doc_id, COUNT(*) AS in_degree FROM e GROUP BY 1)
SELECT d.doc_id,
  CAST(COALESCE(o.out_degree, 0) AS BIGINT) AS out_degree,
  CAST(COALESCE(i.in_degree, 0) AS BIGINT) AS in_degree
FROM documents d
LEFT JOIN o ON d.doc_id = o.doc_id
LEFT JOIN i ON d.doc_id = i.doc_id
"""


# ===================== anchor-text index (search-engine link labels)


def q_anchor_texts(sf_dir: str):
    """Anchor-text aggregation — the classic search-index signal: for
    every linked-to page, what do OTHER pages' links call it? Renders
    each doc's page, walks the DOM for (href, label) anchor pairs
    (``AnchorExtractor``: comment/script decoys excluded, character
    references converted — a raw-regex extractor fails both), keeps
    internal ``/doc/<id>`` targets, and aggregates per target: total
    anchors, distinct labels, and the top label (most frequent, label
    ASC tie-break). Emits (doc_id, n_anchors, n_distinct_texts,
    top_text).

    Scale shape: render+parse is one streaming ``map_batches`` pass
    with a per-batch (target, label) combiner — the exchange moves one
    row per distinct label per target per block, never the pages; then
    a coarse-hash exchange on the target co-locates each target's label
    histogram and the top-label pick runs vectorized in-task (sort +
    drop_duplicates, no per-row Python)."""
    import re as _re

    import pyarrow.parquet as _pq

    from ..functions.extract import extract_anchors

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_anchors": pa.array([], pa.int64()),
            "n_distinct_texts": pa.array([], pa.int64()),
            "top_text": pa.array([], pa.string()),
        }
    )
    if n_docs == 0:
        return ray.data.from_arrow(empty)
    internal = _re.compile(r"^/doc/([0-9]+)$")

    def anchors_partial(t: pa.Table) -> pa.Table:
        dsts: list[int] = []
        texts: list[str] = []
        for did in t.column("doc_id").to_pylist():
            html = _render_link_page(did, _link_targets(did, n_docs))
            for href, label in extract_anchors(html):
                m = internal.match(href)
                if m:
                    dsts.append(int(m.group(1)))
                    texts.append(label)
        g = (
            pd.DataFrame({"dst": np.array(dsts, dtype=np.int64), "txt": texts})
            .groupby(["dst", "txt"], as_index=False)
            .size()
            .rename(columns={"size": "part_c"})
        )
        return pa.table(
            {
                "dst": pa.array(g["dst"].to_numpy().astype(np.int64), pa.int64()),
                "txt": pa.array(g["txt"].astype(object), pa.string()),
                "part_c": pa.array(g["part_c"].to_numpy().astype(np.int64), pa.int64()),
            }
        )

    def agg_target(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["dst", "txt"], as_index=False)["part_c"].sum()
        tot = c.groupby("dst", as_index=False)["part_c"].sum().rename(
            columns={"part_c": "n_anchors"}
        )
        nd = c.groupby("dst", as_index=False)["txt"].nunique().rename(
            columns={"txt": "n_distinct_texts"}
        )
        top = (
            c.sort_values(["dst", "part_c", "txt"], ascending=[True, False, True],
                          kind="mergesort")
            .drop_duplicates("dst", keep="first")[["dst", "txt"]]
            .rename(columns={"txt": "top_text"})
        )
        out = tot.merge(nd, on="dst").merge(top, on="dst").rename(
            columns={"dst": "doc_id"}
        )
        return out.astype(
            {"doc_id": np.int64, "n_anchors": np.int64, "n_distinct_texts": np.int64}
        )

    d = _read(sf_dir, "documents", columns=["doc_id"])
    return (
        _with_coarse_group(
            d.map_batches(anchors_partial, batch_format="pyarrow"), "dst"
        )
        .groupby("_g")
        .map_groups(lambda g: agg_target(g.drop(columns=["_g"])), batch_format="pandas")
    )


def _anchor_texts_sql() -> str:
    md5u = "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
a AS (
  SELECT dst,
         'doc ' || CAST(dst AS VARCHAR) || ' ref ' || CAST(src % 7 AS VARCHAR) AS txt
  FROM e),
g AS (SELECT dst, txt, COUNT(*) AS c FROM a GROUP BY dst, txt),
t AS (
  SELECT dst, txt, c,
         ROW_NUMBER() OVER (PARTITION BY dst ORDER BY c DESC, txt ASC) AS rn
  FROM g)
SELECT dst AS doc_id,
       CAST(SUM(c) AS BIGINT) AS n_anchors,
       CAST(COUNT(*) AS BIGINT) AS n_distinct_texts,
       MAX(CASE WHEN rn = 1 THEN txt END) AS top_text
FROM t GROUP BY dst
"""


# ============================ PageRank (integer, deterministic) over the
# synthetic outlink graph — graph compute as bucketed exchanges

PR_SCALE = 1_000_000   # pr is a scaled integer: 1.0 == 1e6
PR_DAMP_NUM = 85       # damping 0.85 as a ratio (85/100)
PR_ITERS = 3


def q_pagerank(sf_dir: str, n_buckets: int = 64, n_iters: int = PR_ITERS):
    """PageRank over the link_graph edge set, in SCALED-INTEGER
    arithmetic so every iteration is bit-exact against the SQL oracle:
    ``pr0 = 1e6``; ``pr_{t+1}(v) = 0.15e6 + Σ_{(u,v)} pr_t(u)*85 //
    (outdeg(u)*100)`` (floor division per edge — order-independent).

    Scale shape — actor-resident Pregel (pipelines/pregel.py): a node's
    roster row and its OUT-edges load ONCE into the actor owning
    bucket = src & mask and never re-shuffle; each round the actor
    computes new pr from incoming contribution messages and emits
    next-round contributions keyed by dst bucket — only messages cross
    the wire. Zero-contribution roster rows keep dangling/unreferenced
    nodes present (they get the base term). Sentinel -1 instead of
    Arrow nulls: a null int64 column realizes as float64 in pandas and
    corrupts ids above 2^53. No per-key Ray groupby, nothing
    data-scaled on the driver."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    d = _read(sf_dir, "documents", columns=["doc_id"])
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    if n_docs == 0:
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64()), "pagerank": pa.array([], pa.int64())})
        )

    # state schema (kind 0 = edge src→dst with outdeg, 1 = node roster
    # carrying the current pr); messages carry (b, node, contrib)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids_np = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst, deg = internal_edges_np(ids_np, n_docs, return_counts=True)
        n_e, n_r = len(src), len(ids_np)
        n1 = np.concatenate([src, ids_np])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n_e, np.int8), np.ones(n_r, np.int8)]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, np.full(n_r, -1, np.int64)]),
                "outdeg": np.concatenate([deg, np.zeros(n_r, np.int64)]),
                "pr": np.zeros(n_e + n_r, np.int64),
                "b": (n1 & mask),
            }
        )

    def pr_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        e = state[state["kind"] == 0]
        roster = state[state["kind"] == 1]
        if round_i == 0:
            pr = pd.DataFrame(
                {
                    "n1": roster["n1"].to_numpy(np.int64),
                    "pr": np.full(len(roster), PR_SCALE, np.int64),
                }
            )
        else:
            base = pd.DataFrame(
                {"node": roster["n1"].to_numpy(np.int64), "contrib": np.int64(0)}
            )
            inc = (
                msgs[["node", "contrib"]]
                if msgs is not None and len(msgs)
                else base.iloc[:0]
            )
            s = (
                pd.concat([base, inc])
                .groupby("node", as_index=False)["contrib"]
                .sum()
            )
            pr = pd.DataFrame(
                {
                    "n1": s["node"].to_numpy(np.int64),
                    "pr": (
                        PR_SCALE * 15 // 100 + s["contrib"].to_numpy()
                    ).astype(np.int64),
                }
            )
        new_roster = roster.drop(columns=["pr"]).merge(pr, on="n1", how="left")
        new_roster["pr"] = new_roster["pr"].fillna(0).astype(np.int64)
        new_state = pd.concat(
            [e, new_roster[["kind", "n1", "n2", "outdeg", "pr", "b"]]],
            ignore_index=True,
        )
        if round_i >= n_iters:  # final pr computed — stop messaging
            return new_state, None, 0
        em = e[["n1", "n2", "outdeg"]].merge(pr, on="n1", how="inner")
        contrib = em["pr"].to_numpy() * PR_DAMP_NUM // (
            em["outdeg"].to_numpy() * 100
        )
        out_msgs = pd.DataFrame(
            {
                "b": (em["n2"].to_numpy(np.int64) & mask),
                "node": em["n2"].to_numpy(np.int64),
                "contrib": contrib.astype(np.int64),
            }
        )
        # Pregel COMBINER: the receiver only ever sums, so pre-summing
        # per destination node here shrinks the wire volume from
        # O(edges) to O(distinct dst per actor) — exact (int addition)
        out_msgs = out_msgs.groupby(["b", "node"], as_index=False)["contrib"].sum()
        return new_state, out_msgs, 1

    from .pregel import pregel_actor_loop

    # rounds 0..n_iters-1 emit contributions; round n_iters applies the
    # last wave and reports 0, ending the loop exactly there
    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        pr_step,
        key="b",
        max_iters=n_iters + 1,
    )
    if state_ds is None:
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64()), "pagerank": pa.array([], pa.int64())})
        )

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(1, pa.int8()))
        )
        return pa.table(
            {
                "doc_id": pc.cast(lab.column("n1"), pa.int64()),
                "pagerank": pc.cast(lab.column("pr"), pa.int64()),
            }
        )

    return state_ds.map_batches(extract, batch_format="pyarrow")


def _pagerank_sql() -> str:
    md5u = "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    rounds = []
    prev = "pr0"
    for t in range(1, PR_ITERS + 1):
        rounds.append(
            f"""c{t} AS (
  SELECT e.dst AS doc_id, SUM({prev}.pr * {PR_DAMP_NUM} // (e.outdeg * 100)) AS s
  FROM e JOIN {prev} ON e.src = {prev}.doc_id GROUP BY 1),
pr{t} AS (
  SELECT d.doc_id, {PR_SCALE * 15 // 100} + COALESCE(c{t}.s, 0) AS pr
  FROM documents d LEFT JOIN c{t} ON d.doc_id = c{t}.doc_id)"""
        )
        prev = f"pr{t}"
    joined = ",\n".join(rounds)
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst, k AS outdeg
  FROM (SELECT doc_id, k, unnest(range(1, k + 1)) AS j FROM kk), n),
pr0 AS (SELECT doc_id, CAST({PR_SCALE} AS BIGINT) AS pr FROM documents),
{joined}
SELECT doc_id, CAST(pr AS BIGINT) AS pagerank FROM {prev}
"""


# ===================== triangle counting (graph analytics, 3 exchanges)


def q_triangle_count(sf_dir: str, n_buckets: int = 64):
    """Per-node triangle participation over the undirected link_graph
    edge set — the clustering/community signal PageRank and connected
    components don't give. Emits (doc_id, n_tri) for every node in ≥1
    triangle.

    Distributed node-iterator shape, THREE coarse exchanges, everything
    in-task vectorized:
    1. candidate edges canonicalized (u<v) and bucketed by u — both
       directions of an edge and all duplicate targets land in ONE
       bucket, so the in-task ``drop_duplicates`` is globally correct;
       the same task emits each node's wedges (neighbor pairs b<c via
       ``np.triu_indices``, discovered exactly once at the triangle's
       smallest node) keyed by b, with edges passed through keyed by u;
    2. wedge↔edge closing join per bucket (vectorized pandas merge);
       matched wedges are triangles — the three corner rows go out
       keyed by node;
    3. per-node corner count.
    ID orientation keeps oracle parity simple; production would orient
    wedges low-degree→high-degree to bound hub fan-out (same plan, one
    extra degree attach), which this synthetic graph (outdeg ≤ 4)
    doesn't need."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "n_tri": pa.array([], pa.int64())}
    )
    if n_docs == 0:
        return ray.data.from_arrow(empty)
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def cand_edges(t: pa.Table) -> pa.Table:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        u = np.minimum(src, dst)
        v = np.maximum(src, dst)
        return pa.table(
            {
                "u": pa.array(u),
                "v": pa.array(v),
                "bucket": pa.array((u & mask).astype(np.int32)),
            }
        )

    def wedges_and_edges(g: pd.DataFrame) -> pd.DataFrame:
        e = g.drop_duplicates(["u", "v"])
        key, x1, x2, kind = (
            [e["u"].to_numpy().astype(np.int64)],
            [e["v"].to_numpy().astype(np.int64)],
            [np.full(len(e), -1, dtype=np.int64)],
            [np.zeros(len(e), dtype=np.int8)],
        )
        for u, nb in e.groupby("u")["v"]:
            a = np.sort(nb.to_numpy().astype(np.int64))
            if len(a) < 2:
                continue
            i, j = np.triu_indices(len(a), 1)
            key.append(a[i])          # wedge keyed by its b endpoint
            x1.append(np.full(len(i), u, dtype=np.int64))  # a (apex)
            x2.append(a[j])           # c
            kind.append(np.ones(len(i), dtype=np.int8))
        key = np.concatenate(key)
        return pd.DataFrame(
            {
                "key": key,
                "x1": np.concatenate(x1),
                "x2": np.concatenate(x2),
                "kind": np.concatenate(kind),
                "bucket": (key & mask).astype(np.int32),
            }
        )

    def close_wedges(g: pd.DataFrame) -> pd.DataFrame:
        e = g.loc[g["kind"] == 0, ["key", "x1"]]
        w = g[g["kind"] == 1]
        m = w.merge(e, left_on=["key", "x2"], right_on=["key", "x1"], how="inner")
        corners = np.concatenate(
            [
                m["x1_x"].to_numpy().astype(np.int64),  # a
                m["key"].to_numpy().astype(np.int64),   # b
                m["x2"].to_numpy().astype(np.int64),    # c
            ]
        )
        return pd.DataFrame(
            {"node": corners, "bucket": (corners & mask).astype(np.int32)}
        )

    def count_nodes(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["node"].value_counts()
        return pd.DataFrame(
            {
                "doc_id": vc.index.to_numpy().astype(np.int64),
                "n_tri": vc.to_numpy().astype(np.int64),
            }
        )

    return (
        d.map_batches(cand_edges, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            lambda g: wedges_and_edges(g.drop(columns=["bucket"])),
            batch_format="pandas",
        )
        .groupby("bucket")
        .map_groups(
            lambda g: close_wedges(g.drop(columns=["bucket"])), batch_format="pandas"
        )
        .groupby("bucket")
        .map_groups(
            lambda g: count_nodes(g.drop(columns=["bucket"])), batch_format="pandas"
        )
    )


def _triangle_count_sql() -> str:
    md5u = "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
raw AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
e AS (
  SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
  FROM raw WHERE src <> dst),
t AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.v
  JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v),
corners AS (
  SELECT a AS doc_id FROM t
  UNION ALL SELECT b FROM t
  UNION ALL SELECT c FROM t)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tri FROM corners GROUP BY doc_id
"""


# ================================ composite quality gate (FineWeb-style)

# Integer-compare thresholds (fraction bars scaled by 100 so the DuckDB
# oracle is exact — no float ratios anywhere in the decision):
QF_MIN_CHARS = 100          # Gopher: drop very short docs
QF_MAX_CHARS = 500          # and very long outliers
QF_MIN_ALPHA_PCT = 50       # alpha chars must be >=50% of all chars
QF_MIN_STOPWORD_PCT = 5     # EN docs: stopwords >=5% of words
QF_MAX_TOP_BIGRAM_PCT = 10  # dominant bigram must be <=10% of bigrams


def q_quality_filter(sf_dir: str):
    """Composite training-data quality gate: one streaming pass over the
    corpus computes length / alpha-fraction / stopword-fraction /
    dominant-bigram signals (Rae et al. 2021 "Gopher" §A1.1; Penedo et
    al. 2024 "FineWeb") and emits per-rule flags plus the final keep
    decision. All comparisons are integer (fraction bars pre-scaled), so
    the SQL oracle reproduces the decision bit-for-bit. Mirrors the
    reference's per-rule postprocess gating idea
    (europarl/rules/extraction.py) generalized to corpus filtering.

    Scale: embarrassingly parallel — a single ``map_batches`` pass, no
    shuffle; at 100 TB this runs at read bandwidth."""
    d = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        cols = quality_gate_columns(df["text"], df["lang"])
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), **cols})

    return d.map_batches(gate, batch_format="pandas")


def quality_gate_columns(texts: pd.Series, langs: pd.Series) -> dict:
    """Per-row quality signals + rule flags + the composite ``keep``
    decision, as int64 numpy columns. Shared by q_quality_filter and the
    composed corpus_to_shards pipeline so the two can never drift."""
    from ..functions.textstats import bigram_stats, quality_stats, stopword_counts

    q = quality_stats(texts)
    n_stop, n_words = stopword_counts(texts)
    n_bg, top_bg = bigram_stats(texts)
    n_chars = q["n_chars"].to_numpy()
    is_en = (langs == "en").to_numpy()
    f_short = (n_chars < QF_MIN_CHARS).astype(np.int64)
    f_long = (n_chars > QF_MAX_CHARS).astype(np.int64)
    f_alpha = (q["n_alpha"].to_numpy() * 100 < n_chars * QF_MIN_ALPHA_PCT).astype(np.int64)
    f_stop = (is_en & (n_stop * 100 < n_words * QF_MIN_STOPWORD_PCT)).astype(np.int64)
    f_bigram = (top_bg * 100 > n_bg * QF_MAX_TOP_BIGRAM_PCT).astype(np.int64)
    keep = ((f_short | f_long | f_alpha | f_stop | f_bigram) == 0).astype(np.int64)
    return {
        "lang": langs.to_numpy(),
        "n_chars": n_chars,
        "n_words": n_words,
        "n_stopwords": n_stop,
        "n_bigrams": n_bg,
        "top_bigram_n": top_bg,
        "f_short": f_short,
        "f_long": f_long,
        "f_alpha": f_alpha,
        "f_stopword": f_stop,
        "f_bigram": f_bigram,
        "keep": keep,
    }


def _quality_filter_sql() -> str:
    from ..functions.textstats import STOPWORDS_EN

    sw = ", ".join(f"'{w}'" for w in STOPWORDS_EN)
    return f"""
WITH base AS (
  SELECT doc_id, lang,
    CAST(length(text) AS BIGINT) AS n_chars,
    CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS BIGINT) AS n_alpha,
    CAST(len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                         w -> w IN ({sw}))) AS BIGINT) AS n_stopwords,
    CAST(len(regexp_extract_all(lower(text), '[a-z]+')) AS BIGINT) AS n_words
  FROM documents),
bg AS (
  SELECT doc_id,
         CAST(COALESCE(SUM(c), 0) AS BIGINT) AS n_bigrams,
         CAST(COALESCE(MAX(c), 0) AS BIGINT) AS top_bigram_n
  FROM (
    SELECT doc_id, b, COUNT(*) AS c FROM (
      SELECT doc_id,
             unnest(list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])) AS b
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
            FROM documents)
      WHERE len(ws) >= 2)
    GROUP BY 1, 2)
  GROUP BY doc_id),
f AS (
  SELECT base.doc_id, lang, n_chars, n_words, n_stopwords,
    COALESCE(bg.n_bigrams, 0) AS n_bigrams,
    COALESCE(bg.top_bigram_n, 0) AS top_bigram_n,
    CASE WHEN n_chars < {QF_MIN_CHARS} THEN 1 ELSE 0 END AS f_short,
    CASE WHEN n_chars > {QF_MAX_CHARS} THEN 1 ELSE 0 END AS f_long,
    CASE WHEN n_alpha * 100 < n_chars * {QF_MIN_ALPHA_PCT} THEN 1 ELSE 0 END AS f_alpha,
    CASE WHEN lang = 'en' AND n_stopwords * 100 < n_words * {QF_MIN_STOPWORD_PCT}
         THEN 1 ELSE 0 END AS f_stopword,
    CASE WHEN COALESCE(bg.top_bigram_n, 0) * 100 > COALESCE(bg.n_bigrams, 0) * {QF_MAX_TOP_BIGRAM_PCT}
         THEN 1 ELSE 0 END AS f_bigram
  FROM base LEFT JOIN bg ON base.doc_id = bg.doc_id)
SELECT doc_id, lang, n_chars, n_words, n_stopwords, n_bigrams, top_bigram_n,
  CAST(f_short AS BIGINT) AS f_short,
  CAST(f_long AS BIGINT) AS f_long,
  CAST(f_alpha AS BIGINT) AS f_alpha,
  CAST(f_stopword AS BIGINT) AS f_stopword,
  CAST(f_bigram AS BIGINT) AS f_bigram,
  CAST(CASE WHEN f_short + f_long + f_alpha + f_stopword + f_bigram = 0
       THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM f
"""


# ================================================= document fingerprinting


def q_fingerprint_docs(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"], "fp": fingerprints(df["text"])})

    return d.map_batches(fp, batch_format="pandas")


FINGERPRINT_DOCS_SQL = r"""
SELECT doc_id, md5(lower(regexp_replace(text, '[ \t\n\r\f]+', ' ', 'g'))) AS fp
FROM documents
"""


# ============================================ similarity search: brute topk


def q_ann_topk(sf_dir: str):
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qdf = emb.filter(expr="vec_id < 5").to_pandas()
    if qdf.empty:  # empty table: no query vectors -> no results
        return ray.data.from_arrow(pa.table({"query_id": pa.array([], pa.int64()), "vec_id": pa.array([], pa.int64()), "rank": pa.array([], pa.int64())}))
    qids = qdf["vec_id"].to_numpy()
    qmat = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    qnorm = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    qref = ray.put((qids, qnorm))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        ids, qn = ray.get(qref)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = qn @ mat.T  # (n_query, n_batch)
        out = pd.DataFrame(
            {
                "query_id": np.repeat(ids, len(df)),
                "vec_id": np.tile(df["vec_id"].to_numpy(), len(ids)),
                "sim": sims.ravel(),
            }
        )
        return out

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(10)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "vec_id", "rank"]]

    return (
        emb.map_batches(score, batch_format="pandas")
        .groupby("query_id")
        .map_groups(topk, batch_format="pandas")
    )


ANN_TOPK_SQL = """
WITH q AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings WHERE vec_id < 5),
d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
scored AS (
  SELECT q.vec_id AS query_id, d.vec_id AS vec_id,
         ROW_NUMBER() OVER (PARTITION BY q.vec_id
                            ORDER BY list_cosine_similarity(q.e, d.e) DESC,
                                     d.vec_id ASC) AS rank
  FROM q CROSS JOIN d)
SELECT query_id, vec_id, rank FROM scored WHERE rank <= 10
"""


# ============================================ M10: recrawl schedule unfold

SPACED_ANCHOR = date(2024, 1, 30)

# offsets written out from the reference loop spec (downloader.py:39-68):
# range(0,14) step 1; multiples of 2 in [14,28); of 5 in [28,84); of 10 in
# [84,365); then 100, 200, 300 appended AGAIN (duplicates are intentional —
# the reference list has them too).
SPACED_OFFSETS = (
    list(range(0, 14))
    + [i for i in range(14, 28) if i % 2 == 0]
    + [i for i in range(28, 84) if i % 5 == 0]
    + [i for i in range(84, 365) if i % 10 == 0]
    + [100, 200, 300]
)


def q_spaced_out_dates(sf_dir: str):
    days = R.spaced_out_dates(SPACED_ANCHOR)
    offsets = [(SPACED_ANCHOR - d).days for d in days]
    return pa.table(
        {
            "offset_days": pa.array(offsets, pa.int64()),
            "day": pa.array(days, pa.date32()),
        }
    )


SPACED_OUT_DATES_SQL = f"""
SELECT CAST(i AS BIGINT) AS offset_days,
       DATE '{SPACED_ANCHOR.isoformat()}' - CAST(i AS INTEGER) AS day
FROM (SELECT unnest([{", ".join(str(i) for i in SPACED_OFFSETS)}]) AS i)
"""


# ========================================================== lang summary


def q_lang_summary(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    g = d.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="chars_raw")
    )
    return g.map_batches(
        lambda t: pa.table(
            {
                "lang": t.column("lang"),
                "n_docs": t.column("n_docs"),
                "total_chars": pc.cast(t.column("chars_raw"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


LANG_SUMMARY_SQL = """
SELECT lang, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
"""


# =============================== quality: intra-doc repetition (Gopher/
# FineWeb-style signals — dup lines, dup words, dominant bigram)


def q_repetition_stats(sf_dir: str):
    """Per-document repetition signals used by web-scale quality filters
    (Rae et al. 2021 "Gopher" §A1.1; FineWeb): duplicate-line excess,
    word-level type/token counts, and the dominant bigram's share. All
    INTEGER outputs (counts, not ratios) so the DuckDB oracle is exact;
    consumers derive fractions downstream. Per-doc Counter loops are the
    string-kernel floor (like langid/fingerprint) and run inside
    ``map_batches``."""
    from collections import Counter

    from ..functions.dedup import _WORD_RE

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, txt in zip(df["doc_id"], df["text"]):
            t = txt or ""
            lines = [ln for ln in t.split("\n") if ln != ""]
            ws = _WORD_RE.findall(t.lower())
            if len(ws) >= 2:
                bg = Counter(zip(ws, ws[1:]))
                n_bigrams, top_bigram_n = sum(bg.values()), max(bg.values())
            else:
                n_bigrams = top_bigram_n = 0
            rows.append(
                (
                    did,
                    len(lines),
                    len(lines) - len(set(lines)),
                    len(ws),
                    len(set(ws)),
                    n_bigrams,
                    top_bigram_n,
                )
            )
        return pd.DataFrame(
            rows,
            columns=[
                "doc_id",
                "n_lines",
                "n_dup_lines",
                "n_words",
                "n_distinct_words",
                "n_bigrams",
                "top_bigram_n",
            ],
        ).astype(np.int64)

    return docs.map_batches(stats, batch_format="pandas")


REPETITION_STATS_SQL = r"""
WITH lf AS (
  SELECT doc_id, line FROM (
    SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents)
  WHERE line <> ''
),
lc AS (
  SELECT doc_id, COUNT(*) AS n_lines,
         COUNT(*) - COUNT(DISTINCT line) AS n_dup_lines
  FROM lf GROUP BY doc_id
),
w AS (SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f]+') AS ws
      FROM documents),
wc AS (SELECT doc_id, len(ws) AS n_words, len(list_distinct(ws)) AS n_distinct_words
       FROM w),
bc AS (
  SELECT doc_id, b, COUNT(*) AS c FROM (
    SELECT doc_id, unnest(list_transform(range(1, len(ws)),
                                         i -> ws[i] || ' ' || ws[i+1])) AS b
    FROM w WHERE len(ws) >= 2)
  GROUP BY 1, 2
),
bt AS (SELECT doc_id, SUM(c) AS n_bigrams, MAX(c) AS top_bigram_n FROM bc GROUP BY doc_id)
SELECT d.doc_id,
  CAST(COALESCE(lc.n_lines, 0) AS BIGINT) AS n_lines,
  CAST(COALESCE(lc.n_dup_lines, 0) AS BIGINT) AS n_dup_lines,
  CAST(COALESCE(wc.n_words, 0) AS BIGINT) AS n_words,
  CAST(COALESCE(wc.n_distinct_words, 0) AS BIGINT) AS n_distinct_words,
  CAST(COALESCE(bt.n_bigrams, 0) AS BIGINT) AS n_bigrams,
  CAST(COALESCE(bt.top_bigram_n, 0) AS BIGINT) AS top_bigram_n
FROM documents d
LEFT JOIN lc USING (doc_id)
LEFT JOIN wc USING (doc_id)
LEFT JOIN bt USING (doc_id)
"""


# ========================= exact distributed quantiles (bounded domain)


def q_length_quantiles(sf_dir: str, pcts: tuple = (25, 50, 75, 90)):
    """EXACT per-language quantiles of doc length, computed distributed:
    per-batch (lang, n_chars) histograms (combiner) → one small groupby
    whose cardinality is bounded by the VALUE DOMAIN (langs × distinct
    lengths), not the row count → the driver reduces the value-domain-
    sized histogram to quantiles. The classic exact-quantile shape for
    integer-domain columns — no sort, no sampling error. Quantile
    definition: ascending value at index floor((N-1)·q) (replicated
    exactly in the SQL oracle's ROW_NUMBER join)."""
    docs = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "n_chars"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        # coarse co-location key (see grouping.py): a Ray groupby over the
        # raw (lang, n_chars) pairs pays per-group cost on thousands of
        # groups — 64 coarse buckets + a pandas sum inside the task keep
        # the exchange and drop the per-group overhead (2.8 s → <1 s)
        g["_g"] = g["n_chars"].to_numpy() & 63
        return g

    def bucket_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["lang", "n_chars"], as_index=False)["n"].sum()

    h = (
        docs.map_batches(hist, batch_format="pandas")
        .groupby("_g")
        .map_groups(lambda g: bucket_sum(g.drop(columns=["_g"])), batch_format="pandas")
        .to_pandas()  # value-domain-sized (small), NOT data-sized
    )
    out_lang, out_pct, out_val = [], [], []
    if h.empty:  # empty corpus: Ray's empty to_pandas has no columns
        h = pd.DataFrame({"lang": [], "n_chars": [], "n": []})
    for lang, g in h.groupby("lang"):
        g = g.sort_values("n_chars")
        vals = g["n_chars"].to_numpy()
        cum = g["n"].to_numpy().cumsum()
        n = int(cum[-1])
        for p in pcts:
            idx = (n - 1) * p // 100  # floor((N-1)*q), p integer percent
            out_lang.append(lang)
            out_pct.append(p)
            out_val.append(int(vals[np.searchsorted(cum, idx + 1)]))
    return pa.table(
        {
            "lang": pa.array(out_lang, pa.string()),
            "pct": pa.array(out_pct, pa.int64()),
            "n_chars": pa.array(out_val, pa.int64()),
        }
    )


LENGTH_QUANTILES_SQL = """
WITH s AS (
  SELECT lang, n_chars,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM documents
),
p(pct) AS (VALUES (25), (50), (75), (90))
SELECT lang, CAST(pct AS BIGINT) AS pct, n_chars
FROM s JOIN p ON s.rn = ((s.n - 1) * p.pct) // 100 + 1
"""


# =============== predicate/projection pushdown at the parquet read


def q_pushdown_scan(sf_dir: str, min_qty: int = 45):
    """Scan-level pruning as a first-class checked operator: the filter
    and the 2-column projection are pushed INTO ``read_parquet`` (row
    groups whose ``l_quantity`` statistics exclude the predicate are
    never read — at 100 TB this is the difference between scanning the
    lake and scanning the answer), then a per-batch partial aggregate →
    one tiny global sum."""
    import pyarrow.compute as _pc

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity"],
        filter=(_pc.field("l_quantity") > min_qty),
    )

    def partial(t: pa.Table) -> pa.Table:
        qty = t.column("l_quantity").to_numpy()
        return pa.table(
            {
                "part_rows": pa.array([len(qty)], pa.int64()),
                "part_orders": pa.array(
                    [len(np.unique(t.column("l_orderkey").to_numpy()))], pa.int64()
                ),
                "part_qty": pa.array([float(qty.sum())], pa.float64()),
            }
        )

    agg = li.map_batches(partial, batch_format="pyarrow").sum(
        ["part_rows", "part_qty"]
    )
    # n_orders needs a true distinct across batches — reuse the scan with
    # a per-batch distinct combiner and a coarse-bucket exchange
    orders = li.map_batches(
        lambda t: pa.table(
            {
                "k": pa.array(np.unique(t.column("l_orderkey").to_numpy()), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).map_batches(
        lambda t: pa.table(
            {
                "k": t.column("k"),
                "_g": pc.cast(pc.bit_wise_and(t.column("k"), 63), pa.int32()),
            }
        ),
        batch_format="pyarrow",
    )
    n_orders = (
        orders.groupby("_g")
        .map_groups(
            lambda g: pd.DataFrame({"n": [g["k"].nunique()]}), batch_format="pandas"
        )
        .sum("n")
    )
    if not agg or agg.get("sum(part_rows)") is None:
        # zero matching rows: COUNTs are 0, SUM is NULL (SQL semantics)
        return pa.table(
            {
                "n_rows": pa.array([0], pa.int64()),
                "n_orders": pa.array([0], pa.int64()),
                "sum_qty": pa.array([None], pa.int64()),
            }
        )
    return pa.table(
        {
            "n_rows": pa.array([int(agg["sum(part_rows)"])], pa.int64()),
            "n_orders": pa.array([int(n_orders or 0)], pa.int64()),
            "sum_qty": pa.array([int(round(agg["sum(part_qty)"]))], pa.int64()),
        }
    )


PUSHDOWN_SCAN_SQL = """
SELECT COUNT(*) AS n_rows,
       COUNT(DISTINCT l_orderkey) AS n_orders,
       CAST(ROUND(SUM(l_quantity)) AS BIGINT) AS sum_qty
FROM lineitem WHERE l_quantity > 45
"""


# ==================== WARC source round trip (Common-Crawl container)


def q_warc_roundtrip(sf_dir: str, n_shards: int = 8):
    """documents → .warc.gz shards (ISO 28500, one gzip member per
    record, one shard per hash bucket — written distributed) → the
    ``sources.warc.read_warc`` Dataset source → text recovered from the
    payload bytes. Proves the WARC reader/writer byte-exact end to end;
    the oracle is the documents table itself. The WARC file is the
    parallelism unit, as in real Common-Crawl dumps."""
    import hashlib as _hl
    import os
    import shutil

    from ..sources.warc import read_warc, write_warc_gz

    shard_dir = os.path.join(
        "/tmp", "europarl_warc_" + _hl.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    )
    shutil.rmtree(shard_dir, ignore_errors=True)
    os.makedirs(shard_dir)
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_g",
            pc.cast(pc.bit_wise_and(t.column("doc_id"), n_shards - 1), pa.int32()),
        )

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["_g"].iloc[0])
        recs = sorted(
            (
                (f"https://corpus.example/doc/{int(d)}", t.encode(), "2021-01-01T00:00:00Z")
                for d, t in zip(g["doc_id"], g["text"])
            )
        )
        tmp = os.path.join(shard_dir, f".shard_{b:03d}.tmp")
        with open(tmp, "wb") as f:
            f.write(write_warc_gz(recs))
        os.replace(tmp, os.path.join(shard_dir, f"shard_{b:03d}.warc.gz"))
        return pd.DataFrame({"n": [len(recs)]})

    n_written = (
        docs.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(write_shard, batch_format="pandas")
        .sum("n")
    )
    if not n_written:  # empty corpus: no shards to read back
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        )

    def decode(t: pa.Table) -> pa.Table:
        ids = [int(u.rsplit("/", 1)[1]) for u in t.column("url").to_pylist()]
        texts = [p.decode("utf-8") for p in t.column("html").to_pylist()]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
        )

    return read_warc(shard_dir).map_batches(decode, batch_format="pyarrow")


WARC_ROUNDTRIP_SQL = "SELECT doc_id, text FROM documents"


# ============== CDX index build + random-access record fetch (WARC)


def q_cdx_index(sf_dir: str, n_shards: int = 8):
    """The web-archive index workflow: documents → .warc.gz shards with
    a CDX-style index built IN the write task (uri, shard, byte offset,
    member length, payload digest — ``write_warc_gz_indexed``), then
    every index entry verified by an actual ranged read
    (``read_warc_record_at``: seek + one-member gunzip — the O(1)
    random-access pattern CC consumers use instead of scanning shards).

    Offsets depend on gzip framing so the oracle checks the
    SQL-expressible fields (digest, payload byte length, fetch
    success); the offsets themselves are proven by the fetch — a wrong
    offset fails parse or digest. Emits (doc_id, digest, rec_len,
    fetched_ok)."""
    import os
    import shutil

    import pyarrow.parquet as _pq

    from ..sources.warc import read_warc_record_at, write_warc_gz_indexed

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "digest": pa.array([], pa.string()),
            "rec_len": pa.array([], pa.int64()),
            "fetched_ok": pa.array([], pa.int64()),
        }
    )
    if _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows == 0:
        return ray.data.from_arrow(empty)

    shard_dir = os.path.join(
        "/tmp",
        "europarl_cdx_" + hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10],
    )
    shutil.rmtree(shard_dir, ignore_errors=True)
    os.makedirs(shard_dir)
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_g",
            pc.cast(pc.bit_wise_and(t.column("doc_id"), n_shards - 1), pa.int32()),
        )

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["_g"].iloc[0])
        recs = sorted(
            (
                (f"https://corpus.example/doc/{int(d)}", t.encode(), "2021-01-01T00:00:00Z")
                for d, t in zip(g["doc_id"], g["text"])
            )
        )
        blob, index = write_warc_gz_indexed(recs)
        tmp = os.path.join(shard_dir, f".shard_{b:03d}.tmp")
        path = os.path.join(shard_dir, f"shard_{b:03d}.warc.gz")
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(
                    [int(e["uri"].rsplit("/", 1)[1]) for e in index], dtype=np.int64
                ),
                "shard": [path] * len(index),
                "offset": pd.Series([e["offset"] for e in index], dtype=np.int64),
                "length": pd.Series([e["length"] for e in index], dtype=np.int64),
                "digest": [e["digest"] for e in index],
            }
        )

    cdx = (
        docs.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(write_shard, batch_format="pandas")
        .materialize()  # the index IS the product; also a write barrier
    )

    def fetch_verify(df: pd.DataFrame) -> pd.DataFrame:
        rec_len, ok = [], []
        for shard, off, ln, dig in zip(
            df["shard"], df["offset"], df["length"], df["digest"]
        ):
            rec = read_warc_record_at(shard, int(off), int(ln))
            rec_len.append(len(rec["payload"]))
            ok.append(int(hashlib.md5(rec["payload"]).hexdigest() == dig))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "digest": df["digest"],
                "rec_len": pd.Series(rec_len, dtype=np.int64),
                "fetched_ok": pd.Series(ok, dtype=np.int64),
            }
        )

    return cdx.map_batches(fetch_verify, batch_format="pandas")


CDX_INDEX_SQL = """
SELECT doc_id, md5(text) AS digest,
       CAST(strlen(text) AS BIGINT) AS rec_len,
       CAST(1 AS BIGINT) AS fetched_ok
FROM documents
"""


# ================= KMV distinct-count sketch (deterministic, oracled)


def q_distinct_tokens_kmv(sf_dir: str, k: int = 64):
    """Per-language distinct-token counting two ways: the EXACT count
    (distributed: per-batch distinct hashes → coarse-bucket exchange →
    per-bucket distinct → small sum) and a K-Minimum-Values sketch
    (Bar-Yossef et al. 2002), whose state is the K smallest md5 token
    hashes — a DETERMINISTIC function of the data, so the oracle
    recomputes the sketch bit-for-bit (unlike HLL's implementation-
    defined registers). Emits the K-th smallest hash as the sketch
    summary; the estimator (K-1)·2^64/h_K is derived downstream. Sketch
    merging is the per-batch combiner: each batch contributes its K
    smallest, the union's K smallest are the sketch of the whole corpus.
    """
    from ..functions.dedup import _WORD_RE, md5_hash64

    docs = _read(sf_dir, "documents", columns=["lang", "text"])

    def batch_hashes(df: pd.DataFrame) -> pd.DataFrame:
        # per-batch distinct (combiner) — the exchange moves hashes, not
        # tokens, and duplicates within a batch collapse here
        out = []
        for lang, g in df.groupby("lang"):
            words = set()
            for t in g["text"]:
                words.update(_WORD_RE.findall((t or "").lower()))
            hs = np.unique(md5_hash64(sorted(words)))
            out.append(pd.DataFrame({"lang": lang, "h": hs.view(np.int64)}))
        return (
            pd.concat(out, ignore_index=True)
            if out
            else pd.DataFrame(
                {"lang": pd.Series([], dtype=object), "h": pd.Series([], dtype=np.int64)}
            )
        )

    def add_bucket(t: pa.Table) -> pa.Table:
        # bucket by HIGH hash bits: buckets partition the hash space, so
        # per-bucket distinct counts are disjoint (exact sum) and the
        # global K smallest live in the lowest buckets (subset of the
        # per-bucket K smallest)
        h = t.column("h").to_numpy().view(np.uint64)
        return t.append_column(
            "_g", pa.array(((h >> np.uint64(58))).view(np.int64))
        )

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        # ONE row per (bucket, lang): disjoint distinct count + packed
        # K-smallest sketch state
        rows = []
        for lang, gg in g.groupby("lang"):
            hs = np.unique(gg["h"].to_numpy().view(np.uint64))
            rows.append((lang, int(hs.size), np.sort(hs)[:k].tobytes()))
        return pd.DataFrame(rows, columns=["lang", "n_distinct", "hmin"])

    per_bucket = (
        docs.map_batches(batch_hashes, batch_format="pandas")
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(lambda g: bucket_stats(g.drop(columns=["_g"])), batch_format="pandas")
        .to_pandas()  # ≤ 64 buckets × n_langs rows — bounded, not data-sized
    )
    out_lang, out_n, out_hk = [], [], []
    if per_bucket.empty:
        per_bucket = pd.DataFrame({"lang": [], "n_distinct": [], "hmin": []})
    for lang, g in per_bucket.groupby("lang"):
        out_lang.append(lang)
        out_n.append(int(g["n_distinct"].sum()))  # disjoint buckets
        hs = np.sort(
            np.concatenate([np.frombuffer(b, dtype=np.uint64) for b in g["hmin"]])
        )[:k]
        out_hk.append(int(hs[min(k, hs.size) - 1].view(np.int64)))
    return pa.table(
        {
            "lang": pa.array(out_lang, pa.string()),
            "n_distinct_exact": pa.array(out_n, pa.int64()),
            "kmv_hk": pa.array(out_hk, pa.int64()),
        }
    )


def _kmv_sql(k: int = 64) -> str:
    return rf"""
WITH w AS (
  SELECT DISTINCT lang,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f]+')) AS tok
  FROM documents
),
h AS (
  SELECT DISTINCT lang,
         CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS hv
  FROM w
),
r AS (
  SELECT lang, hv,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY hv) AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM h
)
SELECT lang, CAST(MAX(n) AS BIGINT) AS n_distinct_exact,
       -- two's-complement wrap to match numpy .view(int64)
       CAST(CAST(MAX(CASE WHEN rn = LEAST(n, {k}) THEN hv END) AS HUGEINT)
            - (CASE WHEN MAX(CASE WHEN rn = LEAST(n, {k}) THEN hv END)
                    >= 9223372036854775808 THEN 18446744073709551616 ELSE 0 END)
            AS BIGINT) AS kmv_hk
FROM r GROUP BY lang
"""


DISTINCT_TOKENS_KMV_SQL = _kmv_sql()


# ------------------------------------------------------------ registries

# =================== one-pass ROLLUP aggregate (multi-level subtotals)


def q_rollup_stats(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) in ONE data pass:
    fine-level partials are combined per batch, the small-dimension
    groupby reduces them, and the coarser levels (per-flag subtotal,
    grand total) are DERIVED from the fine aggregate by integer
    addition — never a second scan of the fact table. Quantities are
    scaled to integer cents (floor(q*100+0.5)) at the fine level so
    every rollup level is exact integer arithmetic on both sides.
    Subtotal keys use the 'ALL' sentinel (flags are non-null here), so
    no null-vs-NaN ambiguity crosses the gate. Emits (l_returnflag,
    l_linestatus, n_items, sum_qty_cents).

    Scale shape: the only exchange is the 9-group fine aggregate; the
    rollup derivation runs on the DIMENSION-bounded result (≤ |flags| ×
    |statuses| rows — a bounded driver finish, same class as ann_ivf's
    centroid reduce)."""
    li = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            cents=np.floor(df["l_quantity"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            n_p=("cents", "size"), c_p=("cents", "sum")
        )
        return g.astype({"n_p": np.int64, "c_p": np.int64})

    fine = (
        li.map_batches(partial, batch_format="pandas")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("n_p", alias_name="n_items"), Sum("c_p", alias_name="sum_qty_cents"))
        .to_pandas()  # bounded: one row per (flag, status) combination
    )
    if fine.empty:
        return pa.table(
            {
                "l_returnflag": pa.array([], pa.string()),
                "l_linestatus": pa.array([], pa.string()),
                "n_items": pa.array([], pa.int64()),
                "sum_qty_cents": pa.array([], pa.int64()),
            }
        )
    fine = fine.astype({"n_items": np.int64, "sum_qty_cents": np.int64})
    per_flag = fine.groupby("l_returnflag", as_index=False)[
        ["n_items", "sum_qty_cents"]
    ].sum()
    per_flag["l_linestatus"] = "ALL"
    total = pd.DataFrame(
        {
            "l_returnflag": ["ALL"],
            "l_linestatus": ["ALL"],
            "n_items": [fine["n_items"].sum()],
            "sum_qty_cents": [fine["sum_qty_cents"].sum()],
        }
    )
    out = pd.concat([fine, per_flag, total], ignore_index=True)
    return out[["l_returnflag", "l_linestatus", "n_items", "sum_qty_cents"]].astype(
        {"n_items": np.int64, "sum_qty_cents": np.int64}
    )


ROLLUP_STATS_SQL = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_qty_cents
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


# =================== crawl depth (BFS from seeds over the link graph)

LD_MAX_DEPTH = 16
LD_SEED_MOD = 97  # doc_id % 97 == 0 → seed (~1% of the corpus)


def q_link_depth(sf_dir: str, n_buckets: int = 64, max_depth: int = LD_MAX_DEPTH):
    """Crawl-depth analysis: the BFS distance of every page from the
    seed set over the link_graph edges (how deep must a crawl go to
    reach each page) — unreachable within ``max_depth`` hops → -1.

    Scale shape: the pagerank/dedup_clusters Pregel structure — ONE
    bucket exchange per BFS wave. A node's settled depth lives in the
    bucket of its OUT-edges (bucket = node & mask); each wave's task
    settles nodes from incoming depth proposals (min), and immediately
    emits depth+1 proposals along resident out-edges keyed by dst
    bucket. Waves needed = eccentricity of the seed set (bounded by
    max_depth); convergence is a per-wave newly-settled scalar. Nothing
    per-key at the Ray level, nothing on the driver."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    if n_docs == 0:
        return ray.data.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "depth": pa.array([], pa.int64())}
            )
        )
    d = _read(sf_dir, "documents", columns=["doc_id"])

    # actor-resident schema: kind 0 = edge (n1=src, n2=dst), kind 1 =
    # node state (n1=node, depth=-1 unsettled, seeds start at 0); both
    # live in the actor owning n1's bucket, so a wave's settle + fan-out
    # is local and only depth proposals (b, node, depth) cross the wire.
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids_np = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids_np, n_docs)  # vectorized edge walk
        is_seed = ids_np % LD_SEED_MOD == 0
        e = pd.DataFrame(
            {
                "kind": np.zeros(len(src), np.int8),
                "n1": src,
                "n2": dst,
                "depth": np.full(len(src), -1, np.int64),
                "b": (src & mask),
            }
        )
        st = pd.DataFrame(
            {
                "kind": np.ones(len(ids_np), np.int8),
                "n1": ids_np,
                "n2": np.full(len(ids_np), -1, np.int64),
                "depth": np.where(is_seed, 0, -1).astype(np.int64),
                "b": (ids_np & mask),
            }
        )
        return pd.concat([e, st], ignore_index=True)

    def depth_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        e = state[state["kind"] == 0]
        st = state[state["kind"] == 1]
        if round_i == 0:
            # wave 0: seeds are already settled at depth 0 — fan out
            depth = st["depth"].to_numpy().copy()
            settle = depth == 0
            n_changed = int(settle.sum())
            st2 = st
        else:
            best = (
                msgs.groupby("node")["depth"].min().rename("prop")
                if msgs is not None and len(msgs)
                else pd.Series(dtype=np.int64, name="prop")
            )
            st2 = st.merge(best, left_on="n1", right_index=True, how="left")
            unsettled = st2["depth"].to_numpy() < 0
            has_prop = st2["prop"].notna().to_numpy()
            settle = unsettled & has_prop
            depth = st2["depth"].to_numpy().copy()
            depth[settle] = st2["prop"].to_numpy()[settle]
            n_changed = int(settle.sum())
        senders = st2.loc[settle & (depth <= max_depth - 1), ["n1"]].assign(
            d=depth[settle & (depth <= max_depth - 1)]
        )
        sm = e.merge(senders.rename(columns={"n1": "src"}), left_on="n1",
                     right_on="src", how="inner")
        out_msgs = (
            pd.DataFrame(
                {
                    "b": (sm["n2"].to_numpy(np.int64) & mask),
                    "node": sm["n2"].to_numpy(np.int64),
                    "depth": sm["d"].to_numpy(np.int64) + 1,
                }
            )
            if len(sm)
            else None
        )
        new_st = pd.DataFrame(
            {
                "kind": np.ones(len(st2), np.int8),
                "n1": st2["n1"].to_numpy(np.int64),
                "n2": np.full(len(st2), -1, np.int64),
                "depth": depth,
                "b": st2["b"].to_numpy(np.int64),
            }
        )
        return pd.concat([e, new_st], ignore_index=True), out_msgs, n_changed

    from .pregel import pregel_actor_loop

    # bounded by max_depth+1 waves by construction (wave m consumes the
    # depth-m proposals), so exhaustion is the normal deep-graph stop
    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        depth_step,
        key="b",
        max_iters=max_depth + 1,
    )

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(1, pa.int8()))
        )
        return pa.table(
            {
                "doc_id": pc.cast(lab.column("n1"), pa.int64()),
                "depth": pc.cast(lab.column("depth"), pa.int64()),
            }
        )

    if state_ds is None:
        return ray.data.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "depth": pa.array([], pa.int64())}
            )
        )
    return state_ds.map_batches(extract, batch_format="pyarrow")


def _link_depth_sql() -> str:
    md5u = "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
    return f"""
WITH RECURSIVE n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
walk(v, dep) AS (
  SELECT doc_id, 0 FROM documents WHERE doc_id % {LD_SEED_MOD} = 0
  UNION
  SELECT e.dst, w.dep + 1 FROM walk w JOIN e ON e.src = w.v
  WHERE w.dep < {LD_MAX_DEPTH}
),
best AS (SELECT v, MIN(dep) AS depth FROM walk GROUP BY v)
SELECT d.doc_id, CAST(COALESCE(b.depth, -1) AS BIGINT) AS depth
FROM documents d LEFT JOIN best b ON b.v = d.doc_id
"""


SQL_QUERIES: dict[str, tuple] = {
    "link_depth": (q_link_depth, _link_depth_sql(), "graph"),
    "rollup_stats": (q_rollup_stats, ROLLUP_STATS_SQL, "backlog"),
    "repetition_stats": (q_repetition_stats, REPETITION_STATS_SQL, "text"),
    "length_quantiles": (q_length_quantiles, LENGTH_QUANTILES_SQL, "backlog"),
    "distinct_tokens_kmv": (q_distinct_tokens_kmv, DISTINCT_TOKENS_KMV_SQL, "backlog"),
    "warc_roundtrip": (q_warc_roundtrip, WARC_ROUNDTRIP_SQL, "training"),
    "cdx_index": (q_cdx_index, CDX_INDEX_SQL, "training"),
    "pushdown_scan": (q_pushdown_scan, PUSHDOWN_SCAN_SQL, "backlog"),
    "url_generation": (q_url_generation, _urlgen_sql(), "M1"),
    "unchecked_days": (q_unchecked_days, UNCHECKED_DAYS_SQL, "F3"),
    "retry_pairs": (q_retry_pairs, RETRY_PAIRS_SQL, "F3"),
    "todo_combos": (q_todo_combos, TODO_COMBOS_SQL, "F2"),
    "status_summary": (q_status_summary, STATUS_SUMMARY_SQL, "A1"),
    "top_k_recent": (q_top_k_recent, TOP_K_RECENT_SQL, "O1"),
    "uncrawled_orders": (q_uncrawled_orders, UNCRAWLED_ORDERS_SQL, "F4"),
    "unprocessed_documents": (q_unprocessed_documents, UNPROCESSED_DOCUMENTS_SQL, "F5"),
    "nation_order_stats": (q_nation_order_stats, NATION_ORDER_STATS_SQL, "E5"),
    "partitioned_join": (q_partitioned_join, PARTITIONED_JOIN_SQL, "E5"),
    "dedup_exact": (q_dedup_exact, DEDUP_EXACT_SQL, "F1"),
    "pdf_roundtrip": (q_pdf_roundtrip, PDF_ROUNDTRIP_SQL, "E3"),
    "html_roundtrip": (q_html_roundtrip, HTML_ROUNDTRIP_SQL, "engine"),
    "dedup_keep_first": (q_dedup_keep_first, DEDUP_KEEP_FIRST_SQL, "dedup"),
    "rewrite_absolutize": (q_rewrite_absolutize, REWRITE_ABSOLUTIZE_SQL, "M11"),
    "sample_per_group": (q_sample_per_group, SAMPLE_PER_GROUP_SQL, "backlog"),
    "token_stats": (q_token_stats, TOKEN_STATS_SQL, "text"),
    "token_topk": (q_token_topk, TOKEN_TOPK_SQL, "engine"),
    "tfidf_topk": (q_tfidf_topk, TFIDF_TOPK_SQL, "backlog"),
    "bpe_token_stats": (q_bpe_token_stats, BPE_TOKEN_STATS_SQL, "text"),
    "stopword_stats": (q_stopword_stats, _stopword_sql(), "text"),
    "text_quality": (q_text_quality, TEXT_QUALITY_SQL, "text"),
    "quality_filter": (q_quality_filter, _quality_filter_sql(), "text"),
    "link_graph": (q_link_graph, _link_graph_sql(), "backlog"),
    "anchor_texts": (q_anchor_texts, _anchor_texts_sql(), "backlog"),
    "pagerank": (q_pagerank, _pagerank_sql(), "engine"),
    "triangle_count": (q_triangle_count, _triangle_count_sql(), "graph"),
    "fingerprint_docs": (q_fingerprint_docs, FINGERPRINT_DOCS_SQL, "backlog"),
    "ann_topk": (q_ann_topk, ANN_TOPK_SQL, "ann"),
    "spaced_out_dates": (q_spaced_out_dates, SPACED_OUT_DATES_SQL, "M10"),
    "lang_summary": (q_lang_summary, LANG_SUMMARY_SQL, "backlog"),
}
