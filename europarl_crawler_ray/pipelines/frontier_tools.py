"""Frontier partitioning for Common-Crawl-shaped (multi-host, skewed)
url sets: host histogram pre-pass, hot-host salting, and a
politeness-partitioned fetch.

North-rule skew design (SURVEY §7.2): the frontier is partitioned by
``host`` so per-host politeness is enforced with ONE lease per group —
but a Zipf host distribution makes the hottest host's partition huge.
Salting splits hosts above a frequency threshold into ``k_host``
sub-partitions keyed ``host#salt`` (salt = url-hash % k); the politeness
coordinator still budgets per HOST (the salt only spreads the work), so
rate limits stay correct while no single task owns the hot host's tail.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count

from ..functions.canonical import hash_urls, hosts_vec
from ..stages.fetch import Fetcher


def with_host(ds: ray.data.Dataset, url_col: str = "url") -> ray.data.Dataset:
    def add(t: pa.Table) -> pa.Table:
        hosts = hosts_vec(t.column(url_col).to_pylist())
        return t.append_column("host", pa.array(hosts, pa.string()))

    return ds.map_batches(add, batch_format="pyarrow")


def host_histogram(ds: ray.data.Dataset, url_col: str = "url") -> pd.DataFrame:
    """The skew pre-pass: groupby(host).count(), small result."""
    return (
        with_host(ds, url_col)
        .groupby("host")
        .aggregate(Count(alias_name="n_urls"))
        .to_pandas()
        .sort_values("n_urls", ascending=False)
        .reset_index(drop=True)
    )


def salt_hot_hosts(
    ds: ray.data.Dataset,
    hot_hosts: dict[str, int] | None = None,
    hot_threshold: int = 10_000,
    k_host: int = 8,
    url_col: str = "url",
) -> ray.data.Dataset:
    """Adds ``host`` and ``part_key`` columns. Hosts above the threshold
    (measured by :func:`host_histogram` unless ``hot_hosts`` given) get
    ``host#salt`` keys with salt = url_hash % k; cold hosts keep ``host``.
    """
    if hot_hosts is None:
        hist = host_histogram(ds, url_col)
        hot_hosts = {
            r.host: k_host for r in hist.itertuples() if r.n_urls >= hot_threshold
        }
    hot_ref = ray.put(hot_hosts)

    def add_keys(t: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        urls = t.column(url_col).to_pylist()
        hosts = hosts_vec(urls)
        h1, _ = hash_urls(urls)
        keys = []
        for host, h in zip(hosts, h1):
            k = hot.get(host)
            keys.append(host if k is None else f"{host}#{int(h) % k}")
        out = t
        if "host" not in t.column_names:
            out = out.append_column("host", pa.array(hosts, pa.string()))
        return out.append_column("part_key", pa.array(keys, pa.string()))

    return ds.map_batches(add_keys, batch_format="pyarrow")


def politeness_partitioned_fetch(
    ds: ray.data.Dataset,
    coordinator,
    seed: int = 42,
    simulated: bool = True,
    page_scale: int = 1,
) -> ray.data.Dataset:
    """Fetch a salted frontier co-located by ``part_key``: ONE exchange on
    a coarse hash of ``part_key`` (the per-key shuffle semantics are
    preserved — every part_key's rows land in one task — but the task
    count stays ~256 instead of one Python-level group per host×salt,
    which is millions of groups at web scale; Fetcher already serializes
    per host inside the batch), then each task fetches through the shared
    per-host politeness budget (leases are per host — two salts of the
    same host draw from the same bucket)."""
    from .grouping import with_coarse_group

    def fetch_group(g: pa.Table) -> pa.Table:
        # stays Arrow end-to-end: the fetched rows carry html payloads and
        # a pandas round-trip would copy every blob through Python objects
        part_keys = g.column("part_key")
        g = g.drop_columns(["_g"])
        n = g.num_rows
        rulename = (
            g.column("rulename")
            if "rulename" in g.column_names
            else pa.array(["cc"] * n, pa.string())
        )
        t = pa.table(
            {
                "url": g.column("url"),
                "rulename": rulename,
                "date": pa.nulls(n, pa.date32()),
                "attempt": pa.array(np.zeros(n, dtype=np.int32)),
                "wave": pa.array(np.zeros(n, dtype=np.int32)),
            }
        )
        fetched = Fetcher(
            coordinator=coordinator, seed=seed, simulated=simulated, page_scale=page_scale
        )(t)
        # positional re-attach of per-row part_keys relies on Fetcher
        # returning exactly the input rows in input order — enforce it
        assert fetched.num_rows == n, "Fetcher must preserve row count/order"
        return fetched.append_column("part_key", part_keys)

    return (
        with_coarse_group(ds, "part_key")
        .groupby("_g")
        .map_groups(fetch_group, batch_format="pyarrow")
    )


# ===================== robots.txt policy gate (RFC 9309, from scratch)

ROBOTS_UA = "europarl-bot/1.0"
N_ROBOTS_HOSTS = 40
_PATH_FAMILIES = 5


def robots_text_for_ruleset(rs: int) -> str:
    """Deterministic robots.txt corpus (what a real crawl would have
    FETCHED per host): four policy archetypes seen in the wild —
    allow-all, path blocks, deny-all-with-carve-out (longest-match
    precedence), and a bot-specific group that overrides the ``*`` group
    (RFC 9309 group selection)."""
    return [
        "User-agent: *\nDisallow:\n",
        "User-agent: *\nDisallow: /private/\nDisallow: /tmp/\n",
        "User-agent: *\nDisallow: /\nAllow: /public/\n",
        "User-agent: europarl-bot\nDisallow: /files/\n"
        "User-agent: *\nDisallow: /*.pdf$\nDisallow: /search\n",
    ][rs % 4]


def _frontier_paths(keys: np.ndarray) -> tuple[np.ndarray, list[str]]:
    fam = (keys % _PATH_FAMILIES).astype(np.int64)
    paths = [
        [
            f"/public/doc{k}.html",
            f"/private/doc{k}.html",
            f"/files/doc{k}.pdf",
            f"/tmp/cache{k}",
            f"/search?q={k}",
        ][f]
        for k, f in zip(keys, fam)
    ]
    return fam, paths


class RobotsGateStage:
    """Actor-pool stage (distinct from state/politeness.RobotsGate, the
    coordinator-side cache this shares its parser with): parse each
    host's robots.txt ONCE (cached in
    actor state, exactly how a fetch pipeline caches per-host matchers)
    and evaluate every frontier URL against it. The parse cost is
    per-HOST (bounded by the host universe); the per-URL regex match is
    the string-kernel floor."""

    def __init__(self, user_agent: str = ROBOTS_UA):
        from ..functions.robots import parse_robots

        self._parse = parse_robots
        self._ua = user_agent
        self._cache: dict[int, object] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        hids = t.column("hid").to_numpy()
        paths = t.column("path").to_pylist()
        allowed = np.empty(len(hids), dtype=np.int64)
        for i, (hid, path) in enumerate(zip(hids, paths)):
            m = self._cache.get(int(hid))
            if m is None:
                m = self._parse(robots_text_for_ruleset(int(hid) % 4), self._ua)
                self._cache[int(hid)] = m
            allowed[i] = int(m.allowed(path))
        return pa.table(
            {
                "url": t.column("url"),
                "hid": t.column("hid"),
                "ruleset": t.column("ruleset"),
                "allowed": pa.array(allowed, pa.int64()),
            }
        )


def q_robots_filter(sf_dir: str):
    """Frontier robots gate end to end: derive a multi-host URL frontier
    from ``orders`` (``N_ROBOTS_HOSTS`` hosts × five path families),
    evaluate every URL through the from-scratch RFC 9309 parser
    (functions/robots.py) against each host's robots.txt, and emit
    (url, hid, ruleset, allowed). The oracle replicates the DECISION
    table of the generated policies in SQL (the multimodal_meta
    pattern: SQL checks what the Ray side parsed+evaluated end to end),
    so a parser regression in group selection, longest-match precedence,
    wildcard or anchor handling flips ``allowed`` and fails the gate.

    Scale shape: pure map_batches + an actor-pool evaluation stage with
    per-actor host→matcher caches; no exchange at all — robots policy is
    embarrassingly parallel once the per-host texts are available."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def frontier(t: pa.Table) -> pa.Table:
        keys = t.column("o_orderkey").to_numpy().astype(np.int64)
        hids = (t.column("o_custkey").to_numpy() % N_ROBOTS_HOSTS).astype(np.int64)
        _fam, paths = _frontier_paths(keys)
        urls = [f"https://host{h}.example{p}" for h, p in zip(hids, paths)]
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "hid": pa.array(hids, pa.int64()),
                "ruleset": pa.array(hids % 4, pa.int64()),
                "path": pa.array(paths, pa.string()),
            }
        )

    return orders.map_batches(frontier, batch_format="pyarrow").map_batches(
        RobotsGateStage, batch_format="pyarrow", concurrency=(1, 4)
    )


ROBOTS_FILTER_SQL = f"""
WITH f AS (
  SELECT o_orderkey AS k, o_custkey % {N_ROBOTS_HOSTS} AS hid,
         o_orderkey % {_PATH_FAMILIES} AS fam
  FROM orders),
d AS (
  SELECT k, hid, fam, hid % 4 AS rs,
         CASE fam
           WHEN 0 THEN '/public/doc' || k || '.html'
           WHEN 1 THEN '/private/doc' || k || '.html'
           WHEN 2 THEN '/files/doc' || k || '.pdf'
           WHEN 3 THEN '/tmp/cache' || k
           ELSE '/search?q=' || k END AS path
  FROM f)
SELECT 'https://host' || hid || '.example' || path AS url,
       CAST(hid AS BIGINT) AS hid,
       CAST(rs AS BIGINT) AS ruleset,
       CAST(CASE
         WHEN rs = 0 THEN 1
         WHEN rs = 1 THEN CASE WHEN fam IN (1, 3) THEN 0 ELSE 1 END
         WHEN rs = 2 THEN CASE WHEN fam = 0 THEN 1 ELSE 0 END
         ELSE CASE WHEN fam = 2 THEN 0 ELSE 1 END
       END AS BIGINT) AS allowed
FROM d
"""


# =================== sitemap discovery → frontier diff (XML source)

SITEMAP_N_HOSTS = 16
SITEMAP_URLS_PER_SHARD = 100
_SITEMAP_EPOCH = "2024-01-01"


def _sitemap_host(g: int) -> str:
    return f"site{g}.example"


def _sitemap_url(doc_id: int, g: int) -> str:
    u = f"https://{_sitemap_host(g)}/doc/{doc_id}"
    if doc_id % 5 == 0:  # query-string urls: '&' must XML-escape/round-trip
        u += "?ref=idx&v=2"
    return u


def q_sitemap_frontier(sf_dir: str):
    """Sitemap-driven discovery — the push half of a crawl frontier:
    every host publishes a ``sitemapindex`` of ``urlset`` shards
    (sitemaps.org 0.9); the crawler parses the index, fans out to the
    shards, parses each shard's (loc, lastmod) entries with the
    from-scratch XML codec (``functions/sitemap.py`` — commented-out
    entries skipped, ``&amp;`` in locs decoded), and keeps only urls
    the seen-set doesn't already hold. Emits (doc_id, host, url,
    lastmod) for every NEW url; the doc_id is parsed BACK out of the
    loc, so the oracle match proves the XML round trip end to end.

    Scale shape: hosts → shards is a tiny fan-out dataset (one row per
    urlset shard — at 100 TB that's millions of rows of metadata, not
    data); each shard is fetched+parsed independently inside
    ``map_batches`` (the file is the parallelism unit, as in WARC/CSV
    reading), and the seen filter here is a pure hash predicate
    (deterministic membership — a real run uses the sharded Bloom
    actors of ``state/seen.py``, exercised by the crawl pipelines). No
    exchange at all; discovery is embarrassingly parallel."""
    import datetime as _dt
    import re as _re

    import pyarrow.parquet as _pq

    from ..functions.dedup import md5_hash64
    from ..functions.sitemap import parse_sitemap, render_sitemap_index, render_urlset

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "host": pa.array([], pa.string()),
            "url": pa.array([], pa.string()),
            "lastmod": pa.array([], pa.string()),
        }
    )
    if n_docs == 0:
        return ray.data.from_arrow(empty)
    epoch = _dt.date.fromisoformat(_SITEMAP_EPOCH)
    G, K = SITEMAP_N_HOSTS, SITEMAP_URLS_PER_SHARD
    loc_re = _re.compile(r"^https://(site\d+\.example)/doc/(\d+)(?:\?.*)?$")

    def _host_docs(g: int) -> range:
        return range(g, n_docs, G)

    def _serve(url: str) -> str:
        """The synthetic sitemap server: index or shard by url shape."""
        m = _re.match(r"^https://site(\d+)\.example/sitemap(?:_(\d+))?\.xml$", url)
        g, shard = int(m.group(1)), m.group(2)
        ids = list(_host_docs(g))
        if shard is None:
            n_shards = max(1, -(-len(ids) // K))
            return render_sitemap_index(
                [f"https://{_sitemap_host(g)}/sitemap_{s}.xml" for s in range(n_shards)]
            )
        s = int(shard)
        return render_urlset(
            [
                (
                    _sitemap_url(i, g),
                    (epoch + _dt.timedelta(days=i % 365)).isoformat(),
                )
                for i in ids[s * K : (s + 1) * K]
            ]
        )

    def expand_index(df: pd.DataFrame) -> pd.DataFrame:
        shard_urls = []
        for g in df["g"].to_numpy():
            root, entries = parse_sitemap(_serve(f"https://site{g}.example/sitemap.xml"))
            assert root == "sitemapindex"
            shard_urls.extend(loc for loc, _mod in entries)
        return pd.DataFrame({"sitemap_url": pd.Series(shard_urls, dtype=object)})

    def parse_shards(df: pd.DataFrame) -> pd.DataFrame:
        ids, hosts, urls, mods = [], [], [], []
        for su in df["sitemap_url"]:
            root, entries = parse_sitemap(_serve(su))
            assert root == "urlset"
            for loc, mod in entries:
                m = loc_re.match(loc)
                ids.append(int(m.group(2)))
                hosts.append(m.group(1))
                urls.append(loc)
                mods.append(mod)
        out = pd.DataFrame(
            {
                "doc_id": np.array(ids, dtype=np.int64),
                "host": pd.Series(hosts, dtype=object),
                "url": pd.Series(urls, dtype=object),
                "lastmod": pd.Series(mods, dtype=object),
            }
        )
        if out.empty:
            return out
        seen = md5_hash64([f"seen:{i}" for i in out["doc_id"]]) % np.uint64(3) == 0
        return out[~seen].reset_index(drop=True)

    hosts_ds = ray.data.from_arrow(
        pa.table({"g": pa.array(range(G), pa.int64())})
    )
    return hosts_ds.map_batches(expand_index, batch_format="pandas").map_batches(
        parse_shards, batch_format="pandas"
    )


SITEMAP_FRONTIER_SQL = f"""
WITH d AS (
  SELECT doc_id, doc_id % {SITEMAP_N_HOSTS} AS g FROM documents
  WHERE CAST(concat('0x', substr(md5('seen:' || CAST(doc_id AS VARCHAR)), 1, 16))
        AS UBIGINT) % 3 <> 0)
SELECT doc_id,
       'site' || CAST(g AS VARCHAR) || '.example' AS host,
       'https://site' || CAST(g AS VARCHAR) || '.example/doc/'
         || CAST(doc_id AS VARCHAR)
         || CASE WHEN doc_id % 5 = 0 THEN '?ref=idx&v=2' ELSE '' END AS url,
       strftime(DATE '{_SITEMAP_EPOCH}' + CAST(doc_id % 365 AS INTEGER), '%Y-%m-%d')
         AS lastmod
FROM d
"""


# ================= URL canonicalization as a frontier-dedup operator

URLC_N_HOSTS = 16


def q_url_canonicalize(sf_dir: str):
    """Exercises the real RFC-3986 canonicalizer
    (``functions/canonical.canonicalize_url``) as a frontier operator:
    each doc contributes a deterministically MESSY url variant — family
    = md5 % 6: already-canonical / SHOUTED scheme+host with a default
    port / trailing fragment / swapped query order / percent-encoded
    unreserved path chars / embedded tab + surrounding whitespace — and
    the operator must collapse every family to the identical canonical
    form. Emits (doc_id, fam, url_canonical); the oracle string-builds
    the canonical DIRECTLY (it never sees the messy variant), so any
    canonicalizer regression on these classes fails the gate.

    Scale shape: pure ``map_batches`` (no exchange); per-url parsing is
    the string-kernel floor, same class as md5/html/pdf."""
    from ..functions.canonical import canonicalize_url
    from ..functions.dedup import md5_hash64

    d = _read_documents_ids(sf_dir)

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        fam = (
            md5_hash64([f"urlv:{i}" for i in ids]) % np.uint64(6)
        ).astype(np.int64)
        urls = []
        for i, f in zip(ids, fam):
            g = i % URLC_N_HOSTS
            base = f"https://site{g}.example/path/{i}?a=1&b=2"
            if f == 0:
                u = base
            elif f == 1:
                u = f"HTTPS://SITE{g}.EXAMPLE:443/path/{i}?a=1&b=2"
            elif f == 2:
                u = base + f"#frag{i}"
            elif f == 3:
                u = f"https://site{g}.example/path/{i}?b=2&a=1"
            elif f == 4:
                u = f"https://site{g}.example/pa%74h/{i}?a=1&b=2"
            else:
                u = f"  https://site{g}.example/pa\tth/{i}?a=1&b=2 "
            urls.append(u)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "fam": fam,
                "url_canonical": pd.Series(
                    [canonicalize_url(u) for u in urls], dtype=object
                ),
            }
        )

    return d.map_batches(variants, batch_format="pandas")


def _read_documents_ids(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])


URL_CANONICALIZE_SQL = f"""
SELECT doc_id,
       CAST(CAST(concat('0x', substr(md5('urlv:' || CAST(doc_id AS VARCHAR)), 1, 16))
            AS UBIGINT) % 6 AS BIGINT) AS fam,
       'https://site' || CAST(doc_id % {URLC_N_HOSTS} AS VARCHAR)
         || '.example/path/' || CAST(doc_id AS VARCHAR) || '?a=1&b=2' AS url_canonical
FROM documents
"""


# ============ conditional-revalidation planning (RFC 9111 semantics)

REVAL_ANCHOR = "2002-01-01"   # fixed 'now' past the synthetic date domain (1995-2001)
REVAL_HEADER_BYTES = 500


def q_revalidate_plan(sf_dir: str):
    """Recrawl planning under HTTP caching semantics (RFC 9111): each
    order row is a cached fetch (o_orderdate = stored-at); its cache
    metadata is md5-derived — bit 0: has an ETag, bit 1: has
    Last-Modified, bits 2..: Cache-Control max-age (0–29 days) — and
    the effective cache age is ``age_days % 60`` (synthetic aging so
    every branch of the table is populated across the date domain). Decision: within max-age → ``fresh`` (serve from cache);
    else conditional GET on the ETag, else on Last-Modified, else an
    unconditional ``refetch``. ``est_bytes`` prices the plan: 0 for
    fresh, headers-only for a 304, headers+body when changed (md5 bit
    says the revalidation comes back 200) or refetched.

    Scale shape: a pure vectorized ``map_batches`` decision table over
    pruned columns — the same shape as ``robots_filter``; planning a
    10^10-url recrawl is embarrassingly parallel."""
    from ..functions.dedup import md5_hash64

    d = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate", "o_totalprice"]
    )
    anchor = pd.Timestamp(REVAL_ANCHOR)

    def plan(df: pd.DataFrame) -> pd.DataFrame:
        keys = df["o_orderkey"].to_numpy().astype(np.int64)
        h = md5_hash64([f"hdr:{k}" for k in keys])
        has_etag = (h % np.uint64(2)).astype(bool)
        has_lastmod = ((h >> np.uint64(1)) % np.uint64(2)).astype(bool)
        max_age = ((h >> np.uint64(2)) % np.uint64(30)).astype(np.int64)
        changed = ((h >> np.uint64(7)) % np.uint64(4)) == 0
        age = (anchor - df["o_orderdate"].dt.normalize()).dt.days.to_numpy().astype(
            np.int64
        )
        cache_age = age % 60
        fresh = cache_age <= max_age
        decision = np.where(
            fresh,
            "fresh",
            np.where(
                has_etag,
                "revalidate_etag",
                np.where(has_lastmod, "revalidate_lastmod", "refetch"),
            ),
        )
        body = keys % 50_000 + REVAL_HEADER_BYTES
        est = np.where(
            fresh,
            0,
            np.where(
                has_etag | has_lastmod,
                np.where(changed, body, REVAL_HEADER_BYTES),
                body,
            ),
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "o_orderkey": keys,
                "cache_age": cache_age,
                "decision": pd.Series(decision, dtype=object),
                "est_bytes": est,
            }
        )

    return d.map_batches(plan, batch_format="pandas")


REVALIDATE_PLAN_SQL = f"""
WITH h AS (
  SELECT o_orderkey, o_orderdate,
         CAST(concat('0x', substr(md5('hdr:' || CAST(o_orderkey AS VARCHAR)), 1, 16))
              AS UBIGINT) AS hv
  FROM orders),
m AS (
  SELECT o_orderkey,
         hv % 2 = 1 AS has_etag,
         (hv >> 1) % 2 = 1 AS has_lastmod,
         CAST((hv >> 2) % 30 AS BIGINT) AS max_age,
         (hv >> 7) % 4 = 0 AS changed,
         CAST(date_diff('day', CAST(o_orderdate AS DATE), DATE '{REVAL_ANCHOR}') % 60
              AS BIGINT) AS cache_age,
         o_orderkey % 50000 + {REVAL_HEADER_BYTES} AS body
  FROM h)
SELECT o_orderkey, cache_age,
       CASE WHEN cache_age <= max_age THEN 'fresh'
            WHEN has_etag THEN 'revalidate_etag'
            WHEN has_lastmod THEN 'revalidate_lastmod'
            ELSE 'refetch' END AS decision,
       CAST(CASE WHEN cache_age <= max_age THEN 0
                 WHEN (has_etag OR has_lastmod) AND NOT changed THEN {REVAL_HEADER_BYTES}
                 ELSE body END AS BIGINT) AS est_bytes
FROM m
"""


# ============== adaptive recrawl intervals (Cho & Garcia-Molina style)

RECRAWL_VISITS = 8
RECRAWL_INIT_DAYS = 16
RECRAWL_MIN_DAYS = 1
RECRAWL_MAX_DAYS = 64


def q_recrawl_intervals(sf_dir: str):
    """Adaptive revisit scheduling — the multiplicative
    increase/decrease policy incremental crawlers run (Cho &
    Garcia-Molina 2003's uniform-vs-proportional insight, in its
    practical AIMD form): start at {RECRAWL_INIT_DAYS} days; after each
    visit, HALVE the interval if the page changed (floor
    {RECRAWL_MIN_DAYS}), DOUBLE if it didn't (cap {RECRAWL_MAX_DAYS}).
    Each doc's change history over {RECRAWL_VISITS} visits is bits
    1..{RECRAWL_VISITS} of its md5. Emits (doc_id, n_changes,
    interval_days) — the schedule a frontier prioritizer consumes.

    Scale shape: a pure vectorized ``map_batches`` fold (the visit loop
    is over a CONSTANT {RECRAWL_VISITS}, not the data — 8 numpy passes
    per batch); no exchange. The oracle unrolls the same fold as a
    chain of {RECRAWL_VISITS} CTEs."""
    from ..functions.dedup import md5_hash64

    d = _read_documents_ids(sf_dir)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        h = md5_hash64([f"chg:{i}" for i in ids])
        iv = np.full(len(ids), RECRAWL_INIT_DAYS, dtype=np.int64)
        n_changes = np.zeros(len(ids), dtype=np.int64)
        for k in range(1, RECRAWL_VISITS + 1):
            changed = ((h >> np.uint64(k)) % np.uint64(2)).astype(bool)
            n_changes += changed
            iv = np.where(
                changed,
                np.maximum(RECRAWL_MIN_DAYS, iv // 2),
                np.minimum(RECRAWL_MAX_DAYS, iv * 2),
            )
        return pd.DataFrame(
            {"doc_id": ids, "n_changes": n_changes, "interval_days": iv}
        )

    return d.map_batches(fold, batch_format="pandas")


def _recrawl_intervals_sql() -> str:
    md5u = (
        "CAST(concat('0x', substr(md5('chg:' || CAST(doc_id AS VARCHAR)), 1, 16)) "
        "AS UBIGINT)"
    )
    ctes = [f"s0 AS (SELECT doc_id, {md5u} AS hv, {RECRAWL_INIT_DAYS} AS iv FROM documents)"]
    for k in range(1, RECRAWL_VISITS + 1):
        ctes.append(
            f"s{k} AS (SELECT doc_id, hv, CASE WHEN (hv >> {k}) % 2 = 1 "
            f"THEN greatest({RECRAWL_MIN_DAYS}, iv // 2) "
            f"ELSE least({RECRAWL_MAX_DAYS}, iv * 2) END AS iv FROM s{k - 1})"
        )
    bits = " + ".join(f"(hv >> {k}) % 2" for k in range(1, RECRAWL_VISITS + 1))
    return (
        "WITH " + ",\n".join(ctes) + f"""
SELECT doc_id,
       CAST({bits} AS BIGINT) AS n_changes,
       CAST(iv AS BIGINT) AS interval_days
FROM s{RECRAWL_VISITS}
"""
    )


# ==================== registrable-domain extraction (PSL algorithm)
#
# Per-host crawl aggregation must group by the REGISTRABLE domain
# (publicsuffix.org semantics): "a.shop.co.uk" and "b.shop.co.uk" are
# one site, "shop.co.uk" and "shop2.co.uk" are not. Hosts are derived
# deterministically from c_custkey across eight structurally distinct
# suffix families (plain TLD, multi-label, wildcard, wildcard
# exception, implicit-default, with/without extra subdomain labels);
# the Ray side runs the real longest-match PSL algorithm
# (functions/psl.py), the oracle is the per-family decision table —
# the robots_filter / revalidate_plan pattern.

PSL_HOST_VARIANTS = [
    "com", "co.uk", "ck", "www.ck", "example.ck", "foo.bar", "com.au", "io",
]


def _psl_host(k: int) -> str:
    return (
        ("deep." if k % 3 == 0 else "")
        + f"shop{k % 100}."
        + PSL_HOST_VARIANTS[k % 8]
    )


def q_registrable_domain(sf_dir: str):
    """(c_custkey, host, public_suffix, registrable): registrable ''
    when the host IS a public suffix (wildcard family, bare labels).
    Pure map_batches; the PSL object is a module-bounded constant."""
    from ..functions.psl import PublicSuffixList

    psl = PublicSuffixList()
    c = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["c_custkey"].to_numpy().astype(np.int64)
        hosts = [_psl_host(int(k)) for k in ks]
        return pd.DataFrame(
            {
                "c_custkey": ks,
                "host": hosts,
                "public_suffix": [psl.public_suffix(h) for h in hosts],
                "registrable": [psl.registrable_domain(h) or "" for h in hosts],
            }
        )

    return c.map_batches(extract, batch_format="pandas")


REGISTRABLE_DOMAIN_SQL = """
WITH h AS (
  SELECT c_custkey,
         CASE WHEN c_custkey % 3 = 0 THEN 'deep.' ELSE '' END
           || 'shop' || CAST(c_custkey % 100 AS VARCHAR) || '.'
           || CASE c_custkey % 8
                WHEN 0 THEN 'com' WHEN 1 THEN 'co.uk' WHEN 2 THEN 'ck'
                WHEN 3 THEN 'www.ck' WHEN 4 THEN 'example.ck'
                WHEN 5 THEN 'foo.bar' WHEN 6 THEN 'com.au'
                ELSE 'io' END AS host,
         'shop' || CAST(c_custkey % 100 AS VARCHAR) AS shop,
         c_custkey % 8 AS v,
         c_custkey % 3 = 0 AS deep
  FROM customer)
SELECT c_custkey, host,
  CASE v WHEN 0 THEN 'com' WHEN 1 THEN 'co.uk' WHEN 2 THEN shop || '.ck'
         WHEN 3 THEN 'ck' WHEN 4 THEN 'example.ck' WHEN 5 THEN 'bar'
         WHEN 6 THEN 'com.au' ELSE 'io' END AS public_suffix,
  CASE v WHEN 0 THEN shop || '.com' WHEN 1 THEN shop || '.co.uk'
         WHEN 2 THEN CASE WHEN deep THEN 'deep.' || shop || '.ck' ELSE '' END
         WHEN 3 THEN 'www.ck'
         WHEN 4 THEN shop || '.example.ck'
         WHEN 5 THEN 'foo.bar' WHEN 6 THEN shop || '.com.au'
         ELSE shop || '.io' END AS registrable
FROM h
"""


# ============== crawl-budget water-filling (politeness-fair quotas)
#
# Allocate a global crawl budget B across hosts the politeness-fair
# way: every host gets up to the common water level T (the largest
# integer with Σ min(n_h, T) <= B), and the leftover R = B − Σ min(n_h,
# T) single slots go to the first R hosts above the level in a
# deterministic md5 order. Exactly Σ quota = B whenever B <= Σ n_h.

WF_BUDGET_DEN = 3  # B = total urls // 3
WF_SEED = "wf|"
_WF_BUCKETS = 256


def q_crawl_budget_waterfill(sf_dir: str):
    """(host, n_urls, quota) over per-customer order counts as the
    host→url histogram.

    Scale shape: one coarse exchange builds exact per-host counts
    (hosts are data-scaled); the water level is solved on a BOUNDED
    count-of-counts histogram (the value domain of per-host counts,
    not the host count, reaches the driver); the R bonus slots use the
    epoch_shuffle rank machinery (fixed 256-int offset reduce) over
    only the above-level hosts. No host set ever materializes on the
    driver."""
    from ray.data.aggregate import Sum as _Sum

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def partial_counts(t: pa.Table) -> pa.Table:
        import pandas as _pd

        vc = _pd.Series(t.column("o_custkey").to_numpy()).value_counts()
        return pa.table(
            {
                "host": pa.array(vc.index.to_numpy().astype(np.int64)),
                "n_part": pa.array(vc.to_numpy().astype(np.int64)),
            }
        )

    def sum_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("host", as_index=False)["n_part"].sum()
        out = out.rename(columns={"n_part": "n"})
        keys = [
            hashlib.md5(f"{WF_SEED}{int(h)}".encode("utf-8")).hexdigest()
            for h in out["host"]
        ]
        out["key"] = keys
        out["bucket"] = pd.Series([int(k[:2], 16) for k in keys], dtype=np.int64)
        return out.astype({"host": np.int64, "n": np.int64})

    from .grouping import with_coarse_group as _wg

    counts = (
        _wg(orders.map_batches(partial_counts, batch_format="pyarrow"), "host")
        .groupby("_g")
        .map_groups(lambda g: sum_counts(g.drop(columns=["_g"])), batch_format="pandas")
        .materialize()  # narrow (host, n, key, bucket) projection, reused 3×
    )

    def hist_part(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["n"].value_counts()
        return pd.DataFrame(
            {
                "val": vc.index.to_numpy().astype(np.int64),
                "cnt": vc.to_numpy().astype(np.int64),
            }
        )

    hist = (
        counts.map_batches(hist_part, batch_format="pandas")
        .groupby("val")
        .aggregate(_Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )  # bounded by the value DOMAIN of per-host counts
    empty = pa.table(
        {
            "host": pa.array([], pa.int64()),
            "n_urls": pa.array([], pa.int64()),
            "quota": pa.array([], pa.int64()),
        }
    )
    if hist.empty:
        return ray.data.from_arrow(empty)

    vals = hist["val"].to_numpy().astype(np.int64)
    cnts = hist["cnt"].to_numpy().astype(np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    k = int(cnts.sum())
    total = int((vals * cnts).sum())
    budget = total // WF_BUDGET_DEN
    below_sum = np.concatenate([[0], np.cumsum(vals * cnts)[:-1]])
    below_cnt = np.concatenate([[0], np.cumsum(cnts)[:-1]])
    at_or_above = k - below_cnt
    feasible = below_sum <= budget
    t_here = np.minimum(vals, (budget - below_sum) // np.maximum(at_or_above, 1))
    level = int(t_here[feasible].max())
    s_level = int(np.minimum(vals, level).astype(np.int64) @ cnts)
    r_bonus = budget - s_level

    # rank the above-level hosts (bonus eligibility) — terasort prefix
    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        above = df[df["n"] > level]
        return pd.DataFrame(
            {
                "bucket": pd.Series(range(_WF_BUCKETS), dtype=np.int64),
                "n": pd.Series(
                    np.bincount(above["bucket"], minlength=_WF_BUCKETS),
                    dtype=np.int64,
                ),
            }
        )

    bc = (
        counts.map_batches(bucket_counts, batch_format="pandas")
        .groupby("bucket")
        .aggregate(_Sum("n", alias_name="n"))
        .to_pandas()
    )
    full = np.zeros(_WF_BUCKETS, dtype=np.int64)
    if not bc.empty:
        full[bc["bucket"].to_numpy()] = bc["n"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])

    def quotas(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "host"], kind="mergesort")
        n = g["n"].to_numpy()
        above = n > level
        rank = np.full(len(g), np.iinfo(np.int64).max, dtype=np.int64)
        rank[above] = offsets[int(g["bucket"].iloc[0])] + np.arange(
            int(above.sum()), dtype=np.int64
        )
        quota = np.minimum(n, level) + (rank < r_bonus)
        return pd.DataFrame(
            {
                "host": g["host"].to_numpy().astype(np.int64),
                "n_urls": n.astype(np.int64),
                "quota": quota.astype(np.int64),
            }
        )

    return counts.groupby("bucket").map_groups(quotas, batch_format="pandas")


CRAWL_BUDGET_WATERFILL_SQL = f"""
WITH c AS (SELECT o_custkey AS host, CAST(count(*) AS BIGINT) AS n
           FROM orders GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS total,
               CAST(SUM(n) // {WF_BUDGET_DEN} AS BIGINT) AS b,
               CAST(COUNT(*) AS BIGINT) AS k FROM c),
v AS (SELECT n AS val, CAST(count(*) AS BIGINT) AS cnt FROM c GROUP BY 1),
cum AS (
  SELECT val,
         COALESCE(SUM(val*cnt) OVER (ORDER BY val
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS below_sum,
         COALESCE(SUM(cnt) OVER (ORDER BY val
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS below_cnt
  FROM v),
cand AS (
  SELECT LEAST(cum.val, (tot.b - cum.below_sum) // (tot.k - cum.below_cnt))
           AS t_here
  FROM cum, tot WHERE cum.below_sum <= tot.b),
params AS (
  SELECT (SELECT MAX(t_here) FROM cand) AS T,
         tot.b - (SELECT COALESCE(SUM(LEAST(n, (SELECT MAX(t_here) FROM cand))), 0)
                  FROM c) AS R
  FROM tot),
ranked AS (
  SELECT c.host,
         ROW_NUMBER() OVER (ORDER BY md5('{WF_SEED}' || CAST(c.host AS VARCHAR)),
                            c.host) AS rk
  FROM c, params WHERE c.n > params.T)
SELECT c.host, c.n AS n_urls,
       CAST(LEAST(c.n, p.T) +
            CASE WHEN r.rk IS NOT NULL AND r.rk <= p.R THEN 1 ELSE 0 END
         AS BIGINT) AS quota
FROM c CROSS JOIN params p LEFT JOIN ranked r ON r.host = c.host
"""


FRONTIER_SQL_QUERIES: dict[str, tuple] = {
    "crawl_budget_waterfill": (q_crawl_budget_waterfill, CRAWL_BUDGET_WATERFILL_SQL, "backlog"),
    "registrable_domain": (q_registrable_domain, REGISTRABLE_DOMAIN_SQL, "backlog"),
    "robots_filter": (q_robots_filter, ROBOTS_FILTER_SQL, "backlog"),
    "sitemap_frontier": (q_sitemap_frontier, SITEMAP_FRONTIER_SQL, "backlog"),
    "url_canonicalize": (q_url_canonicalize, URL_CANONICALIZE_SQL, "backlog"),
    "revalidate_plan": (q_revalidate_plan, REVALIDATE_PLAN_SQL, "backlog"),
    "recrawl_intervals": (q_recrawl_intervals, _recrawl_intervals_sql(), "backlog"),
}
