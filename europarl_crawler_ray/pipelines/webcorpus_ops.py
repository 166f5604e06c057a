"""Web-corpus operators (round-3 batch 6): parallel-corpus (bitext)
alignment and SURT locality keys.

The reference repo's whole purpose is harvesting EuroParl — the classic
parallel-corpus source — so ``bitext_align`` implements the alignment
shape its downstream consumers run (per-session language pivoting with
a Gale-Church-style length-ratio filter; cf. reference test fixtures
exercising per-language day/session documents). ``surt_keys`` is the
Common-Crawl/CDX Sorted-URL-Reordering-Transform: the canonical range-
partitioning key that co-locates a domain's pages in one shard.

Both SQL-oracled; scale idioms per pipelines/grouping.py.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .._util import read_table as _read
from .grouping import with_coarse_group as _with_coarse_group
from .ml_queries import _md5u  # the shared md5-uint64 SQL hash family


# ========================================================== SURT keys
#
# Sorted URL Reordering Transform (the CDX / Common-Crawl index key):
# scheme dropped, host labels reversed and comma-joined, query params
# sorted — so one domain's pages are CONTIGUOUS under a global sort.
# The Ray side PARSES arbitrary urls (the oracle constructs expected
# keys from the generation rule, so any parser slip breaks the gate).

_SURT_SUBS = ["www", "en", "m", ""]
_SURT_TLDS = ["com", "org", "co.uk"]
N_SURT_SHARDS = 16


def _surt_url(doc_id: int) -> str:
    sub = _SURT_SUBS[doc_id % 4]
    host = (sub + "." if sub else "") + f"site{doc_id % 97}." + _SURT_TLDS[doc_id % 3]
    q = f"?b=2&a={doc_id % 5}" if doc_id % 2 == 0 else ""
    return f"https://{host}/p/{doc_id}{q}"


def surt_key(url: str) -> str:
    """SURT of ``url``: ``tld,dom,sub)/path?a=1&b=2`` (query sorted)."""
    rest = url.split("://", 1)[1]
    if "?" in rest:
        rest, query = rest.split("?", 1)
        query = "&".join(sorted(query.split("&")))
    else:
        query = ""
    host, _, path = rest.partition("/")
    rev = ",".join(reversed(host.lower().split(".")))
    return rev + ")/" + path + ("?" + query if query else "")


def q_surt_keys(sf_dir: str):
    """(doc_id, url, surt, shard): SURT key per url plus the locality
    shard — md5 of the reversed-host 2-label prefix % 16, so every page
    of a registrable domain lands in ONE shard (the partitioning a CDX
    writer sorts within; for multi-label suffixes like co.uk the PSL
    operator q_registrable_domain is the production prefix picker).

    Scale shape: a pure per-batch map — no exchange; the global sort by
    surt that a CDX writer runs afterwards is the epoch_shuffle terasort
    shape already demonstrated."""
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def make(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        urls = [_surt_url(int(i)) for i in ids]
        surts = [surt_key(u) for u in urls]
        prefix2 = [",".join(s.split(")", 1)[0].split(",")[:2]) for s in surts]
        shard = np.array(
            [
                int(hashlib.md5(p.encode("utf-8")).hexdigest()[:16], 16)
                % N_SURT_SHARDS
                for p in prefix2
            ],
            dtype=np.int64,
        )
        return pd.DataFrame(
            {"doc_id": ids, "url": urls, "surt": surts, "shard": shard}
        )

    return d.map_batches(make, batch_format="pandas")


SURT_KEYS_SQL = f"""
WITH parts AS (
  SELECT doc_id,
    CASE doc_id % 4 WHEN 0 THEN 'www' WHEN 1 THEN 'en' WHEN 2 THEN 'm' ELSE '' END AS sub,
    'site' || CAST(doc_id % 97 AS VARCHAR) AS dom,
    CASE doc_id % 3 WHEN 0 THEN 'com' WHEN 1 THEN 'org' ELSE 'co.uk' END AS tld,
    CASE doc_id % 3 WHEN 0 THEN 'com' WHEN 1 THEN 'org' ELSE 'uk,co' END AS tldrev,
    '/p/' || CAST(doc_id AS VARCHAR) AS path,
    CASE WHEN doc_id % 2 = 0
         THEN 'a=' || CAST(doc_id % 5 AS VARCHAR) || '&b=2' ELSE '' END AS qsorted,
    CASE WHEN doc_id % 2 = 0
         THEN '?b=2&a=' || CAST(doc_id % 5 AS VARCHAR) ELSE '' END AS qraw
  FROM documents
), built AS (
  SELECT doc_id,
    'https://' || CASE WHEN sub = '' THEN '' ELSE sub || '.' END
      || dom || '.' || tld || path || qraw AS url,
    tldrev || ',' || dom || CASE WHEN sub = '' THEN '' ELSE ',' || sub END
      || ')' || path
      || CASE WHEN qsorted = '' THEN '' ELSE '?' || qsorted END AS surt,
    CASE doc_id % 3 WHEN 2 THEN 'uk,co' ELSE tldrev || ',' || dom END AS prefix2
  FROM parts
)
SELECT doc_id, url, surt,
       CAST({_md5u('prefix2')} % {N_SURT_SHARDS} AS BIGINT) AS shard
FROM built
"""


# ====================================================== table extraction
#
# Structured-data harvesting from rendered HTML tables (the WebTables /
# WDC-corpus shape): each page renders one <table> with a header row,
# charref-encoded cell text, and script/comment decoys containing fake
# <td> markup; functions/extract.TableExtractor parses the cells back
# out. The oracle constructs the expected cells from the generation
# rule, so any parser slip (decoy leak, charref miss, index drift)
# breaks the gate.


def _table_html(doc_id: int) -> str:
    n_rows = 2 + doc_id % 4  # header row + 1..4 body rows
    n_cols = 2 + doc_id % 3
    parts = [
        "<html><body>\n<!-- <tr><td>comment decoy</td></tr> -->\n<table>\n  <tr>"
    ]
    # header: h{c} with the digit written as a charref (&#48; == '0')
    parts += [f"<th>h&#{48 + c};</th>" for c in range(n_cols)]
    parts.append("</tr>\n")
    for r in range(1, n_rows):
        parts.append("  <tr>")
        # body: v{doc}_{r}_{c} with '_' written as &#95;
        parts += [f"<td>v{doc_id}&#95;{r}_{c}</td>" for c in range(n_cols)]
        parts.append("</tr>\n")
    parts.append(
        '</table>\n<script>var x = "<td>script decoy</td>";</script>\n</body></html>'
    )
    return "".join(parts)


def q_table_extract(sf_dir: str):
    """(doc_id, row_idx, col_idx, cell, is_header): long-format cell
    table from every page's rendered <table>.

    Scale shape: a pure per-batch map (render -> parse -> fan out) — no
    exchange; output rows ~10x input rows, which the streaming executor
    absorbs block-by-block (no driver materialization)."""
    from ..functions.extract import extract_table_cells

    d = _read(sf_dir, "documents", columns=["doc_id"])

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        ids, rs, cs, cells, hdrs = [], [], [], [], []
        for i in df["doc_id"].to_numpy(np.int64):
            for r, c, text, is_h in extract_table_cells(_table_html(int(i))):
                ids.append(i)
                rs.append(r)
                cs.append(c)
                cells.append(text)
                hdrs.append(1 if is_h else 0)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype=np.int64),
                "row_idx": pd.Series(rs, dtype=np.int64),
                "col_idx": pd.Series(cs, dtype=np.int64),
                "cell": pd.Series(cells, dtype=object),
                "is_header": pd.Series(hdrs, dtype=np.int64),
            }
        )

    return d.map_batches(extract, batch_format="pandas")


TABLE_EXTRACT_SQL = """
SELECT doc_id, r AS row_idx, c AS col_idx,
  CASE WHEN r = 0 THEN 'h' || CAST(c AS VARCHAR)
       ELSE 'v' || CAST(doc_id AS VARCHAR) || '_' || CAST(r AS VARCHAR)
                || '_' || CAST(c AS VARCHAR) END AS cell,
  CASE WHEN r = 0 THEN CAST(1 AS BIGINT) ELSE CAST(0 AS BIGINT) END AS is_header
FROM documents,
     unnest(range(2 + doc_id % 4)) t(r),
     unnest(range(2 + doc_id % 3)) u(c)
"""


# ==================================================== charset detection
#
# The web serves bytes, not text: a crawler's normalize stage must sniff
# the encoding (BOM, then UTF-8 validation, then a legacy fallback) and
# decode to one canonical UTF-8 text column. The corpus stores each
# page's bytes in one of three encodings; the detector must name the
# charset AND round-trip the text md5-exactly.


def encode_page(text: str, enc_class: int) -> bytes:
    if enc_class == 0:
        return b"\xff\xfe" + text.encode("utf-16-le")
    if enc_class == 1:
        return b"\xef\xbb\xbf" + text.encode("utf-8")
    return text.encode("utf-8")


def detect_decode(raw: bytes) -> tuple[str, str]:
    """(charset, text): BOM sniff -> UTF-8 validation -> latin-1
    fallback (the WHATWG encoding-sniff order, legacy tail simplified;
    the fallback never mis-fires on the corpus rule but is pinned by
    unit tests). Inherent ambiguity (as in every BOM sniffer): a plain
    UTF-8 text whose first character IS U+FEFF is byte-identical to a
    BOM'd file and reads back without it."""
    if raw[:2] == b"\xff\xfe":
        return "utf-16-le", raw[2:].decode("utf-16-le")
    if raw[:3] == b"\xef\xbb\xbf":
        return "utf-8-sig", raw[3:].decode("utf-8")
    try:
        return "utf-8", raw.decode("utf-8")
    except UnicodeDecodeError:
        return "latin-1", raw.decode("latin-1")


def q_charset_normalize(sf_dir: str):
    """(doc_id, charset, n_bytes, text_md5): detected charset, raw byte
    length, and md5 of the decoded text — a wrong detection or a lossy
    decode changes text_md5.

    Scale shape: two chained per-batch maps (encode = the storage side,
    sniff+decode = the operator) — no exchange, binary column never
    leaves the task."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        raw = [
            encode_page(t, int(i) % 3) for i, t in zip(ids, df["text"].tolist())
        ]
        return pd.DataFrame({"doc_id": ids, "raw": pd.Series(raw, dtype=object)})

    def sniff(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        out_cs, out_nb, out_md5 = [], [], []
        for raw in df["raw"].tolist():
            raw = bytes(raw)
            cs, text = detect_decode(raw)
            out_cs.append(cs)
            out_nb.append(len(raw))
            out_md5.append(hashlib.md5(text.encode("utf-8")).hexdigest())
        return pd.DataFrame(
            {
                "doc_id": ids,
                "charset": pd.Series(out_cs, dtype=object),
                "n_bytes": pd.Series(out_nb, dtype=np.int64),
                "text_md5": pd.Series(out_md5, dtype=object),
            }
        )

    return d.map_batches(encode, batch_format="pandas").map_batches(
        sniff, batch_format="pandas"
    )


CHARSET_NORMALIZE_SQL = """
SELECT doc_id,
  CASE doc_id % 3 WHEN 0 THEN 'utf-16-le' WHEN 1 THEN 'utf-8-sig'
       ELSE 'utf-8' END AS charset,
  CAST(CASE doc_id % 3 WHEN 0 THEN 2 + 2 * strlen(text)
       WHEN 1 THEN 3 + strlen(text) ELSE strlen(text) END AS BIGINT) AS n_bytes,
  md5(text) AS text_md5
FROM documents
"""


# ======================================================== MIME sniffing
#
# WHATWG-style content-type sniffing over raw payload bytes: exact magic
# numbers for binary formats, leading-whitespace-skipped case-insensitive
# tag match for HTML, and a binary-byte scan deciding text/plain vs
# octet-stream. The corpus plants one payload family per doc_id % 6.

_MIME_MAGICS: list[tuple[bytes, str]] = [
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"%PDF-", "application/pdf"),
    (b"\x1f\x8b", "application/gzip"),
    (b"BM", "image/bmp"),
]
_BINARY_BYTES = frozenset(range(0x00, 0x09)) | {0x0B} | frozenset(range(0x0E, 0x1B)) | {
    0x1C,
    0x1D,
    0x1E,
    0x1F,
}


def sniff_mime(raw: bytes) -> str:
    """WHATWG mime-sniff (trimmed): magic table, then whitespace-skipped
    HTML tag match, then the binary-data-byte rule."""
    for magic, mime in _MIME_MAGICS:
        if raw[: len(magic)] == magic:
            return mime
    stripped = raw.lstrip(b"\t\n\x0c\r ")
    up = stripped[:15].upper()
    if up.startswith(b"<!DOCTYPE HTML") or up.startswith(b"<HTML"):
        return "text/html"
    if any(b in _BINARY_BYTES for b in raw[:512]):
        return "application/octet-stream"
    return "text/plain"


def _mime_payload(doc_id: int, text: str) -> bytes:
    filler = hashlib.md5(f"mime|{doc_id}".encode("utf-8")).digest()
    fam = doc_id % 6
    if fam == 0:
        return b"\x89PNG\r\n\x1a\n" + filler
    if fam == 1:
        return b"BM" + filler
    if fam == 2:
        return b"\x1f\x8b\x08" + filler
    if fam == 3:
        return b"%PDF-1.5\n" + filler
    if fam == 4:
        return b"\n\t  <!doctype html><html><body>x</body></html>"
    return text.encode("utf-8")


def q_mime_sniff(sf_dir: str):
    """(doc_id, mime): sniffed content type of each page's payload.

    Scale shape: pure per-batch map, binary payloads built and consumed
    inside the task (the fetch-side dispatch gate that routes a payload
    to the right extract stage)."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def sniff(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        mimes = [
            sniff_mime(_mime_payload(int(i), t))
            for i, t in zip(ids, df["text"].tolist())
        ]
        return pd.DataFrame(
            {"doc_id": ids, "mime": pd.Series(mimes, dtype=object)}
        )

    return d.map_batches(sniff, batch_format="pandas")


MIME_SNIFF_SQL = """
SELECT doc_id,
  CASE doc_id % 6
    WHEN 0 THEN 'image/png' WHEN 1 THEN 'image/bmp'
    WHEN 2 THEN 'application/gzip' WHEN 3 THEN 'application/pdf'
    WHEN 4 THEN 'text/html' ELSE 'text/plain' END AS mime
FROM documents
"""


# ===================================================== crawl-trap filter
#
# The frontier's trap heuristics: kill URLs with runaway path depth,
# self-repeating segments (symlink/faceted-nav loops), stacked calendar
# dates (infinite archive pages), and volatile session-id params. One
# verdict per URL with rule precedence depth > loop > calendar >
# session; the corpus plants one family per doc_id % 5 and the oracle is
# the decision table (the Ray side PARSES the url).

TRAP_MAX_DEPTH = 8


def classify_trap(url: str) -> str:
    rest = url.split("://", 1)[1]
    # split the query off FIRST: a no-path url ('h.com?sid=...') must not
    # lose its query to the path partition (review finding)
    rest, _, query = rest.partition("?")
    path = rest.partition("/")[2]
    segs = [s for s in path.split("/") if s]
    if len(segs) > TRAP_MAX_DEPTH:
        return "depth"
    run, prev = 1, None
    for s in segs:
        run = run + 1 if s == prev else 1
        prev = s
        if run >= 3:
            return "loop"
    triples = 0
    for a, b, c in zip(segs, segs[1:], segs[2:]):
        if (
            len(a) == 4
            and a.isdigit()
            and 1900 <= int(a) <= 2099
            and len(b) == 2
            and b.isdigit()
            and 1 <= int(b) <= 12
            and len(c) == 2
            and c.isdigit()
            and 1 <= int(c) <= 31
        ):
            triples += 1
    if triples >= 2:
        return "calendar"
    for kv in query.split("&") if query else []:
        v = kv.partition("=")[2]
        if len(v) == 32 and all(ch in "0123456789abcdef" for ch in v):
            return "session"
    return "ok"


def _trap_url(doc_id: int) -> str:
    host = f"https://site{doc_id % 7}.com"
    fam = doc_id % 5
    if fam == 0:
        # content-hash path segment (CDN style): a 32-hex token in the
        # PATH, so path_templates' {H} collapse is oracle-exercised
        # (ADVICE r3: the only hex token used to live in the ?sid= query,
        # which is stripped before the hex rule runs)
        hx = hashlib.md5(f"hex|{doc_id}".encode("utf-8")).hexdigest()
        return f"{host}/a/{hx}/c{doc_id}"
    if fam == 1:
        return host + "".join(f"/s{doc_id}x{k}" for k in range(12))
    if fam == 2:
        return f"{host}/cat/x/x/x/page{doc_id}"
    if fam == 3:
        return f"{host}/2024/01/05/2024/01/06/post{doc_id}"
    sid = hashlib.md5(f"sid|{doc_id}".encode("utf-8")).hexdigest()
    return f"{host}/page{doc_id}?sid={sid}"


def q_crawl_trap_filter(sf_dir: str):
    """(doc_id, url, verdict): trap classification per frontier URL.

    Scale shape: pure per-batch map, sits in the frontier expand stage
    before the seen-set exchange — every URL killed here never costs a
    shuffle slot downstream."""
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        urls = [_trap_url(int(i)) for i in ids]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "url": pd.Series(urls, dtype=object),
                "verdict": pd.Series(
                    [classify_trap(u) for u in urls], dtype=object
                ),
            }
        )

    return d.map_batches(classify, batch_format="pandas")


def _crawl_trap_sql() -> str:
    segs = " || ".join(
        f"'/s' || CAST(doc_id AS VARCHAR) || 'x{k}'" for k in range(12)
    )
    return f"""
SELECT doc_id,
  'https://site' || CAST(doc_id % 7 AS VARCHAR) || '.com' ||
  CASE doc_id % 5
    WHEN 0 THEN '/a/' || md5('hex|' || CAST(doc_id AS VARCHAR))
                || '/c' || CAST(doc_id AS VARCHAR)
    WHEN 1 THEN {segs}
    WHEN 2 THEN '/cat/x/x/x/page' || CAST(doc_id AS VARCHAR)
    WHEN 3 THEN '/2024/01/05/2024/01/06/post' || CAST(doc_id AS VARCHAR)
    ELSE '/page' || CAST(doc_id AS VARCHAR) || '?sid='
         || md5('sid|' || CAST(doc_id AS VARCHAR))
  END AS url,
  CASE doc_id % 5
    WHEN 0 THEN 'ok' WHEN 1 THEN 'depth' WHEN 2 THEN 'loop'
    WHEN 3 THEN 'calendar' ELSE 'session' END AS verdict
FROM documents
"""


# ================================================ consistent-hash ring
#
# The placement function a 256-node seen-set / cache tier uses: N nodes
# x V virtual nodes hash onto a ring; a key is owned by the successor
# vnode (first ring hash >= key hash, wrapping to the minimum). Adding
# or removing one node relocates only ~1/N of the keys — the property
# that makes frontier-shard rebalancing cheap mid-crawl.

CH_NODES = 8
CH_VNODES = 16


def _ring_points(n_nodes: int = CH_NODES) -> tuple[np.ndarray, np.ndarray]:
    """(sorted ring hashes, owning node per point)."""
    hs, owners = [], []
    for n in range(n_nodes):
        for v in range(CH_VNODES):
            hs.append(
                int(hashlib.md5(f"ring|{n}|{v}".encode("utf-8")).hexdigest()[:16], 16)
            )
            owners.append(n)
    order = np.argsort(np.array(hs, dtype=np.uint64), kind="stable")
    return (
        np.array(hs, dtype=np.uint64)[order],
        np.array(owners, dtype=np.int64)[order],
    )


def _ring_key_hashes(ids: np.ndarray) -> np.ndarray:
    return np.array(
        [
            int(hashlib.md5(f"key|{int(i)}".encode("utf-8")).hexdigest()[:16], 16)
            for i in ids
        ],
        dtype=np.uint64,
    )


def _place_on_ring(ring: tuple[np.ndarray, np.ndarray], kh: np.ndarray) -> np.ndarray:
    """Successor-vnode placement (first ring hash >= key, wrap to the
    minimum) — the ONE placement function shared by assign and rebalance
    so the two operators stay provably consistent (review finding)."""
    ring_h, ring_n = ring
    idx = np.searchsorted(ring_h, kh, side="left")
    idx[idx == len(ring_h)] = 0
    return ring_n[idx]


def q_consistent_hash_assign(sf_dir: str):
    """(doc_id, node): successor-vnode ring placement of every doc key.

    Scale shape: the ring (N*V rows, bounded) is built on the driver and
    broadcast ONCE via ray.put; each batch places its keys with one
    np.searchsorted — placement is a pure map, no exchange, which is
    exactly why consistent hashing is the router shape: any task can
    place any key with 128 longs of state."""
    ring_ref = ray.put(_ring_points())
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        node = _place_on_ring(ray.get(ring_ref), _ring_key_hashes(ids))
        return pd.DataFrame({"doc_id": ids, "node": node})

    return d.map_batches(assign, batch_format="pandas")


CONSISTENT_HASH_SQL = f"""
WITH ring AS (
  SELECT n, {_md5u("'ring|' || CAST(n AS VARCHAR) || '|' || CAST(v AS VARCHAR)")} AS h
  FROM range({CH_NODES}) t(n), range({CH_VNODES}) u(v)
), keys AS (
  SELECT doc_id, {_md5u("'key|' || CAST(doc_id AS VARCHAR)")} AS kh FROM documents
)
SELECT k.doc_id AS doc_id,
  CAST(COALESCE(
    (SELECT arg_min(r.n, r.h) FROM ring r WHERE r.h >= k.kh),
    (SELECT arg_min(r.n, r.h) FROM ring r)) AS BIGINT) AS node
FROM keys k
"""


# ============================================= distribution resampling
#
# Deterministic importance resampling to a target language mix (the
# CCNet/DoReMi data-mixing shape): per-language keep probability
# p_l = min(1, target_share_l * N / n_l), realized as an EXACT integer
# threshold on a per-doc md5 key — floor(p_l * 2^64) computed in
# arbitrary-precision integers on both sides, so the kept set is
# bit-reproducible (no float probability ever exists).

RESAMPLE_TARGET_BP = {"en": 3000, "de": 2000, "es": 2000, "fr": 2000, "zh": 1000}
_2_64 = 1 << 64


def q_distribution_resample(sf_dir: str):
    """(doc_id, lang, kept): kept=1 iff md5('rs|doc_id') falls under the
    language's exact integer threshold; languages above their target are
    downsampled toward it, languages at/below keep everything.

    Scale shape: a bounded lang-count groupby (|langs| rows) feeds the
    driver the thresholds, which broadcast via ray.put; the keep pass is
    a pure vectorized uint64 compare per batch. Two passes over a narrow
    projection, zero data-scaled driver state."""
    d = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    counts = {
        r["lang"]: r["count()"]
        for r in d.groupby("lang").count().take_all()
    }
    total = sum(counts.values())
    thresholds = {}
    for lang, n_l in counts.items():
        bp = RESAMPLE_TARGET_BP.get(lang, 0)
        thresholds[lang] = min(_2_64, (bp * total * _2_64) // (10000 * n_l))
    thr_ref = ray.put(thresholds)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        thr = ray.get(thr_ref)
        ids = df["doc_id"].to_numpy(np.int64)
        kh = np.array(
            [
                int(hashlib.md5(f"rs|{int(i)}".encode("utf-8")).hexdigest()[:16], 16)
                for i in ids
            ],
            dtype=np.uint64,
        )
        kept = np.zeros(len(ids), dtype=np.int64)
        for lang, t in thr.items():
            m = (df["lang"] == lang).to_numpy()
            if t >= _2_64:
                kept[m] = 1
            else:
                kept[m] = (kh[m] < np.uint64(t)).astype(np.int64)
        return pd.DataFrame(
            {"doc_id": ids, "lang": df["lang"].to_numpy(), "kept": kept}
        )

    return d.map_batches(keep, batch_format="pandas")


def _distribution_resample_sql() -> str:
    bp_case = " ".join(
        f"WHEN '{lang}' THEN {bp}" for lang, bp in RESAMPLE_TARGET_BP.items()
    )
    return f"""
WITH c AS (
  SELECT doc_id, lang,
         COUNT(*) OVER (PARTITION BY lang) AS n_l,
         COUNT(*) OVER () AS total,
         CASE lang {bp_case} ELSE 0 END AS bp
  FROM documents
)
SELECT doc_id, lang,
  CAST(CASE WHEN {_md5u("'rs|' || CAST(doc_id AS VARCHAR)")} <
       LEAST(CAST({_2_64} AS HUGEINT),
             (CAST(bp AS HUGEINT) * total * CAST({_2_64} AS HUGEINT))
               // (10000 * n_l))
       THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM c
"""


# ====================================================== politeness audit
#
# The compliance check a crawl operator runs after the fact: per host
# (user_id standing in as the host key of the events stream), the PEAK
# number of requests inside any sliding 10-minute window — the number a
# rate-limit SLA is written against. Inclusive window [t-10min, t] with
# equal-timestamp peers counted, matching SQL RANGE framing exactly.

AUDIT_WINDOW_US = 10 * 60 * 1_000_000


def q_politeness_audit(sf_dir: str):
    """(user_id, n_events, peak_10m): max events in any trailing
    10-minute window per user.

    Scale shape: ONE coarse exchange on user_id; inside each task the
    window counts for ALL of a user's events come from two vectorized
    np.searchsorted passes over the sorted timestamps (no per-event
    rescan, no RANGE self-join)."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts"])
    kd = _with_coarse_group(ev, "user_id")

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        out_u, out_n, out_p = [], [], []
        for uid, rows in g.groupby("user_id"):
            ts = np.sort(rows["ts"].astype("int64").to_numpy())
            hi = np.searchsorted(ts, ts, side="right")
            lo = np.searchsorted(ts, ts - AUDIT_WINDOW_US, side="left")
            out_u.append(uid)
            out_n.append(len(ts))
            out_p.append(int((hi - lo).max()) if len(ts) else 0)
        return pd.DataFrame(
            {
                "user_id": pd.Series(out_u, dtype=np.int64),
                "n_events": pd.Series(out_n, dtype=np.int64),
                "peak_10m": pd.Series(out_p, dtype=np.int64),
            }
        )

    return kd.groupby("_g").map_groups(audit, batch_format="pandas")


POLITENESS_AUDIT_SQL = """
WITH w AS (
  SELECT user_id,
         COUNT(*) OVER (PARTITION BY user_id ORDER BY ts
           RANGE BETWEEN INTERVAL 10 MINUTES PRECEDING AND CURRENT ROW) AS c
  FROM events
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(MAX(c) AS BIGINT) AS peak_10m
FROM w GROUP BY user_id
"""


def q_langid_confusion(sf_dir: str):
    """(true_lang, pred_lang, n_docs, row_bp): confusion matrix of the
    stopword language identifier against the labeled lang column;
    row_bp = basis points of the true language's docs landing in this
    cell (integer-exact recall diagonal).

    Scale shape: prediction is the existing per-batch langid map; the
    matrix is a bounded (|langs|^2) groupby after a per-batch cell
    combiner — evaluation costs one schema-bounded exchange."""
    from ray.data.aggregate import Sum as _Sum

    from .ml_queries import q_langid

    pred = q_langid(sf_dir)

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["lang_actual", "lang_pred"], as_index=False)
            .size()
            .rename(
                columns={
                    "lang_actual": "true_lang",
                    "lang_pred": "pred_lang",
                    "size": "n",
                }
            )
        )
        return out.astype({"n": np.int64})

    m = (
        pred.map_batches(cells, batch_format="pandas")
        .groupby(["true_lang", "pred_lang"])
        .aggregate(_Sum("n", alias_name="n_docs"))
        .to_pandas()
    )  # bounded: |langs|^2 rows
    if m.empty:  # Ray's empty to_pandas() carries no columns
        return pd.DataFrame(
            {
                "true_lang": pd.Series([], dtype=object),
                "pred_lang": pd.Series([], dtype=object),
                "n_docs": pd.Series([], dtype=np.int64),
                "row_bp": pd.Series([], dtype=np.int64),
            }
        )
    totals = m.groupby("true_lang")["n_docs"].transform("sum").to_numpy(np.int64)
    m["n_docs"] = m["n_docs"].astype(np.int64)
    m["row_bp"] = 10000 * m["n_docs"].to_numpy(np.int64) // totals
    return m


def _langid_confusion_sql() -> str:
    from .ml_queries import LANGID_SQL

    return f"""
WITH pred AS ({LANGID_SQL}),
m AS (
  SELECT lang_actual AS true_lang, lang_pred AS pred_lang,
         CAST(COUNT(*) AS BIGINT) AS n_docs
  FROM pred GROUP BY 1, 2
)
SELECT true_lang, pred_lang, n_docs,
  CAST(10000 * n_docs // SUM(n_docs) OVER (PARTITION BY true_lang) AS BIGINT)
    AS row_bp
FROM m
"""


# ======================================================= rank normalize
#
# Exact global RANK() (ties share the min rank) computed WITHOUT a
# global sort: the ranked column is value-bounded (document lengths), so
# a per-batch value-counts combiner -> one bounded histogram reduce ->
# broadcast rank-of-value lookup gives every row its exact rank in two
# narrow passes — the shuffle-free alternative to the terasort shape
# whenever the domain is bounded (the percentile-feature-normalization
# step of every quality-score blend).


def q_rank_normalize(sf_dir: str):
    """(doc_id, n_chars, rnk, pct_bp): RANK() by n_chars ascending and
    the basis-point percentile 10000*(rnk-1)//(N-1).

    Scale shape: histogram combiner (<= |distinct values| rows per
    batch) -> bounded groupby -> driver builds the <= |domain|-entry
    rank table -> ray.put broadcast -> vectorized map lookup. No
    all-to-all exchange touches data-scaled rows."""
    d = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("n_chars", as_index=False).size()
        out.columns = ["n_chars", "n"]
        out["bucket"] = out["n_chars"] % 8  # 8 Ray groups, not |domain|
        return out.astype(np.int64)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("n_chars", as_index=False)["n"].sum()
        return out.astype(np.int64)

    counts = (
        d.map_batches(hist, batch_format="pandas")
        .groupby("bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .to_pandas()
    )  # bounded: one row per distinct length
    if counts.empty:  # Ray's empty to_pandas() carries no columns
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "n_chars": pd.Series([], dtype=np.int64),
                "rnk": pd.Series([], dtype=np.int64),
                "pct_bp": pd.Series([], dtype=np.int64),
            }
        )
    counts = counts.sort_values("n_chars")
    n_total = int(counts["n"].sum())
    ranks = {}
    below = 0
    for v, n in zip(counts["n_chars"], counts["n"]):
        ranks[int(v)] = below + 1
        below += int(n)
    lookup_ref = ray.put((ranks, n_total))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ranks_, n_ = ray.get(lookup_ref)
        v = df["n_chars"].to_numpy(np.int64)
        r = np.array([ranks_[int(x)] for x in v], dtype=np.int64)
        pct = 10000 * (r - 1) // (n_ - 1) if n_ > 1 else np.zeros_like(r)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "n_chars": v,
                "rnk": r,
                "pct_bp": pct,
            }
        )

    return d.map_batches(assign, batch_format="pandas")


RANK_NORMALIZE_SQL = """
SELECT doc_id, n_chars,
  CAST(RANK() OVER (ORDER BY n_chars) AS BIGINT) AS rnk,
  CAST(10000 * (RANK() OVER (ORDER BY n_chars) - 1)
       // GREATEST(COUNT(*) OVER () - 1, 1) AS BIGINT) AS pct_bp
FROM documents
"""


# ========================================================== Pareto docs
#
# Skyline query: documents not dominated in (length, quality) — the
# multi-criteria selection shape ("longest AND highest-quality
# representatives") that no single sort key expresses. quality is an
# md5-derived bounded score so both sides agree bit-for-bit.


def _pareto_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Local skyline, maximizing (n_chars, quality); strict dominance
    (ties on both dims survive together)."""
    if df.empty:  # empty blocks may arrive without columns
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "n_chars": pd.Series([], dtype=np.int64),
                "quality": pd.Series([], dtype=np.int64),
            }
        )
    df = df.sort_values(
        ["n_chars", "quality"], ascending=False, kind="mergesort"
    )
    keep_idx = []
    best_y = -1
    for x, grp in df.groupby("n_chars", sort=False):
        gmax = int(grp["quality"].max())
        if gmax > best_y:
            keep_idx.extend(grp.index[grp["quality"] == gmax].tolist())
            best_y = gmax
    return df.loc[sorted(keep_idx)]


def q_pareto_docs(sf_dir: str):
    """(doc_id, n_chars, quality): the Pareto frontier.

    Scale shape: per-batch local skyline (only frontier candidates
    survive — expected O(log^2 n) of a random batch), then one
    single-task global skyline over the union of candidates via
    repartition(1): the classic two-level skyline reduction; nothing
    data-scaled ever reaches one node."""
    d = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def scored(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        q = np.array(
            [
                int(hashlib.md5(f"pq|{int(i)}".encode("utf-8")).hexdigest()[:16], 16)
                % 1000
                for i in ids
            ],
            dtype=np.int64,
        )
        return _pareto_frame(
            pd.DataFrame(
                {
                    "doc_id": ids,
                    "n_chars": df["n_chars"].to_numpy(np.int64),
                    "quality": q,
                }
            )
        )

    cand = d.map_batches(scored, batch_format="pandas")
    return cand.repartition(1).map_batches(_pareto_frame, batch_format="pandas")


PARETO_DOCS_SQL = f"""
WITH s AS (
  SELECT doc_id, n_chars,
         CAST({_md5u("'pq|' || CAST(doc_id AS VARCHAR)")} % 1000 AS BIGINT)
           AS quality
  FROM documents
)
SELECT a.doc_id AS doc_id, a.n_chars AS n_chars, a.quality AS quality
FROM s a
WHERE NOT EXISTS (
  SELECT 1 FROM s b
  WHERE b.n_chars >= a.n_chars AND b.quality >= a.quality
    AND (b.n_chars > a.n_chars OR b.quality > a.quality)
)
"""


# ======================================================= ring rebalance
#
# The consistent-hashing theorem made measurable: adding one node to the
# ring relocates ONLY the keys the new node's vnodes capture (~1/(N+1)
# of them) and never moves a key between two old nodes — the property
# that lets a crawl add frontier shards mid-run without a global
# re-shuffle. Both placements computed per key; `moved` rows must all
# land on the new node (pinned by test and by the oracle itself).


def q_ring_rebalance(sf_dir: str):
    """(doc_id, node_before, node_after, moved): placement under N and
    N+1 nodes.

    Scale shape: both rings broadcast once; two searchsorted per batch —
    rebalance planning costs one narrow map pass, no exchange."""
    before_ref = ray.put(_ring_points(CH_NODES))
    after_ref = ray.put(_ring_points(CH_NODES + 1))
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        kh = _ring_key_hashes(ids)
        nb = _place_on_ring(ray.get(before_ref), kh)
        na = _place_on_ring(ray.get(after_ref), kh)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "node_before": nb,
                "node_after": na,
                "moved": (nb != na).astype(np.int64),
            }
        )

    return d.map_batches(assign, batch_format="pandas")


def _ring_rebalance_sql() -> str:
    vnode_h = _md5u("'ring|' || CAST(n AS VARCHAR) || '|' || CAST(v AS VARCHAR)")

    def ring(n_nodes: int) -> str:
        return (
            f"SELECT n, {vnode_h} AS h "
            f"FROM range({n_nodes}) t(n), range({CH_VNODES}) u(v)"
        )

    return f"""
WITH ring_a AS ({ring(CH_NODES)}), ring_b AS ({ring(CH_NODES + 1)}),
keys AS (
  SELECT doc_id, {_md5u("'key|' || CAST(doc_id AS VARCHAR)")} AS kh FROM documents
), placed AS (
  SELECT doc_id,
    CAST(COALESCE(
      (SELECT arg_min(r.n, r.h) FROM ring_a r WHERE r.h >= k.kh),
      (SELECT arg_min(r.n, r.h) FROM ring_a r)) AS BIGINT) AS node_before,
    CAST(COALESCE(
      (SELECT arg_min(r.n, r.h) FROM ring_b r WHERE r.h >= k.kh),
      (SELECT arg_min(r.n, r.h) FROM ring_b r)) AS BIGINT) AS node_after
  FROM keys k
)
SELECT doc_id, node_before, node_after,
  CAST(CASE WHEN node_before <> node_after THEN 1 ELSE 0 END AS BIGINT) AS moved
FROM placed
"""


# ====================================================== path templates
#
# URL template mining: generalize paths by collapsing digit runs (and
# 32-hex tokens) to placeholders and count pages per template — the
# taxonomy a crawl scheduler budgets by ("/product/{N} is 80% of the
# site"). The Ray side PARSES and generalizes real URLs; the oracle
# derives the expected template per generation family, so a templating
# slip (digit run missed, hex not collapsed, query not stripped) breaks
# the gate.


def url_template(url: str) -> str:
    import re as _re

    rest = url.split("://", 1)[1]
    path = rest.partition("?")[0].partition("/")[2]
    t = "/" + path
    t = _re.sub(r"[0-9a-f]{32}", "{H}", t)
    t = _re.sub(r"[0-9]+", "{N}", t)
    return t


def q_path_templates(sf_dir: str):
    """(template, n_urls): page counts per generalized path template
    over the crawl-trap URL corpus.

    Scale shape: per-batch template map + count combiner -> bounded
    groupby (templates are a rule-bounded domain — the whole point of
    templating)."""
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def tpl(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        ts = [url_template(_trap_url(int(i))) for i in ids]
        out = pd.DataFrame({"template": ts}).groupby(
            "template", as_index=False
        ).size()
        out.columns = ["template", "n"]
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("template", as_index=False)["n"].sum()
        out.columns = ["template", "n_urls"]
        return out.astype({"n_urls": np.int64})

    return (
        d.map_batches(tpl, batch_format="pandas")
        .groupby("template")
        .map_groups(merge, batch_format="pandas")
    )


def _path_templates_sql() -> str:
    fam1 = "".join("/s{N}x{N}" for _ in range(12))
    return f"""
WITH t AS (
  SELECT CASE doc_id % 5
    WHEN 0 THEN '/a/{{H}}/c{{N}}'
    WHEN 1 THEN '{fam1}'
    WHEN 2 THEN '/cat/x/x/x/page{{N}}'
    WHEN 3 THEN '/{{N}}/{{N}}/{{N}}/{{N}}/{{N}}/{{N}}/post{{N}}'
    ELSE '/page{{N}}' END AS template
  FROM documents
)
SELECT template, CAST(COUNT(*) AS BIGINT) AS n_urls FROM t GROUP BY template
"""


# ===================================================== sentence stats
#
# Punctuation-rule sentence segmentation — the doc-shape feature the
# quality filters (Gopher "mean words per sentence") key on. The rule is
# the count of sentence-ending punctuation RUNS ([.!?]+), identical
# regex class on both engines, so every output is exact int64.


def q_sentence_stats(sf_dir: str):
    """(doc_id, n_sent, n_tokens, toks_per_sent): sentence count =
    number of [.!?]+ runs, token count = whitespace tokens,
    toks_per_sent = integer division with a zero guard (0 when a doc has
    no sentence-ending punctuation).

    Scale shape: pure per-batch vectorized map (pandas str.count on
    compiled regexes) — no shuffle, no state."""
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        txt = df["text"].fillna("")
        n_sent = txt.str.count(r"[.!?]+").to_numpy(np.int64)
        n_tok = txt.str.count(r"[^ \t\n\r\f]+").to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "n_sent": n_sent,
                "n_tokens": n_tok,
                "toks_per_sent": np.where(n_sent > 0, n_tok // np.maximum(n_sent, 1), 0),
            }
        )

    return d.map_batches(stats, batch_format="pandas")


SENTENCE_STATS_SQL = r"""
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '[.!?]+')) AS BIGINT) AS n_sent,
  CAST(len(regexp_extract_all(text, '[^ \t\n\r\f]+')) AS BIGINT) AS n_tokens,
  CAST(CASE WHEN len(regexp_extract_all(text, '[.!?]+')) > 0
       THEN len(regexp_extract_all(text, '[^ \t\n\r\f]+'))
            // len(regexp_extract_all(text, '[.!?]+'))
       ELSE 0 END AS BIGINT) AS toks_per_sent
FROM documents
"""


# ================================================ cross-language links
#
# Language mismatch across the internal link graph — the signal a
# multilingual crawler uses to find translation hubs (and a worked
# example of attaching a NODE attribute to BOTH endpoints of a
# data-scaled edge set: two bucket exchanges, no broadcast of anything
# data-scaled, the partitioned-join shape applied to graph edges).

_XLANG_NB = 64


def q_crosslang_links(sf_dir: str):
    """(lang_src, lang_dst, n_edges): distinct-edge counts per language
    pair over the internal link graph (self-loops excluded).

    Scale shape: edges + (doc_id, lang) rows bucket-exchange on the DST
    id to attach lang_dst in-task; the half-edges re-key by SRC id and a
    second exchange attaches lang_src the same way; the final groupby is
    bounded by |langs|² — never a data-scaled driver collect or
    broadcast."""
    import pyarrow.parquet as _pq

    from .queries import internal_edges_np

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = pd.DataFrame(
        {
            "lang_src": pd.Series([], dtype=object),
            "lang_dst": pd.Series([], dtype=object),
            "n_edges": pd.Series([], dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    mask = _XLANG_NB - 1

    def edge_rows(t: pa.Table) -> pd.DataFrame:
        src, dst = internal_edges_np(
            t.column("doc_id").to_numpy(), n_docs, drop_self=True
        )
        e = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        return pd.DataFrame(
            {
                "kind": np.zeros(len(e), np.int8),
                "src": e["src"].to_numpy(np.int64),
                "dst": e["dst"].to_numpy(np.int64),
                "lang": pd.Series([""] * len(e), dtype=object),
                "b": (e["dst"].to_numpy(np.int64) & mask).astype(np.int32),
            }
        )

    def lang_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "kind": np.ones(len(ids), np.int8),
                "src": np.full(len(ids), -1, np.int64),
                "dst": ids,
                "lang": pd.Series(t.column("lang").to_pylist(), dtype=object),
                "b": (ids & mask).astype(np.int32),
            }
        )

    def attach_dst(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0]
        langs = g.loc[g["kind"] == 1, ["dst", "lang"]].rename(
            columns={"dst": "node", "lang": "lang_dst"}
        )
        m = e.merge(langs, left_on="dst", right_on="node", how="inner")
        # re-key the half-edges by SRC for the second attach; lang rows
        # re-emit keyed by their own id so every bucket keeps its roster
        out_e = pd.DataFrame(
            {
                "kind": np.zeros(len(m), np.int8),
                "src": m["src"].to_numpy(np.int64),
                "dst": m["dst"].to_numpy(np.int64),
                "lang": m["lang_dst"].astype(object),
                "b": (m["src"].to_numpy(np.int64) & mask).astype(np.int32),
            }
        )
        roster = g[g["kind"] == 1]
        return pd.concat([out_e, roster], ignore_index=True)

    def attach_src(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0]
        langs = g.loc[g["kind"] == 1, ["dst", "lang"]].rename(
            columns={"dst": "node", "lang": "lang_src"}
        )
        m = e.merge(langs, left_on="src", right_on="node", how="inner")
        out = m.groupby([m["lang_src"], m["lang"]], as_index=False).size()
        out.columns = ["lang_src", "lang_dst", "n"]
        return out

    stream = d.map_batches(edge_rows, batch_format="pyarrow").union(
        d.map_batches(lang_rows, batch_format="pyarrow")
    )
    parts = (
        stream.groupby("b")
        .map_groups(attach_dst, batch_format="pandas")
        .groupby("b")
        .map_groups(attach_src, batch_format="pandas")
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["lang_src", "lang_dst"], as_index=False)["n"].sum()
        out.columns = ["lang_src", "lang_dst", "n_edges"]
        return out.astype({"n_edges": np.int64})

    # final reduce bounded by |langs|^2 — one coarse group
    return (
        parts.map_batches(
            lambda df: df.assign(_g=np.int64(0)), batch_format="pandas"
        )
        .groupby("_g")
        .map_groups(lambda g: merge(g.drop(columns=["_g"])), batch_format="pandas")
    )


CROSSLANG_LINKS_SQL = """
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (
  SELECT doc_id,
    CAST(1 + CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 4 AS BIGINT) AS k
  FROM documents),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id)
SELECT a.lang AS lang_src, b.lang AS lang_dst,
       CAST(COUNT(*) AS BIGINT) AS n_edges
FROM e
JOIN documents a ON a.doc_id = e.src
JOIN documents b ON b.doc_id = e.dst
GROUP BY 1, 2
"""


WEBCORPUS_SQL_QUERIES: dict[str, tuple] = {
    "ring_rebalance": (q_ring_rebalance, _ring_rebalance_sql(), "backlog"),
    "path_templates": (q_path_templates, _path_templates_sql(), "backlog"),
    "sentence_stats": (q_sentence_stats, SENTENCE_STATS_SQL, "backlog"),
    "crosslang_links": (q_crosslang_links, CROSSLANG_LINKS_SQL, "backlog"),
    "crawl_trap_filter": (q_crawl_trap_filter, _crawl_trap_sql(), "backlog"),
    "consistent_hash_assign": (q_consistent_hash_assign, CONSISTENT_HASH_SQL, "backlog"),
    "distribution_resample": (q_distribution_resample, _distribution_resample_sql(), "selection"),
    "politeness_audit": (q_politeness_audit, POLITENESS_AUDIT_SQL, "backlog"),
    "langid_confusion": (q_langid_confusion, _langid_confusion_sql(), "text"),
    "rank_normalize": (q_rank_normalize, RANK_NORMALIZE_SQL, "backlog"),
    "pareto_docs": (q_pareto_docs, PARETO_DOCS_SQL, "backlog"),
    "surt_keys": (q_surt_keys, SURT_KEYS_SQL, "backlog"),
    "table_extract": (q_table_extract, TABLE_EXTRACT_SQL, "backlog"),
    "charset_normalize": (q_charset_normalize, CHARSET_NORMALIZE_SQL, "backlog"),
    "mime_sniff": (q_mime_sniff, MIME_SNIFF_SQL, "backlog"),
}
