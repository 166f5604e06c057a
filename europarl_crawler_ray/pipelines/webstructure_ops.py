"""Web-corpus structure / storage-layout operators (round-5 batch 13):
CDX front-coding compression stats, WebGraph-style gap-encoded
adjacency bits, and the Broder et al. (2000) bow-tie decomposition.

Scale idioms per pipelines/grouping.py and pipelines/pregel.py: ONE
coarse exchange per data-scaled key, per-task sorts inside the owning
partition, actor-resident BSP for the reachability passes, and
fixed-domain driver reduces only. Float never enters: bit lengths are
exact integers (``int.bit_length`` vs ``length(bin(x))``) and shares
are integer basis points.

Reference parity: the reference stores its crawl ledger in Postgres
(europarl/db/documents.py) and has no index-layout or graph analytics;
these extend the brief's crawl-storage / link-analysis families.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import with_coarse_group as _with_coarse_group
from .ml_queries import _md5u  # the shared md5-uint64 SQL hash family
from .webcorpus_ops import N_SURT_SHARDS, _surt_url, surt_key


# ======================================================== front_coding
#
# Front-coding (incremental / prefix compression) of the sorted SURT
# key stream — the storage layout every CDX index writer (and any
# sorted-string-table frontier ledger) uses: within a shard the keys
# are sorted, the first key is stored verbatim, and every subsequent
# key stores only (lcp, suffix) against its predecessor. The operator
# reports, per locality shard, how much the layout saves — the number
# that justifies sharding the frontier by registrable domain (keys
# that share a host compress; a hash-scattered layout wouldn't).
#
# Encoding model (deterministic, integer): first key costs len(key)
# bytes; each subsequent key costs FC_OVERHEAD + (len - lcp) bytes
# (the overhead stands in for the two varints a real writer emits).
#
# Scale shape: per-batch SURT construction (pure map) -> ONE exchange
# on the 16-way locality shard (same prefix2-md5 shard as
# q_surt_keys, so a registrable domain is contiguous in exactly one
# task) -> per-task sort + vectorized numpy lcp over consecutive keys
# -> 16-row output. At 10^10 urls the shard count rises with the
# cluster but the per-shard sort stays in-task (epoch_shuffle's
# terasort shape); nothing data-scaled reaches the driver.

FC_OVERHEAD = 2
FC_MAXLEN = 128  # SQL lcp series bound; synthetic SURTs are < 64 chars


def _shard_of(surts: list[str]) -> np.ndarray:
    prefix2 = [",".join(s.split(")", 1)[0].split(",")[:2]) for s in surts]
    return np.array(
        [
            int(hashlib.md5(p.encode("utf-8")).hexdigest()[:16], 16)
            % N_SURT_SHARDS
            for p in prefix2
        ],
        dtype=np.int64,
    )


def q_front_coding(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def make(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        surts = [surt_key(_surt_url(int(i))) for i in ids]
        return pd.DataFrame({"surt": surts, "shard": _shard_of(surts)})

    def encode(g: pd.DataFrame) -> pd.DataFrame:
        shard = int(g["shard"].iloc[0])
        keys = sorted(g["surt"].tolist())  # SURTs are unique (path has id)
        lens = np.array([len(k) for k in keys], dtype=np.int64)
        raw = int(lens.sum())
        if len(keys) == 1:
            enc, lcp_sum = raw, 0
        else:
            # vectorized lcp of consecutive keys: pad to a byte matrix,
            # cumprod the equality run, clip at the shorter length
            mx = int(lens.max())
            mat = np.zeros((len(keys), mx), dtype=np.uint8)
            for i, k in enumerate(keys):
                b = k.encode("utf-8")  # SURTs are ascii by construction
                mat[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)
            eq = mat[1:] == mat[:-1]
            run = np.cumprod(eq, axis=1).sum(axis=1)
            lcp = np.minimum(run, np.minimum(lens[1:], lens[:-1]))
            lcp_sum = int(lcp.sum())
            enc = int(lens[0]) + int(
                (FC_OVERHEAD + lens[1:] - lcp).sum()
            )
        return pd.DataFrame(
            {
                "shard": [shard],
                "n_keys": [len(keys)],
                "raw_bytes": [raw],
                "enc_bytes": [enc],
                "lcp_bytes": [lcp_sum],
            }
        ).astype(np.int64)

    out = (
        d.map_batches(make, batch_format="pandas")
        .groupby("shard")
        .map_groups(encode, batch_format="pandas")
        .to_pandas()  # <= N_SURT_SHARDS rows
    )
    if not len(out):
        return pd.DataFrame(
            {
                c: pd.Series(dtype=np.int64)
                for c in (
                    "shard",
                    "n_keys",
                    "raw_bytes",
                    "enc_bytes",
                    "lcp_bytes",
                    "saved_bp",
                )
            }
        )
    out = out.astype(np.int64)
    # clamp at 0: a 1-2 key shard can "expand" under the overhead, and a
    # negative numerator would split floor (Python) vs truncate (DuckDB)
    saved = np.maximum(
        out["raw_bytes"].to_numpy(np.int64) - out["enc_bytes"].to_numpy(np.int64),
        0,
    )
    out["saved_bp"] = (
        pd.Series(saved).astype(object) * 10000
        // out["raw_bytes"].astype(object)
    ).astype(np.int64)
    return out.sort_values("shard").reset_index(drop=True)


FRONT_CODING_SQL = f"""
WITH parts AS (
  SELECT doc_id,
    CASE doc_id % 4 WHEN 0 THEN 'www' WHEN 1 THEN 'en' WHEN 2 THEN 'm' ELSE '' END AS sub,
    'site' || CAST(doc_id % 97 AS VARCHAR) AS dom,
    CASE doc_id % 3 WHEN 0 THEN 'com' WHEN 1 THEN 'org' ELSE 'uk,co' END AS tldrev,
    '/p/' || CAST(doc_id AS VARCHAR) AS path,
    CASE WHEN doc_id % 2 = 0
         THEN 'a=' || CAST(doc_id % 5 AS VARCHAR) || '&b=2' ELSE '' END AS qsorted
  FROM documents
), built AS (
  SELECT doc_id,
    tldrev || ',' || dom || CASE WHEN sub = '' THEN '' ELSE ',' || sub END
      || ')' || path
      || CASE WHEN qsorted = '' THEN '' ELSE '?' || qsorted END AS surt,
    CASE WHEN tldrev = 'uk,co' THEN 'uk,co' ELSE tldrev || ',' || dom END AS prefix2
  FROM parts
), keyed AS (
  SELECT surt, CAST({_md5u('prefix2')} % {N_SURT_SHARDS} AS BIGINT) AS shard
  FROM built
), seqd AS (
  SELECT shard, surt,
         lag(surt) OVER (PARTITION BY shard ORDER BY surt) AS prev
  FROM keyed
), ser AS (SELECT unnest(range(1, {FC_MAXLEN + 1})) AS i),
lcps AS (
  SELECT s.shard, s.surt, COALESCE(MAX(ser.i), 0) AS lcp
  FROM seqd s LEFT JOIN ser
    ON ser.i <= LEAST(length(s.surt), length(s.prev))
   AND substr(s.surt, 1, CAST(ser.i AS INTEGER))
       = substr(s.prev, 1, CAST(ser.i AS INTEGER))
  WHERE s.prev IS NOT NULL
  GROUP BY s.shard, s.surt
), agg AS (
  SELECT s.shard,
    CAST(COUNT(*) AS BIGINT) AS n_keys,
    CAST(SUM(length(s.surt)) AS BIGINT) AS raw_bytes,
    CAST(SUM(CASE WHEN s.prev IS NULL THEN length(s.surt)
                  ELSE {FC_OVERHEAD} + length(s.surt) - l.lcp END)
         AS BIGINT) AS enc_bytes,
    CAST(SUM(COALESCE(l.lcp, 0)) AS BIGINT) AS lcp_bytes
  FROM seqd s LEFT JOIN lcps l ON s.shard = l.shard AND s.surt = l.surt
  GROUP BY s.shard)
SELECT shard, n_keys, raw_bytes, enc_bytes, lcp_bytes,
       CAST(GREATEST(raw_bytes - enc_bytes, 0) * 10000 // raw_bytes AS BIGINT)
           AS saved_bp
FROM agg
"""


# ====================================================== graph_compress
#
# WebGraph (Boldi & Vigna 2004)-style gap encoding of the adjacency
# lists: per source, successors sorted ascending, the first stored as
# bits(dst+1) and each later one as bits(dst_i - dst_{i-1}) — versus
# the raw layout that spends bits(dst+1) on every successor. Reported
# per out-degree (distinct successors, 1..4 under the lnkk:42 rule):
# the locality diagnostic that says whether the edge list is worth
# delta-compressing before it ships to the object store.
#
# bits(x) is the EXACT integer bit length (int.bit_length / numpy
# fixed-up floor-log2 vs SQL length(bin(x))) — no float ever enters.
#
# Scale shape: per-batch edge fan-out + in-task (src, dst) dedup ->
# ONE coarse exchange on src (a node's successor list lands whole in
# its owning task) -> per-task sort + gap bits -> fixed <= 4-row
# histogram partials -> tiny groupby -> driver bp math.


def _bit_length_np(x: np.ndarray) -> np.ndarray:
    """Exact bit length of positive int64s: float log2 candidate, then
    an integer fix-up so boundary powers of two can't round wrong."""
    b = np.floor(np.log2(x.astype(np.float64))).astype(np.int64) + 1
    b = np.where(x < (np.int64(1) << np.maximum(b - 1, 0)), b - 1, b)
    b = np.where(x >> np.minimum(b, 62) > 0, b + 1, b)
    return b


def q_graph_compress(sf_dir: str):
    from .queries import internal_edges_np

    n_docs = _n_rows(sf_dir, "documents")
    d = _read(sf_dir, "documents", columns=["doc_id"])
    empty = pd.DataFrame(
        {
            c: pd.Series(dtype=np.int64)
            for c in (
                "outdeg",
                "n_src",
                "n_edges",
                "gap_bits",
                "raw_bits",
                "saved_bp",
            )
        }
    )
    if n_docs == 0:
        return empty

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        out = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        return out.astype(np.int64)

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        e = (
            g.drop(columns=["_g"])
            .drop_duplicates()  # batch-local dedup above isn't global
            .sort_values(["src", "dst"], kind="mergesort")
        )
        src = e["src"].to_numpy(np.int64)
        dst = e["dst"].to_numpy(np.int64)
        first = np.ones(len(src), dtype=bool)
        first[1:] = src[1:] != src[:-1]
        prev = np.empty_like(dst)
        prev[1:] = dst[:-1]
        val = np.where(first, dst + 1, dst - prev)  # gaps >= 1 after dedup
        bits = _bit_length_np(val)
        raw = _bit_length_np(dst + 1)
        t = pd.DataFrame({"src": src, "bits": bits, "raw": raw})
        per_src = t.groupby("src").agg(
            outdeg=("bits", "size"), gb=("bits", "sum"), rb=("raw", "sum")
        )
        h = per_src.groupby("outdeg").agg(
            n_src_part=("gb", "size"),
            gap_part=("gb", "sum"),
            raw_part=("rb", "sum"),
        )
        h["edge_part"] = h.index.to_numpy(np.int64) * h["n_src_part"].to_numpy(
            np.int64
        )
        return h.reset_index().astype(np.int64)

    c = (
        _with_coarse_group(d.map_batches(edges, batch_format="pandas"), "src")
        .groupby("_g")
        .map_groups(pack, batch_format="pandas")
        .groupby("outdeg")
        .aggregate(
            Sum("n_src_part", alias_name="n_src"),
            Sum("edge_part", alias_name="n_edges"),
            Sum("gap_part", alias_name="gap_bits"),
            Sum("raw_part", alias_name="raw_bits"),
        )
        .to_pandas()  # <= 4 rows (max out-degree under the edge rule)
    )
    if not len(c):
        return empty
    c = c.astype(np.int64)
    c["saved_bp"] = (
        (c["raw_bits"] - c["gap_bits"]).astype(object)
        * 10000
        // c["raw_bits"].astype(object)
    ).astype(np.int64)
    return c.sort_values("outdeg").reset_index(drop=True)


GRAPH_COMPRESS_SQL = f"""
WITH RECURSIVE n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")} % 4 AS BIGINT) AS k
       FROM documents),
e AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
seqd AS (
  SELECT src, dst,
         lag(dst) OVER (PARTITION BY src ORDER BY dst) AS prev
  FROM e),
bits AS (
  SELECT src,
    CAST(length(bin(CASE WHEN prev IS NULL THEN dst + 1 ELSE dst - prev END))
         AS BIGINT) AS b,
    CAST(length(bin(dst + 1)) AS BIGINT) AS rb
  FROM seqd),
per_src AS (
  SELECT src, CAST(COUNT(*) AS BIGINT) AS outdeg,
         CAST(SUM(b) AS BIGINT) AS gb, CAST(SUM(rb) AS BIGINT) AS rb
  FROM bits GROUP BY src),
agg AS (
  SELECT outdeg, CAST(COUNT(*) AS BIGINT) AS n_src,
         CAST(outdeg * COUNT(*) AS BIGINT) AS n_edges,
         CAST(SUM(gb) AS BIGINT) AS gap_bits,
         CAST(SUM(rb) AS BIGINT) AS raw_bits
  FROM per_src GROUP BY outdeg)
SELECT outdeg, n_src, n_edges, gap_bits, raw_bits,
       CAST((raw_bits - gap_bits) * 10000 // raw_bits AS BIGINT) AS saved_bp
FROM agg
"""


# ===================================================== bowtie_structure
#
# Broder et al. (2000) bow-tie decomposition of the link graph around
# the pivot's strongly-connected core: SCC (reaches and is reached by
# the pivot), IN (reaches the core but isn't in it), OUT (reached from
# the core), TENDRIL (in the pivot's weakly-connected component but on
# no directed path through the core), DISCONNECTED (a different weak
# component) — the macro-census every crawl-frontier seeding strategy
# is judged against.
#
# Scale shape — one actor-resident Pregel pass carrying THREE flag
# bits per node (fwd, bwd, und): out-edges live with their src owner
# (forward + undirected expansion), in-edges with their dst owner
# (backward + undirected); a node that just gained a flag sends it one
# hop along the matching direction and never re-sends, so traffic is
# O(E) per flag over the whole run. The driver sees only the 5-row
# class census (fixed domain, zero-filled).

BOWTIE_CLASSES = ("scc", "in", "out", "tendril", "disconnected")
BOWTIE_MAX_ROUNDS = 64


def q_bowtie_structure(sf_dir: str, n_buckets: int = 64):
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    n_docs = _n_rows(sf_dir, "documents")
    if n_docs == 0:
        return pd.DataFrame(
            {
                "component": pd.Series(dtype=str),
                "n_docs": pd.Series(dtype=np.int64),
            }
        )
    from .pregel import pregel_actor_loop
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])
    pivot = 0  # doc ids are the dense range 0..n_docs-1 (TESTDATA.md)

    # kind 0 = out-edge (n1=src), kind 1 = in-edge (n1=dst),
    # kind 2 = roster (n1=node, fwd/bwd/und flag bits)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        n_e, n_r = len(src), len(ids)
        n1 = np.concatenate([src, dst, ids])
        z = np.zeros(2 * n_e + n_r, np.int8)
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [
                        np.zeros(n_e, np.int8),
                        np.ones(n_e, np.int8),
                        np.full(n_r, 2, np.int8),
                    ]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, src, np.full(n_r, -1, np.int64)]),
                "fwd": z.copy(),
                "bwd": z.copy(),
                "und": z.copy(),
                "b": (n1 & mask),
            }
        )

    FLAGS = ("fwd", "bwd", "und")

    def bowtie_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        eo = state[state["kind"] == 0]
        ei = state[state["kind"] == 1]
        roster = state[state["kind"] == 2].copy()
        nodes = roster["n1"].to_numpy(np.int64)
        if round_i == 0:
            seed = nodes[nodes == pivot]
            gains = {f: seed for f in FLAGS}
        else:
            if msgs is None or not len(msgs):
                return state, None, 0
            gains = {}
            for di, f in enumerate(FLAGS):
                m = np.unique(
                    msgs.loc[msgs["dir"] == di, "node"].to_numpy(np.int64)
                )
                had = nodes[roster[f].to_numpy(np.int8) == 1]
                gains[f] = np.setdiff1d(m, had, assume_unique=False)
        changed = sum(len(g) for g in gains.values())
        if changed == 0:
            return state, None, 0
        for f in FLAGS:
            if len(gains[f]):
                roster.loc[roster["n1"].isin(gains[f]), f] = np.int8(1)
        new_state = pd.concat([eo, ei, roster], ignore_index=True)
        outs = []
        # fwd along out-edges, bwd along in-edges, und along BOTH
        hops = (
            (0, eo, gains["fwd"]),
            (1, ei, gains["bwd"]),
            (2, eo, gains["und"]),
            (2, ei, gains["und"]),
        )
        for di, etab, gained in hops:
            if len(gained):
                nb = np.unique(
                    etab.loc[etab["n1"].isin(gained), "n2"].to_numpy(np.int64)
                )
                if len(nb):
                    outs.append(
                        pd.DataFrame(
                            {"b": nb & mask, "node": nb, "dir": np.int8(di)}
                        )
                    )
        out = pd.concat(outs, ignore_index=True) if outs else None
        return new_state, out, changed

    state_ds, converged, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        bowtie_step,
        key="b",
        max_iters=BOWTIE_MAX_ROUNDS,
    )
    if not converged:
        raise RuntimeError(
            f"q_bowtie_structure: frontier still moving after "
            f"{BOWTIE_MAX_ROUNDS} rounds; raise the bound"
        )

    def census(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["kind"] == 2]
        f = r["fwd"].to_numpy(np.int8) == 1
        b = r["bwd"].to_numpy(np.int8) == 1
        u = r["und"].to_numpy(np.int8) == 1
        cls = np.where(
            f & b,
            "scc",
            np.where(
                b,
                "in",
                np.where(f, "out", np.where(u, "tendril", "disconnected")),
            ),
        )
        vals, cnts = np.unique(cls, return_counts=True)
        return pd.DataFrame(
            {"component": vals, "n_part": cnts.astype(np.int64)}
        )

    c = (
        (
            state_ds.map_batches(census, batch_format="pandas")
            if state_ds is not None
            else ray.data.from_pandas(
                pd.DataFrame(
                    {"component": pd.Series(dtype=str),
                     "n_part": pd.Series(dtype=np.int64)}
                )
            )
        )
        .groupby("component")
        .aggregate(Sum("n_part", alias_name="n_docs"))
        .to_pandas()  # <= 5 rows
    )
    out = (
        pd.DataFrame({"component": list(BOWTIE_CLASSES)})
        .merge(c, on="component", how="left")
        .fillna({"n_docs": 0})
    )
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out.reset_index(drop=True)


BOWTIE_STRUCTURE_SQL = f"""
WITH RECURSIVE n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")} % 4 AS BIGINT) AS k
       FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
fwd AS (
  SELECT CAST(0 AS BIGINT) AS node
  UNION
  SELECT e.dst FROM e JOIN fwd ON e.src = fwd.node),
bwd AS (
  SELECT CAST(0 AS BIGINT) AS node
  UNION
  SELECT e.src FROM e JOIN bwd ON e.dst = bwd.node),
und AS (
  SELECT CAST(0 AS BIGINT) AS node
  UNION
  SELECT CASE WHEN e.src = und.node THEN e.dst ELSE e.src END
  FROM e JOIN und ON e.src = und.node OR e.dst = und.node),
lab AS (
  SELECT d.doc_id,
    CASE
      WHEN d.doc_id IN (SELECT node FROM fwd)
       AND d.doc_id IN (SELECT node FROM bwd) THEN 'scc'
      WHEN d.doc_id IN (SELECT node FROM bwd) THEN 'in'
      WHEN d.doc_id IN (SELECT node FROM fwd) THEN 'out'
      WHEN d.doc_id IN (SELECT node FROM und) THEN 'tendril'
      ELSE 'disconnected' END AS component
  FROM documents d),
cls(component) AS (
  VALUES ('scc'), ('in'), ('out'), ('tendril'), ('disconnected'))
SELECT cls.component,
       CAST(COALESCE(COUNT(lab.doc_id), 0) AS BIGINT) AS n_docs
FROM cls LEFT JOIN lab ON cls.component = lab.component
GROUP BY cls.component
"""


# ================================================== degree_joint_census
#
# Joint (out-degree, in-degree) census of the link-graph multiset
# (self-loops kept, pagerank's edge convention): the two-dimensional
# degree histogram whose diagonal mass distinguishes a reciprocal-link
# web ring from a hub-and-spoke layout — the marginal power-law fit
# (deg_powerlaw) can't see the correlation.
#
# Scale shape: out-degree is md5-derived per node (no exchange);
# in-degree needs ONE coarse exchange of per-batch (dst, count)
# partials; the joint (outdeg ≤ 4 × indeg) domain is degree-bounded so
# the final groupby and the driver reduce are schema-bounded.


def q_degree_joint_census(sf_dir: str):
    from ..stages.multimodal import _md5_64
    from .queries import internal_edges_np

    n_docs = _n_rows(sf_dir, "documents")
    empty = pd.DataFrame(
        {
            "outdeg": pd.Series(dtype=np.int64),
            "indeg": pd.Series(dtype=np.int64),
            "n_nodes": pd.Series(dtype=np.int64),
        }
    )
    if n_docs == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        _, dst = internal_edges_np(ids, n_docs)
        # kind 0 = in-degree count partial keyed by the target node,
        # kind 1 = the node's roster row (carries nothing but presence)
        vals, cnts = np.unique(dst, return_counts=True)
        inc = pd.DataFrame(
            {"kind": np.int64(0), "node": vals, "c": cnts.astype(np.int64)}
        )
        ros = pd.DataFrame(
            {"kind": np.int64(1), "node": ids, "c": np.zeros(len(ids), np.int64)}
        )
        return pd.concat([inc, ros], ignore_index=True)

    def census(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        indeg = (
            t[t["kind"] == 0].groupby("node")["c"].sum()
        )
        nodes = t.loc[t["kind"] == 1, "node"].to_numpy(np.int64)
        ind = indeg.reindex(nodes).fillna(0).to_numpy(np.int64)
        outd = np.fromiter(
            (1 + _md5_64(f"lnkk:42:{int(v)}") % 4 for v in nodes),
            np.int64,
            len(nodes),
        )
        out = (
            pd.DataFrame({"outdeg": outd, "indeg": ind})
            .groupby(["outdeg", "indeg"], as_index=False)
            .size()
            .rename(columns={"size": "n_part"})
        )
        return out.astype(np.int64)

    c = (
        _with_coarse_group(
            d.map_batches(partials, batch_format="pandas"), "node"
        )
        .groupby("_g")
        .map_groups(census, batch_format="pandas")
        .groupby(["outdeg", "indeg"])
        .aggregate(Sum("n_part", alias_name="n_nodes"))
        .to_pandas()  # degree-bounded domain
    )
    if not len(c):
        return empty
    return (
        c.astype(np.int64)
        .sort_values(["outdeg", "indeg"])
        .reset_index(drop=True)
    )


DEGREE_JOINT_CENSUS_SQL = f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_md5u("'lnkk:42:' || CAST(doc_id AS VARCHAR)")} % 4 AS BIGINT) AS k
       FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n),
ind AS (SELECT dst AS doc_id, CAST(COUNT(*) AS BIGINT) AS indeg FROM e GROUP BY 1)
SELECT kk.k AS outdeg, COALESCE(ind.indeg, 0) AS indeg,
       CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM kk LEFT JOIN ind USING (doc_id)
GROUP BY 1, 2
"""


WEBSTRUCTURE_SQL_QUERIES: dict[str, tuple] = {
    "degree_joint_census": (q_degree_joint_census, DEGREE_JOINT_CENSUS_SQL),
    "front_coding": (q_front_coding, FRONT_CODING_SQL),
    "graph_compress": (q_graph_compress, GRAPH_COMPRESS_SQL),
    "bowtie_structure": (q_bowtie_structure, BOWTIE_STRUCTURE_SQL),
}
