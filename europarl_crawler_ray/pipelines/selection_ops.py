"""Data-selection / IR operators: greedy k-center coreset selection
over embeddings, positional phrase search over the token stream, and
ExactSubstr-style duplicated-span extraction (character-level interval
union, the "bytes you would remove" measure).

Training-data additions beyond the reference surface (reference parity
note: bockstaller/europarl-crawler has no vector or span machinery; the
crawler-adjacent analogue is its URL dedup, `europarl/database.py`
url-seen upsert). Public sources for the shapes: k-center greedy
(Gonzalez 1985; used for coreset data selection à la Sener & Savarese
2018), ExactSubstr dedup (Lee et al. 2022, "Deduplicating Training Data
Makes Language Models Better" §4 — here with the merged-span interval
union that measures removable characters), and positional-postings
phrase intersection (standard IR, Manning et al. IIR §2.4).

All three are SQL-oracled; scale idioms follow pipelines/grouping.py
(per-batch combiner → ONE coarse exchange; bounded driver reduces via
``global_prune``).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

from .._util import read_table as _read
from .grouping import global_prune, with_coarse_group

# ===================================================== coreset_kcenter
#
# Greedy k-center (farthest-point traversal): seed = the vector with
# the smallest md5('kc:'||vec_id); each round adds the point with the
# LARGEST distance to the already-selected set (squared L2 via the
# inner-product expansion — the repo's bit-identical-formula convention
# with the DuckDB oracle; float argmax ties are measure-zero, vec_id
# tie-break). k passes over the table, each a per-block top-1 prune
# re-pruned through ``global_prune`` — the driver sees exactly one row
# per round regardless of block count. At 100 TB the k passes stream;
# the selected set (k × dim floats) is a closure broadcast.

KCENTER_K = 8


def _sq_l2_expansion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared L2 as ``a·a − 2 a·b + b·b`` — the same
    inner-product expansion the DuckDB oracle evaluates (see
    sketcheval_ops._sq_l2_expansion for the ADVICE r3 rationale)."""
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    return aa[:, None] - 2.0 * (a @ b.T) + bb[None, :]


def q_coreset_kcenter(sf_dir: str, k: int = KCENTER_K):
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def prune_seed(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        md5s = np.array(
            [
                hashlib.md5(f"kc:{int(v)}".encode()).hexdigest()
                for v in df["vec_id"]
            ]
        )
        return df.iloc[[int(np.argmin(md5s))]]

    rows = []  # (round, vec_id) — k rows total on the driver
    seed = global_prune(emb, prune_seed)
    if seed.empty:
        return pd.DataFrame({"round": pd.Series([], dtype="int64"),
                             "vec_id": pd.Series([], dtype="int64")})
    centers = [np.asarray(seed["embedding"].iloc[0], dtype=np.float64)]
    rows.append((0, int(seed["vec_id"].iloc[0])))

    for r in range(1, k):
        cmat = np.stack(centers)  # (r, dim) closure broadcast, tiny

        def prune_far(df: pd.DataFrame, cmat=cmat) -> pd.DataFrame:
            if df.empty:
                return df
            mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
            # min over centers is comparison-only (order-independent),
            # matching the oracle's LEAST() accumulation exactly
            d = _sq_l2_expansion(mat, cmat).min(axis=1)
            order = np.lexsort((df["vec_id"].to_numpy(), -d))
            return df.iloc[[int(order[0])]]

        far = global_prune(emb, prune_far)
        centers.append(np.asarray(far["embedding"].iloc[0], dtype=np.float64))
        rows.append((r, int(far["vec_id"].iloc[0])))

    return pd.DataFrame(
        {"round": np.arange(len(rows), dtype=np.int64),
         "vec_id": np.array([v for _, v in rows], dtype=np.int64)}
    )


def _kcenter_sql(k: int = KCENTER_K) -> str:
    """Unrolled greedy rounds as MATERIALIZED CTEs (the kcore_peel
    precedent — DuckDB inlines plain CTEs exponentially)."""

    def sq(a: str, b: str) -> str:
        return (
            f"(list_inner_product({a},{a}) - 2*list_inner_product({a},{b})"
            f" + list_inner_product({b},{b}))"
        )

    parts = [
        "WITH e AS (SELECT CAST(vec_id AS BIGINT) AS vec_id,"
        " CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings)",
        "c0 AS MATERIALIZED (SELECT vec_id, embedding FROM e"
        " ORDER BY md5('kc:' || CAST(vec_id AS VARCHAR)) LIMIT 1)",
        "d0 AS MATERIALIZED (SELECT e.vec_id, e.embedding, "
        + sq("e.embedding", "c.embedding")
        + " AS dist FROM e, c0 c)",
    ]
    for r in range(1, k):
        parts.append(
            f"c{r} AS MATERIALIZED (SELECT vec_id, embedding FROM d{r - 1}"
            f" ORDER BY dist DESC, vec_id LIMIT 1)"
        )
        if r < k - 1:
            parts.append(
                f"d{r} AS MATERIALIZED (SELECT d.vec_id, d.embedding,"
                f" LEAST(d.dist, {sq('d.embedding', 'c.embedding')}) AS dist"
                f" FROM d{r - 1} d, c{r} c)"
            )
    sel = " UNION ALL ".join(
        f"SELECT {r} AS round, vec_id FROM c{r}" for r in range(k)
    )
    parts.append(f"sel AS ({sel})")
    return (
        ",\n".join(parts)
        + "\nSELECT CAST(round AS BIGINT) AS round, vec_id FROM sel"
        " ORDER BY round"
    )


# ======================================================== phrase_query
#
# Positional phrase search: the query set is the corpus's own top-P
# adjacent word bigrams (count DESC, then lexicographic), so the op is
# self-contained; the answer is every (phrase, doc, occurrence-count)
# hit. Pass 1 = per-batch bigram combiner → ONE coarse exchange on the
# bigram key → exact global counts → top-P via global_prune (valid as a
# prune only AFTER the exchange: partial counts have no total order).
# Pass 2 = the P phrases ride the closure; per-doc adjacency counting is
# a numpy equality over the shifted token arrays. No full positional
# index is ever materialized — the scale story for real multi-term
# phrase queries is the same two passes with the postings bucketed by
# term (see postings_roundtrip for the index encoding itself).

PHRASE_TOP_P = 5
_WORD_RE = re.compile(r"[a-z]+")


def _doc_tokens(txt: str) -> list[str]:
    return _WORD_RE.findall(txt.lower())


def q_phrase_query(sf_dir: str, top_p: int = PHRASE_TOP_P):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial_bigrams(df: pd.DataFrame) -> pd.DataFrame:
        w1s, w2s = [], []
        for txt in df["text"]:
            toks = _doc_tokens(txt)
            if len(toks) >= 2:
                w1s.extend(toks[:-1])
                w2s.extend(toks[1:])
        if not w1s:
            return pd.DataFrame({"w1": [], "w2": [], "part_n": []})
        out = pd.DataFrame({"w1": w1s, "w2": w2s})
        out = out.groupby(["w1", "w2"], as_index=False).size()
        return out.rename(columns={"size": "part_n"})

    parts = d.map_batches(partial_bigrams, batch_format="pandas")

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_k=df["w1"] + " " + df["w2"])

    keyed = with_coarse_group(
        parts.map_batches(add_key, batch_format="pandas"), "_k"
    )

    def reduce_counts(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["w1", "w2"], as_index=False)["part_n"].sum()
        return out.rename(columns={"part_n": "n"})

    counts = keyed.groupby("_g").map_groups(reduce_counts, batch_format="pandas")

    def prune_top(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "w1" not in df.columns:
            return df
        order = df.sort_values(["n", "w1", "w2"], ascending=[False, True, True])
        return order.head(top_p)

    top = global_prune(counts, prune_top)  # ≤ P rows on the driver
    if top.empty or "w1" not in top.columns:  # empty corpus: no columns
        phrases = []
    else:
        phrases = list(zip(top["w1"].tolist(), top["w2"].tolist()))

    def count_hits(df: pd.DataFrame) -> pd.DataFrame:
        ph, ids, occ = [], [], []
        for did, txt in zip(df["doc_id"].to_numpy(), df["text"]):
            toks = _doc_tokens(txt)
            if len(toks) < 2:
                continue
            a = np.asarray(toks[:-1], dtype=object)
            b = np.asarray(toks[1:], dtype=object)
            for w1, w2 in phrases:
                n = int(np.count_nonzero((a == w1) & (b == w2)))
                if n:
                    ph.append(f"{w1} {w2}")
                    ids.append(int(did))
                    occ.append(n)
        return pd.DataFrame(
            {
                "phrase": pd.Series(ph, dtype="object"),
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_occ": pd.Series(occ, dtype="int64"),
            }
        )

    return d.map_batches(count_hits, batch_format="pandas")


PHRASE_QUERY_SQL = rf"""
WITH tok AS (
  SELECT doc_id, unnest(toks) AS term, unnest(range(1, len(toks)+1)) AS pos
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS toks
        FROM documents)
),
big AS (
  SELECT a.doc_id, a.term AS w1, b.term AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
cnt AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS n FROM big GROUP BY 1, 2),
top AS (SELECT w1, w2 FROM cnt ORDER BY n DESC, w1, w2 LIMIT {PHRASE_TOP_P}),
hits AS (
  SELECT w1 || ' ' || w2 AS phrase, doc_id, CAST(COUNT(*) AS BIGINT) AS n_occ
  FROM big JOIN top USING (w1, w2) GROUP BY 1, 2)
SELECT phrase, CAST(doc_id AS BIGINT) AS doc_id, n_occ FROM hits
"""


# ================================================== exact_substr_spans
#
# ExactSubstr dedup signal with the REMOVABLE-SPAN measure: every
# length-L character window that occurs ≥2 times anywhere in the corpus
# marks its [pos, pos+L) interval; per doc the marked intervals are
# union-merged (gaps-and-islands) and the output is the merged span
# count + character coverage. Three narrow exchanges: window rows
# bucket-exchanged on the WINDOW CONTENT (routing by coarse hash,
# equality on the actual characters — exact, no collision caveat),
# marked positions re-keyed on doc_id for the in-task interval union,
# and the doc-length rows ride the same doc exchange as tagged rows.
# At 100 TB the window emission is |corpus|×L bytes — the documented
# scale path is anchor sampling (winnow_fingerprint) or suffix-array
# partitioning; this op is the exact-mode baseline those approximate.

SUBSTR_L = 40


def q_exact_substr_spans(sf_dir: str, L: int = SUBSTR_L):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        ids, poss, ws = [], [], []
        for did, txt in zip(df["doc_id"].to_numpy(), df["text"]):
            n = len(txt)
            if n < L:
                continue
            ids.extend([int(did)] * (n - L + 1))
            poss.extend(range(1, n - L + 2))  # 1-based, matches substr()
            ws.extend(txt[i : i + L] for i in range(n - L + 1))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "pos": pd.Series(poss, dtype="int64"),
                "w": pd.Series(ws, dtype="object"),
            }
        )

    wins = with_coarse_group(
        d.map_batches(windows, batch_format="pandas"), "w"
    )

    def mark_dups(df: pd.DataFrame) -> pd.DataFrame:
        dup = df.groupby("w")["w"].transform("size") >= 2
        out = df.loc[dup, ["doc_id", "pos"]]
        return out.assign(n_chars=np.int64(0), is_meta=np.int64(0))

    marked = wins.groupby("_g").map_groups(mark_dups, batch_format="pandas")

    def doc_meta(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "pos": np.int64(0),
                "n_chars": df["text"].str.len().astype("int64"),
                "is_meta": np.int64(1),
            }
        )

    meta = d.map_batches(doc_meta, batch_format="pandas")
    both = with_coarse_group(marked.union(meta), "doc_id")

    def union_spans(df: pd.DataFrame) -> pd.DataFrame:
        out_id, out_nc, out_dc, out_ns, out_bp = [], [], [], [], []
        for did, g in df.groupby("doc_id"):
            nc = int(g.loc[g["is_meta"] == 1, "n_chars"].max())
            p = np.sort(g.loc[g["is_meta"] == 0, "pos"].to_numpy())
            if p.size:
                end = p + L
                run_end = np.maximum.accumulate(end)
                starts = np.concatenate(([True], p[1:] > run_end[:-1]))
                isl = np.cumsum(starts) - 1
                # island end = running-max end at the island's last row
                last = np.concatenate((starts[1:], [True]))
                dup_chars = int((run_end[last] - p[starts]).sum())
                n_spans = int(starts.sum())
            else:
                dup_chars, n_spans = 0, 0
            out_id.append(int(did))
            out_nc.append(nc)
            out_dc.append(dup_chars)
            out_ns.append(n_spans)
            out_bp.append(dup_chars * 10000 // nc if nc else 0)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out_id, dtype="int64"),
                "n_chars": pd.Series(out_nc, dtype="int64"),
                "dup_chars": pd.Series(out_dc, dtype="int64"),
                "n_spans": pd.Series(out_ns, dtype="int64"),
                "coverage_bp": pd.Series(out_bp, dtype="int64"),
            }
        )

    return both.groupby("_g").map_groups(union_spans, batch_format="pandas")


EXACT_SUBSTR_SPANS_SQL = rf"""
WITH wins AS (
  SELECT doc_id, pos, substr(text, pos, {SUBSTR_L}) AS w
  FROM (SELECT doc_id, text,
               unnest(range(1, greatest(length(text)-{SUBSTR_L}+1,0)+1)) AS pos
        FROM documents)
),
dup AS (SELECT w FROM wins GROUP BY w HAVING COUNT(*) >= 2),
marked AS (SELECT doc_id, pos FROM wins JOIN dup USING (w)),
x AS (
  SELECT doc_id, pos,
         MAX(pos + {SUBSTR_L}) OVER (PARTITION BY doc_id ORDER BY pos
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_end
  FROM marked),
g AS (
  SELECT doc_id, pos,
         SUM(CASE WHEN prev_end IS NULL OR pos > prev_end THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS isl
  FROM x),
spans AS (SELECT doc_id, isl, MIN(pos) AS s, MAX(pos + {SUBSTR_L}) AS e
          FROM g GROUP BY 1, 2),
cov AS (SELECT doc_id, SUM(e - s) AS dup_chars, COUNT(*) AS n_spans
        FROM spans GROUP BY 1)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(length(d.text) AS BIGINT) AS n_chars,
       CAST(COALESCE(c.dup_chars, 0) AS BIGINT) AS dup_chars,
       CAST(COALESCE(c.n_spans, 0) AS BIGINT) AS n_spans,
       CAST(CASE WHEN length(d.text) > 0
                 THEN COALESCE(c.dup_chars, 0) * 10000 // length(d.text)
                 ELSE 0 END AS BIGINT)
         AS coverage_bp
FROM documents d LEFT JOIN cov c USING (doc_id)
"""


# ====================================================== embedding_gram
#
# Distributed Gram / second-moment matrix of the embedding column — the
# input to PCA whitening, ZCA, and low-rank probes a training-data
# pipeline runs over its embedding space (e.g. before SemDeDup cell
# sizing). Components are quantized to integers FIRST (floor(x * 1e6)
# after a float64 cast — FLOOR matches numpy/DuckDB bit-for-bit, unlike
# round-half-even vs half-away ROUND), so the partial sums are exact
# integer arithmetic and order-independent on both engines — an
# integer-moment reduce over a d×d matrix.

GRAM_SCALE = 1_000_000


def q_embedding_gram(sf_dir: str):
    """(i, j, s) for 0 <= i <= j < dim where s = Σ_docs q_i·q_j and
    q = floor(1e6 · float64(embedding)).

    Scale shape: NO shuffle — each block reduces to one d(d+1)/2-row
    integer partial (d=64 → 2080 rows) via a local int64 matmul, then
    ``global_prune`` sums partials in ONE task so the driver sees a
    single d(d+1)/2 table regardless of block count. At larger corpora
    shrink GRAM_SCALE so n_docs · GRAM_SCALE² stays under 2^63 (the
    documented quantization/overflow trade; 1e6 is good to ~9e6 docs of
    unit-normed components)."""
    emb = _read(sf_dir, "embeddings", columns=["embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "i": pd.Series([], dtype="int64"),
                "j": pd.Series([], dtype="int64"),
                "s": pd.Series([], dtype="int64"),
            }
        )
        if df.empty:
            return empty
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(mat * GRAM_SCALE).astype(np.int64)
        g = q.T @ q
        iu, ju = np.triu_indices(g.shape[0])
        return pd.DataFrame(
            {"i": iu.astype(np.int64), "j": ju.astype(np.int64), "s": g[iu, ju]}
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.groupby(["i", "j"], as_index=False)["s"].sum()

    return global_prune(emb.map_batches(partial, batch_format="pandas"), combine)


EMBEDDING_GRAM_SQL = f"""
WITH q AS (
  SELECT vec_id,
         unnest(range(1, len(embedding) + 1)) AS pos,
         unnest(list_transform(CAST(embedding AS DOUBLE[]),
                               x -> CAST(FLOOR(x * {GRAM_SCALE}) AS BIGINT))) AS qx
  FROM embeddings
)
SELECT CAST(a.pos - 1 AS BIGINT) AS i,
       CAST(b.pos - 1 AS BIGINT) AS j,
       CAST(SUM(a.qx * b.qx) AS BIGINT) AS s
FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.pos <= b.pos
GROUP BY 1, 2
"""


# ==================================================== coverage_maxcover
#
# Greedy maximum-coverage data selection (the classic (1-1/e) greedy,
# the set-cover cousin of facility-location selection used for
# vocabulary-coverage curation): from an md5-ranked candidate pool of
# MC_N documents, pick MC_R documents one at a time, each maximizing
# the number of NOT-YET-COVERED distinct tokens (ties: lowest doc_id);
# stop early when the best marginal gain is 0. Emits one row per pick:
# (rank, doc_id, gain, covered_cum). Deterministic end to end — exact
# integer set sizes, md5 sampling, doc_id tie-breaks — so the oracle is
# an MC_R-round unrolled CTE chain (the _markov_sql device).
#
# Scale shape: the candidate pool flows through ONE `global_prune`
# (md5-ranked head, associative; block-count-independent driver
# collect); the greedy itself is driver set math over MC_N token sets,
# each bounded by its document's length. The corpus-wide token space is
# never touched — coverage is measured within the pool, which is the
# standard bounded-candidate formulation at 100 TB (raise MC_N, not the
# driver's asymptotics).

MC_N = 24
MC_R = 8


def q_coverage_maxcover(sf_dir: str):
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(r"[^ \t\n\r\f]+")

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        h = df["doc_id"].map(
            lambda i: hashlib.md5(f"mc:42:{int(i)}".encode()).hexdigest()
        )
        out = df.assign(_h=h).sort_values(["_h", "doc_id"], kind="mergesort")
        return out.head(MC_N)

    sample = global_prune(d, prune)
    cols = {"rank": np.int64, "doc_id": np.int64, "gain": np.int64,
            "covered_cum": np.int64}
    if not len(sample) or "doc_id" not in sample.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    sets = {
        int(r.doc_id): set(tok_re.findall(str(r.text).lower()))
        for r in sample.itertuples()
    }
    covered: set = set()
    rows = []
    remaining = dict(sets)
    for rank in range(1, MC_R + 1):
        if not remaining:
            break
        best_doc, best_gain = None, -1
        for did in sorted(remaining):
            gain = len(remaining[did] - covered)
            if gain > best_gain:
                best_doc, best_gain = did, gain
        if best_gain <= 0:
            break
        covered |= remaining.pop(best_doc)
        rows.append((rank, best_doc, best_gain, len(covered)))
    return pd.DataFrame(
        rows, columns=["rank", "doc_id", "gain", "covered_cum"]
    ).astype(cols)


def _maxcover_sql() -> str:
    """MC_R unrolled greedy rounds; round r scores every unpicked
    candidate by COUNT(DISTINCT uncovered tokens), picks by (gain DESC,
    doc_id ASC), and a zero-gain pick is suppressed by the HAVING."""
    parts = []
    picked_union = None
    covered_union = None
    selects = []
    for r in range(1, MC_R + 1):
        not_picked = (
            f"AND t.doc_id NOT IN (SELECT doc_id FROM {picked_union})"
            if picked_union else ""
        )
        not_covered = (
            f"AND t.token NOT IN (SELECT token FROM {covered_union})"
            if covered_union else ""
        )
        parts.append(
            f"p{r} AS MATERIALIZED (SELECT t.doc_id, CAST(COUNT(DISTINCT t.token) AS BIGINT)"
            f" AS gain FROM tok t WHERE TRUE {not_picked} {not_covered}"
            f" GROUP BY 1 HAVING COUNT(DISTINCT t.token) > 0"
            f" ORDER BY gain DESC, t.doc_id ASC LIMIT 1)"
        )
        new_picked = f"pk{r}"
        parts.append(
            f"pk{r} AS MATERIALIZED (SELECT doc_id FROM p{r}"
            + (f" UNION ALL SELECT doc_id FROM {picked_union}"
               if picked_union else "")
            + ")"
        )
        parts.append(
            f"cv{r} AS MATERIALIZED (SELECT DISTINCT token FROM tok"
            f" JOIN pk{r} USING (doc_id))"
        )
        selects.append(
            f"SELECT {r} AS rank, doc_id, gain,"
            f" (SELECT COUNT(*) FROM cv{r}) AS covered_cum FROM p{r}"
        )
        picked_union = new_picked
        covered_union = f"cv{r}"
    nl = ",\n"
    body = "\nUNION ALL\n".join(selects)
    return f"""
WITH r AS (
  SELECT doc_id, text,
         ROW_NUMBER() OVER (
           ORDER BY md5('mc:42:' || CAST(doc_id AS VARCHAR)), doc_id) AS rk
  FROM documents),
s AS (SELECT doc_id, text FROM r WHERE rk <= {MC_N}),
tok AS MATERIALIZED (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \\t\\n\\r\\f]+'))
           AS token
  FROM s),
{nl.join(parts)}
SELECT CAST(rank AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id,
       gain, CAST(covered_cum AS BIGINT) AS covered_cum
FROM ({body})
"""


SELECTION_SQL_QUERIES: dict[str, tuple] = {
    "coverage_maxcover": (q_coverage_maxcover, _maxcover_sql(), "backlog"),
    "coreset_kcenter": (q_coreset_kcenter, _kcenter_sql(), "ann"),
    "phrase_query": (q_phrase_query, PHRASE_QUERY_SQL, "backlog"),
    "exact_substr_spans": (q_exact_substr_spans, EXACT_SUBSTR_SPANS_SQL, "dedup"),
    "embedding_gram": (q_embedding_gram, EMBEDDING_GRAM_SQL, "ann"),
}
