"""Keyword-extraction operators (round-5 batch 58): RAKE rapid
keyword extraction (Rose et al. 2010 — stopword-delimited candidate
phrases scored by word degree/frequency), TextRank keyword scoring
(Mihalcea & Tarau 2004 — power iteration on the word-adjacency
graph, the HITS-style integer unroll), and lead coverage (the
summarization-bias metric: how much of a document's vocabulary its
first LEAD_K tokens already show) — the extraction layer a corpus
summarizer/tagger runs.

Determinization: RAKE word scores quantize ⌊100·deg/freq⌋ BEFORE
phrase summation (repo convention — no rational accumulates);
TextRank runs TR_ROUNDS undamped integer power iterations (score₀=1,
s←Σ neighbours — ranking-equivalent to the damped variant's ordering
on connected graphs at low round counts, documented); both rank ties
on the phrase/token string. Stopwords are a fixed 8-word set.

Scale idioms: word statistics and the word graph are VOCABULARY-
bounded — one coarse token/pair exchange each; phrase aggregation
keys on the phrase string (data-scaled but combiner-compressed);
top-K selection is global_prune; lead coverage is a pure per-batch
map.

Reference parity: the reference extracts text but never keywords
(europarl/rules/extraction.py); these extend the brief's
text-analysis family (tfidf_topk, pmi_collocations are siblings).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
from ray.data.aggregate import Sum

from .._util import read_table as _read, table_rows as _n_rows
from .grouping import global_prune, with_coarse_group as _with_coarse_group

TOK_RE = r"[^ \t\n\r\f]+"
STOPWORDS = ("the", "and", "of", "a", "in", "to", "is", "on")
RAKE_TOPK = 16
TR_ROUNDS = 2
TR_TOPK = 20
LEAD_K = 16


_STOP_SET = set(STOPWORDS)
_STOP_SQL = ", ".join(f"'{w}'" for w in STOPWORDS)


def _phrases_of(text: str, tok_re) -> list[list[str]]:
    out, cur = [], []
    for t in tok_re.findall(str(text).lower()):
        if t in _STOP_SET:
            if cur:
                out.append(cur)
                cur = []
        else:
            cur.append(t)
    if cur:
        out.append(cur)
    return out


# ======================================================== rake_keywords
#
# Word stats over all candidate phrases: freq(w) = occurrences,
# deg(w) = Σ phrase length over w's occurrences; wscore_x100 =
# ⌊100·deg/freq⌋. A phrase's score is the sum of its words'
# quantized scores (with multiplicity); identical phrases aggregate.
# Output: top RAKE_TOPK (phrase, n_occurrences, score_x100).


def q_rake_keywords(sf_dir: str):
    empty = pd.DataFrame(
        {
            "phrase": pd.Series(dtype=object),
            "n_occurrences": pd.Series(dtype=np.int64),
            "score_x100": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(TOK_RE)

    # pass 1: vocabulary-bounded word stats
    def wstats(df: pd.DataFrame) -> pd.DataFrame:
        freq: dict[str, int] = {}
        deg: dict[str, int] = {}
        for text in df["text"]:
            for ph in _phrases_of(text, tok_re):
                ln = len(ph)
                for w in ph:
                    freq[w] = freq.get(w, 0) + 1
                    deg[w] = deg.get(w, 0) + ln
        return pd.DataFrame(
            {
                "token": np.array(list(freq.keys()), dtype=object),
                "f": np.fromiter(freq.values(), np.int64, len(freq)),
                "g": np.fromiter(
                    (deg[w] for w in freq), np.int64, len(freq)
                ),
            }
        )

    agg = (
        d.map_batches(wstats, batch_format="pandas")
        .groupby("token")
        .aggregate(Sum("f", alias_name="f"), Sum("g", alias_name="g"))
        .to_pandas()  # vocabulary-bounded
    )
    ws = {
        r["token"]: 100 * int(r["g"]) // int(r["f"])
        for _, r in agg.iterrows()
    }

    # pass 2: phrase aggregation with broadcast word scores
    def phrases(df: pd.DataFrame) -> pd.DataFrame:
        cnt: dict[str, int] = {}
        sc: dict[str, int] = {}
        for text in df["text"]:
            for ph in _phrases_of(text, tok_re):
                key = " ".join(ph)
                cnt[key] = cnt.get(key, 0) + 1
                if key not in sc:
                    sc[key] = sum(ws[w] for w in ph)
        return pd.DataFrame(
            {
                "phrase": np.array(list(cnt.keys()), dtype=object),
                "n": np.fromiter(cnt.values(), np.int64, len(cnt)),
                "s": np.fromiter(
                    (sc[k] for k in cnt), np.int64, len(cnt)
                ),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop(columns=["_g"])
        out = t.groupby("phrase", as_index=False).agg(
            n=("n", "sum"), s=("s", "max")
        )
        return out

    ph = (
        _with_coarse_group(
            d.map_batches(phrases, batch_format="pandas"), "phrase"
        )
        .groupby("_g")
        .map_groups(combine, batch_format="pandas")
    )

    def head(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["s", "phrase"], ascending=[False, True], kind="mergesort"
        ).head(RAKE_TOPK)

    top = global_prune(ph, head)
    if not len(top):
        return empty
    top = top.sort_values(
        ["s", "phrase"], ascending=[False, True], kind="mergesort"
    ).head(RAKE_TOPK)
    return pd.DataFrame(
        {
            "phrase": top["phrase"].to_numpy(object),
            "n_occurrences": top["n"].to_numpy(np.int64),
            "score_x100": top["s"].to_numpy(np.int64),
        }
    ).reset_index(drop=True)


RAKE_KEYWORDS_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents),
t AS (
  SELECT doc_id, CAST(i.i AS BIGINT) AS j, ws[CAST(i.i AS INTEGER)] AS tok
  FROM w, unnest(range(1, len(ws) + 1)) AS i(i)),
flag AS (
  SELECT doc_id, j, tok,
         CASE WHEN tok IN ({_STOP_SQL}) THEN 1 ELSE 0 END AS stop
  FROM t),
runs AS (
  -- rid must count stop tokens BEFORE filtering them out: a window
  -- over the filtered rows sums only zeros and never splits a run
  SELECT doc_id, j, tok, rid FROM (
    SELECT doc_id, j, tok, stop,
           COALESCE(SUM(stop) OVER (
             PARTITION BY doc_id ORDER BY j
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0) AS rid
    FROM flag) WHERE stop = 0),
ph AS (
  SELECT doc_id, rid,
         string_agg(tok, ' ' ORDER BY j) AS phrase,
         CAST(COUNT(*) AS BIGINT) AS ln
  FROM runs GROUP BY 1, 2),
occ AS (
  SELECT runs.tok, ph.ln
  FROM runs JOIN ph ON ph.doc_id = runs.doc_id AND ph.rid = runs.rid),
wsco AS (
  SELECT tok, CAST(100 * SUM(ln) // COUNT(*) AS BIGINT) AS s
  FROM occ GROUP BY 1),
psc AS (
  SELECT ph.phrase, CAST(COUNT(DISTINCT ph.doc_id || '-' || ph.rid) AS BIGINT)
           AS n_occurrences,
         CAST(MAX(ssum.s) AS BIGINT) AS score_x100
  FROM ph
  JOIN (
    SELECT runs.doc_id, runs.rid, CAST(SUM(wsco.s) AS BIGINT) AS s
    FROM runs JOIN wsco ON wsco.tok = runs.tok
    GROUP BY 1, 2) ssum
    ON ssum.doc_id = ph.doc_id AND ssum.rid = ph.rid
  GROUP BY 1)
SELECT phrase, n_occurrences, score_x100 FROM (
  SELECT phrase, n_occurrences, score_x100,
         ROW_NUMBER() OVER (ORDER BY score_x100 DESC, phrase ASC) AS rn
  FROM psc) WHERE rn <= {RAKE_TOPK}
"""


# ===================================================== textrank_keywords
#
# The word-adjacency graph (distinct adjacent non-stopword pairs,
# symmetrized, globally deduped); TR_ROUNDS integer power iterations
# from score₀ = 1. Output: top TR_TOPK (token, score).


def q_textrank_keywords(sf_dir: str):
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype=object),
            "score": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(TOK_RE)

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        es = set()
        for text in df["text"]:
            for ph in _phrases_of(text, tok_re):
                for a, b in zip(ph, ph[1:]):
                    if a != b:
                        es.add((min(a, b), max(a, b)))
        if not es:
            return pd.DataFrame(
                {
                    "u": pd.Series(dtype=object),
                    "v": pd.Series(dtype=object),
                }
            )
        u, v = zip(*sorted(es))
        return pd.DataFrame(
            {"u": np.array(u, object), "v": np.array(v, object)}
        )

    # global dedup inside the u-keyed group (vocab-bounded graph)
    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop(columns=["_g"]).drop_duplicates(["u", "v"])

    e = (
        _with_coarse_group(
            d.map_batches(edges, batch_format="pandas"), "u"
        )
        .groupby("_g")
        .map_groups(dedup, batch_format="pandas")
        .to_pandas()  # vocabulary-bounded edge list
    )
    if not len(e):
        return empty
    adj: dict[str, list] = {}
    for a, b in zip(e["u"], e["v"]):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    score = {w: 1 for w in adj}
    for _ in range(TR_ROUNDS):
        score = {
            w: sum(score[x] for x in nbrs) for w, nbrs in adj.items()
        }
    top = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:TR_TOPK]
    return pd.DataFrame(
        {
            "token": [t for t, _ in top],
            "score": np.array([s for _, s in top], np.int64),
        }
    )


def _textrank_sql() -> str:
    parts = [
        rf"""WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents),
t AS (
  SELECT doc_id, CAST(i.i AS BIGINT) AS j, ws[CAST(i.i AS INTEGER)] AS tok
  FROM w, unnest(range(1, len(ws) + 1)) AS i(i)),
flag AS (
  SELECT doc_id, j, tok,
         CASE WHEN tok IN ({_STOP_SQL}) THEN 1 ELSE 0 END AS stop
  FROM t),
runs AS (
  -- rid must count stop tokens BEFORE filtering them out: a window
  -- over the filtered rows sums only zeros and never splits a run
  SELECT doc_id, j, tok, rid FROM (
    SELECT doc_id, j, tok, stop,
           COALESCE(SUM(stop) OVER (
             PARTITION BY doc_id ORDER BY j
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0) AS rid
    FROM flag) WHERE stop = 0),
adjp AS (
  SELECT DISTINCT LEAST(a.tok, b.tok) AS u, GREATEST(a.tok, b.tok) AS v
  FROM runs a JOIN runs b
    ON b.doc_id = a.doc_id AND b.rid = a.rid AND b.j = a.j + 1
  WHERE a.tok <> b.tok),
e0 AS (SELECT u, v FROM adjp UNION SELECT v, u FROM adjp),
s0 AS (SELECT DISTINCT u AS tok, CAST(1 AS HUGEINT) AS s FROM e0)"""
    ]
    for r in range(1, TR_ROUNDS + 1):
        parts.append(
            f"""s{r} AS (
  SELECT e0.u AS tok, CAST(SUM(s{r - 1}.s) AS HUGEINT) AS s
  FROM e0 JOIN s{r - 1} ON s{r - 1}.tok = e0.v
  GROUP BY 1)"""
        )
    parts.append(
        f"""SELECT tok AS token, CAST(s AS BIGINT) AS score FROM (
  SELECT tok, s, ROW_NUMBER() OVER (ORDER BY s DESC, tok ASC) AS rn
  FROM s{TR_ROUNDS}) WHERE rn <= {TR_TOPK}"""
    )
    head = ",\n".join(parts[:-1])
    return head + "\n" + parts[-1]


# ========================================================= lead_coverage
#
# Per doc: |distinct(first LEAD_K tokens)|, |distinct(all)|, and
# coverage ×100 — how much vocabulary the lead already shows (the
# lead-bias number extractive summarization debates revolve around).


def q_lead_coverage(sf_dir: str):
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype=np.int64),
            "n_distinct": pd.Series(dtype=np.int64),
            "lead_distinct": pd.Series(dtype=np.int64),
            "coverage_x100": pd.Series(dtype=np.int64),
        }
    )
    if _n_rows(sf_dir, "documents") == 0:
        return empty
    d = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(TOK_RE)

    def cov(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, text in zip(
            df["doc_id"].to_numpy(np.int64), df["text"].astype(str)
        ):
            ws = tok_re.findall(text.lower())
            nd = len(set(ws))
            ld = len(set(ws[:LEAD_K]))
            rows.append(
                (int(did), nd, ld, 100 * ld // nd if nd else 0)
            )
        return pd.DataFrame(
            rows,
            columns=["doc_id", "n_distinct", "lead_distinct", "coverage_x100"],
        ).astype(np.int64)

    return d.map_batches(cov, batch_format="pandas")


LEAD_COVERAGE_SQL = rf"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOK_RE}') AS ws
  FROM documents)
SELECT doc_id,
       CAST(len(list_distinct(ws)) AS BIGINT) AS n_distinct,
       CAST(len(list_distinct(ws[1:{LEAD_K}])) AS BIGINT) AS lead_distinct,
       CAST(CASE WHEN len(list_distinct(ws)) > 0
                 THEN 100 * len(list_distinct(ws[1:{LEAD_K}]))
                      // len(list_distinct(ws))
                 ELSE 0 END AS BIGINT) AS coverage_x100
FROM w
"""


KEYWORD_SQL_QUERIES: dict[str, tuple] = {
    "rake_keywords": (q_rake_keywords, RAKE_KEYWORDS_SQL),
    "textrank_keywords": (q_textrank_keywords, _textrank_sql()),
    "lead_coverage": (q_lead_coverage, LEAD_COVERAGE_SQL),
}
