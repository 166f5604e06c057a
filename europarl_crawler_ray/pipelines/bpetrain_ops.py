"""Distributed BPE merge learning (round-5 batch 32): the first
BPE_MERGES byte-pair-encoding merges of the corpus (Sennrich, Haddow,
Birch 2016) — THE tokenizer-construction computation a 100-TB
training-data pipeline runs before anything else, learned here as a
sequence of bounded distributed rounds.

Algorithm (word-level BPE over the type vocabulary, standard):
  vocab   = {lowercased token → frequency}; each word is a sequence
            of codepoint symbols.
  round r = count adjacent symbol pairs weighted by word frequency →
            argmax (count DESC, pair ASC) → merge every disjoint
            occurrence of the pair left-to-right in every word.
The merge application is expressed as the identical two-pass padded
string replace on BOTH engines (' a b ' → ' ab ' twice): the first
pass consumes separator spaces and can skip an immediately abutting
occurrence; the second pass — whose pending occurrences are provably
isolated by already-merged tokens — completes them, yielding exactly
the greedy disjoint-merge semantics (unit-pinned against a list-walk
brute force, including the 'a a a a' self-pair run case).

Scale shape: the vocabulary (types, not tokens) is the working set —
one coarse word exchange builds it; each round is ONE coarse pair
exchange (exact pair counts in-task) → argmax via global_prune (O(1)
driver rows) → a broadcast 2-string merge applied per batch → a
materialize so round r+1 reads blocks, not lineage. Driver holds K
pairs, never a vocabulary.

Reference parity: the reference has no tokenizer surface; this
extends the brief's text-analysis / training-prep families
(bpe_token_stats applies FIXED merges; this op LEARNS them).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .._util import read_table as _read
from .grouping import global_prune, with_coarse_group as _with_coarse_group

BPE_MERGES = 8
_BPE_TOKEN_RE = r"[^ \t\n\r\f]+"


def _apply_merge(s: str, pa_: str, pb_: str) -> str:
    """Two-pass padded replace — the exact expression the SQL oracle
    uses (replace(replace(' '||s||' ', pat, rep), pat, rep))."""
    pat = f" {pa_} {pb_} "
    rep = f" {pa_}{pb_} "
    return (" " + s + " ").replace(pat, rep).replace(pat, rep).strip(" ")


def q_bpe_learn(sf_dir: str, n_merges: int = BPE_MERGES):
    d = _read(sf_dir, "documents", columns=["text"])
    tok_re = re.compile(_BPE_TOKEN_RE)
    empty = pd.DataFrame(
        {
            "round": pd.Series(dtype=np.int64),
            "pa": pd.Series(dtype=object),
            "pb": pd.Series(dtype=object),
            "n": pd.Series(dtype=np.int64),
            "corpus_symbols": pd.Series(dtype=np.int64),
        }
    )

    # ---- vocabulary: one coarse word exchange → (sym string, freq)
    def word_counts(df: pd.DataFrame) -> pd.DataFrame:
        rec: dict[str, int] = {}
        for t in df["text"]:
            for tok in tok_re.findall(str(t).lower()):
                rec[tok] = rec.get(tok, 0) + 1
        return pd.DataFrame(
            {
                "word": pd.Series(list(rec), dtype=object),
                "n_part": pd.Series(list(rec.values()), dtype=np.int64),
            }
        )

    def to_syms(g: pd.DataFrame) -> pd.DataFrame:
        t = (
            g.drop(columns=["_g"])
            .groupby("word", as_index=False)["n_part"]
            .sum()
        )
        return pd.DataFrame(
            {
                "s": [" ".join(list(w)) for w in t["word"]],
                "freq": t["n_part"].astype(np.int64),
            }
        )

    vocab = (
        _with_coarse_group(
            d.map_batches(word_counts, batch_format="pandas"), "word"
        )
        .groupby("_g")
        .map_groups(to_syms, batch_format="pandas")
        .materialize()
    )

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        rec: dict[tuple, int] = {}
        for s, f in zip(df["s"], df["freq"].to_numpy(np.int64)):
            ws = s.split(" ")
            for a, b in zip(ws, ws[1:]):
                rec[(a, b)] = rec.get((a, b), 0) + int(f)
        if not rec:
            return pd.DataFrame(
                {
                    "pa": pd.Series(dtype=object),
                    "pb": pd.Series(dtype=object),
                    "n_part": pd.Series(dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "pa": pd.Series([k[0] for k in rec], dtype=object),
                "pb": pd.Series([k[1] for k in rec], dtype=object),
                "n_part": pd.Series(list(rec.values()), dtype=np.int64),
            }
        )

    def exact_counts(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop(columns=["_g"])
            .groupby(["pa", "pb"], as_index=False)["n_part"]
            .sum()
        )

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "pa" not in df.columns:
            return df
        return df.sort_values(
            ["n_part", "pa", "pb"], ascending=[False, True, True]
        ).head(1)

    def add_pk(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["pk"] = out["pa"].astype(str) + "\x1f" + out["pb"].astype(str)
        return out

    rows = []
    for r in range(1, n_merges + 1):
        counts = (
            _with_coarse_group(
                vocab.map_batches(pair_partial, batch_format="pandas")
                .map_batches(add_pk, batch_format="pandas"),
                "pk",
            )
            .groupby("_g")
            .map_groups(exact_counts, batch_format="pandas")
        )
        best = global_prune(counts, top1)
        if not len(best):
            break
        pa_ = str(best["pa"].iloc[0])
        pb_ = str(best["pb"].iloc[0])
        n = int(best["n_part"].iloc[0])

        def apply(df: pd.DataFrame, _a=pa_, _b=pb_) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "s": [_apply_merge(s, _a, _b) for s in df["s"]],
                    "freq": df["freq"].astype(np.int64),
                }
            )

        vocab = vocab.map_batches(apply, batch_format="pandas").materialize()

        def sym_part(df: pd.DataFrame) -> pd.DataFrame:
            c = sum(
                (s.count(" ") + 1) * int(f)
                for s, f in zip(df["s"], df["freq"].to_numpy(np.int64))
            )
            return pd.DataFrame({"c_part": [c]}).astype(np.int64)

        n_sym = int(
            vocab.map_batches(sym_part, batch_format="pandas").sum("c_part")
        )
        rows.append(
            {"round": r, "pa": pa_, "pb": pb_, "n": n, "corpus_symbols": n_sym}
        )
    if not rows:
        return empty
    out = pd.DataFrame(rows)
    out["round"] = out["round"].astype(np.int64)
    out["n"] = out["n"].astype(np.int64)
    out["corpus_symbols"] = out["corpus_symbols"].astype(np.int64)
    return out


def _bpe_sql(n_merges: int = BPE_MERGES) -> str:
    parts = [
        rf"""v0 AS MATERIALIZED (
  SELECT array_to_string(string_split_regex(word, ''), ' ') AS s,
         CAST(COUNT(*) AS BIGINT) AS freq
  FROM (SELECT unnest(regexp_extract_all(lower(text),
                                         '[^ \t\n\r\f]+')) AS word
        FROM documents)
  GROUP BY 1)"""
    ]
    for r in range(1, n_merges + 1):
        parts.append(
            f"""c{r} AS MATERIALIZED (
  SELECT p[1] AS pa, p[2] AS pb, CAST(SUM(freq) AS BIGINT) AS n
  FROM (SELECT unnest(list_transform(range(1, len(ws)),
                                     i -> [ws[i], ws[i+1]])) AS p, freq
        FROM (SELECT string_split(s, ' ') AS ws, freq FROM v{r - 1}))
  GROUP BY 1, 2)"""
        )
        parts.append(
            f"""m{r} AS MATERIALIZED (
  SELECT CAST({r} AS BIGINT) AS round, pa, pb, n
  FROM c{r} ORDER BY n DESC, pa ASC, pb ASC LIMIT 1)"""
        )
        parts.append(
            f"""v{r} AS MATERIALIZED (
  SELECT trim(replace(replace(' ' || v.s || ' ',
                              ' ' || m.pa || ' ' || m.pb || ' ',
                              ' ' || m.pa || m.pb || ' '),
                      ' ' || m.pa || ' ' || m.pb || ' ',
                      ' ' || m.pa || m.pb || ' '), ' ') AS s, v.freq
  FROM v{r - 1} v, m{r} m)"""
        )
        parts.append(
            f"""t{r} AS MATERIALIZED (
  SELECT CAST(SUM(freq * len(string_split(s, ' '))) AS BIGINT) AS n_sym
  FROM v{r})"""
        )
    sel = "\nUNION ALL\n".join(
        f"SELECT m.round, m.pa, m.pb, m.n, t.n_sym AS corpus_symbols"
        f" FROM m{r} m, t{r} t"
        for r in range(1, n_merges + 1)
    )
    return "WITH " + ",\n".join(parts) + "\n" + sel


BPE_LEARN_SQL = _bpe_sql()


BPETRAIN_SQL_QUERIES: dict[str, tuple] = {
    "bpe_learn": (q_bpe_learn, BPE_LEARN_SQL),
}
