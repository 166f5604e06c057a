"""Tests for the round-5 batch-56 focused-crawl operators
(focusedcrawl_ops): shark_search, fish_search, harvest_rate — DuckDB
parity plus brute force on the derived link graph. Pins: Shark's
inherited score matches a hand-rolled max-halving propagation and is
0 wherever no ancestor within range is relevant; Fish depths match a
BFS from the seed set (seeds 0, unreached −1); the harvest curve is
a correct cumulative ratio.
"""

from __future__ import annotations

import hashlib
import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.focusedcrawl_ops import (
    HARVEST_WAVES,
    REL_T,
    REL_TERM,
    SHARK_ROUNDS,
    _fish_sql,
    _harvest_sql,
    _shark_sql,
    q_fish_search,
    q_harvest_rate,
    q_shark_search,
)

N_DOCS = 90
TOK = re.compile(r"[^ \t\n\r\f]+")


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _texts(n=N_DOCS):
    """Every 9th doc is strongly relevant (term tf = 3); others not."""
    out = []
    for i in range(n):
        words = ["filler", f"w{i % 7}"]
        if i % 9 == 0:
            words += [REL_TERM] * 3
        out.append(" ".join(words))
    return out


def _write(d, n=N_DOCS):
    texts = _texts(n)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(["s"] * n, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )


def _edges(n):
    es = set()
    for v in range(n):
        k = 1 + _md5_64(f"lnkk:42:{v}") % 4
        for j in range(1, k + 1):
            t = (v * 37 + j * 101) % n
            if t != v:
                es.add((v, t))
    return es


def _rel(n):
    return {
        i: (3 if i % 9 == 0 else 0) for i in range(n)
    }


def _oracle(d, sql):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{d}/documents.parquet')"
    )
    return con.execute(sql).fetchdf()


def _canon(df):
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _parity(ray_df, sql_df):
    pd.testing.assert_frame_equal(
        _canon(ray_df), _canon(sql_df), check_dtype=False
    )


def _unwrap(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def test_shark_brute_force_and_parity(ray_session, tmp_path):
    _write(tmp_path)
    got = _unwrap(q_shark_search(str(tmp_path)))
    es = _edges(N_DOCS)
    rel = _rel(N_DOCS)
    parents = {}
    for a, b in es:
        parents.setdefault(b, []).append(a)
    inh = {v: 0 for v in range(N_DOCS)}
    for _ in range(SHARK_ROUNDS):
        inh = {
            v: max(
                ((rel[p] + inh[p]) // 2 for p in parents.get(v, [])),
                default=0,
            )
            for v in range(N_DOCS)
        }
    gotmap = {
        int(r["doc_id"]): int(r["inherited"]) for _, r in got.iterrows()
    }
    assert gotmap == inh
    # somewhere a relevant parent leaked score downstream
    assert any(v > 0 for v in inh.values())
    _parity(got, _oracle(tmp_path, _shark_sql()))


def test_fish_bfs_depths_and_parity(ray_session, tmp_path):
    _write(tmp_path)
    got = _unwrap(q_fish_search(str(tmp_path)))
    es = _edges(N_DOCS)
    rel = _rel(N_DOCS)
    out = {}
    for a, b in es:
        out.setdefault(a, []).append(b)
    depth = {v: (0 if rel[v] >= REL_T else None) for v in range(N_DOCS)}
    frontier = [v for v in range(N_DOCS) if depth[v] == 0]
    for d in range(1, SHARK_ROUNDS + 1):
        nxt = []
        for v in frontier:
            for w in out.get(v, []):
                if depth[w] is None:
                    depth[w] = d
                    nxt.append(w)
        frontier = nxt
    gotmap = {
        int(r["doc_id"]): int(r["potential_depth"])
        for _, r in got.iterrows()
    }
    assert gotmap == {
        v: (depth[v] if depth[v] is not None else -1)
        for v in range(N_DOCS)
    }
    # seeds at 0 and genuinely-propagated depths both present (the
    # dense small-world graph reaches everything within 3 hops, so no
    # −1 is expected HERE; unreached handling is covered by gotmap ==)
    assert 0 in gotmap.values() and max(gotmap.values()) >= 2
    _parity(got, _oracle(tmp_path, _fish_sql()))


def test_harvest_cumulative_and_parity(ray_session, tmp_path):
    _write(tmp_path)
    got = _unwrap(q_harvest_rate(str(tmp_path)))
    width = N_DOCS // HARVEST_WAVES + 1
    rel = _rel(N_DOCS)
    waves = {}
    for v in range(N_DOCS):
        w = v // width
        n, r = waves.get(w, (0, 0))
        waves[w] = (n + 1, r + (1 if rel[v] >= REL_T else 0))
    cn = cr = 0
    for _, row in got.sort_values("wave").iterrows():
        w = int(row["wave"])
        n, r = waves[w]
        assert (int(row["n_docs"]), int(row["n_relevant"])) == (n, r)
        cn += n
        cr += r
        assert int(row["cum_harvest_x1e6"]) == 10**6 * cr // cn
    _parity(got, _oracle(tmp_path, _harvest_sql()))
