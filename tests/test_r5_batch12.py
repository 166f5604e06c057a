"""Tests for the round-5 batch-12 graph operators (webgraph_ops):
neighbor_degree, rich_club, edge_homophily — DuckDB-oracle parity plus
a dict-and-set brute force over the same synthetic lnkk:42 edge rule
on a small doc table."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.queries import internal_edges_np
from europarl_crawler_ray.pipelines.webgraph_ops import (
    EDGE_HOMOPHILY_SQL,
    NEIGHBOR_DEGREE_SQL,
    RC_K,
    RICH_CLUB_SQL,
    q_edge_homophily,
    q_neighbor_degree,
    q_rich_club,
)

N_DOCS = 60


def _write_docs(d, n=N_DOCS):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(["t"] * n, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(
                    [f"s{i % 3}" for i in range(n)], pa.string()
                ),
                "n_chars": pa.array([1] * n, pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )


def _oracle(d, sql):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{d}/documents.parquet')"
    )
    return con.execute(sql).fetchdf()


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _parity(ray_df, sql_df):
    pd.testing.assert_frame_equal(
        _canon(ray_df), _canon(sql_df), check_dtype=False
    )


def _unwrap(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def _undirected_adj(n=N_DOCS):
    src, dst = internal_edges_np(list(range(n)), n, drop_self=True)
    adj: dict[int, set] = {}
    for a, b in zip(src.tolist(), dst.tolist()):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def test_neighbor_degree_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_neighbor_degree(str(tmp_path))).set_index("degree")

    adj = _undirected_adj()
    deg = {v: len(ns) for v, ns in adj.items()}
    acc: dict[int, list] = {}
    for v, ns in adj.items():
        for u in ns:  # one half-edge per (v -> u)
            acc.setdefault(deg[v], []).append(deg[u])
    for d_val, nbrs in acc.items():
        row = got.loc[d_val]
        assert int(row["n_half_edges"]) == len(nbrs)
        assert int(row["avg_nbr_deg_ppm"]) == sum(nbrs) * 1_000_000 // len(nbrs)
    assert set(got.index) == set(acc)

    _parity(got.reset_index(), _oracle(tmp_path, NEIGHBOR_DEGREE_SQL))


def test_rich_club_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_rich_club(str(tmp_path)))

    adj = _undirected_adj()
    deg = {v: len(ns) for v, ns in adj.items()}
    rich = {v for v, dv in deg.items() if dv > RC_K}
    e_rich = sum(
        1 for v in rich for u in adj[v] if u in rich and v < u
    )
    n_rich = len(rich)
    phi = (
        1_000_000 * 2 * e_rich // (n_rich * (n_rich - 1))
        if n_rich > 1 else 0
    )
    assert int(got["n_rich"].iloc[0]) == n_rich
    assert int(got["n_edges_rich"].iloc[0]) == e_rich
    assert int(got["phi_ppm"].iloc[0]) == phi
    assert n_rich > 1  # the synthetic graph must actually have a club

    _parity(got, _oracle(tmp_path, RICH_CLUB_SQL))


def test_edge_homophily_brute_force_and_parity(ray_session, tmp_path):
    _write_docs(tmp_path)
    got = _unwrap(q_edge_homophily(str(tmp_path)))

    src, dst = internal_edges_np(list(range(N_DOCS)), N_DOCS, drop_self=True)
    pairs = set(zip(src.tolist(), dst.tolist()))  # directed distinct
    mix: dict[tuple, int] = {}
    for a, b in pairs:
        key = (f"s{a % 3}", f"s{b % 3}")
        mix[key] = mix.get(key, 0) + 1
    total = sum(mix.values())
    g = got.set_index(["src_source", "dst_source"])
    for key, n in mix.items():
        assert int(g.loc[key, "n_edges"]) == n
        assert int(g.loc[key, "share_bp"]) == n * 10000 // total
    assert len(got) == len(mix)

    _parity(got, _oracle(tmp_path, EDGE_HOMOPHILY_SQL))
