"""Dev harness emulating the graft driver's correctness gate: run each
queries() entry and its oracle_sql() side by side, compare row count,
column names, and order-insensitive values.

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _rank_tie_equal(ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> bool:
    """Tie-swap tolerance for ranked top-k outputs (ADVICE r3 low #4):
    two members whose float scores agree to the last ulp can receive
    swapped ranks across engines (the score itself is not in the output,
    so value comparison can't absorb it). Accept iff (a) the frames are
    identical once ``rank`` is dropped — membership and every other
    column still exact — and (b) within each rank-scope group (the
    non-rank, non-member-id columns, e.g. query_id) the rank MULTISET is
    identical. Ordering errors beyond a permutation of ranks among the
    same members still fail."""
    cols = sorted(ray_df.columns)
    if "rank" not in cols or sorted(sql_df.columns) != cols or len(ray_df) != len(sql_df):
        return False
    others = [c for c in cols if c != "rank"]

    def key(df):
        k = df[others].copy()
        for c in others:
            k[c] = k[c].astype(str)
        return k.sort_values(others, kind="mergesort").reset_index(drop=True)

    if not key(ray_df).equals(key(sql_df)):
        return False
    # rank-scope = columns that are constant across a tie swap: everything
    # except rank and the member id (heuristically the highest-cardinality
    # other column — vec_id/doc_id-like); empty scope = one global group
    card = {c: ray_df[c].astype(str).nunique() for c in others}
    member = max(card, key=card.get)
    scope = [c for c in others if c != member]

    def rank_sets(df):
        if not scope:
            return {(): sorted(df["rank"].astype(str).tolist())}
        g = df.groupby([df[c].astype(str) for c in scope])["rank"]
        return {k: sorted(v.astype(str).tolist()) for k, v in g}

    if rank_sets(ray_df) != rank_sets(sql_df):
        return False
    # a tie flips a handful of assignments; a systematic ordering bug
    # (e.g. reversed ranks — same multiset!) flips most of them. Cap the
    # tolerated mismatch count so only genuine near-ties slip through.
    full = others + ["rank"]

    def assign(df):
        k = df[full].copy()
        for c in full:
            k[c] = k[c].astype(str)
        return set(map(tuple, k.to_numpy()))

    n_mismatch = len(assign(ray_df) - assign(sql_df))
    return n_mismatch <= 4


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns {sorted(ray_df.columns)} vs {sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows {len(ray_df)} vs {len(sql_df)}")
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if np.issubdtype(av.dtype, np.floating):
                ok = np.allclose(av.astype(float), bv.astype(float), rtol=1e-9, equal_nan=True)
            else:
                ok = (pd.Series(av).astype(str) == pd.Series(bv).astype(str)).all()
            if not ok:
                bad = np.nonzero(pd.Series(av).astype(str).to_numpy() != pd.Series(bv).astype(str).to_numpy())[0][:3]
                problems.append(f"col {c} differs, e.g. rows {bad.tolist()}: ray={av[bad]} sql={bv[bad]}")
    if problems and _rank_tie_equal(ray_df, sql_df):
        print(f"note {name}: rank tie-swap tolerated (membership + rank multisets exact)")
        return []
    return problems


def main():
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    # the registry of the checkout this script lives in
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry

    qs, sqls = entry.queries(), entry.oracle_sql()
    failures = 0
    for name in sorted(only - set(qs)):
        print(f"FAIL {name}: unknown query")
        failures += 1
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL {name}: ray error {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows)")
            continue
        try:
            sql_df = con.execute(sqls[name]).fetchdf()
        except Exception as exc:
            print(f"FAIL {name}: sql error {exc}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
        else:
            print(f"ok   {name}: {len(ray_df)} rows match")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
