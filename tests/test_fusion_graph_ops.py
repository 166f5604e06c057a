"""Brute-force pins for the round-4 third-session operators
butterfly_count (bipartite 4-cycle census) and closeness_pivots. Each is checked against a
straight-line pandas/python reimplementation on the real sf0.001
tables — independent of the SQL oracle, so a shared misconception
in both engines would still be caught here.
DuckDB-oracle parity runs in TestLastBatchOracleParity."""

import numpy as np
import pandas as pd
import pytest

from europarl_crawler_ray.pipelines.webgraph_ops import q_butterfly_count


def _pdf(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


class TestButterfly:
    def test_brute_force(self, ray_session, sf_dir):
        got = _pdf(q_butterfly_count(sf_dir))
        orders = pd.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
        )
        items = pd.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
        )
        cp = (
            items.merge(orders, left_on="l_orderkey", right_on="o_orderkey")[
                ["o_custkey", "l_partkey"]
            ]
            .drop_duplicates()
            .rename(columns={"o_custkey": "c", "l_partkey": "p"})
        )
        pairs = cp.merge(cp, on="p")
        pairs = pairs[pairs["c_x"] < pairs["c_y"]]
        n_wedges = len(pairs)
        cnt = pairs.groupby(["c_x", "c_y"]).size().to_numpy(np.int64)
        n_butterflies = int((cnt * (cnt - 1) // 2).sum())
        assert int(got["n_wedges"].iloc[0]) == n_wedges
        assert int(got["n_butterflies"].iloc[0]) == n_butterflies
        assert n_butterflies > 0  # the fixture actually exercises 4-cycles

    def test_cross_block_pair_dedup(self, ray_session, tmp_path):
        """A (cust, part) edge reachable through MANY orders must count
        once: 8 orders by the same customer all containing the same part
        (spread across blocks) contribute zero wedges alone."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        d = tmp_path / "sf"
        d.mkdir()
        n = 8
        # customer 1 buys part 7 via every order; customers 2 and 3 each
        # buy parts 7 and 9 once → exactly one butterfly (pair 2-3)
        ok = list(range(n))
        pk = [7] * n
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array(list(range(n)) + [100, 101], pa.int64()),
                    "o_custkey": pa.array(
                        list([1] * n) + [2, 3], pa.int64()
                    ),
                }
            ),
            d / "orders.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(ok + [100, 101, 100, 101], pa.int64()),
                    "l_partkey": pa.array(pk + [7, 7, 9, 9], pa.int64()),
                }
            ),
            d / "lineitem.parquet",
        )
        got = _pdf(q_butterfly_count(str(d)))
        # distinct edges: (1,7) (2,9) (3,9) (2,7) (3,7)
        # part 7 wedges: (1,2) (1,3) (2,3); part 9 wedges: (2,3)
        assert int(got["n_wedges"].iloc[0]) == 4
        # pair (2,3) shares parts {7, 9} → exactly one butterfly
        assert int(got["n_butterflies"].iloc[0]) == 1


class TestClosenessPivots:
    def test_matches_bruteforce_bfs(self, ray_session, sf_dir):
        import hashlib
        from collections import deque

        import pandas as pd

        from europarl_crawler_ray.pipelines.webgraph_ops import (
            CP_MAX_DEPTH,
            CP_PIVOTS,
            q_closeness_pivots,
        )
        from europarl_crawler_ray.pipelines.queries import internal_edges_np

        docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        ids = docs["doc_id"].to_numpy(np.int64)
        n_docs = len(ids)
        src, dst = internal_edges_np(ids, n_docs)
        adj: dict[int, list[int]] = {}
        for s, d in zip(src.tolist(), dst.tolist()):
            adj.setdefault(s, []).append(d)
        md5s = np.array(
            [hashlib.md5(f"cp:{int(v)}".encode()).hexdigest() for v in ids]
        )
        pivots = sorted(int(ids[i]) for i in np.argsort(md5s)[:CP_PIVOTS])
        out = q_closeness_pivots(sf_dir).set_index("pivot")
        assert sorted(out.index) == pivots
        for p in pivots:
            dist = {p: 0}
            dq = deque([p])
            while dq:
                u = dq.popleft()
                if dist[u] >= CP_MAX_DEPTH:
                    continue
                for v in adj.get(u, []):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        dq.append(v)
            n_r, s_d = len(dist), sum(dist.values())
            assert int(out.loc[p, "n_reached"]) == n_r
            assert int(out.loc[p, "sum_dist"]) == s_d
            exp = (n_r - 1) * 1_000_000 // s_d if s_d else -1
            assert int(out.loc[p, "closeness_mbp"]) == exp
