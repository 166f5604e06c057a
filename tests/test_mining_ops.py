"""Tests for pipelines/mining_ops.py: redirect-chain pointer doubling,
DSIR hashed importance scoring, and mergeable Misra-Gries heavy hitters."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

from europarl_crawler_ray.pipelines.mining_ops import (
    HH_K,
    MINING_SQL_QUERIES,
    SEMDEDUP_CELLS,
    SEMDEDUP_TAU,
    _hh_items,
    _md5_u64,
    _mg_truncate,
    q_heavy_hitters,
    q_redirect_resolve,
    q_semdedup,
)


class TestMgSummary:
    def test_truncate_keeps_capacity_and_offsets(self):
        df = pd.DataFrame(
            {"item": np.arange(300), "part_n": np.arange(300, 0, -1)}
        )
        out = _mg_truncate(df, cap=10)
        assert len(out) == 10
        # (cap+1)-th largest of 300..1 is 290; survivors are reduced by it
        assert set(out["item"]) == set(range(10))
        assert out.loc[out["item"] == 0, "part_n"].iloc[0] == 300 - 290

    def test_merged_candidates_cover_true_heavy_hitters(self):
        # Zipf-ish synthetic stream split into arbitrary blocks: the
        # merged MG summary must contain every item with freq > N/k.
        rng = np.random.default_rng(7)
        items = (1.0 / rng.random(20000)).astype(np.int64)  # ~Zipf(2)
        k = 16
        n = len(items)
        blocks = np.array_split(items, 13)
        partials = []
        for b in blocks:
            vc = pd.Series(b).value_counts()
            partials.append(
                _mg_truncate(
                    pd.DataFrame(
                        {
                            "item": vc.index.to_numpy(np.int64),
                            "part_n": vc.to_numpy(np.int64),
                        }
                    ),
                    cap=k,
                )
            )
        merged = _mg_truncate(pd.concat(partials), cap=k)
        true_counts = pd.Series(items).value_counts()
        true_hh = set(true_counts[true_counts * k > n].index)
        assert true_hh  # the stream is skewed enough to have hitters
        assert true_hh <= set(merged["item"])

    def test_hh_items_deterministic_zipf(self):
        items = _hh_items(np.arange(50000))
        # item 1 should carry roughly half the stream
        share = (items == 1).mean()
        assert 0.45 < share < 0.55
        assert items.min() >= 1

    def test_md5_u64_matches_hash_family(self):
        import hashlib

        v = _md5_u64("rdr:", np.array([42]))[0]
        assert v == int(hashlib.md5(b"rdr:42").hexdigest()[:16], 16)


class TestMiningOracleParity:
    def test_oracle_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, (fn, sql, _keep) in MINING_SQL_QUERIES.items():
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name

    def test_redirect_cycle_branch_exercised(self, ray_session, sf_dir):
        out = q_redirect_resolve(sf_dir).to_pandas()
        # the md5 'rcy:' family plants self-loop redirects, so the cycle
        # path is live at every scale — a broken loop guard can't hide
        assert (out["status"] == "cycle").any()
        assert (out["status"] == "ok").any()
        cyc = out[out["status"] == "cycle"]
        assert (cyc["final_id"] == -1).all() and (cyc["n_hops"] == -1).all()
        ok = out[out["status"] == "ok"]
        assert (ok["n_hops"] >= 1).all()

    def test_semdedup_matches_bruteforce(self, ray_session, sf_dir):
        import hashlib

        out = (
            q_semdedup(sf_dir).to_pandas().sort_values("vec_id").reset_index(drop=True)
        )
        # both verdicts must be live at every test scale, else the keep
        # rule is untested
        assert out["kept"].any() and (~out["kept"]).any()

        emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
        mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
        ids = emb["vec_id"].to_numpy(np.int64)
        ok = np.linalg.norm(mat, axis=1) > 0
        mat, ids = mat[ok], ids[ok]
        matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        md5s = np.array(
            [hashlib.md5(str(int(v)).encode()).hexdigest() for v in ids]
        )
        cent_idx = np.argsort(md5s)[:SEMDEDUP_CELLS]
        cent_idx = cent_idx[np.argsort(ids[cent_idx])]  # cid-ascending
        cids, cent = ids[cent_idx], matn[cent_idx]
        cell = cids[np.floor(1000.0 * (matn @ cent.T)).argmax(axis=1)]
        kept = np.ones(len(ids), dtype=bool)
        order = np.argsort(ids)
        qtau = int(round(SEMDEDUP_TAU * 1000))
        for c in np.unique(cell):
            m = order[cell[order] == c]
            qsims = np.floor(1000.0 * (matn[m] @ matn[m].T))
            kept[m[np.triu(qsims >= qtau, k=1).any(axis=0)]] = False
        expect = pd.DataFrame({"vec_id": ids, "cell": cell, "kept": kept})
        expect = expect.sort_values("vec_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            out.astype({"cell": np.int64}), expect.astype({"cell": np.int64})
        )

    def test_heavy_hitters_exact_counts(self, ray_session, sf_dir):
        out = q_heavy_hitters(sf_dir)
        ev = pd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
        items = _hh_items(ev["event_id"].to_numpy().astype(np.int64))
        vc = pd.Series(items).value_counts()
        expect = vc[vc * HH_K > len(items)]
        got = dict(zip(out["item"], out["cnt"]))
        assert got == {int(k): int(v) for k, v in expect.items()}
