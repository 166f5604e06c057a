"""Tests for vocab_coverage (webtext_ops) and auc_eval (validation_ops)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from europarl_crawler_ray.pipelines.validation_ops import (
    AUC_EVAL_SQL,
    _auc_weights,
    q_auc_eval,
)
from europarl_crawler_ray.pipelines.webtext_ops import (
    VOCAB_COVERAGE_SQL,
    VOCAB_KS,
    q_vocab_coverage,
)


class TestOracleParity:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("vocab_coverage", q_vocab_coverage, VOCAB_COVERAGE_SQL),
            ("auc_eval", q_auc_eval, AUC_EVAL_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestVocabCoverage:
    def test_curve_is_monotone_and_nondegenerate(self, ray_session, sf_dir):
        out = (
            q_vocab_coverage(sf_dir).sort_values("k").reset_index(drop=True)
        )
        assert list(out["k"]) == sorted(VOCAB_KS)
        # coverage rises with k; the low point is strictly below 100%
        assert out["coverage_bp"].is_monotonic_increasing
        assert out["coverage_bp"].iloc[0] < 10000
        assert (out["covered"] <= out["total"]).all()

    def test_matches_pandas_bruteforce(self, ray_session, sf_dir):
        import re

        docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        tok_re = re.compile(r"[^ \t\n\r\f]+")
        vc = pd.Series(
            [t for txt in docs["text"] for t in tok_re.findall(txt.lower())]
        ).value_counts()
        ordered = pd.DataFrame(
            {"tok": vc.index.to_numpy(), "n": vc.to_numpy()}
        ).sort_values(["n", "tok"], ascending=[False, True])
        counts = ordered["n"].to_numpy()
        total = int(counts.sum())
        out = q_vocab_coverage(sf_dir).set_index("k")
        for k in VOCAB_KS:
            covered = int(counts[: min(k, len(counts))].sum())
            assert int(out.loc[k, "covered"]) == covered
            assert int(out.loc[k, "total"]) == total


class TestAucEval:
    def test_matches_sklearn_style_bruteforce(self, ray_session, sf_dir):
        emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
        mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
        s = (np.floor(mat * 1000.0).astype(np.int64) @ _auc_weights())
        y = (emb["label"].to_numpy(np.int64) == 0).astype(int)
        # exact Mann-Whitney with midranks (no scipy needed)
        order = np.argsort(s, kind="mergesort")
        ss, yy = s[order], y[order]
        ranks = np.empty(len(ss), dtype=np.float64)
        i = 0
        while i < len(ss):
            j = i
            while j + 1 < len(ss) and ss[j + 1] == ss[i]:
                j += 1
            ranks[i : j + 1] = (i + j) / 2 + 1
            i = j + 1
        n_pos, n_neg = int(y.sum()), int((1 - y).sum())
        u = ranks[yy == 1].sum() - n_pos * (n_pos + 1) / 2
        expected_bp = int(np.floor(10000 * u / (n_pos * n_neg)))
        out = q_auc_eval(sf_dir)
        assert int(out["n_pos"].iloc[0]) == n_pos
        assert int(out["n_neg"].iloc[0]) == n_neg
        assert int(out["auc_bp"].iloc[0]) == expected_bp

    def test_degenerate_single_class(self, ray_session, tmp_path):
        emb = pd.DataFrame(
            {
                "vec_id": np.arange(4, dtype=np.int64),
                "embedding": [np.ones(64, dtype=np.float32)] * 4,
                "label": np.full(4, 3, dtype=np.int64),  # no positives
            }
        )
        emb.to_parquet(tmp_path / "embeddings.parquet")
        out = q_auc_eval(str(tmp_path))
        assert int(out["n_pos"].iloc[0]) == 0
        assert int(out["auc_bp"].iloc[0]) == -1


class TestKsDrift:
    def test_matches_bruteforce(self, ray_session, sf_dir):
        from europarl_crawler_ray.pipelines.validation_ops import (
            KS_SIDE_A,
            KS_SIDE_B,
            q_ks_drift,
        )

        ev = pd.read_parquet(f"{sf_dir}/events.parquet")
        a = np.floor(
            ev.loc[ev["event_type"] == KS_SIDE_A, "value"].to_numpy() * 100 + 0.5
        ).astype(np.int64)
        b = np.floor(
            ev.loc[ev["event_type"] == KS_SIDE_B, "value"].to_numpy() * 100 + 0.5
        ).astype(np.int64)
        ts = np.unique(np.concatenate([a, b]))
        fa = np.searchsorted(np.sort(a), ts, side="right")
        fb = np.searchsorted(np.sort(b), ts, side="right")
        d_num = int(np.abs(fa * len(b) - fb * len(a)).max())
        out = q_ks_drift(sf_dir)
        assert int(out["n_a"].iloc[0]) == len(a)
        assert int(out["n_b"].iloc[0]) == len(b)
        assert int(out["d_num"].iloc[0]) == d_num
        assert int(out["d_bp"].iloc[0]) == d_num * 10000 // (len(a) * len(b))

    def test_identical_samples_have_zero_distance(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.validation_ops import q_ks_drift

        vals = np.array([1.0, 2.0, 3.0, 4.0] * 5)
        ev = pd.DataFrame(
            {
                "event_id": np.arange(40, dtype=np.int64),
                "ts": pd.Timestamp("2020-01-01"),
                "user_id": np.zeros(40, dtype=np.int64),
                "event_type": ["click"] * 20 + ["purchase"] * 20,
                "value": np.concatenate([vals, vals]),
                "props": ["{}"] * 40,
            }
        )
        ev.to_parquet(tmp_path / "events.parquet")
        out = q_ks_drift(str(tmp_path))
        assert int(out["d_num"].iloc[0]) == 0
        assert int(out["d_bp"].iloc[0]) == 0


class TestNdcgEval:
    def test_matches_bruteforce(self, ray_session, sf_dir):
        import hashlib

        from europarl_crawler_ray.pipelines.validation_ops import (
            NDCG_DISC,
            NDCG_K,
            NDCG_Q,
            q_ndcg_eval,
        )

        emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
        ids = emb["vec_id"].to_numpy(np.int64)
        mat = np.floor(
            np.stack(emb["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        md5s = np.array(
            [hashlib.md5(f"nq:{int(v)}".encode()).hexdigest() for v in ids]
        )
        qidx = np.argsort(md5s)[:NDCG_Q]
        out = q_ndcg_eval(sf_dir).set_index("query_id")
        assert len(out) == NDCG_Q

        def rel(q, d):
            return (
                int(hashlib.md5(f"rel:{q}:{d}".encode()).hexdigest()[:16], 16) % 4
            )

        for qi in qidx:
            q = int(ids[qi])
            keep = ids != q
            dd, s = ids[keep], mat[keep] @ mat[qi]
            order = np.lexsort((dd, -s))[:NDCG_K]
            gains = np.array([2 ** rel(q, int(d)) - 1 for d in dd[order]])
            dcg = int((gains * np.array(NDCG_DISC[: len(gains)])).sum())
            rels = sorted((rel(q, int(d)) for d in dd), reverse=True)[:NDCG_K]
            igains = np.array([2 ** r - 1 for r in rels])
            idcg = int((igains * np.array(NDCG_DISC[: len(igains)])).sum())
            assert int(out.loc[q, "dcg"]) == dcg
            assert int(out.loc[q, "idcg"]) == idcg
            assert int(out.loc[q, "ndcg_bp"]) == dcg * 10000 // idcg

    def test_discount_constants_match_log2(self):
        from europarl_crawler_ray.pipelines.validation_ops import NDCG_DISC

        for i, d in enumerate(NDCG_DISC, start=1):
            assert d == round(1e9 / np.log2(i + 1))


class TestRankEval:
    """mrr_eval / map_eval vs a straight-line brute force (same integer
    scoring/grading as TestNdcgEval)."""

    def _brute(self, sf_dir):
        import hashlib

        from europarl_crawler_ray.pipelines.validation_ops import (
            NDCG_Q,
            RANK_EVAL_K,
        )

        emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
        ids = emb["vec_id"].to_numpy(np.int64)
        mat = np.floor(
            np.stack(emb["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        md5s = np.array(
            [hashlib.md5(f"nq:{int(v)}".encode()).hexdigest() for v in ids]
        )
        qidx = np.argsort(md5s)[:NDCG_Q]

        def rel(q, d):
            return (
                int(hashlib.md5(f"rel:{q}:{d}".encode()).hexdigest()[:16], 16) % 4
            )

        exp = {}
        for qi in qidx:
            q = int(ids[qi])
            keep = ids != q
            dd, s = ids[keep], mat[keep] @ mat[qi]
            order = np.lexsort((dd, -s))[:RANK_EVAL_K]
            rels = np.array([rel(q, int(d)) for d in dd[order]]) > 0
            pos = np.nonzero(rels)[0]
            if pos.size:
                fr = int(pos[0]) + 1
                cum = np.cumsum(rels.astype(np.int64))
                ap_num = int(((1000000 * cum[pos]) // (pos + 1)).sum())
            else:
                fr, ap_num = 0, 0
            n_rel = int(sum(rel(q, int(d)) > 0 for d in dd))
            exp[q] = (fr, ap_num, n_rel)
        return exp

    def test_mrr_matches_bruteforce(self, ray_session, sf_dir):
        from europarl_crawler_ray.pipelines.validation_ops import (
            NDCG_Q,
            q_mrr_eval,
        )

        out = q_mrr_eval(sf_dir).set_index("query_id")
        exp = self._brute(sf_dir)
        assert len(out) == NDCG_Q
        for q, (fr, _ap, _nr) in exp.items():
            assert int(out.loc[q, "first_rel_rank"]) == fr
            assert int(out.loc[q, "rr_bp"]) == (10000 // fr if fr else 0)

    def test_map_matches_bruteforce(self, ray_session, sf_dir):
        from europarl_crawler_ray.pipelines.validation_ops import (
            NDCG_Q,
            RANK_EVAL_K,
            q_map_eval,
        )

        out = q_map_eval(sf_dir).set_index("query_id")
        exp = self._brute(sf_dir)
        assert len(out) == NDCG_Q
        for q, (_fr, ap_num, n_rel) in exp.items():
            assert int(out.loc[q, "n_rel"]) == n_rel
            assert int(out.loc[q, "ap_num"]) == ap_num
            denom = 100 * max(min(n_rel, RANK_EVAL_K), 1)
            assert int(out.loc[q, "ap_bp"]) == ap_num // denom
