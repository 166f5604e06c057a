"""Tests for the round-5 corpus-audit operators: mi_composition /
filter_funnel (webtext_ops) and pmi_collocations (corpus_ops) —
DuckDB-oracle parity plus brute-force checks of the PMI and gate
arithmetic on hand-built corpora."""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.corpus_ops import (
    PMI_COLLOCATIONS_SQL,
    PMI_MIN_COUNT,
    q_pmi_collocations,
)
from europarl_crawler_ray.pipelines.webtext_ops import (
    FILTER_FUNNEL_SQL,
    FUNNEL_MIN_CHARS,
    MI_COMPOSITION_SQL,
    q_filter_funnel,
    q_mi_composition,
)


class TestOracleParity:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("mi_composition", q_mi_composition, MI_COMPOSITION_SQL),
            ("filter_funnel", q_filter_funnel, FILTER_FUNNEL_SQL),
            ("pmi_collocations", q_pmi_collocations, PMI_COLLOCATIONS_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


def _write_docs(d, rows):
    """rows: list of (text, lang, source)."""
    texts = [r[0] for r in rows]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(rows)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array([r[1] for r in rows], pa.string()),
                "source": pa.array([r[2] for r in rows], pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )


def _write_emb(d, vecs):
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array([0] * len(vecs), pa.int32()),
            }
        ),
        str(d / "embeddings.parquet"),
    )


class TestMiComposition:
    def test_brute_force(self, ray_session, tmp_path):
        # 3 en/s0, 1 en/s1, 2 fr/s1 → hand-check one cell's PMI
        rows = (
            [("t", "en", "s0")] * 3 + [("t", "en", "s1")] + [("t", "fr", "s1")] * 2
        )
        _write_docs(tmp_path, rows)
        out = (
            q_mi_composition(str(tmp_path))
            .set_index(["lang", "source"])
            .sort_index()
        )
        # cell (en, s0): n=3, n_lang=4, n_source=3, N=6
        L = lambda x: math.floor(1e6 * math.log(float(x)))
        assert out.loc[("en", "s0"), "n_docs"] == 3
        assert out.loc[("en", "s0"), "pmi_unats"] == L(3 * 6) - L(4 * 3)
        # cell (fr, s1): n=2, n_lang=2, n_source=3 → pmi = L(12) - L(6) > 0
        assert out.loc[("fr", "s1"), "pmi_unats"] == L(2 * 6) - L(2 * 3)
        assert out.loc[("fr", "s1"), "pmi_unats"] > 0


class TestFilterFunnel:
    def test_gates(self, ray_session, tmp_path):
        long_pad = " ".join(f"w{i}" for i in range(60))  # 60 distinct tokens
        rows = [
            ("short", "en", "s0"),  # fails length
            (long_pad + " " + "x" * (FUNNEL_MIN_CHARS), "en", "s0"),  # passes all
            (("spam " * 200).strip(), "en", "s0"),  # long, 200 tokens, 1 distinct
        ]
        _write_docs(tmp_path, rows)
        out = q_filter_funnel(str(tmp_path)).set_index("source")
        assert out.loc["s0", "n_docs"] == 3
        assert out.loc["s0", "n_len"] == 2  # doc0 dies at length
        assert out.loc["s0", "n_tok"] == 2  # both survivors have ≥30 tokens
        assert out.loc["s0", "n_distinct"] == 1  # spam dies at TTR
        assert out.loc["s0", "n_rep"] == 1  # doc1 survives the top-share gate

    def test_monotone_on_testdata(self, ray_session, sf_dir):
        out = q_filter_funnel(sf_dir)
        for a, b in [("n_docs", "n_len"), ("n_len", "n_tok"),
                     ("n_tok", "n_distinct"), ("n_distinct", "n_rep")]:
            assert (out[a] >= out[b]).all()


class TestPmiCollocations:
    def test_brute_force(self, ray_session, tmp_path):
        # "a b" twice, "a c" once → only (a,b) reaches PMI_MIN_COUNT
        rows = [("a b q q", "en", "s0"), ("a b", "en", "s0"), ("a c", "en", "s0")]
        _write_docs(tmp_path, rows)
        out = q_pmi_collocations(str(tmp_path))
        assert PMI_MIN_COUNT == 2
        pairs = set(zip(out["w1"], out["w2"]))
        assert ("a", "b") in pairs and ("a", "c") not in pairs
        row = out.set_index(["w1", "w2"]).loc[("a", "b")]
        # N=8 tokens, B=5 bigram slots, c_a=3, c_b=2, c_ab=2
        assert row["c_xy"] == 2 and row["c1"] == 3 and row["c2"] == 2
        L = lambda x: math.floor(1e6 * math.log(float(x)))
        assert row["pmi_unats"] == L(2 * 8 * 8) - L(3 * 2 * 5)
        # (q,q) also appears once only → excluded by min count
        assert ("q", "q") not in pairs


from europarl_crawler_ray.pipelines.webgraph_ops import (  # noqa: E402
    MODULARITY_SCORE_SQL,
    q_modularity_score,
)


class TestOracleParityBatch2:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("modularity_score", q_modularity_score, MODULARITY_SCORE_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestModularity:
    def test_identities(self, ray_session, sf_dir):
        out = q_modularity_score(sf_dir)
        # Σ dout == Σ din == m; e_in ≤ min(dout, din) per community
        assert out["d_out"].sum() == out["d_in"].sum()
        assert (out["e_in"] <= out[["d_out", "d_in"]].min(axis=1)).all()
        m = int(out["d_out"].sum())
        assert (
            out["q_term"]
            == m * out["e_in"] - out["d_out"] * out["d_in"]
        ).all()

    def test_single_community_q_zero(self, ray_session, tmp_path):
        # one source → e_in == m, dout == din == m → q_term = m·m − m·m = 0
        _write_docs(tmp_path, [(f"doc {i}", "en", "s0") for i in range(30)])
        out = q_modularity_score(str(tmp_path))
        assert len(out) == 1
        assert int(out["q_term"].iloc[0]) == 0
        assert int(out["e_in"].iloc[0]) == int(out["d_out"].iloc[0])


from europarl_crawler_ray.pipelines.validation_ops import (  # noqa: E402
    EMBEDDING_OUTLIERS_SQL,
    OUTLIER_TOPK,
    q_embedding_outliers,
)
from europarl_crawler_ray.pipelines.webgraph_ops import (  # noqa: E402
    DEG_POWERLAW_SQL,
    q_deg_powerlaw,
)


class TestOracleParityBatch3:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("deg_powerlaw", q_deg_powerlaw, DEG_POWERLAW_SQL),
            ("embedding_outliers", q_embedding_outliers, EMBEDDING_OUTLIERS_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestEmbeddingOutliers:
    def test_farthest_point_wins(self, ray_session, tmp_path):
        # 9 clustered points + one far point → far point ranks first
        vecs = [(0.01 * i, 0.0) for i in range(9)] + [(50.0, 50.0)]
        _write_emb(tmp_path, vecs)
        out = q_embedding_outliers(str(tmp_path))
        assert int(out["vec_id"].iloc[0]) == 9
        # brute-force the n²-scaled distance for the winner
        q = np.floor(np.array(vecs, dtype=np.float32).astype(np.float64) * 1000.0)
        q = q.astype(np.int64)
        n, s1 = len(vecs), q.sum(axis=0)
        d = ((n * q[9] - s1) ** 2).sum()
        assert int(out["dist_n2"].iloc[0]) == d
        assert len(out) == min(OUTLIER_TOPK, len(vecs))
        # descending, tie-broken by vec_id
        dd = out["dist_n2"].to_numpy()
        assert (dd[:-1] >= dd[1:]).all()


class TestDegPowerlaw:
    def test_histogram_consistency(self, ray_session, sf_dir):
        import pyarrow.parquet as _pq

        out = q_deg_powerlaw(sf_dir)
        n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
        assert len(out) == 1
        assert 0 <= int(out["n_zero_in"].iloc[0]) <= n_docs
        assert int(out["n_points"].iloc[0]) >= 1

    def test_brute_force_small(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.queries import internal_edges_np

        n = 25
        _write_docs(tmp_path, [(f"doc {i}", "en", "s0") for i in range(n)])
        out = q_deg_powerlaw(str(tmp_path))
        src, dst = internal_edges_np(np.arange(n), n, drop_self=True)
        pair = np.unique(np.stack([src, dst], axis=1), axis=0)
        deg = np.unique(pair[:, 1], return_counts=True)[1]
        degs, cnts = np.unique(deg, return_counts=True)
        assert int(out["n_points"].iloc[0]) == len(degs)
        assert int(out["n_zero_in"].iloc[0]) == n - len(np.unique(pair[:, 1]))
        lx = [math.floor(1e6 * math.log(int(v))) for v in degs]
        ly = [math.floor(1e6 * math.log(int(c))) for c in cnts]
        k, sx, sy = len(lx), sum(lx), sum(ly)
        sxx = sum(x * x for x in lx)
        sxy = sum(x * y for x, y in zip(lx, ly))
        den = k * sxx - sx * sx
        want = float(k * sxy - sx * sy) / float(den) if den else 0.0
        assert out["slope"].iloc[0] == want


from europarl_crawler_ray.pipelines.corpus_ops import (  # noqa: E402
    BURST_TOP,
    TOKEN_BURSTINESS_SQL,
    q_token_burstiness,
)


class TestOracleParityBatch4:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("token_burstiness", q_token_burstiness, TOKEN_BURSTINESS_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestTokenBurstiness:
    def test_brute_force(self, ray_session, tmp_path):
        # "a": bursty (8 in one doc of 4); "b": even (2 in each of 4 docs)
        rows = [
            ("a a a a a a a a b b", "en", "s0"),
            ("b b", "en", "s0"),
            ("b b", "en", "s0"),
            ("b b", "en", "s0"),
        ]
        _write_docs(tmp_path, rows)
        out = q_token_burstiness(str(tmp_path)).set_index("token")
        D = 4
        # a: s1=8, s2=64, df=1 → disp = 4·64 − 64 = 192
        assert out.loc["a", "s1"] == 8 and out.loc["a", "df"] == 1
        assert out.loc["a", "disp_n2"] == D * 64 - 64
        # b: s1=8, s2=4·4=16, df=4 → disp = 4·16 − 64 = 0 (perfectly even)
        assert out.loc["b", "s1"] == 8 and out.loc["b", "df"] == 4
        assert out.loc["b", "disp_n2"] == 0
        assert len(out) <= BURST_TOP




