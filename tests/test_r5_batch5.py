"""Tests for the round-5 batch-5 operators: truss_support
(webgraph_ops) and jl_distortion (sketcheval_ops) — DuckDB-oracle
parity at sf0.001 plus brute-force checks of the support counts and the
sign-projection arithmetic on hand-built inputs."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.sketcheval_ops import (
    JL_DISTORTION_SQL,
    JL_K,
    _jl_signs,
    q_jl_distortion,
)
from europarl_crawler_ray.pipelines.webgraph_ops import (
    TRUSS_SUPPORT_SQL,
    q_truss_support,
)


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


class TestOracleParityBatch5:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("truss_support", q_truss_support, TRUSS_SUPPORT_SQL),
            ("jl_distortion", q_jl_distortion, JL_DISTORTION_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestTrussSupport:
    def test_brute_force_small(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.queries import internal_edges_np

        n = 30
        _write_docs(tmp_path, [(f"doc {i}", "en", "s0") for i in range(n)])
        out = q_truss_support(str(tmp_path)).to_pandas()
        src, dst = internal_edges_np(np.arange(n), n, drop_self=True)
        edges = {
            (int(min(a, b)), int(max(a, b))) for a, b in zip(src, dst)
        }
        nbrs: dict[int, set] = {}
        for u, v in edges:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        want = {
            (u, v): len(nbrs[u] & nbrs[v]) for u, v in edges
        }
        got = {
            (int(r["u"]), int(r["v"])): int(r["support"])
            for _, r in out.iterrows()
        }
        assert got == want
        # sanity: at least one triangle exists in this synthetic graph
        assert any(s > 0 for s in want.values())

    def test_support_is_truss_consistent(self, ray_session, sf_dir):
        # every edge's support is bounded by min(deg(u), deg(v)) - 1
        out = q_truss_support(sf_dir).to_pandas()
        deg: dict[int, int] = {}
        for _, r in out.iterrows():
            deg[int(r["u"])] = deg.get(int(r["u"]), 0) + 1
            deg[int(r["v"])] = deg.get(int(r["v"]), 0) + 1
        for _, r in out.iterrows():
            u, v, s = int(r["u"]), int(r["v"]), int(r["support"])
            assert s <= min(deg[u], deg[v]) - 1 + 1  # ≤ min degree


class TestJlDistortion:
    def test_projection_arithmetic(self, ray_session, tmp_path):
        vecs = [(0.25, -0.125, 0.5, 0.0), (0.1, 0.2, 0.3, 0.4)]
        _write_emb(tmp_path, vecs)
        out = q_jl_distortion(str(tmp_path)).to_pandas().sort_values("vec_id")
        q = np.floor(
            np.array(vecs, np.float32).astype(np.float64) * 1000.0
        ).astype(np.int64)
        s = _jl_signs(4)
        y = q @ s.T
        qn = (q * q).sum(axis=1)
        pn = (y * y).sum(axis=1)
        assert out["qnorm"].tolist() == qn.tolist()
        assert out["pnorm"].tolist() == pn.tolist()
        ratio = np.where(qn > 0, 1_000_000 * pn // np.maximum(JL_K * qn, 1), 0)
        assert out["ratio_ppm"].tolist() == ratio.tolist()

    def test_sign_matrix_is_pm1(self):
        s = _jl_signs(16)
        assert s.shape == (JL_K, 16)
        assert set(np.unique(s)) == {-1, 1}
