"""Tests for mining_ops.q_dedup_cascade: the exact → MinHash → SemDeDup
three-stage cascade with per-stage verdict attribution."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from europarl_crawler_ray.pipelines.mining_ops import (
    _dedup_cascade_sql,
    q_dedup_cascade,
)


def _make_corpus(tmp_path):
    """Five docs: 1 = exact copy of 0, 2 = near-dup of 0 (one token
    changed), 3 = textually unrelated but embedding-identical to 0,
    4 = unrelated. All four verdicts fire."""
    base = " ".join(f"tok{i}" for i in range(60))
    near = " ".join(f"tok{i}" if i != 30 else "CHANGED" for i in range(60))
    other = " ".join(f"zz{i}" for i in range(60))
    uniq = " ".join(f"qq{i}" for i in range(60))
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3, 4],
            "text": [base, base, near, other, uniq],
            "lang": ["en"] * 5,
            "source": ["t"] * 5,
            "n_chars": [len(base), len(base), len(near), len(other), len(uniq)],
        }
    )
    rng = np.random.default_rng(11)
    e = rng.normal(size=(5, 8))
    e[3] = e[0]  # semantic dup of doc 0
    e[4] = -e[0] + rng.normal(size=8) * 2  # far from everything
    emb = pd.DataFrame(
        {
            "vec_id": np.arange(5, dtype=np.int64),
            "embedding": [v.astype(np.float32) for v in e],
            "label": np.zeros(5, dtype=np.int64),
        }
    )
    docs.to_parquet(tmp_path / "documents.parquet")
    emb.to_parquet(tmp_path / "embeddings.parquet")
    return docs, emb


class TestCascadeConstructed:
    def test_all_four_verdicts_fire_and_match_oracle(
        self, ray_session, tmp_path
    ):
        _make_corpus(tmp_path)
        out = (
            q_dedup_cascade(str(tmp_path))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        for t in ["documents", "embeddings"]:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM '{tmp_path}/{t}.parquet'"
            )
        sql = (
            con.execute(_dedup_cascade_sql())
            .fetchdf()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            out.astype("int64"), sql.astype("int64")
        )
        v = dict(zip(out["doc_id"], out["verdict"]))
        assert v[0] == 0  # canonical survivor
        assert v[1] == 1  # exact copy — caught by stage 1, NOT stage 2
        assert v[2] == 2  # near-dup survivor of stage 1
        assert v[3] == 3  # semantic dup among stage-2 survivors
        assert v[4] == 0

    def test_dropped_docs_never_reach_later_stages(self, ray_session, tmp_path):
        # doc 1 is an exact copy: it is ALSO a perfect minhash partner of
        # doc 0, but the cascade must label it 1 (earliest stage wins)
        _make_corpus(tmp_path)
        out = q_dedup_cascade(str(tmp_path)).to_pandas()
        assert int(out.loc[out["doc_id"] == 1, "verdict"].iloc[0]) == 1


class TestCascadeOnTestdata:
    def test_matches_oracle_and_is_monotone(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        ray_df = to_pandas(q_dedup_cascade(sf_dir))
        sql_df = con.execute(_dedup_cascade_sql()).fetchdf()
        assert compare("dedup_cascade", ray_df, sql_df) == []
        # near-dup and semantic stages are live on the synthetic corpus
        assert (ray_df["verdict"] == 2).any()
        assert (ray_df["verdict"] == 3).any()
        # every doc gets exactly one verdict
        assert ray_df["doc_id"].is_unique
