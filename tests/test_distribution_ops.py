"""Tests for zipf_slope / vocab_growth (corpus_ops): DuckDB-oracle
parity plus brute-force checks of the integer-moment slope and the
decile saturation counts on hand-built corpora."""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.corpus_ops import (
    VOCAB_GROWTH_SQL,
    ZIPF_SLOPE_SQL,
    ZIPF_TOP_K,
    q_vocab_growth,
    q_zipf_slope,
)
from europarl_crawler_ray.pipelines.webtext_ops import (
    PSI_BIN_WIDTH,
    PSI_BINS,
    PSI_DRIFT_SQL,
    TOKEN_ENTROPY_SQL,
    q_psi_drift,
    q_token_entropy,
)


class TestOracleParity:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("zipf_slope", q_zipf_slope, ZIPF_SLOPE_SQL),
            ("vocab_growth", q_vocab_growth, VOCAB_GROWTH_SQL),
            ("token_entropy", q_token_entropy, TOKEN_ENTROPY_SQL),
            ("psi_drift", q_psi_drift, PSI_DRIFT_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


def _write_docs(d, texts, langs):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "source": pa.array(["s"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )


class TestZipfSlope:
    def test_brute_force(self, ray_session, tmp_path):
        # freq table: "a"x8 "b"x4 "c"x2 "d"x1 in one lang
        texts = ["a a a a a a a a b b b b", "c c d"]
        _write_docs(tmp_path, texts, ["en", "en"])
        out = q_zipf_slope(str(tmp_path)).set_index("lang")
        cnts = [8, 4, 2, 1]
        lx = [math.floor(1e6 * math.log(r)) for r in range(1, 5)]
        ly = [math.floor(1e6 * math.log(c)) for c in cnts]
        k, sx, sy = 4, sum(lx), sum(ly)
        sxx = sum(x * x for x in lx)
        sxy = sum(x * y for x, y in zip(lx, ly))
        want = (k * sxy - sx * sy) / (k * sxx - sx * sx)
        assert out.loc["en", "n_terms"] == 4
        assert out.loc["en", "zipf_slope"] == want
        # a perfect zipf of powers of 2 over ranks 1,2,4 is ~-1 slope-ish;
        # sanity: slope negative
        assert out.loc["en", "zipf_slope"] < 0

    def test_topk_prune_is_global(self, ray_session, tmp_path):
        # 3 langs x disjoint vocab; more tokens than ZIPF_TOP_K in one
        toks = " ".join(f"t{i}" for i in range(ZIPF_TOP_K + 40))
        _write_docs(tmp_path, [toks, "x x x y y z"], ["de", "fr"])
        out = q_zipf_slope(str(tmp_path)).set_index("lang")
        assert out.loc["de", "n_terms"] == ZIPF_TOP_K
        assert out.loc["fr", "n_terms"] == 3


class TestVocabGrowth:
    def test_brute_force(self, ray_session, tmp_path):
        # 10 docs; doc i introduces token f"n{i}" plus repeats token "c"
        texts = [f"c n{i}" for i in range(10)]
        _write_docs(tmp_path, texts, ["en"] * 10)
        out = q_vocab_growth(str(tmp_path))
        assert list(out["decile"]) == list(range(1, 11))
        assert list(out["cutoff"]) == list(range(1, 11))
        # vocab after decile d (first_id < d): d novel tokens + "c"
        assert list(out["vocab_size"]) == [d + 1 for d in range(1, 11)]

    def test_empty(self, ray_session, tmp_path):
        _write_docs(tmp_path, [], [])
        out = q_vocab_growth(str(tmp_path))
        assert len(out) == 10
        assert out["vocab_size"].sum() == 0


class TestTokenEntropy:
    def test_brute_force(self, ray_session, tmp_path):
        # doc0: uniform over 4 tokens → H = ln 4; doc1: all same → H = 0;
        # doc2: empty
        texts = ["a b c d", "x x x x x", ""]
        _write_docs(tmp_path, texts, ["en"] * 3)
        out = q_token_entropy(str(tmp_path)).to_pandas().set_index("doc_id")
        l4 = math.floor(1e6 * math.log(4))
        assert out.loc[0, "entropy_unats"] == (4 * l4 - 0) // 4  # c=1 → L=0
        assert out.loc[0, "n_tokens"] == 4 and out.loc[0, "distinct_tokens"] == 4
        l5 = math.floor(1e6 * math.log(5))
        assert out.loc[1, "entropy_unats"] == (5 * l5 - 5 * l5) // 5  # == 0
        assert out.loc[2, "n_tokens"] == 0 and out.loc[2, "entropy_unats"] == 0

    def test_mixed_counts(self, ray_session, tmp_path):
        _write_docs(tmp_path, ["a a a b"], ["en"])
        out = q_token_entropy(str(tmp_path)).to_pandas()
        l4, l3 = (math.floor(1e6 * math.log(n)) for n in (4, 3))
        assert int(out["entropy_unats"].iloc[0]) == (4 * l4 - 3 * l3) // 4


class TestPsiDrift:
    def test_identical_sources_zero(self, ray_session, tmp_path):
        # two sources with identical length histograms → psi ~ 0
        texts = ["x" * 10, "y" * 120, "z" * 10, "w" * 120]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(4), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(["en"] * 4, pa.string()),
                    "source": pa.array(["s0", "s0", "s1", "s1"], pa.string()),
                    "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        out = q_psi_drift(str(tmp_path)).set_index("source")
        assert list(out["n_docs"]) == [2, 2]
        # identical distributions: every term has a==b → diff==0 → psi 0
        assert list(out["psi_unats"]) == [0, 0]

    def test_brute_force_disjoint(self, ray_session, tmp_path):
        # s0 all short, s1 all long → maximal drift, psi > 0
        texts = ["a" * 10] * 3 + ["b" * 900] * 5
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(8), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(["en"] * 8, pa.string()),
                    "source": pa.array(["s0"] * 3 + ["s1"] * 5, pa.string()),
                    "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        out = q_psi_drift(str(tmp_path)).set_index("source")
        # brute force for s0: bins — 3 docs in bin 0, 5 rest in bin 19
        a = np.zeros(PSI_BINS, dtype=object)
        b = np.zeros(PSI_BINS, dtype=object)
        a[10 // PSI_BIN_WIDTH] = 3
        b[min(900 // PSI_BIN_WIDTH, PSI_BINS - 1)] = 5
        ap, bp = 3 + PSI_BINS, 5 + PSI_BINS
        psi = 0
        for i in range(PSI_BINS):
            ai, bi = int(a[i]) + 1, int(b[i]) + 1
            diff = ai * bp - bi * ap
            lnr = math.floor(1e6 * math.log(ai * bp)) - math.floor(
                1e6 * math.log(bi * ap)
            )
            psi += diff * lnr
        assert out.loc["s0", "psi_unats"] == psi // (ap * bp)
        assert out.loc["s0", "psi_unats"] > 0


