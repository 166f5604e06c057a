"""Tests for the round-5 batch-6 operators: markov_stationary
(corpus_ops), editdist_verify (mining_ops), proximity_rank
(webtext_ops) — DuckDB-oracle parity plus brute-force checks of the
power-iteration arithmetic, the numpy Levenshtein DP, and the
min-window search on hand-built inputs."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.corpus_ops import (
    MARKOV_ROUNDS,
    _markov_sql,
    q_markov_stationary,
)
from europarl_crawler_ray.pipelines.mining_ops import (
    EDITDIST_VERIFY_SQL,
    EDV_PAIRS,
    _lev_np,
    q_editdist_verify,
)
from europarl_crawler_ray.pipelines.webtext_ops import (
    PROX_TERMS,
    PROXIMITY_RANK_SQL,
    q_proximity_rank,
)


def _write_docs(d, rows):
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


def _write_events(d, rows):
    """rows: list of (user_id, event_type) in timestamp order."""
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array(
                    [1_700_000_000_000_000 + i for i in range(len(rows))],
                    pa.timestamp("us"),
                ),
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array([r[1] for r in rows], pa.string()),
                "value": pa.array([1.0] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows), pa.string()),
            }
        ),
        str(d / "events.parquet"),
    )


class TestOracleParityBatch6:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("markov_stationary", q_markov_stationary, _markov_sql()),
            ("editdist_verify", q_editdist_verify, EDITDIST_VERIFY_SQL),
            ("proximity_rank", q_proximity_rank, PROXIMITY_RANK_SQL),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestMarkovStationary:
    def test_two_state_chain(self, ray_session, tmp_path):
        # user 0: a→b→a→b…, user 1: b→a→b…  transition matrix is the
        # deterministic swap; the stationary vector stays uniform
        rows = []
        for u, start in ((0, "a"), (1, "b")):
            cur = start
            for _ in range(9):
                rows.append((u, cur))
                cur = "b" if cur == "a" else "a"
        _write_events(tmp_path, rows)
        out = q_markov_stationary(str(tmp_path)).set_index("event_type")
        # P = [[0,1],[1,0]] exactly; v stays (500000, 500000)
        assert int(out.loc["a", "stat_ppm"]) == 500_000
        assert int(out.loc["b", "stat_ppm"]) == 500_000

    def test_absorbing_sink(self, ray_session, tmp_path):
        # a→b always, b→b always: mass converges onto b
        rows = [(0, "a"), (0, "b"), (0, "b"), (0, "b"), (0, "b")]
        _write_events(tmp_path, rows)
        out = q_markov_stationary(str(tmp_path)).set_index("event_type")
        assert int(out.loc["b", "stat_ppm"]) > 990_000
        assert int(out.loc["a", "stat_ppm"]) == 0
        assert MARKOV_ROUNDS >= 10


class TestEditdistVerify:
    def test_lev_matches_duckdb(self):
        con = duckdb.connect()
        cases = [
            ("kitten", "sitting"),
            ("", "abc"),
            ("abc", ""),
            ("same", "same"),
            ("ab", "ba"),
            ("spark row vector", "spark town victor"),
        ]
        for a, b in cases:
            want = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
            assert _lev_np(a, b) == want, (a, b)

    def test_pair_count(self, ray_session, sf_dir):
        out = q_editdist_verify(sf_dir).to_pandas()
        assert len(out) == EDV_PAIRS
        assert (out["sim_bp"] <= 10000).all()
        assert (out["lev"] >= 0).all()


class TestProximityRank:
    def test_min_window(self, ray_session, tmp_path):
        t1, t2, t3 = PROX_TERMS
        rows = [
            # terms adjacent → span 3
            (f"x {t1} {t2} {t3} y", "en", "s0"),
            # only two of three terms → no row
            (f"{t1} {t2} {t1}", "en", "s0"),
            # two occurrence sets; best window is the tight one at the end
            (f"{t1} pad pad pad {t2} pad {t3} pad {t2} {t1} {t3}", "en", "s0"),
        ]
        _write_docs(tmp_path, rows)
        out = (
            q_proximity_rank(str(tmp_path))
            .to_pandas()
            .set_index("doc_id")["min_span"]
        )
        assert int(out.loc[0]) == 3
        assert 1 not in out.index
        assert int(out.loc[2]) == 3
