"""Tests for pipelines/validation_ops.py — temperature mixing and
readability. Each op is pinned against its own DuckDB oracle in-repo
(repo convention: pytest alone must catch a divergence, independent of
the driver's query sampling)."""

import pandas as pd

from europarl_crawler_ray.pipelines.validation_ops import (
    MIX_TOTAL_CAP,
    _mix_targets,
    q_temperature_mix,
)


class TestOracleParity:
    NAMES = [
        "temperature_mix",
        "readability",
    ]

    def test_oracle_parity(self, ray_session, sf_dir):
        import duckdb

        from check_oracles import TABLES, compare, to_pandas

        import __ray_entry__ as entry

        qs, sqls = entry.queries(), entry.oracle_sql()
        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name in self.NAMES:
            ray_df = to_pandas(qs[name](sf_dir))
            sql_df = con.execute(sqls[name]).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestMixTargets:
    """The largest-remainder apportionment is pure int arithmetic; pin
    its invariants so a refactor can't silently change the mixture."""

    def test_sums_to_total(self):
        counts = {"de": 900, "en": 2500, "fr": 400, "pl": 49, "es": 151}
        t = _mix_targets(counts, 1000)
        assert sum(t.values()) == 1000

    def test_sqrt_flattening(self):
        # temperature alpha=0.5 must compress the head: en has 25x the
        # docs of pl but only sqrt(25)=5x the target (within rounding)
        counts = {"en": 2500, "pl": 100}
        t = _mix_targets(counts, 600)
        assert t["en"] == 500 and t["pl"] == 100

    def test_deterministic_tiebreak(self):
        # equal counts, odd total: the leftover unit goes to the
        # lexicographically-first language
        t = _mix_targets({"aa": 100, "bb": 100, "cc": 100}, 100)
        assert sum(t.values()) == 100
        assert t["aa"] >= t["bb"] >= t["cc"]

    def test_zero_counts(self):
        assert _mix_targets({"xx": 0, "yy": 0}, 10) == {"xx": 0, "yy": 0}


class TestTemperatureMix:
    def test_respects_targets_and_cap(self, ray_session, sf_dir):
        out = q_temperature_mix(sf_dir)
        assert len(out) <= MIX_TOTAL_CAP
        # per-language sample sizes equal the apportionment targets
        # (capped by language size)
        docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
        counts = docs["lang"].value_counts().to_dict()
        targets = _mix_targets(counts, min(MIX_TOTAL_CAP, len(docs)))
        got = out["lang"].value_counts().to_dict()
        for lang, tgt in targets.items():
            assert got.get(lang, 0) == min(tgt, counts.get(lang, 0)), lang

    def test_no_duplicate_docs(self, ray_session, sf_dir):
        out = q_temperature_mix(sf_dir)
        assert out["doc_id"].is_unique


