"""Tests for the profiling/curation batch: ngram_novelty (corpus_ops)
and pagerank_personalized (linkrank_ops)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from europarl_crawler_ray.pipelines.corpus_ops import (
    NGRAM_NOVELTY_SQL,
    NOVELTY_N,
    _word_grams,
    q_ngram_novelty,
)
from europarl_crawler_ray.pipelines.linkrank_ops import (
    PPR_SEED_LANG,
    q_pagerank_personalized,
)


class TestOracleParity:
    def test_parity(self, ray_session, sf_dir):
        from check_oracles import TABLES, compare, to_pandas

        from europarl_crawler_ray.pipelines.linkrank_ops import _ppr_sql

        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        for name, fn, sql in [
            ("ngram_novelty", q_ngram_novelty, NGRAM_NOVELTY_SQL),
            ("pagerank_personalized", q_pagerank_personalized, _ppr_sql()),
        ]:
            ray_df = to_pandas(fn(sf_dir))
            sql_df = con.execute(sql).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name


class TestNgramNovelty:
    def test_novel_counts_partition_the_vocabulary(self, ray_session, sf_dir):
        # every gram has exactly ONE owner: sum(n_novel) == |vocab|
        out = q_ngram_novelty(sf_dir).to_pandas()
        docs = pd.read_parquet(f"{sf_dir}/documents.parquet")
        vocab = set()
        for txt in docs["text"]:
            vocab.update(_word_grams(txt, NOVELTY_N))
        assert int(out["n_novel"].sum()) == len(vocab)
        assert (out["n_novel"] <= out["n_grams"]).all()

    def test_first_doc_owns_every_gram(self, ray_session, sf_dir):
        out = (
            q_ngram_novelty(sf_dir).to_pandas().set_index("doc_id").sort_index()
        )
        docs = pd.read_parquet(f"{sf_dir}/documents.parquet").sort_values(
            "doc_id"
        )
        seen: set = set()
        for did, txt in zip(docs["doc_id"], docs["text"]):
            grams = set(_word_grams(txt, NOVELTY_N))
            novel = len(grams - seen)
            seen.update(grams)
            assert int(out.loc[int(did), "n_novel"]) == novel
            assert int(out.loc[int(did), "n_grams"]) == len(grams)


class TestPersonalizedPagerank:
    def test_nonseed_without_inlinks_has_zero_mass(self, ray_session, sf_dir):
        from europarl_crawler_ray.pipelines.queries import q_pagerank

        ppr = (
            q_pagerank_personalized(sf_dir)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        pr = q_pagerank(sf_dir).to_pandas().set_index("doc_id").sort_index()
        docs = pd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
        ).set_index("doc_id")
        # personalization must actually bite: seeds' total share of mass
        # is strictly larger under PPR than under global PageRank
        seed = docs["lang"] == PPR_SEED_LANG
        ppr_share = ppr.loc[seed[seed].index, "ppr"].sum() / max(
            ppr["ppr"].sum(), 1
        )
        pr_share = pr.loc[seed[seed].index, "pagerank"].sum() / max(
            pr["pagerank"].sum(), 1
        )
        assert ppr_share > pr_share
        # and global PR gives everyone base mass while PPR gives zero to
        # non-seeds that receive no inbound contributions
        assert (pr["pagerank"] >= 150_000).all()
        # non-seeds get NO base term: at least one must sit below the
        # 0.15e6 floor that global PageRank guarantees everyone
        nonseed_ppr = ppr.loc[(~seed)[~seed].index, "ppr"]
        assert (nonseed_ppr >= 0).all()
        assert (~seed).sum() == 0 or (nonseed_ppr < 150_000).any()
