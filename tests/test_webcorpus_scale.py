"""Scale-design guards for the webcorpus driver-side reduces: every
driver collect must be exactly the documented SCHEMA/DOMAIN-BOUNDED
reduce (histograms, type counts), never data-scaled rows (the
test_join_scale pattern applied to the fifth-session operators)."""

import duckdb


def _spy_collects(monkeypatch):
    import ray.data

    collected = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **kw):
        df = orig(self, *a, **kw)
        collected.append(len(df))
        return df

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    return collected


def test_driver_collects_are_exactly_the_bounded_reduces(
    ray_session, sf_dir, monkeypatch
):
    from europarl_crawler_ray.pipelines.sketcheval_ops import (
        q_infer_types,
        q_quantile_map,
        q_radix_quantiles,
    )
    from europarl_crawler_ray.pipelines.webcorpus_ops import q_rank_normalize

    con = duckdb.connect()
    exp = {
        "q_rank_normalize": con.sql(
            f"SELECT COUNT(DISTINCT n_chars) FROM read_parquet('{sf_dir}/documents.parquet')"
        ).fetchone()[0],
        "q_quantile_map": con.sql(
            f"SELECT COUNT(*) FROM (SELECT DISTINCT source, n_chars FROM read_parquet('{sf_dir}/documents.parquet'))"
        ).fetchone()[0],
        "q_radix_quantiles": con.sql(
            f"SELECT COUNT(DISTINCT strlen(bin(GREATEST(CAST(FLOOR(value*100+0.5) AS BIGINT), 1)))) FROM read_parquet('{sf_dir}/events.parquet')"
        ).fetchone()[0],
        "q_infer_types": 4,
    }
    n_docs = con.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf_dir}/documents.parquet')"
    ).fetchone()[0]
    n_events = con.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf_dir}/events.parquet')"
    ).fetchone()[0]

    for q, rows in [
        (q_rank_normalize, n_docs),
        (q_quantile_map, n_docs),
        (q_radix_quantiles, n_events),
        (q_infer_types, n_docs),
    ]:
        collected = _spy_collects(monkeypatch)
        res = q(sf_dir)
        # construction collects exactly ONE frame: the bounded reduce
        assert collected == [exp[q.__name__]], (
            q.__name__,
            collected,
            f"expected exactly the bounded histogram ({exp[q.__name__]} rows), "
            f"tables are {rows} rows",
        )
        import ray.data

        n = res.count() if isinstance(res, ray.data.Dataset) else len(res)
        assert n >= 0
        monkeypatch.undo()


def test_md5_sample_collects_are_block_count_independent(
    ray_session, sf_dir, monkeypatch
):
    """VERDICT r3 #2: the md5-smallest deterministic samples (PQ codebook,
    IVF centroids, contamination benchmark set) must reach the driver as
    O(k) rows via grouping.global_prune's distributed combine — never as
    k x n_blocks candidate rows. Pin every to_pandas collect size."""
    import duckdb

    from europarl_crawler_ray.pipelines.corpus_ops import (
        BENCH_DOCS,
        q_contamination_check,
    )
    from europarl_crawler_ray.pipelines.ml_queries import q_ann_ivf
    from europarl_crawler_ray.pipelines.sketcheval_ops import (
        PQ_CODEWORDS,
        q_product_quantize,
    )

    con = duckdb.connect()
    n_vecs = con.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf_dir}/embeddings.parquet')"
    ).fetchone()[0]
    n_docs = con.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf_dir}/documents.parquet')"
    ).fetchone()[0]
    n_q = con.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf_dir}/embeddings.parquet') WHERE vec_id < 5"
    ).fetchone()[0]
    assert n_vecs > PQ_CODEWORDS and n_docs > BENCH_DOCS  # samples saturate

    collected = _spy_collects(monkeypatch)
    q_product_quantize(sf_dir)
    assert collected == [PQ_CODEWORDS], collected
    monkeypatch.undo()

    collected = _spy_collects(monkeypatch)
    q_ann_ivf(sf_dir)
    # centroid sample (16) + the n_queries-bounded query frame
    assert collected == [16, n_q], collected
    monkeypatch.undo()

    collected = _spy_collects(monkeypatch)
    q_contamination_check(sf_dir)
    assert collected == [BENCH_DOCS], collected
    monkeypatch.undo()


def test_mrl_recall_collects_are_block_count_independent(
    ray_session, sf_dir, monkeypatch
):
    """mrl_recall's candidate reduce goes through global_prune: the
    driver sees the n_queries-bounded query frame plus <= queries x 2
    views x k candidate rows, never k x n_blocks."""
    import duckdb

    from europarl_crawler_ray.pipelines.sketcheval_ops import (
        MRL_K,
        MRL_QUERIES,
        q_mrl_recall,
    )

    con = duckdb.connect()
    n_q = con.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf_dir}/embeddings.parquet') WHERE vec_id < {MRL_QUERIES}"
    ).fetchone()[0]
    collected = _spy_collects(monkeypatch)
    q_mrl_recall(sf_dir)
    assert len(collected) == 2
    assert collected[0] == n_q
    assert collected[1] <= n_q * 2 * MRL_K
    monkeypatch.undo()
