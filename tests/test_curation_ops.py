"""curation_ops semantics on planted fixtures: OOV vocabulary
tie-breaks, leakage-safe split
invariants (near-dups co-assigned, singletons covered), and
schema-evolution NULL-fill. Oracle parity at gate scale is covered by
the driver gate / tools/check_oracles.py."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.curation_ops import (
    q_leakage_safe_split,
    q_oov_rate,
    q_schema_evolution,
)


def _write_docs(path, texts: dict[int, str], langs=None):
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values())),
            "lang": pa.array(
                [langs[i] for i in texts] if langs else ["en"] * len(texts)
            ),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(v) for v in texts.values()], pa.int64()),
        }
    )
    pq.write_table(t, path / "documents.parquet")


def test_oov_rate_rare_token(ray_session, tmp_path):
    # 'common' dominates the vocab; 'rareword' appears once → OOV
    texts = {i: "common common common" for i in range(10)}
    texts[99] = "common rareword"
    _write_docs(tmp_path, texts)
    out = q_oov_rate(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[99, "n_tokens"] == 2
    # 'rareword' is inside the top-20 vocab here (tiny vocabulary), so
    # force the check through a k=1 call instead
    out1 = q_oov_rate(str(tmp_path), k=1).to_pandas().set_index("doc_id")
    assert out1.loc[99, "n_oov"] == 1 and out1.loc[99, "oov_bp"] == 5000
    assert out1.loc[0, "n_oov"] == 0


def test_leakage_safe_split_invariants(ray_session, tmp_path):
    dup = " ".join(f"w{i}" for i in range(40))
    texts = {1: dup, 2: dup, 3: "totally different words here " * 5}
    _write_docs(tmp_path, texts)
    out = q_leakage_safe_split(str(tmp_path)).to_pandas().set_index("doc_id")
    assert sorted(out.index) == [1, 2, 3]  # every doc assigned exactly once
    # exact dups share a cluster and therefore a split
    assert out.loc[1, "cluster_id"] == out.loc[2, "cluster_id"] == 1
    assert out.loc[1, "split"] == out.loc[2, "split"]
    # the non-dup is its own singleton cluster
    assert out.loc[3, "cluster_id"] == 3
    assert set(out["split"]) <= {"train", "val", "test"}


def test_schema_evolution_null_fill(ray_session, tmp_path):
    _write_docs(
        tmp_path,
        {0: "even text", 1: "odd text", 2: "more even", 3: "more odd"},
        langs={0: "en", 1: "de", 2: "fr", 3: "es"},
    )
    out = q_schema_evolution(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[0, "snapshot"] == "v1" and pd.isna(out.loc[0, "lang"])
    assert out.loc[1, "snapshot"] == "v2" and out.loc[1, "lang"] == "de"
    assert out.loc[3, "n_chars_read"] == len("more odd")


def test_mix_interleave_proportional(ray_session, tmp_path):
    from europarl_crawler_ray.pipelines.curation_ops import q_mix_interleave

    # src1 weight 2, src0 weight 1 -> any long prefix of the vtime order
    # holds ~2x as many src1 docs
    texts, langs = {}, {}
    srcs = {}
    for i in range(120):
        texts[i] = "x"
        srcs[i] = "src1" if i % 2 == 0 else "src0"
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values())),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array([srcs[i] for i in texts]),
            "n_chars": pa.array([1] * len(texts), pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    res = q_mix_interleave(str(tmp_path))
    out = (res.to_pandas() if hasattr(res, "to_pandas") else res).sort_values(
        ["vtime", "source", "rank_in_source"]
    )
    # ranks are dense permutations per source
    for s in ["src0", "src1"]:
        rs = sorted(out[out["source"] == s]["rank_in_source"])
        assert rs == list(range(60))
    head = out.head(45)
    n1 = (head["source"] == "src1").sum()
    n0 = (head["source"] == "src0").sum()
    assert n1 == 2 * n0  # exact 2:1 interleave in a prefix
