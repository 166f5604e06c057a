"""corpus_ops semantics on tiny planted fixtures: inverted-index
postings cap, dup-n-gram coverage, contamination flags,
and normalization round trips. Oracle parity is covered by the gate."""

import hashlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from europarl_crawler_ray.pipelines.corpus_ops import (
    POSTINGS_K,
    normalize_text,
    q_contamination_check,
    q_dup_ngram_coverage,
    q_inverted_index,
    q_normalize_text,
)


def _write_docs(path, texts: dict[int, str]):
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values())),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(v) for v in texts.values()], pa.int64()),
        }
    )
    pq.write_table(t, path / "documents.parquet")


# ------------------------------------------------------ inverted index


def test_inverted_index_postings(ray_session, tmp_path):
    _write_docs(
        tmp_path,
        {
            3: "apple banana",
            1: "apple apple",
            2: "apple cherry cherry",
        },
    )
    out = q_inverted_index(str(tmp_path)).to_pandas().set_index("term")
    assert out.loc["apple", "df"] == 3
    assert out.loc["apple", "tf_total"] == 4
    assert out.loc["apple", "postings"] == "1,2,3"  # doc_id ASC
    assert out.loc["banana", "postings"] == "3"
    assert out.loc["cherry", "tf_total"] == 2


def test_inverted_index_postings_capped(ray_session, tmp_path):
    _write_docs(tmp_path, {i: "word" for i in range(POSTINGS_K + 5)})
    out = q_inverted_index(str(tmp_path)).to_pandas().set_index("term")
    assert out.loc["word", "df"] == POSTINGS_K + 5
    assert out.loc["word", "postings"] == ",".join(str(i) for i in range(POSTINGS_K))


# ------------------------------------------------- dup n-gram coverage


def test_dup_ngram_coverage(ray_session, tmp_path):
    shared = "one two three four five"  # a single 5-gram
    _write_docs(
        tmp_path,
        {
            0: shared + " six",          # 2 positions, gram[0] shared with doc 1
            1: shared,                    # 1 position, shared
            2: "a b c d e f",            # 2 positions, unique
            3: "tiny doc",               # <5 tokens -> absent
        },
    )
    out = (
        q_dup_ngram_coverage(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.index.tolist() == [0, 1, 2]
    assert out.loc[0].tolist() == [2, 1]   # n_pos, n_dup_pos
    assert out.loc[1].tolist() == [1, 1]
    assert out.loc[2].tolist() == [2, 0]


def test_dup_ngram_within_doc_repeat_not_dup(ray_session, tmp_path):
    # the same 5-gram repeated INSIDE one doc is not a cross-doc dup
    _write_docs(tmp_path, {0: "a b c d e a b c d e"})
    out = q_dup_ngram_coverage(str(tmp_path)).to_pandas()
    assert out["n_pos"].tolist() == [6]
    assert out["n_dup_pos"].tolist() == [0]


# ------------------------------------------------- contamination check


def test_contamination_flags(ray_session, tmp_path):
    # find which doc_id of 0..9 has the smallest md5 -> that doc is the
    # benchmark (n_bench=1); a doc sharing its 3-grams must be flagged
    ids = list(range(10))
    bench = min(ids, key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
    texts = {i: f"unique text for document number {i}" for i in ids}
    texts[bench] = "alpha beta gamma delta"
    clone = next(i for i in ids if i != bench)
    texts[clone] = "alpha beta gamma epsilon"  # shares shingle 'alpha beta gamma'
    _write_docs(tmp_path, texts)
    out = (
        q_contamination_check(str(tmp_path), n_bench=1)
        .to_pandas()
        .set_index("doc_id")
    )
    assert bench not in out.index
    assert out.loc[clone, "contaminated"] == 1
    assert out.loc[clone, "n_contaminated"] == 1
    others = out.drop(index=clone)
    assert (others["contaminated"] == 0).all()


# ------------------------------------------------------- normalization


def test_normalize_text_fn():
    assert normalize_text("  Hello\t\tWORLD \n") == "hello world"
    # NFC: e + combining acute -> precomposed e-acute (explicit escapes)
    assert normalize_text("cafe\u0301") == "caf\u00e9"
    assert normalize_text("") == ""


def test_normalize_query_md5(ray_session, tmp_path):
    _write_docs(tmp_path, {0: "  A  b\tC "})
    out = q_normalize_text(str(tmp_path)).to_pandas()
    assert out["norm_md5"][0] == hashlib.md5(b"a b c").hexdigest()
    assert out["n_chars_norm"][0] == 5


# ------------------------------------------------------- snapshot diff


def test_snapshot_diff_statuses(ray_session, tmp_path):
    from europarl_crawler_ray.functions.dedup import md5_hash64
    from europarl_crawler_ray.pipelines.corpus_ops import q_snapshot_diff

    ids = list(range(60))
    _write_docs(tmp_path, {i: f"content of doc {i}" for i in ids})
    out = q_snapshot_diff(str(tmp_path)).to_pandas().set_index("doc_id")["status"]
    h = md5_hash64([str(i) for i in ids])
    for i in ids:
        in_prev = int(h[i]) % 10 != 0
        in_curr = int(h[i]) % 13 != 0
        changed = int(h[i]) % 7 == 0
        if not in_prev and not in_curr:
            assert i not in out.index
        elif not in_prev:
            assert out[i] == "added"
        elif not in_curr:
            assert out[i] == "deleted"
        else:
            assert out[i] == ("changed" if changed else "same")
    assert set(out.unique()) <= {"added", "deleted", "changed", "same"}


# ----------------------------------------------------- jsonl roundtrip


def test_jsonl_roundtrip_unicode(ray_session, tmp_path):
    from europarl_crawler_ray.pipelines.corpus_ops import q_jsonl_roundtrip

    texts = {0: 'quote " backslash \\ newline \n tab \t café', 1: ""}
    _write_docs(tmp_path, texts)
    out = q_jsonl_roundtrip(str(tmp_path)).to_pandas().set_index("doc_id")
    for i, t in texts.items():
        assert out.loc[i, "text_md5"] == hashlib.md5(t.encode("utf-8")).hexdigest()
        assert out.loc[i, "n_chars_out"] == len(t)


# ---------------------------------------------- hive partitioned write


def test_hive_partition_scan(ray_session, tmp_path):
    import os

    from europarl_crawler_ray.pipelines.corpus_ops import q_hive_partition_scan

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["a", "b", "c", "d"]),
            "lang": pa.array(["en", "en", "de", "en"]),
            "source": pa.array(["s1", "s2", "s1", "s1"]),
            "n_chars": pa.array([1, 1, 1, 1], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = q_hive_partition_scan(str(tmp_path)).to_pandas().set_index("source")
    # de doc excluded by partition pruning; en docs aggregated per source
    assert out.loc["s1", "n_docs"] == 2 and out.loc["s1", "sum_doc_id"] == 5
    assert out.loc["s2", "n_docs"] == 1
    assert "de" not in out.index
    # the layout on disk is hive-partitioned (one dir per lang)
    import hashlib as _hl

    hive = "/tmp/europarl_hive_" + _hl.md5(
        os.path.abspath(str(tmp_path)).encode()
    ).hexdigest()[:10]
    assert os.path.isdir(os.path.join(hive, "lang=en"))
    assert os.path.isdir(os.path.join(hive, "lang=de"))


# -------------------------------------------------- stratified sample


def test_stratified_sample_rates(ray_session, tmp_path):
    from europarl_crawler_ray.functions.dedup import md5_hash64
    from europarl_crawler_ray.pipelines.corpus_ops import q_stratified_sample

    n = 400
    langs = ["en" if i % 2 == 0 else "de" for i in range(n)]
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(["x"] * n),
            "lang": pa.array(langs),
            "source": pa.array(["s"] * n),
            "n_chars": pa.array([1] * n, pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = q_stratified_sample(str(tmp_path)).to_pandas()
    h = md5_hash64([str(i) for i in range(n)])
    exp = {
        i
        for i in range(n)
        if (int(h[i]) % 2 == 0 if langs[i] == "en" else int(h[i]) % 4 == 0)
    }
    assert set(out["doc_id"]) == exp
    # en stratum keeps ~2x the rate of the others
    en = (out["lang"] == "en").sum()
    de = (out["lang"] == "de").sum()
    assert en > de


# ----------------------------------------------------- group quantiles


def test_group_quantiles_exact(ray_session, tmp_path):
    from europarl_crawler_ray.pipelines.corpus_ops import q_group_quantiles

    # en lengths 1..10 -> q25 idx floor(9*.25)=2 -> 3; q50 idx 4 -> 5;
    # q75 idx 6 -> 7; q90 idx 8 -> 9. de constant 42 -> all 42.
    lens = list(range(1, 11)) + [42] * 4
    langs = ["en"] * 10 + ["de"] * 4
    t = pa.table(
        {
            "doc_id": pa.array(range(len(lens)), pa.int64()),
            "text": pa.array(["x"] * len(lens)),
            "lang": pa.array(langs),
            "source": pa.array(["s"] * len(lens)),
            "n_chars": pa.array(lens, pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = (
        q_group_quantiles(str(tmp_path))
        .to_pandas()
        .set_index(["lang", "pct"])["value"]
    )
    assert out[("en", 25)] == 3
    assert out[("en", 50)] == 5
    assert out[("en", 75)] == 7
    assert out[("en", 90)] == 9
    assert all(out[("de", p)] == 42 for p in (25, 50, 75, 90))


