"""training_ops semantics on tiny planted fixtures: chunk boundary
math, bigram model determinism and scoring, shard assignment +
within-shard total order, latest-wins upsert, CSV quoting round trips.
Oracle parity is covered by the gate."""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.pipelines.training_ops import (
    CHUNK_SIZE,
    N_TRAIN_SHARDS,
    UPSERT_INSERT_OFFSET,
    _CHUNK_STEP,
    q_bigram_lm_score,
    q_chunk_docs,
    q_csv_roundtrip,
    q_ipc_roundtrip,
    q_orc_roundtrip,
    q_train_shards,
    q_upsert_merge,
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


# ------------------------------------------------------------ chunking


def test_chunk_math_and_content(ray_session, tmp_path):
    long = "ab" * 600  # 1200 chars -> ceil math over step
    texts = {1: long, 2: "short", 3: ""}
    _write_docs(tmp_path, texts)
    df = q_chunk_docs(str(tmp_path)).to_pandas()
    # empty doc contributes nothing
    assert set(df["doc_id"]) == {1, 2}
    n = len(long)
    want_chunks = (n - 1) // _CHUNK_STEP + 1
    d1 = df[df["doc_id"] == 1].sort_values("chunk_id")
    assert list(d1["chunk_id"]) == list(range(want_chunks))
    # every chunk is exactly text[k*step : k*step+size]
    for _, r in d1.iterrows():
        piece = long[r["chunk_id"] * _CHUNK_STEP :][:CHUNK_SIZE]
        assert r["chunk_md5"] == hashlib.md5(piece.encode()).hexdigest()
        assert r["chunk_len"] == len(piece)
    # consecutive chunks overlap by size-step chars
    assert d1["chunk_len"].iloc[0] == CHUNK_SIZE
    d2 = df[df["doc_id"] == 2]
    assert len(d2) == 1 and d2["chunk_len"].iloc[0] == 5


# ----------------------------------------------------------- bigram LM


def test_bigram_model_scoring(ray_session, tmp_path):
    # 'a b' appears in 3 docs (count 3), everything else once -> with
    # k=2 the model is {'a b'} + lexicographically-first of the ties
    texts = {
        1: "a b c",
        2: "a b",
        3: "x a b",
        4: "zz yy",
    }
    _write_docs(tmp_path, texts)
    df = (
        q_bigram_lm_score(str(tmp_path), k=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # doc1 bigrams: 'a b','b c'; doc3: 'x a','a b'; doc4: 'zz yy'
    assert df.loc[1, "n_bigrams"] == 2
    assert df.loc[2, "n_bigrams"] == 1 and df.loc[2, "n_hits"] == 1
    assert df.loc[4, "n_hits"] == 0
    # tie-break: ties at count=1 are 'a b'(3) then 'b c' ASC first
    assert df.loc[1, "n_hits"] == 2  # 'a b' + 'b c' (k=2 model)
    assert df.loc[3, "n_hits"] == 1


def test_bigram_case_folding_and_single_token_docs(ray_session, tmp_path):
    _write_docs(tmp_path, {1: "Foo BAR foo bar", 2: "lonely"})
    df = q_bigram_lm_score(str(tmp_path)).to_pandas()
    # doc2 has <2 tokens -> absent from output (matches SQL)
    assert set(df["doc_id"]) == {1}
    # lowercased: bigrams are 'foo bar','bar foo','foo bar' -> all in model
    assert df["n_bigrams"].iloc[0] == 3 and df["n_hits"].iloc[0] == 3


# --------------------------------------------------------- train shards


def test_train_shards_deterministic_total_order(ray_session, tmp_path):
    texts = {i: f"doc {i}" for i in range(200)}
    _write_docs(tmp_path, texts)
    a = q_train_shards(str(tmp_path)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = q_train_shards(str(tmp_path)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # deterministic across runs
    assert a.equals(b)
    assert set(a.columns) == {"doc_id", "shard", "pos_in_shard"}
    assert a["shard"].between(0, N_TRAIN_SHARDS - 1).all()
    # within each shard: positions are exactly 0..n-1 (a total order)
    for s, g in a.groupby("shard"):
        assert sorted(g["pos_in_shard"]) == list(range(len(g)))
    # the md5 key spreads docs: no shard hogs everything
    assert a["shard"].nunique() > N_TRAIN_SHARDS // 2


# ---------------------------------------------------------- upsert merge


def test_upsert_latest_wins(ray_session, tmp_path):
    texts = {7: "seven", 11: "eleven", 13: "thirteen", 77: "both"}
    _write_docs(tmp_path, texts)
    df = q_upsert_merge(str(tmp_path)).to_pandas().set_index("doc_id")
    # %7 docs updated in place with the v2 prefix
    assert df.loc[7, "version"] == 1
    assert df.loc[7, "text_md5"] == hashlib.md5(b"v2 seven").hexdigest()
    assert df.loc[77, "version"] == 1 and df.loc[77, "n_chars"] == len("v2 both")
    # %11 docs insert a fresh row in the offset id space (base untouched:
    # 11 % 7 != 0 so doc 11 itself stays version 0)
    assert df.loc[11 + UPSERT_INSERT_OFFSET, "version"] == 1
    assert (
        df.loc[11 + UPSERT_INSERT_OFFSET, "text_md5"]
        == hashlib.md5(b"eleven").hexdigest()
    )
    # untouched docs keep version 0
    assert df.loc[13, "version"] == 0
    assert df.loc[11, "version"] == 0
    assert len(df) == 4 + 2  # 2 inserts: 11 and 77


# ------------------------------------------------------------- CSV I/O


def test_csv_roundtrip_hostile_content(ray_session, tmp_path):
    texts = {
        1: 'quote " and, comma',
        2: "embedded\nnewline\r\nand cr",
        3: "",
        4: "unicode: café € \U0001f600",
    }
    _write_docs(tmp_path, texts)
    df = q_csv_roundtrip(str(tmp_path)).to_pandas().set_index("doc_id")
    for did, t in texts.items():
        assert df.loc[did, "text_md5"] == hashlib.md5(t.encode("utf-8")).hexdigest()
        assert df.loc[did, "n_chars_out"] == len(t)


def test_orc_and_ipc_roundtrip_hostile_content(ray_session, tmp_path):
    # columnar formats must survive what CSV needs quoting for, plus
    # nulls-as-empty and astral-plane unicode
    texts = {
        1: 'quote " and, comma',
        2: "embedded\nnewline\r\nand cr",
        3: "",
        4: "unicode: café € \U0001f600",
        5: "nul byte \x00 inside",
    }
    _write_docs(tmp_path, texts)
    for q in (q_orc_roundtrip, q_ipc_roundtrip):
        df = q(str(tmp_path)).to_pandas().set_index("doc_id")
        assert len(df) == len(texts)
        for did, t in texts.items():
            assert df.loc[did, "text_md5"] == hashlib.md5(t.encode("utf-8")).hexdigest()
            assert df.loc[did, "n_chars_out"] == len(t)


def test_orc_and_ipc_write_real_shard_files(ray_session, tmp_path):
    # the write side must produce one self-contained file per bucket,
    # each independently parseable by the stock readers
    import os

    import pyarrow as pa
    import pyarrow.orc as paorc

    _write_docs(tmp_path, {i: f"doc {i}" for i in range(32)})
    q_orc_roundtrip(str(tmp_path)).to_pandas()
    q_ipc_roundtrip(str(tmp_path)).to_pandas()
    import hashlib as _h

    tag = _h.md5(os.path.abspath(str(tmp_path)).encode()).hexdigest()[:10]
    orc_dir, ipc_dir = f"/tmp/europarl_orc_{tag}", f"/tmp/europarl_arrow_{tag}"
    orc_files = sorted(os.listdir(orc_dir))
    ipc_files = sorted(os.listdir(ipc_dir))
    assert len(orc_files) == 8 and len(ipc_files) == 8  # 32 ids, 8 buckets
    n_orc = sum(
        paorc.ORCFile(os.path.join(orc_dir, f)).nrows for f in orc_files
    )
    n_ipc = sum(
        pa.ipc.open_file(os.path.join(ipc_dir, f)).read_all().num_rows
        for f in ipc_files
    )
    assert n_orc == n_ipc == 32


# ------------------------------------------- rollup (one-pass aggregate)


def test_rollup_levels_consistent(ray_session, sf_dir):
    from europarl_crawler_ray.pipelines.queries import q_rollup_stats

    res = q_rollup_stats(sf_dir)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    fine = df[(df["l_returnflag"] != "ALL") & (df["l_linestatus"] != "ALL")]
    sub = df[(df["l_returnflag"] != "ALL") & (df["l_linestatus"] == "ALL")]
    total = df[(df["l_returnflag"] == "ALL") & (df["l_linestatus"] == "ALL")]
    assert len(total) == 1
    # each level is the exact integer sum of the level below
    assert total["n_items"].iloc[0] == fine["n_items"].sum() == sub["n_items"].sum()
    for flag, g in fine.groupby("l_returnflag"):
        row = sub[sub["l_returnflag"] == flag]
        assert row["sum_qty_cents"].iloc[0] == g["sum_qty_cents"].sum()


# ----------------------------------------------------- sequence packing


def test_sequence_pack_spans(ray_session, tmp_path):
    from europarl_crawler_ray.pipelines.training_ops import q_sequence_pack

    # token stream (doc_id order): doc1=3 toks, doc2=0, doc3=5, doc5=4
    # with seq_len=4: seq0 = d1[0:3] + d3[0:1]; seq1 = d3[1:5];
    # seq2 = d5[0:4] -- doc3 spans the 0/1 boundary
    texts = {1: "a b c", 2: "", 3: "d e f g h", 5: "i j k l"}
    _write_docs(tmp_path, texts)
    df = (
        q_sequence_pack(str(tmp_path), seq_len=4)
        .to_pandas()
        .sort_values(["seq_id", "doc_id"])
        .reset_index(drop=True)
    )
    want = [
        (0, 1, 0, 3),
        (0, 3, 0, 1),
        (1, 3, 1, 4),
        (2, 5, 0, 4),
    ]
    assert [tuple(r) for r in df.to_numpy()] == want


def test_sequence_pack_invariants(ray_session, tmp_path):
    import re

    from europarl_crawler_ray.pipelines.training_ops import q_sequence_pack

    rng = np.random.RandomState(7)
    texts = {
        i: " ".join("w%d" % rng.randint(100) for _ in range(rng.randint(0, 40)))
        for i in range(0, 60, 2)  # gappy doc_ids
    }
    _write_docs(tmp_path, texts)
    L = 16
    df = q_sequence_pack(str(tmp_path), seq_len=L, n_ranges=4).to_pandas()
    n_toks = {i: len(re.findall(r"[^ \t\n\r\f]+", t)) for i, t in texts.items()}
    total = sum(n_toks.values())
    # every token is packed exactly once
    assert df["n_toks_in_seq"].sum() == total
    per_doc = df.groupby("doc_id")["n_toks_in_seq"].sum().to_dict()
    assert per_doc == {i: n for i, n in n_toks.items() if n > 0}
    # every sequence is exactly L tokens except the last
    per_seq = df.groupby("seq_id")["n_toks_in_seq"].sum().sort_index()
    assert (per_seq.iloc[:-1] == L).all() and per_seq.iloc[-1] == total - L * (len(per_seq) - 1)
    # spans within a doc are contiguous from 0 in doc_id-ordered stream
    for did, g in df.groupby("doc_id"):
        g = g.sort_values("seq_id")
        assert g["tok_start_in_doc"].iloc[0] == 0
        assert (
            g["tok_start_in_doc"].to_numpy()[1:]
            == (g["tok_start_in_doc"] + g["n_toks_in_seq"]).to_numpy()[:-1]
        ).all()


def test_sequence_pack_empty_corpus(ray_session, tmp_path):
    from europarl_crawler_ray.pipelines.training_ops import q_sequence_pack

    _write_docs(tmp_path, {})
    out = q_sequence_pack(str(tmp_path))
    df = out.to_pandas() if not hasattr(out, "count") else out.to_pandas()
    assert len(df) == 0 and list(df.columns) == [
        "seq_id",
        "doc_id",
        "tok_start_in_doc",
        "n_toks_in_seq",
    ]


class TestSpanMaskStats:
    def test_overlapping_spans_merge(self, ray_session, sf_dir):
        import hashlib

        import pandas as pd

        from europarl_crawler_ray.pipelines.training_ops import (
            SPAN_MASK_LEN,
            SPAN_MASK_MOD,
            q_span_mask_stats,
        )

        out = q_span_mask_stats(sf_dir).to_pandas()
        docs = pd.read_parquet(f"{sf_dir}/documents.parquet").set_index("doc_id")
        # brute-force a handful of docs: greedy union of [p, p+L)
        import re

        tok_re = re.compile(r"[^ \t\n\r\f]+")
        for did in out["doc_id"].sort_values().head(50):
            n = len(tok_re.findall(docs.loc[did, "text"].lower()))
            masked = set()
            n_spans = 0
            end_excl = 0  # exclusive end of the running island; a start
            # AT end_excl is contiguous and merges (op + oracle rule)
            for i in range(1, n + 1):
                h = int(
                    hashlib.md5(f"sm:{did}:{i}".encode()).hexdigest()[:16], 16
                )
                if h % SPAN_MASK_MOD == 0:
                    if i > end_excl:
                        n_spans += 1
                    span = range(i, min(i + SPAN_MASK_LEN, n + 1))
                    masked.update(span)
                    end_excl = max(end_excl, min(i + SPAN_MASK_LEN, n + 1))
            row = out[out["doc_id"] == did].iloc[0]
            assert int(row["n_tokens"]) == n
            assert int(row["n_masked"]) == len(masked)
            assert int(row["n_spans"]) == n_spans

    def test_mask_rate_near_target(self, ray_session, sf_dir):
        from europarl_crawler_ray.pipelines.training_ops import q_span_mask_stats

        out = q_span_mask_stats(sf_dir).to_pandas()
        total = out["n_tokens"].sum()
        masked = out["n_masked"].sum()
        # 5% starts x length 3 with overlap shrinkage: expect ~12-15%
        assert 0.08 < masked / total < 0.20


class TestHardNegatives:
    def test_matches_bruteforce(self, ray_session, sf_dir):
        import hashlib

        import pandas as pd

        from europarl_crawler_ray.pipelines.mining_ops import (
            HN_Q,
            q_hard_negatives,
        )

        emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
        ids = emb["vec_id"].to_numpy(np.int64)
        labels = emb["label"].to_numpy(np.int64)
        mat = np.floor(
            np.stack(emb["embedding"].to_numpy()).astype(np.float64) * 1000.0
        ).astype(np.int64)
        md5s = np.array(
            [hashlib.md5(f"hn:{int(v)}".encode()).hexdigest() for v in ids]
        )
        qidx = np.argsort(md5s)[:HN_Q]
        out = q_hard_negatives(sf_dir).set_index("query_id")
        assert len(out) == HN_Q
        for qi in qidx:
            q, ql = int(ids[qi]), int(labels[qi])
            s = mat @ mat[qi]
            for same, id_col, s_col in [(True, "pos_id", "pos_s"),
                                        (False, "neg_id", "neg_s")]:
                m = (ids != q) & ((labels == ql) == same)
                dd, sc = ids[m], s[m]
                i = np.lexsort((dd, -sc))[0]
                assert int(out.loc[q, id_col]) == int(dd[i])
                assert int(out.loc[q, s_col]) == int(sc[i])
            assert int(out.loc[q, "margin"]) == int(
                out.loc[q, "pos_s"] - out.loc[q, "neg_s"]
            )


class TestLmRemovalCurve:
    def test_matches_composed_score_pass(self, ray_session, sf_dir):
        from europarl_crawler_ray.pipelines.training_ops import (
            LM_CURVE_TS,
            q_bigram_lm_score,
            q_lm_removal_curve,
        )

        scored = q_bigram_lm_score(sf_dir).to_pandas()
        bp = (
            scored["n_hits"].to_numpy(np.int64)
            * 10000
            // scored["n_bigrams"].to_numpy(np.int64)
        )
        toks = scored["n_bigrams"].to_numpy(np.int64) + 1
        out = q_lm_removal_curve(sf_dir).set_index("threshold_bp")
        for t in LM_CURVE_TS:
            rm = bp < t
            assert int(out.loc[t, "docs_removed"]) == int(rm.sum())
            assert int(out.loc[t, "tokens_removed"]) == int(toks[rm].sum())
            assert int(out.loc[t, "docs_total"]) == len(scored)

    def test_curve_is_monotone(self, ray_session, sf_dir):
        from europarl_crawler_ray.pipelines.training_ops import q_lm_removal_curve

        out = q_lm_removal_curve(sf_dir).sort_values("threshold_bp")
        assert out["docs_removed"].is_monotonic_increasing
        assert out["tokens_removed"].is_monotonic_increasing
