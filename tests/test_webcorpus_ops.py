"""webcorpus_ops semantics on planted fixtures: bitext representative
pick / pivot pairing / length-ratio boundary, SURT parser edge cases
(no-sub host, co.uk, query sorting, shard co-location). Oracle parity
at gate scale is covered by the driver gate / tools/check_oracles.py."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.functions.extract import extract_table_cells
from europarl_crawler_ray.pipelines.weblinkage_ops import (
    BITEXT_SESSION_SIZE,
    q_bitext_align,
)
from europarl_crawler_ray.pipelines.webcorpus_ops import (
    _surt_url,
    _table_html,
    detect_decode,
    encode_page,
    q_surt_keys,
    sniff_mime,
    surt_key,
)


def _write_docs(path, rows):
    # rows: list of (doc_id, lang, n_chars)
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array(["x" * r[2] for r in rows]),
            "lang": pa.array([r[1] for r in rows]),
            "source": pa.array(["s"] * len(rows)),
            "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, path / "documents.parquet")


def _write_events(path, user_ids):
    t = pa.table(
        {
            "event_id": pa.array(range(len(user_ids)), pa.int64()),
            "ts": pa.array(
                [pd.Timestamp("2024-01-01")] * len(user_ids), pa.timestamp("us")
            ),
            "user_id": pa.array(user_ids, pa.int64()),
            "event_type": pa.array(["e"] * len(user_ids)),
            "value": pa.array([0.0] * len(user_ids)),
            "props": pa.array(["{}"] * len(user_ids)),
        }
    )
    pq.write_table(t, path / "events.parquet")


class TestBitextAlign:
    def test_pivot_pairing_and_ratio_filter(self, ray_session, tmp_path):
        s = BITEXT_SESSION_SIZE
        # session 0: en rep is min doc_id (0 over 3); de passes ratio,
        # fr fails (201 > 2*100); session 1: no en -> no pairs.
        _write_docs(
            tmp_path,
            [
                (3, "en", 100),
                (0, "en", 100),  # representative (min doc_id)
                (1, "de", 200),  # 2*100 >= 200 -> kept, ratio_bp 5000
                (2, "fr", 201),  # 2*100 < 201 -> dropped
                (s + 1, "de", 50),
                (s + 2, "fr", 50),
            ],
        )
        df = (
            q_bitext_align(str(tmp_path))
            .to_pandas()
            .sort_values("lang")
            .reset_index(drop=True)
        )
        assert df["lang"].tolist() == ["de"]
        assert df["doc_en"].tolist() == [0]
        assert df["doc_xx"].tolist() == [1]
        assert df["ratio_bp"].tolist() == [5000]

    def test_exact_ratio_boundary_kept(self, ray_session, tmp_path):
        _write_docs(tmp_path, [(0, "en", 100), (1, "zh", 200)])
        df = q_bitext_align(str(tmp_path)).to_pandas()
        assert len(df) == 1 and df["ratio_bp"].iloc[0] == 5000


class TestSurtKey:
    def test_parser_families(self):
        assert (
            surt_key("https://www.site5.co.uk/p/123?b=2&a=3")
            == "uk,co,site5,www)/p/123?a=3&b=2"
        )
        assert surt_key("https://site4.com/p/4") == "com,site4)/p/4"
        assert surt_key("https://m.Site2.org/p/2") == "org,site2,m)/p/2"

    def test_shard_colocates_domain(self, ray_session, tmp_path):
        # doc_ids 0 and 388 share dom=site0 tld=com but different subs
        # (www vs ''); 388 % 97 == 0, 388 % 3 == 1 -> org, so use 291:
        # 291 % 97 == 0, 291 % 3 == 0 -> com, sub = ''.
        _write_docs(tmp_path, [(0, "en", 10), (291, "en", 10)])
        df = q_surt_keys(str(tmp_path)).to_pandas().sort_values("doc_id")
        assert _surt_url(0) == "https://www.site0.com/p/0?b=2&a=0"
        assert df["surt"].tolist() == [
            "com,site0,www)/p/0?a=0&b=2",
            "com,site0)/p/291",
        ]
        assert df["shard"].iloc[0] == df["shard"].iloc[1]
        exp = int(hashlib.md5(b"com,site0").hexdigest()[:16], 16) % 16
        assert df["shard"].iloc[0] == exp


class TestTableExtractor:
    def test_decoys_charrefs_and_indices(self):
        cells = extract_table_cells(_table_html(7))  # 5 rows x 3 cols
        assert len(cells) == 15
        assert cells[0] == (0, 0, "h0", True)
        assert cells[-1] == (4, 2, "v7_4_2", False)
        assert all("decoy" not in c[2] for c in cells)

    def test_implicit_cell_close_and_table_reset(self):
        html = (
            "<table><tr><td>a<td>b</tr></table>"
            "<table><tr><th>c</th></tr></table>"
        )
        assert extract_table_cells(html) == [
            (0, 0, "a", False),
            (0, 1, "b", False),
            (0, 0, "c", True),
        ]


class TestCharset:
    def test_roundtrip_all_classes(self):
        for enc_class, name in [(0, "utf-16-le"), (1, "utf-8-sig"), (2, "utf-8")]:
            cs, text = detect_decode(encode_page("héllo 世", enc_class))
            assert (cs, text) == (name, "héllo 世")

    def test_latin1_fallback(self):
        cs, text = detect_decode(b"caf\xe9")  # invalid utf-8 continuation
        assert (cs, text) == ("latin-1", "café")


class TestAhoCorasick:
    def test_nested_and_overlapping_counts(self):
        from europarl_crawler_ray.functions.ahocorasick import AhoCorasick

        ac = AhoCorasick(["scan", "can", "a", "aa"])
        got = dict(zip(["scan", "can", "a", "aa"], ac.count_matches("scan aaa")))
        # 'aa' in 'aaa' overlaps itself: positions 0-1 and 1-2 both count
        assert got == {"scan": 1, "can": 1, "a": 4, "aa": 2}

    def test_fail_links_across_patterns(self):
        from europarl_crawler_ray.functions.ahocorasick import AhoCorasick

        ac = AhoCorasick(["ab", "bc", "abc"])
        assert ac.count_matches("zabcz").tolist() == [1, 1, 1]

    def test_matches_re_on_borderless_lexicon(self):
        import re

        from europarl_crawler_ray.functions.ahocorasick import AhoCorasick
        from europarl_crawler_ray.pipelines.weblinkage_ops import BADWORD_LEXICON

        text = "sort or merge slow dup batch at scan can sorter lowlands"
        ac = AhoCorasick(BADWORD_LEXICON)
        got = ac.count_matches(text)
        for p, n in zip(BADWORD_LEXICON, got):
            assert n == len(re.findall(f"(?={re.escape(p)})", text)), p


class TestAhoCorasickProperties:
    def test_counts_equal_regex_lookahead_on_arbitrary_inputs(self):
        import re

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from europarl_crawler_ray.functions.ahocorasick import AhoCorasick

        pat = st.text(alphabet="ab", min_size=1, max_size=4)

        @settings(max_examples=150, deadline=None)
        @given(
            st.lists(pat, min_size=1, max_size=6, unique=True),
            st.text(alphabet="ab", max_size=40),
        )
        def check(patterns, text):
            ac = AhoCorasick(patterns)
            got = ac.count_matches(text)
            for p, n in zip(patterns, got):
                assert n == len(re.findall(f"(?={re.escape(p)})", text))

        check()


class TestWebcorpusProperties:
    def test_surt_invariant_under_query_order_and_host_case(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from europarl_crawler_ray.pipelines.webcorpus_ops import surt_key

        label = st.text(alphabet="abcz", min_size=1, max_size=5)
        param = st.tuples(
            st.text(alphabet="kq", min_size=1, max_size=2),
            st.text(alphabet="0123456789", min_size=1, max_size=3),
        )

        @settings(max_examples=100, deadline=None)
        @given(st.lists(label, min_size=2, max_size=4), st.lists(param, min_size=0, max_size=4), st.randoms())
        def check(labels, params, rnd):
            host = ".".join(labels)
            qs = [f"{k}={v}" for k, v in params]
            base = f"https://{host}/p/1" + ("?" + "&".join(qs) if qs else "")
            rnd.shuffle(qs)
            perm = f"https://{host.upper()}/p/1" + ("?" + "&".join(qs) if qs else "")
            assert surt_key(base) == surt_key(perm)

        check()

    def test_charset_roundtrip_arbitrary_unicode(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from europarl_crawler_ray.pipelines.webcorpus_ops import (
            detect_decode,
            encode_page,
        )

        @settings(max_examples=150, deadline=None)
        @given(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs",), max_codepoint=0x2FFFF
                ),
                max_size=60,
            ),
            st.integers(min_value=0, max_value=2),
        )
        def check(text, enc_class):
            if enc_class == 2 and text.startswith("﻿"):
                # inherent sniffing ambiguity: a plain-UTF-8 text whose
                # first char IS U+FEFF is byte-identical to a BOM'd file
                return
            cs, out = detect_decode(encode_page(text, enc_class))
            assert out == text

        check()


class TestRecordLinkage:
    def test_levenshtein_dp(self):
        from europarl_crawler_ray.pipelines.weblinkage_ops import levenshtein

        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "abc") == 0

    def test_prefilter_equivalence_fuzz(self):
        """The Hamming fast path and multiset-diff rejection used inside
        q_record_linkage.pairs must agree with plain DP on every pair."""
        import itertools
        import random
        from collections import Counter

        from europarl_crawler_ray.pipelines.weblinkage_ops import (
            LINKAGE_MAX_DIST,
            levenshtein,
        )

        rng = random.Random(7)
        strs = ["".join(rng.choice("abc") for _ in range(6)) for _ in range(80)]
        for a, b in itertools.combinations(strs, 2):
            lev = levenshtein(a, b)
            ham = sum(x != y for x, y in zip(a, b))
            ca, cb = Counter(a), Counter(b)
            D = sum(abs(ca[c] - cb[c]) for c in set(ca) | set(cb))
            if ham <= LINKAGE_MAX_DIST:
                assert lev == ham, (a, b)
            elif D > 2 * LINKAGE_MAX_DIST:
                assert lev > LINKAGE_MAX_DIST, (a, b)

    def test_true_pairs_present_with_dist_one(self, ray_session, tmp_path):
        t = pa.table(
            {
                "c_custkey": pa.array([0, 1], pa.int64()),
                "c_name": pa.array(["Customer#000000000", "Customer#000000001"]),
            }
        )
        pq.write_table(t, tmp_path / "customer.parquet")
        from europarl_crawler_ray.pipelines.weblinkage_ops import q_record_linkage

        df = q_record_linkage(str(tmp_path)).to_pandas()
        true_pairs = df[df["same_entity"] == 1]
        assert set(zip(true_pairs["rec_a"], true_pairs["rec_b"])) == {
            (0, 1),
            (2, 3),
        }
        assert (true_pairs["dist"] == 1).all()


class TestWinnowing:
    def test_rightmost_min_and_dedup(self):
        from europarl_crawler_ray.pipelines.weblinkage_ops import winnow_select

        # windows of [5,2,8,2,9] with w=3: min of [5,2,8]=2@1,
        # [2,8,2]=2 rightmost @3, [8,2,9]=2@3 -> selected {1,3}
        sel = winnow_select(np.array([5, 2, 8, 2, 9], dtype=np.uint64), w=3)
        assert sel.tolist() == [1, 3]

    def test_guarantee_shared_substring_shares_fingerprint(self):
        from europarl_crawler_ray.pipelines.weblinkage_ops import (
            WINNOW_K,
            WINNOW_W,
        )

        # any shared substring of length >= K+W-1 must share a selected
        # gram hash between the two docs (the winnowing guarantee)
        import hashlib as h

        common = "zqxwvutsrqponmlk"  # K+W-1 = 11 <= 16
        a, b = "AAAA" + common + "BBBB", "CCCCCC" + common + "DD"

        def fps(t):
            from europarl_crawler_ray.pipelines.weblinkage_ops import winnow_select

            hs = np.array(
                [
                    int(
                        h.md5(("wf|" + t[i : i + WINNOW_K]).encode()).hexdigest()[
                            :16
                        ],
                        16,
                    )
                    for i in range(len(t) - WINNOW_K + 1)
                ],
                dtype=np.uint64,
            )
            return {int(hs[p]) for p in winnow_select(hs)}

        assert fps(a) & fps(b)

    def test_too_short_selects_nothing(self):
        from europarl_crawler_ray.pipelines.weblinkage_ops import winnow_select

        assert winnow_select(np.array([3, 1], dtype=np.uint64), w=4).size == 0


class TestCrawlTrap:
    def test_rule_families_and_precedence(self):
        from europarl_crawler_ray.pipelines.webcorpus_ops import classify_trap

        assert classify_trap("https://h.com/a/b/c") == "ok"
        assert classify_trap("https://h.com/" + "/".join("abcdefghi")) == "depth"
        assert classify_trap("https://h.com/cat/x/x/x/p") == "loop"
        assert (
            classify_trap("https://h.com/2024/01/05/2024/01/06/post")
            == "calendar"
        )
        assert classify_trap("https://h.com/p?sid=" + "a1" * 16) == "session"
        # precedence: depth beats loop when both fire
        deep_loop = "https://h.com/" + "/".join(["x"] * 10)
        assert classify_trap(deep_loop) == "depth"
        # near-misses stay ok
        assert classify_trap("https://h.com/2024/13/05/2024/01/06/p") == "ok"
        assert classify_trap("https://h.com/p?sid=" + "g" * 32) == "ok"
        assert classify_trap("https://h.com/x/x/y/x/p") == "ok"
        # no-path url must still surface its query (review finding)
        assert classify_trap("https://h.com?sid=" + "a1" * 16) == "session"

    def test_short_doc_zeros_row_in_oracle(self):
        import duckdb

        from europarl_crawler_ray.pipelines.weblinkage_ops import WINNOW_FINGERPRINT_SQL

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT 1 AS doc_id, 'short' AS text"
        )
        df = con.sql(WINNOW_FINGERPRINT_SQL).df()
        assert len(df) == 1
        assert df.n_selected.iloc[0] == 0 and df.n_windows.iloc[0] == 0


class TestConsistentHash:
    def test_successor_wrap_and_minimal_relocation(self):
        from europarl_crawler_ray.pipelines.webcorpus_ops import _ring_points

        ring_h, ring_n = _ring_points()
        assert (np.diff(ring_h.astype(object)) > 0).all()
        # a key above the max ring point wraps to the minimum's owner
        kh = np.array([int(ring_h[-1]) + 1], dtype=np.uint64)
        idx = np.searchsorted(ring_h, kh, side="left")
        idx[idx == len(ring_h)] = 0
        assert ring_n[idx][0] == ring_n[0]

    def test_balance_roughly_even(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.webcorpus_ops import (
            CH_NODES,
            q_consistent_hash_assign,
        )

        t = pa.table(
            {
                "doc_id": pa.array(range(2000), pa.int64()),
                "text": pa.array(["x"] * 2000),
                "lang": pa.array(["en"] * 2000),
                "source": pa.array(["s"] * 2000),
                "n_chars": pa.array([1] * 2000, pa.int64()),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        df = q_consistent_hash_assign(str(tmp_path)).to_pandas()
        counts = df["node"].value_counts()
        assert len(counts) == CH_NODES
        # 16 vnodes/node keeps the max/min spread well under 4x
        assert counts.max() < 4 * counts.min()


class TestDistributionResample:
    def test_under_target_keeps_all_over_target_downsamples(
        self, ray_session, tmp_path
    ):
        from europarl_crawler_ray.pipelines.webcorpus_ops import (
            q_distribution_resample,
        )

        # 90 en (target 30%) + 10 zh (target 10%): en thr = 100*0.3/90 -> keeps
        # ~1/3 of en; zh thr = 100*0.1/10 = 1.0 -> keeps ALL zh
        rows = [(i, "en", 10) for i in range(90)] + [
            (90 + i, "zh", 10) for i in range(10)
        ]
        _write_docs(tmp_path, rows)
        df = q_distribution_resample(str(tmp_path)).to_pandas()
        assert (df[df["lang"] == "zh"]["kept"] == 1).all()
        en_kept = int(df[df["lang"] == "en"]["kept"].sum())
        assert 0 < en_kept < 90
        # exact threshold recheck for one doc
        import hashlib as h

        thr = (3000 * 100 * (1 << 64)) // (10000 * 90)
        for _, r in df[df["lang"] == "en"].iterrows():
            kh = int(h.md5(f"rs|{int(r.doc_id)}".encode()).hexdigest()[:16], 16)
            assert (kh < thr) == bool(r.kept)


class TestPolitenessAudit:
    def test_inclusive_window_boundary_and_peers(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.webcorpus_ops import q_politeness_audit

        rows = [
            (1, "2024-01-01 00:00:00"),  # exactly 10min before the 3rd -> counts
            (1, "2024-01-01 00:05:00"),
            (1, "2024-01-01 00:10:00"),
            (1, "2024-01-01 00:30:00"),  # isolated
            (2, "2024-01-01 00:00:00"),  # equal-ts peers both count
            (2, "2024-01-01 00:00:00"),
        ]
        _write_events(tmp_path, [r[0] for r in rows])
        # rewrite with real timestamps
        t = pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array(
                    [pd.Timestamp(r[1]) for r in rows], pa.timestamp("us")
                ),
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array(["e"] * len(rows)),
                "value": pa.array([0.0] * len(rows)),
                "props": pa.array(["{}"] * len(rows)),
            }
        )
        pq.write_table(t, tmp_path / "events.parquet")
        df = (
            q_politeness_audit(str(tmp_path))
            .to_pandas()
            .set_index("user_id")
            .sort_index()
        )
        assert df.loc[1, "peak_10m"] == 3 and df.loc[1, "n_events"] == 4
        assert df.loc[2, "peak_10m"] == 2


class TestLangidConfusion:
    def test_row_bp_sums_to_10000_per_true_lang(self, ray_session):
        from europarl_crawler_ray.pipelines.webcorpus_ops import q_langid_confusion

        df = q_langid_confusion("/root/testdata/sf0.001")
        sums = df.groupby("true_lang")["row_bp"].sum()
        # integer floor division loses at most (cells-1) bp per row
        assert ((sums > 9990) & (sums <= 10000)).all()
        assert int(df["n_docs"].sum()) == 500


class TestPareto:
    def test_local_skyline_strict_dominance_and_ties(self):
        from europarl_crawler_ray.pipelines.webcorpus_ops import _pareto_frame

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3, 4],
                "n_chars": [10, 10, 8, 8, 5],
                "quality": [5, 3, 5, 5, 9],
            }
        )
        # (10,5) dominates (10,3) and (8,5)x2 [strict on x]; (5,9) survives
        out = _pareto_frame(df)
        assert sorted(out["doc_id"].tolist()) == [0, 4]
        # equal points both survive
        df2 = pd.DataFrame(
            {"doc_id": [0, 1], "n_chars": [7, 7], "quality": [7, 7]}
        )
        assert sorted(_pareto_frame(df2)["doc_id"].tolist()) == [0, 1]


class TestRankNormalize:
    def test_rank_ties_share_min_rank(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.webcorpus_ops import q_rank_normalize

        _write_docs(
            tmp_path, [(0, "en", 10), (1, "en", 10), (2, "en", 20), (3, "en", 30)]
        )
        df = (
            q_rank_normalize(str(tmp_path))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert df["rnk"].tolist() == [1, 1, 3, 4]
        assert df["pct_bp"].tolist() == [0, 0, 6666, 10000]


class TestRingRebalance:
    def test_moved_keys_only_go_to_the_new_node(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.webcorpus_ops import (
            CH_NODES,
            q_ring_rebalance,
        )

        _write_docs(tmp_path, [(i, "en", 10) for i in range(500)])
        df = q_ring_rebalance(str(tmp_path)).to_pandas()
        moved = df[df["moved"] == 1]
        # the consistent-hashing theorem: relocations target ONLY the
        # added node, and roughly 1/(N+1) of keys move
        assert (moved["node_after"] == CH_NODES).all()
        assert 0 < len(moved) < len(df) // 2
        same = df[df["moved"] == 0]
        assert (same["node_before"] == same["node_after"]).all()


class TestGraphReciprocity:
    def test_counts_match_bruteforce(self, ray_session):
        from europarl_crawler_ray.pipelines.webgraph_ops import q_graph_reciprocity

        sf = "/root/testdata/sf0.001"
        df = q_graph_reciprocity(sf)
        import hashlib as h

        import pyarrow.parquet as pq_

        n = pq_.ParquetFile(f"{sf}/documents.parquet").metadata.num_rows
        edges = set()
        for d in range(n):
            k = 1 + int(h.md5(f"lnkk:42:{d}".encode()).hexdigest()[:16], 16) % 4
            for j in range(1, k + 1):
                dst = (d * 37 + j * 101) % n
                if dst != d:
                    edges.add((d, dst))
        recip = sum(1 for s, t in edges if (t, s) in edges)
        assert int(df["n_edges"].iloc[0]) == len(edges)
        assert int(df["n_recip"].iloc[0]) == recip


class TestTokenSimpson:
    def test_exact_collision_probability(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.weblinkage_ops import q_token_simpson

        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(["a a a b", "a b c d", "solo"]),
                "lang": pa.array(["en"] * 3),
                "source": pa.array(["s"] * 3),
                "n_chars": pa.array([7, 7, 4], pa.int64()),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        df = (
            q_token_simpson(str(tmp_path))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        # doc 0: counts {a:3,b:1} -> 3*2/(4*3) = 1/2 -> 5000 bp
        assert df.loc[0, "simpson_bp"] == 5000
        assert df.loc[1, "simpson_bp"] == 0  # all distinct
        assert df.loc[2, "simpson_bp"] == 0 and df.loc[2, "n_tokens"] == 1


class TestQuantileMap:
    def test_maps_source_percentile_onto_global(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.sketcheval_ops import q_quantile_map

        # source A: lengths 1,2 (cdf 5000,10000); source B: 10,20
        # global: 1,2,10,20 (cdf 2500,5000,7500,10000)
        # A:1 -> smallest global v with cdf>=5000 -> 2; A:2 -> 20
        # B:10 -> 2; B:20 -> 20
        rows = [(0, "A", 1), (1, "A", 2), (2, "B", 10), (3, "B", 20)]
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array(["x"] * 4),
                "lang": pa.array(["en"] * 4),
                "source": pa.array([r[1] for r in rows]),
                "n_chars": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        df = (
            q_quantile_map(str(tmp_path))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert df["mapped_chars"].tolist() == [2, 20, 2, 20]


class TestKcorePeel:
    def test_matches_bruteforce_peeling(self, ray_session):
        import hashlib as h

        import pyarrow.parquet as pq_

        from europarl_crawler_ray.pipelines.webgraph_ops import (
            KCORE_K,
            q_kcore_peel,
        )

        sf = "/root/testdata/sf0.001"
        n = pq_.ParquetFile(f"{sf}/documents.parquet").metadata.num_rows
        edges = set()
        for d in range(n):
            k = 1 + int(h.md5(f"lnkk:42:{d}".encode()).hexdigest()[:16], 16) % 4
            for j in range(1, k + 1):
                t = (d * 37 + j * 101) % n
                if t != d:
                    edges.add((d, t))
                    edges.add((t, d))
        while True:
            deg = {}
            for s, _ in edges:
                deg[s] = deg.get(s, 0) + 1
            dead = {u for u, c in deg.items() if c < KCORE_K}
            if not dead:
                break
            edges = {(s, t) for s, t in edges if s not in dead and t not in dead}
        alive = {s for s, _ in edges}
        df = q_kcore_peel(sf).to_pandas().set_index("doc_id")
        assert len(df) == n
        got = set(df[df["in_core"] == 1].index)
        assert got == alive
        assert 0 < len(alive) < n  # non-trivial cascade on this corpus


class TestRadixQuantiles:
    def test_estimates_bracket_exact_quantiles(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.sketcheval_ops import (
            RADIX_QS_BP,
            q_radix_quantiles,
        )

        vals = [round(0.01 * (i + 1), 2) for i in range(1000)]  # 1..1000 cents
        t = pa.table(
            {
                "event_id": pa.array(range(len(vals)), pa.int64()),
                "ts": pa.array(
                    [pd.Timestamp("2024-01-01")] * len(vals), pa.timestamp("us")
                ),
                "user_id": pa.array([0] * len(vals), pa.int64()),
                "event_type": pa.array(["e"] * len(vals)),
                "value": pa.array(vals),
                "props": pa.array(["{}"] * len(vals)),
            }
        )
        pq.write_table(t, tmp_path / "events.parquet")
        df = q_radix_quantiles(str(tmp_path)).set_index("q_bp")
        for q in RADIX_QS_BP:
            exact = 1 + (len(vals) - 1) * q // 10000  # cents are 1..1000
            est, b = int(df.loc[q, "est_cents"]), int(df.loc[q, "bucket"])
            assert (1 << b) <= est < (1 << (b + 1))  # inside its bucket
            # one-bucket relative error bound: within 2x of exact
            assert exact / 2 <= est <= exact * 2, (q, est, exact)


class TestCocitation:
    def test_matches_bruteforce(self, ray_session):
        import hashlib as h

        import pyarrow.parquet as pq_

        from europarl_crawler_ray.pipelines.webgraph_ops import (
            COCITE_MIN_SUPPORT,
            q_cocitation_pairs,
        )

        sf = "/root/testdata/sf0.001"
        n = pq_.ParquetFile(f"{sf}/documents.parquet").metadata.num_rows
        from collections import Counter

        c = Counter()
        for d in range(n):
            k = 1 + int(h.md5(f"lnkk:42:{d}".encode()).hexdigest()[:16], 16) % 4
            dsts = sorted(
                {(d * 37 + j * 101) % n for j in range(1, k + 1)} - {d}
            )
            for i in range(len(dsts)):
                for j in range(i + 1, len(dsts)):
                    c[(dsts[i], dsts[j])] += 1
        want = {p: v for p, v in c.items() if v >= COCITE_MIN_SUPPORT}
        df = q_cocitation_pairs(sf).to_pandas()
        got = {
            (int(r.dst_a), int(r.dst_b)): int(r.n_common)
            for r in df.itertuples()
        }
        assert got == want and len(want) > 0


class TestCdcChunks:
    def test_boundary_stability_under_prefix_edit(self):
        """The CDC property: inserting text at the front shifts early
        boundaries but every boundary far enough past the edit is the
        SAME split point in content coordinates."""
        from europarl_crawler_ray.pipelines.sketcheval_ops import (
            CDC_W,
            cdc_boundaries,
        )

        base = "the quick brown fox jumps over the lazy dog " * 30
        edited = "INSERTED PREFIX " + base
        b1 = set(cdc_boundaries(base))
        b2 = set(cdc_boundaries(edited))
        shift = len("INSERTED PREFIX ")
        # every original boundary at position >= W-1 reappears shifted
        stable = {b + shift for b in b1 if b >= CDC_W - 1}
        assert stable <= b2
        assert len(b1) > 2  # the corpus-style text actually chunks

    def test_last_char_boundary_not_duplicated(self):
        from europarl_crawler_ray.pipelines.sketcheval_ops import cdc_boundaries

        # brute construction: find a string whose final window IS a
        # boundary and check n_chunks logic counts it once
        s = "the quick brown fox jumps over the lazy dog " * 30
        bs = cdc_boundaries(s)
        ends = bs + ([len(s) - 1] if (not bs or bs[-1] != len(s) - 1) else [])
        assert len(ends) == len(set(ends))


class TestDegreeAssortativity:
    def test_matches_bruteforce(self, ray_session):
        import hashlib as h

        import pyarrow.parquet as pq_

        from europarl_crawler_ray.pipelines.webgraph_ops import q_degree_assortativity

        sf = "/root/testdata/sf0.001"
        n = pq_.ParquetFile(f"{sf}/documents.parquet").metadata.num_rows
        de = set()
        for d in range(n):
            k = 1 + int(h.md5(f"lnkk:42:{d}".encode()).hexdigest()[:16], 16) % 4
            for j in range(1, k + 1):
                t = (d * 37 + j * 101) % n
                if t != d:
                    de.add((d, t))
                    de.add((t, d))
        from collections import Counter

        deg = Counter(s for s, _ in de)
        xs = [deg[s] for s, _ in de]
        ys = [deg[t] for _, t in de]
        N = len(de)
        num = N * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)
        df = q_degree_assortativity(sf)
        assert int(df["n_edges"].iloc[0]) == N
        assert int(df["num"].iloc[0]) == num


class TestCompressionRatio:
    def test_repetitive_text_compresses_more(self, ray_session, tmp_path):
        from europarl_crawler_ray.pipelines.sketcheval_ops import q_compression_ratio

        import random

        rng = random.Random(5)
        rand_text = "".join(rng.choice("abcdefgh ") for _ in range(400))
        _write_docs(
            tmp_path,
            [(0, "en", 400), (1, "en", 400)],
        )
        # overwrite with controlled texts
        t = pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["spam " * 80, rand_text]),
                "lang": pa.array(["en", "en"]),
                "source": pa.array(["s", "s"]),
                "n_chars": pa.array([400, 400], pa.int64()),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        df = (
            q_compression_ratio(str(tmp_path))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert df.loc[0, "ratio_bp"] < df.loc[1, "ratio_bp"]
        assert df.loc[0, "raw_len"] == 400
        # determinism: zlib level 6 is stable across runs
        df2 = q_compression_ratio(str(tmp_path)).to_pandas().set_index("doc_id")
        assert df2.loc[0, "zlib_len"] == df.loc[0, "zlib_len"]


class TestPathTemplates:
    def test_hex_and_digit_generalization(self):
        from europarl_crawler_ray.pipelines.webcorpus_ops import url_template

        assert url_template("https://h.com/a/b/c123?x=1") == "/a/b/c{N}"
        assert (
            url_template("https://h.com/sess/" + "ab12" * 8 + "/view")
            == "/sess/{H}/view"
        )
        assert url_template("https://h.com/2024/01/05") == "/{N}/{N}/{N}"
        assert url_template("https://h.com") == "/"


class TestMimeSniff:
    def test_magic_and_whitespace_html(self):
        assert sniff_mime(b"\x89PNG\r\n\x1a\nxxx") == "image/png"
        assert sniff_mime(b"BM\x00\x01") == "image/bmp"
        assert sniff_mime(b"\x1f\x8b\x08rest") == "application/gzip"
        assert sniff_mime(b"%PDF-1.4") == "application/pdf"
        assert sniff_mime(b"  \n<!DOCTYPE html>") == "text/html"
        assert sniff_mime(b"\t<HtMl><body>") == "text/html"

    def test_binary_vs_plain(self):
        assert sniff_mime(b"plain words\n") == "text/plain"
        assert sniff_mime(b"has\x00nul") == "application/octet-stream"
        # a <td> fragment is NOT html per the tag table
        assert sniff_mime(b"<td>cell</td>") == "text/plain"


class TestLastBatchOracleParity:
    """ADVICE r3 low #4: the last-landed operators relied on the driver's
    ~50-of-158 sampling for correctness; pin each against its own DuckDB
    oracle in-repo so pytest alone catches a divergence."""

    NAMES = [
        "pq_recall",
        "path_templates",
        "kmv_error",
        "product_quantize",
        # round-4 sampling batch
        "mrl_recall",
        "vocab_drift",
        "sentence_stats",
        "crosslang_links",
        "postings_roundtrip",
        "avro_roundtrip",
        "tokenizer_fertility",
        "quarantine_extract",
        "hyperball_2hop",
        "minhash_pr_curve",
        "clustering_coeff",
        # round-4 linkrank batch
        "hits_scores",
        "random_walks",
        "scc_pivot",
        "theta_intersect",
        "bloom_fpr",
        "orc_roundtrip",
        "ipc_roundtrip",
        "mis_luby",
        "mmr_rerank",
        # round-4 third-session batch
        "butterfly_count",
        "label_prop",
    ]

    def test_oracle_parity(self, ray_session, sf_dir):
        import duckdb

        from check_oracles import TABLES, compare, to_pandas

        import __ray_entry__ as entry

        qs, sqls = entry.queries(), entry.oracle_sql()
        con = duckdb.connect()
        for t in TABLES:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
            )
        for name in self.NAMES:
            ray_df = to_pandas(qs[name](sf_dir))
            sql_df = con.execute(sqls[name]).fetchdf()
            assert compare(name, ray_df, sql_df) == [], name
