"""Sketch semantics on planted fixtures: exact bit-length kernel (the
float64-rounding trap), HLL register parity with a brute-force single
pass, CMS conservation + upper-bound guarantee. Oracle parity is
covered by the gate; the equi-depth, threshold-algorithm and
count-sketch tests also check it on their planted fixtures."""

import hashlib
import re
from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from europarl_crawler_ray.functions.dedup import _WORD_RE, md5_hash64
from europarl_crawler_ray.pipelines.sketch_ops import (
    CELL_W,
    CMS_DEPTH,
    CMS_WIDTH,
    COUNT_SKETCH_SQL,
    CS_D,
    CS_TOPK,
    CS_W,
    TA_K,
    TOPK_THRESHOLD_SQL,
    _bitlen_u58,
    _equidepth_sql,
    hll_partial,
    q_cms_sketch,
    q_count_sketch,
    q_equidepth_hist,
    q_hll_distinct,
    q_topk_threshold,
)

TOK = re.compile(r"[^ \t\n\r\f]+")


def _write_docs(path, rows, n_chars=None):
    t = pa.table(
        {
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array([r[0] for r in rows]),
            "source": pa.array(["s"] * len(rows)),
            "n_chars": pa.array(
                [len(r[1]) for r in rows] if n_chars is None else n_chars, pa.int64()
            ),
        }
    )
    pq.write_table(t, path / "documents.parquet")


def _assert_oracle_parity(got, path, sql):
    """``got`` equals the DuckDB oracle ``sql`` over ``path``'s
    documents, order-insensitively."""
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}/documents.parquet')"
    )
    want = con.execute(sql).fetchdf()

    def canon(df):
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].astype(str)
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def test_bitlen_exact_incl_float_rounding_trap():
    rng = np.random.RandomState(3)
    xs = rng.randint(0, 1 << 58, size=5000, dtype=np.uint64)
    # the trap cases: values just below powers of two above 2^53 round
    # UP when cast to float64 — naive log2 overstates bit_length
    edges = []
    for k in [33, 53, 54, 55, 57, 58]:
        edges += [(1 << k) - 1, (1 << k) - 2]
    edges += [0, 1, 2, (1 << 32) - 1, 1 << 32, (1 << 57)]
    xs = np.concatenate([xs, np.array([e for e in edges if e < 1 << 58], dtype=np.uint64)])
    want = np.array([int(x).bit_length() for x in xs], dtype=np.int64)
    got = _bitlen_u58(xs)
    assert (got == want).all()


def test_hll_registers_match_bruteforce(ray_session, tmp_path):
    rows = [
        ("en", "the quick brown fox jumps over the lazy dog"),
        ("en", "the quick red fox"),
        ("de", "der schnelle braune fuchs"),
        ("de", ""),
    ]
    _write_docs(tmp_path, rows)
    df = q_hll_distinct(str(tmp_path)).to_pandas()
    # brute force: one flat pass per lang
    for lang in ("en", "de"):
        words = set()
        for lg, t in rows:
            if lg == lang:
                words.update(_WORD_RE.findall(t.lower()))
        reg, rho = hll_partial(md5_hash64(sorted(words)))
        want = {}
        for r, q in zip(reg, rho):
            want[int(r)] = max(want.get(int(r), 0), int(q))
        got = (
            df[df["lang"] == lang].set_index("reg")["max_rho"].astype(int).to_dict()
        )
        assert got == want
    assert (df["max_rho"] >= 1).all() and (df["max_rho"] <= 59).all()


def test_cms_conservation_and_upper_bound(ray_session, tmp_path):
    rng = np.random.RandomState(11)
    vocab = ["tok%d" % i for i in range(50)]
    rows = [
        ("en", " ".join(vocab[rng.randint(0, 50)] for _ in range(rng.randint(1, 60))))
        for _ in range(30)
    ]
    _write_docs(tmp_path, rows)
    df = q_cms_sketch(str(tmp_path)).to_pandas()
    true = {}
    for _, t in rows:
        for w in _WORD_RE.findall(t.lower()):
            true[w] = true.get(w, 0) + 1
    total = sum(true.values())
    # conservation: every hash row sums to the total occurrence count
    sums = df.groupby("row_id")["n_count"].sum()
    assert len(sums) == CMS_DEPTH and (sums == total).all()
    # point estimates (min over rows) upper-bound the true count
    cells = {(int(r), int(b)): int(n) for r, b, n in df.to_numpy()}
    for w, n in true.items():
        est = min(
            cells.get(
                (j, int(md5_hash64([f"{j}:{w}"])[0] % np.uint64(CMS_WIDTH))), 0
            )
            for j in range(CMS_DEPTH)
        )
        assert est >= n



# ------------------------------------------------- equi-depth histogram


def test_equidepth_counts_and_parity(ray_session, tmp_path):
    # three count clusters across the cell domain + a heavy spike
    chars = (
        [(i % 4) * CELL_W for i in range(150)]  # cells 0..3
        + [(20 + i % 3) * CELL_W for i in range(150, 250)]  # cells 20..22
        + [55 * CELL_W] * 50  # spike at cell 55
    )
    _write_docs(tmp_path, [("en", "x")] * len(chars), n_chars=chars)
    eq = q_equidepth_hist(str(tmp_path))
    assert int(eq["count_sum"].sum()) == len(chars)
    _assert_oracle_parity(eq, tmp_path, _equidepth_sql())


# ------------------------------------------------ threshold-algorithm top-k


def test_ta_stop_round_brute_force_and_parity(ray_session, tmp_path):
    # x = n_chars, y = distinct tokens; doc 3 ties doc 1 exactly
    texts = [
        " ".join(f"t{j}" for j in range(50)),
        " ".join(f"u{j}" for j in range(80)),
        " ".join(f"v{j}" for j in range(60)),
        " ".join(f"u{j}" for j in range(80)),
    ] + [" ".join(f"w{j}" for j in range(5 + i % 20)) for i in range(56)]
    n_chars = [10_000, 50, 9_000, 50] + [100 + 10 * (i % 20) for i in range(56)]
    _write_docs(tmp_path, [("en", t) for t in texts], n_chars=n_chars)
    got = q_topk_threshold(str(tmp_path))
    pts = [(x, len(set(TOK.findall(t.lower())))) for t, x in zip(texts, n_chars)]
    scores = sorted(
        ((x + y, i) for i, (x, y) in enumerate(pts)),
        key=lambda t: (-t[0], t[1]),
    )
    kth = scores[min(TA_K, len(scores)) - 1][0]
    xs = sorted((x for x, _ in pts), reverse=True)
    ys = sorted((y for _, y in pts), reverse=True)
    stop = next(
        (r + 1 for r in range(len(pts)) if kth >= xs[r] + ys[r]),
        len(pts),
    )
    assert int(got["stop_round"].iloc[0]) == stop
    assert stop < len(pts) // 2  # TA stops genuinely early here
    assert [int(s) for s in got["score"]] == [s for s, _ in scores[:TA_K]]
    _assert_oracle_parity(got, tmp_path, TOPK_THRESHOLD_SQL)


# ---------------------------------------------------------- count-sketch


def test_count_sketch_median_rule_and_parity(ray_session, tmp_path):
    texts = [
        " ".join(["the", "and"] * (1 + i % 3) + [f"w{i % 15}"] * (i % 4) + [f"rare{i}"])
        for i in range(70)
    ]
    _write_docs(tmp_path, [("en", t) for t in texts])
    got = q_count_sketch(str(tmp_path))
    assert len(got) == CS_TOPK

    def sign(j, tok):
        return 1 if _md5_64(f"css:{j}:{tok}") % 2 == 0 else -1

    cnt = Counter(tok for t in texts for tok in TOK.findall(t.lower()))
    table: dict[tuple, int] = {}
    for tok, c in cnt.items():
        for j in range(CS_D):
            h = _md5_64(f"csh:{j}:{tok}") % CS_W
            table[(j, h)] = table.get((j, h), 0) + sign(j, tok) * c
    for _, r in got.iterrows():
        tok = r["token"]
        ests = sorted(
            sign(j, tok) * table.get((j, _md5_64(f"csh:{j}:{tok}") % CS_W), 0)
            for j in range(CS_D)
        )
        assert int(r["estimate"]) == ests[CS_D // 2]
        assert int(r["exact"]) == cnt[tok]
        assert int(r["abs_err"]) == abs(ests[CS_D // 2] - cnt[tok])
    _assert_oracle_parity(got, tmp_path, COUNT_SKETCH_SQL)


# ------------------------------------------------ theta-sketch intersection


def test_theta_intersect_matches_bruteforce(ray_session, tmp_path):
    """Straight-line reference: shingle sets via the same kernel, exact
    intersection + the theta formula recomputed with plain Python ints.
    Word streams are long enough that both langs SATURATE the K=64
    sketch (the estimator path, not the exact-copy fallback)."""
    import hashlib

    from europarl_crawler_ray.functions.dedup import shingle_strings
    from europarl_crawler_ray.pipelines.sketcheval_ops import (
        THETA_K,
        _THETA_2_64,
        q_theta_intersect,
    )

    def words(seed, n, vocab):
        return " ".join(
            f"w{int(hashlib.md5(f'{seed}:{i}'.encode()).hexdigest()[:4], 16) % vocab}"
            for i in range(n)
        )

    rows = [
        ("aa", words("a0", 400, 37)),
        ("aa", words("a1", 400, 37)),
        ("bb", words("b0", 400, 41)),
        ("bb", words("b1", 400, 37)),  # shares the vocab-37 shingle space
    ]
    _write_docs(tmp_path, rows)
    sets = {}
    for lang in ("aa", "bb"):
        sh = set()
        for lg, txt in rows:
            if lg == lang:
                sh.update(shingle_strings(txt))
        sets[lang] = np.sort(md5_hash64(sorted(sh)))
    assert all(s.size > THETA_K for s in sets.values())  # saturated
    sa, sb = sets["aa"], sets["bb"]
    n_exact = int(np.intersect1d(sa, sb).size)
    ka, kb = sa[:THETA_K], sb[:THETA_K]
    theta = min(int(ka[-1]), int(kb[-1]))
    c = int((np.intersect1d(ka, kb) < np.uint64(theta)).sum())
    est = c * _THETA_2_64 // theta
    df = q_theta_intersect(str(tmp_path)).set_index(["lang_a", "lang_b"])
    row = df.loc[("aa", "bb")]
    assert int(row["n_inter_exact"]) == n_exact
    assert int(row["est"]) == est
    assert int(row["err_bp"]) == 10000 * abs(est - n_exact) // max(n_exact, 1)


def test_theta_intersect_unsaturated_is_exact(ray_session, tmp_path):
    # below K distinct shingles per lang, theta = 2^64 and the sketch IS
    # the set: the estimate must equal the exact intersection
    rows = [
        ("aa", "p q r s t u v w"),
        ("bb", "r s t u v w x y"),
    ]
    _write_docs(tmp_path, rows)
    from europarl_crawler_ray.pipelines.sketcheval_ops import q_theta_intersect

    df = q_theta_intersect(str(tmp_path))
    assert len(df) == 1
    assert int(df["est"].iloc[0]) == int(df["n_inter_exact"].iloc[0])
    assert int(df["err_bp"].iloc[0]) == 0


# --------------------------------------------------------- bloom filter FPR


def test_bloom_fpr_matches_bruteforce(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from europarl_crawler_ray.pipelines.sketcheval_ops import (
        BLOOM_J,
        BLOOM_M,
        q_bloom_fpr,
    )

    members = np.arange(0, 900, dtype=np.int64)
    pq.write_table(
        pa.table({"o_custkey": pa.array(np.repeat(members, 2))}),  # dup orders
        tmp_path / "orders.parquet",
    )
    probes = np.arange(0, 1300, dtype=np.int64)
    pq.write_table(
        pa.table({"c_custkey": pa.array(probes)}), tmp_path / "customer.parquet"
    )
    # straight-line bloom with the same md5 bit family
    bits = set()
    for i in range(1, BLOOM_J + 1):
        bits.update(
            int(h) % BLOOM_M for h in md5_hash64([f"bf{i}:{k}" for k in members])
        )
    n_fp = 0
    for k in probes + 10_000_000:
        pos = [
            int(md5_hash64([f"bf{i}:{k}"])[0]) % BLOOM_M
            for i in range(1, BLOOM_J + 1)
        ]
        n_fp += all(p in bits for p in pos)
    df = q_bloom_fpr(str(tmp_path))
    assert int(df["n_members"].iloc[0]) == len(members)
    assert int(df["n_neg"].iloc[0]) == len(probes)
    assert int(df["n_false_pos"].iloc[0]) == n_fp
    assert int(df["fpr_bp"].iloc[0]) == 10000 * n_fp // len(probes)


class TestDupTransitivity:
    def test_open_wedge_detected(self, ray_session, tmp_path):
        import pandas as pd

        from europarl_crawler_ray.pipelines.sketcheval_ops import (
            q_dup_transitivity,
        )

        # bridge doc b shares half its text with a and half with c:
        # a~b and b~c pass Jaccard ~0.33 > 0.2, a~c share nothing —
        # a genuinely open wedge (the non-transitivity the op measures)
        xa = " ".join(f"alpha{i}" for i in range(60))
        yc = " ".join(f"omega{i}" for i in range(60))
        docs = pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                "text": [xa, xa + " " + yc, yc],
                "lang": ["en"] * 3,
                "source": ["t"] * 3,
                "n_chars": [len(xa), len(xa) + 1 + len(yc), len(yc)],
            }
        )
        docs.to_parquet(tmp_path / "documents.parquet")
        out = q_dup_transitivity(str(tmp_path))
        assert int(out["n_pairs"].iloc[0]) == 2  # (1,2) and (2,3)
        assert int(out["n_wedges"].iloc[0]) == 1  # 1-2-3
        assert int(out["n_closed"].iloc[0]) == 0  # 1~3 missing
        assert int(out["closure_bp"].iloc[0]) == 0

    def test_matches_bruteforce_on_testdata(self, ray_session, sf_dir):
        import pandas as pd

        from europarl_crawler_ray.pipelines.ml_queries import q_dedup_minhash
        from europarl_crawler_ray.pipelines.sketcheval_ops import (
            q_dup_transitivity,
        )

        pairs = q_dedup_minhash(sf_dir).to_pandas()
        pset = set(zip(pairs["doc_a"], pairs["doc_b"]))
        adj: dict[int, set[int]] = {}
        for a, b in pset:
            adj.setdefault(int(a), set()).add(int(b))
            adj.setdefault(int(b), set()).add(int(a))
        n_w = n_c = 0
        for _, nb in adj.items():
            vs = sorted(nb)
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    n_w += 1
                    if (vs[i], vs[j]) in pset:
                        n_c += 1
        out = q_dup_transitivity(sf_dir)
        assert int(out["n_pairs"].iloc[0]) == len(pset)
        assert int(out["n_wedges"].iloc[0]) == n_w
        assert int(out["n_closed"].iloc[0]) == n_c
