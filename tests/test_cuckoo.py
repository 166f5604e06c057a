"""CuckooSet (from-scratch cuckoo filter): no false negatives ever,
deletion works (the Bloom-impossible operation), kick-chain overflow
spills exactly instead of dropping, checkpoints round-trip, and the
sharded SeenSet runs on the cuckoo backend end-to-end."""

import numpy as np
import pytest

from europarl_crawler_ray.state.seen import CuckooSet, SeenSet


def _hashes(n, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 1 << 63, size=n, dtype=np.int64).astype(np.uint64),
        rng.integers(0, 1 << 63, size=n, dtype=np.int64).astype(np.uint64),
    )


class TestCuckooSet:
    def test_no_false_negatives_and_first_seen_semantics(self):
        cs = CuckooSet(m_buckets=1 << 12)
        h1, h2 = _hashes(3000, seed=1)
        seen1 = cs.check_and_add(h1, h2)
        assert not seen1.all()  # mostly new on first pass
        assert cs.contains(h1, h2).all()  # NO false negatives
        seen2 = cs.check_and_add(h1, h2)
        assert seen2.all()  # every re-add reports seen

    def test_false_positive_rate_small(self):
        cs = CuckooSet(m_buckets=1 << 12)
        h1, h2 = _hashes(2000, seed=2)
        cs.check_and_add(h1, h2)
        p1, p2 = _hashes(4000, seed=99)  # disjoint probe set
        fpr = cs.contains(p1, p2).mean()
        assert fpr < 0.02, fpr

    def test_delete_then_absent_others_unaffected(self):
        cs = CuckooSet(m_buckets=1 << 10)
        h1, h2 = _hashes(50, seed=3)
        cs.check_and_add(h1, h2)
        removed = cs.remove(h1[:10], h2[:10])
        assert removed.all()
        # deleted keys may still FP-collide with survivors' fingerprints,
        # but the untouched 40 keys MUST all remain present
        assert cs.contains(h1[10:], h2[10:]).all()

    def test_overflow_spills_exactly(self):
        cs = CuckooSet(m_buckets=4)  # 16 slots total
        h1, h2 = _hashes(200, seed=4)
        cs.check_and_add(h1, h2)
        assert cs.n_spilled > 0  # chains exhausted on a tiny table
        assert cs.contains(h1, h2).all()  # spill kept every key findable

    def test_checkpoint_roundtrip(self, tmp_path):
        cs = CuckooSet(m_buckets=1 << 10)
        h1, h2 = _hashes(300, seed=5)
        cs.check_and_add(h1, h2)
        p = str(tmp_path / "cuckoo.npz")
        cs.save(p)
        back = CuckooSet.load(p)
        assert back.contains(h1, h2).all()
        assert back.n_added == cs.n_added and back.n_spilled == cs.n_spilled


class TestCuckooExactMode:
    def test_exact_true_is_honored(self):
        """exact=True must behave like BloomSet's exact store: no false
        positives even on engineered fingerprint collisions."""
        cs = CuckooSet(m_buckets=1 << 4, exact=True)  # tiny → collisions
        h1, h2 = _hashes(500, seed=7)
        cs.check_and_add(h1, h2)
        p1, p2 = _hashes(500, seed=8)
        assert not cs.contains(p1, p2).any()  # exact: zero FPs
        assert cs.contains(h1, h2).all()

    def test_exact_survives_checkpoint_and_remove(self, tmp_path):
        cs = CuckooSet(m_buckets=1 << 6, exact=True)
        h1, h2 = _hashes(100, seed=9)
        cs.check_and_add(h1, h2)
        cs.remove(h1[:5], h2[:5])
        p = str(tmp_path / "c.npz")
        cs.save(p)
        back = CuckooSet.load(p)
        assert not back.contains(h1[:5], h2[:5]).any()
        assert back.contains(h1[5:], h2[5:]).all()


class TestBackendMismatch:
    def test_loading_wrong_backend_raises_clearly(self, tmp_path):
        import pytest

        from europarl_crawler_ray.state.seen import BloomSet

        b = BloomSet(m_bits=1 << 13)
        h1, h2 = _hashes(10, seed=10)
        b.check_and_add(h1, h2)
        pb = str(tmp_path / "bloom.npz")
        b.save(pb)
        with pytest.raises(ValueError, match="not a cuckoo checkpoint"):
            CuckooSet.load(pb)
        c = CuckooSet(m_buckets=1 << 8)
        c.check_and_add(h1, h2)
        pc = str(tmp_path / "cuckoo.npz")
        c.save(pc)
        with pytest.raises(ValueError, match="cuckoo backend"):
            BloomSet.load(pc)


class TestCuckooProperties:
    def test_random_ops_never_false_negative(self):
        """Against a reference exact set over random add/remove streams:
        every key the reference holds must be contains()-True (false
        positives allowed, false negatives never)."""
        import random

        rng = random.Random(11)
        cs = CuckooSet(m_buckets=1 << 8)
        ref: dict[int, tuple] = {}
        pool = [
            (np.uint64(rng.getrandbits(60)), np.uint64(rng.getrandbits(60)))
            for _ in range(300)
        ]
        for step in range(1500):
            k = rng.randrange(len(pool))
            h1, h2 = pool[k]
            if k in ref and rng.random() < 0.3:
                cs.remove(np.array([h1]), np.array([h2]))
                del ref[k]
            elif k not in ref:
                cs.check_and_add(np.array([h1]), np.array([h2]))
                ref[k] = (h1, h2)
            if step % 100 == 0 and ref:
                hh1 = np.array([v[0] for v in ref.values()], dtype=np.uint64)
                hh2 = np.array([v[1] for v in ref.values()], dtype=np.uint64)
                assert cs.contains(hh1, hh2).all(), step


class TestSeenSetCuckooBackend:
    def test_filter_new_matches_first_occurrence(self, ray_session):
        seen = SeenSet(num_shards=2, m_bits_per_shard=1 << 18, backend="cuckoo")
        try:
            urls = [f"https://h{i % 7}.com/p/{i % 40}" for i in range(120)]
            h1, h2 = _hashes(len(urls), seed=6)
            # same url -> same hashes (simulate the canonical hash pair)
            import hashlib

            h1 = np.array(
                [
                    int(hashlib.md5(u.encode()).hexdigest()[:16], 16) % (1 << 63)
                    for u in urls
                ],
                dtype=np.uint64,
            )
            h2 = np.array(
                [
                    int(hashlib.md5(("x" + u).encode()).hexdigest()[:16], 16)
                    % (1 << 63)
                    for u in urls
                ],
                dtype=np.uint64,
            )
            already = seen.check_and_add(h1, h2)
            firsts = set()
            want = []
            for u in urls:
                want.append(u in firsts)  # True where ALREADY seen
                firsts.add(u)
            # cuckoo FPs could only turn False->True; with 40 keys in
            # 2^12+ buckets collisions are ~0 — exact match expected
            assert already.tolist() == want
            assert seen.contains_mask(h1, h2).all()
            st = seen.stats()
            assert st["n_added"] == len(firsts)
        finally:
            seen.shutdown()


@pytest.mark.parametrize("n_actors", [1, 2, 8])
def test_cuckoo_masks_independent_of_actor_count(ray_session, monkeypatch, n_actors):
    """8 logical cuckoo shards on 1, 2 or 8 actors answer exactly like the
    straight-line per-shard oracle, intra-batch duplicates included."""
    from europarl_crawler_ray.state import seen as seen_mod

    monkeypatch.setattr(seen_mod, "actor_count", lambda num_shards, alive: n_actors)
    h1, h2 = _hashes(300, seed=12)
    # every third row repeats an earlier one, inside and across batches
    dup = np.arange(300) % 3 == 2
    h1[dup], h2[dup] = h1[np.nonzero(dup)[0] // 2], h2[np.nonzero(dup)[0] // 2]
    p1, p2 = _hashes(100, seed=13)
    q1, q2 = np.concatenate([h1[:100], p1]), np.concatenate([h2[:100], p2])
    calls = [("check_and_add", h1[:200], h2[:200]), ("check_and_add", h1[100:], h2[100:])]
    calls.append(("contains", q1, q2))

    # m_bits 1<<16 → 1024 buckets per shard, as SeenShard sizes them
    oracle = [CuckooSet(m_buckets=1 << 10) for _ in range(8)]
    want = []
    for method, a, b in calls:
        mask = np.zeros(len(a), dtype=bool)
        for s in range(8):
            idx = np.nonzero(a % np.uint64(8) == s)[0]
            mask[idx] = getattr(oracle[s], method)(a[idx], b[idx])
        want.append(mask.tolist())

    seen = SeenSet(num_shards=8, m_bits_per_shard=1 << 16, exact=False, backend="cuckoo")
    try:
        got = [
            (seen.check_and_add if m == "check_and_add" else seen.contains_mask)(a, b).tolist()
            for m, a, b in calls
        ]
        st = seen.stats()
    finally:
        seen.shutdown()
    assert got == want
    assert any(want[0])  # the first batch really held duplicates
    assert st["n_added"] == sum(c.n_added for c in oracle)
    assert len(st["shards"]) == 8 and all("n_spilled" in p for p in st["shards"])
