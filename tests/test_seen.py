import os

import numpy as np
import pytest

from europarl_crawler_ray.functions.canonical import hash_urls
from europarl_crawler_ray.state.seen import BloomSet


def test_check_and_add_basic():
    b = BloomSet(m_bits=1 << 16, exact=True)
    h1, h2 = hash_urls(["u1", "u2", "u3"])
    assert b.check_and_add(h1, h2).tolist() == [False, False, False]
    assert b.check_and_add(h1, h2).tolist() == [True, True, True]
    assert b.n_added == 3


def test_intra_batch_duplicates_only_first_is_new():
    b = BloomSet(m_bits=1 << 16, exact=True)
    h1, h2 = hash_urls(["a", "b", "a", "a", "c", "b"])
    seen = b.check_and_add(h1, h2)
    assert seen.tolist() == [False, False, True, True, False, True]
    assert b.n_added == 3


def test_bloom_mode_no_false_negatives_and_dup_detection():
    b = BloomSet(m_bits=1 << 20, exact=False)
    urls = [f"https://h/{i}" for i in range(5000)]
    h1, h2 = hash_urls(urls)
    first = b.check_and_add(h1, h2)
    # duplicates within batch flagged, no false negatives on re-check
    assert not first[np.unique(h1, return_index=True)[1]].any()
    again = b.check_and_add(h1, h2)
    assert again.all()


def test_bloom_fpr_reasonable():
    b = BloomSet(m_bits=1 << 20, k=8, exact=False)  # ~10 bits/key at 100k keys
    h1, h2 = hash_urls([f"k{i}" for i in range(100_000)])
    b.check_and_add(h1, h2)
    q1, q2 = hash_urls([f"other{i}" for i in range(50_000)])
    fpr = b.contains(q1, q2).mean()
    assert fpr < 0.02, fpr


def test_checkpoint_restore(tmp_path):
    b = BloomSet(m_bits=1 << 16, exact=True)
    h1, h2 = hash_urls(["x", "y"])
    b.check_and_add(h1, h2)
    p = str(tmp_path / "shard.npz")
    b.save(p)
    b2 = BloomSet.load(p)
    assert b2.check_and_add(*hash_urls(["x", "y", "z"])).tolist() == [True, True, False]


def test_sharded_seenset_routing(ray_session):
    from europarl_crawler_ray.state.seen import SeenSet

    s = SeenSet(num_shards=4, m_bits_per_shard=1 << 16, exact=True)
    urls = [f"https://h/{i}" for i in range(1000)] * 2
    h1, h2 = hash_urls(urls)
    seen = s.check_and_add(h1, h2)
    # first 1000 unique: exactly 1000 new regardless of shard routing
    assert int((~seen).sum()) == 1000
    assert s.contains_mask(h1, h2).all()
    assert s.stats()["n_added"] == 1000


def test_shard_death_without_checkpoint_dir_fails_loudly(ray_session):
    import numpy as np
    import pytest
    import ray

    from europarl_crawler_ray.state.seen import SeenSet

    s = SeenSet(num_shards=2, m_bits_per_shard=1 << 16)
    h = np.arange(100, dtype=np.uint64)
    s.check_and_add(h, h + 1)
    ray.kill(s.actors[0], no_restart=True)
    with pytest.raises(RuntimeError, match="checkpoint_dir"):
        for _ in range(5):  # death may surface on a later call
            s.check_and_add(h, h + 1)
    s.shutdown()


def test_shard_death_with_checkpoint_recovers_at_least_once(ray_session, tmp_path, monkeypatch):
    """VERDICT r2 #10: a killed seen actor restarts, reloads the last
    checkpoint of every logical shard it hosts, and serves again. Urls
    seen BEFORE the checkpoint stay seen; urls seen after it may be
    re-admitted once (documented at-least-once) — but only those on the
    killed actor's shards."""
    import time

    import numpy as np
    import ray

    from europarl_crawler_ray.state import seen as seen_mod

    # 4 logical shards on 2 actors: actor 0 hosts shards 0 and 2
    monkeypatch.setattr(seen_mod, "actor_count", lambda num_shards, alive: 2)
    ckpt = str(tmp_path / "seen")
    s = seen_mod.SeenSet(num_shards=4, m_bits_per_shard=1 << 16, checkpoint_dir=ckpt)
    try:
        pre = np.arange(0, 200, dtype=np.uint64)
        assert not s.check_and_add(pre, pre + 1).any()
        s.checkpoint()
        post = np.arange(1000, 1100, dtype=np.uint64)
        assert not s.check_and_add(post, post + 1).any()  # after the checkpoint

        ray.kill(s.actors[0], no_restart=False)  # crash the host of shards 0, 2
        time.sleep(0.5)

        # checkpointed urls are still seen after the restart+reload, on
        # both of the restarted actor's shards
        seen_pre = s.check_and_add(pre, pre + 1)
        assert seen_pre.all(), "checkpointed urls were forgotten by the restarted actor"
        # post-checkpoint urls of the killed actor's shards were forgotten
        # -> re-admitted once (documented); the survivor's stay seen
        on_killed = (post % 4) % 2 == 0
        assert set((post[on_killed] % 4).tolist()) == {0, 2}
        assert s.check_and_add(post, post + 1).tolist() == (~on_killed).tolist()
        # ...and from now on they are seen again
        assert s.check_and_add(post, post + 1).all()
    finally:
        s.shutdown()


def test_actor_count_follows_nodes_not_shards():
    from europarl_crawler_ray.state.seen import actor_count

    assert actor_count(8, 1) == 1
    assert actor_count(1024, 256) == 256
    assert actor_count(2, 16) == 2  # never more actors than shards
    assert actor_count(8, 0) == 1


def test_actor_placement_options(monkeypatch):
    """Seen actors are SPREAD over nodes and reserve their hosted shards'
    memory (m_bits/8 per logical shard); asserted on the options SeenSet
    passes, with ray.nodes() faked — no multi-node cluster is started."""
    from europarl_crawler_ray.state import seen as seen_mod

    created = []

    class _FakeActor:
        def __init__(self, opts):
            self.opts = opts

        def remote(self, *args):
            created.append((self.opts, args))
            return object()

    class _FakeShard:
        @staticmethod
        def options(**opts):
            return _FakeActor(opts)

    nodes = [{"Alive": True}] * 4 + [{"Alive": False}]
    monkeypatch.setattr(seen_mod.ray, "nodes", lambda: nodes)
    monkeypatch.setattr(seen_mod, "SeenShard", _FakeShard)
    s = seen_mod.SeenSet(num_shards=10, m_bits_per_shard=1 << 20, checkpoint_dir="unused")
    assert len(s.actors) == 4  # one per ALIVE node
    hosted = [3, 3, 2, 2]  # shards 0,4,8 | 1,5,9 | 2,6 | 3,7
    for a, (opts, args) in enumerate(created):
        assert opts["scheduling_strategy"] == "SPREAD"
        assert opts["memory"] == hosted[a] * (1 << 17)
        assert opts["num_cpus"] == 0 and opts["max_concurrency"] == 1
        assert opts["max_restarts"] == -1 and opts["max_task_retries"] == -1
        assert args[:3] == (a, 4, 10)
    # without a checkpoint dir a dead actor must fail loudly, not restart
    no_ckpt = seen_mod.actor_options(2, 1 << 20, recoverable=False)
    assert "max_restarts" not in no_ckpt and no_ckpt["memory"] == 2 * (1 << 17)


def _oracle_masks(make_shard, num_shards, calls):
    """The straight-line seen set: one in-process set per logical shard,
    routed by ``h1 % num_shards``, rows applied in batch order."""
    shards = [make_shard() for _ in range(num_shards)]
    out = []
    for method, h1, h2 in calls:
        mask = np.zeros(len(h1), dtype=bool)
        for s in range(num_shards):
            idx = np.nonzero(h1 % np.uint64(num_shards) == s)[0]
            if len(idx):
                mask[idx] = getattr(shards[s], method)(h1[idx], h2[idx])
        out.append(mask)
    return out, sum(b.n_added for b in shards)


def _dedup_calls():
    """check_and_add batches with intra- and cross-batch duplicates, then
    a read-only probe mixing seen and unseen keys."""
    urls = [f"https://h{i % 5}.eu/doc/{i % 150}" for i in range(400)]
    probe = [f"https://h{i % 5}.eu/doc/{i}" for i in range(100, 300)]
    b1, b2 = urls[:250], urls[150:]
    return [
        ("check_and_add", *hash_urls(b1)),
        ("check_and_add", *hash_urls(b2)),
        ("contains", *hash_urls(probe)),
    ]


def _run_seenset(seen_mod, calls, **kw):
    s = seen_mod.SeenSet(**kw)
    try:
        out = [
            s.check_and_add(h1, h2) if method == "check_and_add" else s.contains_mask(h1, h2)
            for method, h1, h2 in calls
        ]
        st = s.stats()
        assert len(st["shards"]) == kw["num_shards"]  # one entry per LOGICAL shard
        return out, st["n_added"]
    finally:
        s.shutdown()


@pytest.mark.parametrize("n_actors", [1, 2, 8])
@pytest.mark.parametrize("exact", [False, True], ids=["bloom", "exact"])
def test_masks_independent_of_actor_count(ray_session, monkeypatch, n_actors, exact):
    """8 logical shards on 1, 2 or 8 actors answer exactly like the
    straight-line per-shard oracle, intra-batch duplicates included."""
    from europarl_crawler_ray.state import seen as seen_mod

    monkeypatch.setattr(seen_mod, "actor_count", lambda num_shards, alive: n_actors)
    calls = _dedup_calls()
    want, want_added = _oracle_masks(lambda: BloomSet(m_bits=1 << 12, exact=exact), 8, calls)
    got, n_added = _run_seenset(seen_mod, calls, num_shards=8, m_bits_per_shard=1 << 12, exact=exact)
    assert [m.tolist() for m in got] == [m.tolist() for m in want]
    assert n_added == want_added == 150
    assert got[0][150:].any()  # the first batch really held duplicates


def test_checkpoint_restores_onto_fewer_actors(ray_session, monkeypatch, tmp_path):
    """Checkpoints are one file per LOGICAL shard: a checkpoint written by
    2 actors restores into 1 with the same membership and n_added."""
    from europarl_crawler_ray.state import seen as seen_mod

    ckpt = str(tmp_path / "seen")
    added, probe = hash_urls([f"u{i}" for i in range(500)]), hash_urls([f"v{i}" for i in range(500)])
    monkeypatch.setattr(seen_mod, "actor_count", lambda num_shards, alive: 2)
    two = seen_mod.SeenSet(num_shards=8, m_bits_per_shard=1 << 14, exact=False)
    try:
        two.check_and_add(*added)
        two.checkpoint(ckpt)
        want_probe = two.contains_mask(*probe)
        want_stats = two.stats()
    finally:
        two.shutdown()
    assert sorted(os.listdir(ckpt)) == [f"seen_shard_{s:05d}.npz" for s in range(8)]

    monkeypatch.setattr(seen_mod, "actor_count", lambda num_shards, alive: 1)
    one = seen_mod.SeenSet(num_shards=8, m_bits_per_shard=1 << 14, exact=False)
    try:
        assert len(one.actors) == 1
        assert one.restore(ckpt) == 500 == want_stats["n_added"]
        assert one.contains_mask(*added).all()
        assert one.contains_mask(*probe).tolist() == want_probe.tolist()
        assert [p["n_added"] for p in one.stats()["shards"]] == [
            p["n_added"] for p in want_stats["shards"]
        ]
    finally:
        one.shutdown()
