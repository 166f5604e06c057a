"""The shared Pregel round loop (pipelines/pregel.py): actor-resident
rounds, message routing, termination on max_iters, checkpoint resume and
the callers' not-converged warnings."""

import numpy as np
import pandas as pd
import pytest


def test_dedup_clusters_warns_when_rounds_exhausted(ray_session, sf_dir, caplog):
    """The existing not-converged warning still fires through the shared
    helper when max_iters is too small for the component diameter."""
    import logging

    from europarl_crawler_ray.pipelines.ml_queries import q_dedup_clusters

    with caplog.at_level(logging.WARNING):
        res = q_dedup_clusters(sf_dir, max_iters=1)
        n = res.count() if hasattr(res, "count") else len(res)
    assert n >= 0
    assert any("did NOT converge" in r.message for r in caplog.records)


def test_pregel_actor_loop_counts_down_and_routes(ray_session):
    """Actor-resident engine: state loads once, messages route by
    key % n_actors, counts drive convergence, and the final state comes
    back as a Dataset without touching the driver."""
    import ray.data

    from europarl_crawler_ray.pipelines.pregel import pregel_actor_loop

    seed = ray.data.from_pandas(
        pd.DataFrame({"b": [0, 1, 2, 3], "x": [3, 1, 0, 2]})
    )

    def step(actor_id, n_actors, state, msgs, i):
        if state is None or not len(state):
            return state, None, 0
        s = state.copy()
        n_in = 0 if msgs is None else len(msgs)
        s["x"] = np.maximum(s["x"].to_numpy() - 1, 0)
        s["seen_msgs"] = s.get("seen_msgs", 0) + n_in
        active = s[s["x"] > 0]
        out = (
            pd.DataFrame({"b": (active["b"].to_numpy() + 1) % 4})
            if len(active)
            else None
        )
        return s, out, int((s["x"] > 0).sum())

    ds, converged, last = pregel_actor_loop(
        seed, step, key="b", max_iters=10, n_actors=2
    )
    assert converged and last == 0
    out = ds.to_pandas().sort_values("b").reset_index(drop=True)
    assert out["x"].tolist() == [0, 0, 0, 0]
    # messages were delivered across actors (actor of b=0 messaged b=1 etc.)
    assert out["seen_msgs"].sum() > 0


def test_pregel_actor_loop_exhausts_max_iters(ray_session):
    import ray.data

    from europarl_crawler_ray.pipelines.pregel import pregel_actor_loop

    seed = ray.data.from_pandas(pd.DataFrame({"b": [0, 1], "x": [1, 1]}))

    def step(actor_id, n_actors, state, msgs, i):
        if state is None:
            return state, None, 0
        return state, None, 1  # never converges

    ds, converged, last = pregel_actor_loop(
        seed, step, key="b", max_iters=3, n_actors=2
    )
    assert not converged and last == 2
    assert len(ds.to_pandas()) == 2


def test_kcore_degree_correct_across_many_blocks(ray_session, sf_dir, monkeypatch):
    """Review finding: the per-batch edge dedup is batch-local — a
    reciprocal pair whose endpoints land in different read blocks used
    to arrive at the bucket actor twice and inflate the degree. Force a
    16-block read and require the same answer as the single-block run
    (and the oracle)."""
    import europarl_crawler_ray.pipelines.webgraph_ops as wg

    base = wg.q_kcore_peel(sf_dir)
    base = (base.to_pandas() if hasattr(base, "to_pandas") else base).sort_values(
        "doc_id"
    ).reset_index(drop=True)

    real_read = wg._read

    def small_blocks(sf, table, columns=None):
        return real_read(sf, table, columns).repartition(16)

    monkeypatch.setattr(wg, "_read", small_blocks)
    split = wg.q_kcore_peel(sf_dir)
    split = (split.to_pandas() if hasattr(split, "to_pandas") else split).sort_values(
        "doc_id"
    ).reset_index(drop=True)
    monkeypatch.undo()
    assert base.equals(split)


def test_pregel_actor_loop_checkpoint_resume(ray_session, tmp_path):
    """Per-round checkpointing: a capped run commits (state, outbox)
    behind a manifest; a re-run resumes from the newest committed round
    — proven by a poisoned seed that would raise if resume ever
    re-executed the load — and reaches the same fixed point as an
    uninterrupted run."""
    import os

    import ray.data

    from europarl_crawler_ray.pipelines.pregel import pregel_actor_loop

    frame = pd.DataFrame({"b": [0, 1, 2, 3], "left": [5, 3, 1, 4]})

    def make_seed(poisoned=False):
        ds = ray.data.from_pandas(frame.copy())
        if poisoned:
            def boom(t):
                raise RuntimeError("resume must not re-load the seed")
            ds = ds.map_batches(boom, batch_format="pandas")
        return ds

    def step(actor_id, n_actors, state, msgs, i):
        if state is None or not len(state):
            return state, None, 0
        s = state.copy()
        n_in = 0 if msgs is None else int(msgs["left"].sum())
        s["seen"] = s.get("seen", 0) + n_in
        s["left"] = np.maximum(s["left"].to_numpy() - 1, 0)
        active = s[s["left"] > 0]
        out = (
            pd.DataFrame(
                {"b": (active["b"].to_numpy() + 1) % 4, "left": active["left"]}
            )
            if len(active)
            else None
        )
        return s, out, int((s["left"] > 0).sum())

    full, conv_a, _ = pregel_actor_loop(
        make_seed(), step, key="b", max_iters=20, n_actors=2
    )
    expected = full.to_pandas().sort_values("b").reset_index(drop=True)
    assert conv_a

    ck = str(tmp_path / "pregel_ck")
    partial, conv_b, _ = pregel_actor_loop(
        make_seed(), step, key="b", max_iters=2, n_actors=2, checkpoint_dir=ck
    )
    assert not conv_b
    manifests = [n for n in os.listdir(ck) if n.endswith(".manifest.json")]
    assert manifests == ["round_0001.manifest.json"]  # older round pruned

    resumed, conv_c, _ = pregel_actor_loop(
        make_seed(poisoned=True), step, key="b", max_iters=20, n_actors=2,
        checkpoint_dir=ck,
    )
    assert conv_c
    got = resumed.to_pandas().sort_values("b").reset_index(drop=True)
    assert got.equals(expected)

    # actor-count mismatch is refused loudly, never silently mis-bucketed
    with pytest.raises(ValueError, match="n_actors"):
        pregel_actor_loop(
            make_seed(), step, key="b", max_iters=2, n_actors=4,
            checkpoint_dir=ck,
        )


def test_pregel_messages_read_once_not_per_actor(ray_session):
    """VERDICT r4 #1: sender-side outbox routing. Total rows FETCHED by
    actors must equal total rows SENT — with the old scan-every-outbox
    scheme each message was read n_actors times (4× here)."""
    import ray.data

    from europarl_crawler_ray.pipelines.pregel import pregel_actor_loop

    n = 4
    seed = pd.DataFrame({"b": np.arange(8), "x": np.full(8, 3)})

    def step(actor_id, n_actors, state, msgs, i):
        if state is None or not len(state):
            return state, None, 0
        s = state.copy()
        s["x"] = np.maximum(s["x"].to_numpy() - 1, 0)
        active = s[s["x"] > 0]
        # every active node messages EVERY bucket -> cross-actor traffic
        out = (
            pd.DataFrame(
                {"b": np.tile(np.arange(8), len(active))}
            )
            if len(active)
            else None
        )
        return s, out, int((s["x"] > 0).sum())

    stats: dict = {}
    ds, converged, _ = pregel_actor_loop(
        ray.data.from_pandas(seed), step, key="b", max_iters=10,
        n_actors=n, stats=stats,
    )
    assert converged
    assert stats["sent_rows"] > 0
    # reads scale with message volume, not n_actors x volume
    assert stats["recv_rows"] == stats["sent_rows"]


def test_pregel_actor_killed_mid_round_resumes_from_checkpoint(
    ray_session, tmp_path
):
    """VERDICT r4 #6 chaos pin: an actor process dying MID-ROUND fails
    the query loudly; a re-run with the same checkpoint_dir resumes from
    the newest committed round (never round 0 — proven by a poisoned
    seed AND the executed-round log) and reaches the byte-identical
    fixed point of an uninterrupted run."""
    import os

    import ray
    import ray.data

    from europarl_crawler_ray.pipelines.pregel import pregel_actor_loop

    frame = pd.DataFrame({"b": [0, 1, 2, 3], "left": [6, 4, 2, 5]})
    kill_flag = tmp_path / "kill_once"
    kill_flag.write_text("armed")
    round_log = tmp_path / "rounds"
    round_log.mkdir()

    def make_seed(poisoned=False):
        ds = ray.data.from_pandas(frame.copy())
        if poisoned:
            def boom(t):
                raise RuntimeError("resume must not re-load the seed")
            ds = ds.map_batches(boom, batch_format="pandas")
        return ds

    def make_step(kill_path, log_dir):
        def step(actor_id, n_actors, state, msgs, i):
            (log_dir / f"r{i:02d}_a{actor_id}").touch()
            if actor_id == 1 and i == 3 and kill_path.exists():
                kill_path.unlink()
                os._exit(1)  # simulate a lost worker process mid-round
            if state is None or not len(state):
                return state, None, 0
            s = state.copy()
            n_in = 0 if msgs is None else int(msgs["left"].sum())
            s["seen"] = s.get("seen", 0) + n_in
            s["left"] = np.maximum(s["left"].to_numpy() - 1, 0)
            active = s[s["left"] > 0]
            out = (
                pd.DataFrame(
                    {"b": (active["b"].to_numpy() + 1) % 4,
                     "left": active["left"]}
                )
                if len(active)
                else None
            )
            return s, out, int((s["left"] > 0).sum())
        return step

    # uninterrupted reference run (no checkpointing, kill disarmed)
    ref_log = tmp_path / "ref_rounds"
    ref_log.mkdir()
    full, conv_a, _ = pregel_actor_loop(
        make_seed(), make_step(tmp_path / "never", ref_log),
        key="b", max_iters=20, n_actors=2,
    )
    expected = full.to_pandas().sort_values("b").reset_index(drop=True)
    assert conv_a

    ck = str(tmp_path / "ck")
    with pytest.raises(ray.exceptions.RayActorError):
        pregel_actor_loop(
            make_seed(), make_step(kill_flag, round_log),
            key="b", max_iters=20, n_actors=2, checkpoint_dir=ck,
        )
    assert not kill_flag.exists()  # the kill fired
    committed = [n for n in os.listdir(ck) if n.endswith(".manifest.json")]
    assert committed == ["round_0002.manifest.json"]  # rounds 0-2 committed

    resumed, conv_c, _ = pregel_actor_loop(
        make_seed(poisoned=True), make_step(kill_flag, round_log),
        key="b", max_iters=20, n_actors=2, checkpoint_dir=ck,
    )
    assert conv_c
    got = resumed.to_pandas().sort_values("b").reset_index(drop=True)
    assert got.equals(expected)
    # one (round, actor) marker file per executed step call: rounds 0-2
    # show exactly their first-attempt 2 actors each — the resumed run
    # started at round 3, never re-executing a committed round
    counts = {
        r: len([n for n in os.listdir(round_log) if n.startswith(r)])
        for r in ("r00", "r01", "r02", "r03")
    }
    assert counts == {"r00": 2, "r01": 2, "r02": 2, "r03": 2}
