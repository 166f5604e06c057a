"""Link-ranking / graph-exploration operators over the synthetic
internal link graph: HITS hubs & authorities, deterministic random-walk
sampling (node2vec-style corpus walks), and pivot-SCC membership
(forward ∩ backward reachability).

Reference parity: the reference crawler ranks frontier hosts by link
evidence (europarl-crawler frontier scoring); HITS (Kleinberg 1999),
random-walk sampling (node2vec, Grover & Leskovec 2016) and SCC
condensation are the standard web-graph analyses layered on the same
edge set. All three run on the actor-resident Pregel engine
(pipelines/pregel.py): edges load once into bucket-owner actors, only
messages cross the wire per round, nothing data-scaled touches the
driver. All SQL-oracled (chained CTEs for the fixed-round ops,
WITH RECURSIVE for reachability).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .._util import read_table as _read, table_rows as _n_rows
from ..stages.multimodal import _md5_64

_MD5U_SQL = (
    "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT)"
)

HITS_ITERS = 2  # full (authority, hub) refinement passes
WALK_LEN = 4  # steps per walker (5 trail rows incl. step 0)
WALK_SEED_MOD = 97  # doc_id % MOD == 0 starts a walker


def _empty(schema: dict) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table({k: pa.array([], t) for k, t in schema.items()})
    )


# ===================================================== HITS hubs/authorities
#
# Raw-integer HITS (no normalization): h_0 = 1;
# a_t(v) = Σ_{(u,v)∈E} h_{t-1}(u);  h_t(u) = Σ_{(u,v)∈E} a_t(v)
# over the directed edge MULTISET (self-loops and duplicate targets kept
# — both engines walk the identical multiset). Without normalization
# every score is an exact alternating-path count, so the oracle is
# bit-exact integer arithmetic; with out-degree ≤ 4 the K=2 scores stay
# far below 2^63 at any corpus size.


def q_hits_scores(sf_dir: str, n_buckets: int = 64, n_iters: int = HITS_ITERS):
    """(doc_id, hub, auth): integer HITS after ``n_iters`` full passes.

    Scale shape — actor-resident Pregel: each edge loads TWICE, once
    into the src-owner (out-edge, serves the a-phase: h(src) is local)
    and once into the dst-owner (in-edge, serves the h-phase: a(dst) is
    local), so every phase is a pure local-join + one message exchange;
    2 rounds per HITS pass, scores live with their node's owner and
    never re-shuffle. The 2× edge residency is the same trade
    q_triangle_count makes for locality."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    out_schema = {"doc_id": pa.int64(), "hub": pa.int64(), "auth": pa.int64()}
    n_docs = _n_rows(sf_dir, "documents")
    if n_docs == 0:
        return _empty(out_schema)
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])

    # state rows: kind 0 = out-edge (n1=src owner, n2=dst),
    # kind 1 = in-edge (n1=dst owner, n2=src), kind 2 = roster (n1=node,
    # h/a scores). Sentinel -1 over Arrow nulls (null int64 → float64).
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs)
        n_e, n_r = len(src), len(ids)
        n1 = np.concatenate([src, dst, ids])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [
                        np.zeros(n_e, np.int8),
                        np.ones(n_e, np.int8),
                        np.full(n_r, 2, np.int8),
                    ]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, src, np.full(n_r, -1, np.int64)]),
                "h": np.zeros(2 * n_e + n_r, np.int64),
                "a": np.zeros(2 * n_e + n_r, np.int64),
                "b": (n1 & mask),
            }
        )

    total_rounds = 2 * n_iters  # last round applies the final h and stops

    def hits_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        eo = state[state["kind"] == 0]
        ei = state[state["kind"] == 1]
        roster = state[state["kind"] == 2].copy()
        nodes = roster["n1"].to_numpy(np.int64)
        if round_i == 0:
            roster["h"] = np.int64(1)
        else:
            base = pd.DataFrame({"node": nodes, "val": np.int64(0)})
            inc = (
                msgs[["node", "val"]]
                if msgs is not None and len(msgs)
                else base.iloc[:0]
            )
            s = pd.concat([base, inc]).groupby("node", as_index=False)["val"].sum()
            m = roster[["n1"]].merge(
                s.rename(columns={"node": "n1"}), on="n1", how="left"
            )
            col = "a" if round_i % 2 == 1 else "h"  # odd rounds land a, even land h
            roster[col] = m["val"].fillna(0).to_numpy(np.int64)
        new_state = pd.concat([eo, ei, roster], ignore_index=True)
        if round_i >= total_rounds:
            return new_state, None, 0
        if round_i % 2 == 0:  # a-phase: h(src) local at out-edge owner
            em = eo[["n1", "n2"]].merge(
                roster[["n1", "h"]].rename(columns={"h": "val"}), on="n1"
            )
        else:  # h-phase: a(dst) local at in-edge owner
            em = ei[["n1", "n2"]].merge(
                roster[["n1", "a"]].rename(columns={"a": "val"}), on="n1"
            )
        tgt = em["n2"].to_numpy(np.int64)
        out = pd.DataFrame(
            {"b": tgt & mask, "node": tgt, "val": em["val"].to_numpy(np.int64)}
        )
        # combiner: receivers sum — pre-sum per destination (exact)
        out = out.groupby(["b", "node"], as_index=False)["val"].sum()
        return new_state, out, 1

    from .pregel import pregel_actor_loop

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        hits_step,
        key="b",
        max_iters=total_rounds + 1,
    )
    if state_ds is None:
        return _empty(out_schema)

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(2, pa.int8()))
        )
        return pa.table(
            {
                "doc_id": pc.cast(lab.column("n1"), pa.int64()),
                "hub": pc.cast(lab.column("h"), pa.int64()),
                "auth": pc.cast(lab.column("a"), pa.int64()),
            }
        )

    return state_ds.map_batches(extract, batch_format="pyarrow")


def _hits_sql(n_iters: int = HITS_ITERS) -> str:
    parts = [
        f"""WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_MD5U_SQL} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n)"""
    ]
    prev_h = None
    for t in range(1, n_iters + 1):
        a_src = (
            "SELECT dst AS v, CAST(COUNT(*) AS BIGINT) AS a FROM e GROUP BY 1"
            if prev_h is None
            else f"SELECT e.dst AS v, CAST(SUM({prev_h}.h) AS BIGINT) AS a "
            f"FROM e JOIN {prev_h} ON {prev_h}.u = e.src GROUP BY 1"
        )
        parts.append(f"a{t} AS ({a_src})")
        parts.append(
            f"""h{t} AS (
  SELECT e.src AS u, CAST(SUM(a{t}.a) AS BIGINT) AS h
  FROM e JOIN a{t} ON a{t}.v = e.dst GROUP BY 1)"""
        )
        prev_h = f"h{t}"
    final = f"""
SELECT d.doc_id AS doc_id,
  CAST(COALESCE(h{n_iters}.h, 0) AS BIGINT) AS hub,
  CAST(COALESCE(a{n_iters}.a, 0) AS BIGINT) AS auth
FROM documents d
LEFT JOIN h{n_iters} ON h{n_iters}.u = d.doc_id
LEFT JOIN a{n_iters} ON a{n_iters}.v = d.doc_id
"""
    return ",\n".join(parts) + final


# ==================================================== random-walk sampling
#
# Deterministic "random" surfer: every doc with doc_id % 97 == 0 starts
# one walker; at node u going into step t the walker takes out-edge
# j = 1 + md5_64("walk:<seed>:<t>:<u>") % outdeg(u), i.e. lands on
# (u*37 + j*101) % n. The md5 makes the path pseudo-random yet exactly
# recomputable in SQL, so the full trail multiset is oracle-checkable.


def q_random_walks(sf_dir: str, n_buckets: int = 64, walk_len: int = WALK_LEN):
    """(seed, step, node): the complete trail of every walker,
    steps 0..walk_len.

    Scale shape — walker-style Pregel (messages ARE the moving
    entities): the roster (node → outdeg) loads once per bucket owner;
    each round an actor receives the walkers currently AT its nodes,
    appends their trail rows to resident state, computes the next hop
    from the locally-owned out-degree, and forwards each walker as one
    small message. Per-round traffic is O(#walkers), never O(edges) —
    the inverse of the score-push ops, and the shape frontier-sampling
    crawls use at 100 TB (walkers = fetch slots)."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    out_schema = {"seed": pa.int64(), "step": pa.int64(), "node": pa.int64()}
    n_docs = _n_rows(sf_dir, "documents")
    if n_docs == 0:
        return _empty(out_schema)
    d = _read(sf_dir, "documents", columns=["doc_id"])

    # state rows: kind 0 = roster (n1=node, n2=outdeg); kind 1 = trail
    # (n1=node visited, n2=seed, n3=step) — trail rows accrete in place.
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        ks = np.fromiter(
            (1 + _md5_64(f"lnkk:42:{int(x)}") % 4 for x in ids),
            np.int64,
            len(ids),
        )
        return pd.DataFrame(
            {
                "kind": np.zeros(len(ids), np.int8),
                "n1": ids,
                "n2": ks,
                "n3": np.full(len(ids), -1, np.int64),
                "b": (ids & mask),
            }
        )

    def next_hop(seeds: np.ndarray, step: int, nodes: np.ndarray, ks: np.ndarray):
        js = np.fromiter(
            (
                1 + _md5_64(f"walk:{int(s)}:{step}:{int(u)}") % int(k)
                for s, u, k in zip(seeds, nodes, ks)
            ),
            np.int64,
            len(nodes),
        )
        return (nodes * 37 + js * 101) % n_docs

    def walk_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        roster = state[state["kind"] == 0]
        if round_i == 0:
            here = roster[roster["n1"] % WALK_SEED_MOD == 0]
            seeds = here["n1"].to_numpy(np.int64)
            nodes, ks = seeds, here["n2"].to_numpy(np.int64)
            step = 0
        else:
            if msgs is None or not len(msgs):
                return state, None, 0
            seeds = msgs["seed"].to_numpy(np.int64)
            nodes = msgs["node"].to_numpy(np.int64)
            step = int(round_i)
            ks = (
                pd.DataFrame({"n1": nodes})
                .merge(roster[["n1", "n2"]], on="n1", how="left")["n2"]
                .to_numpy(np.int64)
            )
        trail = pd.DataFrame(
            {
                "kind": np.ones(len(nodes), np.int8),
                "n1": nodes,
                "n2": seeds,
                "n3": np.full(len(nodes), step, np.int64),
                "b": nodes & mask,
            }
        )
        new_state = pd.concat([state, trail], ignore_index=True)
        if not len(nodes) or step >= walk_len:
            return new_state, None, (0 if step >= walk_len else len(nodes))
        nxt = next_hop(seeds, step + 1, nodes, ks)
        out = pd.DataFrame({"b": nxt & mask, "seed": seeds, "node": nxt})
        return new_state, out, len(nodes)

    from .pregel import pregel_actor_loop

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        walk_step,
        key="b",
        max_iters=walk_len + 1,
    )
    if state_ds is None:
        return _empty(out_schema)

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(1, pa.int8()))
        )
        return pa.table(
            {
                "seed": pc.cast(lab.column("n2"), pa.int64()),
                "step": pc.cast(lab.column("n3"), pa.int64()),
                "node": pc.cast(lab.column("n1"), pa.int64()),
            }
        )

    return state_ds.map_batches(extract, batch_format="pyarrow")


def _random_walks_sql(walk_len: int = WALK_LEN) -> str:
    def md5w(step: int) -> str:
        return (
            "CAST(concat('0x', substr(md5('walk:' || CAST(w.seed AS VARCHAR) || "
            f"':{step}:' || CAST(w.node AS VARCHAR)), 1, 16)) AS UBIGINT)"
        )

    parts = [
        f"""WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_MD5U_SQL} % 4 AS BIGINT) AS k FROM documents),
w0 AS (SELECT doc_id AS seed, CAST(0 AS BIGINT) AS step, doc_id AS node
       FROM documents WHERE doc_id % {WALK_SEED_MOD} = 0)"""
    ]
    for t in range(1, walk_len + 1):
        parts.append(
            f"""w{t} AS (
  SELECT w.seed, CAST({t} AS BIGINT) AS step,
         CAST((w.node * 37 + (1 + {md5w(t)} % kk.k) * 101) % n.cnt AS BIGINT) AS node
  FROM w{t - 1} w JOIN kk ON kk.doc_id = w.node, n)"""
        )
    union = "\nUNION ALL\n".join(
        f"SELECT seed, step, node FROM w{t}" for t in range(walk_len + 1)
    )
    return ",\n".join(parts) + "\n" + union


# ======================================================= pivot SCC membership
#
# The strongly-connected component of the smallest doc_id: nodes both
# forward- AND backward-reachable from the pivot (FW-BW, Fleischer et
# al. 2000 — the first split of the classic distributed SCC
# decomposition). Runs to CONVERGENCE (not a fixed round count): each
# round expands both frontiers one hop; done when no node gains a flag.


def q_scc_pivot(sf_dir: str, n_buckets: int = 64, max_rounds: int = 64):
    """(doc_id, in_scc): 1 iff the doc is in the pivot's SCC.

    Scale shape — actor-resident Pregel with per-node (fwd, bwd) flag
    bits: out-edges live with the src owner (serve forward expansion),
    in-edges with the dst owner (backward); a node that just gained a
    flag sends it one hop along the matching edge direction, and
    already-flagged nodes never re-send, so total traffic is O(E) per
    DIRECTION over the whole run regardless of round count. The
    convergence scalar is the engine's changed-count — the driver sees
    only that integer."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    out_schema = {"doc_id": pa.int64(), "in_scc": pa.int64()}
    n_docs = _n_rows(sf_dir, "documents")
    if n_docs == 0:
        return _empty(out_schema)
    pivot = 0  # doc ids are the dense range 0..n_docs-1 (TESTDATA.md)
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])

    # kind 0 = out-edge (n1=src), kind 1 = in-edge (n1=dst),
    # kind 2 = roster (n1=node, fwd/bwd flags)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        n_e, n_r = len(src), len(ids)
        n1 = np.concatenate([src, dst, ids])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [
                        np.zeros(n_e, np.int8),
                        np.ones(n_e, np.int8),
                        np.full(n_r, 2, np.int8),
                    ]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, src, np.full(n_r, -1, np.int64)]),
                "fwd": np.zeros(2 * n_e + n_r, np.int8),
                "bwd": np.zeros(2 * n_e + n_r, np.int8),
                "b": (n1 & mask),
            }
        )

    def scc_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        eo = state[state["kind"] == 0]
        ei = state[state["kind"] == 1]
        roster = state[state["kind"] == 2].copy()
        nodes = roster["n1"].to_numpy(np.int64)
        if round_i == 0:
            gain_f = gain_b = nodes[nodes == pivot]
        else:
            if msgs is None or not len(msgs):
                return state, None, 0
            mf = np.unique(msgs.loc[msgs["dir"] == 0, "node"].to_numpy(np.int64))
            mb = np.unique(msgs.loc[msgs["dir"] == 1, "node"].to_numpy(np.int64))
            had_f = nodes[roster["fwd"].to_numpy(np.int8) == 1]
            had_b = nodes[roster["bwd"].to_numpy(np.int8) == 1]
            gain_f = np.setdiff1d(mf, had_f, assume_unique=False)
            gain_b = np.setdiff1d(mb, had_b, assume_unique=False)
        changed = len(gain_f) + len(gain_b)
        if changed == 0:
            return state, None, 0
        roster.loc[roster["n1"].isin(gain_f), "fwd"] = np.int8(1)
        roster.loc[roster["n1"].isin(gain_b), "bwd"] = np.int8(1)
        new_state = pd.concat([eo, ei, roster], ignore_index=True)
        outs = []
        if len(gain_f):
            nf = eo.loc[eo["n1"].isin(gain_f), "n2"].to_numpy(np.int64)
            nf = np.unique(nf)
            outs.append(pd.DataFrame({"b": nf & mask, "node": nf, "dir": np.int8(0)}))
        if len(gain_b):
            nb = ei.loc[ei["n1"].isin(gain_b), "n2"].to_numpy(np.int64)
            nb = np.unique(nb)
            outs.append(pd.DataFrame({"b": nb & mask, "node": nb, "dir": np.int8(1)}))
        out = pd.concat(outs, ignore_index=True) if outs else None
        return new_state, out, changed

    from .pregel import pregel_actor_loop

    state_ds, converged, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        scc_step,
        key="b",
        max_iters=max_rounds,
    )
    if state_ds is None:
        return _empty(out_schema)
    if not converged:
        # flags would be known-incomplete — an answer that LOOKS valid
        # but can't match the recursive oracle. Fail loudly instead.
        raise RuntimeError(
            f"q_scc_pivot: frontier still moving after {max_rounds} rounds; "
            "raise max_rounds (graph deeper than expected)"
        )

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(2, pa.int8()))
        )
        both = pc.and_(
            pc.equal(pc.cast(lab.column("fwd"), pa.int8()), pa.scalar(1, pa.int8())),
            pc.equal(pc.cast(lab.column("bwd"), pa.int8()), pa.scalar(1, pa.int8())),
        )
        return pa.table(
            {
                "doc_id": pc.cast(lab.column("n1"), pa.int64()),
                "in_scc": pc.cast(both, pa.int64()),
            }
        )

    return state_ds.map_batches(extract, batch_format="pyarrow")


_SCC_PIVOT_SQL = f"""
WITH RECURSIVE
n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {_MD5U_SQL} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
fwd AS (
  SELECT CAST(0 AS BIGINT) AS node
  UNION
  SELECT e.dst FROM e JOIN fwd ON e.src = fwd.node),
bwd AS (
  SELECT CAST(0 AS BIGINT) AS node
  UNION
  SELECT e.src FROM e JOIN bwd ON e.dst = bwd.node)
SELECT d.doc_id AS doc_id,
  CAST(CASE WHEN d.doc_id IN (SELECT node FROM fwd)
             AND d.doc_id IN (SELECT node FROM bwd) THEN 1 ELSE 0 END
       AS BIGINT) AS in_scc
FROM documents d
"""


# ================================================ maximal independent set
#
# Luby's algorithm (Luby 1986), determinized: node priority is the
# md5-derived value comb(v) = (md5_64("mis:<v>") >> 32) * 2^32 + v —
# UNIQUE because v rides in the low bits (doc ids < 2^32), so the
# symmetry-break never ties and both engines make identical choices.
# Each Luby iteration: every undecided node with a priority greater
# than all undecided neighbours joins the MIS; its neighbours drop out.
# O(log n) iterations with high probability.

MIS_MAX_T = 16  # Luby iterations unrolled in SQL; Ray raises if exceeded


def _mis_pri(nodes: np.ndarray) -> np.ndarray:
    return np.fromiter(
        (
            ((_md5_64(f"mis:{int(v)}") >> 32) << 32) | int(v)
            for v in nodes
        ),
        np.uint64,
        len(nodes),
    )


def q_mis_luby(sf_dir: str, n_buckets: int = 64, max_t: int = MIS_MAX_T):
    """(doc_id, in_mis): 1 iff the doc is in the deterministic Luby MIS
    of the symmetrized link graph — the classic distributed
    symmetry-breaking primitive (pick one page per mutually-linked
    cluster for spot-checks / canonical sampling).

    Scale shape — actor-resident Pregel, TWO BSP rounds per Luby
    iteration for a consistent snapshot: even round applies last
    iteration's exclusions then every still-undecided node broadcasts
    its priority along resident adjacency (messages only from/to the
    shrinking undecided set — traffic decays geometrically); odd round
    decides joins locally (own priority beats every received one) and
    sends exclusions. Converges when no node is undecided; raises
    loudly past 2·max_t+2 rounds rather than returning a partial MIS."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    out_schema = {"doc_id": pa.int64(), "in_mis": pa.int64()}
    n_docs = _n_rows(sf_dir, "documents")
    if n_docs == 0:
        return _empty(out_schema)
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])

    # kind 0 = symmetric adjacency (n1=owner, n2=neighbour, deduped in
    # round 0 — per-batch dedup is batch-local, the kcore lesson),
    # kind 1 = roster (n1=node, pri, status 0/1/2)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        own = np.concatenate([src, dst])
        nbr = np.concatenate([dst, src])
        n_e, n_r = len(own), len(ids)
        n1 = np.concatenate([own, ids])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n_e, np.int8), np.ones(n_r, np.int8)]
                ),
                "n1": n1,
                "n2": np.concatenate([nbr, np.full(n_r, -1, np.int64)]),
                "pri": np.concatenate(
                    [np.zeros(n_e, np.uint64), _mis_pri(ids)]
                ).astype(np.int64),  # int64 view; unsigned view restored in-step
                "status": np.zeros(n_e + n_r, np.int8),
                "b": (n1 & mask),
            }
        )

    def mis_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        if round_i == 0:
            # global adjacency dedup: reciprocal pairs arrive from two
            # source blocks (kcore regression) — dedup inside the actor
            e = state[state["kind"] == 0].drop_duplicates(["n1", "n2"])
            state = pd.concat(
                [e, state[state["kind"] == 1]], ignore_index=True
            )
        e = state[state["kind"] == 0]
        roster = state[state["kind"] == 1].copy()
        if round_i % 2 == 0:  # apply exclusions, then broadcast priorities
            if msgs is not None and len(msgs):
                excl = np.unique(msgs["node"].to_numpy(np.int64))
                hit = roster["n1"].isin(excl) & (roster["status"] == 0)
                roster.loc[hit, "status"] = np.int8(2)
            und = roster[roster["status"] == 0]
            new_state = pd.concat([e, roster], ignore_index=True)
            if not len(und):
                return new_state, None, 0
            em = e[["n1", "n2"]].merge(
                und[["n1", "pri"]], on="n1", how="inner"
            )
            tgt = em["n2"].to_numpy(np.int64)
            out = pd.DataFrame(
                {
                    "b": tgt & mask,
                    "node": tgt,
                    "pri": em["pri"].to_numpy(np.int64),
                }
            )
            # combiner: receivers take the UNSIGNED max — pre-reduce per
            # destination on the uint64 view (int64 max would misorder
            # priorities with the top bit set)
            out["pri_u"] = out["pri"].to_numpy().view(np.uint64)
            out = (
                out.groupby(["b", "node"], as_index=False)["pri_u"]
                .max()
                .assign(pri=lambda d: d["pri_u"].to_numpy().astype(np.uint64).view(np.int64))
                .drop(columns=["pri_u"])
            )
            return new_state, out, len(und)
        # odd: decide joins from the broadcast snapshot, emit exclusions
        und_mask = roster["status"] == 0
        nodes = roster.loc[und_mask, "n1"].to_numpy(np.int64)
        if not len(nodes):
            return state, None, 0
        own_pri = roster.loc[und_mask, "pri"].to_numpy().view(np.uint64)
        if msgs is not None and len(msgs):
            mx = (
                pd.DataFrame(
                    {
                        "node": msgs["node"].to_numpy(np.int64),
                        "p": msgs["pri"].to_numpy().view(np.uint64),
                    }
                )
                .groupby("node")["p"]
                .max()
            )
            nbr_mx = (
                pd.Series(nodes).map(mx).fillna(0).to_numpy().astype(np.uint64)
            )
        else:
            nbr_mx = np.zeros(len(nodes), np.uint64)
        join = own_pri > nbr_mx
        joined = nodes[join]
        roster.loc[und_mask & roster["n1"].isin(joined), "status"] = np.int8(1)
        new_state = pd.concat([e, roster], ignore_index=True)
        if not len(joined):
            # the globally-max undecided node always joins somewhere;
            # locally-zero joins still continue the loop via undecided
            return new_state, None, int(und_mask.sum())
        em = e[["n1", "n2"]][e["n1"].isin(joined)]
        tgt = np.unique(em["n2"].to_numpy(np.int64))
        out = pd.DataFrame({"b": tgt & mask, "node": tgt, "pri": np.int64(0)})
        return new_state, out, len(joined)

    from .pregel import pregel_actor_loop

    state_ds, converged, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        mis_step,
        key="b",
        max_iters=2 * max_t + 2,
    )
    if state_ds is None:
        return _empty(out_schema)
    if not converged:
        raise RuntimeError(
            f"q_mis_luby: undecided nodes remain after {max_t} Luby "
            "iterations; raise max_t (and regenerate the SQL oracle)"
        )

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(1, pa.int8()))
        )
        return pa.table(
            {
                "doc_id": pc.cast(lab.column("n1"), pa.int64()),
                "in_mis": pc.cast(
                    pc.equal(
                        pc.cast(lab.column("status"), pa.int8()),
                        pa.scalar(1, pa.int8()),
                    ),
                    pa.int64(),
                ),
            }
        )

    return state_ds.map_batches(extract, batch_format="pyarrow")


def _mis_luby_sql(max_t: int = MIS_MAX_T) -> str:
    md5u = _MD5U_SQL
    parts = [
        f"""WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
de AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
e0 AS (SELECT src, dst FROM de UNION SELECT dst, src FROM de),
pri AS (
  SELECT doc_id AS v,
         (CAST(concat('0x', substr(md5('mis:' || CAST(doc_id AS VARCHAR)), 1, 16))
               AS UBIGINT) // 4294967296) * 4294967296
           + CAST(doc_id AS UBIGINT) AS p
  FROM documents),
u0 AS (SELECT doc_id AS v FROM documents)"""
    ]
    for t in range(max_t):
        parts.append(
            f"""mx{t} AS MATERIALIZED (
  SELECT e.src AS v, MAX(pw.p) AS mx
  FROM e0 e JOIN u{t} w ON w.v = e.dst JOIN pri pw ON pw.v = e.dst
  GROUP BY 1),
m{t} AS MATERIALIZED (
  SELECT u.v FROM u{t} u
  JOIN pri pv ON pv.v = u.v
  LEFT JOIN mx{t} x ON x.v = u.v
  WHERE x.v IS NULL OR pv.p > x.mx),
u{t + 1} AS MATERIALIZED (
  SELECT v FROM u{t}
  WHERE v NOT IN (SELECT v FROM m{t})
    AND v NOT IN (SELECT e.dst FROM e0 e WHERE e.src IN (SELECT v FROM m{t})))"""
        )
    union = " UNION ALL ".join(f"SELECT v FROM m{t}" for t in range(max_t))
    parts.append(
        f"""mis AS ({union})
SELECT d.doc_id AS doc_id,
  CAST(CASE WHEN d.doc_id IN (SELECT v FROM mis) THEN 1 ELSE 0 END AS BIGINT)
    AS in_mis
FROM documents d"""
    )
    head = ",\n".join(parts[:-1])
    return head + ",\n" + parts[-1]


# ===================================================== label propagation
#
# Synchronous label propagation (Raghavan, Albert & Kumara 2007) over
# the deduped symmetric link graph — the near-linear community
# detector every web-graph stack ships (site/template cluster
# discovery without a similarity threshold). Fully deterministic
# variant: label_0(v) = v; each round every node adopts the label that
# is most frequent among its neighbours, ties broken by SMALLEST
# label; isolated nodes keep their label. Fixed LPA_ROUNDS synchronous
# rounds (the asynchronous variant is order-dependent and
# un-oracleable), so both engines walk the identical trajectory.

LPA_ROUNDS = 4


def q_label_prop(sf_dir: str, n_buckets: int = 64, n_rounds: int = LPA_ROUNDS):
    """(doc_id, label) after ``n_rounds`` synchronous LPA rounds.

    Scale shape — actor-resident Pregel: the deduped symmetric
    adjacency loads once (dedup in round 0 inside the owner — the
    kcore cross-batch lesson), labels live with their node, and each
    round ships per-(destination, label) COUNT partials (pre-combined
    inside the sending actor, so wire traffic is bounded by
    Σ_v distinct neighbour labels, not by edge count). One BSP round
    per LPA round plus a final apply-only round."""
    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    out_schema = {"doc_id": pa.int64(), "label": pa.int64()}
    n_docs = _n_rows(sf_dir, "documents")
    if n_docs == 0:
        return _empty(out_schema)
    from .queries import internal_edges_np

    d = _read(sf_dir, "documents", columns=["doc_id"])

    # kind 0 = symmetric adjacency (n1=owner/src, n2=dst), kind 1 =
    # roster (n1=node, lbl=current label)
    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        src, dst = internal_edges_np(ids, n_docs, drop_self=True)
        own = np.concatenate([src, dst])
        nbr = np.concatenate([dst, src])
        n_e, n_r = len(own), len(ids)
        n1 = np.concatenate([own, ids])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n_e, np.int8), np.ones(n_r, np.int8)]
                ),
                "n1": n1,
                "n2": np.concatenate([nbr, np.full(n_r, -1, np.int64)]),
                "lbl": np.concatenate([np.zeros(n_e, np.int64), ids]),
                "b": (n1 & mask),
            }
        )

    def broadcast_labels(e: pd.DataFrame, roster: pd.DataFrame) -> pd.DataFrame:
        em = e[["n1", "n2"]].merge(
            roster[["n1", "lbl"]], on="n1", how="inner"
        )
        out = (
            em.groupby(["n2", "lbl"], as_index=False)
            .size()
            .rename(columns={"n2": "node", "size": "c"})
        )
        out["b"] = out["node"].to_numpy(np.int64) & mask
        return out[["b", "node", "lbl", "c"]].astype(np.int64)

    def lpa_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        if round_i == 0:
            e = state[state["kind"] == 0].drop_duplicates(["n1", "n2"])
            state = pd.concat([e, state[state["kind"] == 1]], ignore_index=True)
        e = state[state["kind"] == 0]
        roster = state[state["kind"] == 1]
        if round_i > 0 and msgs is not None and len(msgs):
            agg = msgs.groupby(["node", "lbl"], as_index=False)["c"].sum()
            # argmax by (count desc, label asc) — stable and integer
            agg = agg.sort_values(
                ["node", "c", "lbl"], ascending=[True, False, True]
            ).drop_duplicates("node")
            pick = dict(zip(agg["node"].tolist(), agg["lbl"].tolist()))
            roster = roster.copy()
            new_lbl = roster["n1"].map(pick)
            roster["lbl"] = (
                new_lbl.fillna(roster["lbl"]).astype(np.int64)
            )
            state = pd.concat([e, roster], ignore_index=True)
        if round_i < n_rounds:
            return state, broadcast_labels(e, roster), 1
        return state, None, 0

    from .pregel import pregel_actor_loop

    state_ds, _converged, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        lpa_step,
        key="b",
        max_iters=n_rounds + 1,  # n_rounds sends + one final apply
    )
    if state_ds is None:
        return _empty(out_schema)

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(1, pa.int8()))
        )
        return pa.table(
            {
                "doc_id": pc.cast(lab.column("n1"), pa.int64()),
                "label": pc.cast(lab.column("lbl"), pa.int64()),
            }
        )

    return state_ds.map_batches(extract, batch_format="pyarrow")


def _label_prop_sql(n_rounds: int = LPA_ROUNDS) -> str:
    md5u = _MD5U_SQL
    parts = [
        f"""WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
de AS (
  SELECT DISTINCT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst
  FROM (SELECT doc_id, unnest(range(1, k + 1)) AS j FROM kk), n
  WHERE (doc_id * 37 + j * 101) % cnt <> doc_id),
e0 AS (SELECT src, dst FROM de UNION SELECT dst, src FROM de),
l0 AS (SELECT doc_id AS v, CAST(doc_id AS BIGINT) AS lbl FROM documents)"""
    ]
    for t in range(1, n_rounds + 1):
        parts.append(
            f"""c{t} AS MATERIALIZED (
  SELECT e.src AS v, l.lbl, COUNT(*) AS c
  FROM e0 e JOIN l{t - 1} l ON l.v = e.dst
  GROUP BY 1, 2),
p{t} AS MATERIALIZED (
  SELECT v, lbl FROM (
    SELECT v, lbl,
           ROW_NUMBER() OVER (PARTITION BY v ORDER BY c DESC, lbl ASC) AS rn
    FROM c{t}) WHERE rn = 1),
l{t} AS MATERIALIZED (
  SELECT l.v, COALESCE(p.lbl, l.lbl) AS lbl
  FROM l{t - 1} l LEFT JOIN p{t} p ON p.v = l.v)"""
        )
    parts.append(
        f"""final AS (SELECT v, lbl FROM l{n_rounds})
SELECT CAST(v AS BIGINT) AS doc_id, CAST(lbl AS BIGINT) AS label FROM final"""
    )
    head = ",\n".join(parts[:-1])
    return head + ",\n" + parts[-1]


# ========================================== personalized PageRank (PPR)
#
# Topic-sensitive PageRank (Haveliwala 2002): the teleport mass lands
# only on a SEED set (here: English-language pages — the "crawl toward
# this topic" prior a focused crawler uses for frontier ordering).
# Same scaled-integer arithmetic as queries.q_pagerank (bit-exact vs
# the unrolled oracle): pr0(v) = 1e6·[v∈S];
# pr_{t+1}(v) = 0.15e6·[v∈S] + Σ_{(u,v)} pr_t(u)·85 // (outdeg(u)·100).
# Scale shape: identical actor-resident Pregel — roster + out-edges
# load once per bucket actor, only pre-combined contribution messages
# cross rounds; the seed indicator is one extra int8 roster column, so
# personalization costs nothing over the global PageRank.

PPR_SEED_LANG = "en"


def q_pagerank_personalized(sf_dir: str, n_buckets: int = 64, n_iters: int = 3):
    from .queries import PR_DAMP_NUM, PR_SCALE, internal_edges_np

    assert n_buckets & (n_buckets - 1) == 0
    mask = n_buckets - 1
    d = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    import pyarrow.parquet as _pq

    n_docs = _pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    empty = ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array([], pa.int64()), "ppr": pa.array([], pa.int64())}
        )
    )
    if n_docs == 0:
        return empty

    def seed_rows(t: pa.Table) -> pd.DataFrame:
        ids_np = t.column("doc_id").to_numpy().astype(np.int64)
        is_seed = (
            pc.equal(t.column("lang"), pa.scalar(PPR_SEED_LANG))
            .to_numpy(zero_copy_only=False)
            .astype(np.int8)
        )
        src, dst, deg = internal_edges_np(ids_np, n_docs, return_counts=True)
        n_e, n_r = len(src), len(ids_np)
        n1 = np.concatenate([src, ids_np])
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n_e, np.int8), np.ones(n_r, np.int8)]
                ),
                "n1": n1,
                "n2": np.concatenate([dst, np.full(n_r, -1, np.int64)]),
                "outdeg": np.concatenate([deg, np.zeros(n_r, np.int64)]),
                "pr": np.zeros(n_e + n_r, np.int64),
                "seed": np.concatenate([np.zeros(n_e, np.int8), is_seed]),
                "b": (n1 & mask),
            }
        )

    def ppr_step(actor_id, n_actors_, state, msgs, round_i):
        if state is None or not len(state):
            return state, None, 0
        e = state[state["kind"] == 0]
        roster = state[state["kind"] == 1]
        seed_mass = roster["seed"].to_numpy(np.int64)
        if round_i == 0:
            pr = pd.DataFrame(
                {
                    "n1": roster["n1"].to_numpy(np.int64),
                    "pr": (seed_mass * PR_SCALE).astype(np.int64),
                }
            )
        else:
            base = pd.DataFrame(
                {"node": roster["n1"].to_numpy(np.int64), "contrib": np.int64(0)}
            )
            inc = (
                msgs[["node", "contrib"]]
                if msgs is not None and len(msgs)
                else base.iloc[:0]
            )
            s = (
                pd.concat([base, inc])
                .groupby("node", as_index=False)["contrib"]
                .sum()
            )
            # roster and s are both keyed by n1/node; align seed term by merge
            m = pd.DataFrame(
                {
                    "node": roster["n1"].to_numpy(np.int64),
                    "base": (seed_mass * (PR_SCALE * 15 // 100)).astype(np.int64),
                }
            ).merge(s, on="node", how="left")
            pr = pd.DataFrame(
                {
                    "n1": m["node"].to_numpy(np.int64),
                    "pr": (
                        m["base"].to_numpy(np.int64)
                        + m["contrib"].fillna(0).to_numpy(np.int64)
                    ),
                }
            )
        new_roster = roster.drop(columns=["pr"]).merge(pr, on="n1", how="left")
        new_roster["pr"] = new_roster["pr"].fillna(0).astype(np.int64)
        cols = ["kind", "n1", "n2", "outdeg", "pr", "seed", "b"]
        new_state = pd.concat([e, new_roster[cols]], ignore_index=True)
        if round_i >= n_iters:
            return new_state, None, 0
        em = e[["n1", "n2", "outdeg"]].merge(pr, on="n1", how="inner")
        contrib = em["pr"].to_numpy() * PR_DAMP_NUM // (
            em["outdeg"].to_numpy() * 100
        )
        out_msgs = pd.DataFrame(
            {
                "b": (em["n2"].to_numpy(np.int64) & mask),
                "node": em["n2"].to_numpy(np.int64),
                "contrib": contrib.astype(np.int64),
            }
        )
        out_msgs = out_msgs.groupby(["b", "node"], as_index=False)["contrib"].sum()
        return new_state, out_msgs, 1

    from .pregel import pregel_actor_loop

    state_ds, _, _ = pregel_actor_loop(
        d.map_batches(seed_rows, batch_format="pyarrow"),
        ppr_step,
        key="b",
        max_iters=n_iters + 1,
    )
    if state_ds is None:
        return empty

    def extract(t: pa.Table) -> pa.Table:
        lab = t.filter(
            pc.equal(pc.cast(t.column("kind"), pa.int8()), pa.scalar(1, pa.int8()))
        )
        return pa.table(
            {
                "doc_id": pc.cast(lab.column("n1"), pa.int64()),
                "ppr": pc.cast(lab.column("pr"), pa.int64()),
            }
        )

    return state_ds.map_batches(extract, batch_format="pyarrow")


def _ppr_sql(n_iters: int = 3) -> str:
    from .queries import PR_DAMP_NUM, PR_SCALE

    md5u = (
        "CAST(concat('0x', substr(md5('lnkk:42:' || CAST(doc_id AS VARCHAR))"
        ", 1, 16)) AS UBIGINT)"
    )
    rounds = []
    prev = "pr0"
    for t in range(1, n_iters + 1):
        rounds.append(
            f"""c{t} AS (
  SELECT e.dst AS doc_id, SUM({prev}.pr * {PR_DAMP_NUM} // (e.outdeg * 100)) AS s
  FROM e JOIN {prev} ON e.src = {prev}.doc_id GROUP BY 1),
pr{t} AS (
  SELECT d.doc_id,
         CASE WHEN d.lang = '{PPR_SEED_LANG}' THEN {PR_SCALE * 15 // 100}
              ELSE 0 END + COALESCE(c{t}.s, 0) AS pr
  FROM documents d LEFT JOIN c{t} ON d.doc_id = c{t}.doc_id)"""
        )
        prev = f"pr{t}"
    joined = ",\n".join(rounds)
    return f"""
WITH n AS (SELECT COUNT(*) AS cnt FROM documents),
kk AS (SELECT doc_id, CAST(1 + {md5u} % 4 AS BIGINT) AS k FROM documents),
e AS (
  SELECT doc_id AS src, (doc_id * 37 + j * 101) % cnt AS dst, k AS outdeg
  FROM (SELECT doc_id, k, unnest(range(1, k + 1)) AS j FROM kk), n),
pr0 AS (SELECT doc_id,
               CAST(CASE WHEN lang = '{PPR_SEED_LANG}' THEN {PR_SCALE}
                    ELSE 0 END AS BIGINT) AS pr
        FROM documents),
{joined}
SELECT doc_id, CAST(pr AS BIGINT) AS ppr FROM {prev}
"""


LINKRANK_SQL_QUERIES = {
    "hits_scores": (q_hits_scores, _hits_sql(), "graph"),
    "random_walks": (q_random_walks, _random_walks_sql(), "graph"),
    "scc_pivot": (q_scc_pivot, _SCC_PIVOT_SQL, "graph"),
    "mis_luby": (q_mis_luby, _mis_luby_sql(), "graph"),
    "label_prop": (q_label_prop, _label_prop_sql(), "graph"),
    "pagerank_personalized": (q_pagerank_personalized, _ppr_sql(), "graph"),
}
