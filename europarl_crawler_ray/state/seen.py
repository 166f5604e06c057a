"""Sharded URL-seen set — the frontier's exact-dedup core (north rule F1).

The reference's dedup is a Postgres ``UNIQUE (rule_id, url)`` upsert
(the reference crawler's ``europarl/db/url.py:45,71-92``). The rebuild splits the
set into ``num_shards`` LOGICAL shards, keyed by ``h1 % num_shards``, each
a Bloom filter (plus an optional exact hash set for verification-scale
runs) or a cuckoo filter. The shards are hosted by a few Ray ACTORS: one
per alive node, logical shard ``s`` on actor ``s % n_actors``. The shard
count sizes the state and its checkpoint files; the actor count follows
the cluster, so a single-node crawl starts one seen actor, not one per
shard.

Scale design (SURVEY §7.3 item 4): at 10^10 urls with 12 bits/key and
1024 logical shards, each shard holds ~1.5 GiB of bit array — fits a
256-node cluster at 4 shards/node, i.e. 256 actors hosting 4 shards
each, placed by a ``memory=`` reservation of their shards' bytes. FPR at
12 bits/key, k=8 is ~5e-4; runs that need an exact seen-set (equivalence
vs the reference) use ``mode="exact"`` (numpy-array-backed hash set per
shard) or a cold-path ``groupby(url_hash)`` compaction.

Batch API only: ``check_and_add(h1, h2) -> seen_mask``. The caller splits
a batch by actor with one argsort and issues ONE call per actor per
batch; the actor splits its rows over its hosted shards the same way —
never per-url actor calls. Checkpoints are one ``seen_shard_{s:05d}.npz``
per logical shard, so they restore onto any actor count.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import ray
from ray.util.annotations import RayDeprecationWarning


def _bloom_positions(h1: np.ndarray, h2: np.ndarray, k: int, m_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Kirsch-Mitzenmacher: pos_i = (h1 + i*h2) mod m. Returns (word, bitmask)."""
    i = np.arange(k, dtype=np.uint64)
    pos = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)
    return (pos >> np.uint64(3)).astype(np.int64), (np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))


class BloomSet:
    """Single-shard bloom + optional exact set. Plain object (reusable in
    tests / single-process oracles); the Ray actor wraps it."""

    def __init__(self, m_bits: int = 1 << 23, k: int = 8, exact: bool = True):
        assert m_bits % 8 == 0
        self.m_bits = m_bits
        self.k = k
        self.bits = np.zeros(m_bits // 8, dtype=np.uint8)
        self.exact = exact
        # exact store: open-addressing via a python set of int pairs packed
        # into bytes would be slow; a set of uint64 keys (h1 ^ rot(h2)) has
        # a ~2^-64 collision risk per pair — acceptable for verification
        # scale, and it keeps memory at 8B/key + set overhead.
        self._exact_keys: set[int] | None = set() if exact else None
        self.n_added = 0
        self.n_checked = 0

    @staticmethod
    def _keys(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        return (h1 ^ ((h2 << np.uint64(1)) | (h2 >> np.uint64(63)))).astype(np.uint64)

    def check_and_add(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Returns bool mask: True where the url was ALREADY seen. Adds all."""
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        n = len(h1)
        self.n_checked += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        words, masks = _bloom_positions(h1, h2, self.k, self.m_bits)
        present = (self.bits[words] & masks) == masks
        # intra-batch duplicates: only the FIRST occurrence counts as new —
        # the reference's upsert is sequential, so the second insert of the
        # same url in one wave conflicts (url.py:71-77).
        keys = self._keys(h1, h2)
        uniq, first_idx, inverse = np.unique(keys, return_index=True, return_inverse=True)
        dup = np.arange(n) != first_idx[inverse]
        if self._exact_keys is not None:
            ek = self._exact_keys
            in_set = np.fromiter((int(k) in ek for k in uniq), dtype=bool, count=len(uniq))
            seen = in_set[inverse] | dup
            ek.update(int(k) for k in uniq[~in_set])
        else:
            seen = present.all(axis=1) | dup
        # set all bits (idempotent); np.bitwise_or.at handles duplicate idx
        np.bitwise_or.at(self.bits, words.ravel(), masks.ravel())
        self.n_added += int((~seen).sum())
        return seen

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        if self._exact_keys is not None:
            keys = self._keys(h1, h2)
            ek = self._exact_keys
            return np.fromiter((int(k) in ek for k in keys), dtype=bool, count=len(keys))
        words, masks = _bloom_positions(h1, h2, self.k, self.m_bits)
        return ((self.bits[words] & masks) == masks).all(axis=1)

    # -- checkpoint (resumability, SURVEY §7.3 item 6) ------------------
    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        exact_arr = (
            np.fromiter(self._exact_keys, dtype=np.uint64, count=len(self._exact_keys))
            if self._exact_keys is not None
            else np.zeros(0, dtype=np.uint64)
        )
        # tmp + rename: a crash mid-save must never corrupt the checkpoint
        # a manifest already points to
        tmp = path + ".tmp.npz"
        np.savez_compressed(
            tmp,
            bits=self.bits,
            exact=exact_arr,
            meta=np.array([self.m_bits, self.k, int(self.exact), self.n_added], dtype=np.int64),
        )
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "BloomSet":
        z = np.load(path)
        if "backend" in z.files:  # cuckoo checkpoints carry a marker
            raise ValueError(
                f"checkpoint {path!r} was written by the cuckoo backend — "
                "the shard's configured backend does not match the stored "
                "state"
            )
        m_bits, k, exact, n_added = (int(x) for x in z["meta"])
        obj = cls(m_bits=m_bits, k=k, exact=bool(exact))
        obj.bits = z["bits"]
        if obj._exact_keys is not None:
            obj._exact_keys = set(int(x) for x in z["exact"])
        obj.n_added = n_added
        return obj


class CuckooSet:
    """Single-shard cuckoo filter (Fan et al., CoNEXT 2014 — public
    algorithm): ``m`` buckets × 4 slots of non-zero 16-bit fingerprints;
    a key lives in bucket ``i1 = h2 & (m-1)`` or its partner
    ``i2 = i1 XOR H(fp)`` (partial-key cuckooing — the alternate bucket
    is derivable from any slot, which is what makes eviction kicks and
    DELETION possible, the two things a Bloom filter cannot do). Same
    (h1, h2) batch API as :class:`BloomSet`; insertion is per-key (the
    kick chain is inherently sequential), so Bloom remains the
    vectorized hot path and this backend is the delete-capable
    alternative the north star names. Kick-chain overflow falls back to
    an exact spill set (never a silent drop), counted in stats."""

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, m_buckets: int = 1 << 16, exact: bool = False):
        assert m_buckets & (m_buckets - 1) == 0
        self.m = m_buckets
        self.table = np.zeros((m_buckets, self.SLOTS), dtype=np.uint16)
        # exact=True is HONORED, as in BloomSet (review finding: silently
        # downgrading an exactness run to approximate membership would
        # drop never-seen urls on fingerprint collisions)
        self.exact = exact
        self._exact_keys: set[int] | None = set() if exact else None
        self.n_added = 0
        self.n_checked = 0
        self.n_spilled = 0
        self._spill: set[int] = set()

    def _fp(self, h1: np.ndarray) -> np.ndarray:
        return (h1 % np.uint64(65535) + np.uint64(1)).astype(np.uint64)

    def _alt(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # partner bucket: XOR with a fingerprint hash, m power of two
        return (i ^ (fp * np.uint64(0x5BD1E995))) & np.uint64(self.m - 1)

    def _spill_key(self, i1: int, i2: int, fp: int) -> int:
        return (min(i1, i2) << 16) | fp

    def _present(self, i1: int, i2: int, fp: int) -> bool:
        row1, row2 = self.table[i1], self.table[i2]
        return (
            bool((row1 == fp).any())
            or bool((row2 == fp).any())
            or self._spill_key(i1, i2, fp) in self._spill
        )

    def _insert(self, i1: int, i2: int, fp: int) -> None:
        for i in (i1, i2):
            row = self.table[i]
            free = np.nonzero(row == 0)[0]
            if len(free):
                row[free[0]] = fp
                return
        # deterministic kick chain: victim slot rotates with kick count
        cur_i, cur_f = i1, fp
        for kick in range(self.MAX_KICKS):
            slot = kick % self.SLOTS
            cur_f, self.table[cur_i, slot] = int(self.table[cur_i, slot]), cur_f
            cur_i = int(
                (np.uint64(cur_i) ^ (np.uint64(cur_f) * np.uint64(0x5BD1E995)))
                & np.uint64(self.m - 1)
            )
            row = self.table[cur_i]
            free = np.nonzero(row == 0)[0]
            if len(free):
                row[free[0]] = cur_f
                return
        # table effectively full along this chain: exact spill, no loss
        alt = int(self._alt(np.uint64(cur_i), np.uint64(cur_f)))
        self._spill.add(self._spill_key(cur_i, alt, cur_f))
        self.n_spilled += 1

    def check_and_add(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        n = len(h1)
        self.n_checked += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        fps = self._fp(h1)
        i1s = (h2 & np.uint64(self.m - 1)).astype(np.uint64)
        i2s = self._alt(i1s, fps)
        seen = np.zeros(n, dtype=bool)
        keys = (
            BloomSet._keys(h1, h2) if self._exact_keys is not None else None
        )
        for j in range(n):
            i1, i2, fp = int(i1s[j]), int(i2s[j]), int(fps[j])
            if self._exact_keys is not None:
                # exact membership decides; the filter stays maintained
                k = int(keys[j])
                if k in self._exact_keys:
                    seen[j] = True
                else:
                    self._exact_keys.add(k)
                    if not self._present(i1, i2, fp):
                        self._insert(i1, i2, fp)
                    self.n_added += 1
            elif self._present(i1, i2, fp):
                seen[j] = True
            else:
                self._insert(i1, i2, fp)
                self.n_added += 1
        return seen

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        if self._exact_keys is not None:
            keys = BloomSet._keys(h1, h2)
            ek = self._exact_keys
            return np.fromiter(
                (int(k) in ek for k in keys), dtype=bool, count=len(keys)
            )
        fps = self._fp(h1)
        i1s = (h2 & np.uint64(self.m - 1)).astype(np.uint64)
        i2s = self._alt(i1s, fps)
        return np.fromiter(
            (
                self._present(int(i1), int(i2), int(fp))
                for i1, i2, fp in zip(i1s, i2s, fps)
            ),
            dtype=bool,
            count=len(h1),
        )

    def remove(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Delete keys (the cuckoo capability Bloom lacks): clears one
        matching fingerprint slot per key; True where something was
        removed. Standard cuckoo-filter caveat (Fan et al. §3.3):
        deletion is safe only for keys actually inserted — if a DIFFERENT
        key shares (bucket, fingerprint), one shared slot serves both and
        deleting one hides the other (probability ~ inserts/2^16 per
        bucket pair; the Bloom backend simply cannot delete at all)."""
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        fps = self._fp(h1)
        i1s = (h2 & np.uint64(self.m - 1)).astype(np.uint64)
        i2s = self._alt(i1s, fps)
        out = np.zeros(len(h1), dtype=bool)
        keys = (
            BloomSet._keys(h1, h2) if self._exact_keys is not None else None
        )
        for j in range(len(h1)):
            if self._exact_keys is not None:
                self._exact_keys.discard(int(keys[j]))
            i1, i2, fp = int(i1s[j]), int(i2s[j]), int(fps[j])
            sk = self._spill_key(i1, i2, fp)
            if sk in self._spill:
                self._spill.discard(sk)
                out[j] = True
                continue
            for i in (i1, i2):
                hit = np.nonzero(self.table[i] == fp)[0]
                if len(hit):
                    self.table[i, hit[0]] = 0
                    out[j] = True
                    break
        self.n_added -= int(out.sum())
        return out

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spill = np.fromiter(self._spill, dtype=np.int64, count=len(self._spill))
        exact_arr = (
            np.fromiter(self._exact_keys, dtype=np.uint64, count=len(self._exact_keys))
            if self._exact_keys is not None
            else np.zeros(0, dtype=np.uint64)
        )
        # tmp + rename, as in BloomSet.save: never corrupt a checkpoint
        tmp = path + ".tmp.npz"
        np.savez_compressed(
            tmp,
            table=self.table,
            spill=spill,
            exact=exact_arr,
            meta=np.array(
                [self.m, int(self.exact), self.n_added, self.n_checked, self.n_spilled],
                dtype=np.int64,
            ),
            backend=np.array([1], dtype=np.int8),  # 1 = cuckoo (checked on load)
        )
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CuckooSet":
        z = np.load(path)
        if "backend" not in z.files or int(z["backend"][0]) != 1:
            raise ValueError(
                f"checkpoint {path!r} is not a cuckoo checkpoint — the "
                "shard's configured backend does not match the stored "
                "state (review finding: a clear error beats a crash-loop)"
            )
        m, exact, n_added, n_checked, n_spilled = (int(x) for x in z["meta"])
        obj = cls(m_buckets=m, exact=bool(exact))
        obj.table = z["table"].copy()
        obj._spill = set(int(x) for x in z["spill"])
        if obj._exact_keys is not None:
            obj._exact_keys = set(int(x) for x in z["exact"])
        obj.n_added, obj.n_checked, obj.n_spilled = n_added, n_checked, n_spilled
        return obj


def shard_path(directory: str, shard: int) -> str:
    """Checkpoint file of logical shard ``shard``: one file per logical
    shard, so a checkpoint restores onto any number of actors."""
    return os.path.join(directory, f"seen_shard_{shard:05d}.npz")


def actor_count(num_shards: int, alive_nodes: int) -> int:
    """Actors that host ``num_shards`` logical shards: one per alive node,
    never more actors than shards."""
    return max(1, min(num_shards, alive_nodes))


def actor_options(n_hosted: int, m_bits_per_shard: int, recoverable: bool) -> dict:
    """Ray options of one seen actor that hosts ``n_hosted`` logical shards.

    num_cpus=0: control-plane actors must never reserve data-plane CPUs —
    a seen pool that holds real CPU slots can starve the repartition /
    extract tasks into a scheduling deadlock. Shard work is short
    vectorized bursts, so actors are placed by the memory their shards
    hold instead: ``m_bits/8`` bytes per hosted shard (the cuckoo backend
    is sized to the same budget), spread one actor per node.

    ``recoverable`` (a checkpoint directory is configured): the actor
    restarts on failure and reloads its shards' last checkpoint
    (at-least-once — see SeenShard); without one, a dead actor fails the
    crawl LOUDLY (``SeenSet._gather``) rather than silently restarting
    empty.
    """
    opts: dict = {
        "num_cpus": 0,
        "max_concurrency": 1,
        "memory": n_hosted * (m_bits_per_shard // 8),
        "scheduling_strategy": "SPREAD",
    }
    if recoverable:
        opts.update(max_restarts=-1, max_task_retries=-1)
    return opts


def split_rows(keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(key, row indices)`` for every distinct key, from one stable
    argsort: each group keeps its rows in batch order, so the first
    occurrence of an intra-batch duplicate stays the new one."""
    order = np.argsort(keys, kind="stable")
    groups, starts = np.unique(keys[order], return_index=True)
    return list(zip(groups.tolist(), np.split(order, starts[1:])))


def _shard_stats(b: BloomSet | CuckooSet) -> dict:
    if isinstance(b, CuckooSet):
        fill = float((b.table != 0).mean())
        return {
            "n_added": b.n_added,
            "n_checked": b.n_checked,
            "fill_ratio": round(fill, 6),
            # 2 buckets x 4 slots x P(fp match) = 8 / 2^16 per filled slot
            "est_fpr": round(8.0 * fill / 65535.0, 9),
            "n_spilled": b.n_spilled,
            "exact": b.exact,
        }
    # surfaced FPR (SURVEY §7.3 item 4): fill ratio p → FPR ≈ p^k
    fill = float(np.unpackbits(b.bits[:: max(1, len(b.bits) // 65536)]).mean())
    return {
        "n_added": b.n_added,
        "n_checked": b.n_checked,
        "fill_ratio": round(fill, 6),
        "est_fpr": round(fill**b.k, 9),
        "exact": b.exact,
    }


@ray.remote
class SeenShard:
    """The logical shards ``index, index + n_actors, ...`` of a seen set,
    hosted in one Ray actor (single-threaded calls → atomic batches).

    Logical shard ``s`` sits at position ``s // n_actors`` of
    ``self.shards``; each is a plain :class:`BloomSet` / :class:`CuckooSet`.
    A call's rows are split over the hosted shards with one argsort, and
    the shards' kernels run on a thread pool. Checkpoints stay one file
    per logical shard (:func:`shard_path`), saved and loaded on the same
    pool. numpy and zlib release the GIL, so hosted shards hash, sort and
    compress in parallel, as the one-process-per-shard layout did.

    ``ckpt_dir``: when set, a (re)started actor reloads the last durable
    checkpoint of every shard it hosts in ``__init__`` — combined with
    ``max_restarts`` this is the crash-recovery story for the
    10¹⁰-url design point: a lost actor resumes from its shards'
    checkpoints, and urls seen after them are forgotten → re-admitted
    once (bounded at-least-once, same contract as the crawl's partition
    resume)."""

    def __init__(
        self,
        index: int,
        n_actors: int,
        num_shards: int,
        m_bits: int,
        k: int,
        exact: bool,
        ckpt_dir: str | None = None,
        backend: str = "bloom",
    ):
        self.n_actors = n_actors
        self.num_shards = num_shards
        self.shard_ids = list(range(index, num_shards, n_actors))
        self._cls = CuckooSet if backend == "cuckoo" else BloomSet
        self._threads = min(len(self.shard_ids), os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(self._threads)
        # only a RESTARTED actor reloads (a fresh run over a dir with a
        # stale checkpoint must start empty — explicit resume goes through
        # SeenSet.restore())
        with warnings.catch_warnings():
            # Ray's own property reads the deprecated ``actor_id`` and
            # would log a RayDeprecationWarning once per actor
            warnings.simplefilter("ignore", RayDeprecationWarning)
            restarted = ray.get_runtime_context().was_current_actor_reconstructed
        if backend == "cuckoo":
            # same bit budget as the bloom sizing: m buckets x 4 slots x
            # 16-bit fingerprints = 64·m bits
            m_buckets = 1 << max(10, (m_bits // 64).bit_length() - 1)
            self.shards = [CuckooSet(m_buckets=m_buckets, exact=exact) for _ in self.shard_ids]
        else:
            self.shards = [BloomSet(m_bits=m_bits, k=k, exact=exact) for _ in self.shard_ids]
        if ckpt_dir and restarted:

            def reload(j: int) -> None:
                path = shard_path(ckpt_dir, self.shard_ids[j])
                if os.path.exists(path):
                    self.shards[j] = self._cls.load(path)

            list(self._pool.map(reload, range(len(self.shards))))

    def _per_shard(self, method: str, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        out = np.zeros(len(h1), dtype=bool)
        local = (h1 % np.uint64(self.num_shards)) // np.uint64(self.n_actors)
        groups = split_rows(local)

        def run(part: list[tuple[int, np.ndarray]]) -> None:
            for j, idx in part:
                out[idx] = getattr(self.shards[j], method)(h1[idx], h2[idx])

        # one task per pool thread, not per shard: the kernels release the
        # GIL only inside numpy, so per-shard tasks convoy on small batches
        n = min(self._threads, len(groups))
        list(self._pool.map(run, [groups[t::n] for t in range(n)]))
        return out

    def check_and_add(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        return self._per_shard("check_and_add", h1, h2)

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        return self._per_shard("contains", h1, h2)

    def stats(self) -> list[dict]:
        """One entry per hosted shard, in ``self.shard_ids`` order."""
        return [_shard_stats(b) for b in self.shards]

    def checkpoint(self, directory: str) -> list[str]:
        paths = [shard_path(directory, s) for s in self.shard_ids]
        list(self._pool.map(lambda b, p: b.save(p), self.shards, paths))
        return paths

    def restore(self, directory: str) -> int:
        paths = [shard_path(directory, s) for s in self.shard_ids]
        self.shards = list(self._pool.map(self._cls.load, paths))
        return sum(b.n_added for b in self.shards)


class SeenSet:
    """Driver-side handle over the seen actors.

    ``num_shards`` logical shards, routed by ``h1 % num_shards`` — reused
    everywhere so the same url always lands on the same shard
    (cluster-wide consistency without a shuffle). Logical shard ``s``
    lives on actor ``s % n_actors``, with one actor per alive node
    (:func:`actor_count`). A batch is split by actor with one argsort and
    costs one RPC per actor it hits; masks come back in input order.
    """

    def __init__(
        self,
        num_shards: int = 8,
        m_bits_per_shard: int = 1 << 23,
        k: int = 8,
        exact: bool = True,
        checkpoint_dir: str | None = None,
        backend: str = "bloom",
    ):
        self.num_shards = num_shards
        self.exact = exact
        self.checkpoint_dir = checkpoint_dir
        self.backend = backend
        n = actor_count(num_shards, sum(1 for node in ray.nodes() if node["Alive"]))
        self.actors = [
            SeenShard.options(
                **actor_options(
                    len(range(a, num_shards, n)), m_bits_per_shard, checkpoint_dir is not None
                )
            ).remote(a, n, num_shards, m_bits_per_shard, k, exact, checkpoint_dir, backend)
            for a in range(n)
        ]

    def _gather(self, refs: list):
        try:
            return ray.get(refs)
        except ray.exceptions.RayActorError as e:
            if self.checkpoint_dir is not None:
                raise RuntimeError(
                    "a seen-set actor died PERMANENTLY despite "
                    f"auto-restart (checkpoint_dir={self.checkpoint_dir!r})"
                    " — its restarts are failing (unreadable checkpoint, "
                    "lost node, or repeated crashes); inspect the actor "
                    "logs, then resume the run from the output manifest"
                ) from e
            raise RuntimeError(
                "a seen-set actor died and no checkpoint_dir is "
                "configured for auto-recovery — construct "
                "SeenSet(checkpoint_dir=...) (the crawl drivers do) so a "
                "restarted actor reloads its shards' last checkpoint; "
                "without it the dedup state is unrecoverable and the run "
                "must restart from the output manifest"
            ) from e

    def _per_actor(self, method: str, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        n = np.uint64(len(self.actors))
        groups = split_rows(h1 % np.uint64(self.num_shards) % n)
        refs = [
            getattr(self.actors[a], method).remote(h1[idx], h2[idx]) for a, idx in groups
        ]
        seen = np.zeros(len(h1), dtype=bool)
        for (_, idx), mask in zip(groups, self._gather(refs)):
            seen[idx] = mask
        return seen

    def check_and_add(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Bool mask, True = already seen. Adds every row."""
        return self._per_actor("check_and_add", h1, h2)

    def contains_mask(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Bool mask, True = already seen. Read-only (no insertion)."""
        return self._per_actor("contains", h1, h2)

    def stats(self) -> dict:
        """Totals plus one ``shards`` entry per logical shard, in shard order."""
        per_actor = self._gather([a.stats.remote() for a in self.actors])
        n = len(self.actors)
        per = [per_actor[s % n][s // n] for s in range(self.num_shards)]
        return {
            "n_added": sum(p["n_added"] for p in per),
            "n_checked": sum(p["n_checked"] for p in per),
            "est_fpr": max(p["est_fpr"] for p in per),
            "shards": per,
        }

    def checkpoint(self, directory: str | None = None) -> None:
        directory = directory if directory is not None else self.checkpoint_dir
        assert directory is not None, "no checkpoint directory configured"
        os.makedirs(directory, exist_ok=True)
        self._gather([a.checkpoint.remote(directory) for a in self.actors])

    def restore(self, directory: str | None = None) -> int:
        directory = directory if directory is not None else self.checkpoint_dir
        assert directory is not None, "no checkpoint directory configured"
        return sum(self._gather([a.restore.remote(directory) for a in self.actors]))

    def shutdown(self) -> None:
        """Kill the actors for good; the crawl drivers' ``shutdown`` calls
        this so repeated pipeline runs don't accumulate idle actors."""
        for a in self.actors:
            ray.kill(a, no_restart=True)
