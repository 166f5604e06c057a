"""Sharded URL-seen set — the frontier's exact-dedup core (north rule F1).

The reference's dedup is a Postgres ``UNIQUE (rule_id, url)`` upsert
(``/root/reference/europarl/db/url.py:45,71-92``). The rebuild is a pool of
Ray actors, each owning one shard of a Bloom filter (plus an optional exact
hash set for verification-scale runs), keyed by ``h1 % num_shards``.

Scale design (SURVEY §7.3 item 4): at 10^10 urls with 12 bits/key and
1024 shards, each shard holds ~1.5 GiB of bit array — fits a 256-node
cluster at 4 shards/node. FPR at 12 bits/key, k=8 is ~5e-4; runs that need
an exact seen-set (equivalence vs the reference) use ``mode="exact"``
(numpy-array-backed hash set per shard) or a cold-path
``groupby(url_hash)`` compaction.

Batch API only: ``check_and_add(h1, h2) -> seen_mask`` per shard; callers
(fetch stages) partition a batch's hashes by shard and issue ONE call per
shard per batch — never per-url actor calls.
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

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


@ray.remote
class SeenShard:
    """One seen-set shard as a Ray actor (single-threaded → atomic batches).

    ``ckpt_path``: when set, a (re)started actor reloads the last durable
    checkpoint in ``__init__`` — combined with ``max_restarts`` this is
    the crash-recovery story for the 10¹⁰-url design point: a lost shard
    resumes from its checkpoint, and urls seen after that checkpoint are
    forgotten → re-admitted once (bounded at-least-once, same contract as
    the crawl's partition resume)."""

    def __init__(
        self,
        m_bits: int,
        k: int,
        exact: bool,
        ckpt_path: str | None = None,
        backend: str = "bloom",
    ):
        self._ckpt_path = ckpt_path
        self._backend = backend
        cls = CuckooSet if backend == "cuckoo" else BloomSet
        # only a RESTARTED actor reloads (a fresh run over a dir with a
        # stale checkpoint must start empty — explicit resume goes through
        # SeenSet.restore())
        with warnings.catch_warnings():
            # Ray's own property reads the deprecated ``actor_id`` and
            # would log a RayDeprecationWarning once per shard actor
            warnings.simplefilter("ignore", RayDeprecationWarning)
            restarted = ray.get_runtime_context().was_current_actor_reconstructed
        if ckpt_path and restarted and os.path.exists(ckpt_path):
            self.bloom = cls.load(ckpt_path)
        elif backend == "cuckoo":
            # same bit budget as the bloom sizing: m buckets x 4 slots x
            # 16-bit fingerprints = 64·m bits
            m_buckets = 1 << max(10, (m_bits // 64).bit_length() - 1)
            self.bloom = CuckooSet(m_buckets=m_buckets, exact=exact)
        else:
            self.bloom = BloomSet(m_bits=m_bits, k=k, exact=exact)

    def check_and_add(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        return self.bloom.check_and_add(h1, h2)

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        return self.bloom.contains(h1, h2)

    def stats(self) -> dict:
        b = self.bloom
        if self._backend == "cuckoo":
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

    def checkpoint(self, path: str) -> str:
        self.bloom.save(path)
        return path

    def restore(self, path: str) -> int:
        cls = CuckooSet if self._backend == "cuckoo" else BloomSet
        self.bloom = cls.load(path)
        return self.bloom.n_added


class SeenSet:
    """Driver-side handle over the shard pool.

    ``filter_new(urls, h1, h2)``: one remote call per shard per batch,
    returns the not-seen mask in input order. Shard routing key is
    ``h1 % num_shards`` — reused everywhere so the same url always lands on
    the same shard (cluster-wide consistency without a shuffle).
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
        # num_cpus=0: control-plane actors must never reserve data-plane
        # CPUs — a shard pool that holds real CPU slots can starve the
        # repartition/extract tasks into a scheduling deadlock. Shard work
        # is short vectorized bursts; at multi-node scale place shards by
        # memory (each ~1.5 GiB at 10^10 urls / 1024 shards) not CPU.
        #
        # Recovery: with a checkpoint_dir, shards restart on failure and
        # reload their last checkpoint (at-least-once — see SeenShard);
        # without one, a dead shard fails the crawl LOUDLY (below) rather
        # than silently restarting empty.
        opts: dict = {"num_cpus": 0, "max_concurrency": 1}
        if checkpoint_dir is not None:
            opts.update(max_restarts=-1, max_task_retries=-1)
        self.shards = [
            SeenShard.options(**opts).remote(
                m_bits_per_shard,
                k,
                exact,
                os.path.join(checkpoint_dir, f"seen_shard_{i:05d}.npz")
                if checkpoint_dir is not None
                else None,
                backend,
            )
            for i in range(num_shards)
        ]

    def _gather(self, refs: list):
        try:
            return ray.get(refs)
        except ray.exceptions.RayActorError as e:
            if self.checkpoint_dir is not None:
                raise RuntimeError(
                    "a seen-set shard actor died PERMANENTLY despite "
                    f"auto-restart (checkpoint_dir={self.checkpoint_dir!r})"
                    " — its restarts are failing (unreadable checkpoint, "
                    "lost node, or repeated crashes); inspect the shard "
                    "logs, then resume the run from the output manifest"
                ) from e
            raise RuntimeError(
                "a seen-set shard actor died and no checkpoint_dir is "
                "configured for auto-recovery — construct "
                "SeenSet(checkpoint_dir=...) (the crawl drivers do) so a "
                "restarted shard reloads its last checkpoint; without it "
                "the dedup state is unrecoverable and the run must restart "
                "from the output manifest"
            ) from e

    def check_and_add(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Bool mask, True = already seen. Batch is split by shard."""
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        shard_of = (h1 % np.uint64(self.num_shards)).astype(np.int64)
        seen = np.zeros(len(h1), dtype=bool)
        refs, idxs = [], []
        for s in range(self.num_shards):
            idx = np.nonzero(shard_of == s)[0]
            if len(idx):
                refs.append(self.shards[s].check_and_add.remote(h1[idx], h2[idx]))
                idxs.append(idx)
        for idx, mask in zip(idxs, self._gather(refs)):
            seen[idx] = mask
        return seen

    def contains_mask(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Bool mask, True = already seen. Read-only (no insertion)."""
        h1 = np.asarray(h1, dtype=np.uint64)
        h2 = np.asarray(h2, dtype=np.uint64)
        shard_of = (h1 % np.uint64(self.num_shards)).astype(np.int64)
        seen = np.zeros(len(h1), dtype=bool)
        refs, idxs = [], []
        for s in range(self.num_shards):
            idx = np.nonzero(shard_of == s)[0]
            if len(idx):
                refs.append(self.shards[s].contains.remote(h1[idx], h2[idx]))
                idxs.append(idx)
        for idx, mask in zip(idxs, self._gather(refs)):
            seen[idx] = mask
        return seen

    def stats(self) -> dict:
        per = self._gather([s.stats.remote() for s in self.shards])
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
        self._gather(
            [
                s.checkpoint.remote(os.path.join(directory, f"seen_shard_{i:05d}.npz"))
                for i, s in enumerate(self.shards)
            ]
        )

    def restore(self, directory: str | None = None) -> int:
        directory = directory if directory is not None else self.checkpoint_dir
        assert directory is not None, "no checkpoint directory configured"
        return sum(
            self._gather(
                [
                    s.restore.remote(os.path.join(directory, f"seen_shard_{i:05d}.npz"))
                    for i, s in enumerate(self.shards)
                ]
            )
        )
