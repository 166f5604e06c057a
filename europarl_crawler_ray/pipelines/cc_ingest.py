"""Common-Crawl-style ingest — the BASELINE.json metric workload.

A multi-host, Zipf-skewed url frontier streamed through:

    frontier partition → seen-set dedup (sharded bloom actors)
    → politeness-gated fetch (per-host leases + robots, hot-host aware)
    → extract (byte-exact html→text) → pages Parquet

Output is PARTITIONED (``part=K/``) through the partition core
(``partitions.py``) that the streamed crawl also uses: a manifest lists
finished partitions and a restarted run skips them (resumable output — a
failed 100 TB run re-does only the partitions in flight). A partition is
``ceil(urls / fetch_batch_size)`` blocks (at most ``blocks_per_partition``)
and each block is one task: dedup, fetch, extract and the block's own
Parquet file, so pages never pass through the object store. The
partitions between two seen checkpoints share one Dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import ray

# unused here: block tasks write their own files (partitions.py) and no
# crawl calls it, but crawlbench's tracing wraps this name on this module
# and fails without it
from .._util import atomic_write_parquet  # noqa: F401
from ..functions.canonical import hash_urls
from ..state.politeness import PolitenessCoordinator
from ..state.seen import SeenSet
from .partitions import (
    Partition,
    PartitionManifest,
    frontier_table,
    read_columns,
    run_partitions,
    slices,
)


@dataclass
class CCIngestConfig:
    output_dir: str
    n_urls: int = 100_000
    n_hosts: int = 1000
    zipf_a: float = 1.3
    n_partitions: int = 16
    seed: int = 42
    page_scale: int = 1
    dup_fraction: float = 0.2     # fraction of frontier urls that repeat
    # logical seen shards; the seen actors are one per node (state/seen.py)
    num_seen_shards: int = 8
    seen_bits_per_shard: int = 1 << 26
    n_politeness_shards: int = 2
    fetch_batch_size: int = 512
    blocks_per_partition: int = 32


class CCIngest:
    def __init__(self, cfg: CCIngestConfig):
        self.cfg = cfg
        self.seen = SeenSet(
            num_shards=cfg.num_seen_shards,
            m_bits_per_shard=cfg.seen_bits_per_shard,
            exact=False,
            # seen actors auto-restart and reload this checkpoint on
            # failure (bounded at-least-once — see state/seen.py)
            checkpoint_dir=os.path.join(cfg.output_dir, "_seen"),
        )
        self.coords = [
            PolitenessCoordinator.options(num_cpus=0).remote(simulated=True)
            for _ in range(cfg.n_politeness_shards)
        ]
        os.makedirs(cfg.output_dir, exist_ok=True)
        # host of url i is a pure function of i — computed ONCE, not per
        # partition (review finding: regenerating the full zipf array per
        # partition was O(n_urls * n_partitions))
        self._all_hosts = np.minimum(
            np.random.default_rng(cfg.seed).zipf(cfg.zipf_a, size=cfg.n_urls) - 1,
            cfg.n_hosts - 1,
        )
        self._manifest = PartitionManifest(
            os.path.join(cfg.output_dir, "_cc_manifest.json"),
            # the fields that decide which urls each partition holds
            {
                k: getattr(cfg, k)
                for k in ("n_urls", "n_partitions", "seed", "n_hosts", "zipf_a", "dup_fraction")
            },
        )

    # ------------------------------------------------------------ frontier
    def _partition_urls(self, p: int) -> np.ndarray:
        """Deterministic frontier slice for partition p, with injected
        repeats (dedup food) referencing urls from ANY partition."""
        cfg = self.cfg
        chunk = cfg.n_urls // cfg.n_partitions
        lo = p * chunk
        # final partition absorbs the remainder — otherwise the last
        # n_urls % n_partitions frontier urls would silently never ingest
        hi = cfg.n_urls if p == cfg.n_partitions - 1 else lo + chunk
        rng = np.random.default_rng(cfg.seed + 1000 + p)
        ids = np.arange(lo, hi)
        dup_mask = rng.random(len(ids)) < cfg.dup_fraction
        ids[dup_mask] = rng.integers(0, cfg.n_urls, size=int(dup_mask.sum()))
        all_hosts = self._all_hosts  # host depends only on the url id
        return np.array(
            [f"https://host{all_hosts[i]:05d}.example.org/page/{i}" for i in ids],
            dtype=object,
        )

    # ------------------------------------------------------------ pipeline
    def _mark_done(self, p: int, lineage: dict) -> None:
        self._manifest.mark_done(p, lineage)

    def run(self, max_partitions: int | None = None) -> dict:
        cfg = self.cfg
        seen = self.seen
        fetch_kwargs = {
            "coordinator": self.coords,
            "seed": cfg.seed,
            "simulated": True,
            "page_scale": cfg.page_scale,
        }

        def plan(p: int) -> Partition:
            urls = self._partition_urls(p)
            t = pa.table({"url": pa.array(urls.tolist(), pa.string())})
            n_blocks = min(-(-t.num_rows // cfg.fetch_batch_size), cfg.blocks_per_partition)
            step = max(1, -(-t.num_rows // max(1, n_blocks)))

            def dedup(batch: pa.Table) -> pa.Table:
                h1, h2 = hash_urls(batch.column("url").to_pylist())
                batch = batch.filter(pa.array(~seen.check_and_add(h1, h2)))
                n = batch.num_rows
                return frontier_table(batch.column("url"), ["cc"] * n, [None] * n, p)

            return Partition(
                os.path.join(cfg.output_dir, f"part={p}"), slices(t, step), dedup,
                {"input_urls": int(len(urls)), "seed": cfg.seed},
            )

        def partition_keys(p: int) -> list[str]:
            # the seen keys partition p added: the urls it fetched
            part_dir = os.path.join(cfg.output_dir, f"part={p}")
            return read_columns(part_dir, ["url"])["url"].to_pylist()

        committed, n_skipped = run_partitions(
            self._manifest, cfg.n_partitions, plan, self._mark_done,
            seen, os.path.join(cfg.output_dir, "_seen"), fetch_kwargs, partition_keys,
            max_partitions=max_partitions, default_filetype=".html",
        )
        stats = seen.stats()
        return {
            "partitions_done": len(self._manifest.done()),
            "partitions_skipped_on_resume": n_skipped,
            "pages": sum(c["pages"] for c in committed),
            "unique_urls": stats["n_added"],
            "est_fpr": stats["est_fpr"],
        }

    def shutdown(self) -> None:
        for a in self.coords:
            ray.kill(a, no_restart=True)
        self.seen.shutdown()
