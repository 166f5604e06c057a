"""The partition core of the streamed crawl, cc_ingest and wave mode.

Every crawl pipeline writes its pages as partitions through one tail,
``Fetcher`` tasks → ``extract_batch`` → one atomic Parquet directory. The
resumable pipelines also share ``run_partitions``, which skips partitions
a ``PartitionManifest`` lists and commits the rest in the crash-safe order
durable data → manifest → seen checkpoint (the reverse order could erase a
durable partition on resume), like the reference's ``drop_uncrawled_urls``
(url.py:139-156).

The write (``_util.atomic_write_parquet``) runs its Dataset with Ray
Data's per-operator resource reservation off, so the 1-CPU fetch stage
runs one task per free CPU instead of one at a time. A stage cheaper than
one CPU would then fan out to a task and a worker process per block, so
callers run their upstream stages at whole CPUs (cc_ingest's ``dedup``)
or cap them with ``concurrency`` (the crawl caps its probe and fetch
stages at ``fetch_concurrency``).

``extract_batch`` and ``atomic_write_parquet`` are looked up on their
modules at call time, so wrappers installed there after import (tracing)
see every partition.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import ray.data

from .. import _util
from ..stages import extract
from ..stages.fetch import Fetcher


def frontier_table(urls, rulenames, dates, wave: int, attempts=None) -> pa.Table:
    """The rows a partition fetches: url, rulename, date, attempt (0
    unless given) and wave."""
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "rulename": pa.array(rulenames, pa.string()),
            "date": pa.array(dates, pa.date32()),
            "attempt": pa.array([0] * n if attempts is None else attempts, pa.int32()),
            "wave": pa.array([wave] * n, pa.int32()),
        }
    )


def sliced_dataset(table: pa.Table, step: int):
    """One Dataset block per ``step`` rows, cut on the driver (zero-copy
    slices, no repartition shuffle)."""
    return ray.data.from_arrow([table.slice(i, step) for i in range(0, table.num_rows, step)])


def fetch_extract_write(
    ds, fetch_kwargs: dict, part_dir: str, batch_size: int | None, default_filetype: str = "",
    concurrency: int | None = None,
) -> int:
    """Fetch ``ds``'s frontier rows, extract their text and write them to
    ``part_dir`` atomically; returns the rows written. Fetch runs as plain
    tasks (throttle and robots state live in the politeness coordinators),
    at most ``concurrency`` at once if given; ``batch_size=None`` gives one
    fetch task per input block. If a restored seen set drops every url of
    an already durable partition, its data stays
    (``keep_existing_if_empty``)."""

    def fetch_fn(batch: pa.Table) -> pa.Table:
        return Fetcher(**fetch_kwargs)(batch)

    ds = ds.map_batches(
        fetch_fn, batch_format="pyarrow", batch_size=batch_size, num_cpus=1,
        concurrency=concurrency,
    )
    ds = ds.map_batches(
        extract.extract_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"default_filetype": default_filetype},
    )
    return _util.atomic_write_parquet(ds, part_dir, keep_existing_if_empty=True)


class PartitionManifest:
    """Which partitions are durable, in one JSON file replaced atomically:
    ``{"header": {...}, "done_partitions": [...], "lineage": {"p": {...}}}``.
    ``header`` holds the config fields that decide each partition's input;
    resuming done partitions under another header raises."""

    def __init__(self, path: str, header: dict):
        self.path = path
        self.header = header

    def read(self) -> dict:
        if not os.path.exists(self.path):
            return {"header": self.header, "done_partitions": [], "lineage": {}}
        with open(self.path) as f:
            return json.load(f)

    def done(self) -> set[int]:
        doc = self.read()
        done = set(doc["done_partitions"])
        if done:
            old = doc.get("header", {})
            for k, v in self.header.items():
                if old.get(k) != v:
                    raise RuntimeError(
                        f"partition resume config mismatch: manifest {k}="
                        f"{old.get(k)!r} vs run {v!r}; use a fresh output dir"
                    )
        return done

    def mark_done(self, p: int, lineage: dict) -> None:
        doc = self.read()
        doc["header"] = self.header
        doc["done_partitions"] = sorted(set(doc["done_partitions"]) | {p})
        doc["lineage"][str(p)] = lineage
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, self.path)


def run_partitions(
    manifest: PartitionManifest, n_parts: int, write, mark_done, seen, seen_dir: str,
    checkpoint_every: int = 1, max_partitions: int | None = None,
) -> tuple[list[dict], int]:
    """Run partitions ``0..n_parts-1`` in order, skipping those ``manifest``
    lists. ``write(p)`` makes partition ``p`` durable and returns its
    lineage (with ``pages``); ``mark_done(p, lineage)`` then records it.
    The seen set is checkpointed every ``checkpoint_every`` partitions and
    after the last; on resume an empty one is first restored from
    ``seen_dir``. Returns this invocation's lineages and the skip count."""
    done = manifest.done()
    if done and os.path.exists(seen_dir) and seen.stats()["n_added"] == 0:
        seen.restore(seen_dir)
    todo = [p for p in range(n_parts) if p not in done]
    skipped = n_parts - len(todo)
    if max_partitions is not None:
        todo = todo[:max_partitions]
    every = max(1, checkpoint_every)
    committed = []
    for i, p in enumerate(todo, 1):
        lineage = write(p)
        mark_done(p, lineage)
        committed.append(lineage)
        if i % every == 0 or i == len(todo):
            seen.checkpoint(seen_dir)
    return committed, skipped
