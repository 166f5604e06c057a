"""The partition core of the streamed crawl, cc_ingest and wave mode.

Every crawl pipeline writes its pages as partitions, and every partition is
a list of input blocks. The partitions between two seen checkpoints (a
*segment*: ``checkpoint_every`` of them) run as ONE Dataset with one
``map_batches`` task per block, at one CPU. The task runs the pipeline's
row step (the streamed crawl's probe+expand+dedup, cc's ``dedup``, nothing
in wave mode), then ``Fetcher`` and ``extract_batch``, writes its pages to
``part=p__tmp/<block>.parquet`` and returns one summary row. The driver
drains the summaries and commits partition ``p`` as soon as all of its
blocks have reported: tmp → final rename, then the manifest. So the next
partition's blocks fill the CPUs behind a straggler block, and no Dataset
start-up sits between partitions.

The resumable pipelines share ``run_partitions``, which skips partitions a
``PartitionManifest`` lists and commits in the crash-safe order durable
data → manifest → seen checkpoint (the reverse order could erase a durable
partition on resume), like the reference's ``drop_uncrawled_urls``
(url.py:139-156). The seen set is checkpointed only after a segment has
drained, so a checkpoint never holds the keys of an uncommitted partition;
a resume re-adds the keys of partitions committed after the last
checkpoint from their durable output.

A block task always returns exactly one row: Ray Data drops zero-row
blocks before the next operator, and a block whose rows were all seen
must still report. Summaries are drained without prefetch, which would
hold them back from the driver. The segment runs with Ray Data's
per-operator resource reservation off, so every CPU runs a block task.

``Fetcher`` and ``extract_batch`` are looked up when a segment is built,
so wrappers installed on them after import (tracing) ship with the task.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from typing import Callable, Iterable, NamedTuple

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data

from ..functions.canonical import hash_urls
from ..stages import extract
from ..stages.fetch import Fetcher

# per-partition telemetry summed from the block summaries into the lineage
TELEMETRY = ("blocks", "rows", "bytes", "task_s")


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


def slices(table: pa.Table, step: int) -> list[pa.Table]:
    """One block per ``step`` rows (zero-copy slices)."""
    return [table.slice(i, step) for i in range(0, table.num_rows, step)]


class Partition(NamedTuple):
    """One partition's work: its output dir, its input blocks, the row step
    run on each block before fetch (or None) and the lineage fields it
    adds to the manifest."""

    part_dir: str
    blocks: list[pa.Table]
    row_step: Callable[[pa.Table], pa.Table] | None = None
    info: dict = {}


def _block_task(parts: dict[int, Partition], fetch_kwargs: dict, default_filetype: str):
    """The segment's one UDF: a block tagged ``_part``/``_block`` in, its
    partition's row step, fetch, extract and file, one summary row out."""
    fetcher_cls, extract_fn = Fetcher, extract.extract_batch
    steps = {p: w.row_step for p, w in parts.items()}
    tmp_dirs = {p: w.part_dir + "__tmp" for p, w in parts.items()}

    def partition_block(batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        p, b = batch.column("_part")[0].as_py(), batch.column("_block")[0].as_py()
        rows = batch.drop_columns(["_part", "_block"])
        if steps[p] is not None:
            rows = steps[p](rows)
        n_rows = n_bytes = 0
        if rows.num_rows:
            pages = extract_fn(fetcher_cls(**fetch_kwargs)(rows), default_filetype=default_filetype)
            os.makedirs(tmp_dirs[p], exist_ok=True)
            path = os.path.join(tmp_dirs[p], f"{b:05d}.parquet")
            pq.write_table(pages, path)
            n_rows, n_bytes = pages.num_rows, os.path.getsize(path)
        return pa.table(
            {
                "part": [p], "block": [b], "rows": [n_rows], "bytes": [n_bytes],
                "task_s": [time.perf_counter() - t0],
            }
        )

    return partition_block


def drain(summaries: Iterable[dict], n_blocks: dict[int, int], commit) -> None:
    """Call ``commit(p, telemetry)`` for each partition once all of its
    ``n_blocks[p]`` blocks have reported in ``summaries`` (a partition
    without blocks commits first); raises if any never completes."""
    tel = {p: dict.fromkeys(TELEMETRY, 0) for p in n_blocks}
    for p, n in n_blocks.items():
        if n == 0:
            commit(p, tel[p])
    for row in summaries:
        t = tel[row["part"]]
        t["blocks"] += 1
        for k in TELEMETRY[1:]:
            t[k] += row[k]
        if t["blocks"] == n_blocks[row["part"]]:
            commit(row["part"], t)
    short = sorted(p for p, n in n_blocks.items() if tel[p]["blocks"] != n)
    if short:
        raise RuntimeError(f"partitions {short} did not get a summary from every block")


def read_columns(part_dir: str, columns: list[str]) -> pa.Table:
    """String ``columns`` of a durable partition's pages (none if it
    wrote no file)."""
    files = sorted(glob.glob(os.path.join(part_dir, "*.parquet")))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pads.dataset(files).to_table(columns=columns)


def _commit_dir(part_dir: str, rows: int) -> int:
    """Rename ``part_dir``'s tmp dir over it; returns its rows. An empty
    result does not replace a non-empty dir: a restored seen set can drop
    every url of a partition that is already durable."""
    tmp = part_dir + "__tmp"
    if rows == 0 and os.path.isdir(part_dir):
        existing = pads.dataset(part_dir).count_rows()
        if existing:
            shutil.rmtree(tmp, ignore_errors=True)
            return existing
    os.makedirs(tmp, exist_ok=True)
    shutil.rmtree(part_dir, ignore_errors=True)
    os.replace(tmp, part_dir)
    return rows


def run_segment(
    parts: dict[int, Partition], fetch_kwargs: dict, mark_done, default_filetype: str = "",
    concurrency: int | None = None,
) -> None:
    """Run every block of ``parts`` as one Dataset, at most ``concurrency``
    block tasks at once (capped at the block count), and commit each
    partition when its last block reports: its dir becomes durable, then
    ``mark_done(p, lineage)`` runs with ``info``, ``pages`` and the
    partition's telemetry. On failure the uncommitted tmp dirs go."""
    inputs = [
        blk.append_column("_part", pa.array([p] * blk.num_rows, pa.int32()))
        .append_column("_block", pa.array([b] * blk.num_rows, pa.int32()))
        for p, w in parts.items()
        for b, blk in enumerate(w.blocks)
    ]
    for w in parts.values():
        shutil.rmtree(w.part_dir + "__tmp", ignore_errors=True)
    committed = set()

    def commit(p: int, telemetry: dict) -> None:
        w = parts[p]
        pages = _commit_dir(w.part_dir, telemetry["rows"])
        mark_done(p, {**w.info, "pages": pages, "path": w.part_dir, **telemetry})
        committed.add(p)

    summaries: Iterable[dict] = ()
    if inputs:
        if concurrency is not None:
            concurrency = max(1, min(concurrency, len(inputs)))
        ds = ray.data.from_arrow(inputs).map_batches(
            _block_task(parts, fetch_kwargs, default_filetype),
            batch_format="pyarrow", batch_size=None, num_cpus=1, concurrency=concurrency,
        )
        ds.context.op_resource_reservation_enabled = False
        batches = ds.iter_batches(batch_size=None, batch_format="pyarrow", prefetch_batches=0)
        summaries = (row for batch in batches for row in batch.to_pylist())
    try:
        drain(summaries, {p: len(w.blocks) for p, w in parts.items()}, commit)
    except BaseException:
        for p, w in parts.items():
            if p not in committed:
                shutil.rmtree(w.part_dir + "__tmp", ignore_errors=True)
        raise


class PartitionManifest:
    """Which partitions are durable, in one JSON file replaced atomically:
    ``{"header": {...}, "done_partitions": [...], "checkpointed": [...],
    "lineage": {"p": {...}}}``. ``header`` holds the config fields that
    decide each partition's input; resuming done partitions under another
    header raises. ``checkpointed`` lists the partitions whose keys the
    seen checkpoint holds."""

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

    def checkpointed(self) -> set[int]:
        doc = self.read()
        return set(doc.get("checkpointed", doc["done_partitions"]))

    def mark_checkpointed(self) -> None:
        doc = self.read()
        doc["checkpointed"] = doc["done_partitions"]
        self._write(doc)

    def _write(self, doc: dict) -> None:
        doc["header"] = self.header
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, self.path)

    def mark_done(self, p: int, lineage: dict) -> None:
        doc = self.read()
        # a manifest without the field predates it: its seen checkpoint
        # was taken after its last partition
        doc.setdefault("checkpointed", doc["done_partitions"])
        doc["done_partitions"] = sorted(set(doc["done_partitions"]) | {p})
        doc["lineage"][str(p)] = lineage
        self._write(doc)


def run_partitions(
    manifest: PartitionManifest, n_parts: int, plan, mark_done, seen, seen_dir: str,
    fetch_kwargs: dict, partition_keys, checkpoint_every: int = 1,
    max_partitions: int | None = None, concurrency: int | None = None,
    default_filetype: str = "",
) -> tuple[list[dict], int]:
    """Run partitions ``0..n_parts-1``, skipping those ``manifest`` lists,
    in segments of ``checkpoint_every``: ``plan(p)`` gives partition
    ``p``'s ``Partition``, and ``mark_done(p, lineage)`` records it once
    durable. The seen set is checkpointed after each segment. On resume an
    empty seen set is restored from ``seen_dir``, and the keys of done
    partitions the checkpoint lacks are re-added (``partition_keys(p)``
    reads them from ``p``'s durable output; adding a key twice is a
    no-op). Returns this invocation's lineages and the skip count."""
    done = manifest.done()
    if done and os.path.exists(seen_dir) and seen.stats()["n_added"] == 0:
        seen.restore(seen_dir)
    for p in sorted(done - manifest.checkpointed()):
        keys = partition_keys(p)
        if keys:
            seen.check_and_add(*hash_urls(keys))
    todo = [p for p in range(n_parts) if p not in done]
    skipped = n_parts - len(todo)
    if max_partitions is not None:
        todo = todo[:max_partitions]
    every = max(1, checkpoint_every)
    committed = []

    def commit(p: int, lineage: dict) -> None:
        mark_done(p, lineage)
        committed.append(lineage)

    for i in range(0, len(todo), every):
        run_segment(
            {p: plan(p) for p in todo[i:i + every]}, fetch_kwargs, commit,
            default_filetype=default_filetype, concurrency=concurrency,
        )
        seen.checkpoint(seen_dir)
        manifest.mark_checkpointed()
    return committed, skipped
