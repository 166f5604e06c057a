"""The partition core: its plan, its block accounting, its output and its
contract with crawlbench. The benchmark wraps engine names from outside
(``crawlbench/workloads.py``, ``tracing.py``) and is not edited with the
engine, so these tests pin those names. No Ray execution: a segment's
Dataset is replaced by ``_Segment``, which runs the block task in-process
or fakes its summaries."""

import inspect
import json
import os
from datetime import date
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from europarl_crawler_ray.pipelines import cc_ingest, crawl, partitions
from europarl_crawler_ray.stages import extract

# the pages schema the crawls wrote through Ray Data's write_parquet
PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("rulename", pa.string()),
        ("date", pa.date32()),
        ("attempt", pa.int32()),
        ("wave", pa.int32()),
        ("requested_at", pa.timestamp("us", tz="UTC")),
        ("status_code", pa.int32()),
        ("redirected_url", pa.string()),
        ("html", pa.binary()),
        ("lang", pa.string()),
        ("text", pa.string()),
        ("filesize", pa.int64()),
        ("extract_note", pa.string()),
    ]
)


class _Segment:
    """Stands in for a segment's Dataset. Records the ``map_batches`` and
    ``iter_batches`` arguments; ``iter_batches`` either runs the block task
    on each input block in-process or yields one empty summary per
    block."""

    def __init__(self, blocks, run):
        self.blocks, self.run = blocks, run
        self.stages, self.iter_kwargs = [], None
        self.context = SimpleNamespace(op_resource_reservation_enabled=True)

    def map_batches(self, fn, **kwargs):
        self.stages.append((fn, kwargs))
        return self

    def iter_batches(self, **kwargs):
        self.iter_kwargs = kwargs
        for block in self.blocks:
            if self.run:
                (fn, _), = self.stages
                yield fn(block)
            else:
                yield pa.table(
                    {
                        "part": [block.column("_part")[0].as_py()],
                        "block": [block.column("_block")[0].as_py()],
                        "rows": [0], "bytes": [0], "task_s": [0.0],
                    }
                )


class _Segments(list):
    run = False


@pytest.fixture
def segments(monkeypatch):
    """The segments built while the test runs; ``segments.run`` says
    whether they execute their block tasks."""
    made = _Segments()

    def from_arrow(tables):
        made.append(_Segment(list(tables), made.run))
        return made[-1]

    monkeypatch.setattr(partitions.ray.data, "from_arrow", from_arrow)
    return made


class _Seen:
    def __init__(self):
        self.checkpoints = 0

    def stats(self):
        return {"n_added": 0, "est_fpr": 0.0}

    def checkpoint(self, directory):
        self.checkpoints += 1


class _FakeFetcher:
    """Fetch without a web: every row gets the same small html page."""

    def __init__(self, **kwargs):
        pass

    def __call__(self, batch):
        page = b"<html><body><p>Plenary</p></body></html>"
        return batch.append_column("html", pa.array([page] * batch.num_rows, pa.binary()))


def _frontier(n, wave=0):
    return partitions.frontier_table(
        [f"https://h.example/{wave}/{i}.html" for i in range(n)], ["r"] * n,
        [date(2021, 1, 4)] * n, wave,
    )


def test_crawlbench_hooks_keep_their_names():
    # commit clocks wrap these class attributes to time first_commit_s
    assert callable(crawl.CrawlDriver._streamed_mark_done)
    assert callable(cc_ingest.CCIngest._mark_done)
    # every workload handle exposes seen, coords and shutdown()
    for cls in (crawl.CrawlDriver, cc_ingest.CCIngest):
        init = inspect.getsource(cls.__init__)
        assert "self.seen = " in init and "self.coords = " in init
        assert callable(cls.shutdown)
    # tracing wraps this name on cc_ingest and fails if it is missing
    assert callable(cc_ingest.atomic_write_parquet)
    # the row steps keep the names tracing's per-operator slugs key on
    stub = SimpleNamespace(
        cfg=crawl.CrawlConfig(output_dir="unused"), coords=[], rules=[], seen=None
    )
    assert crawl.CrawlDriver._make_probe_expand(stub, 0).__name__ == "probe_expand"
    assert "def dedup(" in inspect.getsource(cc_ingest.CCIngest.run)
    # tracing wraps Fetcher's methods on the class the block task builds
    for name in ("__call__", "_lease_all", "_robots_mask"):
        assert callable(getattr(partitions.Fetcher, name))


def test_seen_set_hooks_keep_their_names():
    """tracing counts seen RPCs as ``rpc.SeenShard.check_and_add`` /
    ``.contains`` and wraps those actor methods for ``seen.busy_s``; it
    wraps the four SeenSet entry points below; the workloads find the
    actors by the ``ray::SeenShard`` process title and sum the
    ``seen_shard_*.npz`` checkpoint files."""
    import fnmatch

    from europarl_crawler_ray.state import seen

    actor_cls = seen.SeenShard.__ray_metadata__.modified_class
    assert actor_cls.__name__ == "SeenShard"
    for name in ("check_and_add", "contains", "stats", "checkpoint", "restore"):
        assert callable(getattr(actor_cls, name))
    for name in ("check_and_add", "contains_mask", "checkpoint", "stats", "shutdown"):
        assert callable(getattr(seen.SeenSet, name))
    assert fnmatch.fnmatch(seen.shard_path("d", 7).split("/")[-1], "seen_shard_*.npz")


def test_block_task_looks_up_fetcher_and_extract_at_call_time(monkeypatch, segments, tmp_path):
    """Tracing rebinds ``extract.extract_batch`` and wraps ``Fetcher``
    after import; a segment built afterwards must ship the rebound ones,
    or traced runs report no fetch/extract layers."""
    calls = []

    def traced_extract(batch, default_filetype=""):
        calls.append((batch.num_rows, default_filetype))
        return batch

    monkeypatch.setattr(extract, "extract_batch", traced_extract)
    monkeypatch.setattr(partitions, "Fetcher", _FakeFetcher)
    segments.run = True
    done = {}
    part = partitions.Partition(str(tmp_path / "part=0"), partitions.slices(_frontier(5), 3))
    partitions.run_segment({0: part}, {}, done.__setitem__, default_filetype=".html")
    assert calls == [(3, ".html"), (2, ".html")]
    (fn, _), = segments[0].stages
    assert fn.__name__ == "partition_block"
    assert pq.read_table(tmp_path / "part=0").column_names[-1] == "html"
    assert done[0]["rows"] == done[0]["pages"] == 5


def test_no_partition_stage_fans_out_past_the_fetch_slots(segments, tmp_path):
    """``checkpoint_every`` partitions share one Dataset of one
    ``map_batches`` at one CPU, at most ``fetch_concurrency`` (and never
    more than the block count) tasks at once, with Ray Data's resource
    reservation off and summaries drained without prefetch."""

    def run(checkpoint_every, out):
        drv = crawl.CrawlDriver.__new__(crawl.CrawlDriver)
        drv.cfg = crawl.CrawlConfig(
            output_dir=str(tmp_path / out), start_date=date(2021, 2, 1),
            today=date(2021, 3, 10), offset_days=5, fetch_concurrency=3,
            stream_partitions=4, checkpoint_every=checkpoint_every,
        )
        os.makedirs(drv.cfg.output_dir)
        drv.state, drv.metrics = crawl.CrawlState(), []
        drv.rules, drv.seen, drv.coords = list(crawl.DOCUMENT_RULES), _Seen(), []
        drv._fetch_kwargs, drv._probe_fetcher = {}, crawl.Fetcher()
        return drv, drv.run_streamed()

    drv, s = run(10**9, "one")
    assert s["partitions_done"] == 4 and drv.seen.checkpoints == 1
    (seg,) = segments
    (fn, kw), = seg.stages
    assert fn.__name__ == "partition_block"
    assert kw["num_cpus"] == 1 and kw["batch_size"] is None
    assert kw["concurrency"] == 3
    assert seg.context.op_resource_reservation_enabled is False
    assert seg.iter_kwargs["prefetch_batches"] == 0 and seg.iter_kwargs["batch_size"] is None
    assert sorted({b.column("_part")[0].as_py() for b in seg.blocks}) == [0, 1, 2, 3]
    # 33 days → 8/8/8/9-day partitions of 3 blocks each (one per slot)
    assert len(seg.blocks) == 12

    segments.clear()
    drv, s = run(2, "two")
    assert len(segments) == 2 and drv.seen.checkpoints == 2
    assert [sorted({b.column("_part")[0].as_py() for b in seg.blocks}) for seg in segments] == [
        [0, 1], [2, 3],
    ]


def test_cc_segment_blocks_are_fetch_batches(segments, tmp_path):
    """cc checkpoints after every partition, so each partition is its own
    segment; it cuts ``ceil(urls / fetch_batch_size)`` blocks, at most
    ``blocks_per_partition``, each one whole-CPU task."""
    ing = cc_ingest.CCIngest.__new__(cc_ingest.CCIngest)
    ing.cfg = cc_ingest.CCIngestConfig(
        output_dir=str(tmp_path / "cc"), n_urls=1200, n_partitions=2,
        fetch_batch_size=256, blocks_per_partition=2,
    )
    ing.seen, ing.coords = _Seen(), []
    ing._all_hosts = np.zeros(1200, dtype=np.int64)
    ing._manifest = partitions.PartitionManifest(str(tmp_path / "m.json"), {})
    s = ing.run()
    assert s["partitions_done"] == 2 and ing.seen.checkpoints == 2
    # 600 urls a partition: 3 batches of 256, capped at 2 blocks
    assert [len(seg.blocks) for seg in segments] == [2, 2]
    for seg in segments:
        (fn, kw), = seg.stages
        assert kw["num_cpus"] == 1 and kw["batch_size"] is None

    segments.clear()
    ing.cfg.blocks_per_partition = 32
    ing._manifest = partitions.PartitionManifest(str(tmp_path / "m2.json"), {})
    ing.run()
    assert [len(seg.blocks) for seg in segments] == [3, 3]


def test_partition_commits_when_every_block_reported():
    """Summaries arrive in any order and some blocks yield zero rows (a
    block without a session day, or whose rows were all seen); every
    partition still commits once, when its last block reports, with its
    telemetry summed. A partition without blocks commits first."""
    rows = [
        {"part": 1, "block": 0, "rows": 0, "bytes": 0, "task_s": 0.5},
        {"part": 0, "block": 1, "rows": 3, "bytes": 30, "task_s": 0.25},
        {"part": 1, "block": 1, "rows": 0, "bytes": 0, "task_s": 0.5},
        {"part": 0, "block": 0, "rows": 0, "bytes": 0, "task_s": 0.25},
        {"part": 3, "block": 0, "rows": 2, "bytes": 20, "task_s": 1.0},
    ]
    commits = []
    partitions.drain(iter(rows), {0: 2, 1: 2, 2: 0, 3: 1}, lambda p, t: commits.append((p, dict(t))))
    assert [p for p, _ in commits] == [2, 1, 0, 3]
    assert dict(commits)[0] == {"blocks": 2, "rows": 3, "bytes": 30, "task_s": 0.5}
    assert dict(commits)[1] == {"blocks": 2, "rows": 0, "bytes": 0, "task_s": 1.0}

    commits.clear()
    with pytest.raises(RuntimeError, match=r"\[1\]"):
        partitions.drain(iter(rows[:2]), {0: 1, 1: 2}, lambda p, t: commits.append(p))
    assert commits == [0]


def test_lineage_carries_partition_telemetry(monkeypatch, segments, tmp_path):
    """Each partition's manifest lineage records its blocks, rows, file
    bytes and task seconds next to the pipeline's own fields; a block whose
    rows were all dropped writes no file but still reports."""
    monkeypatch.setattr(partitions, "Fetcher", _FakeFetcher)
    segments.run = True
    manifest = partitions.PartitionManifest(str(tmp_path / "m.json"), {"k": 1})
    keep_even = lambda batch: batch.filter(pa.array([i % 2 == 0 for i in range(batch.num_rows)]))

    def plan(p):
        frontier = _frontier(6 if p == 0 else 1, wave=p)
        return partitions.Partition(
            str(tmp_path / f"part={p}"), partitions.slices(frontier, 4),
            keep_even if p == 0 else lambda b: b.slice(0, 0), {"input_urls": frontier.num_rows},
        )

    committed, skipped = partitions.run_partitions(
        manifest, 2, plan, manifest.mark_done, _Seen(), str(tmp_path / "seen"), {},
        lambda p: [], checkpoint_every=2,
    )
    assert skipped == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["done_partitions"] == doc["checkpointed"] == [0, 1]
    lin = doc["lineage"]["0"]
    assert set(lin) == {"input_urls", "pages", "path", "blocks", "rows", "bytes", "task_s"}
    assert (lin["input_urls"], lin["pages"], lin["blocks"], lin["rows"]) == (6, 3, 2, 3)
    files = sorted(os.listdir(tmp_path / "part=0"))
    assert files == ["00000.parquet", "00001.parquet"]
    assert lin["bytes"] == sum(os.path.getsize(tmp_path / "part=0" / f) for f in files)
    assert lin["task_s"] > 0
    assert doc["lineage"]["1"]["blocks"] == 1 and doc["lineage"]["1"]["pages"] == 0
    assert os.listdir(tmp_path / "part=1") == []
    # what a resume reads a partition's seen keys from
    assert partitions.read_columns(str(tmp_path / "part=0"), ["url"]).num_rows == 3
    assert partitions.read_columns(str(tmp_path / "part=1"), ["url"]).num_rows == 0


def test_empty_result_keeps_a_durable_partition(monkeypatch, segments, tmp_path):
    """A resumed partition whose urls the restored seen set drops entirely
    keeps the rows already durable on disk."""
    monkeypatch.setattr(partitions, "Fetcher", _FakeFetcher)
    segments.run = True
    part_dir = str(tmp_path / "part=0")
    done = {}
    partitions.run_segment(
        {0: partitions.Partition(part_dir, [_frontier(3)])}, {}, done.__setitem__
    )
    partitions.run_segment(
        {0: partitions.Partition(part_dir, [_frontier(3)], lambda b: b.slice(0, 0))}, {},
        done.__setitem__,
    )
    assert done[0]["pages"] == 3 and done[0]["rows"] == 0
    assert pq.read_table(part_dir).num_rows == 3
    assert not os.path.exists(part_dir + "__tmp")


def test_resume_readds_keys_the_checkpoint_lacks(tmp_path):
    """Partitions committed after the last seen checkpoint (a segment that
    failed part-way) get their keys back from their durable output."""
    manifest = partitions.PartitionManifest(str(tmp_path / "m.json"), {})
    manifest.mark_done(0, {})
    manifest.mark_checkpointed()
    manifest.mark_done(1, {})
    assert manifest.done() == {0, 1} and manifest.checkpointed() == {0}
    added = []

    class Seen(_Seen):
        def check_and_add(self, h1, h2):
            added.append(len(h1))

    asked = []
    partitions.run_partitions(
        manifest, 2, None, None, Seen(), str(tmp_path / "no_seen"), {},
        lambda p: asked.append(p) or ["a", "b"],
    )
    assert asked == [1] and added == [2]


def test_pages_schema_is_the_writer_schema(monkeypatch, segments, tmp_path):
    """A block's file has the columns, types and nullability the pages
    had when Ray Data's writer wrote them, and no schema metadata."""
    segments.run = True
    done = {}
    frontier = partitions.frontier_table(
        [r.url(date(2021, 1, 4)) for r in crawl.DOCUMENT_RULES[:3]],
        [r.name for r in crawl.DOCUMENT_RULES[:3]], [date(2021, 1, 4)] * 3, 0,
    )
    part_dir = str(tmp_path / "part=0")
    partitions.run_segment(
        {0: partitions.Partition(part_dir, [frontier])}, {"seed": 42}, done.__setitem__
    )
    schema = pq.read_schema(os.path.join(part_dir, "00000.parquet"))
    assert schema.equals(PAGES_SCHEMA, check_metadata=True), schema
    assert all(f.nullable for f in schema)
