"""The partition core's contract with crawlbench. The benchmark wraps
engine names from outside (``crawlbench/workloads.py``, ``tracing.py``)
and is not edited with the engine, so these tests pin those names. No Ray
execution."""

import inspect
from types import SimpleNamespace

from europarl_crawler_ray import _util
from europarl_crawler_ray.pipelines import cc_ingest, crawl, partitions
from europarl_crawler_ray.stages import extract


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
    # Ray Data names operators after the stage callables; tracing's
    # per-operator metrics key on "probe_expand", "dedup" and "fetch"
    stub = SimpleNamespace(
        cfg=crawl.CrawlConfig(output_dir="unused"), coords=[], rules=[], seen=None
    )
    assert crawl.CrawlDriver._make_probe_expand(stub, 0).__name__ == "probe_expand"
    assert "def dedup(" in inspect.getsource(cc_ingest.CCIngest.run)


def test_partition_tail_looks_up_extract_and_write_at_call_time(monkeypatch):
    """Tracing rebinds ``extract.extract_batch`` and
    ``_util.atomic_write_parquet`` after import; the tail must use the
    rebound functions, or traced runs report no extract/write layers."""

    class _Dataset:
        def __init__(self):
            self.stages = []

        def map_batches(self, fn, **kwargs):
            self.stages.append((fn, kwargs))
            return self

    def traced_extract(batch, default_filetype=""):
        return batch

    writes = []

    def traced_write(ds, final_dir, **kwargs):
        writes.append((final_dir, kwargs))
        return 7

    monkeypatch.setattr(extract, "extract_batch", traced_extract)
    monkeypatch.setattr(_util, "atomic_write_parquet", traced_write)
    ds = _Dataset()
    assert partitions.fetch_extract_write(ds, {}, "out/part=0", batch_size=None) == 7
    assert writes == [("out/part=0", {"keep_existing_if_empty": True})]
    (fetch, fetch_kw), (ext, _) = ds.stages
    assert "fetch" in fetch.__name__ and fetch_kw["batch_size"] is None
    assert ext is traced_extract


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
