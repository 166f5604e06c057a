"""The partition core's contract with crawlbench. The benchmark wraps
engine names from outside (``crawlbench/workloads.py``, ``tracing.py``)
and is not edited with the engine, so these tests pin those names. No Ray
execution."""

import inspect
from types import SimpleNamespace

import numpy as np

from europarl_crawler_ray import _util
from europarl_crawler_ray.pipelines import cc_ingest, crawl, partitions
from europarl_crawler_ray.stages import extract


class _Dataset:
    """Records ``map_batches`` stages instead of running them."""

    def __init__(self):
        self.stages = []

    def map_batches(self, fn, **kwargs):
        self.stages.append((fn, kwargs))
        return self


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


def _record_first_partition(monkeypatch, module, run):
    """Build ``module``'s partition-0 pipeline through the real partition
    tail on a ``_Dataset`` recorder and return its stages; nothing runs."""
    ds = _Dataset()
    monkeypatch.setattr(module, "sliced_dataset", lambda table, step: ds)
    monkeypatch.setattr(_util, "atomic_write_parquet", lambda ds, final_dir, **kw: 0)

    def first_partition(manifest, n_parts, write, *args, **kwargs):
        write(0)
        return [], 0

    monkeypatch.setattr(module, "run_partitions", first_partition)
    run()
    return ds.stages


def test_no_partition_stage_fans_out_past_the_fetch_slots(monkeypatch, tmp_path):
    """The write runs without Ray Data's resource reservation, so a stage
    under one CPU would start a task and a worker process per block at
    once. cc's stages are whole-CPU; the streamed probe (0.5 CPU) and
    fetch are capped at the fetch slots."""
    seen = SimpleNamespace(stats=lambda: {"n_added": 0, "est_fpr": 0.0})

    ing = cc_ingest.CCIngest.__new__(cc_ingest.CCIngest)
    ing.cfg = cc_ingest.CCIngestConfig(output_dir=str(tmp_path / "cc"), n_urls=64, n_partitions=2)
    ing.seen, ing.coords = seen, []
    ing._all_hosts = np.zeros(64, dtype=np.int64)
    ing._manifest = SimpleNamespace(done=set)
    stages = _record_first_partition(monkeypatch, cc_ingest, ing.run)
    assert [fn.__name__ for fn, _ in stages][0] == "dedup"
    assert len(stages) == 3  # dedup, fetch, extract
    for fn, kw in stages:
        assert kw.get("num_cpus", 1) >= 1, (fn.__name__, kw)

    drv = crawl.CrawlDriver.__new__(crawl.CrawlDriver)
    drv.cfg = crawl.CrawlConfig(output_dir=str(tmp_path / "crawl"), fetch_concurrency=3)
    drv.state, drv.metrics = crawl.CrawlState(), []
    drv.rules, drv.seen, drv.coords, drv._fetch_kwargs = list(crawl.DOCUMENT_RULES), seen, [], {}
    drv._probe_fetcher = crawl.Fetcher()
    stages = _record_first_partition(monkeypatch, crawl, drv.run_streamed)
    (probe, probe_kw), (fetch, fetch_kw), (ext, ext_kw) = stages
    assert probe.__name__ == "probe_expand" and "fetch" in fetch.__name__
    assert probe_kw["concurrency"] == fetch_kw["concurrency"] == drv.cfg.fetch_concurrency
    assert fetch_kw["num_cpus"] == 1 and ext_kw.get("num_cpus", 1) >= 1
