"""The three workloads: seeded inputs, one pipeline call, and its oracle.

A workload is driven by ``run.py`` in a closed loop with one client:
``construct`` builds the engine objects for one call (and waits until their
actors answer), ``call`` runs the pipeline and returns the pages it
committed, ``shutdown`` releases the call's actors, and ``check`` compares
the committed output against an oracle built from the engine's public pure
functions. Every input is a function of the seed.
"""

from __future__ import annotations

import glob
import json
import os
import random
import zlib
from datetime import date, datetime, timedelta, timezone

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

# how many sampled rows per call get their text re-derived by the oracle
TEXT_SAMPLE = 24


def parquet_bytes(root: str) -> int:
    return sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)
    )


def read_output(root: str, columns: list[str]) -> pa.Table:
    return pads.dataset(root, format="parquet", partitioning=None).to_table(columns=columns)


def _expected_text(url: str, status: int, body: bytes | None) -> str | None:
    """What extraction must yield for a fetched body: the engine's own pure
    extractors, chosen by the url's extension (none means html)."""
    from europarl_crawler_ray.functions.extract import html_to_text
    from europarl_crawler_ray.functions.pdf import pdf_to_text
    from europarl_crawler_ray.stages.extract import filetype_of_url

    if status != 200 or body is None:
        return None
    extractor = {".html": html_to_text, ".pdf": pdf_to_text}.get(filetype_of_url(url) or ".html")
    return extractor(body) if extractor else None


def _sample_text_failures(rows: pa.Table, seed: int, page_scale: int, rng: random.Random) -> int:
    """Re-fetch a sample of rows from the synthetic web at the workload's
    page scale and compare status and text byte for byte."""
    from europarl_crawler_ray.sources.synth import MockHttp

    http = MockHttp(seed, page_scale=page_scale)
    urls = rows.column("url").to_pylist()
    statuses = rows.column("status_code").to_pylist()
    texts = rows.column("text").to_pylist()
    failed = 0
    for i in rng.sample(range(len(urls)), min(TEXT_SAMPLE, len(urls))):
        status, body, _ = http.fetch(urls[i], 0)
        if status != statuses[i] or _expected_text(urls[i], status, body) != texts[i]:
            failed += 1
    return failed


def _set_failures(got: list, expected: set) -> int:
    """Missing plus extra rows; a duplicated row counts as extra."""
    got_set = set(got)
    return len(expected - got_set) + len(got_set - expected) + (len(got) - len(got_set))


class _CommitClock:
    """Wraps a manifest writer so every commit's end time and duration are
    recorded (end-to-end: the first one sets ``first_commit_s``)."""

    def __init__(self):
        self.events: list[tuple[float, float]] = []

    def wrap(self, owner, attr: str) -> None:
        import time

        orig = getattr(owner, attr)
        if getattr(orig, "_crawlbench_clock", False):
            return
        events = self.events

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = orig(*args, **kwargs)
            t1 = time.perf_counter()
            events.append((t1, t1 - t0))
            return result

        timed._crawlbench_clock = True
        setattr(owner, attr, timed)


def _session_days(seed: int, horizon: date, n: int) -> list[date]:
    """The ``n`` newest session days of the seeded synthetic web at or
    before ``horizon``, newest first."""
    from europarl_crawler_ray.sources.synth import is_session_day

    out, d = [], horizon
    while len(out) < n:
        if is_session_day(d, seed):
            out.append(d)
        d -= timedelta(days=1)
    return out


def _balanced_window(seed: int, latest: date, parts: int, per_part: int) -> tuple[date, date]:
    """(start, horizon) of a window at or before ``latest`` with exactly
    ``parts * per_part`` session days, split by ``run_streamed``'s rule
    (``parts`` equal-length date chunks, newest first, the last one taking
    the remainder) as evenly as the seeded calendar allows: the newest such
    window whose chunks each hold ``per_part`` session days, or failing that
    the one closest to it. Every seed then gives the same pages per call and
    nearly the same per partition, so a seed does not move the time to the
    first commit."""
    from europarl_crawler_ray.sources.synth import is_session_day

    span = 1000
    flags = [is_session_day(latest - timedelta(days=i), seed) for i in range(span)]
    want = parts * per_part
    best = None
    for shift in range(span // 2):
        total = 0
        for n_days in range(1, span - shift):
            total += flags[shift + n_days - 1]
            if total > want:
                break
            if total < want:
                continue
            chunk = n_days // parts
            bounds = [shift + p * chunk for p in range(parts)] + [shift + n_days]
            devs = [abs(sum(flags[bounds[p]:bounds[p + 1]]) - per_part) for p in range(parts)]
            key = (devs[0], sum(devs))
            if best is None or key < best[0]:
                best = (key, shift, n_days)
            if key == (0, 0):
                break
        if best and best[0] == (0, 0):
            break
    _, shift, n_days = best
    horizon = latest - timedelta(days=shift)
    return horizon - timedelta(days=n_days - 1), horizon


class Workload:
    name = ""
    # process-title prefixes of the actors one call creates
    actor_titles: tuple[str, ...] = ()
    actors_per_call = 0

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.commits = _CommitClock()
        self.rng = random.Random(seed)

    def setup(self) -> dict:
        """Generate the inputs; returns per-layer facts of the set-up."""
        return {}

    def construct(self, out_dir: str):
        return None

    def call(self, handle) -> int:
        raise NotImplementedError

    def shutdown(self, handle) -> None:
        pass

    def engine_counters(self, handle, out_dir: str) -> dict:
        return {}

    def pages_root(self, out_dir: str) -> str:
        return out_dir

    def check(self, out_dir: str) -> tuple[int, int]:
        """(expected rows, failed rows) of one call's committed output."""
        raise NotImplementedError


class _ActorWorkload(Workload):
    """Shared parts of the two crawls: seen shards plus politeness
    coordinators per call, read back through ``SeenSet.stats``."""

    actor_titles = ("ray::SeenShard", "ray::PolitenessCoordinator")

    def _wait_ready(self, handle) -> None:
        import ray

        handle.seen.stats()
        ray.get([c.status_summary.remote() for c in handle.coords])

    def shutdown(self, handle) -> None:
        handle.shutdown()

    def engine_counters(self, handle, out_dir: str) -> dict:
        stats = handle.seen.stats()
        return {
            "seen.n_added": stats["n_added"],
            "seen.est_fpr": stats["est_fpr"],
            "seen.checkpoint_bytes": sum(
                os.path.getsize(p) for p in glob.glob(os.path.join(self.seen_dir(out_dir), "*.npz"))
            ),
        }


class EuroparlCrawl(_ActorWorkload):
    """``CrawlDriver.run_streamed`` over a window holding a fixed number of
    session days: probe+unfold, dedup against one host, mock fetch of
    html/pdf/xml, extract and a partitioned write."""

    name = "europarl_crawl"
    actors_per_call = 8 + 1  # seen shards + one politeness coordinator
    page_scale = 10
    offset_days = 30  # CrawlConfig default: horizon = today - 30 days

    def setup(self) -> dict:
        from europarl_crawler_ray.functions.rules import DOCUMENT_RULES
        from europarl_crawler_ray.sources.synth import is_session_day

        self.parts = 2 if self.tiny else 4
        self.start, self.horizon = _balanced_window(
            self.seed, date(2021, 1, 1), self.parts, 2 if self.tiny else 8
        )
        days = [
            self.start + timedelta(days=i)
            for i in range((self.horizon - self.start).days + 1)
        ]
        self.expected = {
            (r.name, r.url(d)) for d in days if is_session_day(d, self.seed) for r in DOCUMENT_RULES
        }
        return {}

    def construct(self, out_dir: str):
        from europarl_crawler_ray.pipelines.crawl import CrawlConfig, CrawlDriver

        self.commits.wrap(CrawlDriver, "_streamed_mark_done")
        cfg = CrawlConfig(
            output_dir=out_dir,
            start_date=self.start,
            today=self.horizon + timedelta(days=self.offset_days),
            discovery_limit=11_000,
            expansion_limit=500_000,
            page_scale=self.page_scale,
            seed=self.seed,
            num_seen_shards=8,
            seen_exact=False,
            seen_bits_per_shard=1 << 26,
            fetch_concurrency=2,
            fetch_batch_size=256,
            checkpoint_every=10**9,
            stream_partitions=self.parts,
        )
        drv = CrawlDriver(cfg, resume=False)
        self._wait_ready(drv)
        return drv

    def call(self, drv) -> int:
        return drv.run_streamed()["pages"]

    def seen_dir(self, out_dir: str) -> str:
        return os.path.join(out_dir, "seen")

    def pages_root(self, out_dir: str) -> str:
        return os.path.join(out_dir, "pages")

    def check(self, out_dir: str) -> tuple[int, int]:
        rows = read_output(self.pages_root(out_dir), ["url", "rulename", "status_code", "text"])
        got = list(zip(rows.column("rulename").to_pylist(), rows.column("url").to_pylist()))
        failed = _set_failures(got, self.expected)
        failed += _sample_text_failures(rows, self.seed, self.page_scale, self.rng)
        return len(self.expected), failed


class CCFrontier(_ActorWorkload):
    """``CCIngest.run`` over a Zipf-skewed multi-host frontier with 20%
    repeated urls and tiny pages: politeness and seen-shard RPCs dominate."""

    name = "cc_frontier"
    actors_per_call = 8 + 2  # seen shards + two politeness coordinators
    page_scale = 1

    def setup(self) -> dict:
        self.n_urls = 200 if self.tiny else 1600
        self.expected = None  # the frontier is read from the first ingest
        return {}

    def construct(self, out_dir: str):
        from europarl_crawler_ray.pipelines.cc_ingest import CCIngest, CCIngestConfig

        self.commits.wrap(CCIngest, "_mark_done")
        cfg = CCIngestConfig(
            output_dir=out_dir,
            n_urls=self.n_urls,
            n_hosts=2000,
            n_partitions=2 if self.tiny else 4,
            seed=self.seed,
            page_scale=self.page_scale,
            blocks_per_partition=8,
        )
        ing = CCIngest(cfg)
        if self.expected is None:
            # the frontier is a pure function of the config
            self.expected = {
                u for p in range(cfg.n_partitions) for u in ing._partition_urls(p).tolist()
            }
        self._wait_ready(ing)
        return ing

    def call(self, ing) -> int:
        return ing.run()["pages"]

    def seen_dir(self, out_dir: str) -> str:
        return os.path.join(out_dir, "_seen")

    def check(self, out_dir: str) -> tuple[int, int]:
        parts = [p for p in glob.glob(os.path.join(out_dir, "part=*")) if os.path.isdir(p)]
        rows = pa.concat_tables(
            read_output(p, ["url", "status_code", "text"]) for p in sorted(parts)
        )
        failed = _set_failures(rows.column("url").to_pylist(), self.expected)
        failed += _sample_text_failures(rows, self.seed, self.page_scale, self.rng)
        return len(self.expected), failed


class ReplayExtract(Workload):
    """The BASELINE ``input_hint`` table (url, warc_ts, html, text, lang),
    rendered once at set-up; each call runs read_parquet → map_batches(
    extract_batch, zero_copy_batch=True) → atomic_write_parquet per
    partition, with no actors and no mock web."""

    name = "replay_extract"
    page_scale = 40
    n_partitions = 2
    files_per_partition = 4

    def setup(self) -> dict:
        import time

        from europarl_crawler_ray.functions.extract import html_to_text
        from europarl_crawler_ray.functions.rules import DOCUMENT_RULES
        from europarl_crawler_ray.sources.synth import MockHttp, status_plan

        n_pages = 24 if self.tiny else 240
        html_rules = [r for r in DOCUMENT_RULES if r.format == ".html"]
        urls, langs = [], []
        for d in _session_days(self.seed, date(2021, 1, 1), n_pages):
            for r in html_rules:
                url = r.url(d)
                if status_plan(url, self.seed)[0] == 200 and len(urls) < n_pages:
                    urls.append(url)
                    langs.append(r.language)
            if len(urls) == n_pages:
                break
        http = MockHttp(self.seed, page_scale=self.page_scale)
        bodies = [http.fetch(u, 0)[1] for u in urls]
        # the single-process baseline: the same extraction, serially
        t0 = time.perf_counter()
        texts = [html_to_text(b) for b in bodies]
        serial_s = time.perf_counter() - t0
        base = datetime(2021, 1, 1, tzinfo=timezone.utc)
        table = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(
                    [base + timedelta(seconds=zlib.crc32(u.encode()) % 86_400) for u in urls],
                    pa.timestamp("us", tz="UTC"),
                ),
                "html": pa.array(bodies, pa.binary()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        )
        self.expected = dict(zip(urls, texts))
        self.input_dir = os.path.join(self.work_dir, "replay_input")
        step = -(-table.num_rows // (self.n_partitions * self.files_per_partition))
        for i in range(0, table.num_rows, step):
            part = (i // step) // self.files_per_partition
            d = os.path.join(self.input_dir, f"part={part}")
            os.makedirs(d, exist_ok=True)
            pq.write_table(table.slice(i, step), os.path.join(d, f"{i:06d}.parquet"))
        return {"baseline.serial_extract_s": serial_s}

    def call(self, out_dir: str) -> int:
        import time

        import ray.data

        from europarl_crawler_ray import _util
        from europarl_crawler_ray.stages.extract import extract_batch

        pages = 0
        for p in range(self.n_partitions):
            ds = ray.data.read_parquet(
                os.path.join(self.input_dir, f"part={p}"),
                columns=["url", "warc_ts", "html", "lang"],  # not the expected text
            )
            ds = ds.map_batches(extract_batch, batch_format="pyarrow", zero_copy_batch=True)
            rows = _util.atomic_write_parquet(ds, os.path.join(out_dir, f"part={p}"))
            pages += rows
            t0 = time.perf_counter()
            _write_manifest(out_dir, p, rows)
            t1 = time.perf_counter()
            self.commits.events.append((t1, t1 - t0))
        return pages

    def construct(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        return out_dir

    def check(self, out_dir: str) -> tuple[int, int]:
        rows = read_output(out_dir, ["url", "text"])
        got = dict(zip(rows.column("url").to_pylist(), rows.column("text").to_pylist()))
        failed = _set_failures(rows.column("url").to_pylist(), set(self.expected))
        failed += sum(1 for u, t in got.items() if u in self.expected and self.expected[u] != t)
        return len(self.expected), failed


def _write_manifest(out_dir: str, part: int, rows: int) -> None:
    """Commit one replay partition: data is already durable, so record it
    in the manifest (tmp file + rename, as the crawl drivers do)."""
    path = os.path.join(out_dir, "_manifest.json")
    doc = {"done_partitions": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc["done_partitions"] = sorted(set(doc["done_partitions"]) | {part})
    doc[f"rows_{part}"] = rows
    with open(path + ".tmp", "w") as f:
        json.dump(doc, f)
    os.replace(path + ".tmp", path)


WORKLOADS = {w.name: w for w in (EuroparlCrawl, CCFrontier, ReplayExtract)}
