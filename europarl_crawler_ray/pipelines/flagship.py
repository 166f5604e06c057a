"""Flagship pipeline: crawl → extract → pages Dataset.

Runs the full wave engine (discovery → probe → expand → dedup → politeness
fetch → byte-identical extract) against the deterministic synthetic web and
returns the crawled pages as a ``ray.data.Dataset`` with the BASELINE.json
input_hint columns (url, warc_ts, html, text, lang). This is what ``__ray_entry__.entry()`` and bench.py run.
"""

from __future__ import annotations

import shutil
from datetime import date

import ray.data

from .crawl import CrawlConfig, CrawlDriver


def run_flagship(
    output_dir: str = "/tmp/europarl_flagship",
    start_date: date = date(2021, 1, 4),
    today: date = date(2021, 3, 1),
    discovery_limit: int = 20,
    expansion_limit: int = 200,
    fetch_concurrency: int = 4,
    clean: bool = True,
) -> ray.data.Dataset:
    if clean:
        shutil.rmtree(output_dir, ignore_errors=True)
    cfg = CrawlConfig(
        output_dir=output_dir,
        start_date=start_date,
        today=today,
        discovery_limit=discovery_limit,
        expansion_limit=expansion_limit,
        fetch_concurrency=fetch_concurrency,
    )
    driver = CrawlDriver(cfg, resume=not clean)
    driver.run()
    driver.shutdown()
    ds = ray.data.read_parquet(f"{output_dir}/pages")
    # project to the input_hint pages shape
    from ..stages.extract import to_pages

    return ds.map_batches(to_pages, batch_format="pyarrow", zero_copy_batch=True)
