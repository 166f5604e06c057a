"""Seen-set scaling at crawl-shaped batches.

For 8, 64, 256 and 1024 logical shards, builds a ``SeenSet`` with a fixed
total bit budget split over its shards, feeds pre-hashed urls (25%
repeats, as in ``bench.py``'s ``bench_dedup``) in ~400-row batches, the
block size of a streamed crawl, and records per level: ``check_and_add``
ops/s, RSS per seen actor, checkpoint bytes and the seconds a fresh
``SeenSet`` takes to restore the checkpoint. Only the dedup calls are
timed; hashing happens before the clock starts.

With ``--parent DIR`` it also runs ``bench_dedup`` (8 shards,
262,144-row batches) alternately in that checkout and in this one, each
run in a fresh process with its own local Ray, and records both sides.

Usage:
    python tools/dedup_scale.py [--cpus 4] [--urls 400000] [--batch 400]
        [--parent DIR] [--pairs 3] [--out BENCH/dedup_scale.json]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

LEVELS = (8, 64, 256, 1024)
TOTAL_BITS = 1 << 30  # 128 MiB of bloom bits, split over the logical shards
PAGE = os.sysconf("SC_PAGE_SIZE")

BENCH_DEDUP = """
import json, sys
sys.path.insert(0, ".")
import ray
ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
import bench
print(json.dumps(bench.bench_dedup(n_urls={urls})))
ray.shutdown()
"""


def _rss(actor_self) -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE


def _hashes(n_urls: int) -> tuple[np.ndarray, np.ndarray]:
    from europarl_crawler_ray.functions.canonical import hash_urls

    base = np.arange(n_urls)
    ids = np.where(base % 4 == 0, base // 2, base)
    urls = np.char.add("https://host.example.org/page/", ids.astype(str)).astype(object)
    return hash_urls(urls)


def one_level(num_shards: int, h1: np.ndarray, h2: np.ndarray, batch: int) -> dict:
    import ray

    from europarl_crawler_ray.state.seen import SeenSet

    m_bits = TOTAL_BITS // num_shards
    ckpt = tempfile.mkdtemp(prefix="dedup_scale_")
    try:
        t0 = time.perf_counter()
        seen = SeenSet(num_shards=num_shards, m_bits_per_shard=m_bits, exact=False)
        seen.stats()  # actors up
        construct_s = time.perf_counter() - t0
        n_new = 0
        t0 = time.perf_counter()
        for i in range(0, len(h1), batch):
            n_new += int((~seen.check_and_add(h1[i : i + batch], h2[i : i + batch])).sum())
        dedup_s = time.perf_counter() - t0
        rss = ray.get([a.__ray_call__.remote(_rss) for a in seen.actors])
        t0 = time.perf_counter()
        seen.checkpoint(ckpt)
        checkpoint_s = time.perf_counter() - t0
        ckpt_bytes = sum(os.path.getsize(p) for p in glob.glob(os.path.join(ckpt, "seen_shard_*.npz")))
        n_actors = len(seen.actors)
        seen.shutdown()

        fresh = SeenSet(num_shards=num_shards, m_bits_per_shard=m_bits, exact=False)
        fresh.stats()
        t0 = time.perf_counter()
        restored = fresh.restore(ckpt)
        restore_s = time.perf_counter() - t0
        fresh.shutdown()
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    assert restored == n_new, (restored, n_new)
    return {
        "logical_shards": num_shards,
        "actors": n_actors,
        "m_bits_per_shard": m_bits,
        "unique_added": n_new,
        "ops_per_s": round(len(h1) / dedup_s),
        "rss_mb_per_actor": [round(r / 2**20, 1) for r in rss],
        "model_mb_per_actor": round(TOTAL_BITS / 8 / n_actors / 2**20, 1),
        "checkpoint_bytes": ckpt_bytes,
        "checkpoint_s": round(checkpoint_s, 3),
        "restore_s": round(restore_s, 3),
        "construct_s": round(construct_s, 3),
    }


def bench_dedup_ab(parent: str, cpus: int, urls: int, pairs: int) -> dict:
    runs: dict[str, list[float]] = {"parent": [], "change": []}
    code = BENCH_DEDUP.format(cpus=cpus, urls=urls)
    for p in range(pairs):
        sides = [("parent", parent), ("change", REPO)]
        for side, checkout in sides if p % 2 == 0 else sides[::-1]:
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=checkout, capture_output=True, text=True
            )
            lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-4000:])
                raise SystemExit(f"bench_dedup failed in {checkout}")
            runs[side].append(json.loads(lines[-1])["ops_per_sec"])
            print(f"bench_dedup {side}: {runs[side][-1]:.0f} ops/s", file=sys.stderr)
    return {
        "urls": urls,
        "num_shards": 8,
        "batch_rows": 262_144,
        "ops_per_s": runs,
        "median": {k: statistics.median(v) for k, v in runs.items()},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--urls", type=int, default=400_000)
    ap.add_argument("--batch", type=int, default=400)
    ap.add_argument("--parent", help="checkout to A/B bench_dedup against")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--bench-dedup-urls", type=int, default=2_000_000)
    ap.add_argument("--out", default=os.path.join(REPO, "BENCH", "dedup_scale.json"))
    args = ap.parse_args()

    import ray

    ray.init(
        address="local", num_cpus=args.cpus, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
    )
    h1, h2 = _hashes(args.urls)
    levels = []
    for n in LEVELS:
        levels.append(one_level(n, h1, h2, args.batch))
        print(json.dumps(levels[-1]), file=sys.stderr)
    ray.shutdown()
    out = {
        "cpus": args.cpus,
        "urls": args.urls,
        "batch_rows": args.batch,
        "total_bits": TOTAL_BITS,
        "levels": levels,
    }
    if args.parent:
        out["bench_dedup"] = bench_dedup_ab(
            args.parent, args.cpus, args.bench_dedup_urls, args.pairs
        )
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
