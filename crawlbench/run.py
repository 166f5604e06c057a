#!/usr/bin/env python3
"""Crawl-engine benchmark: one workload, closed loop, one client.

    python3 crawlbench/run.py --workload europarl_crawl --seed 1 --seconds 12 --trace 0

Starts its own local Ray (2 CPUs, fixed object store, temp dir inside the
checkout), generates the workload's inputs from ``--seed``, runs one
untimed warm-up call, then calls the pipeline again and again for
``--seconds`` (at least ``MIN_CALLS`` times). Each call is checked against
the workload's oracle. A call during which the host stole more than
``MAX_STEAL`` of the machine's CPU time (other tenants of a shared host) is
not used for the metrics and is made again, for at most ``MAX_EXTRA``
times ``--seconds`` more. With ``--trace 1`` the same loop runs once more with
per-layer tracing switched on.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (expected rows, and rows missing, extra or with differing text,
over every call) and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from crawlbench import procs, tracing  # noqa: E402
from crawlbench.workloads import WORKLOADS, parquet_bytes  # noqa: E402

NUM_CPUS = 2
OBJECT_STORE_BYTES = 300 * 2**20
MIN_CALLS = 2
MAX_STEAL = 0.02
MAX_EXTRA = 2
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~62 to its temp dir
MAX_TEMP_DIR_LEN = 40
MB = 2**20


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def start_ray(work: str, traced: bool) -> None:
    # every process Ray starts inherits the marker (see procs.py), finds the
    # engine and the trace hook on its path, and, when traced, the trace dir
    os.environ[procs.MARK_VAR] = work
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    runtime_env = None
    if traced:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        os.environ[tracing.TRACE_DIR_VAR] = trace_dir
        runtime_env = {"worker_process_setup_hook": "crawlbench.tracing.install"}
    temp_dir = os.path.join(work, "ray")
    if len(temp_dir) > MAX_TEMP_DIR_LEN:
        # same directory, reached through this run's cwd (the checkout root,
        # which every Ray process inherits) so the socket paths stay short
        temp_dir = os.path.join("/proc/self/cwd", os.path.relpath(temp_dir, ROOT))
    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=temp_dir,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        runtime_env=runtime_env,
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class Loop:
    """Closed loop over one workload: construct → call → shutdown → check."""

    def __init__(self, wl, work: str, sampler: procs.TreeSampler):
        self.wl = wl
        self.work = work
        self.trace_dir = os.path.join(work, "trace")
        self.sampler = sampler
        self.n = 0
        self.baseline_workers = None
        self.attempted = 0
        self.failed = 0

    def _workers(self) -> list[int]:
        return [p for p in procs.marked_pids(self.work) if procs.is_worker(p)]

    def _actors(self) -> list[int]:
        titles = self.wl.actor_titles
        return [p for p in procs.marked_pids(self.work) if titles and procs.title(p).startswith(titles)]

    def call(self, traced: bool) -> dict:
        wl = self.wl
        out_dir = os.path.join(self.work, "out", f"call_{self.n}")
        self.n += 1
        t0 = time.perf_counter()
        handle = wl.construct(out_dir)
        construct_s = time.perf_counter() - t0

        workers = len(self._workers()) - wl.actors_per_call
        if self.baseline_workers is None:
            self.baseline_workers = workers
        elif workers > self.baseline_workers + max(wl.actors_per_call, 4):
            raise RuntimeError(
                f"Ray worker processes climb from call to call: {workers} idle "
                f"before call {self.n}, {self.baseline_workers} before the first"
            )
        before = tracing.settled_totals(self.trace_dir) if traced else {}
        first_event = len(wl.commits.events)
        self.sampler.reset()

        steal0, total0 = procs.cpu_ticks()
        start = time.perf_counter()
        pages = wl.call(handle)
        call_s = time.perf_counter() - start
        steal1, total1 = procs.cpu_ticks()

        peak_bytes, peak_workers = self.sampler.peaks()
        commits = wl.commits.events[first_event:]
        rec = {
            "call_s": call_s,
            "pages": pages,
            "construct_s": construct_s,
            "first_commit_s": min(t for t, _ in commits) - start if commits else call_s,
            "commit_s": sum(dt for _, dt in commits),
            "commit_partitions": len(commits),
            "peak_bytes": peak_bytes,
            "peak_workers": peak_workers,
            "out_bytes": parquet_bytes(wl.pages_root(out_dir)),
            "steal": (steal1 - steal0) / max(1, total1 - total0),
        }
        if traced:
            rec["engine"] = wl.engine_counters(handle, out_dir)
            rec["trace"] = tracing.delta(tracing.settled_totals(self.trace_dir), before)
        wl.shutdown(handle)
        self._wait_actors_gone()

        attempted, failed = wl.check(out_dir)
        self.attempted += attempted
        self.failed += failed
        shutil.rmtree(out_dir, ignore_errors=True)
        log(
            f"[{wl.name}] call {self.n}{' traced' if traced else ''}: {pages} pages in "
            f"{call_s:.3f}s ({pages / call_s:.1f}/s), first commit {rec['first_commit_s']:.3f}s, "
            f"construct {construct_s:.2f}s, peak {peak_bytes / MB:.0f} MB / "
            f"{peak_workers} workers, host steal {100 * rec['steal']:.1f}%, "
            f"failed {failed}/{attempted}"
        )
        return rec

    def _wait_actors_gone(self, timeout: float = 15.0) -> None:
        deadline = time.monotonic() + timeout
        while self._actors():
            if time.monotonic() > deadline:
                raise RuntimeError(f"actors still alive after shutdown: {self._actors()}")
            time.sleep(0.05)

    def phase(self, seconds: float, traced: bool = False) -> list[dict]:
        """Timed calls for ``seconds``, at least ``MIN_CALLS`` of them
        undisturbed by the host if that takes at most ``MAX_EXTRA`` times
        ``seconds`` more; returns the undisturbed ones, or all if none."""
        calls = []
        start = time.perf_counter()
        while True:
            calls.append(self.call(traced))
            clean = [c for c in calls if c["steal"] <= MAX_STEAL]
            elapsed = time.perf_counter() - start
            if len(calls) >= MIN_CALLS and elapsed >= seconds and (
                len(clean) >= MIN_CALLS or elapsed >= (1 + MAX_EXTRA) * seconds
            ):
                break
        if len(clean) < len(calls):
            log(f"[{self.wl.name}] {len(calls) - len(clean)} of {len(calls)} calls "
                f"disturbed by host steal, not used")
        return clean or calls


def med(values) -> float:
    return statistics.median(list(values))


def end_to_end(calls: list[dict], setup_s: float) -> dict:
    return {
        "pages_per_s": med(c["pages"] / c["call_s"] for c in calls),
        "first_commit_s": med(c["first_commit_s"] for c in calls),
        "setup_s": setup_s,
        "peak_rss_mb": med(c["peak_bytes"] for c in calls) / MB,
        "out_bytes_per_page": med(c["out_bytes"] / c["pages"] for c in calls),
    }


def per_layer(traced: list[dict], untraced: list[dict], setup_facts: dict) -> dict:
    """Median over traced calls of each layer metric (see README.md)."""

    def one(c: dict) -> dict:
        t = c["trace"]
        g = lambda k: t.get(k, 0.0)  # noqa: E731
        pol_rpcs = sum(v for k, v in t.items() if k.startswith("rpc.PolitenessCoordinator."))
        shard_rpcs = g("rpc.SeenShard.check_and_add") + g("rpc.SeenShard.contains")
        m = {
            "mockweb.calls": g("mockweb.calls"),
            "mockweb.busy_s": g("mockweb.busy_s"),
            "mockweb.bytes": g("mockweb.bytes"),
            "fetch.calls": g("fetch.calls"),
            "fetch.rows": g("fetch.rows"),
            "fetch.busy_s": g("fetch.busy_s"),
            "fetch.self_s": g("fetch.self_s"),
            "politeness.rpcs": pol_rpcs,
            "politeness.busy_s": g("pol_actor.busy_s"),
            "politeness.caller_wait_s": g("pol_call.self_s"),
            "politeness.robots_loads": g("rpc.PolitenessCoordinator.load_robots"),
            "seen.calls": g("seen_call.calls"),
            "seen.rows": g("seen_call.rows"),
            "seen.shard_rpcs": shard_rpcs,
            "seen.rows_per_rpc": g("seen_call.rows") / shard_rpcs if shard_rpcs else 0.0,
            "seen.caller_wait_s": g("seen_call.self_s"),
            "seen.busy_s": g("seen_shard.busy_s"),
            "seen.n_added": c["engine"].get("seen.n_added", 0),
            "seen.est_fpr": c["engine"].get("seen.est_fpr", 0.0),
            "seen.checkpoint_s": g("checkpoint.busy_s"),
            "seen.checkpoint_bytes": c["engine"].get("seen.checkpoint_bytes", 0),
            "extract.rows": g("extract.rows"),
            "extract.busy_s": g("extract.busy_s"),
            "extract.self_s": g("extract.self_s"),
            "extract.html_s": g("html.busy_s"),
            "extract.pdf_s": g("pdf.busy_s"),
            "extract.bytes_in": g("extract.bytes_in"),
            "write.calls": g("write.calls"),
            "write.rows": g("write.rows"),
            "write.bytes": g("write.bytes"),
            "read.blocks": g("read.blocks"),
            "commit.s": c["commit_s"] + g("checkpoint.busy_s"),
            "commit.partitions": c["commit_partitions"],
            "construct.s": c["construct_s"],
            "ray.worker_procs_peak": c["peak_workers"],
        }
        for name in tracing.DATASET_METRICS:
            m[name] = g(name)
        return m

    rows = [one(c) for c in traced]
    out = {k: med(r[k] for r in rows) for k in rows[0]}
    untraced_s = med(c["call_s"] for c in untraced)
    traced_s = med(c["call_s"] for c in traced)
    out["baseline.serial_extract_s"] = setup_facts.get("baseline.serial_extract_s", 0.0)
    out["trace.untraced_call_s"] = untraced_s
    out["trace.traced_call_s"] = traced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    out["run.timed_calls"] = len(traced)
    return out


def bench(args, work: str) -> dict:
    import europarl_crawler_ray  # noqa: F401  (fail fast without the engine)

    wl = WORKLOADS[args.workload](args.seed, work, tiny=args.tiny)
    t0 = time.perf_counter()
    start_ray(work, traced=bool(args.trace))
    ray_s = time.perf_counter() - t0
    if args.trace:
        tracing.install(driver=True)  # dormant until activate()
    t0 = time.perf_counter()
    setup_facts = wl.setup()
    input_s = time.perf_counter() - t0

    sampler = procs.TreeSampler(work).start()
    loop = Loop(wl, work, sampler)
    try:
        warm = loop.call(traced=False)
        untraced = loop.phase(args.seconds)
        traced = []
        if args.trace:
            tracing.activate(loop.trace_dir)
            traced = loop.phase(args.seconds, traced=True)
    finally:
        sampler.stop()

    constructs = [c["construct_s"] for c in [warm, *untraced, *traced]]
    setup_s = ray_s + input_s + med(constructs) + warm["call_s"]
    log(
        f"[{wl.name}] setup {setup_s:.2f}s = ray {ray_s:.2f} + input {input_s:.2f} + "
        f"construct {med(constructs):.2f} (median of {len(constructs)}) + "
        f"warm-up call {warm['call_s']:.2f}"
    )
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = end_to_end(untraced, setup_s)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        log(f"[{wl.name}] {name} = {value:.4f} {units[name]}")
    log(
        f"[{wl.name}] medians over {len(untraced)} timed calls; host steal during "
        f"them: {100 * med(c['steal'] for c in untraced):.1f}% (median)"
    )
    log(f"[{wl.name}] failed rows {loop.failed}/{loop.attempted}")
    values = e2e
    if args.trace:
        values = per_layer(traced, untraced, setup_facts)
        for name in sorted(values):
            log(f"[{wl.name}]   {name} = {values[name]:.6g} {units[name]}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy input sizes (self-check)")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    # a terminated run still stops its Ray tree (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Ray's raylet writes warnings to the driver's fd 1 even with
    # log_to_driver=False: park the real stdout, send fd 1 to stderr for the
    # whole run (children inherit it), and write the result to the saved fd
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    work = os.path.join(ROOT, ".crawlbench")
    try:
        procs.kill_marked(work)  # a stale tree from an earlier run here
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        result = bench(args, work)
    finally:
        _stop(work)
    os.write(real_stdout, (json.dumps(result) + "\n").encode())
    return 0


def _stop(work: str) -> None:
    try:
        if "ray" in sys.modules:
            import ray

            ray.shutdown()
    finally:
        procs.kill_marked(work)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
