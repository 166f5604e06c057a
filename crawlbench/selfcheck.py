#!/usr/bin/env python3
"""Self-check of the benchmark at toy sizes (a few minutes at 2 CPUs).

    python3 crawlbench/selfcheck.py

For every workload, untraced and traced: the run exits 0, its last stdout
line parses, the output is correct, it reports exactly the metrics
BENCHMARK.json declares, and no process of the run is left. Then a copy of
only BENCHMARK.json and this directory must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from crawlbench import procs  # noqa: E402
from crawlbench.workloads import WORKLOADS  # noqa: E402

SCRATCH = os.path.join(ROOT, ".crawlbench-selfcheck")


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "crawlbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            p = run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            seen_problems = len(problems)
            if p.returncode != 0:
                problems.append(f"{tag}: exit {p.returncode}\n{p.stderr[-2000:]}")
                print(f"FAIL {tag}", flush=True)
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            if set(result["metrics"]) != declared[trace]:
                problems.append(
                    f"{tag}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(result['metrics']) ^ declared[trace])}"
                )
            left = procs.marked_pids(os.path.join(ROOT, ".crawlbench"))
            if left:
                problems.append(f"{tag}: processes left behind: {left}")
            print(f"ok   {tag}" if len(problems) == seen_problems else f"FAIL {tag}", flush=True)

    # without the engine the benchmark must fail, and print no result
    shutil.rmtree(SCRATCH, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(SCRATCH, "crawlbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
    p = run(SCRATCH, spec["workloads"][0]["name"], 0)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        problems.append(f"bare copy: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    else:
        print("ok   bare copy fails without a result")

    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
