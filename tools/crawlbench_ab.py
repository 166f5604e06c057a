"""Same-session A/B of two checkouts on one crawlbench workload.

Runs N alternating pairs of ``python3 crawlbench/run.py --trace 0`` in a
parent and a change checkout (the parent runs first in odd pairs, the
change in even ones), then prints, for every end-to-end metric, each
side's median and quartiles, the change's win count (ties count for
neither side) and whether the gain rule holds: the change wins at least
nine tenths of the pairs and the medians differ, in the better
direction, by more than the parent's interquartile range.

Usage:
    python tools/crawlbench_ab.py PARENT_DIR CHANGE_DIR \\
        --workload europarl_crawl --seed 3 [--pairs 10] [--seconds 12] \\
        [--out runs.json]

Metric names and directions come from the change checkout's
BENCHMARK.json; the crawlbench files of each checkout are only run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "crawlbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed in {checkout} (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        gain = (cmed - pmed) if higher else (pmed - cmed)
        rows.append({
            "metric": name,
            "unit": m["unit"],
            "better": m["better"],
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_pct": 100.0 * (cmed - pmed) / pmed if pmed else None,
            "gain_rule_holds": wins >= 0.9 * len(pairs) and gain > (pq3 - pq1),
            "bound": m["bound"],
        })
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out", help="write every run and the summary as JSON here")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    pairs: list[tuple[dict, dict]] = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            got[side] = run_once(sides[side], args.workload, args.seed, seconds)
            pps = got[side]["metrics"].get("pages_per_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} {side}: pages_per_s={pps:.1f} "
                  f"failed={got[side]['failed']}/{got[side]['attempted']}",
                  file=sys.stderr, flush=True)
        pairs.append((got["parent"], got["change"]))

    rows = summarize(pairs, bench["end_to_end"])
    print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs, {seconds:g} s runs")
    print(f"{'metric':<20}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'Δmed':>9}{'wins':>7}  gain rule")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['metric']:<20}"
              f"{p['q1']:>10.4g}{p['median']:>10.4g}{p['q3']:>10.4g}"
              f"{c['q1']:>10.4g}{c['median']:>10.4g}{c['q3']:>10.4g}"
              f"{r['median_change_pct']:>+8.1f}%{r['change_wins']:>4}/{r['pairs']:<2}"
              f"  {'holds' if r['gain_rule_holds'] else 'no'}")
    for side, idx in (("parent", 0), ("change", 1)):
        failed = sum(p[idx]["failed"] for p in pairs)
        attempted = sum(p[idx]["attempted"] for p in pairs)
        print(f"{side}: failed rows {failed}/{attempted}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                       "pairs": [{"parent": p, "change": c} for p, c in pairs],
                       "summary": rows}, f, indent=1)


if __name__ == "__main__":
    main()
