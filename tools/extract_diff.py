"""Differential check of the HTML tokenizer against its html.parser oracle.

Generates N pages round-robin from five seeded generators and runs each
through ``functions.extract._fast_text`` (the one-pass tokenizer) and
``_collector_text`` (the ``html.parser``-based collector it falls back
to). A diff is a page the tokenizer accepts with a different text, or a
page where ``get_text`` differs from the collector. Generators:

- ``rand_html``: random tag soup (``tests/htmlfuzz.py``);
- ``tag_soup``: attributes, whitespace kinds and terminators at the
  edges of the tokenizer's subset (``tests/htmlfuzz.py``);
- ``attr_tag``: one start tag with a random attribute string, where a
  start tag and a self-closing one give different text
  (``tests/htmlfuzz.py``);
- ``mutated``: truncations, splices and entity corruptions of a
  synthetic page (``tests/htmlfuzz.py``);
- ``render_html``: synthetic-web pages of every ``.html`` rule at a
  random date and page scale.

Prints the diff count, a reproducer for the first diff, and per
generator the fallback share and ms/page for each path (the tokenizer on
the pages it accepts, the tokenizer's attempt on the pages it gives up
on, and the collector on all pages). Exits 1 on any diff.

Usage:
    python tools/extract_diff.py [--pages 100000] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from datetime import date, timedelta

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from europarl_crawler_ray.functions.extract import (  # noqa: E402
    _collector_text,
    _fast_text,
    get_text,
)
from europarl_crawler_ray.functions.rules import RULES  # noqa: E402
from europarl_crawler_ray.sources.synth import render_html  # noqa: E402
from tests.htmlfuzz import (  # noqa: E402
    attr_tag,
    base_page,
    mutated_page,
    rand_html,
    tag_soup,
)

_HTML_RULES = [r for r in RULES if r.format == ".html"]
_SCALES = (1, 2, 5, 10, 20, 40)


def _render(rng: random.Random) -> str:
    rule = rng.choice(_HTML_RULES)
    day = date(2019, 1, 1) + timedelta(days=rng.randrange(1500))
    return render_html(rule.url(day), rule.name, day, rule.language,
                       scale=rng.choice(_SCALES)).decode("utf-8")


def generators() -> dict:
    base = base_page()
    return {
        "rand_html": rand_html,
        "tag_soup": tag_soup,
        "attr_tag": attr_tag,
        "mutated": lambda rng: mutated_page(base, rng),
        "render_html": _render,
    }


def run(pages: int, seed: int) -> dict:
    gens = generators()
    stats = {name: {"pages": 0, "fallback": 0, "fast_s": 0.0, "giveup_s": 0.0,
                    "collector_s": 0.0} for name in gens}
    diffs, first = 0, None
    names = list(gens)
    for i in range(pages):
        name = names[i % len(names)]
        html = gens[name](random.Random(seed * 1_000_003 + i))
        st = stats[name]
        t0 = time.perf_counter()
        fast = _fast_text(html)
        t1 = time.perf_counter()
        want = _collector_text(html)
        t2 = time.perf_counter()
        st["pages"] += 1
        st["collector_s"] += t2 - t1
        if fast is None:
            st["fallback"] += 1
            st["giveup_s"] += t1 - t0
        else:
            st["fast_s"] += t1 - t0
        if (fast is not None and fast != want) or get_text(html) != want:
            diffs += 1
            if first is None:
                first = {"generator": name, "page": i, "html": html,
                         "tokenizer": fast, "collector": want}
    return {"pages": pages, "diffs": diffs, "first_diff": first, "generators": stats}


def report(res: dict) -> str:
    lines = [f"pages {res['pages']}  diffs {res['diffs']}"]
    if res["first_diff"]:
        d = res["first_diff"]
        lines += [
            f"first diff: generator {d['generator']}, page {d['page']}",
            f"  html      = {d['html']!r}",
            f"  tokenizer = {d['tokenizer']!r}",
            f"  collector = {d['collector']!r}",
        ]
    lines.append(f"{'generator':12} {'pages':>7} {'fallback':>9} "
                 f"{'fast ms/pg':>11} {'give-up ms/pg':>14} {'collector ms/pg':>16}")
    for name, st in res["generators"].items():
        n, fb = st["pages"], st["fallback"]
        fast_ms = 1e3 * st["fast_s"] / (n - fb) if n > fb else float("nan")
        giveup_ms = 1e3 * st["giveup_s"] / fb if fb else float("nan")
        lines.append(f"{name:12} {n:7d} {fb / max(n, 1):9.1%} {fast_ms:11.3f} "
                     f"{giveup_ms:14.3f} {1e3 * st['collector_s'] / max(n, 1):16.3f}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--pages", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    res = run(args.pages, args.seed)
    print(report(res))
    return 1 if res["diffs"] else 0


if __name__ == "__main__":
    sys.exit(main())
