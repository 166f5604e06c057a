"""Crawl driver — the Ray-Data rebuild of ``jobs/crawler.py``.

The reference runs an infinite polling loop over Postgres-backed queues
(reference ``europarl/jobs/crawler.py:47-99``). The rebuild has two
modes, and both write their pages through the one partition core in
``partitions.py``: one task per input block runs the row step, ``Fetcher``
and ``extract_batch`` and writes the block's file, and a partition's
directory is committed when its last block reports:

``run()`` — discrete WAVES that keep the reference's ordering (SURVEY §3.1):

    candidate dates (F3)  →  probe session_day urls on the driver
    (politeness-gated)  →  confirmed dates × active rules unfold (F2)
    →  seen-set dedup (F1)  →  partition core: pages/wave=N
    →  manifest.json (CrawlState) + seen checkpoint

Reference-ordering contract (north rule): discovery batches reproduce
``SessionDay.get_unchecked_days`` exactly — newest-first new dates with
``limit-1`` slots, a retry branch for dates whose probes never reached
{200,404}, final ASC order + outer LIMIT (``sessionDay.py:53-122``); url
expansion reproduces ``URLs.get_todo_rule_and_date_combos`` —
confirmed-dates × active-rules anti-join ordered ``dates DESC``
(``url.py:94-137``). Equivalence is at wave granularity (same wave
membership + same final seen-set); within-wave fetch order is parallel.

``run_streamed()`` — date-range partitions with no driver barrier between
probe and fetch; the partitions between two seen checkpoints share one
Dataset:

    dates[p] → one task per block: probe+expand+seen-dedup → fetch
    → extract → pages/part=p/<block>.parquet; last block of p reported
    → commit pages/part=p → streamed_manifest.json; segment drained
    → seen checkpoint

Resume contract mirrors ``drop_uncrawled_urls`` (``url.py:139-156``,
invoked on shutdown at ``crawler.py:102-109``): only durably-written
partitions are in a manifest; anything in flight is re-derived.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

from ..functions.canonical import hash_urls, host_of
from ..functions.rules import DOCUMENT_RULES, SESSION_DAY_RULE, RULES_BY_NAME
from ..stages.fetch import ROBOTS_BLOCKED, Fetcher
from ..state.politeness import PolitenessCoordinator
from ..state.seen import SeenSet
from .partitions import (
    Partition,
    PartitionManifest,
    frontier_table,
    read_columns,
    run_partitions,
    run_segment,
    slices,
)

OK_PROBE = (200, 404)


@dataclass
class CrawlConfig:
    output_dir: str
    start_date: date = date(2021, 1, 4)
    today: date = date(2021, 3, 1)          # injected "now" for determinism
    offset_days: int = 30                    # reference get_unchecked_days offset
    discovery_limit: int = 10                # dates per wave (PrefetchLimit-ish)
    expansion_limit: int = 50                # combo rows per wave (PrefetchLimit)
    active_rule_names: list[str] | None = None
    seed: int = 42
    # logical seen shards (state size, one checkpoint file each); the
    # seen ACTOR count follows the cluster — one per node, see state/seen.py
    num_seen_shards: int = 4
    seen_bits_per_shard: int = 1 << 22
    seen_exact: bool = True
    min_interval: float = 3.0
    simulated_politeness: bool = True
    # the most block tasks that run at once; each task probes and dedups
    # (streamed), fetches, extracts and writes one block. A streamed
    # partition splits into at least one block per slot
    fetch_concurrency: int = 4
    fetch_batch_size: int = 256  # wave mode block rows; streamed blocks are days
    # seen checkpoint cadence, in waves/partitions; run_streamed() also
    # runs each such segment of partitions as one Dataset
    checkpoint_every: int = 1
    max_waves: int | None = None
    n_politeness_shards: int = 1  # coordinators sharded by hash(host)
    page_scale: int = 1          # synthetic page size multiplier (bench)
    # 'mock' = synthetic web (default, the only live option in-sandbox);
    # 'real' = requests-backed RealHttpClient with the reference envelope
    transport: str = "mock"
    # run_streamed(): resumable output granularity — the date range splits
    # into this many pages/part=K directories, each committed atomically
    # when its last block reports (a crash re-does only those in flight)
    stream_partitions: int = 8

    @property
    def horizon(self) -> date:
        return self.today - timedelta(days=self.offset_days)


@dataclass
class CrawlState:
    """Small driver-side dimension state (the reference's session_days
    table is ~12k rows — SURVEY §2.7: tiny side, never shuffled)."""

    probed_done: set = field(default_factory=set)    # date -> reached 200/404
    confirmed: set = field(default_factory=set)      # probe == 200
    retry: dict = field(default_factory=dict)        # date -> attempts so far
    expanded: set = field(default_factory=set)       # combos generated
    wave: int = 0

    def to_json(self) -> dict:
        return {
            "probed_done": sorted(d.isoformat() for d in self.probed_done),
            "confirmed": sorted(d.isoformat() for d in self.confirmed),
            "retry": {d.isoformat(): n for d, n in self.retry.items()},
            "expanded": sorted(d.isoformat() for d in self.expanded),
            "wave": self.wave,
        }

    @classmethod
    def from_json(cls, j: dict) -> "CrawlState":
        p = lambda s: date.fromisoformat(s)
        return cls(
            probed_done={p(s) for s in j["probed_done"]},
            confirmed={p(s) for s in j["confirmed"]},
            retry={p(s): n for s, n in j["retry"].items()},
            expanded={p(s) for s in j["expanded"]},
            wave=j["wave"],
        )


def discovery_batch(cfg: CrawlConfig, st: CrawlState) -> list[date]:
    """F3 — ``get_unchecked_days`` semantics (sessionDay.py:53-122).

    (new dates DESC LIMIT limit-1)  UNION ALL  (retry dates LIMIT limit)
    → ORDER BY ASC LIMIT limit.
    """
    limit = cfg.discovery_limit
    known = st.probed_done | set(st.retry)
    new_dates: list[date] = []
    d = cfg.horizon
    while d >= cfg.start_date and len(new_dates) < limit - 1:
        if d not in known:
            new_dates.append(d)
        d -= timedelta(days=1)
    retry_dates = sorted(st.retry)[:limit]
    union = new_dates + retry_dates
    return sorted(union)[:limit]


# run_streamed() block target in ESTIMATED rows (days × (rules + probe)):
# 50 days × 23 rows, the block size the 9,860-day bench partition has
# always run with. Each block is one task (probe+dedup, fetch, extract,
# one file), so this trades per-task fixed cost (task launch, one seen-set
# and one politeness round trip, one file) against parallelism.
STREAM_BLOCK_ROWS = 1150
STREAM_MAX_BLOCKS = 512


def stream_block_plan(n_days: int, n_rules: int, fetch_concurrency: int) -> int:
    """Days per probe block for one streamed partition of ``n_days``
    dates: ceil(est_rows / STREAM_BLOCK_ROWS) blocks, at least one per
    fetch slot, at most STREAM_MAX_BLOCKS and never more than one per day."""
    est_rows = n_days * (n_rules + 1)
    n_blocks = -(-est_rows // STREAM_BLOCK_ROWS)
    n_blocks = min(max(n_blocks, fetch_concurrency), STREAM_MAX_BLOCKS, n_days)
    return max(1, -(-n_days // max(1, n_blocks)))


def candidate_combos(st: CrawlState, rules) -> list[tuple[date, str, str]]:
    """F2 candidates BEFORE the anti-join: confirmed dates not yet fully
    expanded × active rules, ORDER BY dates DESC (url.py:110-127).
    Returns (date, rulename, url) triples in reference order."""
    todo_dates = sorted(st.confirmed - st.expanded, reverse=True)
    out: list[tuple[date, str, str]] = []
    for d in todo_dates:
        for r in rules:
            out.append((d, r.name, r.url(d)))
    return out


class CrawlDriver:
    """Owns the wave loop + durable state. Ray must already be initialised."""

    def __init__(self, cfg: CrawlConfig, resume: bool = True):
        self.cfg = cfg
        self.rules = (
            [RULES_BY_NAME[n] for n in cfg.active_rule_names]
            if cfg.active_rule_names is not None
            else list(DOCUMENT_RULES)
        )
        self.coords = [
            PolitenessCoordinator.options(num_cpus=0).remote(
                min_interval=cfg.min_interval,
                simulated=cfg.simulated_politeness,
            )
            for _ in range(max(1, cfg.n_politeness_shards))
        ]
        self.coord = self.coords[0]  # single-host crawls route here
        self.seen = SeenSet(
            num_shards=cfg.num_seen_shards,
            m_bits_per_shard=cfg.seen_bits_per_shard,
            exact=cfg.seen_exact,
            # seen actors auto-restart and reload this checkpoint on
            # failure (bounded at-least-once — see state/seen.py)
            checkpoint_dir=os.path.join(cfg.output_dir, "seen"),
        )
        self.state = CrawlState()
        self.metrics: list[dict] = []
        os.makedirs(cfg.output_dir, exist_ok=True)
        self._fetch_kwargs = {
            "coordinator": self.coords,
            "seed": cfg.seed,
            "simulated": cfg.simulated_politeness,
            "page_scale": cfg.page_scale,
            "transport": cfg.transport,
        }
        self._probe_fetcher = Fetcher(**self._fetch_kwargs)
        if resume and os.path.exists(self._manifest_path()):
            self._resume()

    # ---------------------------------------------------------- manifest
    def _manifest_path(self) -> str:
        return os.path.join(self.cfg.output_dir, "manifest.json")

    def _write_manifest(self) -> None:
        doc = {
            "state": self.state.to_json(),
            "metrics": self.metrics,
            "seen_checkpoint": os.path.join(self.cfg.output_dir, "seen"),
        }
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, self._manifest_path())

    def _resume(self) -> None:
        with open(self._manifest_path()) as f:
            doc = json.load(f)
        self.state = CrawlState.from_json(doc["state"])
        self.metrics = doc.get("metrics", [])
        seen_dir = doc.get("seen_checkpoint")
        if seen_dir and os.path.exists(seen_dir):
            self.seen.restore(seen_dir)

    # ---------------------------------------------------------- one wave
    def _probe(self, dates: list[date]) -> pa.Table:
        """Session-day probes (W2), on the driver through the same
        Fetcher/politeness path as the fetch stage (the reference probes
        serially). A wave probes at most ``discovery_limit`` dates."""
        t = frontier_table(
            [SESSION_DAY_RULE.url(d) for d in dates],
            [SESSION_DAY_RULE.name] * len(dates),
            dates,
            self.state.wave,
            attempts=[self.state.retry.get(d, 0) for d in dates],
        )
        # only narrow columns survive the probe (a probe is a liveness
        # check — the body is never consumed)
        return self._probe_fetcher(t).select(
            ["url", "rulename", "date", "attempt", "wave", "status_code"]
        )

    def run_wave(self) -> dict | None:
        cfg, st = self.cfg, self.state
        dates = discovery_batch(cfg, st)
        combos_ready = bool(st.confirmed - st.expanded)
        if not dates and not combos_ready:
            return None

        n_confirmed_new = 0
        probe_rows = 0
        if dates:
            probed = self._probe(dates)
            probe_rows = probed.num_rows
            # probe urls enter the seen set under their rule (the checker
            # saves its urls too, sessiondaychecker.py:119-124); key is the
            # (rulename, url) pair like the urls-table UNIQUE constraint
            h1, h2 = hash_urls(
                [SESSION_DAY_RULE.name + "\x00" + u for u in probed.column("url").to_pylist()]
            )
            self.seen.check_and_add(h1, h2)
            for d, status in zip(
                probed.column("date").to_pylist(), probed.column("status_code").to_pylist()
            ):
                if status in OK_PROBE:
                    st.probed_done.add(d)
                    st.retry.pop(d, None)
                    if status == 200:
                        st.confirmed.add(d)
                        n_confirmed_new += 1
                else:
                    st.retry[d] = st.retry.get(d, 0) + 1
            self._write_wave_parquet(probed, kind="probes")

        frontier, fully_done_dates = self._expansion_frontier()
        n_pages = 0
        n_new_urls = frontier.num_rows
        if n_new_urls:
            n_pages = self._fetch_extract_write(frontier)
        st.expanded.update(fully_done_dates)

        st.wave += 1
        if st.wave % cfg.checkpoint_every == 0:
            self.seen.checkpoint(os.path.join(cfg.output_dir, "seen"))
        # per-wave seen-filter quality (VERDICT r4 #7): with bloom-only
        # shards a false positive silently DROPS a frontier url, so each
        # wave's manifest carries the current estimated FPR and the
        # expected-drop bound (candidates anti-joined this wave × FPR);
        # exact-verified shards can't drop, so both report 0.
        ss = self.seen.stats()
        exact = all(p.get("exact") for p in ss["shards"])
        est_fpr = 0.0 if exact else float(ss["est_fpr"])
        m = {
            "wave": st.wave - 1,
            "dates_probed": probe_rows,
            "confirmed_new": n_confirmed_new,
            "urls_new": n_new_urls,
            "pages": n_pages,
            "est_fpr": est_fpr,
            "fp_dropped_bound": round(
                est_fpr * getattr(self, "_last_frontier_checked", 0), 6
            ),
        }
        self.metrics.append(m)
        self._write_manifest()
        return m

    def _expansion_frontier(self) -> tuple[pa.Table, set]:
        """F2 with the anti-join BEFORE the LIMIT, like the SQL: candidate
        (date, rule, url) triples in dates-DESC order → seen-set `contains`
        filter (urls.id IS NULL analogue) → LIMIT expansion_limit rows →
        add survivors to the seen set (F1 upsert).

        Returns (frontier table, dates whose whole rule set is now
        generated). With bloom-only shards a false positive can drop a url
        (documented FPR); verification runs use exact shards."""
        cands = candidate_combos(self.state, self.rules)
        self._last_frontier_checked = len(cands)
        if not cands:
            return frontier_table([], [], [], self.state.wave), set()
        # dedup key is the (rulename, url) PAIR — the reference's UNIQUE
        # (rule_id, url) constraint (url.py:45): the same url string under
        # two rules (e.g. both named_voting rules) is two frontier entries.
        keys = [rn + "\x00" + u for _, rn, u in cands]
        h1, h2 = hash_urls(keys)
        already = self.seen.contains_mask(h1, h2)
        todo_idx = np.nonzero(~already)[0][: self.cfg.expansion_limit]
        sel = [cands[i] for i in todo_idx]
        if sel:
            sh1, sh2 = hash_urls([rn + "\x00" + u for _, rn, u in sel])
            self.seen.check_and_add(sh1, sh2)
        # a date is fully expanded when none of its candidate urls remain
        remaining_dates = {cands[i][0] for i in np.nonzero(~already)[0][self.cfg.expansion_limit:]}
        fully_done = {d for d, _, _ in cands} - remaining_dates
        dates, rulenames, urls = zip(*sel) if sel else ((), (), ())
        return frontier_table(list(urls), list(rulenames), list(dates), self.state.wave), fully_done

    def _fetch_extract_write(self, frontier: pa.Table) -> int:
        """The wave's frontier through the partition core as one partition
        of ``fetch_batch_size``-row blocks; returns its pages."""
        cfg = self.cfg
        path = os.path.join(cfg.output_dir, "pages", f"wave={self.state.wave}")
        lineages = []
        run_segment(
            {self.state.wave: Partition(path, slices(frontier, cfg.fetch_batch_size))},
            self._fetch_kwargs, lambda p, lineage: lineages.append(lineage),
            concurrency=cfg.fetch_concurrency,
        )
        return lineages[0]["pages"]

    def _write_wave_parquet(self, table: pa.Table, kind: str) -> None:
        import pyarrow.parquet as pq

        d = os.path.join(self.cfg.output_dir, kind)
        os.makedirs(d, exist_ok=True)
        pq.write_table(table, os.path.join(d, f"wave_{self.state.wave:05d}.parquet"))

    # ------------------------------------------------ streamed (one pipe)
    def _streamed_mark_done(self, p: int, lineage: dict) -> None:
        self._streamed_manifest.mark_done(p, lineage)

    @staticmethod
    def _streamed_confirmed_days(probe_dir: str, wave: int | None = None) -> int:
        """Distinct dates whose session-day probe returned 200, read from
        the per-block probe log ``probes/streamed_*.parquet``; ``wave``
        limits the count to one stream partition."""
        files = glob.glob(os.path.join(probe_dir, "streamed_*.parquet"))
        if not files:
            return 0
        flt = pc.field("status_code") == 200
        if wave is not None:
            flt &= pc.field("wave") == wave
        t = pads.dataset(files).to_table(columns=["date"], filter=flt)
        return len(pc.unique(t.column("date")))

    def _make_probe_expand(self, wave: int):
        """The streamed probe+dedup stage for stream partition ``wave``:
        probe each date robots.txt allows (inline retry until {200,404}),
        unfold the active-rule frontier rows of the 200 dates and drop
        those the seen set already holds. Each block's probe rows are
        side-written to ``probes/``. The returned callable closes over
        plain values and actor handles only, never ``self``."""
        cfg = self.cfg
        coords, seed, simulated = self.coords, cfg.seed, cfg.simulated_politeness
        scale, transport = cfg.page_scale, cfg.transport
        rules, seen = self.rules, self.seen
        probe_dir = os.path.join(cfg.output_dir, "probes")

        def probe_expand(batch: pa.Table) -> pa.Table:
            import zlib as _z

            import pyarrow.parquet as pq

            gate = Fetcher(
                coords, seed=seed, simulated=simulated, page_scale=scale, transport=transport
            )
            http = gate.http
            p_dates, p_urls, p_attempts, p_status, p_redir = [], [], [], [], []
            d_dates, d_rules, d_urls = [], [], []
            days_ = batch.column("date").to_pylist()
            host = "europarl.europa.eu"
            coord = gate._coord(host)
            n_fetches = 0

            # robots.txt gates the probes as Fetcher gates wave mode's: a
            # disallowed day is logged once as ROBOTS_BLOCKED, never fetched
            urls = [SESSION_DAY_RULE.url(day) for day in days_]
            allowed = gate._robots_mask(host, urls)
            for day, url, ok in zip(days_, urls, allowed):
                attempt, status, redir = 0, ROBOTS_BLOCKED, url
                while ok:  # until {200, 404} or the retry cap
                    # real politeness blocks for a token before EVERY
                    # attempt; simulated mode leases once after the loop
                    if not simulated:
                        gate._lease_all(host, 1)
                    n_fetches += 1
                    status, _body, redir = http.fetch(url, attempt, SESSION_DAY_RULE.name)
                    if status in OK_PROBE or attempt > 8:
                        break
                    attempt += 1
                p_dates.append(day)
                p_urls.append(url)
                p_attempts.append(attempt)
                p_status.append(status)
                p_redir.append(redir)
                if status == 200:
                    for r in rules:
                        d_dates.append(day)
                        d_rules.append(r.name)
                        d_urls.append(r.url(day))
            if simulated and n_fetches:
                gate._lease_all(host, n_fetches)
            fetched = [s for s, ok in zip(p_status, allowed) if ok]
            if coord is not None and fetched:
                ray.get(coord.report.remote(host, fetched))

            # ONE seen-set call per block: probe keys first, then the
            # document keys, each under its (rulename, url) pair like the
            # urls-table UNIQUE constraint. The two key sets are disjoint
            # by rulename prefix, so exact/cuckoo shards decide exactly as
            # two calls would; a bloom shard tests the whole batch before
            # inserting it, so merging can only remove a probe→document
            # false positive, never add one.
            keys = [SESSION_DAY_RULE.name + "\x00" + u for u in p_urls]
            keys += [rn + "\x00" + u for rn, u in zip(d_rules, d_urls)]
            h1, h2 = hash_urls(keys)
            keep = ~seen.check_and_add(h1, h2)[len(p_urls):]
            if p_urls:
                # side-write the probe log per block (deterministic name →
                # idempotent overwrite); probe rows NEVER enter the pages
                # output — wave mode keeps them in probes/ too
                n = len(p_urls)
                probes = pa.table(
                    {
                        "url": pa.array(p_urls, pa.string()),
                        "rulename": pa.array([SESSION_DAY_RULE.name] * n, pa.string()),
                        "date": pa.array(p_dates, pa.date32()),
                        "attempt": pa.array(p_attempts, pa.int32()),
                        "wave": pa.array([wave] * n, pa.int32()),
                        "status_code": pa.array(p_status, pa.int32()),
                        "html": pa.nulls(n, pa.binary()),
                        "redirected_url": pa.array(p_redir, pa.string()),
                    }
                )
                os.makedirs(probe_dir, exist_ok=True)
                key = _z.crc32(",".join(d.isoformat() for d in days_).encode())
                path = os.path.join(probe_dir, f"streamed_{key:08x}.parquet")
                # the driver reads every streamed_*.parquet whenever it
                # commits a partition: a file appears only once complete
                pq.write_table(probes, path + ".tmp")
                os.replace(path + ".tmp", path)
            return frontier_table(d_urls, d_rules, d_dates, wave).filter(
                pa.array(keep, pa.bool_())
            )

        return probe_expand

    def run_streamed(self, max_partitions: int | None = None) -> dict:
        """Streaming pipeline over the date range, PARTITIONED for resume:

            dates[p] → probe(+inline retry)+expand+seen-dedup → fetch
                     → extract → pages/part=p Parquet

        The date range splits into ``cfg.stream_partitions`` contiguous
        newest-first chunks, each cut into probe blocks of
        ``stream_block_plan`` days. The partition core
        (``partitions.run_partitions``) runs every ``checkpoint_every``
        partitions as one Dataset with one task per block (probe+dedup,
        fetch, extract and the block's own Parquet file) and commits each
        partition when its last block reports: a restarted run skips
        finished partitions and re-derives only those in flight. ``run()``
        keeps the wave-equivalence contract; this mode trades wave
        ordering for throughput while producing the SAME final page set.
        ``max_partitions`` bounds one invocation (test/chaos hook)."""
        cfg = self.cfg
        if self.state.wave > 0:
            raise RuntimeError(
                "run_streamed() requires a fresh output dir (this one has "
                "wave-mode progress); resume interrupted wave crawls with "
                "run(), or point --out at a new directory"
            )
        days = []
        d = cfg.horizon
        while d >= cfg.start_date:
            days.append(d)
            d -= timedelta(days=1)

        n_parts = max(1, min(cfg.stream_partitions, len(days))) if days else 0
        self._streamed_manifest = PartitionManifest(
            os.path.join(cfg.output_dir, "streamed_manifest.json"),
            {
                "n_partitions": n_parts,
                "start": cfg.start_date.isoformat(),
                "horizon": cfg.horizon.isoformat(),
            },
        )
        probe_dir = os.path.join(cfg.output_dir, "probes")
        pages_root = os.path.join(cfg.output_dir, "pages")
        # a zero-day window still commits an (empty) pages dir
        os.makedirs(pages_root, exist_ok=True)
        # the last chunk absorbs the remainder
        chunk = len(days) // n_parts if n_parts else 0

        def part_days(p: int) -> list[date]:
            lo = p * chunk
            return days[lo:len(days) if p == n_parts - 1 else lo + chunk]

        def plan(p: int) -> Partition:
            # one block per STREAM_BLOCK_ROWS estimated rows; each block is
            # ONE task: one seen-set call, one politeness lease + report,
            # one fetch, one file. Per-task fixed cost scales with rows,
            # not with days or CPUs, and the files per partition are what
            # one fetch task per block wrote when fetch was its own stage.
            dates = part_days(p)
            step = stream_block_plan(len(dates), len(self.rules), cfg.fetch_concurrency)
            return Partition(
                os.path.join(pages_root, f"part={p}"),
                slices(pa.table({"date": pa.array(dates, pa.date32())}), step),
                self._make_probe_expand(p),
                {"dates": [dates[-1].isoformat(), dates[0].isoformat()]},
            )

        def mark_done(p: int, lineage: dict) -> None:
            self.metrics.append(
                {
                    "wave": p,
                    "dates_probed": len(part_days(p)),
                    "confirmed_new": self._streamed_confirmed_days(probe_dir, wave=p),
                    "urls_new": lineage["pages"],
                    "pages": lineage["pages"],
                }
            )
            self._streamed_mark_done(p, lineage)

        def partition_keys(p: int) -> list[str]:
            # the seen keys partition p added: its probe urls (every block
            # of a done partition wrote its probe log) and its pages
            probes = pads.dataset(glob.glob(os.path.join(probe_dir, "streamed_*.parquet")))
            urls = probes.to_table(columns=["url"], filter=pc.field("wave") == p)["url"]
            pages = read_columns(os.path.join(pages_root, f"part={p}"), ["rulename", "url"])
            return [SESSION_DAY_RULE.name + "\x00" + u for u in urls.to_pylist()] + [
                rn + "\x00" + u
                for rn, u in zip(pages["rulename"].to_pylist(), pages["url"].to_pylist())
            ]

        # robots.txt of every document host is loaded once, here: two
        # fetch tasks that start side by side would both find the host
        # unknown and both fetch and load it
        for host in sorted({host_of(r.url(cfg.horizon)) for r in self.rules}):
            self._probe_fetcher.load_robots(host)
        committed, n_skipped = run_partitions(
            self._streamed_manifest, n_parts, plan, mark_done,
            self.seen, os.path.join(cfg.output_dir, "seen"), self._fetch_kwargs, partition_keys,
            checkpoint_every=cfg.checkpoint_every, max_partitions=max_partitions,
            concurrency=cfg.fetch_concurrency,
        )
        self._write_manifest()
        n_pages = sum(c["pages"] for c in committed)
        return {
            "waves": max(1, len(committed)),
            "pages": n_pages,
            "urls_new": n_pages,
            "partitions_done": len(committed),
            "partitions_skipped_on_resume": n_skipped,
            # probe confirmations never round-trip to driver state inside
            # the pipeline; they are counted from the probe log afterwards,
            # which also covers partitions an earlier invocation finished
            "confirmed_days": self._streamed_confirmed_days(probe_dir),
            "seen_size": self.seen.stats()["n_added"],
        }

    def shutdown(self) -> None:
        """Kill this CrawlDriver's long-lived actors (coordinators + seen
        actors). Call when a longer-lived program is done with it, so
        repeated pipeline invocations don't accumulate idle actors."""
        for a in self.coords:
            ray.kill(a, no_restart=True)
        self.seen.shutdown()

    # ---------------------------------------------------------- run loop
    def run(self, max_waves: int | None = None) -> dict:
        limit = max_waves if max_waves is not None else self.cfg.max_waves
        n = 0
        while limit is None or n < limit:
            m = self.run_wave()
            if m is None:
                break
            n += 1
        stats = self.seen.stats()
        return {
            "waves": len(self.metrics),
            "pages": sum(m["pages"] for m in self.metrics),
            "urls_new": sum(m["urls_new"] for m in self.metrics),
            "confirmed_days": len(self.state.confirmed),
            "seen_size": stats["n_added"],
        }
