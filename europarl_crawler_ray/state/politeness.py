"""Per-host politeness: adaptive token buckets + robots gating.

The reference throttles with ONE global token bucket whose refill interval
doubles on bad statuses and halves on good ones
(``/root/reference/europarl/workers/tokenbucket.py:48-100``):

- throttle (×2, cap ``MIN_INTERVAL × 65536``, bucket drained) when any
  status in {429, 460} or any in [500, 599);
- unthrottle (÷2, floor ``MIN_INTERVAL``) when any status in {200, 404};
- checks happen every ``INTERVAL × THROTTLING_FACTOR`` seconds.

The rebuild keeps those exact adaptive semantics but holds one bucket PER
HOST inside a coordinator actor, with the sum of per-host rates capped by a
global budget (SURVEY §7.3 item 3). Fetcher actors draw token LEASES in
batches (one actor call per host per batch), never per-url.

Status classification precedence matters and is kept verbatim: rate-limit
statuses win over server errors, which win over success (tokenbucket.py
returns after the first matching class).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import ray

from ..functions.robots import parse_robots

THROTTLE_CAP_FACTOR = 65536  # reference tokenbucket.py:58
RATE_LIMIT_STATUSES = frozenset({429, 460})
# reference uses list(range(500, 599)) — 599 itself EXCLUDED; kept verbatim
SERVER_ERROR_STATUSES = frozenset(range(500, 599))
OK_STATUSES = frozenset({200, 404})


def classify_statuses(status_codes) -> str:
    """'throttle' | 'unthrottle' | 'none' with reference precedence
    (tokenbucket.py:80-100)."""
    codes = [int(s) for s in status_codes]
    if any(c in RATE_LIMIT_STATUSES for c in codes):
        return "throttle"
    if any(c in SERVER_ERROR_STATUSES for c in codes):
        return "throttle"
    if any(c in OK_STATUSES for c in codes):
        return "unthrottle"
    return "none"


@dataclass
class TokenBucket:
    """One host's adaptive bucket. Time is injected for testability and for
    simulated (no-sleep) crawls."""

    min_interval: float = 3.0           # reference settings.ini MinIntervalSecs
    capacity: int = 100                 # reference token_bucket_q maxsize
    interval: float = field(default=0.0)
    tokens: float = field(default=0.0)
    last_refill: float | None = field(default=None)

    def __post_init__(self):
        if self.interval == 0.0:
            self.interval = self.min_interval

    def refill(self, now: float) -> None:
        if self.last_refill is None:
            self.last_refill = now
            return
        dt = now - self.last_refill
        if dt > 0:
            self.tokens = min(self.capacity, self.tokens + dt / self.interval)
            self.last_refill = now

    def acquire(self, n: int, now: float) -> int:
        """Grant up to n tokens available now; returns granted count."""
        self.refill(now)
        granted = min(n, int(self.tokens))
        self.tokens -= granted
        return granted

    def throttle(self) -> None:
        """×2 + drain (reference tokenbucket.py:48-64)."""
        self.tokens = 0.0
        if self.interval < self.min_interval * THROTTLE_CAP_FACTOR:
            self.interval *= 2

    def unthrottle(self) -> None:
        """÷2, floor min (reference tokenbucket.py:66-78)."""
        if self.interval > self.min_interval:
            self.interval /= 2

    def apply_statuses(self, status_codes) -> str:
        action = classify_statuses(status_codes)
        if action == "throttle":
            self.throttle()
        elif action == "unthrottle":
            self.unthrottle()
        return action


class RobotsGate:
    """robots.txt allow/deny per host (north-rule addition; the reference
    has no robots handling). Parsing/matching delegates to the full
    RFC 9309 implementation in ``functions/robots.py`` — longest-match
    precedence with Allow winning ties, ``*``/``$`` wildcards, AND group
    selection by user-agent specificity (an earlier in-class parser only
    honored the ``*`` group and was superseded; one parser, one
    behavior, shared with q_robots_filter's oracle-gated path)."""

    def __init__(self, user_agent: str = "europarl-bot/1.0"):
        self._ua = user_agent
        # host -> matcher (None = no robots.txt -> allow all)
        self._matchers: dict[str, object | None] = {}

    def load(self, host: str, robots_txt: str | None) -> None:
        self._matchers[host] = (
            parse_robots(robots_txt, self._ua) if robots_txt else None
        )

    def known(self, host: str) -> bool:
        return host in self._matchers

    def allowed(self, host: str, path: str) -> bool:
        m = self._matchers.get(host)
        return True if m is None else m.allowed(path)


@ray.remote
class PolitenessCoordinator:
    """Cluster-wide politeness state: per-host buckets + robots cache +
    running status counters (the shuffle-free A1 status summary).

    Batch API: ``lease(host, n)`` grants tokens; ``report(host, statuses)``
    feeds the adaptive throttle; ``load_robots`` caches a parsed robots.txt.
    At multi-node scale this actor is sharded by ``hash(host) % n_coord``
    (each coordinator owns a disjoint host set), so there is no global
    bottleneck; a single instance suffices for single-node runs.
    """

    def __init__(
        self,
        min_interval: float = 3.0,
        capacity: int = 100,
        global_rate: float | None = None,
        simulated: bool = False,
        throttling_factor: float = 10.0,
    ):
        self.min_interval = min_interval
        self.capacity = capacity
        # max aggregate request rate across ALL hosts (tokens/s); a global
        # bucket enforces it on top of the per-host buckets
        self.global_rate = global_rate
        self.simulated = simulated      # simulated time: every lease granted,
                                        # throttle state still tracked
        # reference ThrottlingFactor (settings.ini:33): statuses accumulate
        # and throttling is (un)applied at most once per
        # interval × throttling_factor window (tokenbucket.py:102-122)
        self.throttling_factor = throttling_factor
        self.buckets: dict[str, TokenBucket] = {}
        self._pending: dict[str, list[int]] = {}
        self._next_check: dict[str, float] = {}
        self._global = (
            TokenBucket(min_interval=1.0 / global_rate, capacity=capacity)
            if global_rate
            else None
        )
        self.robots = RobotsGate()
        self.status_counts: dict[int, int] = {}
        self._sim_clock = 0.0

    def _bucket(self, host: str) -> TokenBucket:
        b = self.buckets.get(host)
        if b is None:
            b = TokenBucket(min_interval=self.min_interval, capacity=self.capacity)
            self.buckets[host] = b
        return b

    def _now(self) -> float:
        return self._sim_clock if self.simulated else time.monotonic()

    def advance_clock(self, seconds: float) -> float:
        self._sim_clock += seconds
        return self._sim_clock

    def lease(self, host: str, n: int) -> int:
        b = self._bucket(host)
        if self.simulated:
            # grant everything not throttled away: a fully-throttled host
            # (interval at cap) still trickles; model as rate-proportional
            grant = n if b.interval <= self.min_interval else max(1, int(n * self.min_interval / b.interval))
            return min(n, grant)
        grant = b.acquire(n, self._now())
        if self._global is not None and grant:
            # the sum of per-host grants may not exceed the global budget
            grant = self._global.acquire(grant, self._now())
        return grant

    def wait_time(self, host: str, n: int) -> float:
        """Seconds until n tokens would be available (for sleeping fetchers)."""
        b = self._bucket(host)
        b.refill(self._now())
        missing = max(0.0, n - b.tokens)
        return missing * b.interval

    def report(self, host: str, status_codes) -> str:
        """Record statuses; (un)throttle at most once per check window —
        the reference cadence (check_throttling, tokenbucket.py:102-122):
        statuses accumulate between checks and one decision is made per
        ``interval × throttling_factor`` seconds, so a burst of bad
        batches doubles the interval once per window, not once per batch."""
        for s in status_codes:
            s = int(s)
            self.status_counts[s] = self.status_counts.get(s, 0) + 1
        b = self._bucket(host)
        self._pending.setdefault(host, []).extend(int(s) for s in status_codes)
        now = self._now()
        nxt = self._next_check.get(host)
        if nxt is None:
            # first report opens the window (reference startup sets
            # last_check/next_check at worker start, tokenbucket.py:41-44)
            self._next_check[host] = now + b.interval * self.throttling_factor
            return "none"
        if now <= nxt:
            return "pending"
        action = b.apply_statuses(self._pending.pop(host, []))
        self._next_check[host] = now + b.interval * self.throttling_factor
        return action

    def load_robots(self, host: str, robots_txt: str | None) -> None:
        self.robots.load(host, robots_txt)

    def robots_known(self, host: str) -> bool:
        return self.robots.known(host)

    def allowed(self, host: str, paths: list[str]) -> list[bool]:
        return [self.robots.allowed(host, p) for p in paths]

    def status_summary(self) -> dict[int, int]:
        """Reference Request.get_status_code_summary (requests.py:103-129)
        without a shuffle: counters maintained at report time."""
        return dict(self.status_counts)

    def intervals(self) -> dict[str, float]:
        return {h: b.interval for h, b in self.buckets.items()}
