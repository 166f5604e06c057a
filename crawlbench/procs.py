"""The benchmark's process tree, read from ``/proc``.

Every process a run starts (the driver's Ray head: raylet, GCS, agents and
all workers) inherits the environment variable ``MARK_VAR`` set to the run's
work directory. That marker, not the parent pid, identifies the tree: Ray
processes can be re-parented when their parent exits first, but they keep
their environment. It also lets a run find and stop a stale tree left by an
earlier run in the same checkout, without touching any other Ray instance.
"""

from __future__ import annotations

import os
import signal
import threading
import time

MARK_VAR = "CRAWLBENCH_RUN"
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _read(path: str, mode: str = "r"):
    try:
        with open(path, mode) as f:
            return f.read()
    except OSError:
        return None


def marked_pids(mark: str) -> list[int]:
    """Pids (other than this process) whose environment carries ``mark``."""
    needle = f"\0{MARK_VAR}={mark}\0".encode()
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        env = _read(f"/proc/{name}/environ", "rb")
        if env and needle in b"\0" + env + b"\0":
            out.append(int(name))
    return out


def title(pid: int) -> str:
    """The process title (Ray workers set it to ``ray::<Actor or task>``)."""
    raw = _read(f"/proc/{pid}/cmdline", "rb")
    return raw.split(b"\0", 1)[0].decode("utf-8", "replace") if raw else ""


def pss_bytes(pid: int) -> int:
    """Proportional set size: shared pages (object store, libraries) are
    split between the processes that map them, so the tree's sum is not
    inflated by sharing. Falls back to RSS where smaps_rollup is missing."""
    rollup = _read(f"/proc/{pid}/smaps_rollup")
    if rollup:
        for line in rollup.splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    statm = _read(f"/proc/{pid}/statm")
    return int(statm.split()[1]) * _PAGE if statm else 0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the machine so far: on a shared host the
    steal share of an interval says how much CPU other tenants took."""
    fields = [int(x) for x in _read("/proc/stat").split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


def is_worker(pid: int) -> bool:
    return title(pid).startswith("ray::")


def kill_marked(mark: str, timeout: float = 10.0) -> None:
    """SIGTERM then SIGKILL every marked process; wait until all are gone.
    Raises if any survives ``timeout``."""
    pids = marked_pids(mark)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout / 2
        while time.monotonic() < deadline:
            _reap_children()
            if not any(_alive(p) for p in pids):
                return
            time.sleep(0.05)
    left = [p for p in pids if _alive(p)]
    if left:
        raise RuntimeError(f"processes of this run survived SIGKILL: {left}")


def _alive(pid: int) -> bool:
    stat = _read(f"/proc/{pid}/stat")
    # a zombie has exited; only its parent's wait() remains
    return bool(stat) and stat.rsplit(")", 1)[1].split()[0] != "Z"


def _reap_children() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


class TreeSampler:
    """Background sampler of the marked tree plus the driver itself.

    Keeps the peak of the tree's summed PSS and the peak number of Ray
    worker processes since the last ``reset()``.
    """

    def __init__(self, mark: str, interval: float = 0.5):
        self.mark = mark
        self.interval = interval
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.peak_bytes = 0
        self.peak_workers = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "TreeSampler":
        self._thread.start()
        return self

    def sample(self) -> None:
        pids = marked_pids(self.mark)
        total = pss_bytes(os.getpid()) + sum(pss_bytes(p) for p in pids)
        workers = sum(1 for p in pids if is_worker(p))
        with self._lock:
            self.peak_bytes = max(self.peak_bytes, total)
            self.peak_workers = max(self.peak_workers, workers)

    def reset(self) -> None:
        with self._lock:
            self.peak_bytes = 0
            self.peak_workers = 0
        self.sample()

    def peaks(self) -> tuple[int, int]:
        self.sample()
        with self._lock:
            return self.peak_bytes, self.peak_workers

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
