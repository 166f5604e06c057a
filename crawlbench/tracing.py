"""Per-layer spans and counters, recorded from outside the engine.

The engine is not edited: ``install()`` wraps the public entry points of
each layer. A wrapper records one span per call (calls, busy seconds, and
self seconds: busy time minus the time its nested child spans on the same
thread cover) plus counts taken at the same boundary, such as rows and
bytes. Spans are aggregated in memory per process, not kept one by one.

Where the wrappers must be installed follows from how the engine ships code:
``europarl_crawler_ray`` registers all its modules for pickling by value, so
the functions, classes and actor classes a pipeline sends to Ray workers are
copies of the driver's objects. The driver therefore wraps them before the
first call (``install(driver=True)``), and the copies carry the wrappers
along. Code that a worker imports itself (such as the mock web inside the
crawl's probe stage) is wrapped by the ``worker_process_setup_hook`` the
benchmark passes to ``ray.init``, which runs ``install()`` in every worker.
A shipped wrapper holds only the original function and references to this
module's functions, which pickle by reference, so it records into the state
of the process it runs in.

Wrappers stay dormant (one flag test) until the driver calls ``activate``.
A daemon thread in every worker then writes the process's running totals to
``<trace dir>/<pid>.json`` whenever they change; the driver sums all files
after each call and subtracts the previous sum, so an actor killed at the
end of a call still reports what it did.
"""

from __future__ import annotations

import glob
import importlib
import importlib.abc
import json
import os
import re
import sys
import threading
import time
import weakref
from collections import defaultdict

TRACE_DIR_VAR = "CRAWLBENCH_TRACE_DIR"
_FLUSH_S = 0.05

_totals: dict[str, float] = defaultdict(float)
_lock = threading.Lock()
_tls = threading.local()
_state = {"active": False, "dirty": False, "installed": False}


def add(key: str, value: float) -> None:
    with _lock:
        _totals[key] += value
        _state["dirty"] = True


def begin() -> float | None:
    """Open a span; None while tracing is off."""
    if not _state["active"]:
        return None
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(0.0)
    return time.perf_counter()


def end(layer: str, t0: float) -> None:
    dt = time.perf_counter() - t0
    stack = _tls.stack
    child = stack.pop()
    if stack:
        stack[-1] += dt
    with _lock:
        _totals[layer + ".calls"] += 1
        _totals[layer + ".busy_s"] += dt
        _totals[layer + ".self_s"] += dt - child
        _state["dirty"] = True


def wrapped(orig, layer: str, count=None):
    """A span-recording wrapper around ``orig``."""
    if getattr(orig, "_crawlbench_layer", None):
        return orig

    def wrapper(*args, **kwargs):
        t0 = begin()
        if t0 is None:
            return orig(*args, **kwargs)
        try:
            result = orig(*args, **kwargs)
        finally:
            end(layer, t0)
        if count is not None:
            count(result, *args, **kwargs)
        return result

    wrapper._crawlbench_layer = layer
    wrapper.__wrapped__ = orig
    wrapper.__name__ = orig.__name__  # Ray Data names operators after it
    return wrapper


def _wrap(owner, attr: str, layer: str, count=None) -> None:
    setattr(owner, attr, wrapped(getattr(owner, attr), layer, count))


# ------------------------------------------------------------ counters
# module-level, so shipped wrappers reference them by name


def count_body(result, *args, **kwargs) -> None:
    if result[1]:
        add("mockweb.bytes", len(result[1]))


def count_fetch_rows(result, self, batch, *args, **kwargs) -> None:
    add("fetch.rows", batch.num_rows)


def count_hash_rows(result, self, h1, *args, **kwargs) -> None:
    add("seen_call.rows", len(h1))


def count_extract(result, batch, *args, **kwargs) -> None:
    import pyarrow.compute as pc

    add("extract.rows", batch.num_rows)
    add("extract.bytes_in", pc.sum(pc.binary_length(batch.column("html"))).as_py() or 0)


def _wrap_actor_rpcs() -> None:
    """Count actor method invocations by (actor class, method) at the caller."""
    from ray.actor import ActorMethod

    orig = ActorMethod.remote
    if getattr(orig, "_crawlbench_layer", None):
        return

    def remote(self, *args, **kwargs):
        if _state["active"]:
            handle = self._actor
            if isinstance(handle, weakref.ref):
                handle = handle()
            cls = handle._ray_actor_creation_function_descriptor.class_name
            add(f"rpc.{cls.rsplit('.', 1)[-1]}.{self._method_name}", 1)
        return orig(self, *args, **kwargs)

    remote._crawlbench_layer = "rpc"
    ActorMethod.remote = remote


def _wrap_write(module) -> None:
    """Count committed partitions, rows and bytes at ``atomic_write_parquet``
    and read the executed Dataset's per-operator stats there. No span: the
    call runs the whole lazy partition pipeline, not just the write."""
    orig = module.atomic_write_parquet
    if getattr(orig, "_crawlbench_layer", None):
        return

    def atomic_write_parquet(ds, final_dir, *args, **kwargs):
        rows = orig(ds, final_dir, *args, **kwargs)
        if _state["active"]:
            add("write.calls", 1)
            add("write.rows", rows)
            add("write.bytes", _dir_bytes(final_dir))
            for k, v in dataset_stats(ds).items():
                add(k, v)
        return rows

    atomic_write_parquet._crawlbench_layer = "write"
    module.atomic_write_parquet = atomic_write_parquet


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


# ------------------------------------------------------------ install


def _wrap_synth(m) -> None:
    _wrap(m.MockHttp, "fetch", "mockweb", count_body)


def _wrap_fetch(m) -> None:
    _wrap(m.Fetcher, "__call__", "fetch", count_fetch_rows)
    _wrap(m.Fetcher, "_lease_all", "pol_call")
    _wrap(m.Fetcher, "_robots_mask", "pol_call")


def _wrap_seen(m) -> None:
    for name in ("check_and_add", "contains_mask"):
        _wrap(m.SeenSet, name, "seen_call", count_hash_rows)
    _wrap(m.SeenSet, "checkpoint", "checkpoint")


def _wrap_extract(m) -> None:
    _wrap(m, "extract_batch", "extract", count_extract)
    _wrap(m, "html_to_text", "html")
    _wrap(m, "pdf_to_text", "pdf")


# entry points that run in the process that calls them, by module
LAYER_MODULES = {
    "europarl_crawler_ray.sources.synth": _wrap_synth,
    "europarl_crawler_ray.stages.fetch": _wrap_fetch,
    "europarl_crawler_ray.state.seen": _wrap_seen,
    "europarl_crawler_ray.stages.extract": _wrap_extract,
}


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wraps a layer module right after the engine imports it in a worker.
    Importing the engine eagerly from the hook would instead make every
    worker, actors included, pay for the whole package at start-up."""

    def find_spec(self, name, path, target=None):
        if name not in LAYER_MODULES:
            return None
        for finder in sys.meta_path:
            if finder is self:
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            LAYER_MODULES[name](module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def install(driver: bool = False) -> None:
    """Wrap the layers in this process; idempotent.

    Workers (the setup hook) wrap each layer module when it is imported and
    start the flusher thread. The driver wraps the layer modules now, and
    also what it ships: the actor classes (exported once, on their first
    creation, so this must run before it), the pipelines' module-level
    references to ``extract_batch``, and the partition write.
    """
    if _state["installed"]:
        return
    _state["installed"] = True
    _wrap_actor_rpcs()
    if not driver:
        sys.meta_path.insert(0, _WrapOnImport())
        trace_dir = os.environ.get(TRACE_DIR_VAR)
        if trace_dir:
            threading.Thread(target=_flush_loop, args=(trace_dir,), daemon=True).start()
        return
    for name, wrap_module in LAYER_MODULES.items():
        wrap_module(importlib.import_module(name))
    from europarl_crawler_ray import _util
    from europarl_crawler_ray.pipelines import cc_ingest, crawl
    from europarl_crawler_ray.stages import extract
    from europarl_crawler_ray.state import politeness, seen

    actor_methods = (
        (politeness.PolitenessCoordinator, "pol_actor",
         ("lease", "report", "allowed", "robots_known", "load_robots")),
        (seen.SeenShard, "seen_shard", ("check_and_add", "contains")),
    )
    for actor, layer, methods in actor_methods:
        cls = actor.__ray_metadata__.modified_class
        for name in methods:
            _wrap(cls, name, layer)
    for module in (crawl, cc_ingest):
        module.extract_batch = extract.extract_batch
    for module in (_util, cc_ingest):
        _wrap_write(module)


def _flush_loop(trace_dir: str) -> None:
    path = os.path.join(trace_dir, f"{os.getpid()}.json")
    on = os.path.join(trace_dir, "on")
    while True:
        time.sleep(_FLUSH_S)
        _state["active"] = os.path.exists(on)
        if not _state["dirty"]:
            continue
        with _lock:
            snap = dict(_totals)
            _state["dirty"] = False
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(snap, f)
        os.replace(tmp, path)


# ------------------------------------------------------------ driver side


def activate(trace_dir: str) -> None:
    """Driver: switch tracing on here and in every worker."""
    open(os.path.join(trace_dir, "on"), "w").close()
    _state["active"] = True
    time.sleep(4 * _FLUSH_S)  # let running workers see the switch


def totals(trace_dir: str) -> dict[str, float]:
    """Sum of every worker's flushed totals plus the driver's own."""
    out: dict[str, float] = defaultdict(float)
    for path in glob.glob(os.path.join(trace_dir, "*.json")):
        try:
            with open(path) as f:
                snap = json.load(f)
        except (OSError, ValueError):
            continue  # replaced between glob and open; read next time
        for k, v in snap.items():
            out[k] += v
    with _lock:
        for k, v in _totals.items():
            out[k] += v
    return out


def settled_totals(trace_dir: str, timeout: float = 3.0) -> dict[str, float]:
    """Totals once two reads a few flush periods apart agree."""
    prev = totals(trace_dir)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        time.sleep(3 * _FLUSH_S)
        cur = totals(trace_dir)
        if cur == prev:
            return cur
        prev = cur
    return prev


def delta(after: dict, before: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


# ------------------------------------------------------------ Ray Data

# Fused operator chains are reported under their first operator, with the
# fields that mean something for them. Today's chains:
# ReadParquet->MapBatches(extract_batch)->Write (replay),
# MapBatches(probe_expand), MapBatches(dedup_filter) or
# MapBatches(dedup)->MapBatches(to_frontier), and
# MapBatches(fetch_fn)->MapBatches(extract_batch or <lambda>)->Write. A chain
# that ends in the write outputs Ray's write results, not pages, so only its
# time and task count are kept.
DATASET_SLUGS = (
    ("read", ("Read",), ("wall_s", "tasks")),
    ("probe", ("probe_expand",), ("wall_s", "tasks", "rows_out", "bytes_out")),
    ("dedup", ("dedup",), ("wall_s", "tasks", "rows_out", "bytes_out")),
    ("fetch", ("fetch",), ("wall_s", "tasks")),
)
DATASET_METRICS = tuple(
    f"dataset.{slug}.{field}" for slug, _, fields in DATASET_SLUGS for field in fields
)


def _slug(operator_name: str) -> tuple[str | None, tuple]:
    first = operator_name.split("->", 1)[0]
    for slug, keys, fields in DATASET_SLUGS:
        if any(k in first for k in keys):
            return slug, fields
    return None, ()


def dataset_stats(ds) -> dict[str, float]:
    """Per-operator task wall seconds, task count, and output rows and bytes
    of an executed Dataset; ``read.blocks`` is the read's task count, its
    available parallelism."""
    out: dict[str, float] = defaultdict(float)

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            slug, fields = _slug(op.operator_name)
            if slug is None:
                continue
            m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str or "")
            values = {
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "tasks": int(m.group(1)) if m else 0,
                "rows_out": (op.output_num_rows or {}).get("sum", 0),
                "bytes_out": (op.output_size_bytes or {}).get("sum", 0),
            }
            for field in fields:
                out[f"dataset.{slug}.{field}"] += values[field]
            if slug == "read":
                out["read.blocks"] += values["tasks"]

    # write_parquet executes a copy of the plan and keeps it as _write_ds
    walk((getattr(ds, "_write_ds", None) or ds)._get_stats_summary())
    return out
