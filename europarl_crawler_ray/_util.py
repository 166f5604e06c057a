"""Small shared utilities."""

from __future__ import annotations

import os
import shutil


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def atomic_write_parquet(ds, final_dir: str, keep_existing_if_empty: bool = False) -> int:
    """Write a Dataset to ``final_dir`` atomically (tmp dir + rename).

    Ray's ``write_parquet`` APPENDS files into an existing directory, so a
    re-run of an uncommitted partition would duplicate rows without this.
    Returns the row count written. With ``keep_existing_if_empty``, an
    empty result does NOT replace an existing non-empty directory (guards
    a resume race where a restored dedup state filters out every row of a
    partition that is already durable on disk).

    The write runs with Ray Data's per-operator resource reservation off.
    Its default (ratio 0.5) holds CPU back for every upstream stage, so at
    2 CPUs a 1-CPU fetch stage got a 1.25-CPU budget and ran one task at a
    time while the other CPU idled. Without it, each stage runs as many
    tasks as free CPUs allow; callers cap cheap stages with
    ``concurrency`` or whole CPUs so they cannot fan out instead. The flag
    is set on ``ds.context``, the private ``DataContext`` copy the
    pipeline's first Dataset took; ``DataContext.get_current()`` is not
    touched.
    """
    tmp = final_dir + "__tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.context.op_resource_reservation_enabled = False
    ds.write_parquet(tmp)
    # Ray's write_parquet creates NO directory for a zero-row dataset —
    # an empty crawl window (e.g. horizon < start) must commit an empty
    # dir, not crash on the missing tmp path
    os.makedirs(tmp, exist_ok=True)
    import pyarrow.dataset as pads

    rows = pads.dataset(tmp).count_rows()
    if keep_existing_if_empty and rows == 0 and os.path.isdir(final_dir):
        existing = pads.dataset(final_dir).count_rows()
        if existing > 0:
            shutil.rmtree(tmp, ignore_errors=True)
            return existing
    os.makedirs(os.path.dirname(final_dir) or ".", exist_ok=True)
    shutil.rmtree(final_dir, ignore_errors=True)
    os.replace(tmp, final_dir)
    return rows
