"""Small shared utilities."""

from __future__ import annotations

import os
import shutil

import ray.data


def read_table(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    """The ``{table}.parquet`` file of a scale-factor directory as a
    Dataset; every op table reads its inputs through this."""
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def table_rows(sf_dir: str, table: str) -> int:
    """Row count of ``{table}.parquet`` from its footer, without a read."""
    import pyarrow.parquet as _pq

    return _pq.ParquetFile(f"{sf_dir}/{table}.parquet").metadata.num_rows


def atomic_write_parquet(ds, final_dir: str) -> int:
    """Write a Dataset to ``final_dir`` atomically (tmp dir + rename).

    Ray's ``write_parquet`` APPENDS files into an existing directory, so a
    re-run of an uncommitted partition would duplicate rows without this.
    Returns the row count written.

    The write runs with Ray Data's per-operator resource reservation off.
    Its default (ratio 0.5) holds CPU back for every upstream stage, so at
    2 CPUs a 1-CPU stage behind a cheaper one got a 1.25-CPU budget and ran
    one task at a time while the other CPU idled. Without it, each stage runs as many
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
    # an empty input must commit an empty dir, not crash on the missing
    # tmp path
    os.makedirs(tmp, exist_ok=True)
    import pyarrow.dataset as pads

    rows = pads.dataset(tmp).count_rows()
    os.makedirs(os.path.dirname(final_dir) or ".", exist_ok=True)
    shutil.rmtree(final_dir, ignore_errors=True)
    os.replace(tmp, final_dir)
    return rows
