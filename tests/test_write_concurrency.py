"""``_util.atomic_write_parquet`` (postprocess, replay) runs its 1-CPU
stage one task per CPU.

Ray Data's per-operator resource reservation (on by default, ratio 0.5)
gives a 1-CPU stage behind a 0.5-CPU stage a 1.25-CPU budget on a 2-CPU
cluster, so it runs one task at a time. ``_util.atomic_write_parquet``
turns the reservation off on its Dataset's own context. The check runs in
a fresh 2-CPU Ray with a 300 MiB object store, the shape crawlbench runs;
a 4-CPU session with the default object store leaves room for two tasks
either way and cannot show the limit."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RUN = """
import json
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import DataContext

from europarl_crawler_ray import _util

ray.init(
    address="local", num_cpus=2, object_store_memory=300 * 1024 * 1024,
    include_dashboard=False, logging_level="ERROR",
)


@ray.remote(num_cpus=0)
class Barrier:
    def __init__(self):
        self.arrived = 0

    def arrive(self):
        self.arrived += 1

    def count(self):
        return self.arrived


barrier = Barrier.remote()


def passthrough(batch):
    return batch


def wait_for_both(batch):
    # True only if the other block's task reached the barrier while this
    # one was still in flight
    ray.get(barrier.arrive.remote())
    deadline = time.monotonic() + 10.0
    met = False
    while time.monotonic() < deadline and not met:
        met = ray.get(barrier.count.remote()) >= 2
        if not met:
            time.sleep(0.02)
    return batch.append_column("met", pa.array([met] * batch.num_rows))


before = DataContext.get_current().op_resource_reservation_enabled
ds = ray.data.from_arrow([pa.table({"i": [0]}), pa.table({"i": [1]})])
ds = ds.map_batches(passthrough, batch_format="pyarrow", num_cpus=0.5)
ds = ds.map_batches(wait_for_both, batch_format="pyarrow", num_cpus=1)
t0 = time.monotonic()
rows = _util.atomic_write_parquet(ds, sys.argv[1])
elapsed = time.monotonic() - t0
t = pq.read_table(sys.argv[1]).sort_by("i")
result = {
    "rows": rows,
    "met": t.column("met").to_pylist(),
    "elapsed_s": elapsed,
    "reservation_before": before,
    "reservation_after": DataContext.get_current().op_resource_reservation_enabled,
}
ray.shutdown()
print(json.dumps(result))
"""


def test_write_runs_fetch_shaped_stage_tasks_side_by_side(tmp_path):
    env = dict(os.environ, PYTHONPATH=REPO)
    env.pop("RAY_ADDRESS", None)
    res = subprocess.run(
        [sys.executable, "-c", _RUN, str(tmp_path / "out")],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-3000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["rows"] == 2
    assert out["met"] == [True, True], out
    assert out["reservation_before"] is True
    assert out["reservation_after"] is True
