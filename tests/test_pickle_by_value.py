"""Importing the package loads no submodule, and every submodule still ships
by value: a function pickled in one process loads and runs in another
process that cannot import the package (a driver launched outside the repo
root hands such workers its closures)."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HTML = (
    "<html><head><title>Plenary</title><script>x()</script></head>"
    "<body><p>Debate &amp; vote</p><div>Item <b>one</b></div></body></html>"
)

_DUMP = f"""
import sys
import europarl_crawler_ray
assert not [m for m in sys.modules if m.startswith("europarl_crawler_ray.")], (
    sorted(m for m in sys.modules if m.startswith("europarl_crawler_ray."))
)
from ray import cloudpickle
from europarl_crawler_ray.functions.extract import get_text
with open(sys.argv[1], "wb") as f:
    f.write(cloudpickle.dumps(get_text))
print(get_text({HTML!r}), end="")
"""

_LOAD = f"""
import importlib.util
import pickle
import sys
assert importlib.util.find_spec("europarl_crawler_ray") is None, sys.path
with open(sys.argv[1], "rb") as f:
    fn = pickle.load(f)
print(fn({HTML!r}), end="")
assert not [m for m in sys.modules if m.startswith("europarl_crawler_ray")]
"""


def _run(code: str, cwd: str, env: dict, *args: str) -> str:
    res = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    return res.stdout


def test_package_import_is_lazy_and_submodules_pickle_by_value(tmp_path):
    blob = str(tmp_path / "fn.pkl")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    expected = _run(_DUMP, REPO, dict(env, PYTHONPATH=REPO), blob)
    assert "Debate & vote" in expected
    loaded = _run(_LOAD, str(tmp_path), env, blob)
    assert loaded == expected
