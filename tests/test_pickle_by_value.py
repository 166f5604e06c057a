"""Importing the package loads no submodule, and every submodule still ships
by value: a function pickled in one process loads and runs in another
process that cannot import the package (a driver launched outside the repo
root hands such workers its closures)."""

import json
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


_ROBOTS = "User-agent: *\nDisallow: /private/\n"

# the same calls in both processes: the robots gate (whose parser lives in
# functions/robots.py) and a mock-web PDF fetch (whose renderer lives in
# functions/pdf.py)
_DRIVE = f"""
import hashlib
import json


def drive(gate_cls, http_cls, url):
    gate = gate_cls()
    gate.load("h.example", {_ROBOTS!r})
    status, body, _ = http_cls(seed=42).fetch(url)
    print(json.dumps([
        gate.known("h.example"), gate.allowed("h.example", "/private/a"),
        gate.allowed("h.example", "/public"), status, body[:5].decode(),
        hashlib.sha256(body).hexdigest(),
    ]), end="")
"""

_DUMP_STATE = _DRIVE + """
import sys
from datetime import date, timedelta

from ray import cloudpickle
from europarl_crawler_ray.functions.rules import DOCUMENT_RULES
from europarl_crawler_ray.sources.synth import MockHttp
from europarl_crawler_ray.state.politeness import RobotsGate

http = MockHttp(seed=42)
urls = (r.url(date(2021, 1, 4) + timedelta(days=i)) for i in range(60) for r in DOCUMENT_RULES)
url = next(u for u in urls if u.endswith(".pdf") and http.fetch(u)[0] == 200)
with open(sys.argv[1], "wb") as f:
    f.write(cloudpickle.dumps((RobotsGate, MockHttp, url)))
drive(RobotsGate, MockHttp, url)
"""

_LOAD_STATE = _DRIVE + """
import importlib.util
import pickle
import sys
assert importlib.util.find_spec("europarl_crawler_ray") is None, sys.path
with open(sys.argv[1], "rb") as f:
    gate_cls, http_cls, url = pickle.load(f)
drive(gate_cls, http_cls, url)
"""


def test_robots_gate_and_mock_web_run_where_the_package_is_not_importable(tmp_path):
    """Worker-run classes import what they call at module level: an import
    inside a method would need the package in the worker at call time."""
    blob = str(tmp_path / "state.pkl")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    expected = _run(_DUMP_STATE, REPO, dict(env, PYTHONPATH=REPO), blob)
    assert json.loads(expected)[:5] == [True, False, True, 200, "%PDF-"]
    loaded = _run(_LOAD_STATE, str(tmp_path), env, blob)
    assert loaded == expected


# an actor-pool UDF whose decoder lives in functions/audiocodec.py, built
# and run over a WAV file from the same module's encoder
_DRIVE_UDF = """
import json

import pyarrow as pa


def drive(udf_cls, make_audio):
    out = udf_cls()(pa.table({"key": ["a", "b"], "audio": [make_audio("a"), make_audio("b")]}))
    print(json.dumps(out.to_pylist()), end="")
"""

_DUMP_UDF = _DRIVE_UDF + """
import sys

from ray import cloudpickle
from europarl_crawler_ray.stages.multimodal import DecodeAudioMeta, make_fake_audio

with open(sys.argv[1], "wb") as f:
    f.write(cloudpickle.dumps((DecodeAudioMeta, make_fake_audio)))
drive(DecodeAudioMeta, make_fake_audio)
"""

_LOAD_UDF = _DRIVE_UDF + """
import importlib.util
import pickle
import sys
assert importlib.util.find_spec("europarl_crawler_ray") is None, sys.path
with open(sys.argv[1], "rb") as f:
    udf_cls, make_audio = pickle.load(f)
drive(udf_cls, make_audio)
"""


def test_multimodal_udf_builds_where_the_package_is_not_importable(tmp_path):
    """A decode UDF's ``__init__`` runs in the worker, so the codec it
    binds must come from a module-level import."""
    blob = str(tmp_path / "udf.pkl")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    expected = _run(_DUMP_UDF, REPO, dict(env, PYTHONPATH=REPO), blob)
    rows = json.loads(expected)
    assert [r["key"] for r in rows] == ["a", "b"] and all(r["n_frames"] for r in rows)
    loaded = _run(_LOAD_UDF, str(tmp_path), env, blob)
    assert loaded == expected
