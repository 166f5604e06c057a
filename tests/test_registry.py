"""The operator registry in ``__ray_entry__``: one name per operator, no
orphaned op module, one table reader, the counts the README and
COVERAGE.md quote match the registry, and tests and tools import the
checkout they live in."""

import ast
import glob
import os
import re

import pytest

import __ray_entry__ as entry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "europarl_crawler_ray")


def _read(name: str) -> str:
    with open(os.path.join(REPO, name)) as f:
        return f.read()


def test_merge_raises_on_duplicate_name():
    with pytest.raises(RuntimeError, match="collision: 'x'.*a_ops.*b_ops"):
        entry._merge([("a_ops", "x", 1), ("b_ops", "y", 2), ("b_ops", "x", 3)])


def test_both_cdc_operators_registered_under_distinct_names():
    from europarl_crawler_ray.pipelines import setsim_ops, webcorpus_ops

    qs, sqls = entry.queries(), entry.oracle_sql()
    assert qs["cdc_chunks"] is webcorpus_ops.WEBCORPUS_SQL_QUERIES["cdc_chunks"][0]
    assert qs["cdc_token_chunks"] is setsim_ops.q_cdc_chunks
    assert sqls["cdc_chunks"] != sqls["cdc_token_chunks"]


def test_every_op_module_is_registered():
    """Each ``_TABLES`` row names an existing module, and each
    ``pipelines/*_ops.py`` module defines at least one registered query
    (webgraph, weblinkage and sketcheval do so through webcorpus_ops'
    table) — a module nothing registers is dead code."""
    pipelines = os.path.join(PACKAGE, "pipelines")
    missing = [m for m, _ in entry._TABLES if not os.path.exists(f"{pipelines}/{m}.py")]
    assert missing == []
    defining = {fn.__module__.rsplit(".", 1)[-1] for fn in entry.queries().values()}
    op_modules = {
        os.path.basename(p)[: -len(".py")] for p in glob.glob(f"{pipelines}/*_ops.py")
    }
    assert sorted(op_modules - defining) == []


def test_one_table_reader():
    """Op modules read sf tables through ``_util.read_table`` /
    ``table_rows``; no module keeps its own copy."""
    defs: dict[str, list[str]] = {}
    for path in glob.glob(f"{PACKAGE}/**/*.py", recursive=True):
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(os.path.relpath(path, PACKAGE))
    for copy in ("_read", "_n_docs", "_n_rows"):
        assert defs.get(copy, []) == [], copy
    assert defs["read_table"] == ["_util.py"]
    assert defs["table_rows"] == ["_util.py"]


def test_docs_quote_registry_counts():
    n_queries, n_sql = len(entry.queries()), len(entry.oracle_sql())
    assert (n_queries, n_sql) == (271, 264)
    assert set(entry.oracle_sql()) <= set(entry.queries())
    readme = _read("README.md")
    m = re.search(r"`queries\(\)` \((\d+) operators", readme)
    assert m and int(m.group(1)) == n_queries
    m = re.search(r"parity SQL for the (\d+) SQL-expressible", readme)
    assert m and int(m.group(1)) == n_sql
    m = re.search(
        r"\*\*(\d+) SQL-oracled \+ (\d+) rows-only queries \((\d+) total\)\*\*",
        _read("COVERAGE.md"),
    )
    assert m and tuple(map(int, m.groups())) == (n_sql, n_queries - n_sql, n_queries)


def test_no_hard_coded_checkout_path():
    """Tests and tools find the package relative to their own file
    (``conftest.py``, ``__file__``); a literal checkout path would make a
    run from any other copy import the original checkout's modules."""
    literal = ("/root/" + "repo").encode()
    hits = []
    for sub in ("tests", "tools"):
        for path in sorted(glob.glob(f"{REPO}/{sub}/**/*", recursive=True)):
            if os.path.isfile(path) and "__pycache__" not in path:
                with open(path, "rb") as f:
                    for i, line in enumerate(f, 1):
                        if literal in line:
                            hits.append(f"{os.path.relpath(path, REPO)}:{i}")
    assert hits == []
