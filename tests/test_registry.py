"""The operator registry in ``__ray_entry__``: one name per operator, and
the counts the README and COVERAGE.md quote match the registry."""

import os
import re

import pytest

import __ray_entry__ as entry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_docs_quote_registry_counts():
    n_queries, n_sql = len(entry.queries()), len(entry.oracle_sql())
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
