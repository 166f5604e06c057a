"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json). Fill these in as you implement operators from
SURVEY.md §2. Results may be a ``ray.data.Dataset``, a
``pandas.DataFrame`` or a ``pyarrow.Table``; the driver converts.

Ray is initialised by the driver BEFORE this module is imported: do not
call ``ray.init()`` / ``ray.shutdown()`` here, in the library code these
functions use, or inside the callables.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterable
from typing import Any

# Every operator table, as (module under europarl_crawler_ray.pipelines,
# name of its dict), in merge order. A table lives in the module that
# defines its functions and maps ``name: (fn, sql, keep)``:
# - ``sql`` is the DuckDB oracle, or None for a rows-only check;
# - ``keep`` is why the query stays: a COVERAGE.md §2 ID whose row names
#   it, one of the nine operator families of VERDICT.md's r5 table
#   (dedup, ann, selection, text, graph, sketch, training, multimodal,
#   frontier) whose row names it or its module, ``engine`` (run by
#   entry(), bench.py's headline queries, crawlbench or tools/), or
#   ``backlog`` (none of these: the next queries to delete).
# tests/test_registry.py checks every tag against those documents.
_TABLES = [
    ("queries", "SQL_QUERIES"),
    ("ml_queries", "ML_SQL_QUERIES"),
    ("corpus_ops", "CORPUS_SQL_QUERIES"),
    ("training_ops", "TRAINING_SQL_QUERIES"),
    ("frontier_tools", "FRONTIER_SQL_QUERIES"),
    ("sketch_ops", "SKETCH_SQL_QUERIES"),
    ("webtext_ops", "WEBTEXT_SQL_QUERIES"),
    ("curation_ops", "CURATION_SQL_QUERIES"),
    ("webcorpus_ops", "WEBCORPUS_SQL_QUERIES"),
    ("webgraph_ops", "WEBGRAPH_SQL_QUERIES"),
    ("sketcheval_ops", "SKETCHEVAL_SQL_QUERIES"),
    ("weblinkage_ops", "WEBLINKAGE_SQL_QUERIES"),
    ("mining_ops", "MINING_SQL_QUERIES"),
    ("validation_ops", "VALIDATION_SQL_QUERIES"),
    ("linkrank_ops", "LINKRANK_SQL_QUERIES"),
    ("selection_ops", "SELECTION_SQL_QUERIES"),
    ("centrality_ops", "CENTRALITY_SQL_QUERIES"),
    ("sitegraph_ops", "SITEGRAPH_SQL_QUERIES"),
    ("diagnostics_ops", "DIAGNOSTICS_SQL_QUERIES"),
    ("crawlyield_ops", "CRAWLYIELD_SQL_QUERIES"),
    ("vectoraudit_ops", "VECTORAUDIT_SQL_QUERIES"),
    ("lexstat_ops", "LEXSTAT_SQL_QUERIES"),
    ("assignment_ops", "ASSIGNMENT_SQL_QUERIES"),
    ("dedupsketch_ops", "DEDUPSKETCH_SQL_QUERIES"),
    ("focusedcrawl_ops", "FOCUSEDCRAWL_SQL_QUERIES"),
]


def _tables() -> Iterable[tuple[str, dict]]:
    for mod, attr in _TABLES:
        module = importlib.import_module(f"europarl_crawler_ray.pipelines.{mod}")
        yield f"{mod}.{attr}", getattr(module, attr)


def _merge(entries: Iterable[tuple[str, str, Any]]) -> dict[str, Any]:
    """``{name: value}`` from (source, name, value) triples; a name defined
    twice is an error — one operator must never silently shadow another."""
    out: dict[str, Any] = {}
    source: dict[str, str] = {}
    for src, name, value in entries:
        if name in out:
            raise RuntimeError(
                f"operator registry name collision: {name!r} is defined by "
                f"both {source[name]} and {src}"
            )
        out[name] = value
        source[name] = src
    return out


def entry() -> Any:
    """Flagship pipeline (smoke scale); driver checks rows>=0.

    Runs the full wave engine — discovery → probe → F2 expansion → seen-set
    dedup → politeness-gated fetch → byte-identical extraction — over the
    deterministic synthetic web and returns the crawled pages Dataset in
    the BASELINE.json input_hint shape (url, warc_ts, html, text, lang).
    """
    from europarl_crawler_ray.pipelines.flagship import run_flagship

    return run_flagship(output_dir="/tmp/europarl_entry_smoke")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2.

    Each callable takes ``sf_dir`` (e.g. "/root/testdata/sf0.01") and
    returns a Dataset / pandas DataFrame / pyarrow Table. Name every
    computed/aggregate column so names match ``oracle_sql``.
    """
    return _merge(
        (src, name, fn) for src, table in _tables() for name, (fn, _sql, _keep) in table.items()
    )


def oracle_sql() -> dict[str, str]:
    """For each key in ``queries()``, equivalent ANSI SQL runnable by
    DuckDB on the same parquet tables (pre-registered views: region
    nation customer supplier part orders lineitem events documents
    embeddings). Omit for non-SQL-expressible ops → driver records a
    weaker rows-only check.
    """
    return _merge(
        (src, name, sql)
        for src, table in _tables()
        for name, (_fn, sql, _keep) in table.items()
        if sql is not None
    )
