"""europarl_crawler_ray — a Ray-Data-native crawl/data-processing engine.

A from-scratch rebuild of the capabilities of ``bockstaller/europarl-crawler``
(reference at /root/reference, studied for semantics only) expressed as
``ray.data.Dataset`` pipelines: ``map_batches`` over zero-copy Arrow batches,
actor pools for stateful stages (URL-seen Bloom shards, per-host politeness),
and explicit partitioning for the wide steps.

Layout
------
- ``schema``     pyarrow schemas for pages / frontier / fetch_log
- ``functions``  stateless vectorized kernels (url rules, html→text
                 extraction, canonicalization, text analysis, dedup sketches)
- ``sources``    synthetic page generator + mock HTTP resolver + parquet io
- ``state``      stateful actors: seen-set shards, politeness coordinator
- ``stages``     map_batches stage callables (fetcher, extractor)
- ``pipelines``  wave driver, postprocess pipeline, query library

No module in this package calls ``ray.init``/``ray.shutdown`` — sessions are
owned by the caller (driver, bench.py, or the test fixture).
"""

__version__ = "0.1.0"


def _register_pickle_by_value() -> None:
    """Make every submodule serialize BY VALUE through Ray's cloudpickle.

    Ray workers normally unpickle functions/actors by module reference,
    which breaks when the driver process was launched outside the repo
    root (the package isn't importable on the worker). Registering the
    package modules for by-value pickling makes every closure/actor
    self-contained — no PYTHONPATH contract with the driver needed.
    Module payloads are tiny (a few tens of KB), so per-task overhead is
    negligible.
    """
    try:
        from ray import cloudpickle
    except Exception:  # pragma: no cover - ray always present in this env
        return
    import importlib
    import pkgutil
    import sys as _sys

    pkg = _sys.modules[__name__]
    for m in pkgutil.walk_packages(pkg.__path__, prefix=__name__ + "."):
        if m.name.endswith(".cli"):
            continue  # entry-point module; avoids runpy double-import warning
        try:
            importlib.import_module(m.name)
        except Exception:
            pass
    for name, mod in list(_sys.modules.items()):
        if mod is not None and (name == __name__ or name.startswith(__name__ + ".")):
            try:
                cloudpickle.register_pickle_by_value(mod)
            except Exception:
                pass


_register_pickle_by_value()
