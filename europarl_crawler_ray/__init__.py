"""europarl_crawler_ray — a Ray-Data-native crawl/data-processing engine.

A from-scratch rebuild of the capabilities of ``bockstaller/europarl-crawler``
(the reference was studied for semantics only) expressed as
``ray.data.Dataset`` pipelines: ``map_batches`` over zero-copy Arrow batches,
actor pools for stateful stages (URL-seen Bloom shards, per-host politeness),
and explicit partitioning for the wide steps.

Layout
------
- ``functions``  stateless vectorized kernels (url rules, html→text
                 extraction, canonicalization, text analysis, dedup sketches)
- ``sources``    synthetic page generator + mock HTTP resolver + parquet io
- ``state``      stateful actors: seen-set shards, politeness coordinator
- ``stages``     map_batches stage callables (fetcher, extractor)
- ``pipelines``  wave driver, postprocess pipeline, query library

No module in this package calls ``ray.init``/``ray.shutdown`` — sessions are
owned by the caller (driver, bench.py, or the test fixture).

Pickling
--------
Every function, class and actor of this package ships BY VALUE through Ray's
cloudpickle: a worker unpickles it without importing it by module name, so a
driver launched outside the repo root needs no PYTHONPATH contract with its
workers. One registration of the package does this, because cloudpickle
treats a module as by-value when the module or any parent package is
registered; that covers every submodule, including those imported later.
Importing the package therefore imports nothing else, and each process loads
only the modules it uses.
"""

import sys

from ray import cloudpickle

__version__ = "0.1.0"

cloudpickle.register_pickle_by_value(sys.modules[__name__])
