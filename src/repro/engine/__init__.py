"""``repro.engine`` — amortized multi-query kSPR serving.

The :func:`repro.kspr` entry point answers each query from scratch.  This
subsystem is the serving layer on top of the same algorithms:

* :class:`Engine` — prepares a dataset once (incremental k-skyband dominator
  counts, shared aggregate R-tree, per-focal partitions / competitor indexes /
  hyperplane caches) and serves many queries against the prepared state, with
  an LRU result cache and precise, update-aware invalidation;
* :class:`QueryBatch` / :func:`run_batch` — concurrent execution of
  independent queries with aggregated statistics;
* :class:`ResultCache` — the one LRU store behind the engine's answers,
  paused streams and prepared state (exposed for inspection and tests);
* :func:`generate_workload` / :func:`replay` — Zipf-skewed, mixed-``k``
  workload traces for load testing and benchmarks.

Quick start
-----------
>>> import numpy as np
>>> from repro import Dataset
>>> from repro.engine import Engine
>>> data = Dataset(np.array([[3, 8, 8], [9, 4, 4], [8, 3, 4], [4, 3, 6]]))
>>> engine = Engine(data, k_max=4)
>>> first = engine.query([5, 5, 7], k=3)     # cold: computes and caches
>>> again = engine.query([5, 5, 7], k=3)     # hot: served from the cache
>>> again is first
True
>>> new_id = engine.insert([6.0, 6.0, 6.0])  # incremental update
>>> engine.query([5, 5, 7], k=3) is first    # affected entry was invalidated
False
"""

from .batch import BatchReport, QueryBatch, QueryOutcome, QuerySpec, run_batch
from .cache import CacheEntry, ResultCache, options_key
from .engine import Engine
from .workload import Workload, WorkloadQuery, generate_workload, replay, zipf_weights

__all__ = [
    "Engine",
    "ResultCache",
    "CacheEntry",
    "options_key",
    "QueryBatch",
    "QuerySpec",
    "QueryOutcome",
    "BatchReport",
    "run_batch",
    "Workload",
    "WorkloadQuery",
    "generate_workload",
    "replay",
    "zipf_weights",
]
