"""``repro.parallel`` — multi-core sharded kSPR execution.

The kSPR algorithms are CPU-bound (halfspace construction and LP feasibility
probes), so Python threads cannot scale them past one core.  This subsystem
shards the work across *processes* at two granularities:

* :func:`parallel_cta` — a **single query** is sharded per CellTree subtree:
  a short serial seed phase grows independent subtrees, worker processes
  expand them to completion, and the partial answers are merged back in
  depth-first order.  The merged result is identical — same cells, ranks,
  halfspaces and witnesses — to the single-process run.
* :class:`ShardedExecutor` — a **multi-query workload** is sharded per focal
  record, each worker running one :class:`~repro.engine.Engine` (seeded with
  dominator counts computed once in the parent) and answering its shard
  through :meth:`~repro.engine.Engine.query`.

Both are wired into the serving layer: ``Engine.query(..., workers=N)``
accelerates cold CTA queries, and ``QueryBatch(engine, workers=N)`` runs a
whole batch on ``N`` cores and adopts the answers into the engine's cache.

>>> from repro.data import independent_dataset
>>> from repro.parallel import ShardedExecutor
>>> dataset = independent_dataset(500, 3, seed=7)
>>> executor = ShardedExecutor(dataset, workers=1)
>>> report = executor.run([(dataset.values[0] * 0.99, 2)])
>>> len(report.results)
1
"""

from .compare import assert_results_identical, results_identical
from .executor import ShardedExecutor
from .shards import SubtreeShard, plan_focal_shards, resolve_workers
from .subtree import DEFAULT_SHARD_FACTOR, parallel_cta, parallel_ticks

__all__ = [
    "parallel_cta",
    "parallel_ticks",
    "ShardedExecutor",
    "SubtreeShard",
    "plan_focal_shards",
    "resolve_workers",
    "results_identical",
    "assert_results_identical",
    "DEFAULT_SHARD_FACTOR",
]
