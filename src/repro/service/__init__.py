"""Resident query service: batching, cross-query caching, admission
control (DESIGN.md §10).

The matcher answers one query per process; this package keeps a data
graph resident and answers *streams* of queries:

* :class:`~repro.service.service.MatchService` — the front end
  (admission, index resolution, deadlines, retries, exact merge,
  telemetry) over an executor; by default a thread pool running each
  request's cluster chunk plan as one task per chunk;
* :class:`~repro.service.shards.ShardedMatchService` — the same front
  end over the shard executor (``repro serve --shards N``): pivot
  chunks pulled from one queue by worker processes sharing mmap'd
  CECIIDX3 indexes, with exact-merge responses indistinguishable from
  the thread executor's;
* :class:`~repro.service.cache.IndexCache` — cross-query cache of
  frozen indexes keyed by canonical query signature, admitting by
  lookup frequency, with a CECIIDX3 spill tier and in-flight build
  coalescing;
* :class:`~repro.service.request.MatchRequest` /
  :class:`~repro.service.request.MatchResponse` — the request surface;
* :mod:`~repro.service.loadgen` — deterministic open-loop benchmark
  (``repro bench-service``);
* :mod:`~repro.service.server` — JSON-lines front end (``repro serve``).
"""

from .cache import CacheEntry, IndexCache, transplant_store
from .loadgen import (
    generate_workload,
    run_benchmark,
    run_chaos,
    run_shard_benchmark,
    sample_query,
)
from .request import MatchRequest, MatchResponse, Status
from .scheduler import TaskQueue
from .server import serve
from .service import MatchService, PendingMatch, service_metric_specs
from .shards import ShardedMatchService, sharded_metric_specs

__all__ = [
    "CacheEntry",
    "IndexCache",
    "MatchRequest",
    "MatchResponse",
    "MatchService",
    "PendingMatch",
    "ShardedMatchService",
    "Status",
    "TaskQueue",
    "generate_workload",
    "run_benchmark",
    "run_chaos",
    "run_shard_benchmark",
    "sample_query",
    "serve",
    "service_metric_specs",
    "sharded_metric_specs",
    "transplant_store",
]
