"""Deterministic load generation and the service benchmark.

The bench drives a :class:`~repro.service.service.MatchService` with a
seeded workload and reports the numbers the acceptance bar asks for:
request-latency percentiles, throughput, cache hit rate, and the
warm-vs-cold speedup of the index cache (warm must serve ≥ 3x faster
than cold, since a warm request skips filter + refine + freeze).

Queries are sampled as *connected induced subgraphs of the data graph*
(seeded random BFS growth), so every query is guaranteed at least one
embedding — a workload of unsatisfiable patterns would measure nothing
but filter speed.  The arrival sequence is **open-loop**: the whole
request schedule is fixed up front by the seed, submitted without
waiting for completions, so service behaviour cannot reshape its own
offered load (closed-loop generators hide queueing collapse).

:func:`run_benchmark` is what ``repro bench-service`` and the CI smoke
job call; its dict is written as ``BENCH_service.json``.
:func:`run_chaos` is the seeded chaos harness behind ``repro
bench-service --chaos``: it drives a *fault-injected* service against
sequentially-computed ground truth and reports wrong results,
availability, retry counts and pool health.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from ..graph import Graph
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RetryPolicy
from .request import MatchRequest, Status
from .service import MatchService, PendingMatch

__all__ = [
    "sample_query",
    "generate_workload",
    "percentile",
    "run_benchmark",
    "run_chaos",
    "run_shard_benchmark",
    "BENCH_SCHEMA",
]

#: Version stamped into the benchmark report; bump on shape changes.
BENCH_SCHEMA = 1


def sample_query(
    data: Graph, size: int, rng: random.Random
) -> Optional[Graph]:
    """One connected induced subgraph of ``data`` with ``size`` vertices
    (or ``None`` when the seeded growth gets stuck in a too-small
    component).  Induced means every data edge between chosen vertices
    is kept, so the identity mapping is always an embedding."""
    if size < 1 or data.num_vertices == 0:
        return None
    start = rng.randrange(data.num_vertices)
    chosen: List[int] = [start]
    member = {start}
    frontier = [w for w in data.neighbors(start)]
    while len(chosen) < size and frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        if v in member:
            continue
        member.add(v)
        chosen.append(v)
        for w in data.neighbors(v):
            if w not in member:
                frontier.append(w)
    if len(chosen) < size:
        return None
    return data.subgraph(sorted(chosen))


def generate_workload(
    data: Graph,
    num_queries: int,
    seed: int = 0,
    min_vertices: int = 3,
    max_vertices: int = 5,
    max_embeddings: Optional[int] = None,
) -> List[Graph]:
    """``num_queries`` distinct-ish query graphs, deterministically from
    ``seed``.  Sizes cycle through ``[min_vertices, max_vertices]``.

    ``max_embeddings`` screens out result-heavy patterns (a random walk
    through a weakly-labeled region can match tens of thousands of
    times): candidates whose embedding count exceeds the cap are
    re-sampled.  The service benchmark uses this so its warm-vs-cold
    ratio measures *index reuse*, not enumeration throughput — a single
    30k-embedding query would otherwise drown the build time both
    phases share.  Screening runs a throwaway matcher per candidate and
    is deterministic given the seed.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if not 1 <= min_vertices <= max_vertices:
        raise ValueError("need 1 <= min_vertices <= max_vertices")
    rng = random.Random(seed)
    queries: List[Graph] = []
    attempts = 0
    while len(queries) < num_queries and attempts < num_queries * 50:
        attempts += 1
        size = min_vertices + len(queries) % (max_vertices - min_vertices + 1)
        query = sample_query(data, size, rng)
        if query is None or not query.is_connected():
            continue
        if max_embeddings is not None:
            from ..core.matcher import CECIMatcher

            found = CECIMatcher(query, data).match(limit=max_embeddings + 1)
            if len(found) > max_embeddings:
                continue
        queries.append(query)
    if len(queries) < num_queries:
        raise ValueError(
            "data graph too small/fragmented to sample the workload"
        )
    return queries


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = max(0, min(len(ranked) - 1, int(round(q / 100.0 * len(ranked))) - 1))
    return ranked[rank]


def _phase_report(seconds: List[float]) -> Dict[str, float]:
    return {
        "requests": len(seconds),
        "mean_seconds": sum(seconds) / len(seconds) if seconds else 0.0,
        "p50_seconds": percentile(seconds, 50),
        "p95_seconds": percentile(seconds, 95),
        "p99_seconds": percentile(seconds, 99),
    }


def run_benchmark(
    service: MatchService,
    num_queries: int = 6,
    mixed_requests: int = 30,
    seed: int = 0,
    min_vertices: int = 3,
    max_vertices: int = 5,
    max_embeddings: Optional[int] = 200,
) -> Dict[str, object]:
    """Three-phase deterministic benchmark against a live service.

    1. **cold** — each unique query once, synchronously, on an empty
       index cache: every request pays a build (``cache == "miss"``).
    2. **warm** — the same queries again: every request must be served
       from the index cache (``hit``), giving the warm/cold speedup.
    3. **mixed open-loop** — ``mixed_requests`` requests sampled (with
       repetition) from the query set, all submitted before any result
       is awaited; reports end-to-end latency percentiles and
       throughput.

    Counts are cross-checked between phases: a query must report the
    same embedding count cold, warm, and mixed — a cheap in-bench
    differential guard on the cache path.
    """
    queries = generate_workload(
        service.data,
        num_queries,
        seed=seed,
        min_vertices=min_vertices,
        max_vertices=max_vertices,
        max_embeddings=max_embeddings,
    )
    counts: List[Optional[int]] = [None] * len(queries)
    statuses: Dict[str, int] = {status: 0 for status in Status.ALL}

    def record(index: int, response) -> None:
        statuses[response.status] = statuses.get(response.status, 0) + 1
        if response.status != Status.OK:
            raise AssertionError(
                f"benchmark request failed: {response.status} "
                f"({response.error or response.stop_reason})"
            )
        if counts[index] is None:
            counts[index] = response.count
        elif counts[index] != response.count:
            raise AssertionError(
                f"query {index} count changed across phases: "
                f"{counts[index]} != {response.count} "
                f"(cache tier {response.cache})"
            )

    cold_seconds: List[float] = []
    for i, query in enumerate(queries):
        response = service.match(MatchRequest(query))
        record(i, response)
        cold_seconds.append(response.service_seconds)

    warm_seconds: List[float] = []
    warm_tags: List[str] = []
    for i, query in enumerate(queries):
        response = service.match(MatchRequest(query))
        record(i, response)
        warm_seconds.append(response.service_seconds)
        warm_tags.append(response.cache or "none")

    rng = random.Random(seed + 1)
    schedule = [rng.randrange(len(queries)) for _ in range(mixed_requests)]
    pending: List[PendingMatch] = []
    mixed_started = time.perf_counter()
    for index in schedule:
        pending.append(service.submit(MatchRequest(queries[index])))
    latencies: List[float] = []
    for index, handle in zip(schedule, pending):
        response = handle.result()
        record(index, response)
        latencies.append(response.latency_seconds)
    mixed_elapsed = time.perf_counter() - mixed_started

    cold_mean = sum(cold_seconds) / len(cold_seconds)
    warm_mean = sum(warm_seconds) / len(warm_seconds)
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "config": {
            "data_vertices": service.data.num_vertices,
            "data_edges": service.data.num_edges,
            "workers": service.workers,
            "num_queries": num_queries,
            "mixed_requests": mixed_requests,
            "seed": seed,
            "min_vertices": min_vertices,
            "max_vertices": max_vertices,
            "max_embeddings": max_embeddings,
        },
        "cold": _phase_report(cold_seconds),
        "warm": _phase_report(warm_seconds),
        "warm_speedup": cold_mean / warm_mean if warm_mean > 0 else 0.0,
        "warm_cache_tags": warm_tags,
        "latency": {
            "p50_seconds": percentile(latencies, 50),
            "p95_seconds": percentile(latencies, 95),
            "p99_seconds": percentile(latencies, 99),
            "mean_seconds": sum(latencies) / len(latencies)
            if latencies
            else 0.0,
        },
        "throughput_rps": (
            mixed_requests / mixed_elapsed if mixed_elapsed > 0 else 0.0
        ),
        "statuses": statuses,
        "embedding_counts": counts,
        "index_cache": service.index_cache.snapshot(),
    }
    return report


def run_chaos(
    data: Graph,
    num_queries: int = 5,
    requests: int = 40,
    seed: int = 0,
    workers: int = 2,
    max_retries: int = 2,
    crash_fraction: float = 0.15,
    build_failure_fraction: float = 0.1,
    spill_fault_fraction: float = 0.25,
    stall_fraction: float = 0.0,
    stall_seconds: float = 0.05,
    deadline_seconds: Optional[float] = None,
    index_capacity: int = 2,
    spill_dir: Optional[str] = None,
    min_vertices: int = 3,
    max_vertices: int = 5,
    max_embeddings: Optional[int] = 200,
    shards: int = 0,
    shard_crash_fraction: float = 0.0,
    shard_stall_fraction: float = 0.0,
    shard_stall_seconds: float = 0.05,
    publish_torn_fraction: float = 0.0,
) -> Dict[str, object]:
    """Seeded chaos run: a fault-injected service vs. sequential truth.

    Builds a :meth:`~repro.resilience.faults.FaultPlan.service_chaos`
    plan from ``seed`` (worker crashes mid-job, index-build failures,
    torn spill writes, corrupted spill reads, optional scheduler
    stalls), stands up a :class:`MatchService` with that plan, a retry
    policy and a tiny index cache (so the spill tier is actually
    exercised), and fires an open-loop schedule of ``requests``
    requests at it.  Every response is judged against ground truth
    computed by the *sequential* matcher up front:

    * an ``OK`` response with the wrong embedding count is a **wrong
      result** — the one number that must be zero no matter what faults
      fire;
    * non-``OK`` responses must carry an *accurate* failure status
      (``crashed``/``failed``/``timeout``), and their fraction is the
      availability loss, which the CLI gate bounds;
    * after the run the worker pool must be back at full strength
      (watchdog respawns verified) and every quarantined spill must be
      counted in ``spill_corrupt``.

    With ``shards > 0`` the run targets a
    :class:`~repro.service.shards.ShardedMatchService` of that many
    worker *processes* instead, under the same retry policy, and the
    shard fault classes join the plan: shard-process kills mid-task,
    per-shard stalls, and torn shared-mmap publishes.  The judgments
    are identical — zero wrong results no matter which shard died — and
    ``pool_full_strength`` then means every shard process is alive
    again (respawns verified).

    Returns a JSON-ready report; closing the service is handled here.
    """
    queries = generate_workload(
        data,
        num_queries,
        seed=seed,
        min_vertices=min_vertices,
        max_vertices=max_vertices,
        max_embeddings=max_embeddings,
    )
    from ..core.matcher import CECIMatcher

    truth = [len(CECIMatcher(query, data).match()) for query in queries]
    plan = FaultPlan.service_chaos(
        seed=seed,
        requests=requests,
        crash_fraction=crash_fraction,
        build_failure_fraction=build_failure_fraction,
        spill_fault_fraction=spill_fault_fraction,
        stall_fraction=stall_fraction,
        stall_seconds=stall_seconds,
        num_shards=shards,
        shard_crash_fraction=shard_crash_fraction,
        shard_stall_fraction=shard_stall_fraction,
        shard_stall_seconds=shard_stall_seconds,
        publish_torn_fraction=publish_torn_fraction,
    )
    policy = RetryPolicy(
        max_retries=max_retries,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.05,
    )
    rng = random.Random(seed + 1)
    schedule = [rng.randrange(len(queries)) for _ in range(requests)]
    tmp = None
    if spill_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="chaos-spill-")
        spill_dir = tmp.name
    statuses: Dict[str, int] = {status: 0 for status in Status.ALL}
    wrong: List[Dict[str, int]] = []
    retries_total = 0
    options = dict(
        max_pending=max(requests, 1),
        index_capacity=index_capacity,
        spill_dir=spill_dir,
        deadline_seconds=deadline_seconds,
        retry_policy=policy,
        fault_plan=plan,
    )
    if shards > 0:
        from .shards import ShardedMatchService

        service_ctx = ShardedMatchService(data, shards=shards, **options)
    else:
        service_ctx = MatchService(data, workers=workers, **options)
    pool_size = shards or workers
    try:
        with service_ctx as service:
            started = time.perf_counter()
            pending: List[PendingMatch] = [
                service.submit(MatchRequest(queries[index]))
                for index in schedule
            ]
            for index, handle in zip(schedule, pending):
                response = handle.result()
                statuses[response.status] = (
                    statuses.get(response.status, 0) + 1
                )
                retries_total += response.retries
                if (
                    response.status == Status.OK
                    and response.count != truth[index]
                ):
                    wrong.append({
                        "query": index,
                        "expected": truth[index],
                        "got": response.count,
                    })
            elapsed = time.perf_counter() - started
            healthy = service.healthy_workers()
            cache_snapshot = service.index_cache.snapshot()
            metrics = service.metrics
            report: Dict[str, object] = {
                "schema": BENCH_SCHEMA,
                "config": {
                    "data_vertices": data.num_vertices,
                    "data_edges": data.num_edges,
                    "workers": workers,
                    "shards": shards,
                    "num_queries": num_queries,
                    "requests": requests,
                    "seed": seed,
                    "max_retries": max_retries,
                    "crash_fraction": crash_fraction,
                    "build_failure_fraction": build_failure_fraction,
                    "spill_fault_fraction": spill_fault_fraction,
                    "stall_fraction": stall_fraction,
                    "shard_crash_fraction": shard_crash_fraction,
                    "shard_stall_fraction": shard_stall_fraction,
                    "publish_torn_fraction": publish_torn_fraction,
                    "deadline_seconds": deadline_seconds,
                    "index_capacity": index_capacity,
                },
                "injected": {
                    "worker_crashes": len(plan.thread_crash_picks),
                    "build_failures": len(plan.build_failure_picks),
                    "torn_spill_writes": len(plan.spill_torn_write_picks),
                    "corrupt_spill_reads": len(plan.spill_read_corrupt_picks),
                    "scheduler_stalls": len(plan.scheduler_stall_picks),
                    "shard_crashes": len(plan.shard_crash_picks),
                    "shard_stalls": len(plan.shard_stall_picks),
                    "torn_publishes": len(plan.publish_torn_picks),
                },
                "statuses": statuses,
                "wrong_results": wrong,
                "availability": statuses[Status.OK] / requests
                if requests
                else 1.0,
                "retries_total": retries_total,
                "worker_respawns": metrics.get("service_worker_respawns"),
                "healthy_workers": healthy,
                "pool_full_strength": healthy == pool_size,
                "elapsed_seconds": elapsed,
                "index_cache": cache_snapshot,
            }
            if shards > 0:
                report["shard_respawns"] = metrics.get(
                    "service_shard_respawns"
                )
                report["shard_redispatches"] = metrics.get(
                    "service_shard_redispatches"
                )
                report["shard_republishes"] = metrics.get(
                    "service_shard_republishes"
                )
            return report
    finally:
        if tmp is not None:
            tmp.cleanup()


def run_shard_benchmark(
    data: Graph,
    shard_counts: Sequence[int] = (1, 2, 4),
    num_queries: int = 6,
    requests: int = 30,
    seed: int = 0,
    min_vertices: int = 3,
    max_vertices: int = 5,
    max_embeddings: Optional[int] = None,
    index_capacity: int = 32,
) -> Dict[str, object]:
    """Horizontal-scaling sweep across shard counts (``BENCH_shard``).

    For each entry in ``shard_counts`` a fresh
    :class:`~repro.service.shards.ShardedMatchService` answers the same
    seeded workload: every unique query once to warm the shared index
    cache, then an open-loop mixed phase of ``requests`` requests.  The
    headline per-point figure is ``shard_speedup`` — the *critical-path*
    ratio ``max-per-shard busy CPU seconds at 1 shard / at k shards``,
    the same simulated-speedup substitution DESIGN.md §2 uses for the
    intersection pool: on a box whose cores are already saturated (CI
    runners pin this suite to one CPU) wall-clock cannot show the
    partitioning win, but the longest per-shard CPU chain — what the
    wall-clock *would* be with a core per shard — can, and
    ``time.process_time`` in the workers measures it free of
    time-slice noise.  ``wall_speedup`` rides along for machines with
    real parallelism.

    Counts are cross-checked across shard counts: the same query must
    report the same embedding count at every width — a scaling sweep is
    also a differential test.

    Returns the JSON-ready ``BENCH_shard.json`` report.
    """
    from .shards import ShardedMatchService

    queries = generate_workload(
        data,
        num_queries,
        seed=seed,
        min_vertices=min_vertices,
        max_vertices=max_vertices,
        max_embeddings=max_embeddings,
    )
    rng = random.Random(seed + 1)
    schedule = [rng.randrange(len(queries)) for _ in range(requests)]
    counts: List[Optional[int]] = [None] * len(queries)
    points: List[Dict[str, object]] = []
    baseline_critical: Optional[float] = None
    baseline_elapsed: Optional[float] = None
    for shards in shard_counts:
        with ShardedMatchService(
            data,
            shards=shards,
            max_pending=max(requests, 1) + num_queries,
            index_capacity=index_capacity,
        ) as service:
            for i, query in enumerate(queries):
                response = service.match(MatchRequest(query))
                if response.status != Status.OK:
                    raise AssertionError(
                        f"shard warmup failed at {shards} shards: "
                        f"{response.status} ({response.error})"
                    )
                if counts[i] is None:
                    counts[i] = response.count
                elif counts[i] != response.count:
                    raise AssertionError(
                        f"query {i} count diverged at {shards} shards: "
                        f"{counts[i]} != {response.count}"
                    )
            started = time.perf_counter()
            pending = [
                service.submit(MatchRequest(queries[index]))
                for index in schedule
            ]
            for index, handle in zip(schedule, pending):
                response = handle.result()
                if response.status != Status.OK:
                    raise AssertionError(
                        f"shard bench request failed at {shards} shards: "
                        f"{response.status} ({response.error})"
                    )
                if response.count != counts[index]:
                    raise AssertionError(
                        f"query {index} count diverged at {shards} shards: "
                        f"{counts[index]} != {response.count}"
                    )
            elapsed = time.perf_counter() - started
            telemetry = service.shard_telemetry()
        busy = [float(b) for b in telemetry["busy_seconds"]]
        critical = max(busy) if busy else 0.0
        total_busy = sum(busy)
        if baseline_critical is None:
            baseline_critical = critical
            baseline_elapsed = elapsed
        mean_busy = total_busy / len(busy) if busy else 0.0
        points.append({
            "shards": shards,
            "elapsed_seconds": elapsed,
            "throughput_rps": requests / elapsed if elapsed > 0 else 0.0,
            "shard_busy_seconds": busy,
            "shard_tasks": [int(t) for t in telemetry["tasks"]],
            "critical_path_seconds": critical,
            "total_busy_seconds": total_busy,
            "shard_speedup": (
                baseline_critical / critical if critical > 0 else 0.0
            ),
            "wall_speedup": (
                (baseline_elapsed or 0.0) / elapsed if elapsed > 0 else 0.0
            ),
            # Load balance: mean busy / max busy; 1.0 is a perfect split.
            "balance": mean_busy / critical if critical > 0 else 1.0,
        })
    return {
        "schema": BENCH_SCHEMA,
        "kind": "shard_scaling",
        "cpus": len(os.sched_getaffinity(0)),
        "config": {
            "data_vertices": data.num_vertices,
            "data_edges": data.num_edges,
            "shard_counts": list(shard_counts),
            "num_queries": num_queries,
            "requests": requests,
            "seed": seed,
            "min_vertices": min_vertices,
            "max_vertices": max_vertices,
            "max_embeddings": max_embeddings,
        },
        "embedding_counts": counts,
        "points": points,
    }
