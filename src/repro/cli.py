"""Command-line interface.

::

    python -m repro match    QUERY DATA [--limit N] [--order bfs] [--all-autos]
                                        [--timeout S] [--max-calls N]
                                        [--workers K]
                                        [--trace FILE.jsonl] [--progress]
                                        [--metrics {json,prom}] [--json]
    python -m repro count    QUERY DATA [--limit N] [...same flags]
    python -m repro index    QUERY DATA OUT.ceci      # build + persist CECI
    python -m repro stats    QUERY DATA               # pipeline statistics
    python -m repro trace    summarize FILE.jsonl [--json]
    python -m repro generate KIND OUT [--vertices N] [--edges-per-vertex M]
                                       [--labels K] [--seed S]
    python -m repro serve    DATA [--workers K] [--max-pending N]
                                  [--index-capacity N] [--spill-dir DIR]
                                  [--metrics {json,prom}]
                                  [--metrics-port PORT] [--flight-records N]
                                  [--slow-ms MS] [--slow-log FILE]
                                  [--history FILE] [--trace FILE.jsonl]
    python -m repro flight   FILE [--request ID] [--json]
    python -m repro explain  FILE [--request ID] [--json]
    python -m repro bench-service [--data DATA] [--queries N]
                                  [--requests N] [--out BENCH_service.json]

``QUERY`` and ``DATA`` are graph files; format chosen by extension:
``.graph`` (labeled t/v/e rows), ``.csr`` (binary CSR), anything else is
read as a SNAP edge list.

The index is always frozen into flat sorted int64 arrays after refinement
(DESIGN.md §8) and enumerated by the set-at-a-time batch engine
(DESIGN.md §12).
``--timeout`` / ``--max-calls`` cap the run with a
:class:`~repro.resilience.budget.Budget`; a truncated run prints a
``# truncated: <axis>`` line on stderr instead of hanging.
``--workers K`` (K > 1, match/count only) sends the query as one
request to a :class:`~repro.service.service.MatchService` with ``K``
worker threads — the one in-process parallel executor, with its
budgets, retries and watchdog — and prints exactly what the sequential
run prints, ``--limit`` prefixes and budget cuts included.  A failed or
crashed request exits 1 with its error on stderr.

Observability (DESIGN.md §9): ``--trace FILE.jsonl`` writes the run's
phase records and nested spans as JSON lines —
render the per-phase / per-worker breakdown with ``repro trace
summarize FILE.jsonl``; ``--metrics {json,prom}`` dumps the full
metrics registry to stderr after the run; ``--progress`` prints a
heartbeat line (calls/s, embeddings/s, budget left, cardinality-bound
ETA) on stderr during long enumerations; under ``--workers`` each
line reads the request's live counters (units done, embeddings so
far).  ``--json`` (match/count)
emits one machine-readable object (``"schema": 1``) on stdout and
silences the stderr counter lines.

Service telemetry (DESIGN.md §13): ``serve`` retains per-request
*flight records* (``--flight-records``, dumped in-band with
``{"op": "flight"}`` and rendered by ``repro flight``), exposes the
live metrics registry over HTTP (``--metrics-port``, Prometheus text at
``/metrics``), logs requests slower than ``--slow-ms`` as flight-shaped
JSONL (``--slow-log``, rendered plan-first by ``repro explain``), and
appends one features+costs record per request to a size-rotated
query-history store (``--history``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .core import CECIMatcher, MatchStats
from .core.persist import save_ceci
from .observability import (
    ProgressReporter,
    TraceError,
    Tracer,
    summarize_trace,
)
from .resilience import Budget
from .graph import (
    Graph,
    erdos_renyi,
    inject_labels,
    kronecker,
    load_csr_binary,
    load_edge_list,
    load_graph_format,
    power_law,
    save_graph_format,
)

__all__ = ["main"]

#: Version stamped into every machine-readable stdout object
#: (``stats``, ``match --json``, ``count --json``); bump on
#: incompatible shape changes so downstream parsers can refuse cleanly.
OUTPUT_SCHEMA = 1


def _load_graph(path: str) -> Graph:
    if path.endswith(".graph"):
        return load_graph_format(path)
    if path.endswith(".csr"):
        return load_csr_binary(path)
    return load_edge_list(path)


def _budget_from(args: argparse.Namespace) -> Optional[Budget]:
    if getattr(args, "timeout", None) is None and (
        getattr(args, "max_calls", None) is None
    ):
        return None
    return Budget(
        deadline_seconds=args.timeout, max_calls=args.max_calls
    )


def _make_matcher(args: argparse.Namespace) -> CECIMatcher:
    tracer = None
    if getattr(args, "trace", None):
        tracer = Tracer(args.trace)
    matcher = CECIMatcher(
        _load_graph(args.query),
        _load_graph(args.data),
        order_strategy=args.order,
        break_automorphisms=not args.all_autos,
        budget=_budget_from(args),
        tracer=tracer,
    )
    if getattr(args, "progress", False):
        matcher.progress = ProgressReporter(
            matcher.stats,
            interval=getattr(args, "progress_interval", 1.0),
            tracer=matcher.tracer if matcher.tracer.enabled else None,
        )
    return matcher


def _emit_metrics(args: argparse.Namespace, stats) -> None:
    """Dump the full metrics registry to stderr when ``--metrics`` asks
    for it (stderr so machine-readable stdout stays clean)."""
    fmt = getattr(args, "metrics", None)
    if not fmt:
        return
    registry = stats.registry()
    if fmt == "json":
        print(json.dumps(registry.as_dict(), indent=2), file=sys.stderr)
    else:
        print(registry.to_prom(), file=sys.stderr, end="")


def _run_embeddings(args: argparse.Namespace):
    """Shared match/count execution: returns ``(embeddings, truncated,
    stop_reason, stats, elapsed)``, or the error string of a request
    the service could not answer.  ``--workers K`` (K > 1) goes through
    :func:`_run_on_service`; otherwise the sequential matcher runs."""
    if (args.workers or 1) > 1:
        return _run_on_service(args)
    matcher = _make_matcher(args)
    try:
        started = time.perf_counter()
        result = matcher.run(limit=args.limit)
        elapsed = time.perf_counter() - started
    finally:
        matcher.tracer.close()
    return (
        result.embeddings, result.truncated, result.stop_reason,
        matcher.stats, elapsed,
    )


def _run_on_service(args: argparse.Namespace):
    """One request on ``MatchService(workers=K)``.  A ``limit`` or a
    budget runs solo, so its prefix is the sequential one; an unbounded
    request runs as one task per worker share of its clusters (the LPT
    plan over their cardinalities) and merges in pivot order."""
    from .service import MatchRequest, MatchService, Status

    query = _load_graph(args.query)
    data = _load_graph(args.data)
    tracer = Tracer(args.trace) if args.trace else None
    progress = None
    if args.progress:
        # Workers tick their own enumerators, not this reporter: it
        # prints heartbeats from the request's live counters while the
        # caller waits, and one closing line over the request's stats.
        progress = ProgressReporter(
            MatchStats(), interval=args.progress_interval, tracer=tracer
        ).start()
    try:
        with MatchService(
            data, workers=args.workers, order_strategy=args.order,
            tracer=tracer,
        ) as service:
            started = time.perf_counter()
            pending = service.submit(MatchRequest(
                query,
                limit=args.limit,
                budget=_budget_from(args),
                break_automorphisms=not args.all_autos,
            ))
            response = _await_response(pending, progress)
            elapsed = time.perf_counter() - started
        if progress is not None:
            progress.stats = response.stats
            progress.finish(force=True)
    finally:
        if tracer is not None:
            tracer.close()
    if response.status not in (Status.OK, Status.TRUNCATED):
        return f"{response.status}: {response.error}"
    return (
        response.embeddings, response.truncated, response.stop_reason,
        response.stats, elapsed,
    )


def _await_response(pending, progress: Optional[ProgressReporter]):
    """Wait for ``pending``'s response.  With a reporter (and a
    positive interval) the wait runs in ``--progress-interval`` slices,
    and each slice that passes without a result prints one heartbeat
    from the request's live counters: units done, calls and embeddings
    so far."""
    if progress is None or progress.interval <= 0:
        return pending.result()
    while True:
        try:
            return pending.result(timeout=progress.interval)
        except TimeoutError:
            progress.heartbeat(*pending.progress())


def _cmd_enumerate(args: argparse.Namespace) -> int:
    """``match`` (list the embeddings) and ``count``."""
    outcome = _run_embeddings(args)
    if isinstance(outcome, str):
        print(f"error: {outcome}", file=sys.stderr)
        return 1
    embeddings, truncated, stop_reason, stats, elapsed = outcome
    listing = args.command == "match"
    if args.json:
        payload = {
            "schema": OUTPUT_SCHEMA,
            "command": args.command,
            "count": len(embeddings),
        }
        if listing:
            payload["embeddings"] = [
                [int(v) for v in embedding] for embedding in embeddings
            ]
        payload.update(
            truncated=truncated,
            stop_reason=stop_reason,
            elapsed_seconds=elapsed,
            stats=stats.registry().as_dict()["metrics"],
        )
        print(json.dumps(payload, indent=2))
    else:
        if listing:
            for embedding in embeddings:
                print(" ".join(str(v) for v in embedding))
            print(
                f"# {len(embeddings)} embeddings in {elapsed:.3f}s "
                f"({stats.recursive_calls} recursive calls)",
                file=sys.stderr,
            )
        else:
            print(len(embeddings))
            print(f"# counted in {elapsed:.3f}s", file=sys.stderr)
        if truncated:
            print(f"# truncated: {stop_reason}", file=sys.stderr)
    _emit_metrics(args, stats)
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    matcher = _make_matcher(args)
    try:
        ceci = matcher.build()
        save_ceci(ceci, args.out)
        print(
            f"index written to {args.out}: {len(ceci.pivots)} clusters, "
            f"{matcher.stats.te_candidate_edges} TE + "
            f"{matcher.stats.nte_candidate_edges} NTE "
            f"candidate edges",
            file=sys.stderr,
        )
        _emit_metrics(args, matcher.stats)
        return 0
    finally:
        matcher.tracer.close()


def _cmd_stats(args: argparse.Namespace) -> int:
    matcher = _make_matcher(args)
    try:
        result = matcher.run(limit=args.limit)
    finally:
        matcher.tracer.close()
    stats = matcher.stats
    query = matcher.query
    data = matcher.data
    print(json.dumps({
        "schema": OUTPUT_SCHEMA,
        "embeddings": stats.embeddings_found,
        "truncated": result.truncated,
        "stop_reason": result.stop_reason,
        "budget_stops": stats.budget_stops,
        "recursive_calls": stats.recursive_calls,
        "intersections": stats.intersections,
        "edge_verifications": stats.edge_verifications,
        "kernel_array_calls": stats.kernel_array_calls,
        "candidates_scanned": stats.candidates_initial,
        "removed": {
            "label": stats.removed_by_label,
            "degree": stats.removed_by_degree,
            "nlc": stats.removed_by_nlc,
            "cascade": stats.removed_by_cascade,
            "refinement": stats.removed_by_refinement,
        },
        "index_bytes": stats.index_bytes,
        "memory_bytes": stats.memory_bytes,
        "theoretical_bytes": stats.theoretical_bytes(
            query.num_edges, data.num_edges
        ),
        "phases_seconds": stats.phase_seconds,
    }, indent=2))
    _emit_metrics(args, stats)
    return 0


def _service_from(args: argparse.Namespace, data: Graph, tracer=None):
    """The service ``args`` ask for: the thread executor, or with
    ``--shards N`` the shard executor — one front end, so both tiers
    take the same options."""
    from .resilience.recovery import RetryPolicy
    from .service import MatchService, ShardedMatchService

    retry_policy = None
    if args.retries > 0:
        retry_policy = RetryPolicy(
            max_retries=args.retries,
            backoff_base_seconds=0.01,
            backoff_max_seconds=1.0,
        )
    options = dict(
        max_pending=args.max_pending,
        index_capacity=args.index_capacity,
        spill_dir=args.spill_dir,
        order_strategy=args.order,
        deadline_seconds=args.deadline,
        retry_policy=retry_policy,
        spill_max_bytes=args.spill_max_bytes,
        # Telemetry knobs (serve wires them; bench-service leaves the
        # defaults, i.e. telemetry fully off — the measured baseline).
        flight_records=getattr(args, "flight_records", 0) or 0,
        history=getattr(args, "history", None),
        slow_ms=getattr(args, "slow_ms", None),
        slow_log=getattr(args, "slow_log", None),
        fold_request_stats=bool(getattr(args, "fold_request_stats", False)),
        tracer=tracer,
    )
    if args.shards:
        return ShardedMatchService(data, shards=args.shards, **options)
    return MatchService(data, workers=args.workers or 2, **options)


def _emit_service_metrics(args: argparse.Namespace, service) -> None:
    fmt = getattr(args, "metrics", None)
    if not fmt:
        return
    if fmt == "json":
        print(json.dumps(service.snapshot(), indent=2), file=sys.stderr)
    else:
        print(service.metrics.to_prom(), file=sys.stderr, end="")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .observability import MetricsExporter
    from .service.server import serve

    data = _load_graph(args.data)
    if args.metrics_port is not None:
        # A scrape endpoint without the per-request counter folds would
        # only ever show admission/cache/worker counters; the point of
        # the endpoint is the full registry.
        args.fold_request_stats = True
    tracer = Tracer(args.trace) if getattr(args, "trace", None) else None
    exporter = None
    try:
        with _service_from(args, data, tracer=tracer) as service:
            if args.metrics_port is not None:
                # Scrapes merge the live registry and stamp the
                # instantaneous gauges (in-flight, queue depth, healthy
                # workers) at request time.
                exporter = MetricsExporter(
                    service.metrics_snapshot, port=args.metrics_port
                )
                print(f"# metrics: {exporter.url}", file=sys.stderr)
            handled = serve(service, sys.stdin, sys.stdout)
            print(f"# served {handled} requests", file=sys.stderr)
            _emit_service_metrics(args, service)
    finally:
        if exporter is not None:
            exporter.close()
        if tracer is not None:
            tracer.close()
    return 0


def _cmd_bench_service(args: argparse.Namespace) -> int:
    from .service.loadgen import run_benchmark

    if args.data:
        data = _load_graph(args.data)
    else:
        data = inject_labels(
            power_law(args.vertices, 3, seed=args.graph_seed),
            args.labels,
            seed=args.graph_seed,
        )
    if args.chaos:
        return _bench_chaos(args, data)
    if args.shard_sweep:
        return _bench_shard_sweep(args, data)
    with _service_from(args, data) as service:
        report = run_benchmark(
            service,
            num_queries=args.queries,
            mixed_requests=args.requests,
            seed=args.seed,
            min_vertices=args.min_vertices,
            max_vertices=args.max_vertices,
            max_embeddings=args.max_embeddings,
        )
        _emit_service_metrics(args, service)
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    print(
        f"# warm speedup {report['warm_speedup']:.1f}x, "
        f"p95 latency {report['latency']['p95_seconds'] * 1e3:.1f}ms, "
        f"{report['throughput_rps']:.0f} req/s",
        file=sys.stderr,
    )
    return 0


def _bench_shard_sweep(args: argparse.Namespace, data: Graph) -> int:
    """``bench-service --shard-sweep``: the horizontal-scaling sweep
    (emits ``BENCH_shard.json``)."""
    from .service.loadgen import run_shard_benchmark

    try:
        shard_counts = [
            int(token) for token in args.shard_sweep.split(",") if token
        ]
    except ValueError:
        print(f"error: bad --shard-sweep {args.shard_sweep!r} "
              "(want e.g. 1,2,4)", file=sys.stderr)
        return 2
    if not shard_counts or any(count < 1 for count in shard_counts):
        print("error: --shard-sweep needs positive shard counts",
              file=sys.stderr)
        return 2
    report = run_shard_benchmark(
        data,
        shard_counts=shard_counts,
        num_queries=args.queries,
        requests=args.requests,
        seed=args.seed,
        min_vertices=args.min_vertices,
        max_vertices=args.max_vertices,
        max_embeddings=args.max_embeddings,
        index_capacity=args.index_capacity,
    )
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    for point in report["points"]:
        print(
            f"# shards={point['shards']}: "
            f"critical path {point['critical_path_seconds'] * 1e3:.1f}ms, "
            f"shard speedup {point['shard_speedup']:.2f}x "
            f"(wall {point['wall_speedup']:.2f}x), "
            f"balance {point['balance']:.2f}",
            file=sys.stderr,
        )
    return 0


def _bench_chaos(args: argparse.Namespace, data: Graph) -> int:
    """``bench-service --chaos``: seeded fault injection with a hard
    gate — zero wrong results, bounded availability loss, and a
    full-strength worker pool, or a non-zero exit."""
    from .service.loadgen import run_chaos

    shards = getattr(args, "shards", 0) or 0
    report = run_chaos(
        data,
        num_queries=args.queries,
        requests=args.requests,
        seed=args.chaos_seed,
        workers=args.workers or 2,
        max_retries=args.retries or 2,
        deadline_seconds=args.deadline,
        spill_dir=args.spill_dir,
        min_vertices=args.min_vertices,
        max_vertices=args.max_vertices,
        max_embeddings=args.max_embeddings,
        shards=shards,
        shard_crash_fraction=args.shard_crash_fraction if shards else 0.0,
        shard_stall_fraction=args.shard_stall_fraction if shards else 0.0,
        publish_torn_fraction=args.publish_torn_fraction if shards else 0.0,
    )
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    wrong = report["wrong_results"]
    availability = report["availability"]
    full_strength = report["pool_full_strength"]
    print(
        f"# chaos: {report['statuses']['ok']}/{args.requests} ok "
        f"(availability {availability:.2f}), "
        f"{len(wrong)} wrong results, "
        f"{report['retries_total']} retries, "
        f"{report['worker_respawns']} respawns, "
        f"pool {'full' if full_strength else 'DEGRADED'}",
        file=sys.stderr,
    )
    failures = []
    if wrong:
        failures.append(f"{len(wrong)} wrong results (must be 0)")
    if availability < args.min_availability:
        failures.append(
            f"availability {availability:.2f} below the "
            f"--min-availability {args.min_availability} gate"
        )
    pool_size = shards if shards else (args.workers or 2)
    if not full_strength:
        failures.append(
            f"worker pool degraded: {report['healthy_workers']} of "
            f"{pool_size} workers alive"
        )
    if failures:
        print("# chaos gate FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    try:
        print(summarize_trace(args.file, as_json=args.json))
    except (OSError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _load_flight_file(args: argparse.Namespace):
    """Shared loader for ``repro flight`` / ``repro explain``: read +
    validate the records, apply the ``--request`` filter.  Returns the
    record list, or an exit code on error."""
    from .observability import load_flight_records, validate_flight_record

    try:
        records = load_flight_records(args.file)
        for record in records:
            validate_flight_record(record)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.request is not None:
        records = [
            record for record in records
            if record.get("request_id") == args.request
        ]
    if not records:
        which = (
            f"no flight record for request {args.request}"
            if args.request is not None
            else "no flight records"
        )
        print(f"error: {which} in {args.file}", file=sys.stderr)
        return 1
    return records


def _cmd_flight(args: argparse.Namespace) -> int:
    from .observability import render_flight

    return _print_flight_records(args, render_flight)


def _cmd_explain(args: argparse.Namespace) -> int:
    from .observability import render_explain

    return _print_flight_records(args, render_explain)


def _print_flight_records(args: argparse.Namespace, render) -> int:
    records = _load_flight_file(args)
    if isinstance(records, int):
        return records
    try:
        if args.json:
            print(json.dumps(records, indent=2))
        else:
            print("\n\n".join(render(record) for record in records))
    except OSError as exc:  # e.g. a downstream `head` closing the pipe
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "powerlaw":
        graph = power_law(args.vertices, args.edges_per_vertex, seed=args.seed)
    elif args.kind == "kronecker":
        scale = max(args.vertices - 1, 1).bit_length()
        graph = kronecker(scale, args.edges_per_vertex, seed=args.seed)
    elif args.kind == "erdos":
        graph = erdos_renyi(
            args.vertices, args.vertices * args.edges_per_vertex, seed=args.seed
        )
    else:
        raise ValueError(f"unknown generator {args.kind!r}")
    if args.labels > 1:
        graph = inject_labels(graph, args.labels, seed=args.seed)
    save_graph_format(graph, args.out)
    print(
        f"wrote {args.out}: |V|={graph.num_vertices} |E|={graph.num_edges} "
        f"labels={len(graph.distinct_labels())}",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CECI subgraph matching (SIGMOD 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_match_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("query", help="query graph file")
        p.add_argument("data", help="data graph file")
        p.add_argument("--limit", type=int, default=None,
                       help="stop after N embeddings")
        p.add_argument("--order", default="bfs",
                       choices=["bfs", "edge_ranked", "path_ranked"],
                       help="matching-order strategy")
        p.add_argument("--all-autos", action="store_true",
                       help="list every automorphism (no symmetry breaking)")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="wall-clock budget in seconds; the run returns "
                            "a flagged partial answer instead of hanging")
        p.add_argument("--max-calls", type=int, default=None, metavar="N",
                       help="recursive-call budget (the paper's "
                            "search-space proxy)")
        p.add_argument("--trace", default=None, metavar="FILE.jsonl",
                       help="write phase/span trace events as "
                            "JSON lines (render with 'repro trace "
                            "summarize FILE.jsonl')")
        p.add_argument("--metrics", default=None, choices=["json", "prom"],
                       help="dump the full metrics registry to stderr "
                            "after the run")
        p.add_argument("--progress", action="store_true",
                       help="print a heartbeat line (calls/s, "
                            "embeddings/s, budget left, ETA) on stderr "
                            "during enumeration")
        p.add_argument("--progress-interval", type=float, default=1.0,
                       metavar="S",
                       help="seconds between --progress heartbeats "
                            "(default 1.0)")

    for name, help_text in (
        ("match", "list embeddings"), ("count", "count embeddings"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        add_match_args(p_run)
        p_run.add_argument("--workers", type=int, default=None, metavar="K",
                           help="run the query on a match service with K "
                                "worker threads (same output as the "
                                "sequential run)")
        p_run.add_argument("--json", action="store_true",
                           help="emit one machine-readable object on "
                                "stdout and silence the stderr counter "
                                "lines")
        p_run.set_defaults(fn=_cmd_enumerate)

    p_index = sub.add_parser("index", help="build and persist a CECI index")
    add_match_args(p_index)
    p_index.add_argument("out", help="output .ceci file")
    p_index.set_defaults(fn=_cmd_index)

    p_stats = sub.add_parser("stats", help="pipeline statistics as JSON")
    add_match_args(p_stats)
    p_stats.set_defaults(fn=_cmd_stats)

    def add_service_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=None, metavar="K",
                       help="service worker threads (default 2)")
        p.add_argument("--shards", type=int, default=0, metavar="N",
                       help="run the units on N worker processes "
                            "instead of threads: mmap'd CECIIDX3 "
                            "indexes, pivot partitions fanned across "
                            "them and merged exactly (0 = the thread "
                            "pool; every other option applies to both; "
                            "not combinable with --workers)")
        p.add_argument("--max-pending", type=int, default=64,
                       help="admission limit: requests beyond this many "
                            "in flight are shed with status 'rejected'")
        p.add_argument("--index-capacity", type=int, default=32,
                       help="cross-query index cache entries (LRU)")
        p.add_argument("--spill-dir", default=None, metavar="DIR",
                       help="spill evicted indexes as CECIIDX3 blobs "
                            "here (the cache's warm tier)")
        p.add_argument("--order", default="bfs",
                       choices=["bfs", "edge_ranked", "path_ranked"],
                       help="service-wide matching-order strategy")
        p.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default end-to-end request deadline "
                            "(queue wait + index build + matching); "
                            "expired requests resolve status 'timeout'")
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="transparently re-run requests failed by "
                            "worker crashes up to N times "
                            "(exponential backoff + jitter; default 0)")
        p.add_argument("--spill-max-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="byte-bound the spill directory; oldest "
                            "spill files are LRU-evicted past it")
        p.add_argument("--metrics", default=None, choices=["json", "prom"],
                       help="dump the service metrics registry and "
                            "cache snapshots to stderr on shutdown")

    p_serve = sub.add_parser(
        "serve",
        help="resident query service over one data graph "
             "(JSON lines on stdin/stdout)",
    )
    p_serve.add_argument("data", help="data graph file")
    add_service_args(p_serve)
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve the live metrics registry over HTTP "
                              "on 127.0.0.1:PORT (/metrics Prometheus "
                              "text, /metrics.json, /healthz; 0 picks an "
                              "ephemeral port, printed to stderr)")
    p_serve.add_argument("--flight-records", type=int, default=256,
                         metavar="N",
                         help="retain the last N per-request flight "
                              "records, dumpable in-band with "
                              "{\"op\": \"flight\"} and rendered by "
                              "'repro flight' (0 disables; default 256)")
    p_serve.add_argument("--slow-ms", type=float, default=None,
                         metavar="MS",
                         help="log requests slower than MS wall "
                              "milliseconds as JSONL flight records "
                              "(render with 'repro explain')")
    p_serve.add_argument("--slow-log", default=None, metavar="FILE",
                         help="slow-query log destination (default "
                              "stderr is NOT used — without this flag "
                              "slow records are dropped)")
    p_serve.add_argument("--history", default=None, metavar="FILE",
                         help="append one query-history record per "
                              "request (features + observed phase costs) "
                              "to this size-rotated JSONL store")
    p_serve.add_argument("--trace", default=None, metavar="FILE.jsonl",
                         help="write service phase events (queue/build/"
                              "enumerate, request-tagged) as a trace "
                              "file for 'repro trace summarize'")
    p_serve.add_argument("--fold-request-stats", action="store_true",
                         help="continuously fold each request's counter "
                              "registry into the service-wide metrics "
                              "(adds per-request overhead; implied "
                              "whenever --metrics-port wants rich "
                              "counters)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_bench = sub.add_parser(
        "bench-service",
        help="deterministic open-loop service benchmark "
             "(emits BENCH_service.json)",
    )
    p_bench.add_argument("--data", default=None,
                         help="data graph file (default: generate a "
                              "labeled power-law graph)")
    p_bench.add_argument("--vertices", type=int, default=10000,
                         help="generated data graph size")
    p_bench.add_argument("--labels", type=int, default=24,
                         help="generated data graph label count")
    p_bench.add_argument("--graph-seed", type=int, default=7,
                         help="generated data graph seed")
    p_bench.add_argument("--queries", type=int, default=6,
                         help="distinct queries in the workload")
    p_bench.add_argument("--requests", type=int, default=30,
                         help="open-loop mixed-phase request count")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="workload seed")
    p_bench.add_argument("--min-vertices", type=int, default=6,
                         help="smallest query size")
    p_bench.add_argument("--max-vertices", type=int, default=8,
                         help="largest query size")
    p_bench.add_argument("--max-embeddings", type=int, default=200,
                         help="screen out queries with more embeddings "
                              "than this (keeps the bench measuring "
                              "index reuse, not enumeration)")
    p_bench.add_argument("--out", default=None, metavar="FILE",
                         help="also write the report JSON to FILE")
    p_bench.add_argument("--chaos", action="store_true",
                         help="run the seeded fault-injection harness "
                              "instead of the benchmark: inject worker "
                              "crashes, build failures and spill "
                              "corruption, then gate on zero wrong "
                              "results, bounded availability loss and "
                              "a full-strength pool")
    p_bench.add_argument("--chaos-seed", type=int, default=0,
                         help="seed of the injected fault plan")
    p_bench.add_argument("--min-availability", type=float, default=0.6,
                         help="chaos gate: minimum fraction of requests "
                              "that must still complete OK")
    p_bench.add_argument("--shard-crash-fraction", type=float, default=0.1,
                         help="chaos with --shards: fraction of shard "
                              "tasks whose worker process is killed "
                              "mid-query (respawn + redispatch)")
    p_bench.add_argument("--shard-stall-fraction", type=float, default=0.0,
                         help="chaos with --shards: fraction of shard "
                              "tasks stalled before execution")
    p_bench.add_argument("--publish-torn-fraction", type=float, default=0.0,
                         help="chaos with --shards: fraction of shared "
                              "CECIIDX3 publishes torn mid-write "
                              "(checksum detection + republish)")
    p_bench.add_argument("--shard-sweep", default=None, metavar="N,N,...",
                         help="run the horizontal-scaling sweep instead: "
                              "the same workload at each shard count "
                              "(e.g. 1,2,4), reporting per-point "
                              "critical-path shard_speedup; emits "
                              "BENCH_shard.json via --out")
    add_service_args(p_bench)
    p_bench.set_defaults(fn=_cmd_bench_service)

    p_trace = sub.add_parser("trace", help="inspect trace files")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summ = trace_sub.add_parser(
        "summarize",
        help="per-phase / per-worker breakdown of a --trace JSONL file",
    )
    p_summ.add_argument("file", help="trace file written by --trace")
    p_summ.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of a table")
    p_summ.set_defaults(fn=_cmd_trace_summarize)

    p_flight = sub.add_parser(
        "flight",
        help="render per-request flight records (lifecycle timeline, "
             "plan facts, phase timings) from an {\"op\": \"flight\"} "
             "dump or a slow-query log",
    )
    p_flight.add_argument("file", help="flight dump / slow-log JSONL file")
    p_flight.add_argument("--request", type=int, default=None, metavar="ID",
                          help="only the record(s) of this request id")
    p_flight.add_argument("--json", action="store_true",
                          help="emit the validated records as JSON")
    p_flight.set_defaults(fn=_cmd_flight)

    p_explain = sub.add_parser(
        "explain",
        help="plan-first rendering of flight records — why a (slow) "
             "request cost what it did",
    )
    p_explain.add_argument("file", help="flight dump / slow-log JSONL file")
    p_explain.add_argument("--request", type=int, default=None,
                           metavar="ID",
                           help="only the record(s) of this request id")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the validated records as JSON")
    p_explain.set_defaults(fn=_cmd_explain)

    p_gen = sub.add_parser("generate", help="generate a synthetic graph")
    p_gen.add_argument("kind", choices=["powerlaw", "kronecker", "erdos"])
    p_gen.add_argument("out", help="output .graph file")
    p_gen.add_argument("--vertices", type=int, default=1000)
    p_gen.add_argument("--edges-per-vertex", type=int, default=4)
    p_gen.add_argument("--labels", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=_cmd_generate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``python -m repro``)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "timeout", None) is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if getattr(args, "max_calls", None) is not None and args.max_calls <= 0:
        parser.error("--max-calls must be positive")
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if getattr(args, "shards", 0) and (
        getattr(args, "workers", None) is not None
    ):
        parser.error("--workers sizes the thread pool; it does not "
                     "combine with --shards")
    if getattr(args, "progress_interval", None) is not None and (
        args.progress_interval < 0
    ):
        parser.error("--progress-interval must be >= 0")
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
