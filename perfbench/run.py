"""Wall-clock benchmark driver with per-layer attribution.

Run one workload for one seed and print its metrics::

    python3 perfbench/run.py --workload svc-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (see
README.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the
root of a checkout: the program is imported from ``src/`` next to this
directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional

import oracle
import rss
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Traced span time must agree with the phase seconds the program books
#: in ``MatchStats.phase_seconds`` within this share of the booked time,
#: plus the wrapper's own cost per span (which the program's phase
#: clock sees but the span's does not).
RECONCILE_TOLERANCE = 0.05
RECONCILE_PER_SPAN_S = 10e-6

#: Phases the program books, and the span layer that must account for each.
RECONCILED_PHASES = ("filter", "refine", "freeze", "enumerate")

#: Untimed single-caller passes whose smallest peak is ``peak_rss_mb``.
MEMORY_PASSES = 3


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or stop: the
    benchmark must never measure a copy of the program from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def percentile(values: List[float], q: float) -> float:
    """The ``q`` quantile, interpolated between the samples around it
    (``statistics.quantiles`` inclusive method, so 0.5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(segment, setup_times: List[float], rss: float) -> Dict:
    """Every rate and percentile is computed per pass and the run
    reports the median over its passes, so a burst of interference from
    outside the process moves at most a minority of them."""
    passes = segment.passes()

    def median_over_passes(of_pass) -> float:
        return statistics.median(of_pass(wall, chunk) for wall, chunk in passes)

    def latency(q):
        return lambda wall, chunk: 1000 * percentile([s.latency for s in chunk], q)

    return {
        "throughput_qps": (
            median_over_passes(lambda wall, chunk: len(chunk) / wall), "1/s"
        ),
        "embeddings_per_s": (
            median_over_passes(
                lambda wall, chunk: sum(s.embeddings for s in chunk) / wall
            ),
            "1/s",
        ),
        "latency_p50_ms": (median_over_passes(latency(0.50)), "ms"),
        "latency_p95_ms": (median_over_passes(latency(0.95)), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def per_layer(segment, untraced, recorder, before, after, shards: int) -> Dict:
    """Per-layer metrics of the traced ``segment``; ``untraced`` is the
    untraced segment that ran just before it, ``before``/``after`` the
    service's counters around it.  The graph and publish spans come
    from the traced set-up."""
    spans = tracing.in_window(recorder.spans, segment.t0, segment.t1)
    window_self = tracing.self_times(spans)
    graph_spans = [s for s in recorder.spans if s.name == "graph"]
    samples = segment.samples
    requests = len(samples)
    stats = [s.stats for s in samples if s.stats is not None]
    built = [st for st in stats if "filter" in st.phase_seconds]
    builds = len(built)

    def total(field: str, rows) -> int:
        return sum(getattr(st, field) for st in rows)

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    initial = total("candidates_initial", built)
    pruned = sum(
        total(f, built)
        for f in ("removed_by_label", "removed_by_degree",
                  "removed_by_nlc", "removed_by_cascade")
    )
    embeddings = total("embeddings_found", stats)
    out = {
        "graph.build_s": (sum(s.end - s.start for s in graph_spans), "s"),
        "plan.busy_ms": (per(1000 * window_self.get("plan", 0.0), builds), "ms"),
        "plan.candidates": (per(initial, builds), "count"),
        "filter.busy_ms": (per(1000 * window_self.get("filter", 0.0), builds), "ms"),
        "filter.pruned_frac": (per(pruned, initial), "fraction"),
        "refine.busy_ms": (per(1000 * window_self.get("refine", 0.0), builds), "ms"),
        "refine.removed": (per(total("removed_by_refinement", built), builds), "count"),
        "freeze.busy_ms": (per(1000 * window_self.get("freeze", 0.0), builds), "ms"),
        "store.index_bytes": (per(total("memory_bytes", built), builds), "bytes"),
        "enumerate.busy_ms": (
            per(1000 * window_self.get("enumerate", 0.0), requests), "ms"
        ),
        "enumerate.rows_per_block": (
            per(total("batch_rows", stats), total("batch_blocks", stats)), "ratio"
        ),
        "enumerate.calls_per_embedding": (
            per(total("recursive_calls", stats), embeddings), "ratio"
        ),
        "kernels.array_calls": (
            per(total("kernel_array_calls", stats), requests), "count"
        ),
        "kernels.intersections_per_embedding": (
            per(total("intersections", stats), embeddings), "ratio"
        ),
    }

    # service.cache: counter deltas over the traced window, and the wall
    # time of get_or_build split by outcome.
    cache0, cache1 = before.get("cache"), after.get("cache")
    hit_ms, miss_ms = [], []
    for span in spans:
        if span.name == "cache":
            duration = 1000 * (span.end - span.start)
            (miss_ms if span.info == "miss" else hit_ms).append(duration)
    if cache0 is not None:
        delta = {k: cache1[k] - cache0[k] for k in
                 ("hits", "warm_hits", "coalesced", "misses", "evictions")}
        probes = sum(delta[k] for k in ("hits", "warm_hits", "coalesced", "misses"))
        served = probes - delta["misses"]
        out["cache.hit_rate"] = (per(served, probes), "fraction")
        out["cache.evictions"] = (delta["evictions"], "count")
        out["cache.coalesced"] = (delta["coalesced"], "count")
    else:
        out["cache.hit_rate"] = (0.0, "fraction")
        out["cache.evictions"] = (0, "count")
        out["cache.coalesced"] = (0, "count")
    out["cache.hit_ms"] = (statistics.mean(hit_ms) if hit_ms else 0.0, "ms")
    out["cache.miss_ms"] = (statistics.mean(miss_ms) if miss_ms else 0.0, "ms")

    # service.scheduler / service.service: from the responses.
    responses = [s.service for s in samples if s.service is not None]
    waits = [1000 * (total_s - service_s) for total_s, service_s, _ in responses]
    service = [1000 * service_s for _, service_s, _ in responses]
    out["svc.queue_wait_ms"] = (percentile(waits, 0.5) if waits else 0.0, "ms")
    out["svc.service_ms"] = (percentile(service, 0.5) if service else 0.0, "ms")
    out["svc.rejected"] = (
        sum(1 for *_, status in responses if status == "rejected"), "count"
    )

    # service.shards: busy seconds and task counts over the window.
    shard0, shard1 = before.get("shards"), after.get("shards")
    if shard0 is not None:
        busy = [b - a for a, b in zip(shard0["busy_seconds"], shard1["busy_seconds"])]
        tasks = sum(shard1["tasks"]) - sum(shard0["tasks"])
        out["shards.plan_ms"] = (
            per(1000 * window_self.get("fanout", 0.0), requests), "ms"
        )
        out["shards.busy_s"] = (sum(busy), "s")
        out["shards.idle_frac"] = (1 - sum(busy) / (shards * segment.wall), "fraction")
        out["shards.balance"] = (per(min(busy), max(busy)), "ratio")
        out["shards.tasks_per_request"] = (per(tasks, requests), "ratio")
    else:
        out["shards.plan_ms"] = (0.0, "ms")
        out["shards.busy_s"] = (0.0, "s")
        out["shards.idle_frac"] = (0.0, "fraction")
        out["shards.balance"] = (0.0, "ratio")
        out["shards.tasks_per_request"] = (0.0, "ratio")

    # core.persist: publishes happen during set-up (indexes are warmed).
    publishes = [s for s in recorder.spans if s.name == "publish"]
    out["persist.publish_ms"] = (
        statistics.mean(1000 * (s.end - s.start) for s in publishes)
        if publishes else 0.0, "ms",
    )
    out["persist.publish_bytes"] = (
        statistics.mean(s.info for s in publishes) if publishes else 0.0,
        "bytes",
    )

    out["unattributed_frac"] = (
        tracing.unattributed(spans, segment.t0, segment.t1), "fraction"
    )
    traced_qps = requests / segment.wall
    untraced_qps = len(untraced.samples) / untraced.wall
    out["trace.overhead_frac"] = (1 - traced_qps / untraced_qps, "fraction")
    out["trace.reconcile_err"] = (reconcile(spans, stats), "fraction")
    return out


def reconcile(spans, stats) -> float:
    """Largest relative disagreement between a layer's traced span time
    and the matching phase the program books, over the phases whose work
    ran in this process.  Every phase outside the tolerance is reported
    on standard error."""
    layer_total: Dict[str, float] = {}
    layer_spans: Dict[str, int] = {}
    by_id = {s.sid: s for s in spans}
    for span in spans:
        layer_spans[span.name] = layer_spans.get(span.name, 0) + 1
        parent = by_id.get(span.parent)
        if parent is not None and parent.name == span.name:
            continue  # counted by its outermost same-layer ancestor
        layer_total[span.name] = layer_total.get(span.name, 0.0) + (
            span.end - span.start
        )
    worst = 0.0
    for phase in RECONCILED_PHASES:
        booked = sum(st.phase_seconds.get(phase, 0.0) for st in stats)
        traced = layer_total.get(phase, 0.0)
        if booked <= 0 or traced <= 0:
            continue  # the phase ran in no process span of this run
        error = abs(traced - booked) / booked
        worst = max(worst, error)
        allowed = (
            RECONCILE_TOLERANCE * booked
            + RECONCILE_PER_SPAN_S * layer_spans[phase]
        )
        if abs(traced - booked) > allowed:
            print(
                f"perfbench: reconcile: {phase} spans {traced:.4f}s vs "
                f"booked {booked:.4f}s ({100 * error:.1f}% apart)",
                file=sys.stderr,
            )
    return worst


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    expected: Optional[Dict] = None,
) -> Dict:
    """Run one workload in this process; returns the result object."""
    from workloads import WORKLOADS, Feed, drive

    if expected is None:
        expected = oracle.load_expected()
    workload = WORKLOADS[workload_name](scale, seed, expected[scale])
    checker = workload.checker()
    shards = 2 if workload_name == "shard-fanout" else 0
    recorder = tracing.Recorder() if trace else None
    # The inputs are generated: from here on the peak is the program's.
    gc.collect()
    rss.release_free_heap()
    driver_rss = rss.reset_peak()

    setup_times: List[float] = []

    def timed_setup():
        gc.collect()
        if recorder is not None:
            recorder.install()
        started = time.perf_counter()
        try:
            system = workload.setup(recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        setup_times.append(time.perf_counter() - started)
        return system

    # Set up several times: the first half before the run, the last of
    # those serving it, and the rest after it, so the median samples
    # the host at both ends of the run.
    repeats = 1 if trace else workload.setup_repeats
    early = (repeats + 1) // 2
    for _ in range(early - 1):
        workload.close(timed_setup())
    system = timed_setup()
    setup_peak = rss.peak()
    # One GC policy for every run: collect once, then move the set-up's
    # long-lived objects out of the collector's generations so full
    # collections during the run do not walk the data graph.
    gc.collect()
    gc.freeze()

    # A traced run splits its time between an untraced and a traced
    # segment, which trace.overhead_frac compares.
    segment_seconds = seconds / 2 if trace else seconds
    request_ids = itertools.count(1)
    passes = workload.passes()
    try:
        # Untimed passes go one request at a time, in the pass's order
        # before the seeded rotation, so the heap they leave behind is
        # the same in every run.  First the warm-up, which also makes
        # the oracle's full check of every first answer.
        one_pass = Feed(iter([workload.one_pass()]), 0)
        drive(workload, system, one_pass, checker, request_ids, sequential=True)
        # Freeze what the warm-up left cached, too.
        gc.collect()
        gc.freeze()
        # Then the memory passes: before each, free heap and reset the
        # peaks (the shards' too); the smallest of their peaks counts.  Measured over the
        # timed passes instead, the peak jumped between levels 30-50 MiB
        # apart from run to run: which large answers and indexes are
        # alive at the same moment depends on how concurrent requests
        # (and, on shard-fanout, the two shards' replies) happen to
        # overlap and on when the collector runs, and what the heap
        # keeps afterwards depends on that and on the request order.
        pass_peaks: List[float] = []
        for _ in range(0 if trace else MEMORY_PASSES):
            gc.collect()
            workload.reset_peaks()
            one_pass = Feed(iter([workload.one_pass()]), 0)
            drive(workload, system, one_pass, checker, request_ids, sequential=True)
            pass_peaks.append(workload.peak_rss_mb())
        untraced = drive(
            workload, system, Feed(passes, segment_seconds), checker, request_ids
        )
        metrics = None
        if recorder is not None:
            before = workload.service_snapshot(system)
            recorder.install()
            try:
                traced = drive(
                    workload, system, Feed(passes, segment_seconds), checker,
                    request_ids, recorder,
                )
            finally:
                recorder.uninstall()
            after = workload.service_snapshot(system)
            metrics = per_layer(traced, untraced, recorder, before, after, shards)
            recorder.write(os.path.join(
                ".perfbench", f"trace-{workload_name}-{seed}.jsonl"
            ))
        else:
            peak_rss = max(setup_peak, min(pass_peaks))
        workload.final_checks(system, checker)
    finally:
        workload.close(system)
    del system
    gc.unfreeze()
    for _ in range(repeats - early):
        workload.close(timed_setup())
    if metrics is None:
        metrics = end_to_end(untraced, setup_times, peak_rss)
    for message in checker.errors:
        print(f"perfbench: wrong answer: {message}", file=sys.stderr)
    info = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale,
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "timed_wall_s": round(untraced.wall, 4),
        "timed_requests": len(untraced.samples),
        "pass_seconds": [round(wall, 4) for wall, _ in untraced.passes()],
        "setup_s_samples": [round(t, 4) for t in setup_times],
        "driver_rss_mb": round(driver_rss, 1),
        "setup_peak_mb": round(setup_peak, 1),
        "memory_pass_peaks_mb": [round(p, 1) for p in pass_peaks],
    }
    return {
        "info": info,
        "result": {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "lib-build", "lib-enum", "svc-mix", "shard-fanout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _import_program()
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": outcome["info"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
