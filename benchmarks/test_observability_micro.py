"""Observability-overhead micro-benchmark (DESIGN.md §9).

The tracing layer's contract is that the *disabled* path is near-free:
with the default :class:`~repro.observability.tracer.NullTracer` and no
progress reporter, enumeration pays a ``None`` check per frontier block
and one ``tracer.enabled`` check per run.  This benchmark measures that
price on the engine that runs by default, the set-at-a-time batch
engine:

* **seed control** — an :class:`Enumerator` subclass whose batch path
  has the hooks taken out: no ``cluster`` records and no
  ``progress.tick_many``, i.e. the batch engine as it would read
  without the observability layer;
* **instrumented** — the shipping :class:`Enumerator` with observability
  left off (its default state).

Both run over the same pre-built index, in paired rounds so drift hits
both sides equally, on an instance where one enumeration takes about
0.2-0.3 s.  The acceptance bar: instrumented-but-disabled enumeration
within ``MAX_DISABLED_OVERHEAD`` of the seed.  For scale the report also
measures the *enabled* cost (tracing to a null sink), ungated: a traced
run keeps the untraced schedule and adds one ``cluster`` record per
pivot.

Results land in ``benchmarks/results/BENCH_observability.json``; the CI
observability job re-runs this and fails the build on a regression.
Timing is plain ``perf_counter``, so a bare
``pytest benchmarks/test_observability_micro.py`` works without
pytest-benchmark.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Dict, List

from repro import CECIMatcher
from repro.core.batch import BatchEngine
from repro.core.enumeration import Enumerator
from repro.graph import generate_query, inject_labels, power_law
from repro.observability import Tracer

#: Acceptance bar: (instrumented - seed) / seed with observability off.
MAX_DISABLED_OVERHEAD = 0.03

#: Paired timing rounds per variant.
ROUNDS = 20

#: A 5-vertex query with a non-tree edge, so every expansion runs the
#: batch engine's TE gather and NTE membership probe; one enumeration
#: (91 027 embeddings) takes 0.27-0.31 s on a 2-vCPU VM, far above
#: timer and scheduler noise.
INSTANCE = {"vertices": 3000, "labels": 2, "qsize": 5, "seed": 20}


class _SeedBatchEngine(BatchEngine):
    """:meth:`BatchEngine.blocks` and ``_emit`` for an unbudgeted,
    unlimited run — the same chunk rule, without the budget branch or
    the progress ticks — so the delta against the shipping engine is
    the hooks and nothing else."""

    def blocks(self, frontier, depth, remaining):
        total_depth = self.depth_total
        stats = self.stats
        stack = [(depth, frontier)]
        while stack:
            d, block = stack.pop()
            cap = self._chunk_rows(remaining)
            if len(block) > cap:
                stack.append((d, block[cap:]))
                block = block[:cap]
            if d >= total_depth:
                yield from self._emit(block, remaining)
                continue
            n_rows = len(block)
            stats.batch_blocks += 1
            stats.batch_rows += n_rows
            stats.recursive_calls += n_rows
            grown = self._expand(block, d)
            if grown is not None:
                stack.append((d + 1, grown))

    def _emit(self, block, remaining):
        self.stats.recursive_calls += len(block)
        self.stats.embeddings_found += len(block)
        yield block


class _SeedEnumerator(Enumerator):
    """:class:`Enumerator`'s block stream for an unlimited, unbudgeted
    run without tracer or progress hooks: the same all-pivots root
    frontier over the same units, through the engine above."""

    def _blocks(self, units, limit):
        assert limit is None and self._tracker is None
        engine = _SeedBatchEngine(self.ceci, self.symmetry, self.stats)
        frontier = engine.root_frontier([unit[0] for unit in units])
        yield from engine.blocks(frontier, 1, [None])


class _NullSink:
    """A write sink that discards everything (isolates event-formatting
    cost from disk)."""

    def write(self, text: str) -> None:
        return None

    def flush(self) -> None:
        return None


def _build_matcher():
    data = inject_labels(
        power_law(
            INSTANCE["vertices"], 5, seed=INSTANCE["seed"],
            min_edges_per_vertex=1,
        ),
        INSTANCE["labels"],
        seed=INSTANCE["seed"],
    )
    query = generate_query(data, INSTANCE["qsize"], seed=INSTANCE["seed"])
    matcher = CECIMatcher(query, data)
    matcher.build()
    return matcher


def _enumerator(matcher, cls, tracer=None):
    enumerator = cls(
        matcher.build(),
        symmetry=matcher.symmetry,
        stats=type(matcher.stats)(),
        tracer=tracer,
    )
    assert enumerator.engine == "batch"
    return enumerator


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def test_observability_micro(results_dir):
    matcher = _build_matcher()

    def run(cls, tracer=None):
        """Seconds for one full enumeration; the output dies in here so
        no run pays allocator pressure from a predecessor's result."""
        enumerator = _enumerator(matcher, cls, tracer=tracer)
        # A collection landing inside one timed run would skew a
        # single-digit-percent comparison; the host process (pytest)
        # carries a large heap, making that skew systematic.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            out = enumerator.collect()
            seconds = time.perf_counter() - start
            return seconds, len(out)
        finally:
            gc.enable()

    # Correctness gate (outside the timed rounds): the seed control must
    # produce the instrumented enumerator's exact embeddings through the
    # same blocks, and so must a traced run.
    seed = _enumerator(matcher, _SeedEnumerator)
    seed_set = seed.collect()
    inst = _enumerator(matcher, Enumerator)
    inst_set = inst.collect()
    traced = _enumerator(matcher, Enumerator, tracer=Tracer(_NullSink()))
    assert traced.collect() == inst_set
    assert seed_set == inst_set, (
        "seed control diverged from the instrumented enumerator"
    )
    for other in (seed, traced):
        assert (other.stats.batch_blocks, other.stats.batch_rows) == (
            inst.stats.batch_blocks, inst.stats.batch_rows
        ), "the schedules diverged"
    count = len(inst_set)
    assert count > 0, "workload produced no embeddings"
    del seed, seed_set, inst, inst_set, traced

    # Paired rounds: seed and instrumented run back to back, so bursty
    # machine noise (shared CI boxes) hits both sides of a ratio alike;
    # the pair order alternates so neither side always runs second; the
    # median ratio across rounds is the overhead estimator.
    best: Dict[str, float] = {"seed": float("inf"), "disabled": float("inf"),
                              "enabled": float("inf")}
    ratios: Dict[str, List[float]] = {"disabled": [], "enabled": []}
    null_tracer_sink = _NullSink()
    run(_SeedEnumerator)  # warm-up: page in the index and the code paths
    run(Enumerator)
    for round_index in range(ROUNDS):
        if round_index % 2:
            seconds, _ = run(Enumerator)
            seed_seconds, _ = run(_SeedEnumerator)
        else:
            seed_seconds, _ = run(_SeedEnumerator)
            seconds, _ = run(Enumerator)
        best["seed"] = min(best["seed"], seed_seconds)
        best["disabled"] = min(best["disabled"], seconds)
        ratios["disabled"].append(seconds / seed_seconds)
        tracer = Tracer(null_tracer_sink)
        seconds, _ = run(Enumerator, tracer=tracer)
        tracer.close()
        best["enabled"] = min(best["enabled"], seconds)
        ratios["enabled"].append(seconds / seed_seconds)

    disabled_overhead = _median(ratios["disabled"]) - 1.0
    enabled_overhead = _median(ratios["enabled"]) - 1.0

    report = {
        "generated_by": "benchmarks/test_observability_micro.py",
        "instance": dict(INSTANCE),
        "embeddings": count,
        "rounds": ROUNDS,
        "seed_seconds": best["seed"],
        "disabled_seconds": best["disabled"],
        "enabled_null_sink_seconds": best["enabled"],
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "acceptance": {
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "measured_disabled_overhead": disabled_overhead,
        },
    }
    path = os.path.join(results_dir, "BENCH_observability.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled-observability enumeration {disabled_overhead:.1%} "
        f"slower than the seed hot path "
        f"(bar: {MAX_DISABLED_OVERHEAD:.0%}); see {path}"
    )


# ---------------------------------------------------------------------------
# Service-path overhead (DESIGN.md §13)
# ---------------------------------------------------------------------------
#: Warm match() calls timed per round; the per-request telemetry cost is
#: a fixed few-microsecond term, so warm cache hits (no index build, a
#: tiny enumeration) are where it would show up.
SERVICE_REQUESTS_PER_ROUND = 40
SERVICE_ROUNDS = 25


def _seed_service_class():
    """A MatchService whose ``submit``/``_finalize`` are the pre-telemetry
    bodies — the per-request path exactly as it was before the flight
    recorder / history / slow-log / fold hooks landed.  The remaining
    telemetry touchpoints are attribute None-checks of the same class
    the enumeration bar already prices, so the submit/finalize pair is
    the measurable delta."""
    import time as _time

    from repro.service.request import MatchResponse, Status as _Status
    from repro.service.service import MatchService, PendingMatch, _Job

    class _SeedService(MatchService):
        def submit(self, request):
            pending = PendingMatch(request)
            now = _time.perf_counter()
            with self._state_lock:
                if self._closed:
                    raise RuntimeError("service is closed")
                if self._inflight >= self.max_pending:
                    self.metrics.inc(
                        "service_requests_total", label=_Status.REJECTED
                    )
                    pending._resolve(MatchResponse(
                        request_id=request.request_id,
                        status=_Status.REJECTED,
                        error=(
                            f"queue depth {self._inflight} at limit "
                            f"{self.max_pending}"
                        ),
                    ))
                    return pending
                self._inflight += 1
                if self._inflight > self._peak:
                    self._peak = self._inflight
                    self.metrics.set_gauge(
                        "service_queue_depth_peak", self._peak
                    )
                job = _Job(request, pending, now)
                deadline = request.deadline_seconds
                if deadline is None:
                    deadline = self.deadline_seconds
                if deadline is not None:
                    job.deadline_at = now + deadline
                pending._job = job
                self._jobs.add(job)
            with self._inbox_ready:
                self._inbox.append(job)
                self._inbox_ready.notify()
            return pending

        def _finalize(self, job, embeddings, status,
                      stop_reason=None, error=None):
            with job.lock:
                if job.done:
                    return
                job.done = True
            now = _time.perf_counter()
            latency = now - job.submitted_at
            service_seconds = now - job.prepared_at
            self.metrics.inc("service_requests_total", label=status)
            self.metrics.observe("service_request_seconds", latency)
            self.metrics.observe("service_time_seconds", service_seconds)
            job.pending._resolve(MatchResponse(
                request_id=job.request.request_id,
                status=status,
                embeddings=embeddings,
                truncated=status == _Status.TRUNCATED,
                stop_reason=stop_reason,
                cache=job.cache_tag,
                stats=job.stats,
                latency_seconds=latency,
                service_seconds=service_seconds,
                retries=job.retries,
                error=error,
            ))
            with self._idle:
                self._jobs.discard(job)
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    return _SeedService


def test_service_telemetry_disabled_overhead(results_dir):
    """Default service config (every §13 surface off) vs the pre-PR
    per-request path, paired-ratio over warm requests."""
    from repro.graph import Graph
    from repro.service import MatchRequest, MatchService

    data = inject_labels(
        power_law(300, 4, seed=11, min_edges_per_vertex=1), 2, seed=11
    )
    query = generate_query(data, 4, seed=11)

    def request():
        return MatchRequest(query=query, limit=8)

    def timed_round(service):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(SERVICE_REQUESTS_PER_ROUND):
                response = service.match(request())
                assert response.status == "ok"
            return time.perf_counter() - start
        finally:
            gc.enable()

    seed_cls = _seed_service_class()
    kwargs = dict(workers=2, max_pending=64)
    with seed_cls(data, **kwargs) as seed_service, \
            MatchService(data, **kwargs) as shipping:
        # Warm both index caches so every timed request is a pure hit.
        assert seed_service.match(request()).status == "ok"
        assert shipping.match(request()).status == "ok"
        timed_round(seed_service)
        timed_round(shipping)
        ratios: List[float] = []
        best = {"seed": float("inf"), "disabled": float("inf")}
        for _ in range(SERVICE_ROUNDS):
            seed_seconds = timed_round(seed_service)
            disabled_seconds = timed_round(shipping)
            best["seed"] = min(best["seed"], seed_seconds)
            best["disabled"] = min(best["disabled"], disabled_seconds)
            ratios.append(disabled_seconds / seed_seconds)

    overhead = _median(ratios) - 1.0
    requests = SERVICE_REQUESTS_PER_ROUND

    path = os.path.join(results_dir, "BENCH_observability.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {"generated_by": "benchmarks/test_observability_micro.py"}
    report["service"] = {
        "requests_per_round": requests,
        "rounds": SERVICE_ROUNDS,
        "seed_seconds_per_request": best["seed"] / requests,
        "disabled_seconds_per_request": best["disabled"] / requests,
        "disabled_overhead": overhead,
        "acceptance": {
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "measured_disabled_overhead": overhead,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"telemetry-disabled service path {overhead:.1%} slower than the "
        f"pre-telemetry submit/finalize path "
        f"(bar: {MAX_DISABLED_OVERHEAD:.0%}); see {path}"
    )
