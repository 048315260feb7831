"""The resident match service: one front end over two executors.

:class:`MatchService` loads (or receives) a data graph once and answers
:class:`~repro.service.request.MatchRequest`\\ s.  CECI's embedding
clusters (Section 4.2) are the unit of parallel work, and the service
is split along that line: a **front end** that owns everything
request-level, and an **executor** that only gets tasks to workers and
recovers lost ones.  The pieces, and where each lives:

* **admission control** — :meth:`MatchService.submit` counts in-flight
  requests; past ``max_pending`` a request is shed immediately with a
  ``REJECTED`` response, before it can touch any shared state;
* **index reuse** — a scheduler thread resolves each admitted request's
  index through the cross-query :class:`~repro.service.cache.IndexCache`
  (LRU hit / spilled-blob warm / in-flight coalesce / fresh build);
* **one unit plan** — an unbounded request is planned as LPT shares
  over its clusters' ``cluster_cardinality`` (one share per worker),
  computed once per cached index, and every executor runs one task per
  non-empty share;
  budgeted/limited requests run *solo* so their truncation prefixes are
  exactly the sequential matcher's;
* **one task body** — :func:`run_task` enumerates a solo run or a share
  (as one frontier) over a resolved index; threads run it in process,
  shard processes in the child;
* **exact merge** — a share hands back its rows as one packed array;
  as each reply arrives the front end unpacks every pivot's run of
  rows straight into tuples, and concatenates the parts in
  ``store.pivots`` order, which *is* sequential ``collect`` order;
* **deadlines & cancellation** — each request may carry an end-to-end
  ``deadline_seconds`` (service-wide default available) measured from
  submit and covering queue wait + index resolution + matching.  One
  monitor thread resolves expired requests ``TIMEOUT`` and cancelled
  ones ``CANCELLED`` within about 10 ms, whatever the executor is
  doing; the scheduler also checks before and after index resolution;
* **retry** — with a :class:`~repro.resilience.recovery.RetryPolicy`,
  requests failed by a worker crash or an injected transient fault are
  transparently re-run (fresh index resolution, fresh budget clock)
  after an exponential-backoff-with-jitter delay, up to
  ``max_retries`` times; the response's ``retries`` field and the
  ``service_retries_total`` counter account for every re-run;
* **telemetry** — every job carries one request record (in the
  flight ring when it is on, a :class:`~repro.observability.flight.QuietRecord`
  that drops events otherwise); finalisation builds the request's
  terminal facts once, and the flight record, the slow-query log and
  the query history all read that one dict, the same way for every
  executor.

Executors implement the small :class:`Executor` protocol and report
back through two front-end callbacks (:meth:`MatchService._task_done`
with :func:`run_task`'s payload, :meth:`MatchService._unit_failed`):

* :class:`_ThreadExecutor` (this module, the default) — a
  :class:`~repro.service.scheduler.TaskQueue` drained by worker
  threads.  A heartbeat watchdog respawns a worker thread that *died*
  holding a task (the task's units fail as a crash) and condemns one
  *wedged* past ``stall_after_seconds`` (its request resolves
  ``TIMEOUT``; Python threads cannot be killed, so the condemned thread
  exits at its next loop boundary);
* the shard executor (:mod:`repro.service.shards`) — forked worker
  processes sharing mmap'd indexes, used by
  :class:`~repro.service.shards.ShardedMatchService`.

**Exactness.**  A response's embedding list is bit-identical to a fresh
``CECIMatcher(query, data).run(limit)`` whenever the request's labeling
matches the cached representative's (always true for cold builds and
exact repeats): the frozen store is the same arrays, solo runs replay
the sequential enumeration, and batched runs concatenate per-pivot
cluster results back in pivot order.  For an isomorphic-but-relabeled hit the
transplanted index yields the same embedding *set* (enumeration order
may differ; symmetry breaking is applied with the request's own breaker,
so the chosen representatives are the request's, not the cached
labeling's).  Retries preserve this: a re-run starts from scratch, so a
retried ``OK`` answer is exactly a first-attempt ``OK`` answer.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import threading
import time
from typing import (
    Callable, Dict, List, Optional, Protocol, Sequence, Set, TextIO, Tuple,
    Union,
)

import numpy as np

from ..core.automorphism import SymmetryBreaker
from ..core.enumeration import Embedding, Enumerator, row_struct
from ..core.estimate import plan_facts
from ..core.matcher import CECIMatcher
from ..core.stats import MatchStats
from ..core.store import CompactCECI
from ..graph import Graph
from ..observability.flight import FlightRecord, FlightRecorder, QuietRecord
from ..observability.history import QueryHistory
from ..observability.metrics import MetricSpec, MetricsRegistry
from ..observability.tracer import NULL_TRACER
from ..parallel.scheduling import Assignment, dynamic_schedule
from ..resilience.budget import BudgetExhausted, BudgetTracker
from ..resilience.faults import FaultPlan, InjectedBuildError, InjectedCrash
from ..resilience.recovery import RetryPolicy
from .cache import CacheEntry, IndexCache
from .request import MatchRequest, MatchResponse, Status
from .scheduler import TaskQueue

__all__ = [
    "Executor",
    "MatchService",
    "PendingMatch",
    "run_task",
    "service_metric_specs",
]

#: How long a worker blocks on one ``pop`` before re-checking whether it
#: has been condemned by the watchdog.  Bounds how quickly a condemned
#: (but idle) thread notices and exits.
_POP_INTERVAL = 0.1

#: How often the deadline/cancel monitor scans in-flight jobs (seconds).
_MONITOR_INTERVAL = 0.01

_CLOSE = object()


def service_metric_specs() -> Tuple[MetricSpec, ...]:
    """Spec table for the service's own registry (request outcomes,
    cache tiers, queue pressure, supervision events, latency
    histograms)."""
    return (
        MetricSpec(
            "service_requests_total",
            labeled=True,
            label_name="status",
            help="Requests by terminal status.",
        ),
        MetricSpec(
            "service_cache_outcomes",
            labeled=True,
            label_name="tier",
            help="Index resolutions by tier (miss/hit/warm/coalesced).",
        ),
        MetricSpec(
            "service_units_total",
            help="Cluster work units executed by the pool.",
        ),
        MetricSpec(
            "service_retries_total",
            help="Transparent re-runs of requests failed by a worker "
                 "crash or injected fault.",
        ),
        MetricSpec(
            "service_worker_respawns",
            help="Worker threads replaced by the watchdog (after a "
                 "death or a condemned stall).",
        ),
        MetricSpec(
            "service_worker_stalls",
            help="Wedged workers condemned by the watchdog.",
        ),
        MetricSpec(
            "service_index_cache_hits",
            help="Index LRU hits.",
        ),
        MetricSpec(
            "service_index_cache_warm_hits",
            help="Indexes revived from spilled CECIIDX3 blobs.",
        ),
        MetricSpec(
            "service_index_cache_coalesced",
            help="Requests that shared a concurrent in-flight build.",
        ),
        MetricSpec(
            "service_index_cache_misses",
            help="Indexes built from scratch.",
        ),
        MetricSpec(
            "service_index_cache_evictions",
            help="LRU entries evicted.",
        ),
        MetricSpec(
            "service_index_cache_spills",
            help="Evicted entries written to the spill tier.",
        ),
        MetricSpec(
            "service_index_cache_spill_corrupt",
            help="Corrupt spill blobs detected and quarantined.",
        ),
        MetricSpec(
            "service_index_cache_spill_evicted",
            help="Spill files deleted by the byte-bound LRU.",
        ),
        MetricSpec(
            "service_index_cache_transplants",
            help="Cache hits re-targeted onto an isomorphic-but-"
                 "relabeled query via sigma transplant.",
        ),
        MetricSpec(
            "service_slow_requests",
            help="Requests whose end-to-end latency exceeded the "
                 "slow-query threshold.",
        ),
        MetricSpec(
            "service_history_records",
            help="Records appended to the query-history store.",
        ),
        MetricSpec(
            "service_inflight",
            kind="gauge",
            merge="max",
            help="Requests currently in flight (scrape-time).",
        ),
        MetricSpec(
            "service_task_queue_depth",
            kind="gauge",
            merge="max",
            help="Tasks waiting on the task queue (scrape-time).",
        ),
        MetricSpec(
            "service_healthy_workers",
            kind="gauge",
            merge="max",
            help="Pool slots holding a live thread (scrape-time).",
        ),
        MetricSpec(
            "service_queue_depth_peak",
            kind="gauge",
            merge="max",
            help="Peak concurrent in-flight requests.",
        ),
        MetricSpec(
            "service_plan_makespan",
            kind="gauge",
            merge="max",
            help="Predicted makespan of the last batched job's unit "
                 "plan (dynamic_schedule over its unit costs; both "
                 "executors run that assignment).",
        ),
        MetricSpec(
            "service_plan_skew",
            kind="gauge",
            merge="max",
            help="Predicted balance skew of the last batched job.",
        ),
        MetricSpec(
            "service_request_seconds",
            kind="histogram",
            help="Submit-to-completion latency.",
        ),
        MetricSpec(
            "service_time_seconds",
            kind="histogram",
            help="Prepare+execute time, excluding queue wait.",
        ),
        MetricSpec(
            "service_build_seconds",
            kind="histogram",
            help="Index build time paid by cache misses.",
        ),
    )


#: The terminal facts a history line carries (besides its signature and
#: features): the flight-only ``stop_reason``, ``error`` and ``plan`` stay
#: out, and the plan rides in ``features``.
_HISTORY_FACTS = (
    "request_id", "status", "cache", "retries", "latency_seconds",
    "service_seconds", "phase_seconds", "counters",
)


def _stat_counters(stats: MatchStats) -> Dict[str, int]:
    """The non-zero integer counters of one request's stats — the
    ``counters`` object flight records and history records carry
    (``phase_seconds`` travels separately as floats)."""
    out: Dict[str, int] = {}
    for field in dataclasses.fields(stats):
        if field.name == "phase_seconds":
            continue
        value = getattr(stats, field.name)
        if value:
            out[field.name] = value
    return out


def _row_dtype(num_vertices: int) -> np.dtype:
    """The narrowest of int32/int64 that holds every vertex id of a
    data graph with ``num_vertices`` vertices: the dtype a share's
    packed rows travel in (int32 halves a shard reply)."""
    return np.dtype(np.int32 if num_vertices < 2**31 else np.int64)


def _decode_rows(rows: np.ndarray, root: int) -> Dict[int, List[Embedding]]:
    """A share's packed rows as ``{pivot: [embedding tuples]}``.

    The rows are in sorted-pivot DFS order, so each pivot's rows are
    one contiguous run.  The root column is cut into those runs once,
    and each run is unpacked straight from the reply buffer by the row
    format :func:`~repro.core.enumeration.embedding_tuples` uses: no
    column list, no list of the whole reply and no numpy view per run
    is built on the way.
    """
    if not len(rows):
        return {}
    roots = rows[:, root]
    cuts = (np.flatnonzero(roots[1:] != roots[:-1]) + 1).tolist()
    rows = np.ascontiguousarray(rows)
    unpack = row_struct(rows.shape[1], rows.dtype.str).iter_unpack
    view = memoryview(rows)
    parts: Dict[int, List[Embedding]] = {}
    for start, end in zip([0, *cuts], [*cuts, len(rows)]):
        run = list(unpack(view[start:end]))
        parts[run[0][root]] = run
    return parts


def run_task(
    store: CompactCECI,
    symmetry: SymmetryBreaker,
    share: Optional[Sequence[int]],
    limit: Optional[int],
    tracker: Optional[BudgetTracker],
) -> Dict:
    """Enumerate one task over a resolved index — the task body of both
    executors (threads call it in process, shard processes in the
    child).

    With ``share=None`` the job runs solo: the whole enumeration in
    sequential order, ``limit`` and ``tracker`` honoured, so a
    truncation prefix is the sequential matcher's.  Otherwise the
    clusters of ``share``'s pivots run as one frontier
    (:meth:`~repro.core.enumeration.Enumerator.collect_rows`).  The
    payload :meth:`MatchService._task_done` consumes holds the task's
    private ``stats`` and either the share's packed ``rows`` (one array
    in sorted-pivot DFS order, no tuples, in :func:`_row_dtype`) and
    its ``units`` count, or the solo ``embeddings``, ``truncated`` and
    ``stop_reason``.
    """
    stats = MatchStats()
    enumerator = Enumerator(
        store, symmetry=symmetry, stats=stats, tracker=tracker
    )
    if share is not None:
        rows = enumerator.collect_rows(
            share, _row_dtype(store.data.num_vertices)
        )
        return {"rows": rows, "units": len(share), "stats": stats}
    embeddings = enumerator.collect(limit)
    return {
        "embeddings": embeddings,
        "truncated": enumerator.truncated,
        "stop_reason": enumerator.stop_reason,
        "stats": stats,
    }


class PendingMatch:
    """Handle for one submitted request — a one-shot future."""

    __slots__ = ("request", "_event", "_response", "_job")

    def __init__(self, request: MatchRequest) -> None:
        self.request = request
        self._event = threading.Event()
        self._response: Optional[MatchResponse] = None
        self._job: Optional["_Job"] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> MatchResponse:
        """Block until the response is ready.

        Raises :class:`TimeoutError` if the response is not ready within
        ``timeout`` seconds.  The timeout is a *wait* bound only: the
        request keeps running and a later ``result()`` call can still
        collect it.  To abandon the work too, call :meth:`cancel`, or
        give the request a ``deadline_seconds`` up front.
        """
        if not self._event.wait(timeout=timeout):
            raise TimeoutError(
                f"request {self.request.request_id} still pending"
            )
        assert self._response is not None
        return self._response

    def progress(self) -> Tuple[int, MatchStats]:
        """The request's live counters while it is in flight: how many
        units its executor has reported back, and its stats so far (a
        share's counters land when the share reports).  Once resolved,
        the final counts: the response's units and its stats."""
        job = self._job
        if job is None:
            return 0, MatchStats()
        with job.lock:
            return len(job.pivots) - job.remaining, job.stats

    def cancel(self) -> bool:
        """Ask the service to abandon this request.

        The service's deadline/cancel monitor resolves the request
        within about 10 ms; a unit already enumerating runs to its end
        and its result is dropped.  Returns
        ``True`` if the cancel was registered while the request was
        still in flight; ``False`` if it had already resolved (or was
        shed at admission and never ran).  A cancelled request resolves
        with ``Status.CANCELLED`` and no embeddings.
        """
        job = self._job
        if job is None:
            return False
        with job.lock:
            if job.done:
                return False
            job.cancelled = True
        return True

    def _resolve(self, response: MatchResponse) -> None:
        if self._event.is_set():  # first resolution wins
            return
        self._response = response
        self._event.set()


class _Job:
    """Mutable execution state of one admitted request."""

    __slots__ = (
        "request", "pending", "submitted_at", "prepared_at", "deadline_at",
        "symmetry", "store", "cache_tag", "signature", "tracker", "stats",
        "pivots", "parts", "remaining", "error", "error_kind", "retries",
        "fanout", "cancelled", "done", "lock", "record", "plan", "entry",
    )

    def __init__(
        self,
        request: MatchRequest,
        pending: PendingMatch,
        submitted_at: float,
        record: Optional[FlightRecord] = None,
    ) -> None:
        self.request = request
        #: The caller's handle, until the job resolves it: the handle
        #: keeps the job (for ``progress``), never the other way round.
        self.pending: Optional[PendingMatch] = pending
        self.submitted_at = submitted_at
        self.prepared_at = submitted_at
        self.deadline_at: Optional[float] = None
        self.symmetry: Optional[SymmetryBreaker] = None
        self.store: Optional[CompactCECI] = None
        #: The index cache entry ``store`` was adapted from (None for a
        #: private build): it memoises the store's unit plan.
        self.entry: Optional[CacheEntry] = None
        self.cache_tag: Optional[str] = None
        #: The canonical query signature the index cache keyed the
        #: request's index under (flight and history records carry it).
        self.signature: Optional[str] = None
        self.tracker: Optional[BudgetTracker] = None
        self.stats = MatchStats()
        #: Unit pivots in ``store.pivots`` order — the exact-merge key —
        #: and the parts reported so far, keyed by pivot.
        self.pivots: List[int] = []
        self.parts: Dict[int, List[Embedding]] = {}
        #: Units not yet reported back by the executor.
        self.remaining = 0
        self.error: Optional[str] = None
        #: How the current attempt failed: "crash" (worker death),
        #: "fault" (injected transient), "error" (real exception).
        #: Only "crash" and "fault" are retryable.
        self.error_kind: Optional[str] = None
        self.retries = 0
        #: Shards the executor fanned the job out to (shard executor
        #: only; reported as the response's ``shard_fanout``).
        self.fanout: Optional[int] = None
        self.cancelled = False
        #: This request's record, written once per lifecycle step: in
        #: the service's flight ring, or quiet when the ring is off.
        self.record = (
            QuietRecord(request.request_id) if record is None else record
        )
        #: Plan facts captured at prepare time (telemetry only).
        self.plan: Optional[Dict] = None
        #: First-wins finalization flag, written under ``lock``: the
        #: monitor, the watchdog and the normal completion path can all
        #: race to resolve one job.
        self.done = False
        self.lock = threading.Lock()


class Executor(Protocol):
    """Dispatch and failure recovery for prepared jobs.

    ``run_solo`` runs a job as one un-decomposed task (sequential order,
    limit and budget honoured); ``run_units`` runs the front end's LPT
    ``assignment`` (the pivots of each of ``workers`` workers) as one
    task per non-empty share.  Each task is :func:`run_task`, and its
    payload goes back through :meth:`MatchService._task_done`; a lost
    or failed task reports its share's units through
    :meth:`MatchService._unit_failed`.  An executor never finalizes a
    job.  ``healthy`` counts live workers, ``queue_depth`` waiting
    tasks, ``snapshot`` returns entries for :meth:`MatchService.snapshot`,
    and ``close`` stops every worker within the ``left()`` join window,
    returning whether everything stopped.
    """

    def run_solo(self, job: _Job) -> None: ...

    def run_units(self, job: _Job, assignment: List[List[int]]) -> None: ...

    def healthy(self) -> int: ...

    def queue_depth(self) -> int: ...

    def snapshot(self) -> Dict[str, object]: ...

    def close(self, left: Callable[[], Optional[float]]) -> bool: ...


class MatchService:
    """A resident matcher over one data graph.

    Engine knobs that shape the *index* (order strategy) are fixed
    service-wide — that is the invariant making cross-query index reuse
    sound.  Per-request knobs (limit, budget, symmetry,
    deadline) ride on each :class:`~repro.service.request.MatchRequest`.

    Hardening knobs: ``deadline_seconds`` is the service-wide default
    end-to-end deadline (per-request ``deadline_seconds`` overrides);
    ``retry_policy`` enables transparent re-runs of crash/fault-failed
    requests; ``fault_plan`` injects deterministic service-level faults
    for chaos testing; ``spill_max_bytes`` byte-bounds the index cache's
    spill directory.

    Thread-executor knobs: ``workers`` sizes the pool;
    ``stall_after_seconds`` arms the watchdog's wedged-worker detection
    (it must exceed the longest *legitimate* task — a solo run, or one
    worker's share of a batched request — or healthy slow work gets
    condemned); ``watchdog_interval`` is its patrol period.

    Use as a context manager, or call :meth:`close` when done.
    """

    #: The metric spec table (the sharded subclass extends it).
    metric_specs = staticmethod(service_metric_specs)

    def __init__(
        self,
        data: Graph,
        workers: int = 2,
        max_pending: int = 64,
        index_capacity: int = 32,
        spill_dir: Optional[str] = None,
        order_strategy: str = "bfs",
        metrics: Optional[MetricsRegistry] = None,
        deadline_seconds: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        stall_after_seconds: Optional[float] = None,
        watchdog_interval: float = 0.05,
        fault_plan: Optional[FaultPlan] = None,
        spill_max_bytes: Optional[int] = None,
        flight_records: int = 0,
        history: Optional[Union[QueryHistory, str]] = None,
        slow_ms: Optional[float] = None,
        slow_log: Optional[str] = None,
        fold_request_stats: bool = False,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if flight_records < 0:
            raise ValueError("flight_records must be >= 0")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be >= 0")
        self.data = data
        self.workers = workers
        self.max_pending = max_pending
        self.order_strategy = order_strategy
        self.deadline_seconds = deadline_seconds
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry(self.metric_specs())
        )
        for spec in self.metric_specs():
            self.metrics.register(spec)
        #: Telemetry: all off by default so a bare service pays only
        #: no-op record writes on the request path (the <3% overhead
        #: budget in DESIGN.md §13); ``repro serve`` turns them on.
        self.flight = (
            FlightRecorder(flight_records) if flight_records > 0 else None
        )
        self._owns_history = isinstance(history, str)
        self.history = QueryHistory(history) if isinstance(history, str) else history
        self.slow_ms = slow_ms
        self.fold_request_stats = fold_request_stats
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Whether anything reads a request's plan facts and terminal
        #: facts: the gate keeping their cost off the default path.
        self._keeps_records = (
            self.flight is not None
            or self.history is not None
            or slow_ms is not None
        )
        self._slow_log_path = slow_log
        self._slow_handle: Optional[TextIO] = None
        self._slow_lock = threading.Lock()
        self._fold_lock = threading.Lock()
        self.index_cache = IndexCache(
            data,
            capacity=index_capacity,
            spill_dir=spill_dir,
            spill_max_bytes=spill_max_bytes,
            metrics=self.metrics,
            fault_plan=fault_plan,
        )
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._inflight = 0
        self._peak = 0
        self._closed = False
        self._stopping = False
        self._close_done = threading.Event()
        #: Every admitted, not-yet-finalized job (guarded by
        #: ``_state_lock``) — what the monitor patrols and a timed-out
        #: ``close`` fails.
        self._jobs: Set[_Job] = set()
        #: Pending retry timers, per job (guarded by ``_state_lock``).
        self._retry_timers: Dict[_Job, threading.Timer] = {}
        #: Jitter source for retry backoff — seeded from the fault plan
        #: so chaos runs are reproducible end to end.
        self._retry_rng = random.Random(
            fault_plan.seed if fault_plan is not None else 0
        )
        #: Monotone build counter feeding the fault plan's predicate.
        self._build_picks = itertools.count()
        self._inbox: "list" = []
        self._inbox_ready = threading.Condition()
        # The executor comes up before any front-end thread starts: the
        # shard executor forks its processes here.
        self.executor: Executor = self._make_executor(
            workers, stall_after_seconds, watchdog_interval
        )
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="svc-scheduler", daemon=True
        )
        self._scheduler.start()
        self._monitor_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="svc-monitor", daemon=True
        )
        self._monitor.start()

    def _make_executor(
        self,
        workers: int,
        stall_after_seconds: Optional[float],
        watchdog_interval: float,
    ) -> Executor:
        return _ThreadExecutor(
            self, workers, stall_after_seconds, watchdog_interval
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, request: MatchRequest) -> PendingMatch:
        """Admit (or shed) one request; never blocks on matching work."""
        pending = PendingMatch(request)
        now = time.perf_counter()
        with self._state_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._inflight >= self.max_pending:
                # Shed: count it, flight-record it, and answer REJECTED —
                # the request never touches shared state.
                self.metrics.inc(
                    "service_requests_total", label=Status.REJECTED
                )
                error = (
                    f"queue depth {self._inflight} at limit "
                    f"{self.max_pending}"
                )
                record = self._record(request.request_id)
                record.event(
                    "admit", outcome="rejected", queue_depth=self._inflight
                )
                record.event("final", status=Status.REJECTED)
                record.finish({
                    "request_id": request.request_id,
                    "status": Status.REJECTED,
                    "error": error,
                })
                pending._resolve(MatchResponse(
                    request_id=request.request_id,
                    status=Status.REJECTED,
                    error=error,
                ))
                return pending
            self._inflight += 1
            if self._inflight > self._peak:
                self._peak = self._inflight
                self.metrics.set_gauge("service_queue_depth_peak", self._peak)
            job = _Job(
                request, pending, now, self._record(request.request_id)
            )
            job.record.event(
                "admit", outcome="admitted",
                queue_depth=self._inflight, solo=request.solo,
            )
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

    def _record(self, request_id: int) -> FlightRecord:
        """A new request's record: opened in the flight ring when it is
        on, quiet otherwise."""
        if self.flight is None:
            return QuietRecord(request_id)
        return self.flight.begin(request_id)

    def match(self, request: MatchRequest) -> MatchResponse:
        """Submit and wait — the synchronous convenience path."""
        return self.submit(request).result()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                left = None
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        return False
                self._idle.wait(timeout=left)
        return True

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain in-flight work, then stop every thread and worker
        (idempotent).

        With ``timeout=None`` this waits for all in-flight requests to
        finish.  With a timeout, the whole shutdown is bounded: requests
        still in flight when the drain window expires are resolved
        ``TIMEOUT`` (their waiters unblock), pending retries are
        cancelled, and thread joins share the remaining window.  Returns
        ``True`` if everything drained and every thread stopped within
        the bound; ``False`` means some request was force-timed-out or a
        wedged thread is still exiting (it will die with the process —
        all service threads are daemons).  Concurrent and repeated calls
        are safe: later callers wait (up to their own ``timeout``) for
        the first closer to finish.
        """
        with self._state_lock:
            first = not self._closed
            self._closed = True
        if not first:
            return self._close_done.wait(timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout

        def left() -> Optional[float]:
            if deadline is None:
                return None
            # Keep a small positive join window even when the budget is
            # spent, so an already-exiting thread is still reaped.
            return max(deadline - time.monotonic(), 0.05)

        drained = self.drain(timeout)
        self._stopping = True
        with self._state_lock:
            timers = list(self._retry_timers.values())
            self._retry_timers.clear()
        for timer in timers:
            timer.cancel()
        if not drained:
            with self._state_lock:
                leftovers = list(self._jobs)
            for job in leftovers:
                self._finalize(
                    job, [], Status.TIMEOUT,
                    error="request still in flight when close() timed out",
                )
        with self._inbox_ready:
            self._inbox.append(_CLOSE)
            self._inbox_ready.notify()
        self._monitor_stop.set()
        self._scheduler.join(left())
        self._monitor.join(left())
        stopped = self.executor.close(left)
        stopped = (
            stopped
            and not self._scheduler.is_alive()
            and not self._monitor.is_alive()
        )
        with self._slow_lock:
            if self._slow_handle is not None:
                self._slow_handle.close()
                self._slow_handle = None
        if self._owns_history and self.history is not None:
            self.history.close()
        self._close_done.set()
        return drained and stopped

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def healthy_workers(self) -> int:
        """How many workers (threads or shard processes) are alive — the
        chaos harness's pool-at-full-strength check."""
        return self.executor.healthy()

    def metrics_snapshot(self) -> MetricsRegistry:
        """A point-in-time copy of the service registry with scrape-time
        gauges folded in (in-flight requests, queued tasks, healthy
        workers) — what the HTTP exporter and the ``{"op": "metrics"}``
        in-band query serve."""
        registry = MetricsRegistry(self.metric_specs())
        with self._fold_lock:
            registry.merge(self.metrics)
        with self._state_lock:
            inflight = self._inflight
        registry.set_gauge("service_inflight", inflight)
        registry.set_gauge(
            "service_task_queue_depth", self.executor.queue_depth()
        )
        registry.set_gauge("service_healthy_workers", self.healthy_workers())
        return registry

    def snapshot(self) -> Dict[str, object]:
        """Registry + cache tiers + executor state as one JSON-friendly
        dict."""
        out: Dict[str, object] = {
            "metrics": self.metrics_snapshot().as_dict(),
            "index_cache": self.index_cache.snapshot(),
            **self.executor.snapshot(),
            "healthy_workers": self.healthy_workers(),
        }
        if self.flight is not None:
            out["flight_records"] = len(self.flight)
        if self.history is not None:
            out["history"] = self.history.snapshot()
        return out

    def flight_records(
        self,
        request_id: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Dict]:
        """Retained flight records (empty when the recorder is off) —
        what the ``{"op": "flight"}`` control message dumps."""
        if self.flight is None:
            return []
        return self.flight.records(request_id=request_id, limit=limit)

    # ------------------------------------------------------------------
    # Deadlines, cancellation, retry
    # ------------------------------------------------------------------
    def _abort_status(self, job: _Job) -> Optional[str]:
        """CANCELLED/TIMEOUT if the job must be abandoned, else None."""
        if job.cancelled:
            return Status.CANCELLED
        if (
            job.deadline_at is not None
            and time.perf_counter() >= job.deadline_at
        ):
            return Status.TIMEOUT
        return None

    @staticmethod
    def _abort_error(status: str) -> str:
        if status == Status.TIMEOUT:
            return "end-to-end service deadline exceeded"
        return "cancelled by caller"

    def _monitor_loop(self) -> None:
        """Resolve expired and cancelled jobs without waiting for the
        executor to reach a boundary."""
        while not self._monitor_stop.wait(_MONITOR_INTERVAL):
            self._expire()

    def _expire(self) -> None:
        """One monitor scan (its own frame, so no job outlives it)."""
        with self._state_lock:
            jobs = list(self._jobs)
        for job in jobs:
            status = None if job.done else self._abort_status(job)
            if status is not None:
                self._finalize(
                    job, [], status, error=self._abort_error(status)
                )

    def _conclude_failure(self, job: _Job) -> None:
        """The current attempt failed: schedule a retry if the policy,
        the failure kind and the deadline all allow, else finalize."""
        kind = job.error_kind or "error"
        policy = self.retry_policy
        if (
            policy is not None
            and kind in ("crash", "fault")
            and not self._stopping
            and self._abort_status(job) is None
            and policy.allows(job.retries + 1)
        ):
            job.retries += 1
            self.metrics.inc("service_retries_total")
            delay = policy.delay(job.retries, self._retry_rng)
            job.record.event(
                "retry", attempt=job.retries, kind=kind,
                delay_seconds=round(delay, 6),
            )
            if delay <= 0.0:
                self._requeue(job)
            else:
                timer = threading.Timer(delay, self._requeue, args=(job,))
                timer.daemon = True
                with self._state_lock:
                    self._retry_timers[job] = timer
                timer.start()
            return
        status = Status.CRASHED if kind == "crash" else Status.FAILED
        self._finalize(job, [], status, error=job.error)

    def _requeue(self, job: _Job) -> None:
        """Put a retrying job back through the scheduler with per-attempt
        state wiped (fresh index resolution, fresh budget clock)."""
        with self._state_lock:
            self._retry_timers.pop(job, None)
            stopping = self._stopping
        with job.lock:
            if job.done:
                return
        if stopping:
            self._finalize(
                job, [], Status.TIMEOUT,
                error="service closed before the retry could run",
            )
            return
        with job.lock:
            job.store = None
            job.entry = None
            job.cache_tag = None
            job.signature = None
            job.tracker = None
            job.symmetry = None
            job.stats = MatchStats()
            job.pivots = []
            job.parts = {}
            job.remaining = 0
            job.error = None
            job.error_kind = None
        with self._inbox_ready:
            self._inbox.append(job)
            self._inbox_ready.notify()

    # ------------------------------------------------------------------
    # Scheduler thread: admit -> resolve index -> plan units
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        admitted = 0
        while True:
            with self._inbox_ready:
                while not self._inbox:
                    self._inbox_ready.wait()
                job = self._inbox.pop(0)
            if job is _CLOSE:
                return
            if not job.done:  # resolved (monitor, timed-out close) meanwhile
                self._schedule(job, admitted)
                admitted += 1
            # Wait for the next job holding none: a finished job must
            # die with its caller's handle, not linger in this frame.
            del job

    def _schedule(self, job: _Job, seq: int) -> None:
        """Prepare the ``seq``-th admitted job and dispatch it, or
        resolve it if it fails, runs out of budget or is abandoned on
        the way."""
        plan = self.fault_plan
        if plan is not None and plan.scheduler_stalls_at(seq):
            self._cooperative_stall(plan.scheduler_stall_seconds)
        status = self._abort_status(job)
        if status is None:
            try:
                self._prepare(job)
            except BudgetExhausted as stop:
                job.stats.budget_stops += 1
                self._finalize(
                    job, [], Status.TRUNCATED, stop_reason=stop.reason
                )
                return
            except (InjectedBuildError, InjectedCrash) as exc:
                self._unit_failed(job, 0, repr(exc), kind="fault")
                return
            except Exception as exc:  # noqa: BLE001 - one bad request
                # must not take the scheduler (and service) down
                self._unit_failed(job, 0, repr(exc))
                return
            status = self._abort_status(job)
        if status is not None:
            self._finalize(job, [], status, error=self._abort_error(status))
            return
        try:
            self._dispatch(job)
        except Exception as exc:  # noqa: BLE001 - as for _prepare
            with job.lock:
                # Units the failed dispatch never started will not
                # report, so conclude the attempt now.
                job.remaining = 0
            self._unit_failed(job, 0, repr(exc))

    def _cooperative_stall(self, seconds: float) -> None:
        """Injected scheduler stall — sleeps in small slices so a
        closing service is never held hostage by its own chaos plan."""
        deadline = time.perf_counter() + seconds
        while not self._stopping:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.01))

    def _prepare(self, job: _Job) -> None:
        """Resolve the request's index (cache tiers, then build), start
        its budget clock, and build its symmetry breaker."""
        request = job.request
        job.prepared_at = time.perf_counter()
        job.record.event(
            "prepare",
            queue_seconds=round(job.prepared_at - job.submitted_at, 6),
            attempt=job.retries,
        )
        if self.tracer.enabled:
            self.tracer.phase(
                "queue", job.submitted_at,
                job.prepared_at - job.submitted_at,
                request=request.request_id,
            )
        if request.budget is not None and not request.budget.unlimited:
            job.tracker = request.budget.tracker().start()
        job.symmetry = SymmetryBreaker(
            request.query, enabled=request.break_automorphisms
        )

        build_stats: List[MatchStats] = []

        def build() -> CompactCECI:
            build_index = next(self._build_picks)
            if (
                self.fault_plan is not None
                and self.fault_plan.build_fails_at(build_index)
            ):
                raise InjectedBuildError(build_index)
            matcher = self._fresh_matcher(request.query, request.request_id)
            store = matcher.build()
            build_stats.append(matcher.stats)
            assert isinstance(store, CompactCECI)
            return store

        entry, tag, order = self.index_cache.get_or_build(
            request.query, build
        )
        store = self.index_cache.adapt(entry, request.query, order)
        if store is None:
            # Canonical-signature collision (astronomically rare): the
            # cached representative is not actually isomorphic to this
            # query.  Build privately; correctness over reuse.
            matcher = self._fresh_matcher(request.query, request.request_id)
            built = matcher.build()
            assert isinstance(built, CompactCECI)
            store = built
            build_stats.append(matcher.stats)
            tag = "miss"
        else:
            job.entry = entry
        job.store = store
        job.cache_tag = tag
        job.signature = entry.key[1]
        self.metrics.inc("service_cache_outcomes", label=tag)
        paid_build = 0.0
        for stats in build_stats:
            # The request that paid for the build carries its phases.
            job.stats.merge(stats)
            build_seconds = sum(
                stats.phase_seconds.get(phase, 0.0)
                for phase in ("preprocess", "filter", "refine", "freeze")
            )
            paid_build += build_seconds
            self.metrics.observe("service_build_seconds", build_seconds)
        job.record.event(
            "index", tier=tag,
            transplanted=(tag != "miss" and store is not entry.store),
            build_seconds=round(paid_build, 6),
        )
        if self._keeps_records:
            try:
                job.plan = plan_facts(store, request.query)
            except Exception:  # noqa: BLE001 - plan facts are advisory;
                # a store variant that cannot produce them must not fail
                # the request
                job.plan = None
            if job.plan is not None:
                job.record.event(
                    "plan",
                    root=job.plan["root"],
                    clusters=job.plan["clusters"],
                    cardinality_bound=job.plan["cardinality_bound"],
                )
        # Mirror CECIMatcher.run: the deadline covers index resolution;
        # a request that used up its budget getting an index returns a
        # truncated empty prefix rather than enumerating on borrowed
        # time.
        if job.tracker is not None:
            job.tracker.check_deadline()

    def _fresh_matcher(
        self, query: Graph, request_id: Optional[int] = None
    ) -> CECIMatcher:
        """A matcher with the service-wide index configuration.  Builds
        never consult the symmetry breaker, so it is disabled here; the
        request's own breaker is applied at enumeration time.  With a
        service tracer, build phases are stamped with the paying
        request's id so ``trace summarize`` can group them."""
        tracer = None
        if self.tracer.enabled:
            tracer = (
                self.tracer if request_id is None
                else self.tracer.scoped(request=request_id)
            )
        return CECIMatcher(
            query,
            self.data,
            order_strategy=self.order_strategy,
            break_automorphisms=False,
            tracer=tracer,
        )

    def _dispatch(self, job: _Job) -> None:
        """Hand the job to the executor: solo for budgeted/limited
        requests, otherwise as the LPT plan of its embedding clusters,
        one share per worker."""
        if job.done:  # resolved (monitor, timed-out close) during prepare
            return
        if job.request.solo:
            job.record.event("planned", mode="solo")
            self.executor.run_solo(job)
            return
        pivots, plan, assignment = self._unit_plan(job)
        if not pivots:
            self._finalize(job, [], Status.OK)
            return
        self.metrics.set_gauge("service_plan_makespan", plan.makespan)
        self.metrics.set_gauge("service_plan_skew", plan.skew)
        job.record.event(
            "planned", mode="batched", units=len(pivots),
            makespan=round(plan.makespan, 3),
            skew=round(plan.skew, 4),
        )
        with job.lock:
            job.pivots = pivots
            job.remaining = len(pivots)
        self.executor.run_units(job, assignment)

    def _unit_plan(
        self, job: _Job
    ) -> Tuple[List[int], Assignment, List[List[int]]]:
        """The job's pivots, their LPT plan over the refined cluster
        cardinalities (Section 4's cardinality-driven balancing) and the
        pivots of each worker's share.  The plan depends only on the
        index and ``workers``, so it is computed once per cache entry
        and read back by every later request on that index (and on its
        transplants, which share the pivots and cardinalities)."""
        entry = job.entry
        if entry is not None and entry.unit_plan is not None:
            return entry.unit_plan
        store = job.store
        assert store is not None
        pivots = store.pivots.tolist()
        workloads = (
            np.maximum(store.cluster_cardinalities(), 1)
            .astype(np.float64)
            .tolist()
        )
        order = sorted(
            range(len(pivots)), key=workloads.__getitem__, reverse=True
        )
        plan = dynamic_schedule([workloads[i] for i in order], self.workers)
        assignment = [
            [pivots[order[i]] for i in units] for units in plan.worker_units
        ]
        unit_plan = (pivots, plan, assignment)
        if entry is not None:
            entry.unit_plan = unit_plan
        return unit_plan

    # ------------------------------------------------------------------
    # Executor callbacks
    # ------------------------------------------------------------------
    def _record_enumeration(
        self,
        job: _Job,
        ev: str,
        stats: MatchStats,
        seconds: float,
        started: Optional[float],
        worker: Optional[int],
        traced: bool,
        **detail,
    ) -> None:
        """Book one finished task's enumeration time into its stats, the
        trace (when ``traced`` and the executor measured ``started`` in
        this process, tagged with the request and the ``worker`` slot
        that ran it) and the request record."""
        stats.add_phase("enumerate", seconds)
        if traced and started is not None:
            self.tracer.phase(
                "enumerate", started, seconds,
                request=job.request.request_id, worker=worker,
            )
        job.record.event(ev, seconds=round(seconds, 6), **detail)

    def _task_done(
        self,
        job: _Job,
        payload: Dict,
        seconds: float,
        started: Optional[float] = None,
        worker: Optional[int] = None,
    ) -> None:
        """One task finished with :func:`run_task`'s ``payload``.  A solo
        run (possibly truncated by its budget) resolves the job.

        A share's packed rows become tuples here, once, as the reply
        arrives and outside the job lock: :func:`_decode_rows` unpacks
        each pivot's run straight from the reply buffer.  Its private
        stats then merge under the lock (``int +=`` is not atomic, so
        concurrent tasks writing one stats object would drop counts),
        and the last share to report concatenates every part in
        ``store.pivots`` order; :meth:`_finalize` then drops the parts,
        so the response holds the only copy of the answer.  The decode
        and that concatenation are the request's ``merge`` phase: booked
        in its stats, traced per task (tagged with the request and the
        ``worker``) and, for the decode, the flight ``unit`` event's
        ``decode`` seconds."""
        stats = payload["stats"]
        traced = self.tracer.enabled
        if job.request.solo:
            embeddings = payload["embeddings"]
            self._record_enumeration(
                job, "solo", stats, seconds, started, worker, traced,
                embeddings=len(embeddings), truncated=payload["truncated"],
            )
            with job.lock:
                if job.done:
                    return
                job.stats.merge(stats)
            status = Status.TRUNCATED if payload["truncated"] else Status.OK
            self._finalize(
                job, embeddings, status, stop_reason=payload["stop_reason"]
            )
            return
        rows = payload["rows"]
        units = payload["units"]
        merge_started = time.perf_counter()
        parts = _decode_rows(rows, job.store.tree.root)
        merge_seconds = time.perf_counter() - merge_started
        stats.add_phase("merge", merge_seconds)
        self._record_enumeration(
            job, "unit", stats, seconds, started, worker, traced,
            units=units, embeddings=len(rows),
            decode=round(merge_seconds, 6),
        )
        self.metrics.inc("service_units_total", units)
        with job.lock:
            if job.done:  # finalized (deadline/cancel/stall) meanwhile
                return
            job.parts.update(parts)
            job.stats.merge(stats)
            job.remaining -= units
            last = job.remaining <= 0
            failed = job.error is not None
        embeddings: List[Embedding] = []
        if last and not failed:
            # Every share has reported: no other task touches the job.
            concat_started = time.perf_counter()
            for pivot in job.pivots:
                embeddings.extend(job.parts.get(pivot, ()))
            concat = time.perf_counter() - concat_started
            job.stats.add_phase("merge", concat)
            merge_seconds += concat
        if traced:
            self.tracer.phase(
                "merge", merge_started, merge_seconds,
                request=job.request.request_id, worker=worker,
            )
        if not last:
            return
        if failed:
            self._conclude_failure(job)
            return
        self._finalize(job, embeddings, Status.OK)

    def _unit_failed(
        self, job: _Job, units: int, error: str, kind: str = "error"
    ) -> None:
        """A task covering ``units`` units (0 for a solo run or a failed
        prepare) failed.  ``kind`` is "crash", "fault" or "error"; the
        attempt concludes once every outstanding unit has reported.
        "timeout" (a wedged worker) resolves the job ``TIMEOUT`` at
        once."""
        job.record.event("unit_failed", units=units, kind=kind, error=error)
        if kind == "timeout":
            self._finalize(job, [], Status.TIMEOUT, error=error)
            return
        with job.lock:
            if job.done:
                return
            if job.error is None:
                job.error = error
                job.error_kind = kind
            job.remaining -= units
            if job.remaining > 0:
                return
        self._conclude_failure(job)

    # ------------------------------------------------------------------
    def _finalize(
        self,
        job: _Job,
        embeddings: List[Embedding],
        status: str,
        stop_reason: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        with job.lock:
            if job.done:  # first resolution wins
                return
            job.done = True
            # The answer is the response's now.  Dropping the per-pivot
            # parts and the job's link to its handle leaves no cycle, so
            # the job and the answer die by refcount once the caller
            # drops the handle and the response.
            pending, job.pending = job.pending, None
            job.parts = {}
        now = time.perf_counter()
        latency = now - job.submitted_at
        service_seconds = now - job.prepared_at
        self.metrics.inc("service_requests_total", label=status)
        self.metrics.observe("service_request_seconds", latency)
        self.metrics.observe("service_time_seconds", service_seconds)
        if self.fold_request_stats:
            # Continuous fold: the live registry carries every request's
            # enumeration counters, not just service-level outcomes.
            with self._fold_lock:
                self.metrics.merge(job.stats.registry())
        if self._keeps_records:
            # The terminal facts, built once: the flight record, the
            # slow-log line and the history line all read this dict.
            # They are written *before* the response resolves, so a
            # caller that sees the response also sees a terminal record
            # and a durable history line, and serial submitters observe
            # history lines in submission order (resolving first would
            # let request N+1's line overtake request N's).
            job.record.event("final", status=status)
            job.record.finish({
                "request_id": job.request.request_id,
                "status": status,
                "cache": job.cache_tag,
                "retries": job.retries,
                "signature": job.signature,
                "latency_seconds": latency,
                "service_seconds": service_seconds,
                "stop_reason": stop_reason,
                "error": error,
                "plan": job.plan,
                "phase_seconds": dict(job.stats.phase_seconds),
                "counters": _stat_counters(job.stats),
            })
            if self.slow_ms is not None and latency * 1000.0 >= self.slow_ms:
                self.metrics.inc("service_slow_requests")
                self._log_slow(job.record)
            if self.history is not None:
                try:
                    self.history.append(self._history_record(job))
                    self.metrics.inc("service_history_records")
                except Exception:  # noqa: BLE001 - telemetry I/O must
                    # never fail a request that already has its answer
                    pass
        pending._resolve(MatchResponse(
            request_id=job.request.request_id,
            status=status,
            embeddings=embeddings,
            truncated=status == Status.TRUNCATED,
            stop_reason=stop_reason,
            cache=job.cache_tag,
            stats=job.stats,
            latency_seconds=latency,
            service_seconds=service_seconds,
            retries=job.retries,
            shard_fanout=job.fanout,
            error=error,
        ))
        with self._idle:
            self._jobs.discard(job)
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def _log_slow(self, record: FlightRecord) -> None:
        """Append the finished record (plus the threshold that tripped)
        as one JSONL line to the slow-query log — the input of ``repro
        explain``."""
        if self._slow_log_path is None:
            return
        try:
            line = json.dumps({**record.as_dict(), "slow_ms": self.slow_ms})
            with self._slow_lock:
                if self._slow_handle is None:
                    self._slow_handle = open(
                        self._slow_log_path, "a", encoding="utf-8"
                    )
                self._slow_handle.write(line + "\n")
                self._slow_handle.flush()
        except Exception:  # noqa: BLE001 - a broken log sink must not
            # fail requests
            pass

    def _history_record(self, job: _Job) -> Dict:
        """One query-history line: the durable view of the request's
        terminal facts (those of :data:`_HISTORY_FACTS`), keyed by its
        canonical signature, plus the query's structural features and
        the plan facts."""
        request = job.request
        query = request.query
        facts = job.record.facts
        features: Dict[str, object] = {
            "query_vertices": query.num_vertices,
            "query_edges": query.num_edges,
            "query_labels": len(query.distinct_labels()),
            "max_degree": max(
                (query.degree(u) for u in query.vertices()), default=0
            ),
            "solo": request.solo,
        }
        if job.plan is not None:
            features.update(job.plan)
        return {
            **{key: facts[key] for key in _HISTORY_FACTS},
            "signature": (
                job.signature
                if job.signature is not None
                # Failed before prepare: no canonical signature was
                # computed; the raw fingerprint still keys the record.
                else f"unprepared:{query.fingerprint()}"
            ),
            "features": features,
        }


# ----------------------------------------------------------------------
# Thread executor: task queue, worker threads, heartbeat watchdog
# ----------------------------------------------------------------------
#: A task on the worker channel: a job and the pivots of its share,
#: ``None`` when the job runs solo.
_Task = Tuple[_Job, Optional[List[int]]]


def _units(share: Optional[List[int]]) -> int:
    """How many units a task covers (0 for a solo run)."""
    return 0 if share is None else len(share)


class _Beat:
    """One worker's heartbeat: which task it holds and since when."""

    __slots__ = ("slot", "job", "share", "started")

    def __init__(
        self, slot: int, job: _Job, share: Optional[List[int]], now: float
    ) -> None:
        self.slot = slot
        self.job = job
        self.share = share
        self.started = now


class _ThreadExecutor:
    """Tasks on a :class:`~repro.service.scheduler.TaskQueue`, drained
    by ``workers`` threads under a heartbeat watchdog.

    The watchdog patrols every ``watchdog_interval`` seconds: a worker
    thread that *died* holding a task (real bug or injected crash) has
    the task's units failed as a crash and its slot respawned, so the
    pool never silently shrinks; with ``stall_after_seconds`` set, a
    worker wedged that long on one heartbeat is condemned, its request
    resolves ``TIMEOUT``, and a replacement is spawned immediately.
    """

    def __init__(
        self,
        service: MatchService,
        workers: int,
        stall_after_seconds: Optional[float],
        watchdog_interval: float,
    ) -> None:
        if stall_after_seconds is not None and stall_after_seconds <= 0:
            raise ValueError("stall_after_seconds must be positive")
        if watchdog_interval <= 0:
            raise ValueError("watchdog_interval must be positive")
        self.service = service
        self.stall_after_seconds = stall_after_seconds
        self.watchdog_interval = watchdog_interval
        self._tasks: TaskQueue[_Task] = TaskQueue()
        #: Monotone pick counter feeding the fault plan's predicate.
        self._task_picks = itertools.count()
        self._closing = False
        #: Worker supervision state (guarded by ``_pool_lock``):
        #: ``_pool[slot]`` is the current thread of each slot,
        #: ``_active`` maps a worker thread ident to its heartbeat,
        #: ``_condemned`` holds idents told to exit at the next boundary.
        self._pool_lock = threading.Lock()
        self._pool: List[threading.Thread] = []
        self._active: Dict[int, _Beat] = {}
        self._condemned: Set[int] = set()
        self._worker_seq = 0
        with self._pool_lock:
            for slot in range(workers):
                self._spawn_worker(slot)
        self._watchdog_stop = threading.Event()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="svc-watchdog", daemon=True
        )
        self._watchdog.start()

    # -- Executor protocol ---------------------------------------------
    def run_solo(self, job: _Job) -> None:
        try:
            self._tasks.push_solo((job, None))
        except RuntimeError:
            # The queue closed mid-push (timed-out close): the close
            # path has already force-finalized every leftover job.
            pass

    def run_units(self, job: _Job, assignment: List[List[int]]) -> None:
        try:
            for share in assignment:
                if share:
                    self._tasks.push((job, share))
        except RuntimeError:
            pass  # closed mid-push, as in run_solo

    def healthy(self) -> int:
        with self._pool_lock:
            return sum(1 for thread in self._pool if thread.is_alive())

    def queue_depth(self) -> int:
        return len(self._tasks)

    def snapshot(self) -> Dict[str, object]:
        return {"scheduler": self._tasks.snapshot()}

    def close(self, left: Callable[[], Optional[float]]) -> bool:
        self._closing = True
        self._watchdog_stop.set()
        self._tasks.close()
        with self._pool_lock:
            pool = list(self._pool)
        for thread in pool:
            thread.join(left())
        self._watchdog.join(left())
        return not self._watchdog.is_alive() and not any(
            thread.is_alive() for thread in pool
        )

    # -- Workers ----------------------------------------------------------
    def _spawn_worker(self, slot: int) -> None:
        """Start a fresh thread in ``slot`` (callers hold _pool_lock)."""
        self._worker_seq += 1
        thread = threading.Thread(
            target=self._worker_loop,
            args=(slot,),
            name=f"svc-worker-{slot}.{self._worker_seq}",
            daemon=True,
        )
        if slot == len(self._pool):
            self._pool.append(thread)
        else:
            self._pool[slot] = thread
        thread.start()

    def _worker_loop(self, slot: int) -> None:
        ident = threading.get_ident()
        while True:
            with self._pool_lock:
                if ident in self._condemned:
                    self._condemned.discard(ident)
                    self._active.pop(ident, None)
                    return
            task = self._tasks.pop(timeout=_POP_INTERVAL)
            if task is None:
                if self._tasks.closed:
                    return
                continue
            if not self._run(ident, slot, *task):
                return
            # Pop the next task holding none (see _run).
            del task

    def _run(
        self, ident: int, slot: int, job: _Job, share: Optional[List[int]]
    ) -> bool:
        """Run one task on this worker; False if the worker died doing
        it.  Its own frame, so neither the job nor the task's payload
        outlives the task in an idle worker."""
        service = self.service
        plan = service.fault_plan
        pick = next(self._task_picks)
        with self._pool_lock:
            self._active[ident] = _Beat(slot, job, share, time.perf_counter())
        try:
            if plan is not None and plan.thread_crashes_at(pick):
                raise InjectedCrash("service-worker", slot)
            if not job.done:  # the monitor resolves deadline/cancel
                started = time.perf_counter()
                payload = run_task(
                    job.store, job.symmetry, share, job.request.limit,
                    job.tracker,
                )
                service._task_done(
                    job, payload, time.perf_counter() - started,
                    started, slot,
                )
        except InjectedCrash:
            # Simulated thread death: exit without any cleanup (a
            # really-dead thread cleans up nothing), leaving the
            # heartbeat registered so the watchdog recovers the
            # in-flight task and respawns the slot.
            return False
        except Exception as exc:  # noqa: BLE001 - fail the request,
            # not the worker: the pool must survive any one query
            service._unit_failed(job, _units(share), repr(exc))
        with self._pool_lock:
            self._active.pop(ident, None)
        return True

    # -- Watchdog ---------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._watchdog_stop.wait(self.watchdog_interval):
            self._patrol()

    def _patrol(self) -> None:
        """One supervision pass: respawn dead workers (recovering the
        task each one died holding), condemn wedged ones."""
        if self._closing:
            return
        now = time.perf_counter()
        crashed: List[_Beat] = []
        stalled: List[_Beat] = []
        metrics = self.service.metrics
        with self._pool_lock:
            for slot, thread in enumerate(self._pool):
                ident = thread.ident
                if ident is None:  # not started yet (spawn in progress)
                    continue
                if not thread.is_alive():
                    beat = self._active.pop(ident, None)
                    self._condemned.discard(ident)
                    self._spawn_worker(slot)
                    metrics.inc("service_worker_respawns")
                    if beat is not None:
                        crashed.append(beat)
                    continue
                if self.stall_after_seconds is None:
                    continue
                beat = self._active.get(ident)
                if (
                    beat is not None
                    and now - beat.started > self.stall_after_seconds
                ):
                    # Python threads cannot be killed: condemn the ident
                    # (the thread exits at its next loop boundary), drop
                    # its heartbeat so it is not re-condemned, and bring
                    # the pool back to strength immediately.
                    self._condemned.add(ident)
                    self._active.pop(ident, None)
                    self._spawn_worker(slot)
                    metrics.inc("service_worker_stalls")
                    metrics.inc("service_worker_respawns")
                    stalled.append(beat)
        for beat in crashed:
            units = _units(beat.share)
            beat.job.record.event("worker_crash", slot=beat.slot, units=units)
            self.service._unit_failed(
                beat.job, units,
                f"worker died holding the request (slot {beat.slot})",
                kind="crash",
            )
        for beat in stalled:
            units = _units(beat.share)
            beat.job.record.event("worker_stall", slot=beat.slot, units=units)
            self.service._unit_failed(
                beat.job, units,
                f"request stalled past {self.stall_after_seconds}s "
                f"on a worker; the worker was condemned and replaced",
                kind="timeout",
            )
