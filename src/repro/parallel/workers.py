"""Real-thread parallel enumeration, crash-safe.

The paper's ``k embeddings at a time`` execution: ``k`` workers pull
work units (embedding clusters or their fragments) from a shared pool
and enumerate them concurrently.  Python threads do not give CPU-bound
speedup (GIL), but this executor is the *correctness* counterpart of the
simulator — it proves the cluster partitioning is race-free and exact,
and it does overlap any releases of the GIL.  The scalability *figures*
use :mod:`repro.parallel.simulate` (see DESIGN.md substitutions).

Failure model (see DESIGN.md, "Failure model & budgets"):

* a unit whose enumeration raises is captured in the worker's
  :class:`WorkerReport` and requeued to the surviving workers, up to
  ``max_retries`` re-attempts per unit;
* a *crashed* worker (injected via :class:`~repro.resilience.faults.
  FaultPlan`, or any exception escaping the pull loop itself) stops
  pulling; its in-flight unit is requeued and, under the static (ST)
  policy, its unstarted block is redistributed;
* a unit's embeddings are buffered privately and committed to the
  shared result only when the unit completes, so a retried unit can
  never contribute duplicates;
* the run either returns exactly the sequential embedding set (or
  exactly ``limit`` of it) or raises
  :class:`~repro.resilience.recovery.ParallelExecutionError` carrying a
  full :class:`~repro.resilience.recovery.FailureReport` — embeddings
  are never silently dropped.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.clusters import WorkUnit
from ..core.enumeration import Enumerator
from ..core.matcher import CECIMatcher
from ..core.stats import MatchStats
from ..resilience.faults import FaultPlan, InjectedCrash, InjectedUnitError
from ..resilience.recovery import (
    FailureReport,
    ParallelExecutionError,
    RecoveryLog,
    RetryPolicy,
)

__all__ = ["parallel_match", "WorkerReport"]


class WorkerReport:
    """Per-worker outcome of a :func:`parallel_match` run."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        #: Units this worker finished (completed or stopped by the
        #: global limit) — failed attempts are counted separately.
        self.units_processed = 0
        #: Unit attempts on this worker that ended in an exception.
        self.units_failed = 0
        self.embeddings: List[Tuple[int, ...]] = []
        self.stats = MatchStats()
        #: True once this worker thread died mid-run.
        self.crashed = False
        #: Human-readable record of every failure this worker saw.
        self.failures: List[str] = []


class _RunState:
    """Shared coordination state for one parallel run."""

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.lock = threading.Lock()
        self.found_count = 0
        self.stop = threading.Event()
        #: Global count of unit attempts started — the deterministic
        #: clock the fault plan's pick indices refer to.
        self.picks = 0

    def next_pick(self) -> int:
        with self.lock:
            index = self.picks
            self.picks += 1
            return index

    def commit(
        self, report: WorkerReport, buffer: List[Tuple[int, ...]]
    ) -> None:
        """Publish a finished unit's embeddings atomically, respecting
        the global limit exactly (no over- or under-count races)."""
        if not buffer:
            return
        with self.lock:
            for embedding in buffer:
                if self.limit is not None and self.found_count >= self.limit:
                    self.stop.set()
                    return
                self.found_count += 1
                report.embeddings.append(embedding)
            if self.limit is not None and self.found_count >= self.limit:
                self.stop.set()


def parallel_match(
    matcher: CECIMatcher,
    workers: int = 4,
    policy: str = "FGD",
    beta: float = 0.2,
    limit: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_retries: int = 2,
) -> Tuple[List[Tuple[int, ...]], List[WorkerReport]]:
    """Enumerate all embeddings with ``workers`` pull-based threads.

    Returns ``(embeddings, per-worker reports)``.  Under ``"ST"`` units
    are pre-partitioned per worker; under ``"CGD"``/``"FGD"`` workers
    pull from a shared queue (FGD additionally decomposes
    ExtremeClusters).  The union of worker outputs is exactly the
    sequential embedding set — the test suite asserts it — and with
    ``limit`` set, exactly ``limit`` embeddings are returned.

    ``fault_plan`` injects deterministic worker crashes / unit errors;
    failed or orphaned units are requeued to surviving workers with at
    most ``max_retries`` re-attempts each.  If any unit is permanently
    lost (retries exhausted, or every worker crashed) the run raises
    :class:`ParallelExecutionError` instead of returning a short set.
    Recovery accounting lands in ``matcher.stats`` (``retries``,
    ``reassignments``, ``worker_crashes``).

    On success every worker's counters are folded into ``matcher.stats``
    through the one :meth:`~repro.core.stats.MatchStats.merge` path
    (work counters sum, ``memory_bytes`` keeps the peak), so callers
    read one consolidated stats object; per-worker numbers stay
    available on the reports.  With a traced matcher each unit attempt
    runs under a worker-tagged ``unit`` span and books its wall time as
    a worker-tagged ``enumerate`` phase — the per-worker bars of
    ``repro trace summarize``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if policy == "FGD":
        units = matcher.work_units(worker_count=workers, beta=beta)
    elif policy in ("ST", "CGD"):
        units = matcher.work_units(beta=None)
    else:
        raise ValueError(f"unknown policy {policy!r}")

    # One built store shared by every worker: the workers read frozen
    # int64 arrays (immutable, so sharing is race-free by construction)
    # and each unit's candidate lookups are zero-copy slices of the
    # same buffers — nothing is pickled or duplicated per worker.
    ceci = matcher.build()
    tracer = matcher.tracer
    reports = [WorkerReport(w) for w in range(workers)]
    state = _RunState(limit)
    retry_policy = RetryPolicy(max_retries)
    log = RecoveryLog()
    failure = FailureReport(log=log)
    attempts: Dict[Tuple[int, ...], int] = {}

    def run_unit(worker: int, report: WorkerReport, unit: WorkUnit) -> None:
        """One unit attempt: may raise; commits only on success."""
        index = state.next_pick()
        if fault_plan is not None:
            if fault_plan.worker_crash_at(index):
                raise InjectedCrash("worker", worker)
            if fault_plan.worker_error_at(index):
                raise InjectedUnitError(worker, index)
        wtracer = tracer.scoped(worker=worker) if tracer.enabled else tracer
        enumerator = Enumerator(
            ceci,
            symmetry=matcher.symmetry,
            use_intersection=matcher.use_intersection,
            stats=report.stats,
            tracer=wtracer,
        )
        buffer: List[Tuple[int, ...]] = []
        started = time.perf_counter()
        try:
            with wtracer.span(
                "unit", prefix=[int(v) for v in unit.prefix]
            ):
                for embedding in enumerator.embeddings_from_unit(unit.prefix):
                    buffer.append(embedding)
                    if state.stop.is_set():
                        break
        finally:
            # Book the attempt's wall time whether it finished or raised
            # — stats and trace get the same float, so the per-worker
            # breakdown of ``trace summarize`` matches the merged stats.
            seconds = time.perf_counter() - started
            report.stats.add_phase("enumerate", seconds)
            if wtracer.enabled:
                wtracer.phase("enumerate", started, seconds)
        state.commit(report, buffer)
        # Completed *and* limit-stopped units both count as processed —
        # the unit occupied this worker either way.
        report.units_processed += 1

    def run_round(
        round_units: List[WorkUnit], alive: List[int]
    ) -> Tuple[List[WorkUnit], List[WorkUnit]]:
        """Execute one scheduling round on the surviving workers.

        Returns ``(failed_units, orphaned_units)``: failed units burned
        an attempt, orphaned units never started (their worker crashed
        first, or every worker died before the queue drained).
        """
        failed: List[List[WorkUnit]] = [[] for _ in range(workers)]
        orphaned: List[List[WorkUnit]] = [[] for _ in range(workers)]
        threads: List[threading.Thread] = []

        def attempt(worker: int, unit: WorkUnit) -> bool:
            """Run one unit; record failures.  False = worker crashed."""
            report = reports[worker]
            try:
                run_unit(worker, report, unit)
                return True
            except InjectedCrash as crash:
                report.crashed = True
                report.failures.append(str(crash))
                failed[worker].append(unit)
                log.record(
                    "worker_crash", worker, unit.prefix, detail=str(crash)
                )
                matcher.stats.worker_crashes += 1
                return False
            except Exception as exc:  # noqa: BLE001 — report, never drop
                report.units_failed += 1
                report.failures.append(f"unit {unit.prefix}: {exc!r}")
                failed[worker].append(unit)
                log.record(
                    "unit_error", worker, unit.prefix, detail=repr(exc)
                )
                return True

        if policy == "ST":
            n = len(round_units)
            alive_count = len(alive)
            per_worker = (n + alive_count - 1) // alive_count if n else 0

            def static_worker(slot: int, worker: int) -> None:
                start = slot * per_worker
                block = round_units[start : start + per_worker]
                for position, unit in enumerate(block):
                    if state.stop.is_set():
                        return
                    if not attempt(worker, unit):
                        # Crashed: the rest of the block never started.
                        orphaned[worker].extend(block[position + 1 :])
                        return

            for slot, worker in enumerate(alive):
                threads.append(
                    threading.Thread(target=static_worker, args=(slot, worker))
                )
        else:
            pool: "queue.SimpleQueue[Optional[WorkUnit]]" = queue.SimpleQueue()
            for unit in round_units:
                pool.put(unit)
            for _ in alive:
                pool.put(None)  # poison pill per worker

            def dynamic_worker(worker: int) -> None:
                while not state.stop.is_set():
                    unit = pool.get()
                    if unit is None:
                        return
                    if not attempt(worker, unit):
                        return

            for worker in alive:
                threads.append(
                    threading.Thread(target=dynamic_worker, args=(worker,))
                )

        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        leftovers: List[WorkUnit] = []
        if policy != "ST" and not state.stop.is_set():
            # If every consumer crashed, unstarted units remain queued.
            while True:
                try:
                    unit = pool.get_nowait()
                except queue.Empty:
                    break
                if unit is not None:
                    leftovers.append(unit)
        flat_failed = [u for per in failed for u in per]
        flat_orphaned = [u for per in orphaned for u in per] + leftovers
        return flat_failed, flat_orphaned

    pending: List[WorkUnit] = list(units)
    while pending and not state.stop.is_set():
        alive = [w for w in range(workers) if not reports[w].crashed]
        if not alive:
            for unit in pending:
                failure.failed_work.append(
                    (unit.prefix, "no surviving workers")
                )
                log.record("give_up", -1, unit.prefix)
            break
        failed_units, orphaned_units = run_round(pending, alive)
        pending = []
        for unit in orphaned_units:
            # Never started: redistributing it costs no retry budget.
            matcher.stats.reassignments += 1
            log.record("reassign", -1, unit.prefix)
            pending.append(unit)
        for unit in failed_units:
            attempts[unit.prefix] = attempts.get(unit.prefix, 0) + 1
            if retry_policy.allows(attempts[unit.prefix]):
                matcher.stats.retries += 1
                log.record(
                    "requeue", -1, unit.prefix, attempt=attempts[unit.prefix]
                )
                pending.append(unit)
            else:
                failure.failed_work.append(
                    (unit.prefix, f"retries exhausted ({max_retries})")
                )
                log.record(
                    "give_up", -1, unit.prefix, attempt=attempts[unit.prefix]
                )

    failure.crashed = [r.worker_id for r in reports if r.crashed]
    limit_satisfied = (
        limit is not None and state.found_count >= limit
    )
    if failure.failed_work and not limit_satisfied:
        raise ParallelExecutionError(failure, reports)

    embeddings: List[Tuple[int, ...]] = []
    for report in reports:
        embeddings.extend(report.embeddings)
        matcher.stats.merge(report.stats)
    return embeddings, reports
