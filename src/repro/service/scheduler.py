"""Fair interleaving of per-cluster work units across concurrent queries.

The service decomposes every unbounded request into its embedding
clusters (the Section 4.2 work units) and feeds all requests' units to
one worker pool.  A plain FIFO would let one huge query's hundreds of
units starve every small query queued behind it; the classical fix is
*weighted fair queuing*: each job owns a virtual clock that advances by
the **normalized** workload of each of its units (its total workload
maps onto ``[0, 1]``), and the pool always runs the task with the
smallest virtual finish time.  Every admitted job therefore progresses
through its own work at the same virtual rate regardless of how big its
neighbours are — a 3-unit query interleaves evenly with a 300-unit one
instead of waiting for all 300.

Budgeted/limited requests run *solo* (un-decomposed, to reproduce the
sequential truncation prefix exactly — see
:class:`~repro.service.request.MatchRequest`) and are deadline-
sensitive, so solo tasks enter at virtual time ``-1.0``: ahead of every
batched unit, FIFO among themselves via the monotone sequence number.

:func:`fair_interleave` is the pure-function core (what the property
tests exercise); :class:`FairTaskQueue` wraps it into the blocking
producer/consumer channel between the service's scheduler thread and
its workers.  The per-job *unit lists* come from the same pool the
parallel executors schedule (:mod:`repro.parallel.scheduling` consumes
identical ``(prefix, workload)`` units); the service additionally runs
:func:`~repro.parallel.scheduling.dynamic_schedule` over each admitted
job's unit costs once: the shard executor runs that assignment, and its
predicted makespan/skew are published as gauges.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["fair_interleave", "FairTaskQueue"]

T = TypeVar("T")

#: Virtual time assigned to solo (budgeted/limited) tasks — strictly
#: ahead of every batched unit, whose virtual times live in ``(0, 1]``.
SOLO_VTIME = -1.0

#: Virtual time assigned to *recovered* tasks (work re-enqueued after
#: its executor died mid-flight) — strictly ahead even of queued solo
#: tasks: the lost task's request has already waited one full execution
#: attempt, so recovery runs head-of-line or its latency doubles.
RECOVERY_VTIME = -2.0


def fair_interleave(
    unit_workloads: Sequence[Sequence[float]],
) -> List[Tuple[int, int]]:
    """Weighted-fair order over several jobs' unit lists.

    ``unit_workloads[j][i]`` is the workload of job ``j``'s ``i``-th
    unit; the result lists ``(job, unit)`` pairs in execution order.
    Each job's units stay in their own order (the service relies on
    in-job order being preserved so per-pivot results can be
    concatenated back into sequential enumeration order), and jobs
    advance proportionally to their normalized progress: after any
    prefix of the schedule, no job is more than one unit ahead of
    another in fraction-of-total-work terms.
    """
    heap: List[Tuple[float, int, int]] = []
    totals = []
    for j, workloads in enumerate(unit_workloads):
        total = float(sum(workloads)) or 1.0
        totals.append(total)
        if workloads:
            heap.append((float(workloads[0]) / total, j, 0))
    heapq.heapify(heap)
    out: List[Tuple[int, int]] = []
    while heap:
        vtime, j, i = heapq.heappop(heap)
        out.append((j, i))
        workloads = unit_workloads[j]
        if i + 1 < len(workloads):
            heapq.heappush(
                heap, (vtime + float(workloads[i + 1]) / totals[j], j, i + 1)
            )
    return out


class FairTaskQueue(Generic[T]):
    """Blocking priority channel ordered by ``(virtual time, seq)``.

    ``push_job`` enqueues one job's units with cumulative normalized
    virtual times — so units of concurrently-admitted jobs interleave
    exactly as :func:`fair_interleave` would order them — and
    ``push_solo`` enqueues a deadline-sensitive task ahead of all of
    them.  ``pop`` blocks until a task is available or the queue is
    closed *and* drained, in which case it returns ``None`` (the worker
    shutdown signal).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, T]] = []
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._closed = False
        #: Lifetime telemetry (guarded by ``_lock``): tasks enqueued by
        #: kind and tasks handed to workers — the numbers behind the
        #: service's scheduler-depth gauges.
        self._pushed_solo = 0
        self._pushed_units = 0
        self._popped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called — lets a worker polling
        ``pop(timeout=...)`` tell shutdown (``None`` + closed) apart
        from an idle interval (``None`` + open)."""
        with self._lock:
            return self._closed

    def push(self, vtime: float, item: T) -> None:
        """Enqueue one task at an explicit virtual time."""
        with self._ready:
            if self._closed:
                raise RuntimeError("task queue is closed")
            heapq.heappush(self._heap, (vtime, next(self._seq), item))
            if vtime <= SOLO_VTIME:
                self._pushed_solo += 1
            else:
                self._pushed_units += 1
            self._ready.notify()

    def push_solo(self, item: T) -> None:
        """Enqueue a solo task ahead of every batched unit."""
        self.push(SOLO_VTIME, item)

    def push_recovered(self, item: T) -> None:
        """Re-enqueue a task lost to a dead executor, head-of-line:
        ahead of queued solo tasks and every batched unit (the sharded
        service's crash-recovery re-dispatch path)."""
        self.push(RECOVERY_VTIME, item)

    def push_job(
        self, items: Sequence[T], workloads: Sequence[float]
    ) -> None:
        """Enqueue one job's unit tasks under cumulative normalized
        virtual times (``len(items) == len(workloads)``)."""
        if len(items) != len(workloads):
            raise ValueError("one workload per item required")
        total = float(sum(workloads)) or 1.0
        vtime = 0.0
        with self._ready:
            if self._closed:
                raise RuntimeError("task queue is closed")
            for item, workload in zip(items, workloads):
                vtime += float(workload) / total
                heapq.heappush(self._heap, (vtime, next(self._seq), item))
            self._pushed_units += len(items)
            self._ready.notify_all()

    def pop(self, timeout: Optional[float] = None) -> Optional[T]:
        """Next task by virtual-time order; ``None`` once the queue is
        closed and empty (or on timeout)."""
        with self._ready:
            while not self._heap:
                if self._closed:
                    return None
                if not self._ready.wait(timeout=timeout):
                    return None
            self._popped += 1
            return heapq.heappop(self._heap)[2]

    def snapshot(self) -> dict:
        """Queue telemetry: current depth plus lifetime push/pop
        counters, one consistent read."""
        with self._lock:
            return {
                "depth": len(self._heap),
                "pushed_solo": self._pushed_solo,
                "pushed_units": self._pushed_units,
                "popped": self._popped,
                "closed": self._closed,
            }

    def close(self) -> None:
        """No more pushes; blocked ``pop`` calls drain then return
        ``None``."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()
