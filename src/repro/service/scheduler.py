"""The task channel between the service's scheduler and its workers.

The front end cuts each unbounded request once into weight-balanced
chunks, by LPT over its clusters' ``cluster_cardinality`` (Section 4's
cardinality-driven balancing, :func:`~repro.service.service.chunk_plan`):
one chunk for a request of up to a few dozen pivots, at most a few per
worker for a large one.  Both executors run one task per chunk from one
:class:`TaskQueue`, drained by whichever worker (thread or shard) frees
first, so a large request's chunks spread over the idle workers and a
small one runs on one.  The channel needs no per-unit fairness; it
serves three lanes in priority order:

1. **recovered** — work re-enqueued after its executor died mid-flight
   (the sharded service's crash-recovery path): its request has
   already waited one full execution attempt, so recovery runs
   head-of-line or its latency doubles;
2. **solo** — budgeted/limited requests, run un-decomposed so their
   truncation prefix is the sequential one, and deadline-sensitive;
3. **batched** — the chunks of unbounded requests, FIFO.

Within a lane tasks run in arrival order, so a small batched request
waits behind every chunk queued before it: up to a few chunks per
worker for each large request ahead of it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Generic, Optional, Tuple, TypeVar

__all__ = ["TaskQueue"]

T = TypeVar("T")

#: Lane indices, in the order ``pop`` serves them.
_RECOVERED_LANE, _SOLO_LANE, _BATCHED_LANE = 0, 1, 2


class TaskQueue(Generic[T]):
    """Blocking three-lane channel: recovered, then solo, then batched
    tasks, each lane FIFO.  ``pop`` blocks until a task is available or
    the queue is closed *and* drained, in which case it returns ``None``
    (the worker shutdown signal)."""

    def __init__(self) -> None:
        self._lanes: Tuple[Deque[T], ...] = (deque(), deque(), deque())
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False
        #: Lifetime telemetry (guarded by ``_lock``): tasks enqueued per
        #: lane and tasks handed to workers — the numbers behind the
        #: service's scheduler-depth gauges.
        self._pushed = [0, 0, 0]
        self._popped = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(len(lane) for lane in self._lanes)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called — lets a worker polling
        ``pop(timeout=...)`` tell shutdown (``None`` + closed) apart
        from an idle interval (``None`` + open)."""
        with self._lock:
            return self._closed

    def _push(self, lane: int, item: T) -> None:
        with self._ready:
            if self._closed:
                raise RuntimeError("task queue is closed")
            self._lanes[lane].append(item)
            self._pushed[lane] += 1
            self._ready.notify()

    def push(self, item: T) -> None:
        """Enqueue a batched task behind every queued one."""
        self._push(_BATCHED_LANE, item)

    def push_solo(self, item: T) -> None:
        """Enqueue a solo task ahead of every batched task."""
        self._push(_SOLO_LANE, item)

    def push_recovered(self, item: T) -> None:
        """Re-enqueue a task lost to a dead executor, head-of-line:
        ahead of queued solo and batched tasks."""
        self._push(_RECOVERED_LANE, item)

    def pop(self, timeout: Optional[float] = None) -> Optional[T]:
        """Next task by lane priority; ``None`` once the queue is closed
        and empty (or on timeout)."""
        with self._ready:
            while True:
                for lane in self._lanes:
                    if lane:
                        self._popped += 1
                        return lane.popleft()
                if self._closed:
                    return None
                if not self._ready.wait(timeout=timeout):
                    return None

    def snapshot(self) -> dict:
        """Queue telemetry: current depth plus lifetime push/pop
        counters, one consistent read."""
        with self._lock:
            return {
                "depth": sum(len(lane) for lane in self._lanes),
                "pushed_recovered": self._pushed[_RECOVERED_LANE],
                "pushed_solo": self._pushed[_SOLO_LANE],
                "pushed_units": self._pushed[_BATCHED_LANE],
                "popped": self._popped,
                "closed": self._closed,
            }

    def close(self) -> None:
        """No more pushes; blocked ``pop`` calls drain then return
        ``None``."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()
