"""Workload distribution policies — Section 4.2/4.3.

Three policies over a pool of work units (embedding clusters or their
ExtremeCluster fragments):

* **ST** — static: units pre-assigned in equal-count blocks, no
  re-adjustment ("assign an equal number of embedding clusters to each
  worker");
* **CGD** — coarse-grained dynamic: classical pull-based balancing at
  *cluster* granularity — an idle worker pulls the next unit;
* **FGD** — fine-grained dynamic: the same pull loop but over the
  ExtremeCluster-decomposed pool (the caller supplies decomposed units).

Policies are pure functions from per-unit costs to an assignment, so the
same code plans the service's units (``dynamic_schedule`` over cluster
cardinalities) and drives the simulated-time executor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["Assignment", "static_schedule", "dynamic_schedule", "POLICIES"]


@dataclass(frozen=True)
class Assignment:
    """Result of scheduling ``len(unit_costs)`` units onto workers."""

    #: ``worker_units[w]`` — unit indices executed by worker ``w`` in order.
    worker_units: Tuple[Tuple[int, ...], ...]
    #: ``finish_times[w]`` — cumulative cost when worker ``w`` goes idle.
    finish_times: Tuple[float, ...]

    @property
    def makespan(self) -> float:
        """Longest worker finishing time."""
        return max(self.finish_times) if self.finish_times else 0.0

    @property
    def skew(self) -> float:
        """Makespan divided by the mean finish time (1.0 = perfectly
        balanced) — the quantity Figure 12 plots per worker."""
        if not self.finish_times:
            return 1.0
        mean = sum(self.finish_times) / len(self.finish_times)
        return self.makespan / mean if mean > 0 else 1.0


def static_schedule(unit_costs: Sequence[float], workers: int) -> Assignment:
    """ST: contiguous equal-count blocks, fixed up front."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = len(unit_costs)
    per_worker = (n + workers - 1) // workers if n else 0
    worker_units: List[List[int]] = [[] for _ in range(workers)]
    for i in range(n):
        worker_units[min(i // per_worker, workers - 1) if per_worker else 0].append(i)
    finish = tuple(
        float(sum(unit_costs[i] for i in units)) for units in worker_units
    )
    return Assignment(tuple(tuple(u) for u in worker_units), finish)


def dynamic_schedule(
    unit_costs: Sequence[float],
    workers: int,
    pull_overhead: float = 0.0,
) -> Assignment:
    """Pull-based dynamic balancing (CGD/FGD): the next unit in pool
    order goes to whichever worker frees up first.  ``pull_overhead`` is
    charged per pull — the one-time distribution cost that makes very
    small ``beta`` counterproductive (Figure 12's scheduling overhead).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    worker_units: List[List[int]] = [[] for _ in range(workers)]
    heap: List[Tuple[float, int]] = [(0.0, w) for w in range(workers)]
    heapq.heapify(heap)
    for i, cost in enumerate(unit_costs):
        busy_until, w = heapq.heappop(heap)
        worker_units[w].append(i)
        heapq.heappush(heap, (busy_until + float(cost) + pull_overhead, w))
    finish = [0.0] * workers
    for busy_until, w in heap:
        finish[w] = busy_until
    return Assignment(tuple(tuple(u) for u in worker_units), tuple(finish))


#: Name -> scheduling function (uniform signature).
POLICIES = {
    "ST": lambda costs, workers: static_schedule(costs, workers),
    "CGD": lambda costs, workers: dynamic_schedule(costs, workers),
    "FGD": lambda costs, workers: dynamic_schedule(costs, workers),
}
