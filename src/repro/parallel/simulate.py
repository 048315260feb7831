"""Deterministic simulated-time parallel execution.

The paper measures thread scaling on a 28-core OpenMP machine.  Pure
Python cannot show CPU-bound thread speedup (the GIL serializes it), so
the scalability figures run on this simulator instead: each work unit's
*true* sequential cost is measured once (recursive calls of its
enumeration), then a scheduling policy replays those costs on ``k``
virtual workers and reports the makespan.  This reproduces exactly the
phenomena Figures 11-14 and 16-17 are about — policy quality, cluster
skew, and the flattening when units run out — while staying exact and
machine-independent.  DESIGN.md Section 2 documents the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.clusters import WorkUnit
from ..core.enumeration import Enumerator
from ..core.matcher import CECIMatcher
from ..core.stats import MatchStats
from .scheduling import Assignment, dynamic_schedule, static_schedule

__all__ = [
    "measure_unit_costs",
    "simulate_policy",
    "speedup_curve",
    "PolicyResult",
]

#: Cost charged per unit pulled under dynamic policies (work-pool lock,
#: in recursive-call units).  Small but nonzero, so decomposing into very
#: many fragments has a price.
PULL_OVERHEAD = 0.25

#: One-time cost of *creating* one decomposed work unit (Algorithm 3's
#: cardinality bookkeeping), charged to the makespan as setup.
DECOMPOSE_OVERHEAD = 0.25


def measure_unit_costs(
    matcher: CECIMatcher, units: Sequence[WorkUnit]
) -> List[float]:
    """Sequentially enumerate each unit and record its true cost
    (recursive calls).  The embeddings themselves are discarded here;
    correctness of unit-partitioned enumeration is asserted by the test
    suite instead."""
    ceci = matcher.build()
    costs: List[float] = []
    for unit in units:
        stats = MatchStats()
        enumerator = Enumerator(
            ceci,
            symmetry=matcher.symmetry,
            use_intersection=matcher.use_intersection,
            stats=stats,
        )
        enumerator.collect_from_unit(unit.prefix)
        costs.append(float(stats.recursive_calls))
    return costs


@dataclass(frozen=True)
class PolicyResult:
    """Simulated outcome of one (policy, worker-count) combination."""

    policy: str
    workers: int
    makespan: float
    sequential_cost: float
    setup_cost: float
    assignment: Assignment

    @property
    def speedup(self) -> float:
        """Sequential cost over parallel makespan (incl. setup)."""
        denominator = self.makespan + self.setup_cost
        return self.sequential_cost / denominator if denominator > 0 else 1.0

    @property
    def worker_finish_times(self) -> Tuple[float, ...]:
        """Per-worker busy time — Figure 12's bars."""
        return self.assignment.finish_times


def simulate_policy(
    matcher: CECIMatcher,
    workers: int,
    policy: str = "FGD",
    beta: float = 0.2,
    unit_costs: Optional[Sequence[float]] = None,
    units: Optional[Sequence[WorkUnit]] = None,
) -> PolicyResult:
    """Measure (or reuse) per-unit costs and replay them under a policy.

    ``policy`` is ``"ST"``, ``"CGD"`` (both use intact clusters) or
    ``"FGD"`` (ExtremeCluster decomposition with ``beta``).
    """
    if policy not in ("ST", "CGD", "FGD"):
        raise ValueError(f"unknown policy {policy!r}")
    if units is None:
        if policy == "FGD":
            units = matcher.work_units(worker_count=workers, beta=beta)
        else:
            units = matcher.work_units(beta=None)
    if policy == "ST":
        # Static distribution has no work pool: clusters are handed out
        # in natural pivot order, not sorted by cardinality (the sort is
        # a dynamic-pool optimization, Section 4.3).
        if unit_costs is None:
            units = sorted(units, key=lambda unit: unit.prefix)
        else:
            paired = sorted(zip(units, unit_costs), key=lambda p: p[0].prefix)
            units = [unit for unit, _ in paired]
            unit_costs = [cost for _, cost in paired]
    if unit_costs is None:
        unit_costs = measure_unit_costs(matcher, units)
    sequential = float(sum(unit_costs))
    setup = 0.0
    if policy == "ST":
        assignment = static_schedule(unit_costs, workers)
    else:
        assignment = dynamic_schedule(
            unit_costs, workers, pull_overhead=PULL_OVERHEAD
        )
        if policy == "FGD":
            fragments = sum(1 for unit in units if unit.depth > 1)
            setup = DECOMPOSE_OVERHEAD * fragments
    return PolicyResult(
        policy=policy,
        workers=workers,
        makespan=assignment.makespan,
        sequential_cost=sequential,
        setup_cost=setup,
        assignment=assignment,
    )


def speedup_curve(
    matcher: CECIMatcher,
    worker_counts: Sequence[int],
    policy: str = "FGD",
    beta: float = 0.2,
) -> Dict[int, float]:
    """Speedup at each worker count (Figures 13/14/16/17 series).

    Cluster costs are measured once and reused across worker counts;
    FGD re-decomposes per worker count because the ExtremeCluster
    threshold depends on ``cardinality_exp = total / workers``.
    """
    curve: Dict[int, float] = {}
    cached_units = None
    cached_costs = None
    if policy != "FGD":
        cached_units = matcher.work_units(beta=None)
        cached_costs = measure_unit_costs(matcher, cached_units)
    for workers in worker_counts:
        result = simulate_policy(
            matcher,
            workers,
            policy=policy,
            beta=beta,
            units=cached_units,
            unit_costs=cached_costs,
        )
        curve[workers] = result.speedup
    return curve
