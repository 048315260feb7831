"""The simulated distributed CECI system (Section 5).

Execution proceeds exactly as the paper describes:

1. the coordinator preprocesses the query (root, tree, pivots) and
   distributes the cluster pivots with the lightweight workload estimate
   (synchronous sends — a per-pivot message cost);
2. every machine builds its *own* CECI over its pivot share, reading the
   graph through its storage model (replicated memory, or shared CSR
   with metered IO);
3. every machine enumerates its clusters, streaming each completed
   cluster's embeddings to machine 0; a machine that drains its local
   queue steals an unexplored cluster from the victim machine with the
   most remaining work (one-sided MPI_Get — a per-steal cost plus a
   remote-access penalty on the stolen cluster);
4. results are accumulated to machine 0.

Costs are simulated (DESIGN.md documents the substitution); the
*embeddings* are real — the union over machines is checked against the
sequential result in the test suite.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..core.enumeration import Enumerator
from ..core.filtering import build_ceci
from ..core.matching_order import make_order
from ..core.query_tree import QueryTree
from ..core.refinement import refine_ceci
from ..core.root_selection import initial_candidates
from ..core.automorphism import SymmetryBreaker
from ..core.stats import MatchStats
from ..graph import Graph
from ..observability.tracer import NULL_TRACER
from .machine import MachineReport
from .partition import distribute_pivots
from .storage import InMemoryStorage, SharedStorage, StorageModel

__all__ = ["DistributedCECI", "DistributedResult"]

#: Cost of one synchronous pivot message (MPI_Send/MPI_Recv pair).
PIVOT_MSG_COST = 0.5
#: Cost of one MPI_Get work steal.
STEAL_COST = 25.0
#: Remote-cluster penalty factor on stolen enumeration work.
STEAL_PENALTY = 1.15
#: Per-embedding cost of accumulating results on machine 0.
ACCUMULATE_COST = 0.01
#: Compute cost units per filter evaluation during construction.
FILTER_OP_COST = 1.0
#: Compute cost units per enumeration recursive call.
ENUM_OP_COST = 1.0


class DistributedResult:
    """Outcome of one distributed run."""

    def __init__(
        self,
        reports: List[MachineReport],
        embeddings: List[Tuple[int, ...]],
        construction_makespan: float,
        enumeration_makespan: float,
        accumulation_cost: float,
        stats: Optional[MatchStats] = None,
    ) -> None:
        self.reports = reports
        self.embeddings = embeddings
        self.construction_makespan = construction_makespan
        self.enumeration_makespan = enumeration_makespan
        self.accumulation_cost = accumulation_cost
        #: Aggregate counters (construction, enumeration, steals).
        self.stats = stats if stats is not None else MatchStats()

    @property
    def total_time(self) -> float:
        """End-to-end simulated time."""
        return (
            self.construction_makespan
            + self.enumeration_makespan
            + self.accumulation_cost
        )

    def construction_breakdown(self) -> Dict[str, float]:
        """Aggregate (max over machines per component) io/comm/compute —
        the Figure 20 bars."""
        io = max((r.construction_io for r in self.reports), default=0.0)
        comm = max((r.construction_comm for r in self.reports), default=0.0)
        compute = max(
            (r.construction_compute for r in self.reports), default=0.0
        )
        return {"io": io, "comm": comm, "compute": compute}


class DistributedCECI:
    """Distributed subgraph listing over 1..N simulated machines.

    ``tracer`` (optional) receives every machine's spans and phases,
    tagged ``machine=m`` — the per-machine streams merge into one trace
    file, and the run's real wall-clock filter / refine / enumerate
    phase records land both there and in ``DistributedResult.stats``
    with identical durations.  Per-machine construction and per-cluster
    enumeration counters are folded into the result's stats through the
    single :meth:`~repro.core.stats.MatchStats.merge` path.
    """

    def __init__(
        self,
        query: Graph,
        data: Graph,
        num_machines: int = 4,
        mode: str = "memory",
        break_automorphisms: bool = True,
        similarity_top: int = 1000,
        tracer=None,
    ) -> None:
        if mode not in ("memory", "shared"):
            raise ValueError(f"unknown storage mode {mode!r}")
        self.query = query
        self.data = data
        self.num_machines = num_machines
        self.mode = mode
        self.similarity_top = similarity_top
        self.symmetry = SymmetryBreaker(query, enabled=break_automorphisms)
        self.tracer = NULL_TRACER if tracer is None else tracer

    def run(self) -> DistributedResult:
        """Execute the full distributed pipeline."""
        stats = MatchStats()

        # --- coordinator preprocessing --------------------------------
        # One scan per query vertex serves the root cost function
        # (select_root's rule: first vertex of minimal |cand|/deg) and
        # the ranked matching order.
        root, pivots, best_cost = -1, [], float("inf")
        candidate_counts: List[int] = []
        for u in self.query.vertices():
            candidates = initial_candidates(self.query, self.data, u)
            candidate_counts.append(len(candidates))
            cost = len(candidates) / (self.query.degree(u) or 1)
            if cost < best_cost:
                root, pivots, best_cost = u, candidates, cost
        order = make_order(self.query, root, "bfs", candidate_counts)
        tree = QueryTree(self.query, root, order)

        machine_pivots = distribute_pivots(
            self.data,
            pivots,
            self.num_machines,
            mode=self.mode,
            similarity_top=self.similarity_top if self.mode == "memory" else 0,
        )
        storage: StorageModel = (
            InMemoryStorage(self.data)
            if self.mode == "memory"
            else SharedStorage(self.data)
        )

        # --- per-machine CECI construction -----------------------------
        reports = [MachineReport(m) for m in range(self.num_machines)]
        machine_clusters: List[List[Tuple[int, float]]] = []
        #: Deterministic per-cluster enumeration output, keyed by pivot
        #: (pivots are partitioned, so the key is globally unique).
        cluster_embeddings: Dict[int, List[Tuple[int, ...]]] = {}
        for m, my_pivots in enumerate(machine_pivots):
            report = reports[m]
            report.pivots = my_pivots
            report.construction_comm = PIVOT_MSG_COST * len(my_pivots)
            if not my_pivots:
                machine_clusters.append([])
                continue
            tracked = storage.graph_for_machine(m)
            mtracer = (
                self.tracer.scoped(machine=m)
                if self.tracer.enabled
                else self.tracer
            )
            io_before = getattr(storage, "per_machine_io", {}).get(m, 0.0)
            machine_stats = MatchStats()

            def _machine_phase(name: str, started: float) -> float:
                # Same float into the stats and the machine-tagged trace
                # record — the distributed leg of the stats/trace
                # agreement invariant.
                seconds = time.perf_counter() - started
                machine_stats.add_phase(name, seconds)
                if mtracer.enabled:
                    mtracer.phase(name, started, seconds)
                return seconds

            started = time.perf_counter()
            ceci = build_ceci(
                tree, tracked, my_pivots, machine_stats, tracer=mtracer
            )
            report.construction_seconds += _machine_phase("filter", started)

            started = time.perf_counter()
            refine_ceci(ceci, machine_stats, tracer=mtracer)
            report.construction_seconds += _machine_phase("refine", started)
            io_after = getattr(storage, "per_machine_io", {}).get(m, 0.0)
            report.construction_io = io_after - io_before
            # Freeze before enumeration: the machine's runtime index —
            # and the payload a placement would ship to it — is its
            # clusters' flat candidate-array slices, not pickled dicts.
            started = time.perf_counter()
            ceci = ceci.compact(tracer=mtracer)
            report.construction_seconds += _machine_phase("freeze", started)
            ceci.record_size(machine_stats)
            report.construction_compute = FILTER_OP_COST * (
                machine_stats.candidates_initial
                + machine_stats.te_candidate_edges
                + machine_stats.nte_candidate_edges
            )
            report.index_bytes = ceci.memory_bytes()
            report.shipped_bytes = report.index_bytes
            storage.register_index_bytes(m, report.index_bytes)

            clusters: List[Tuple[int, float]] = []
            started = time.perf_counter()
            for pivot in ceci.pivots:
                pivot = int(pivot)
                cluster_stats = MatchStats()
                with mtracer.span("cluster", pivot=pivot):
                    cluster_enum = Enumerator(
                        ceci, symmetry=self.symmetry, stats=cluster_stats
                    )
                    found = cluster_enum.collect_from_unit((pivot,))
                cluster_embeddings[pivot] = found
                clusters.append(
                    (pivot, ENUM_OP_COST * cluster_stats.recursive_calls)
                )
                machine_stats.merge(cluster_stats)
            report.enumeration_seconds = _machine_phase("enumerate", started)
            report.recursive_calls = machine_stats.recursive_calls
            machine_clusters.append(clusters)
            # One merge path for the machine -> run fold: counters sum,
            # phase timings sum, memory_bytes keeps the peak.
            stats.merge(machine_stats)

        construction_makespan = max(
            (r.construction_total for r in reports), default=0.0
        )
        stats.memory_bytes = max((r.index_bytes for r in reports), default=0)

        # --- enumeration with work stealing ----------------------------
        embeddings: List[Tuple[int, ...]] = []
        enumeration_makespan = _simulate_work_stealing(
            machine_clusters, reports, cluster_embeddings, embeddings, stats
        )
        accumulation = ACCUMULATE_COST * len(embeddings)
        return DistributedResult(
            reports,
            embeddings,
            construction_makespan,
            enumeration_makespan,
            accumulation,
            stats=stats,
        )


def _simulate_work_stealing(
    machine_clusters: List[List[Tuple[int, float]]],
    reports: List[MachineReport],
    cluster_embeddings: Dict[int, List[Tuple[int, ...]]],
    embeddings_out: List[Tuple[int, ...]],
    stats: MatchStats,
) -> float:
    """Event-driven makespan: machines drain local queues, then steal
    from the machine with the most unexplored clusters (the victim).

    A cluster's embeddings are accumulated when its machine completes
    it; returns the makespan.
    """
    n = len(machine_clusters)
    queues = [deque(clusters) for clusters in machine_clusters]
    clock = [0.0] * n
    active = set(range(n))
    while active:
        m = min(active, key=lambda i: clock[i])
        report = reports[m]
        if queues[m]:
            pivot, charge = queues[m].popleft()
            report.local_enumeration += charge
        else:
            victim = max(
                (i for i in range(n) if queues[i]),
                key=lambda i: len(queues[i]),
                default=None,
            )
            if victim is None:
                report.finish_time = clock[m]
                active.discard(m)
                continue
            pivot, cost = queues[victim].pop()
            charge = STEAL_COST + cost * STEAL_PENALTY
            report.stolen_enumeration += charge
            report.steals += 1
            stats.steals += 1
        clock[m] += charge
        found = cluster_embeddings[pivot]
        embeddings_out.extend(found)
        report.embeddings += len(found)
    return max(clock, default=0.0)
