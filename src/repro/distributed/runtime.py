"""The simulated distributed CECI system (Section 5), with fault
recovery.

Execution proceeds exactly as the paper describes:

1. the coordinator preprocesses the query (root, tree, pivots) and
   distributes the cluster pivots with the lightweight workload estimate
   (synchronous sends — a per-pivot message cost; dropped messages are
   retransmitted at extra cost);
2. every machine builds its *own* CECI over its pivot share, reading the
   graph through its storage model (replicated memory, or shared CSR
   with metered IO);
3. every machine enumerates its clusters, streaming each completed
   cluster's embeddings to machine 0; a machine that drains its local
   queue steals an unexplored cluster from the victim machine with the
   most remaining work (one-sided MPI_Get — a per-steal cost plus a
   remote-access penalty on the stolen cluster);
4. results are accumulated to machine 0.

Failure model (see DESIGN.md, "Failure model & budgets"): a seeded
:class:`~repro.resilience.faults.FaultPlan` can crash machines mid-
enumeration, drop coordinator messages, and slow machines down.  A
crashed machine's *unexplored* clusters — including the one it was
enumerating when it died, whose partial output is discarded — move to an
orphan pool that survivors drain through the same work-stealing loop,
with per-cluster retry accounting: a cluster lost more than
``max_retries`` times is reported in ``failed_clusters`` instead of
looping forever.  Clusters a crashed machine *completed* were already
accumulated at machine 0 and are not re-run, so the embedding union
stays exact whenever no cluster exhausts its retries.

Costs are simulated (DESIGN.md documents the substitution); the
*embeddings* are real — the union over machines is checked against the
sequential result in the test suite, fault plans included.
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
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RecoveryLog, RetryPolicy
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
#: Extra cost of adopting an orphaned cluster after a crash: the
#: survivor must re-fetch the victim's candidate data and replay the
#: cluster from scratch, which we price as one steal plus a rebuild
#: surcharge on the cluster's enumeration cost.
RECOVERY_PENALTY = 1.5
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
        failed_clusters: Optional[List[int]] = None,
        stats: Optional[MatchStats] = None,
        recovery: Optional[RecoveryLog] = None,
    ) -> None:
        self.reports = reports
        self.embeddings = embeddings
        self.construction_makespan = construction_makespan
        self.enumeration_makespan = enumeration_makespan
        self.accumulation_cost = accumulation_cost
        #: Cluster pivots permanently lost (retries exhausted, or no
        #: surviving machine was left to adopt them).
        self.failed_clusters = failed_clusters or []
        #: Aggregate counters, including the resilience group
        #: (machine_crashes, retries, reassignments, steals, ...).
        self.stats = stats if stats is not None else MatchStats()
        #: Ordered recovery-event log of the run.
        self.recovery = recovery if recovery is not None else RecoveryLog()

    @property
    def complete(self) -> bool:
        """True when every cluster was enumerated by some machine —
        the embedding union is exactly the sequential set."""
        return not self.failed_clusters

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

    ``fault_plan`` injects deterministic machine crashes, coordinator
    message drops and stragglers; ``max_retries`` bounds how many times
    one cluster may be re-adopted after crashes before it is reported
    failed.

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
        fault_plan: Optional[FaultPlan] = None,
        max_retries: int = 2,
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
        self.fault_plan = fault_plan
        self.retry_policy = RetryPolicy(max_retries)
        self.tracer = NULL_TRACER if tracer is None else tracer

    def run(self) -> DistributedResult:
        """Execute the full distributed pipeline."""
        stats = MatchStats()
        recovery = RecoveryLog()
        plan = self.fault_plan
        drop_rng = plan.rng() if plan is not None else None

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
            messages = len(my_pivots)
            dropped = 0
            if drop_rng is not None and plan.message_drop_rate > 0.0:
                # Each synchronous send may be lost and retransmitted
                # (the coordinator notices the missing ack).
                dropped = sum(
                    1
                    for _ in range(messages)
                    if drop_rng.random() < plan.message_drop_rate
                )
            if dropped:
                stats.messages_dropped += dropped
                recovery.record("message_drop", m, attempt=dropped)
            report.construction_comm = PIVOT_MSG_COST * (messages + dropped)
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
                with mtracer.cluster_span(pivot):
                    cluster_enum = Enumerator(
                        ceci,
                        symmetry=self.symmetry,
                        stats=cluster_stats,
                        tracer=mtracer,
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

        # --- enumeration with work stealing and crash recovery ---------
        embeddings: List[Tuple[int, ...]] = []
        enumeration_makespan, failed_clusters = _simulate_work_stealing(
            machine_clusters,
            reports,
            cluster_embeddings,
            embeddings,
            plan,
            self.retry_policy,
            stats,
            recovery,
        )
        accumulation = ACCUMULATE_COST * len(embeddings)
        return DistributedResult(
            reports,
            embeddings,
            construction_makespan,
            enumeration_makespan,
            accumulation,
            failed_clusters=failed_clusters,
            stats=stats,
            recovery=recovery,
        )


def _simulate_work_stealing(
    machine_clusters: List[List[Tuple[int, float]]],
    reports: List[MachineReport],
    cluster_embeddings: Dict[int, List[Tuple[int, ...]]],
    embeddings_out: List[Tuple[int, ...]],
    plan: Optional[FaultPlan],
    retry_policy: RetryPolicy,
    stats: MatchStats,
    recovery: RecoveryLog,
) -> Tuple[float, List[int]]:
    """Event-driven makespan: machines drain local queues, then steal
    from the machine with the most unexplored clusters (the victim),
    then adopt orphaned clusters of crashed machines.

    A cluster's embeddings are accumulated exactly when some machine
    *completes* it, so crashes can never double-report or silently drop
    a cluster; returns ``(makespan, failed_cluster_pivots)``.
    """
    n = len(machine_clusters)
    # Queue items are (pivot, cost, attempts): attempts counts how many
    # machines already died while holding this cluster.
    queues = [
        deque((pivot, cost, 0) for pivot, cost in clusters)
        for clusters in machine_clusters
    ]
    orphans: deque = deque()
    clock = [0.0] * n
    clusters_started = [0] * n
    active = set(range(n))
    failed: List[int] = []

    def crash(m: int, item: Tuple[int, float, int]) -> None:
        """Machine ``m`` dies holding ``item``: discard its partial
        output, orphan the in-flight cluster (one attempt burned) and
        its whole unexplored queue (no attempt burned — those clusters
        were never started)."""
        pivot, cost, attempt = item
        reports[m].crashed = True
        reports[m].finish_time = clock[m]
        stats.machine_crashes += 1
        recovery.record("machine_crash", m, (pivot,), attempt)
        active.discard(m)
        if retry_policy.allows(attempt + 1):
            stats.retries += 1
            recovery.record("requeue", m, (pivot,), attempt + 1)
            orphans.append((pivot, cost, attempt + 1))
        else:
            recovery.record("give_up", m, (pivot,), attempt + 1)
            failed.append(pivot)
        while queues[m]:
            orphans.append(queues[m].popleft())

    while active:
        m = min(active, key=lambda i: clock[i])
        report = reports[m]
        slowdown = plan.slowdown(m) if plan is not None else 1.0
        if queues[m]:
            item = queues[m].popleft()
            kind = "local"
        else:
            victim = max(
                (i for i in range(n) if queues[i]),
                key=lambda i: len(queues[i]),
                default=None,
            )
            if victim is not None:
                item = queues[victim].pop()
                kind = "steal"
            elif orphans:
                item = orphans.popleft()
                kind = "recover"
            else:
                report.finish_time = clock[m]
                active.discard(m)
                continue
        if plan is not None and plan.machine_crashes_at(
            m, clusters_started[m]
        ):
            crash(m, item)
            continue
        clusters_started[m] += 1
        pivot, cost, _attempt = item
        if kind == "local":
            charge = cost * slowdown
            report.local_enumeration += charge
        elif kind == "steal":
            charge = STEAL_COST + cost * STEAL_PENALTY * slowdown
            report.stolen_enumeration += charge
            report.steals += 1
            stats.steals += 1
        else:  # recover
            charge = STEAL_COST + cost * RECOVERY_PENALTY * slowdown
            report.stolen_enumeration += charge
            report.reassigned += 1
            stats.reassignments += 1
            recovery.record("reassign", m, (pivot,))
        clock[m] += charge
        found = cluster_embeddings.get(pivot, [])
        embeddings_out.extend(found)
        report.embeddings += len(found)
    # Machines all went idle (or died): anything still orphaned has no
    # surviving machine left to adopt it.
    while orphans:
        pivot, _cost, attempt = orphans.popleft()
        recovery.record("give_up", -1, (pivot,), attempt)
        failed.append(pivot)
    makespan = max(
        (clock[i] for i in range(n) if not reports[i].crashed),
        default=0.0,
    )
    return makespan, failed
