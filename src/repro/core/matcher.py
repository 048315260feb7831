"""High-level CECI matching API.

:class:`CECIMatcher` wires the whole pipeline together — root selection,
query tree, Algorithm 1 filtering, Algorithm 2 refinement, symmetry
breaking, and set-intersection enumeration — and exposes ablation
switches for every design choice the paper evaluates.  The module-level
:func:`match`, :func:`count_embeddings` and :func:`find_embedding` are
the one-line entry points used throughout the examples.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, List, Optional, TypeVar

from ..graph import Graph
from ..observability.progress import ProgressReporter
from ..observability.tracer import NULL_TRACER
from ..resilience.budget import (
    Budget,
    BudgetExhausted,
    BudgetTracker,
    PartialResult,
)
from .automorphism import SymmetryBreaker
from .ceci import CECI
from .clusters import WorkUnit, clusters_of, decompose_extreme_clusters
from .enumeration import Embedding, Enumerator
from .filtering import FilterConfig, build_ceci
from .matching_order import make_order
from .query_tree import QueryTree
from .refinement import refine_ceci
from .root_selection import initial_candidates, select_root
from .stats import MatchStats
from .store import CompactCECI

__all__ = ["CECIMatcher", "match", "count_embeddings", "find_embedding"]

T = TypeVar("T")


class CECIMatcher:
    """One query/data pair, matched the CECI way.

    Parameters mirror the paper's design space:

    * ``order_strategy`` — ``"bfs"`` (default), ``"edge_ranked"`` or
      ``"path_ranked"`` (Section 2.2);
    * ``break_automorphisms`` — NEC groups + ordering rules (Section 2.2);
    * ``use_degree_filter`` / ``use_nlc_filter`` / ``use_cascade`` —
      Algorithm 1 filters;
    * ``use_refinement`` — Algorithm 2 (off = only BFS filtering);
    * ``use_intersection`` — Section 4 intersection-based enumeration
      on the set-at-a-time batch engine (off = the per-embedding
      recursion with per-edge verification; DESIGN.md §12);
    * ``budget`` — optional :class:`~repro.resilience.budget.Budget`
      capping the run (deadline / calls / embeddings / memory); use
      :meth:`run` to get the explicit ``truncated`` flag;
    * ``tracer`` — optional
      :class:`~repro.observability.tracer.Tracer`; every phase and
      per-cluster embedding count of the run lands in its JSONL stream (the
      default :data:`~repro.observability.tracer.NULL_TRACER` makes
      this free);
    * ``progress`` — optional
      :class:`~repro.observability.progress.ProgressReporter`
      heartbeat for long enumerations (the matcher fills in its
      cardinality-bound ETA estimate and budget tracker).
    """

    def __init__(
        self,
        query: Graph,
        data: Graph,
        order_strategy: str = "bfs",
        break_automorphisms: bool = True,
        use_degree_filter: bool = True,
        use_nlc_filter: bool = True,
        use_cascade: bool = True,
        use_refinement: bool = True,
        use_intersection: bool = True,
        budget: Optional[Budget] = None,
        tracer=None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        if query.num_vertices == 0:
            raise ValueError("query graph is empty")
        if not query.is_connected():
            raise ValueError("query graph must be connected")
        self.query = query
        self.data = data
        self.order_strategy = order_strategy
        self.use_refinement = use_refinement
        self.use_intersection = use_intersection
        self.filter_config = FilterConfig(
            use_degree_filter=use_degree_filter,
            use_nlc_filter=use_nlc_filter,
            use_cascade=use_cascade,
        )
        self.stats = MatchStats()
        self.symmetry = SymmetryBreaker(query, enabled=break_automorphisms)
        self.budget = budget
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.progress = progress
        self._ceci: Optional[CompactCECI] = None
        self._tree: Optional[QueryTree] = None
        #: Plan facts recorded during :meth:`build` for telemetry:
        #: the chosen root's selection score (|initial candidates| /
        #: degree) and the per-vertex initial candidate counts the root
        #: cost function scanned.  ``None``/empty until built.
        self.root_score: Optional[float] = None
        self.initial_candidate_counts: List[int] = []

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def build(self) -> CompactCECI:
        """Run preprocessing, filtering and refinement, then freeze the
        dict builder into a :class:`~repro.core.store.CompactCECI`
        (timed as the ``freeze`` phase) and discard the builder; cached.
        The index-size counters (Table 2) are read off the frozen
        store."""
        if self._ceci is not None:
            return self._ceci
        started = time.perf_counter()
        # One LDF/NLC scan per query vertex serves both the root cost
        # function and the ranked matching orders.
        candidate_counts: List[int] = []
        root = -1
        pivots: List[int] = []
        best_cost = float("inf")
        for u in self.query.vertices():
            candidates = initial_candidates(self.query, self.data, u, self.stats)
            candidate_counts.append(len(candidates))
            cost = len(candidates) / (self.query.degree(u) or 1)
            if cost < best_cost:
                root, pivots, best_cost = u, candidates, cost
        order = make_order(
            self.query, root, self.order_strategy, candidate_counts
        )
        self._tree = QueryTree(self.query, root, order)
        self.root_score = best_cost
        self.initial_candidate_counts = candidate_counts
        self._record_phase("preprocess", started)

        started = time.perf_counter()
        ceci = build_ceci(
            self._tree,
            self.data,
            pivots,
            self.stats,
            self.filter_config,
            tracer=self.tracer,
        )
        self._record_phase("filter", started)

        started = time.perf_counter()
        if self.use_refinement:
            refine_ceci(ceci, self.stats, tracer=self.tracer)
        else:
            _assign_uniform_cardinality(ceci)
        self._record_phase("refine", started)

        started = time.perf_counter()
        index = ceci.compact(tracer=self.tracer)
        self._record_phase("freeze", started)
        index.record_size(self.stats)
        self.stats.memory_bytes = index.memory_bytes()
        self._ceci = index
        return index

    def _record_phase(self, name: str, started: float) -> None:
        """Book one phase into the stats *and* the trace with the same
        duration float — the invariant behind ``trace summarize``
        agreeing with ``MatchStats.phase_seconds`` exactly."""
        seconds = time.perf_counter() - started
        self.stats.add_phase(name, seconds)
        if self.tracer.enabled:
            self.tracer.phase(name, started, seconds)

    @property
    def tree(self) -> QueryTree:
        """The query tree (builds on first access)."""
        self.build()
        assert self._tree is not None
        return self._tree

    def plan_facts(self) -> dict:
        """The optimizer's decisions for this query as a JSON-ready
        dict (builds on first access): root + selection score, matching
        order, per-level candidate cardinalities and the deterministic
        cardinality bound.  This is the ``plan`` object the service's
        flight recorder and slow-query explain embed."""
        from .estimate import plan_facts  # circular at module level

        facts = plan_facts(self.build(), self.query)
        facts["order_strategy"] = self.order_strategy
        if self.root_score is not None:
            facts["root_score"] = self.root_score
        if self.initial_candidate_counts:
            facts["initial_candidates"] = list(self.initial_candidate_counts)
        return facts

    def enumerator(
        self, tracker: Optional[BudgetTracker] = None
    ) -> Enumerator:
        """A fresh enumerator over the built index, sharing ``stats``.
        ``tracker`` (a pre-started budget clock) takes precedence over
        the matcher's own ``budget``."""
        return Enumerator(
            self.build(),
            symmetry=self.symmetry,
            use_intersection=self.use_intersection,
            stats=self.stats,
            budget=self.budget,
            tracker=tracker,
            tracer=self.tracer,
            progress=self._armed_progress(tracker),
        )

    def _armed_progress(
        self, tracker: Optional[BudgetTracker] = None
    ) -> Optional[ProgressReporter]:
        """The configured progress reporter with its derived fields
        filled in: the cardinality-bound ETA estimate (free once the
        index is built — :mod:`repro.core.estimate`), the budget
        tracker, and the tracer for mirrored ``progress`` instants."""
        progress = self.progress
        if progress is None:
            return None
        if progress.total_estimate is None:
            from .estimate import cardinality_bound

            progress.total_estimate = int(cardinality_bound(self))
        if progress.tracker is None and tracker is not None:
            progress.tracker = tracker
        if progress.tracer is None and self.tracer.enabled:
            progress.tracer = self.tracer
        # Arm the clock now so the final ``(done)`` line of runs shorter
        # than ``check_every`` calls still reports a real elapsed time.
        return progress.start()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def embeddings(self, limit: Optional[int] = None) -> Iterator[Embedding]:
        """Stream embeddings; ``embedding[u]`` is the match of query
        vertex ``u``."""
        started = time.perf_counter()
        try:
            yield from self.enumerator().embeddings(limit)
        finally:
            self._record_phase("enumerate", started)
            self._finish_progress()

    def match(self, limit: Optional[int] = None) -> List[Embedding]:
        """All embeddings (or the first ``limit``) as a list."""
        # The enumerator is built (and the index with it) before the
        # ``enumerate`` clock starts.
        return self._enumerate(self.enumerator().collect, limit)

    def count(self, limit: Optional[int] = None) -> int:
        """Embedding count (up to ``limit``): the batch engine's blocks
        are counted without building embedding tuples."""
        return self._enumerate(self.enumerator().count, limit)

    def _enumerate(
        self, entry: Callable[[Optional[int]], T], limit: Optional[int]
    ) -> T:
        """Run one enumerator entry point as the ``enumerate`` phase."""
        started = time.perf_counter()
        try:
            return entry(limit)
        finally:
            self._record_phase("enumerate", started)
            self._finish_progress()

    def _finish_progress(self) -> None:
        if self.progress is not None:
            self.progress.finish()

    def run(self, limit: Optional[int] = None) -> PartialResult:
        """Match under the configured ``budget`` and say so explicitly.

        The budget clock starts *before* index construction, so a
        deadline covers filtering and refinement too; a run that cannot
        finish returns the embeddings found so far with
        ``truncated=True`` and ``stop_reason`` naming the axis —
        it never hangs and never raises for running out of budget.
        """
        tracker: Optional[BudgetTracker] = None
        if self.budget is not None and not self.budget.unlimited:
            tracker = self.budget.tracker().start()
        try:
            self.build()
            if tracker is not None:
                tracker.check_deadline()
        except BudgetExhausted as stop:
            self.stats.budget_stops += 1
            return PartialResult(
                [],
                truncated=True,
                exhausted=False,
                stop_reason=stop.reason,
                stats=self.stats,
            )
        enumerator = self.enumerator(tracker=tracker)
        embeddings = self._enumerate(enumerator.collect, limit)
        truncated = enumerator.truncated
        exhausted = not truncated and (
            limit is None or len(embeddings) < limit
        )
        return PartialResult(
            embeddings,
            truncated=truncated,
            exhausted=exhausted,
            stop_reason=enumerator.stop_reason if truncated else None,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # Parallel work
    # ------------------------------------------------------------------
    def work_units(
        self,
        worker_count: int = 1,
        beta: Optional[float] = 0.2,
    ) -> List[WorkUnit]:
        """The schedulable work pool.

        ``beta=None`` returns intact clusters (ST/CGD granularity);
        otherwise ExtremeClusters are decomposed per Algorithm 3 (FGD).
        """
        ceci = self.build()
        if beta is None:
            return clusters_of(ceci)
        return decompose_extreme_clusters(
            ceci, worker_count, beta, self.symmetry
        )


def _assign_uniform_cardinality(ceci: CECI) -> None:
    """Without refinement there are no true cardinalities; weight every
    cluster by its pivot's TE fanout product so the schedulers still have
    a (crude) workload signal."""
    tree = ceci.tree
    for u in tree.order:
        for v in ceci.cand[u]:
            ceci.cardinality[u][v] = 1
    root_children = tree.children[tree.root]
    for pivot in ceci.pivots:
        weight = 1
        for u_c in root_children:
            weight *= max(len(ceci.te[u_c].get(pivot, ())), 1)
        ceci.cardinality[tree.root][pivot] = weight


def match(
    query: Graph, data: Graph, limit: Optional[int] = None, **options
) -> List[Embedding]:
    """Find (up to ``limit``) embeddings of ``query`` in ``data``."""
    return CECIMatcher(query, data, **options).match(limit)


def count_embeddings(
    query: Graph, data: Graph, limit: Optional[int] = None, **options
) -> int:
    """Count (up to ``limit``) embeddings of ``query`` in ``data``."""
    return CECIMatcher(query, data, **options).count(limit)


def find_embedding(query: Graph, data: Graph, **options) -> Optional[Embedding]:
    """First embedding or ``None`` — the containment-search primitive."""
    found = match(query, data, limit=1, **options)
    return found[0] if found else None
