"""Parallel embedding enumeration — Section 4.

Enumeration walks the matching order with backtracking.  At query vertex
``u`` the matching nodes are the **set intersection** of:

* ``TE_Candidates[u][v_p]`` where ``v_p`` is the data vertex already
  matched to ``u``'s tree parent, and
* ``NTE_Candidates[u][u_n][v_n]`` for every NTE parent ``u_n`` (matched to
  ``v_n``).

Each matching node not already used in the partial embedding (subgraph
isomorphism is injective) and admissible under the symmetry-breaking
rules extends the embedding; the process backtracks when an embedding
completes or no extension exists (Figure 4b).

The intersection replaces the per-candidate *edge verification* that
TurboIso/CFLMatch-style indexes need (Lemma 2).  :class:`Enumerator`
has exactly two paths, picked from its inputs (DESIGN.md §12):

* **batch** — the set-at-a-time engine (:mod:`repro.core.batch`) runs
  the TE∩NTE intersection for whole frontiers at once; it serves every
  query without non-tree edges and every intersection-mode run on an
  index with NTE groups;
* **recursion** — one partial embedding at a time, scanning TE
  candidates and verifying each non-tree edge on the data graph.  It
  serves the Section 4.1 ablation (``use_intersection=False``) and a
  TE-only index (CFLMatch's CPI) facing non-tree edges, and it is the
  batch engine's independent reference.

A call of the recursive routine is counted per extension, matching the
paper's search-space proxy ("a new recursive call ... every time an
intermediate match is expanded by one tree-edge", Section 6.6); the
batch engine charges the same calls block by block.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..observability.tracer import NULL_TRACER
from ..resilience.budget import Budget, BudgetExhausted, BudgetTracker
from .automorphism import SymmetryBreaker
from .batch import BatchEngine, batch_capable
from .stats import MatchStats
from .store import CompactCECI

__all__ = ["Enumerator", "Embedding"]

#: A complete embedding: ``embedding[u]`` is the data vertex matched to
#: query vertex ``u`` (indexed by query vertex id, not matching order).
Embedding = Tuple[int, ...]


def embedding_tuples(block: np.ndarray) -> List[Embedding]:
    """The rows of a block of complete embeddings as tuples of Python
    ``int`` (never numpy scalars, so they pickle and serialise as plain
    ints).  Built column-wise: one ``tolist`` per column and one
    ``zip`` skip the intermediate list per row that ``map(tuple,
    block.tolist())`` allocates (1.4x faster on a full 65,536-row
    block, 2x on 300k rows)."""
    return list(zip(*block.T.tolist()))


class Enumerator:
    """Enumerates embeddings from a CECI, whole clusters or work units.

    Parameters
    ----------
    ceci:
        A built (and normally refined) :class:`CompactCECI`.
    symmetry:
        Symmetry breaker; pass one with ``enabled=False`` to list every
        automorphism.
    use_intersection:
        ``True`` (paper default) intersects TE and NTE candidate lists
        in the batch engine; ``False`` scans TE candidates and verifies
        each non-tree edge on the data graph — the Section 4.1 baseline.
        A TE-only index verifies either way.
    stats:
        Counter sink; a fresh one is created when omitted.
    budget:
        Optional :class:`~repro.resilience.budget.Budget`; when any of
        its axes trips, enumeration stops early, ``truncated`` is set
        and ``stop_reason`` names the axis.  Entry points still return
        the embeddings found so far — never an exception.
    tracker:
        A pre-started :class:`BudgetTracker` to enforce instead of
        ``budget`` (the matcher passes one whose clock already covers
        index construction).
    tracer:
        Optional :class:`~repro.observability.tracer.Tracer`; when
        enabled, each cluster enumerated via :meth:`collect` /
        :meth:`embeddings` gets a (sampled) child span.  The default
        null tracer costs one attribute check per cluster.
    progress:
        Optional
        :class:`~repro.observability.progress.ProgressReporter`;
        ticked once per recursive call.  Wiring happens by shadowing
        the recursion entry points, so the disabled hot path carries
        no per-call check at all.
    """

    def __init__(
        self,
        ceci: CompactCECI,
        symmetry: Optional[SymmetryBreaker] = None,
        use_intersection: bool = True,
        stats: Optional[MatchStats] = None,
        budget: Optional[Budget] = None,
        tracker: Optional[BudgetTracker] = None,
        tracer=None,
        progress=None,
    ) -> None:
        #: The path this enumerator runs: "batch" or "recursive"
        #: (derived from the inputs — see :func:`batch_capable`).
        self.engine = (
            "batch" if batch_capable(ceci, use_intersection) else "recursive"
        )
        self._batch: Optional[BatchEngine] = None
        self.ceci = ceci
        self.tree = ceci.tree
        self.symmetry = symmetry or SymmetryBreaker(ceci.tree.query)
        self.use_intersection = use_intersection
        self.stats = stats if stats is not None else MatchStats()
        if tracker is None and budget is not None and not budget.unlimited:
            tracker = budget.tracker()
        self._tracker = tracker
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._progress = progress
        if progress is not None:
            # Shadow the recursive entry points with progress-ticked
            # wrappers.  Recursion dispatches through the instance
            # attribute, so every recursive call ticks — and the default
            # hot path carries no per-call observability check at all.
            self._collect = self._collect_observed
            self._extend = self._extend_observed
        #: True once a budget axis has stopped an enumeration early.
        self.truncated = False
        #: The axis that tripped ("deadline", "max_calls", ...), if any.
        self.stop_reason: Optional[str] = None

    def _note_budget_stop(self, stop: BudgetExhausted) -> None:
        self.truncated = True
        self.stop_reason = stop.reason
        self.stats.budget_stops += 1

    # ------------------------------------------------------------------
    # Batch (set-at-a-time) delegation — DESIGN.md §12
    # ------------------------------------------------------------------
    def _batch_instance(self) -> BatchEngine:
        if self._batch is None:
            self._batch = BatchEngine(
                self.ceci,
                self.symmetry,
                self.stats,
                tracker=self._tracker,
                progress=self._progress,
            )
        return self._batch

    def _batch_serial(self, limit: Optional[int]) -> bool:
        """Whether to seed one root frontier per pivot (cluster-serial
        DFS) instead of one all-pivots frontier.

        Serial is required whenever per-cluster behavior is observable:
        an enabled tracer wants per-cluster spans, a ``limit`` must not
        pay for clusters past the cut, and a counting budget axis must
        charge clusters in the recursive engine's order.  The
        unbudgeted, unlimited perf path takes the all-pivots mega-batch
        (which still yields exact DFS order — see DESIGN.md §12).
        """
        if limit is not None or self.tracer.enabled:
            return True
        if self._tracker is not None:
            budget = self._tracker.budget
            return not (
                budget.max_calls is None
                and budget.max_embeddings is None
                and budget.max_memory_bytes is None
            )
        return False

    def _batch_blocks(
        self, limit: Optional[int]
    ) -> Iterator["np.ndarray"]:
        """Stream complete-embedding blocks for a whole-index run,
        handling tracker start, cluster spans, limit and budget stops."""
        engine = self._batch_instance()
        if self._tracker is not None:
            self._tracker.start()
        remaining: List[Optional[int]] = [limit]
        tracer = self.tracer
        try:
            if self._batch_serial(limit):
                for pivot in self.ceci.pivots:
                    with tracer.cluster_span(int(pivot)):
                        yield from engine.blocks(
                            engine.root_frontier([pivot]), 1, remaining
                        )
                    if remaining[0] is not None and remaining[0] <= 0:
                        return
            else:
                pivots = self.ceci.pivots
                if len(pivots):
                    yield from engine.blocks(
                        engine.root_frontier(pivots), 1, remaining
                    )
        except BudgetExhausted as stop:
            self._note_budget_stop(stop)

    def _batch_unit_blocks(
        self, prefix: Sequence[int], limit: Optional[int]
    ) -> Iterator["np.ndarray"]:
        """Stream complete-embedding blocks for one work-unit prefix."""
        engine = self._batch_instance()
        if self._tracker is not None:
            self._tracker.start()
        frontier = engine.seed_frontier(prefix)
        if frontier is None:
            return
        try:
            yield from engine.blocks(frontier, len(prefix), [limit])
        except BudgetExhausted as stop:
            self._note_budget_stop(stop)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def embeddings(self, limit: Optional[int] = None) -> Iterator[Embedding]:
        """Yield embeddings cluster by cluster (pivot order)."""
        if self.engine == "batch":
            for block in self._batch_blocks(limit):
                yield from embedding_tuples(block)
            return
        if self._tracker is not None:
            self._tracker.start()
        remaining = [limit]
        tracer = self.tracer
        try:
            for pivot in self.ceci.pivots.tolist():
                with tracer.cluster_span(pivot):
                    yield from self._from_prefix((pivot,), remaining)
                if remaining[0] is not None and remaining[0] <= 0:
                    return
        except BudgetExhausted as stop:
            self._note_budget_stop(stop)

    def embeddings_from_unit(
        self, prefix: Sequence[int], limit: Optional[int] = None
    ) -> Iterator[Embedding]:
        """Yield embeddings of one work unit (partial-embedding prefix
        along the matching order) — the FGD execution path."""
        if self.engine == "batch":
            for block in self._batch_unit_blocks(prefix, limit):
                yield from embedding_tuples(block)
            return
        if self._tracker is not None:
            self._tracker.start()
        try:
            yield from self._from_prefix(tuple(prefix), [limit])
        except BudgetExhausted as stop:
            self._note_budget_stop(stop)

    def count(self, limit: Optional[int] = None) -> int:
        """Number of embeddings (up to ``limit``)."""
        if self.engine == "batch":
            # Count whole blocks — embeddings are never materialised as
            # tuples at all on this path.
            return sum(len(block) for block in self._batch_blocks(limit))
        total = 0
        for _ in self.embeddings(limit):
            total += 1
        return total

    # ------------------------------------------------------------------
    # Non-generator fast path (same recursion, list collection): Python
    # generator chains cost a large constant per yield, which dominates
    # on embedding-heavy workloads.  ``collect``/``count_fast`` are what
    # the matcher facade and the benchmarks use.
    # ------------------------------------------------------------------
    def collect(self, limit: Optional[int] = None) -> List[Embedding]:
        """All embeddings (or the first ``limit``) as a list.  Under a
        budget the list may be partial — check ``truncated``."""
        if self.engine == "batch":
            batched: List[Embedding] = []
            for block in self._batch_blocks(limit):
                batched.extend(embedding_tuples(block))
            return batched
        out: List[Embedding] = []
        sink = out.append
        order = self.tree.order
        root = self.tree.root
        n = self.tree.query.num_vertices
        mapping = [-1] * n
        used: set = set()
        single = len(order) == 1
        tracker = self._tracker
        tracer = self.tracer
        if tracker is not None:
            tracker.start()
        try:
            for pivot in self.ceci.pivots.tolist():
                if not self.symmetry.admissible(root, pivot, mapping):
                    continue
                with tracer.cluster_span(pivot):
                    if single:
                        self.stats.recursive_calls += 1
                        if tracker is not None:
                            tracker.charge_call()
                            tracker.charge_embedding(n)
                        self.stats.embeddings_found += 1
                        sink((pivot,))
                    else:
                        mapping[root] = pivot
                        used.add(pivot)
                        budget = None if limit is None else limit - len(out)
                        self._collect(1, mapping, used, sink, budget)
                        used.discard(pivot)
                        mapping[root] = -1
                if limit is not None and len(out) >= limit:
                    break
        except BudgetExhausted as stop:
            self._note_budget_stop(stop)
        return out[:limit] if limit is not None else out

    def collect_from_unit(
        self, prefix: Sequence[int], limit: Optional[int] = None
    ) -> List[Embedding]:
        """List-returning analog of :meth:`embeddings_from_unit`."""
        if self.engine == "batch":
            batched: List[Embedding] = []
            for block in self._batch_unit_blocks(prefix, limit):
                batched.extend(embedding_tuples(block))
            return batched
        out: List[Embedding] = []
        if self._tracker is not None:
            self._tracker.start()
        try:
            self._collect_prefix(tuple(prefix), out.append, limit, 0)
        except BudgetExhausted as stop:
            self._note_budget_stop(stop)
        return out

    def collect_parts(
        self, pivots: Sequence[int]
    ) -> Dict[int, List[Embedding]]:
        """All embeddings of each pivot's cluster, as ``{pivot:
        [embeddings]}`` — one part per pivot, each equal to
        ``collect_from_unit((pivot,))``; a pivot without embeddings maps
        to ``[]``.

        The batch engine runs the whole share as one root frontier over
        the sorted pivots (DESIGN.md §12) and splits each complete block
        on the root column: in DFS order one pivot's rows are
        contiguous.  The recursion loops over the pivots.
        """
        parts: Dict[int, List[Embedding]] = {int(p): [] for p in pivots}
        if self.engine != "batch":
            for pivot in parts:
                parts[pivot] = self.collect_from_unit((pivot,))
            return parts
        engine = self._batch_instance()
        if self._tracker is not None:
            self._tracker.start()
        frontier = engine.root_frontier(sorted(parts))
        root = self.tree.root
        try:
            for block in engine.blocks(frontier, 1, [None]):
                roots = block[:, root]
                cuts = np.flatnonzero(roots[1:] != roots[:-1]) + 1
                bounds = [0, *cuts.tolist(), len(block)]
                rows = embedding_tuples(block)
                for lo, hi in zip(bounds, bounds[1:]):
                    parts[rows[lo][root]].extend(rows[lo:hi])
        except BudgetExhausted as stop:
            self._note_budget_stop(stop)
        return parts

    def _collect_prefix(self, prefix, sink, limit, already) -> bool:
        """Seed the mapping with a prefix and recurse; returns False when
        the global limit has been hit."""
        order = self.tree.order
        mapping = [-1] * self.tree.query.num_vertices
        used = set()
        for depth, v in enumerate(prefix):
            u = order[depth]
            if v in used or not self.symmetry.admissible(u, v, mapping):
                return True
            mapping[u] = v
            used.add(v)
        budget = None if limit is None else limit - already
        if budget is not None and budget <= 0:
            return False
        if len(prefix) == len(order):
            # The unit already is a complete embedding.
            self.stats.recursive_calls += 1
            if self._tracker is not None:
                self._tracker.charge_call()
                self._tracker.charge_embedding(len(mapping))
            self.stats.embeddings_found += 1
            sink(tuple(mapping))
            return budget is None or budget - 1 > 0
        left = self._collect(len(prefix), mapping, used, sink, budget)
        return left is None or left > 0

    def _collect_observed(self, depth, mapping, used, sink, budget):
        """Progress-ticked wrapper installed as ``self._collect`` when a
        reporter is attached; recursion inside the plain body dispatches
        back through the instance attribute, so each call ticks."""
        self._progress.tick()
        return Enumerator._collect(self, depth, mapping, used, sink, budget)

    def _collect(self, depth, mapping, used, sink, budget) -> Optional[int]:
        """Recursive collector; ``budget`` is remaining embeddings or
        None for unlimited.  Returns the updated budget."""
        self.stats.recursive_calls += 1
        tracker = self._tracker
        if tracker is not None:
            tracker.charge_call()
        order = self.tree.order
        u = order[depth]
        symmetry = self.symmetry
        if depth + 1 == len(order):
            # Leaf level: every surviving candidate closes one embedding;
            # append in bulk instead of recursing per candidate.  The
            # try/finally keeps the counters exact when a budget axis
            # trips mid-loop.
            emitted = 0
            n = len(mapping)
            try:
                for v in self.matching_nodes(u, mapping):
                    if v in used:
                        continue
                    if not symmetry.admissible(u, v, mapping):
                        continue
                    self.stats.recursive_calls += 1
                    if tracker is not None:
                        tracker.charge_call()
                        tracker.charge_embedding(n)
                    mapping[u] = v
                    sink(tuple(mapping))
                    emitted += 1
                    if budget is not None and emitted >= budget:
                        break
            finally:
                mapping[u] = -1
                self.stats.embeddings_found += emitted
            return None if budget is None else budget - emitted
        for v in self.matching_nodes(u, mapping):
            if v in used:
                continue
            if not symmetry.admissible(u, v, mapping):
                continue
            mapping[u] = v
            used.add(v)
            budget = self._collect(depth + 1, mapping, used, sink, budget)
            used.discard(v)
            mapping[u] = -1
            if budget is not None and budget <= 0:
                return budget
        return budget

    # ------------------------------------------------------------------
    # Core recursion
    # ------------------------------------------------------------------
    def _from_prefix(
        self, prefix: Tuple[int, ...], remaining: List[Optional[int]]
    ) -> Iterator[Embedding]:
        if remaining[0] is not None and remaining[0] <= 0:
            return
        order = self.tree.order
        if len(prefix) > len(order):
            raise ValueError("work-unit prefix longer than the query")
        mapping = [-1] * self.tree.query.num_vertices
        used = set()
        for depth, v in enumerate(prefix):
            u = order[depth]
            if v in used:
                return  # prefix violates injectivity: dead unit
            if not self.symmetry.admissible(u, v, mapping):
                return
            mapping[u] = v
            used.add(v)
        yield from self._extend(len(prefix), mapping, used, remaining)

    def _extend_observed(self, depth, mapping, used, remaining):
        """Progress-ticked wrapper installed as ``self._extend`` when a
        reporter is attached (one tick per recursive expansion)."""
        self._progress.tick()
        return Enumerator._extend(self, depth, mapping, used, remaining)

    def _extend(
        self,
        depth: int,
        mapping: List[int],
        used: set,
        remaining: List[Optional[int]],
    ) -> Iterator[Embedding]:
        self.stats.recursive_calls += 1
        if self._tracker is not None:
            self._tracker.charge_call()
        order = self.tree.order
        if depth == len(order):
            if self._tracker is not None:
                self._tracker.charge_embedding(len(mapping))
            self.stats.embeddings_found += 1
            if remaining[0] is not None:
                remaining[0] -= 1
            yield tuple(mapping)
            return
        u = order[depth]
        for v in self.matching_nodes(u, mapping):
            if v in used:
                continue
            if not self.symmetry.admissible(u, v, mapping):
                continue
            mapping[u] = v
            used.add(v)
            yield from self._extend(depth + 1, mapping, used, remaining)
            used.discard(v)
            mapping[u] = -1
            if remaining[0] is not None and remaining[0] <= 0:
                return

    def matching_nodes(self, u: int, mapping: Sequence[int]) -> List[int]:
        """Candidates of ``u`` consistent with the partial ``mapping``
        (before injectivity and symmetry checks): the TE candidates
        under the parent's match, each non-tree edge verified by binary
        search on the sorted adjacency list — the paper's cost model
        (Section 4.1).  The O(1) bitmap CFLMatch actually uses needs an
        |V|x|V| matrix, which is exactly what limits it to
        sub-500K-vertex graphs.
        """
        base = self.ceci.te_values(u, mapping[self.tree.parent[u]]).tolist()
        nte_parents = self.tree.nte_parents[u]
        if not base or not nte_parents:
            return base
        stats = self.stats
        neighbors_of = self.ceci.data.neighbors
        out = []
        for v in base:
            neighbors = neighbors_of(v)
            for u_n in nte_parents:
                stats.edge_verifications += 1
                v_n = mapping[u_n]
                i = bisect.bisect_left(neighbors, v_n)
                if i >= len(neighbors) or neighbors[i] != v_n:
                    break
            else:
                out.append(v)
        return out
