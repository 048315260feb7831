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
TurboIso/CFLMatch-style indexes need (Lemma 2).  Every entry point of
:class:`Enumerator` reads one block stream over *units* — matching-order
prefixes: ``(pivot,)`` per embedding cluster, or one Algorithm 3 work
unit — and the stream runs one of two engines, picked from the inputs
(DESIGN.md §12):

* **batch** — the set-at-a-time engine (:mod:`repro.core.batch`) runs
  the TE∩NTE intersection for whole frontiers at once and streams
  numpy blocks of complete embeddings; it serves every query without
  non-tree edges and every intersection-mode run on an index with NTE
  groups.  Pivot units always seed one root frontier; a ``limit`` or
  a counting budget only shrinks its chunks to what the run still
  needs;
* **recursion** — one partial embedding at a time, scanning TE
  candidates and verifying each non-tree edge on the data graph, one
  list of embeddings per unit (a whole cluster is materialised before
  it streams).  It serves the Section 4.1 ablation
  (``use_intersection=False``) and a TE-only index (CFLMatch's CPI)
  facing non-tree edges, and it is the batch engine's independent
  reference.

A call of the recursive routine is counted per extension, matching the
paper's search-space proxy ("a new recursive call ... every time an
intermediate match is expanded by one tree-edge", Section 6.6); the
batch engine charges the same calls block by block.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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

#: One item of :meth:`Enumerator._blocks`: a numpy block of complete
#: embeddings (batch engine) or one unit's embeddings (recursion).
Block = Union[np.ndarray, List[Embedding]]


def embedding_tuples(block: np.ndarray) -> List[Embedding]:
    """The rows of a block of complete embeddings as tuples of Python
    ``int`` (never numpy scalars, so they pickle and serialise as plain
    ints).  Built column-wise: one ``tolist`` per column and one
    ``zip`` skip the intermediate list per row that ``map(tuple,
    block.tolist())`` allocates (1.4x faster on a full 65,536-row
    block, 2x on 300k rows)."""
    return list(zip(*block.T.tolist()))


def _rows(block: Block) -> List[Embedding]:
    """A stream block as embedding tuples."""
    return embedding_tuples(block) if isinstance(block, np.ndarray) else block


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
        enabled, every run records one ``cluster`` instant per pivot
        that streamed embeddings, with their count, and runs the
        untraced schedule.  The default null tracer costs one attribute check
        per run.
    progress:
        Optional
        :class:`~repro.observability.progress.ProgressReporter`;
        ticked once per recursive call.  Wiring happens by shadowing
        the recursive collector, so the disabled hot path carries no
        per-call check at all.
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
        self._batch: Optional[BatchEngine] = None
        if self.engine == "batch":
            self._batch = BatchEngine(
                ceci, self.symmetry, self.stats, tracker=tracker,
                progress=progress,
            )
        elif progress is not None:
            # Shadow the recursive collector with a progress-ticked
            # wrapper.  Recursion dispatches through the instance
            # attribute, so every recursive call ticks — and the default
            # hot path carries no per-call observability check at all.
            self._collect = self._collect_observed
        #: True once a budget axis has stopped an enumeration early.
        self.truncated = False
        #: The axis that tripped ("deadline", "max_calls", ...), if any.
        self.stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Public entry points — each a few lines over ``_blocks``
    # ------------------------------------------------------------------
    def embeddings(self, limit: Optional[int] = None) -> Iterator[Embedding]:
        """Yield embeddings cluster by cluster (pivot order).  The batch
        engine streams blocks of up to ``BLOCK_ROWS`` rows; the
        recursion materialises each cluster before yielding it."""
        for block in self._blocks(self._pivot_units(), limit):
            yield from _rows(block)

    def collect(self, limit: Optional[int] = None) -> List[Embedding]:
        """All embeddings (or the first ``limit``) as a list.  Under a
        budget the list may be partial — check ``truncated``."""
        out: List[Embedding] = []
        for block in self._blocks(self._pivot_units(), limit):
            out.extend(_rows(block))
        return out

    def count(self, limit: Optional[int] = None) -> int:
        """Number of embeddings (up to ``limit``); the batch engine's
        blocks are counted, never turned into tuples."""
        return sum(
            len(block)
            for block in self._blocks(self._pivot_units(), limit)
        )

    def collect_from_unit(
        self, prefix: Sequence[int], limit: Optional[int] = None
    ) -> List[Embedding]:
        """Embeddings of one work unit (partial-embedding prefix along
        the matching order) — the FGD execution path."""
        out: List[Embedding] = []
        for block in self._blocks([tuple(map(int, prefix))], limit):
            out.extend(_rows(block))
        return out

    def collect_rows(
        self, pivots: Sequence[int], dtype=np.int64
    ) -> np.ndarray:
        """All embeddings of the clusters of ``pivots`` as one packed
        ``(rows, query vertices)`` array of ``dtype``, in sorted-pivot
        DFS order: each pivot's rows are contiguous and equal
        ``collect_from_unit((pivot,))``.  An empty share gives shape
        ``(0, n)``.

        The batch engine runs the whole share as one root frontier
        (DESIGN.md §12) and its blocks are concatenated as they are;
        the recursion's per-unit lists are packed.  No tuple is built —
        a service share ships these rows to the front end, which builds
        the tuples once.
        """
        n = self.tree.query.num_vertices
        units = [(p,) for p in sorted({int(p) for p in pivots})]
        blocks = [
            block if isinstance(block, np.ndarray)
            else np.array(block, dtype=dtype).reshape(-1, n)
            for block in self._blocks(units, None)
        ]
        if not blocks:
            return np.empty((0, n), dtype=dtype)
        return np.concatenate(blocks, dtype=dtype)

    def _pivot_units(self) -> List[Tuple[int, ...]]:
        """One ``(pivot,)`` unit per embedding cluster, in pivot order."""
        return [(pivot,) for pivot in self.ceci.pivots.tolist()]

    # ------------------------------------------------------------------
    # The one block stream
    # ------------------------------------------------------------------
    def _blocks(
        self, units: Sequence[Tuple[int, ...]], limit: Optional[int]
    ) -> Iterator[Block]:
        """Stream the complete embeddings of ``units`` in order, as
        :data:`Block` items, never empty.

        The one place that starts the budget tracker, keeps the shared
        ``limit`` cell, records ``cluster`` counts on an enabled tracer
        and turns :class:`BudgetExhausted` into ``truncated`` /
        ``stop_reason``.  A cut cluster's partial rows are yielded
        before the stop is recorded.  The recursion runs the units one
        by one; the batch engine seeds several pivot units as one root
        frontier and a single unit as its prefix, whatever the limit,
        budget or tracer (DESIGN.md §12).
        """
        if self._tracker is not None:
            self._tracker.start()
        remaining: List[Optional[int]] = [limit]
        engine = self._batch
        stream: Iterator[Block]
        if engine is None:
            stream = (
                rows
                for unit in units
                if remaining[0] is None or remaining[0] > 0
                for rows in self._collect_prefix(unit, remaining)
            )
        elif len(units) == 1:
            frontier = engine.seed_frontier(units[0])
            stream = iter(()) if frontier is None else engine.blocks(
                frontier, len(units[0]), remaining
            )
        else:
            stream = engine.blocks(
                engine.root_frontier([unit[0] for unit in units]), 1,
                remaining,
            )
        if self.tracer.enabled:
            stream = self._cluster_records(stream)
        try:
            yield from stream
        except BudgetExhausted as stop:
            self.truncated = True
            self.stop_reason = stop.reason
            self.stats.budget_stops += 1

    def _cluster_records(self, stream: Iterator[Block]) -> Iterator[Block]:
        """Pass ``stream`` through, recording one ``cluster`` instant per
        pivot that streamed embeddings, with their count: each block is
        split on the root column, and a pivot's rows are contiguous but
        may span blocks.  The clusters of one frontier share their
        expansions, so no time is recorded."""
        root = self.tree.root
        pivot, found = None, 0
        try:
            for block in stream:
                roots = np.asarray(block)[:, root]
                heads = np.flatnonzero(np.diff(roots, prepend=-1))
                sizes = np.diff(heads, append=len(roots))
                for head, size in zip(roots[heads].tolist(), sizes.tolist()):
                    if head != pivot and found:
                        self.tracer.instant(
                            "cluster", pivot=pivot, embeddings=found
                        )
                        found = 0
                    pivot = head
                    found += size
                yield block
        finally:
            if found:
                self.tracer.instant("cluster", pivot=pivot, embeddings=found)

    # ------------------------------------------------------------------
    # The recursion (edge verification)
    # ------------------------------------------------------------------
    def _collect_prefix(
        self, prefix: Tuple[int, ...], remaining: List[Optional[int]]
    ) -> Iterator[List[Embedding]]:
        """Seed the mapping with a unit prefix and recurse, yielding the
        unit's embeddings as one list (none for a dead prefix); rows
        found before a budget stop are yielded before it propagates."""
        order = self.tree.order
        if len(prefix) > len(order):
            raise ValueError("work-unit prefix longer than the query")
        mapping = [-1] * self.tree.query.num_vertices
        used = set()
        for depth, v in enumerate(prefix):
            u = order[depth]
            if v in used or not self.symmetry.admissible(u, v, mapping):
                return  # injectivity or symmetry kills the unit
            mapping[u] = v
            used.add(v)
        rows: List[Embedding] = []
        try:
            if len(prefix) == len(order):
                # The unit already is a complete embedding.
                self.stats.recursive_calls += 1
                if self._tracker is not None:
                    self._tracker.charge_call()
                    self._tracker.charge_embedding(len(mapping))
                self.stats.embeddings_found += 1
                rows.append(tuple(mapping))
            else:
                self._collect(
                    len(prefix), mapping, used, rows.append, remaining[0]
                )
        except BudgetExhausted:
            if rows:
                yield rows
            raise
        if remaining[0] is not None:
            remaining[0] -= len(rows)
        if rows:
            yield rows

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
