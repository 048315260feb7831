"""Set-at-a-time frontier enumeration over the compact store.

The recursive enumerator (:mod:`repro.core.enumeration`) walks the
matching order one partial embedding at a time: every extension is a
Python-level binary search plus per-candidate ``used``-set and symmetry
checks.  On the frozen :class:`~repro.core.store.CompactCECI` that
per-row interpreter overhead dominates — the arrays are already flat
int64, but each probe boxes its way through Python.

This module expands **whole frontiers** instead, in the set-at-a-time
join style of the STwig/billion-node literature: a frontier is a 2-D
int64 array of partial embeddings (one row per embedding, one column per
query vertex, ``-1`` for unmatched), and one matching-order step is a
handful of whole-array numpy operations:

* rows that agree on the level's key columns (TE parent and NTE
  parents) get the same candidates, and in DFS order they sit in
  adjacent runs: the TE∩NTE step runs on each run's head only and its
  list is broadcast to the run (:func:`~repro.kernels.expand_blocks`),
  unless the heads exceed half the rows (redundant-extension
  elimination, after CEMR);
* one vectorised ``searchsorted`` per candidate source (the TE triple
  and each NTE group) locates every row's candidate blocks
  (:func:`~repro.kernels.searchsorted_blocks`);
* per row the shortest block drives: one ragged gather per driver
  partition materialises its extensions
  (:func:`~repro.kernels.expand_blocks`), and each other source becomes
  a membership probe of combined ``key * scale + value`` codes against
  the source's pre-sorted codes, or a bitmap of their code space where
  it is dense (:meth:`~repro.core.store.CompactCECI.te_probe` /
  :meth:`~repro.core.store.CompactCECI.nte_probe` /
  :func:`~repro.kernels.member_mask`) — the batched TE∩NTE
  intersection, never gathering more than a row's shortest list;
* injectivity and the Grochow–Kellis ordering rules are per-column
  boolean masks (:func:`used_exclusion_mask`) instead of per-row set
  and dict probes; they run on every row, after the broadcast.

Frontier blocks are processed **depth-first** off an explicit stack
(chunks pushed in reverse), so complete embeddings stream out in
exactly the recursive engine's DFS order — ``limit`` prefixes are
bit-identical — while memory stays bounded by ``O(depth x block x
fanout)`` rows.  One chunk rule cuts the seed frontier and every
expansion: single rows under ``max_calls``, else at most the
embeddings the run still needs (``limit`` left, ``max_embeddings`` /
``max_memory`` capacity), else ``BLOCK_ROWS`` — so a limited run
reaches its first leaves without expanding whole levels.  Budget axes
charge whole blocks at once
(:meth:`~repro.resilience.budget.BudgetTracker.charge_calls`) and leaf
blocks are truncated *exactly* at the budget boundary before being
committed, preserving the recursive engine's ``PartialResult``
semantics; single rows make the charge order the recursive engine's
DFS node order, so under ``max_calls`` (and with one embedding to
find) the call count at the cut is identical.  ``intersections`` is
charged once per row with a non-empty TE block, a run head once per
row of its run, as the recursion counts.  See DESIGN.md §12.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.intersect import (
    expand_blocks,
    member_mask,
    searchsorted_blocks,
)
from ..resilience.budget import BudgetExhausted

__all__ = [
    "BLOCK_ROWS",
    "BatchEngine",
    "batch_capable",
    "used_exclusion_mask",
]

#: Row cap per frontier block of an unbounded run: a frontier larger
#: than this is split into chunks processed depth-first, bounding peak
#: frontier memory while keeping each numpy call big enough to amortise
#: its fixed cost.
BLOCK_ROWS = 1 << 16

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Stand-in for an absent NTE group: no key, so every row's block is
#: empty and the intersection drops the row.
_EMPTY_TRIPLE = (_EMPTY_I64, np.zeros(1, dtype=np.int64), _EMPTY_I64)


def batch_capable(ceci, use_intersection: bool) -> bool:
    """Whether the batch engine serves this index.

    A query without non-tree edges has nothing to intersect or verify,
    so it always runs batched.  Otherwise the batch engine needs
    intersection mode and the index's NTE groups: edge-verification
    mode (``use_intersection=False``, the Section 4.1 ablation) and a
    TE-only index (CFLMatch's CPI shape) facing non-tree edges run the
    per-embedding recursion, which verifies each non-tree edge on the
    data graph.
    """
    if not any(ceci.tree.nte_parents):
        return True
    return use_intersection and ceci.nte_built


def used_exclusion_mask(
    frontier: np.ndarray,
    rows: np.ndarray,
    cand: np.ndarray,
    used_cols: Sequence[int],
) -> np.ndarray:
    """Injectivity mask: ``True`` where ``cand[i]`` differs from every
    already-matched column of its source row ``frontier[rows[i]]``.

    The batched replacement for the recursive engine's per-embedding
    ``used`` set: each matched query-vertex column is compared against
    the candidate column in one whole-array operation.
    """
    keep = np.ones(len(cand), dtype=bool)
    for col in used_cols:
        keep &= frontier[:, col][rows] != cand
    return keep


class _Level:
    """Precomputed per-depth expansion plan (one per matching-order
    step): the candidate sources to intersect, and which frontier
    columns the injectivity / symmetry masks compare against."""

    __slots__ = (
        "u",
        "sources",
        "used_cols",
        "above_cols",
        "below_cols",
    )

    def __init__(self, ceci, symmetry, depth: int) -> None:
        tree = ceci.tree
        order = tree.order
        self.u = order[depth]
        #: ``(frontier column keying the triple, triple, probe set)``
        #: per candidate source: the TE triple first, then one per NTE
        #: group.  A TE-only level never probes, so it builds no set.
        nte_parents = tree.nte_parents[self.u]
        self.sources: List[Tuple[int, tuple, Optional[np.ndarray]]] = [
            (
                tree.parent[self.u],
                ceci.te[self.u],
                ceci.te_probe(self.u) if nte_parents else None,
            )
        ]
        self.sources.extend(
            (
                u_n,
                ceci.nte[self.u].get(u_n, _EMPTY_TRIPLE),
                ceci.nte_probe(self.u, u_n),
            )
            for u_n in nte_parents
        )
        self.used_cols: Tuple[int, ...] = tuple(order[:depth])
        # Grochow-Kellis counterparts matched *before* this depth; later
        # ones are still -1 in every row, which `admissible` skips.
        position = tree.position
        self.above_cols: Tuple[int, ...] = tuple(
            lo
            for lo, hi in symmetry.conditions
            if hi == self.u and position[lo] < depth
        )
        self.below_cols: Tuple[int, ...] = tuple(
            hi
            for lo, hi in symmetry.conditions
            if lo == self.u and position[hi] < depth
        )


class BatchEngine:
    """Vectorised frontier expansion over one built compact index.

    Owned by an :class:`~repro.core.enumeration.Enumerator` in batch
    mode; shares that enumerator's ``stats``, budget ``tracker`` and
    ``progress`` reporter so the two engines are drop-in replacements
    behind the same counters and truncation semantics.
    """

    def __init__(
        self, ceci, symmetry, stats, tracker=None, progress=None
    ) -> None:
        self.ceci = ceci
        self.tree = ceci.tree
        self.symmetry = symmetry
        self.stats = stats
        self.tracker = tracker
        self.progress = progress
        self.num_vertices = self.tree.query.num_vertices
        self.scale = ceci.pair_scale
        order = self.tree.order
        self.depth_total = len(order)
        self.levels: List[_Level] = [
            _Level(ceci, symmetry, depth) for depth in range(len(order))
        ]

    # ------------------------------------------------------------------
    # Frontier construction
    # ------------------------------------------------------------------
    def root_frontier(self, pivots) -> np.ndarray:
        """A depth-1 frontier: one row per pivot, root column set."""
        arr = np.asarray(pivots, dtype=np.int64)
        frontier = np.full(
            (len(arr), self.num_vertices), -1, dtype=np.int64
        )
        if len(arr):
            frontier[:, self.tree.root] = arr
        return frontier

    def seed_frontier(self, prefix: Sequence[int]) -> Optional[np.ndarray]:
        """A one-row frontier seeded from a work-unit prefix, or
        ``None`` when the prefix is dead (injectivity or symmetry
        violation) — mirroring the recursive engine's prefix checks."""
        order = self.tree.order
        if len(prefix) > len(order):
            raise ValueError("work-unit prefix longer than the query")
        mapping = [-1] * self.num_vertices
        used: set = set()
        for depth, v in enumerate(prefix):
            u = order[depth]
            v = int(v)
            if v in used or not self.symmetry.admissible(u, v, mapping):
                return None
            mapping[u] = v
            used.add(v)
        return np.asarray([mapping], dtype=np.int64)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _candidates(
        self, frontier: np.ndarray, level: _Level
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The level's matching nodes for a whole block, as ``(rows,
        cand)`` in row order with each row's candidates sorted.

        A TE-only level gathers every row's TE block.  Otherwise a row's
        candidates depend only on its key columns (TE parent and NTE
        parents), and in DFS order rows that agree on them sit in
        adjacent runs: the intersection runs on the run heads only
        (:meth:`_intersect`) and each head's list is broadcast to its
        run.  When the heads exceed half the rows the rows intersect
        directly: near that point the broadcast costs about what the
        repeats would (measured in DESIGN.md §12).
        """
        sources = level.sources
        if len(sources) == 1:
            col, (keys, offsets, values), _ = sources[0]
            starts, counts = searchsorted_blocks(
                keys, offsets, frontier[:, col]
            )
            return expand_blocks(values, starts, counts)
        n_rows = len(frontier)
        # A row heads a run unless it equals its predecessor on every
        # key column.
        head = np.zeros(n_rows, dtype=bool)
        head[:1] = True
        for col, _, _ in sources:
            column = frontier[:, col]
            head[1:] |= column[1:] != column[:-1]
        heads = np.flatnonzero(head)
        if 2 * len(heads) > n_rows:
            return self._intersect(frontier, sources, None)
        runs = np.diff(heads, append=n_rows)
        rows, cand = self._intersect(
            np.take(frontier, heads, axis=0), sources, runs
        )
        sizes = np.bincount(rows, minlength=len(heads))
        firsts = np.cumsum(sizes) - sizes
        return expand_blocks(
            cand, np.repeat(firsts, runs), np.repeat(sizes, runs)
        )

    def _intersect(
        self,
        frontier: np.ndarray,
        sources: Sequence[Tuple[int, tuple, Optional[np.ndarray]]],
        runs: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The TE∩NTE step for every row of ``frontier``, as ``(rows,
        cand)`` in row order.

        Each row's shortest block (TE on a tie) drives: its partition of
        rows is gathered once and probed against every *other* source's
        combined codes, so a row gathers ``min`` of its block sizes —
        Lemma 2 per row.  Each row's candidates come from one sorted
        block, so the stable merge of the partitions yields exactly the
        TE block filtered by every NTE group, in the same order.
        ``runs[i]`` is how many frontier rows row ``i`` stands for
        (``None``: one each), which weights the intersection count.
        """
        located = [
            searchsorted_blocks(keys, offsets, frontier[:, col])
            for col, (keys, offsets, _), _ in sources
        ]
        stats = self.stats
        # One logical TE∩NTE intersection per row with a non-empty TE
        # base — the recursive engine's counting convention.
        te_hit = located[0][1] > 0
        stats.intersections += int(
            np.count_nonzero(te_hit) if runs is None else runs[te_hit].sum()
        )
        driver = np.argmin(np.stack([counts for _, counts in located]), axis=0)
        # Each source's ``key * scale`` half of the probe codes, per row.
        bases = [frontier[:, col] * self.scale for col, _, _ in sources]
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        for s, (starts, counts) in enumerate(located):
            mine = np.flatnonzero(driver == s)
            if len(mine) == 0:
                continue
            rows, cand = expand_blocks(
                sources[s][1][2], starts[mine], counts[mine]
            )
            rows = mine[rows]
            for t, (_, _, probe) in enumerate(sources):
                if t == s or len(cand) == 0:
                    continue
                stats.kernel_array_calls += 1
                hit = member_mask(probe, bases[t][rows] + cand)
                rows = rows[hit]
                cand = cand[hit]
            if len(cand):
                parts.append((rows, cand))
        if len(parts) <= 1:
            return parts[0] if parts else (_EMPTY_I64, _EMPTY_I64)
        rows = np.concatenate([rows for rows, _ in parts])
        cand = np.concatenate([cand for _, cand in parts])
        merged = np.argsort(rows, kind="stable")
        return rows[merged], cand[merged]

    def _expand(self, frontier: np.ndarray, depth: int) -> Optional[np.ndarray]:
        """One matching-order step for a whole frontier block: returns
        the depth+1 frontier (or ``None`` when nothing survives)."""
        level = self.levels[depth]
        rows, cand = self._candidates(frontier, level)
        if len(cand) == 0:
            return None
        keep = used_exclusion_mask(frontier, rows, cand, level.used_cols)
        for col in level.above_cols:
            keep &= frontier[:, col][rows] < cand
        for col in level.below_cols:
            keep &= cand < frontier[:, col][rows]
        if not keep.all():
            rows = rows[keep]
            cand = cand[keep]
            if len(cand) == 0:
                return None
        out = np.take(frontier, rows, axis=0)
        out[:, level.u] = cand
        return out

    # ------------------------------------------------------------------
    # Depth-first block processing
    # ------------------------------------------------------------------
    def blocks(
        self,
        frontier: np.ndarray,
        depth: int,
        remaining: List[Optional[int]],
    ) -> Iterator[np.ndarray]:
        """Expand ``frontier`` to completion, yielding blocks of
        complete embeddings in exact recursive-DFS order.

        ``remaining`` is the shared one-cell ``limit`` budget (``[None]``
        for unlimited); budget axes raise :class:`BudgetExhausted`
        exactly where the recursive engine would.  Each popped block is
        cut to :meth:`_chunk_rows` rows (the rest goes back on the
        stack) and charged ``len(block)`` extension calls; complete
        blocks are truncated to the tightest remaining capacity before
        being committed, so truncation lands mid-block with no
        overshoot.
        """
        total_depth = self.depth_total
        stats = self.stats
        tracker = self.tracker
        progress = self.progress
        if not len(frontier) or (
            remaining[0] is not None and remaining[0] <= 0
        ):
            return
        stack: List[Tuple[int, np.ndarray]] = [(depth, frontier)]
        while stack:
            d, block = stack.pop()
            cap = self._chunk_rows(remaining)
            if len(block) > cap:
                stack.append((d, block[cap:]))
                block = block[:cap]
            if d >= total_depth:
                yield from self._emit(block, remaining)
                if remaining[0] is not None and remaining[0] <= 0:
                    return
                continue
            n_rows = len(block)
            stats.batch_blocks += 1
            stats.batch_rows += n_rows
            if tracker is None:
                stats.recursive_calls += n_rows
            else:
                before = tracker.calls
                try:
                    tracker.charge_calls(n_rows)
                finally:
                    stats.recursive_calls += tracker.calls - before
            if progress is not None:
                progress.tick_many(n_rows)
            grown = self._expand(block, d)
            if grown is not None:
                stack.append((d + 1, grown))

    def _chunk_rows(self, remaining: List[Optional[int]]) -> int:
        """Rows to take off the stack: single rows under ``max_calls``
        (the charge order is then the DFS node order), else at most the
        embeddings the run still needs (``limit`` left, ``max_embeddings``
        / ``max_memory`` capacity) but at least one, else
        ``BLOCK_ROWS``."""
        tracker = self.tracker
        cap = BLOCK_ROWS if remaining[0] is None else remaining[0]
        if tracker is not None:
            if tracker.budget.max_calls is not None:
                return 1
            left, _ = tracker.embedding_capacity(self.num_vertices)
            if left is not None:
                cap = min(cap, left)
        return max(min(cap, BLOCK_ROWS), 1)

    def _emit(
        self, block: np.ndarray, remaining: List[Optional[int]]
    ) -> Iterator[np.ndarray]:
        """Commit one block of complete embeddings, truncated exactly at
        the tightest of ``limit`` and the budget capacities."""
        n_rows = len(block)
        take = n_rows
        reason: Optional[str] = None
        if remaining[0] is not None and remaining[0] < take:
            take = remaining[0]
        tracker = self.tracker
        if tracker is not None:
            cap, cap_reason = tracker.embedding_capacity(self.num_vertices)
            if cap is not None and cap < take:
                take, reason = cap, cap_reason
            calls_left = tracker.calls_capacity()
            if calls_left is not None and calls_left < take:
                take, reason = calls_left, "max_calls"
        if take > 0:
            self.stats.recursive_calls += take
            self.stats.embeddings_found += take
            if tracker is not None:
                tracker.commit_calls(take)
                tracker.commit_embeddings(take, self.num_vertices)
            if self.progress is not None:
                self.progress.tick_many(take)
            if remaining[0] is not None:
                remaining[0] -= take
            yield block[:take]
        if take < n_rows and reason is not None:
            # A budget axis (not the caller's limit) cut this block
            # short.  Account the failing candidate's entry call exactly
            # as the recursion would, then surface the binding axis —
            # charge_call itself raises max_calls when that is it.
            if tracker is not None:
                before = tracker.calls
                try:
                    tracker.charge_call()
                finally:
                    self.stats.recursive_calls += tracker.calls - before
            raise BudgetExhausted(reason)
