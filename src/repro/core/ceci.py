"""The Compact Embedding Cluster Index structure (Section 3.1).

A CECI mirrors the query tree.  For each query vertex ``u`` it stores:

* ``TE_Candidates`` — key/value pairs ``<v_p, [v...]>`` where ``v_p`` is a
  candidate of ``u``'s tree parent and the value is the sorted list of
  candidates of ``u`` adjacent to ``v_p``;
* ``NTE_Candidates`` — for each non-tree edge ``(u_n, u)`` (with ``u_n``
  earlier in the matching order), key/value pairs ``<v_n, [v...]>`` keyed
  by candidates of ``u_n``;
* the per-candidate ``cardinality`` computed by reverse-BFS refinement,
  which doubles as the workload estimate for cluster decomposition.

The value lists are kept sorted so enumeration can use ordered merge
intersection — the paper's C++ implementation sorts its STL vectors for
binary search / ``lower_bound`` for the same reason.

This dict-of-dict class is the index's *builder*: BFS filtering and
reverse-BFS refinement mutate it heavily, then :meth:`CECI.compact`
freezes it into :class:`~repro.core.store.CompactCECI`, the only
representation enumeration, clustering, estimation and persistence
read (DESIGN.md §8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from ..graph import Graph
from .query_tree import QueryTree

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from .store import CompactCECI

__all__ = ["CECI"]

TECandidates = Dict[int, List[int]]
NTECandidates = Dict[int, Dict[int, List[int]]]


class CECI:
    """The index builder; create it via
    :func:`repro.core.filtering.build_ceci`, freeze it with
    :meth:`compact`."""

    def __init__(self, tree: QueryTree, data: Graph) -> None:
        self.tree = tree
        self.data = data
        n = tree.query.num_vertices
        #: Pivot vertices — candidates of the root query vertex; each
        #: identifies one embedding cluster.  Backed by a mirror set
        #: (``_pivot_set``) so cascade deletes are O(1); the sorted list
        #: view is rebuilt lazily on read.
        self._pivot_set: Set[int] = set()
        self._pivot_sorted: Optional[List[int]] = None
        #: ``te[u][v_p]`` — sorted candidates of ``u`` adjacent to parent
        #: candidate ``v_p``.  Empty dict for the root.
        self.te: List[TECandidates] = [dict() for _ in range(n)]
        #: ``nte[u][u_n][v_n]`` — sorted candidates of ``u`` adjacent to
        #: NTE-parent candidate ``v_n``.
        self.nte: List[NTECandidates] = [dict() for _ in range(n)]
        #: Current candidate set of each query vertex.
        self.cand: List[Set[int]] = [set() for _ in range(n)]
        #: ``cardinality[u][v]`` — refinement's upper bound on embeddings
        #: extending the partial match ``u -> v`` downward.
        self.cardinality: List[Dict[int, int]] = [dict() for _ in range(n)]
        #: False for a TE-only index (CFLMatch's CPI shape, built with
        #: ``build_nte=False``): enumeration then verifies non-tree
        #: edges on the data graph.
        self.nte_built: bool = True

    # ------------------------------------------------------------------
    # Pivots (sorted view over an O(1)-delete mirror set)
    # ------------------------------------------------------------------
    @property
    def pivots(self) -> List[int]:
        """Sorted pivot list, rebuilt lazily after mutation.  Treat the
        returned list as read-only; assign to ``pivots`` (or go through
        :meth:`remove_candidate`) to mutate."""
        if self._pivot_sorted is None:
            self._pivot_sorted = sorted(self._pivot_set)
        return self._pivot_sorted

    @pivots.setter
    def pivots(self, values: Iterable[int]) -> None:
        self._pivot_set = set(values)
        self._pivot_sorted = None

    # ------------------------------------------------------------------
    # Mutation helpers shared by filtering and refinement
    # ------------------------------------------------------------------
    def remove_candidate(self, u: int, v: int) -> None:
        """Remove data vertex ``v`` as a candidate of query vertex ``u``
        everywhere: from the candidate set, from ``u``'s own TE/NTE value
        lists, and as a key from the TE/NTE maps of ``u``'s (NTE-)children.
        """
        self.cand[u].discard(v)
        self.cardinality[u].pop(v, None)
        if u == self.tree.root and v in self._pivot_set:
            self._pivot_set.discard(v)
            self._pivot_sorted = None
        for values in self.te[u].values():
            _remove_sorted(values, v)
        for groups in self.nte[u].values():
            for values in groups.values():
                _remove_sorted(values, v)
        for u_c in self.tree.children[u]:
            self.te[u_c].pop(v, None)
        for u_c in self.tree.nte_children[u]:
            group = self.nte[u_c].get(u)
            if group is not None:
                group.pop(v, None)

    def compact(self, tracer=None) -> "CompactCECI":
        """Freeze this builder into the flat-array store (the second
        phase of the index lifecycle — see DESIGN.md §8).  An enabled
        ``tracer`` gets one ``freeze:pack`` span around the packing."""
        from .store import CompactCECI

        if tracer is not None and tracer.enabled:
            with tracer.span("freeze:pack", vertices=len(self.tree.order)):
                return CompactCECI.from_ceci(self)
        return CompactCECI.from_ceci(self)

    #: Alias of :meth:`compact` (freezing the builder *is* packing it);
    #: ``perfbench/tracing.py`` patches ``CECI.freeze`` by name.
    freeze = compact

    # ------------------------------------------------------------------
    # Frontiers read by filtering and refinement
    # ------------------------------------------------------------------
    def te_union(self, u: int) -> Set[int]:
        """Algorithm 1 line 3: the frontier of ``u`` is the union of its
        TE_Candidates value lists (the pivots for the root).  Stale
        vertices whose every parent key was cascade-deleted drop out
        automatically."""
        if u == self.tree.root:
            return set(self._pivot_set)
        union: Set[int] = set()
        for values in self.te[u].values():
            union.update(values)
        return union

    def frontier_union(self, u: int) -> Set[int]:
        """Frontier for ``u`` acting as an NTE parent: union of its TE
        *and* NTE candidates (Section 3.2, NTE construction)."""
        union = self.te_union(u)
        for groups in self.nte[u].values():
            for values in groups.values():
                union.update(values)
        return union

    def nte_member_set(self, u: int, u_n: int) -> Set[int]:
        """Union of NTE value lists of ``u`` under NTE parent ``u_n`` — a
        candidate of ``u`` absent from this set can never satisfy the
        non-tree edge ``(u_n, u)`` (Algorithm 2, lines 4-6)."""
        members: Set[int] = set()
        for values in self.nte[u].get(u_n, {}).values():
            members.update(values)
        return members

    def __repr__(self) -> str:
        return f"<CECI clusters={len(self._pivot_set)}>"


def _remove_sorted(values: List[int], v: int) -> None:
    """Delete ``v`` from a sorted list if present (binary search)."""
    import bisect

    i = bisect.bisect_left(values, v)
    if i < len(values) and values[i] == v:
        del values[i]

