"""TurboIso (Han et al., 2013) — reference [17] — and Boosted-TurboIso,
its BoostIso [45] data-side extension.

TurboIso's strategy, reimplemented:

1. start vertex by ``argmin |cand(u)|/deg(u)`` (the rule CECI inherits);
2. per start-candidate **candidate region (CR)** exploration: for each
   start data vertex, a DFS along the query tree collects the region's
   candidates per query vertex — the per-region analog of CECI's
   TE_Candidates (this per-region rebuild is the "redundancy in
   filtering" CECI's Section 6.2 credits part of its speedup to);
3. region-local matching order by candidate count;
4. backtracking enumeration with **edge verification** for non-tree
   edges (TurboIso has no NTE candidate lists).

Boosted-TurboIso additionally compresses the *data* graph by syntactic
vertex equivalence (BoostIso's SE relation): vertices with identical
label sets and identical neighborhoods (adjacent or non-adjacent twins)
form hyper-vertices; matching runs on representatives and each
representative embedding expands combinatorially to the member vertices.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..graph import Graph
from ..core.automorphism import SymmetryBreaker
from ..core.query_tree import QueryTree
from ..core.root_selection import initial_candidates, select_root
from ..core.stats import MatchStats
from ..core.store import PairArrays, encode_pairs, lookup_pairs

__all__ = ["TurboIsoMatcher", "turboiso_match", "boosted_turboiso_match", "data_vertex_classes"]

#: One frozen candidate region: per query vertex, a
#: :data:`~repro.core.store.PairArrays` triple over parent candidates.
Region = Dict[int, PairArrays]


def _freeze_region(region: Dict[int, Dict[int, List[int]]]) -> Region:
    """Pack every per-parent exploration dict into ``(keys, offsets,
    values)`` triples — the same flat unit the compact CECI store uses,
    so the region's probes become zero-copy array slices."""
    return {u: encode_pairs(per_parent) for u, per_parent in region.items()}


def _region_bytes(region: Region) -> int:
    """Resident bytes of one frozen candidate region (array payload)."""
    return sum(
        int(keys.nbytes + offsets.nbytes + values.nbytes)
        for keys, offsets, values in region.values()
    )


class TurboIsoMatcher:
    """Candidate-region based matcher.  Faithful TurboIso: non-tree
    edges are checked per candidate against the data graph."""

    def __init__(
        self,
        query: Graph,
        data: Graph,
        break_automorphisms: bool = True,
        stats: Optional[MatchStats] = None,
    ) -> None:
        if not query.is_connected():
            raise ValueError("query graph must be connected")
        self.query = query
        self.data = data
        self.stats = stats if stats is not None else MatchStats()
        self.symmetry = SymmetryBreaker(query, enabled=break_automorphisms)
        root, pivots = select_root(query, data, MatchStats())
        self.root = root
        self.pivots = pivots
        self.tree = QueryTree(query, root)

    # ------------------------------------------------------------------
    def embeddings(self, limit: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        """Yield embeddings region by region."""
        remaining = [limit]
        for v_s in self.pivots:
            region = self._explore_cr(v_s)
            if region is None:
                continue
            order = self._region_order(region)
            # Freeze after ordering (sizes need the dict) and after any
            # Boosted twin-swap rewrite (which edits dicts).
            region = _freeze_region(region)
            self.stats.memory_bytes = max(
                self.stats.memory_bytes, _region_bytes(region)
            )
            mapping = [-1] * self.query.num_vertices
            mapping[self.root] = v_s
            yield from self._enumerate(
                region, order, 0, mapping, {v_s}, remaining
            )
            if remaining[0] is not None and remaining[0] <= 0:
                return

    def _explore_cr(self, v_s: int) -> Optional[Dict[int, Dict[int, List[int]]]]:
        """ExploreCR: per-region candidates ``region[u][v_p] -> [v]``
        along the query tree, built fresh for every region."""
        region: Dict[int, Dict[int, List[int]]] = {}
        cand: Dict[int, Set[int]] = {self.root: {v_s}}
        for u in self.tree.order[1:]:
            u_p = self.tree.parent[u]
            labels = self.query.labels_of(u)
            degree_u = self.query.degree(u)
            per_parent: Dict[int, List[int]] = {}
            union: Set[int] = set()
            for v_p in sorted(cand.get(u_p, ())):
                matched = []
                for v in self.data.neighbors(v_p):
                    self.stats.candidates_initial += 1
                    if not self.data.label_matches(labels, v):
                        self.stats.removed_by_label += 1
                        continue
                    if self.data.degree(v) < degree_u:
                        self.stats.removed_by_degree += 1
                        continue
                    matched.append(v)
                if matched:
                    per_parent[v_p] = matched
                    union.update(matched)
            if not union:
                return None
            region[u] = per_parent
            cand[u] = union
        return region

    def _region_order(self, region: Dict[int, Dict[int, List[int]]]) -> List[int]:
        """Region-local order: tree-compatible, fewest candidates first."""
        sizes = {
            u: sum(len(vs) for vs in per_parent.values())
            for u, per_parent in region.items()
        }
        order = [self.root]
        placed = {self.root}
        pending = set(region)
        while pending:
            ready = [u for u in pending if self.tree.parent[u] in placed]
            nxt = min(ready, key=lambda u: (sizes[u], u))
            order.append(nxt)
            placed.add(nxt)
            pending.discard(nxt)
        return order

    def _enumerate(
        self,
        region: Region,
        order: Sequence[int],
        depth: int,
        mapping: List[int],
        used: Set[int],
        remaining: List[Optional[int]],
    ) -> Iterator[Tuple[int, ...]]:
        self.stats.recursive_calls += 1
        if depth == len(order) - 1:
            self.stats.embeddings_found += 1
            if remaining[0] is not None:
                remaining[0] -= 1
            yield tuple(mapping)
            return
        u = order[depth + 1]
        v_p = mapping[self.tree.parent[u]]
        for v in lookup_pairs(region[u], v_p):
            v = int(v)
            if v in used:
                continue
            if not self._edges_ok(u, v, mapping):
                continue
            if not self.symmetry.admissible(u, v, mapping):
                continue
            mapping[u] = v
            used.add(v)
            yield from self._enumerate(
                region, order, depth + 1, mapping, used, remaining
            )
            used.discard(v)
            mapping[u] = -1
            if remaining[0] is not None and remaining[0] <= 0:
                return

    def _edges_ok(self, u: int, v: int, mapping: List[int]) -> bool:
        """Verify every query edge from ``u`` into the partial embedding
        (non-tree edges included) against the data graph."""
        for w in self.query.neighbors(u):
            matched = mapping[w]
            if matched >= 0 and w != self.tree.parent[u]:
                self.stats.edge_verifications += 1
                if not self.data.has_edge(v, matched):
                    return False
        return True

    def match(self, limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        """All embeddings (or first ``limit``) as a list."""
        return list(self.embeddings(limit))


# ----------------------------------------------------------------------
# BoostIso data-side compression
# ----------------------------------------------------------------------
def data_vertex_classes(data: Graph) -> List[List[int]]:
    """Partition data vertices into syntactic-equivalence classes: same
    label set and same neighborhood (ignoring a mutual edge).

    Cached on the graph object — BoostIso computes its adapted graph
    *offline*, once per dataset, amortized over the whole query
    workload, so should this.
    """
    cached = getattr(data, "_twin_classes", None)
    if cached is not None:
        return cached
    signature: Dict[Tuple, List[int]] = {}
    for v in data.vertices():
        neighbor_key = frozenset(data.neighbor_set(v) | {v})
        # Two adjacent twins share N(v) ∪ {v}; two non-adjacent twins
        # share N(v).  Using both keys would over-merge, so classify by
        # the closed neighborhood and split by adjacency afterwards.
        key = (data.labels_of(v), neighbor_key)
        signature.setdefault(key, []).append(v)
    classes: List[List[int]] = []
    grouped: Set[int] = set()
    for members in signature.values():
        if len(members) > 1:
            classes.append(sorted(members))
            grouped.update(members)
    # Non-adjacent twins: same labels, same open neighborhood.
    open_sig: Dict[Tuple, List[int]] = {}
    for v in data.vertices():
        if v in grouped:
            continue
        key = (data.labels_of(v), data.neighbor_set(v))
        open_sig.setdefault(key, []).append(v)
    for members in open_sig.values():
        classes.append(sorted(members))
    try:
        data._twin_classes = classes
    except AttributeError:
        pass  # duck-typed graphs without the cache slot
    return classes


def turboiso_match(
    query: Graph,
    data: Graph,
    limit: Optional[int] = None,
    break_automorphisms: bool = True,
) -> List[Tuple[int, ...]]:
    """Plain TurboIso."""
    return TurboIsoMatcher(query, data, break_automorphisms).match(limit)


class BoostedTurboIsoMatcher(TurboIsoMatcher):
    """TurboIso with BoostIso's data-side symmetry exploitation.

    Equivalent (twin) data vertices produce identical candidate regions
    up to swapping the twin ids, so the region is explored once per
    equivalence class and *rewritten* for each member pivot instead of
    re-explored — the dominant saving BoostIso reports for exploration-
    heavy queries.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rep: Dict[int, int] = {}
        for group in data_vertex_classes(self.data):
            for v in group:
                self._rep[v] = group[0]
        self._region_cache: Dict[int, Optional[Dict[int, Dict[int, List[int]]]]] = {}

    def _explore_cr(self, v_s: int) -> Optional[Dict[int, Dict[int, List[int]]]]:
        rep = self._rep[v_s]
        if rep not in self._region_cache:
            self._region_cache[rep] = super()._explore_cr(rep)
        cached = self._region_cache[rep]
        if cached is None or rep == v_s:
            return cached
        return _swap_region(cached, rep, v_s)


def _swap_region(
    region: Dict[int, Dict[int, List[int]]], a: int, b: int
) -> Dict[int, Dict[int, List[int]]]:
    """Rewrite a cached candidate region for a twin pivot by swapping the
    two twin vertex ids everywhere (keys and value lists)."""

    def swap(v: int) -> int:
        if v == a:
            return b
        if v == b:
            return a
        return v

    out: Dict[int, Dict[int, List[int]]] = {}
    for u, per_parent in region.items():
        out[u] = {
            swap(v_p): sorted(swap(v) for v in values)
            for v_p, values in per_parent.items()
        }
    return out


def boosted_turboiso_match(
    query: Graph,
    data: Graph,
    limit: Optional[int] = None,
    break_automorphisms: bool = True,
) -> List[Tuple[int, ...]]:
    """Boosted-TurboIso: identical output to :func:`turboiso_match`,
    cheaper candidate-region construction on symmetry-rich graphs."""
    return BoostedTurboIsoMatcher(query, data, break_automorphisms).match(
        limit
    )
