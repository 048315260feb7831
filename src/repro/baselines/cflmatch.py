"""CFLMatch (Bi et al., 2016) — reference [4].

CFLMatch postpones Cartesian products by decomposing the query into
**core** (the 2-core), **forest** (trees hanging off the core) and
**leaves** (degree-1 vertices), matching the dense core first.  Its CPI
(compact path index) is structurally a TE-only CECI: per query vertex,
candidates keyed by the parent's candidates — crucially *without* NTE
candidate lists, so non-tree edges are checked by **edge verification**
during enumeration.  Those two differences (no NTE lists, edge
verification) are exactly what the paper credits CECI's speedup to, so
this reimplementation shares CECI's filtering machinery and differs only
there, plus in the core-forest-leaf matching order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..graph import Graph
from ..core.automorphism import SymmetryBreaker
from ..core.enumeration import Enumerator
from ..core.filtering import build_ceci
from ..core.query_tree import QueryTree
from ..core.refinement import refine_ceci
from ..core.root_selection import initial_candidates, select_root
from ..core.stats import MatchStats

__all__ = ["CFLMatcher", "cflmatch_match", "core_forest_leaf"]


def core_forest_leaf(query: Graph) -> Tuple[Set[int], Set[int], Set[int]]:
    """Core-forest-leaf decomposition.

    * **core** — the 2-core (iteratively strip degree<=1 vertices);
    * **leaves** — degree-1 vertices of the original query;
    * **forest** — everything else (tree vertices between core and leaves).

    For acyclic queries the 2-core is empty; CFLMatch then treats the
    whole query as forest+leaves, which this function reproduces.
    """
    degree = {u: query.degree(u) for u in query.vertices()}
    alive = set(query.vertices())
    changed = True
    while changed:
        changed = False
        for u in list(alive):
            if degree[u] <= 1:
                alive.discard(u)
                changed = True
                for w in query.neighbors(u):
                    if w in alive:
                        degree[w] -= 1
    core = alive
    leaves = {u for u in query.vertices() if query.degree(u) == 1}
    forest = set(query.vertices()) - core - leaves
    return core, forest, leaves


def _cfl_order(query: Graph, root: int) -> List[int]:
    """Tree-compatible matching order visiting core, then forest, then
    leaf vertices ("processing the dense portion of query earlier")."""
    core, forest, leaves = core_forest_leaf(query)

    def rank(u: int) -> int:
        if u in core:
            return 0
        if u in forest:
            return 1
        return 2

    tree = QueryTree(query, root)  # plain BFS tree fixes parents
    order = [root]
    placed = {root}
    pending = set(query.vertices()) - {root}
    while pending:
        ready = [u for u in pending if tree.parent[u] in placed]
        nxt = min(ready, key=lambda u: (rank(u), tree.level[u], u))
        order.append(nxt)
        placed.add(nxt)
        pending.discard(nxt)
    return order


class CFLMatcher:
    """Core-forest-leaf matcher over a CPI-style (TE-only) index.

    The CPI has no NTE lists, so the enumerator resolves non-tree edges
    by per-candidate edge verification — CFLMatch's own cost model (for
    a CPI, intersecting with adjacency lists *is* edge verification).
    """

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
        self._enumerator: Optional[Enumerator] = None

    def _build(self) -> Enumerator:
        if self._enumerator is not None:
            return self._enumerator
        root, pivots = select_root(self.query, self.data, self.stats)
        order = _cfl_order(self.query, root)
        tree = QueryTree(self.query, root, order)
        cpi = build_ceci(
            tree, self.data, pivots, self.stats, build_nte=False
        )
        refine_ceci(cpi, self.stats)
        # The CPI freezes to the same flat layout (TE triples only).
        cpi = cpi.compact()
        cpi.record_size(self.stats)
        self.stats.memory_bytes = cpi.memory_bytes()
        self._enumerator = Enumerator(
            cpi, symmetry=self.symmetry, stats=self.stats
        )
        return self._enumerator

    def embeddings(self, limit: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        """Yield embeddings (tuples indexed by query vertex)."""
        yield from self._build().embeddings(limit)

    def match(self, limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        """All embeddings (or first ``limit``) as a list."""
        return list(self.embeddings(limit))

    def adjacency_matrix_bytes(self) -> int:
        """Memory a faithful CFLMatch would spend on its |V|x|V| bit
        matrix — the reason it "failed to run data graphs larger than
        500K nodes" (Section 6.4).  Reported, not allocated."""
        n = self.data.num_vertices
        return n * n // 8


def cflmatch_match(
    query: Graph,
    data: Graph,
    limit: Optional[int] = None,
    break_automorphisms: bool = True,
) -> List[Tuple[int, ...]]:
    """Functional one-shot wrapper."""
    return CFLMatcher(query, data, break_automorphisms).match(limit)
