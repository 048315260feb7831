"""CECI creation and BFS-based filtering — Algorithm 1 (Section 3.2).

The data graph is explored from the cluster pivots level by level along
the query tree.  Each frontier expansion applies four filters:

* **LF** — label filter: ``L_q(u) ⊆ L(v)``;
* **DF** — degree filter: ``degree(v) >= degree(u)``;
* **NLCF** — neighborhood label count filter: for every label ``l`` around
  ``u``, ``count_v(l) >= count_u(l)``;
* **empty-entry cascade** — if ``TE_Candidates[u]`` has no entry for key
  ``v_p``, then ``v_p`` cannot match ``u_p``: it is deleted from the
  parent's candidates and from the TE maps of all of ``u_p``'s children.

``NTE_Candidates`` are built afterwards the same way: for each non-tree
edge the earlier vertex in the matching order acts as parent, its
candidates are the frontier, and only neighbors that already survived as
candidates of the child qualify.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graph import Graph
from ..observability.tracer import NULL_TRACER
from .ceci import CECI
from .query_tree import QueryTree
from .root_selection import initial_candidates
from .stats import MatchStats

__all__ = ["build_ceci", "FilterConfig"]


class FilterConfig:
    """Ablation switches for the filtering pipeline.

    All filters are on by default — switching one off reproduces the
    ablation benchmarks; the index stays *complete* either way, only its
    tightness (and therefore enumeration cost) changes.
    """

    __slots__ = ("use_degree_filter", "use_nlc_filter", "use_cascade")

    def __init__(
        self,
        use_degree_filter: bool = True,
        use_nlc_filter: bool = True,
        use_cascade: bool = True,
    ) -> None:
        self.use_degree_filter = use_degree_filter
        self.use_nlc_filter = use_nlc_filter
        self.use_cascade = use_cascade


def build_ceci(
    tree: QueryTree,
    data: Graph,
    pivots: Optional[List[int]] = None,
    stats: Optional[MatchStats] = None,
    config: Optional[FilterConfig] = None,
    build_nte: bool = True,
    tracer=None,
) -> CECI:
    """Run Algorithm 1 (TE construction + filtering) and the analogous
    NTE construction, returning the populated (not yet refined) CECI.

    ``pivots`` are the root candidates; when omitted they are recomputed
    with the LF/DF/NLCF scan.  ``build_nte=False`` produces a TE-only
    index — the shape of CFLMatch's CPI, used by that baseline.  An
    enabled ``tracer`` gets one child span per frontier expansion (the
    per-level decomposition of the filter phase).
    """
    config = config or FilterConfig()
    stats = stats if stats is not None else MatchStats()
    tracer = NULL_TRACER if tracer is None else tracer
    query = tree.query
    ceci = CECI(tree, data)

    if pivots is None:
        pivots = initial_candidates(
            query,
            data,
            tree.root,
            stats,
            use_degree_filter=config.use_degree_filter,
            use_nlc_filter=config.use_nlc_filter,
        )
    ceci.pivots = sorted(pivots)
    ceci.cand[tree.root] = set(pivots)

    if tracer.enabled:
        for u in tree.order[1:]:
            with tracer.span("filter:te", u=int(u)):
                _expand_tree_edge(ceci, u, stats, config)
    else:
        for u in tree.order[1:]:
            _expand_tree_edge(ceci, u, stats, config)

    ceci.nte_built = build_nte
    if build_nte:
        if tracer.enabled:
            for u_n, u in tree.non_tree_edges:
                with tracer.span("filter:nte", u=int(u), u_n=int(u_n)):
                    _expand_non_tree_edge(ceci, u_n, u)
        else:
            for u_n, u in tree.non_tree_edges:
                _expand_non_tree_edge(ceci, u_n, u)

    # Sync the candidate sets to the surviving unions: cascade deletions
    # may have orphaned values whose every parent key is gone.
    for u in tree.order:
        ceci.cand[u] = ceci.te_union(u)

    return ceci


def _expand_tree_edge(
    ceci: CECI,
    u: int,
    stats: MatchStats,
    config: FilterConfig,
) -> None:
    """One level of Algorithm 1: fill ``TE_Candidates[u]`` by expanding
    the frontier of ``u``'s tree parent.

    The inner loop runs once per (frontier vertex, neighbor) pair — the
    hottest code in index construction — so the per-``u`` invariants are
    hoisted and the uniform-label regime (the paper's unlabeled graphs)
    skips LF and collapses NLCF into DF.
    """
    tree = ceci.tree
    query, data = tree.query, ceci.data
    u_p = tree.parent[u]
    frontier = sorted(ceci.te_union(u_p))
    te_u: Dict[int, List[int]] = ceci.te[u]
    candidate_union = ceci.cand[u]
    dead_frontier: List[int] = []

    query_labels = query.labels_of(u)
    uniform = data.uniform_label()
    skip_label = uniform is not None and query_labels == frozenset((uniform,))
    # Single-label regime: count_v(l) == degree(v), so NLCF == DF; an
    # enabled NLCF therefore implies the degree constraint even when the
    # explicit degree filter is ablated away.
    use_nlc = config.use_nlc_filter and not skip_label
    nlc_items = tuple(query.neighbor_label_counts(u).items()) if use_nlc else ()
    if config.use_degree_filter or (skip_label and config.use_nlc_filter):
        degree_u = query.degree(u)
    else:
        degree_u = 0

    # Direct-indexing fast path when the data graph exposes its tables
    # (a TrackedGraph does not, so metered access stays correct).
    adjacency = getattr(data, "adjacency", None)
    if adjacency is not None and skip_label:
        degrees = data.degrees
        passed = 0
        for v_f in frontier:
            neighbors = adjacency[v_f]
            matched = [v for v in neighbors if degrees[v] >= degree_u]
            stats.candidates_initial += len(neighbors)
            stats.removed_by_degree += len(neighbors) - len(matched)
            passed += len(matched)
            if matched:
                te_u[v_f] = matched
                candidate_union.update(matched)
            else:
                dead_frontier.append(v_f)
    else:
        for v_f in frontier:
            matched = []
            for v in data.neighbors(v_f):
                stats.candidates_initial += 1
                if not skip_label and not data.label_matches(query_labels, v):
                    stats.removed_by_label += 1
                    continue
                if data.degree(v) < degree_u:
                    stats.removed_by_degree += 1
                    continue
                if nlc_items:
                    nlc_v = data.neighbor_label_counts(v)
                    ok = True
                    for label, needed in nlc_items:
                        if nlc_v.get(label, 0) < needed:
                            stats.removed_by_nlc += 1
                            ok = False
                            break
                    if not ok:
                        continue
                matched.append(v)
            if matched:
                te_u[v_f] = matched  # neighbors() is sorted already
                candidate_union.update(matched)
            else:
                dead_frontier.append(v_f)

    if config.use_cascade:
        for v_f in dead_frontier:
            # Lines 9-12: v_f cannot match u_p; drop it from u_p's
            # candidates and from the TE maps of all of u_p's children.
            stats.removed_by_cascade += 1
            ceci.remove_candidate(u_p, v_f)


def _expand_non_tree_edge(ceci: CECI, u_n: int, u: int) -> None:
    """Build ``NTE_Candidates[u][u_n]``.

    The frontier is the candidate set of the NTE parent ``u_n``.  A
    neighbor qualifies when it already survived TE filtering as a
    candidate of ``u`` — re-running LF/DF/NLCF would be redundant because
    candidate membership subsumes those checks.  Frontier vertices with an
    empty entry are dropped from ``u_n``'s candidates: they can never
    close the non-tree edge (the paper prunes the analogous ``v_8`` /
    ``v_9`` entries in Figure 3).
    """
    data = ceci.data
    target_candidates = ceci.te_union(u)
    group: Dict[int, List[int]] = {}
    dead: List[int] = []
    for v_n in sorted(ceci.frontier_union(u_n)):
        matched = [v for v in data.neighbors(v_n) if v in target_candidates]
        if matched:
            group[v_n] = matched
        else:
            dead.append(v_n)
    ceci.nte[u][u_n] = group
    for v_n in dead:
        ceci.remove_candidate(u_n, v_n)
