"""Reverse-BFS refinement and cardinality — Algorithm 2 (Section 3.3).

Traversing the CECI in *reverse* matching order, each candidate pair
``(u, v)`` gets a **cardinality** — the maximum number of embeddings that
could match ``v`` to ``u``:

* leaves of the query tree have cardinality 1;
* otherwise ``cardinality(u, v) = Π_{u_c} Σ_{v_c} cardinality(u_c, v_c)``
  over tree children ``u_c`` and their candidates ``v_c`` adjacent to
  ``v`` (i.e. in ``TE_Candidates[u_c][v]``) that also appear in the
  NTE_Candidates of ``u_c``;
* a candidate that is missing from the NTE_Candidates of one of its
  non-tree edges can never close that edge: its cardinality is 0
  (Algorithm 2 lines 4-6 — this is how ``v_7`` dies in Figure 3).

Zero-cardinality candidates are guaranteed non-matches and are deleted
from the index together with their entries in all (NTE-)children
(lines 8-11).  The surviving root cardinalities are exactly the embedding
cluster workload estimates used by ExtremeCluster decomposition.
"""

from __future__ import annotations

from typing import Optional

from ..observability.tracer import NULL_TRACER
from .ceci import CECI
from .stats import MatchStats

__all__ = ["refine_ceci"]


def refine_ceci(
    ceci: CECI,
    stats: Optional[MatchStats] = None,
    tracer=None,
) -> CECI:
    """Run Algorithm 2 in place and return the same (now refined) CECI.

    The NTE membership constraint (lines 4-6) is evaluated as one set
    intersection per query vertex — the candidate set against every NTE
    member set.  An enabled ``tracer`` gets one child span per
    reverse-order vertex.
    """
    stats = stats if stats is not None else MatchStats()
    tracer = NULL_TRACER if tracer is None else tracer
    tree = ceci.tree
    if tracer.enabled:
        for u in tree.reverse_order():
            with tracer.span("refine:vertex", u=int(u)):
                _refine_vertex(ceci, u, stats)
    else:
        for u in tree.reverse_order():
            _refine_vertex(ceci, u, stats)
    return ceci


def _refine_vertex(ceci: CECI, u: int, stats: MatchStats) -> None:
    """One reverse-order step of Algorithm 2: cardinalities for ``u``'s
    candidates, zero-cardinality deletion included."""
    tree = ceci.tree
    # In a TE-only index (CFLMatch's CPI shape) the NTE groups were
    # never built; only constrain against groups that exist.
    member_sets = [
        ceci.nte_member_set(u, u_n)
        for u_n in tree.nte_parents[u]
        if u_n in ceci.nte[u]
    ]
    survivors: Optional[set] = (
        set(ceci.cand[u]).intersection(*member_sets) if member_sets else None
    )
    doomed = []
    for v in ceci.cand[u]:
        cardinality = _cardinality_of(ceci, u, v, survivors)
        if cardinality == 0:
            doomed.append(v)
        else:
            ceci.cardinality[u][v] = cardinality
    for v in doomed:
        stats.removed_by_refinement += 1
        ceci.remove_candidate(u, v)


def _cardinality_of(ceci, u, v, survivors) -> int:
    """Cardinality of pair ``(u, v)``; ``survivors`` is the intersection
    of the candidate set with every NTE member list (``None`` when the
    vertex has no built NTE groups)."""
    if survivors is not None and v not in survivors:
        return 0
    # Children "including non tree edge neighbors" (Algorithm 2 line 10):
    # matching v to u must leave at least one live candidate across every
    # outgoing non-tree edge.  NTE children sit later in the matching
    # order, hence earlier in the reverse pass, so their lists are final.
    for u_c in ceci.tree.nte_children[u]:
        group = ceci.nte[u_c].get(u)
        if group is not None and not group.get(v):
            return 0
    product = 1
    for u_c in ceci.tree.children[u]:
        child_cardinalities = ceci.cardinality[u_c]
        total = 0
        for v_c in ceci.te[u_c].get(v, ()):
            total += child_cardinalities.get(v_c, 0)
        if total == 0:
            return 0
        product *= total
    return product
