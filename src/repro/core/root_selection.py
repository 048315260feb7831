"""Root query vertex selection and the LDF/NLC candidate scan.

Section 2.2: the root is the vertex minimizing
``|candidate(u)| / degree(u)``, where ``candidate(u)`` is obtained "by
verifying each data node by the label, degree, and neighborhood label
count".  That scan is also exactly the pivot computation — the
root's candidates become the cluster pivots — so both live here.
"""

from __future__ import annotations

from typing import List, Tuple

from ..graph import Graph
from .stats import MatchStats

__all__ = ["initial_candidates", "select_root"]


def initial_candidates(
    query: Graph,
    data: Graph,
    u: int,
    stats: MatchStats | None = None,
    use_degree_filter: bool = True,
    use_nlc_filter: bool = True,
) -> List[int]:
    """Scan the data graph for candidates of query vertex ``u``.

    A data vertex ``v`` qualifies when:

    * **LF**: ``L_q(u) ⊆ L(v)``,
    * **DF**: ``degree(v) >= degree(u)``,
    * **NLCF**: for every label ``l`` in ``u``'s neighborhood,
      ``count_v(l) >= count_u(l)``.

    The scan starts from the rarest query label's posting list, so it is
    proportional to that label's frequency rather than ``|V|``, and
    narrows it with one array mask per filter over the data graph's
    :meth:`~repro.graph.Graph.scan_tables`.  Each vertex is counted as
    removed by the first filter it fails, in the order above.
    """
    rows, member, nlc, degrees, postings = data.scan_tables()
    query_rows = [rows.get(label) for label in query.labels_of(u)]
    if None in query_rows:
        return []  # a label the data lacks: the scanned posting is empty
    query_rows.sort(key=lambda r: len(postings[r]))
    survivors = postings[query_rows[0]]
    scanned = len(survivors)
    for r in query_rows[1:]:
        survivors = survivors[member[r][survivors]]
    labelled = len(survivors)
    if use_degree_filter:
        survivors = survivors[degrees[survivors] >= query.degree(u)]
    sized = len(survivors)
    if use_nlc_filter:
        for label, needed in query.neighbor_label_counts(u).items():
            r = rows.get(label)
            if r is None:
                survivors = survivors[:0]
                break
            survivors = survivors[nlc[r][survivors] >= needed]
    if stats is not None:
        stats.candidates_initial += scanned
        stats.removed_by_label += scanned - labelled
        stats.removed_by_degree += labelled - sized
        stats.removed_by_nlc += sized - len(survivors)
    return survivors.tolist()


def select_root(
    query: Graph,
    data: Graph,
    stats: MatchStats | None = None,
) -> Tuple[int, List[int]]:
    """Pick the root vertex minimizing ``|candidate(u)|/degree(u)`` and
    return ``(root, its candidate list)`` — the candidates double as the
    cluster pivots.

    Vertices whose candidate set is empty make the whole query
    unsatisfiable; in that case the vertex is still returned (cost 0) so
    the caller can terminate with zero embeddings cheaply.
    """
    best_u = -1
    best_cost = float("inf")
    best_candidates: List[int] = []
    for u in query.vertices():
        candidates = initial_candidates(query, data, u, stats)
        degree = query.degree(u) or 1
        cost = len(candidates) / degree
        if cost < best_cost:
            best_u = u
            best_cost = cost
            best_candidates = candidates
            if not candidates:
                break  # cannot do better than an unsatisfiable vertex
    return best_u, best_candidates
