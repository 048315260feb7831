"""Embedding clusters and ExtremeCluster decomposition — Sections 4.2/4.3.

An *embedding cluster* is the set of embeddings sharing one pivot (the
data vertex matched to the root query vertex).  Clusters are the parallel
work units.  Because real graphs are power-law, a few clusters can
dominate the total work; the refinement cardinality of the pair
``(u_s, v_s)`` estimates each cluster's workload ahead of time, and
clusters whose cardinality exceeds ``beta x cardinality_exp``
(``cardinality_exp`` = expected workload per worker) are flagged
**ExtremeClusters** and recursively split along the next query vertex of
the matching order (Algorithm 3).

A work unit is represented by its partial-embedding *prefix* along the
matching order — a bare pivot for an intact cluster, longer for
sub-clusters.  Enumerating every work unit's embeddings yields exactly
the full embedding set, partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..kernels import intersect
from .automorphism import SymmetryBreaker
from .store import CompactCECI

__all__ = ["WorkUnit", "clusters_of", "decompose_extreme_clusters"]


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable unit: a matching-order prefix plus its estimated
    workload (cardinality share)."""

    prefix: Tuple[int, ...]
    workload: float

    @property
    def pivot(self) -> int:
        """The cluster pivot this unit descends from."""
        return self.prefix[0]

    @property
    def depth(self) -> int:
        """Prefix length (1 = intact cluster)."""
        return len(self.prefix)


def clusters_of(ceci: CompactCECI) -> List[WorkUnit]:
    """The intact embedding clusters: one unit per pivot, workload =
    ``cardinality(u_s, v_s)``, sorted largest first (the paper sorts the
    work pool by cardinality so big clusters start early)."""
    units = [
        WorkUnit((pivot,), float(workload))
        for pivot, workload in zip(
            ceci.pivots.tolist(), ceci.cluster_cardinalities().tolist()
        )
    ]
    units.sort(key=lambda unit: (-unit.workload, unit.prefix))
    return units


def decompose_extreme_clusters(
    ceci: CompactCECI,
    worker_count: int,
    beta: float = 0.2,
    symmetry: Optional[SymmetryBreaker] = None,
) -> List[WorkUnit]:
    """Algorithm 3: split every ExtremeCluster until all units fall under
    ``beta x cardinality_exp``.

    ``symmetry`` lets the splitter skip prefixes that the ordering rules
    would reject anyway, so no dead units are scheduled.  Units are
    returned sorted by workload, largest first.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    symmetry = symmetry or SymmetryBreaker(ceci.tree.query, enabled=False)
    cardinalities = ceci.cluster_cardinalities().tolist()
    total = float(sum(cardinalities))
    if total == 0.0:
        return []
    threshold = beta * (total / worker_count)
    units: List[WorkUnit] = []
    for pivot, workload in zip(ceci.pivots.tolist(), cardinalities):
        workload = float(workload)
        if workload <= 0.0:
            continue
        if workload <= threshold:
            units.append(WorkUnit((pivot,), workload))
        else:
            _split(ceci, (pivot,), workload, threshold, symmetry, units)
    units.sort(key=lambda unit: (-unit.workload, unit.prefix))
    return units


def _split(
    ceci: CompactCECI,
    prefix: Tuple[int, ...],
    workload: float,
    threshold: float,
    symmetry: SymmetryBreaker,
    units: List[WorkUnit],
) -> None:
    """Recursive body of Algorithm 3 (``prepare_work``)."""
    tree = ceci.tree
    order = tree.order
    depth = len(prefix)
    if depth == len(order):
        # The prefix already is a complete embedding; emit as-is.
        units.append(WorkUnit(prefix, workload))
        return
    u_next = order[depth]
    matching = _matching_nodes(ceci, u_next, prefix)
    mapping = [-1] * tree.query.num_vertices
    for d, v in enumerate(prefix):
        mapping[order[d]] = v
    used = set(prefix)
    viable: List[Tuple[int, float]] = []
    total = 0.0
    for v in matching:
        v = int(v)
        if v in used or not symmetry.admissible(u_next, v, mapping):
            continue
        share = float(ceci.cardinality_of(u_next, v))
        if share > 0.0:
            viable.append((v, share))
            total += share
    if total == 0.0:
        return  # dead sub-cluster: no embeddings below this prefix
    for v, share in viable:
        my_work = share / total * workload
        child_prefix = prefix + (v,)
        if my_work <= threshold:
            units.append(WorkUnit(child_prefix, my_work))
        else:
            _split(ceci, child_prefix, my_work, threshold, symmetry, units)


def _matching_nodes(
    ceci: CompactCECI, u: int, prefix: Sequence[int]
) -> Sequence[int]:
    """TE ∩ NTE matching nodes for ``u`` under a matching-order prefix —
    the same lists enumeration would intersect (Algorithm 3 line 13-15).
    Emptiness is length-based because store slices are numpy arrays."""
    tree = ceci.tree
    order = tree.order
    position = {order[d]: d for d in range(len(prefix))}
    v_p = prefix[position[tree.parent[u]]]
    base = ceci.te_values(u, v_p)
    if len(base) == 0:
        return []
    lists = [base]
    for u_n in tree.nte_parents[u]:
        other = ceci.nte_values(u, u_n, prefix[position[u_n]])
        if len(other) == 0:
            return []
        lists.append(other)
    return intersect(lists) if len(lists) > 1 else base
