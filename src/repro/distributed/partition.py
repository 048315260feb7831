"""Pivot distribution across machines (Section 5).

Cardinality is not yet available when pivots are distributed (it comes
out of refinement, which runs per machine), so the paper uses a
light-weight workload approximation:

* **in-memory** mode — ``workload(v) = deg(v) + Σ_{w∈N(v)} deg(w)``;
* **shared** mode — ``workload(v) = deg(v)`` (neighbor info would cost
  IO);
* both scaled by ``(|V| - v) / |V|`` to account for the imbalance the
  automorphism-breaking order inflicts (lower-id pivots do more work);
* **Jaccard co-location** (in-memory only): among the largest
  ``similarity_top`` clusters, pairs with
  ``J(v_i, v_j) = |N∩N| / |N∪N| >= 0.5`` are pinned to the same machine
  unless that machine would exceed the maximum allowed workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..graph import Graph

__all__ = ["lightweight_workload", "jaccard_similarity", "distribute_pivots"]

#: Paper threshold: clusters at least this similar share a machine.
JACCARD_THRESHOLD = 0.5

#: Paper cap: similarity is only computed among the largest 1,000
#: clusters to bound the quadratic cost.
DEFAULT_SIMILARITY_TOP = 1000

#: "provided that the total workload does not exceed the maximum allowed
#: workload": cap = this factor times the average machine load.
MAX_LOAD_FACTOR = 1.5


def lightweight_workload(
    data: Graph, pivot: int, mode: str = "memory"
) -> float:
    """The pre-CECI workload estimate for one pivot."""
    degree = data.degree(pivot)
    if mode == "memory":
        base = degree + sum(data.degree(w) for w in data.neighbors(pivot))
    elif mode == "shared":
        base = degree
    else:
        raise ValueError(f"unknown storage mode {mode!r}")
    n = data.num_vertices
    return base * (n - pivot) / n


def jaccard_similarity(data: Graph, v_i: int, v_j: int) -> float:
    """``J(v_i, v_j)`` over neighbor sets."""
    a = data.neighbor_set(v_i)
    b = data.neighbor_set(v_j)
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def distribute_pivots(
    data: Graph,
    pivots: Sequence[int],
    num_machines: int,
    mode: str = "memory",
    similarity_top: int = DEFAULT_SIMILARITY_TOP,
) -> List[List[int]]:
    """Assign pivots to machines; returns one pivot list per machine.

    Greedy longest-processing-time assignment under the lightweight
    workload, with Jaccard groups (in-memory mode only) kept together
    while the target machine stays under ``MAX_LOAD_FACTOR`` x average.

    Degenerate shapes keep their obvious contracts — the simulated
    distributed runtime feeds this per run, so they all actually occur
    (the service plans by refined cardinality instead): an
    empty pivot set yields ``num_machines`` empty lists; fewer pivots
    than machines leaves the surplus machines empty (callers skip
    empty partitions rather than dispatch no-op tasks); all-zero
    workloads (edgeless graphs) still place every pivot exactly once
    via the greedy least-loaded rule, which then degenerates to
    round-robin.
    """
    if num_machines < 1:
        raise ValueError("num_machines must be >= 1")
    if not pivots:
        return [[] for _ in range(num_machines)]
    workloads = {
        v: lightweight_workload(data, v, mode) for v in pivots
    }
    groups = _similarity_groups(data, pivots, workloads, mode, similarity_top)

    total = sum(workloads.values()) or 1.0
    max_load = MAX_LOAD_FACTOR * total / num_machines
    machine_pivots: List[List[int]] = [[] for _ in range(num_machines)]
    machine_load = [0.0] * num_machines

    group_items = sorted(
        groups,
        key=lambda group: -sum(workloads[v] for v in group),
    )
    for group in group_items:
        group_load = sum(workloads[v] for v in group)
        target = min(range(num_machines), key=lambda m: machine_load[m])
        if len(group) > 1 and machine_load[target] + group_load > max_load:
            # Splitting beats overload: place members individually.
            for v in sorted(group, key=lambda v: -workloads[v]):
                target = min(range(num_machines), key=lambda m: machine_load[m])
                machine_pivots[target].append(v)
                machine_load[target] += workloads[v]
        else:
            machine_pivots[target].extend(group)
            machine_load[target] += group_load
    return [sorted(ps) for ps in machine_pivots]


def _similarity_groups(
    data: Graph,
    pivots: Sequence[int],
    workloads: Dict[int, float],
    mode: str,
    similarity_top: int,
) -> List[List[int]]:
    """Union-find grouping of Jaccard-similar large clusters.  In shared
    mode each pivot is its own group (no neighbor info without IO)."""
    if mode != "memory" or similarity_top <= 0:
        return [[v] for v in pivots]
    ranked = sorted(pivots, key=lambda v: -workloads[v])[:similarity_top]
    parent = {v: v for v in pivots}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, v_i in enumerate(ranked):
        for v_j in ranked[i + 1 :]:
            if jaccard_similarity(data, v_i, v_j) >= JACCARD_THRESHOLD:
                parent[find(v_j)] = find(v_i)
    grouped: Dict[int, List[int]] = {}
    for v in pivots:
        grouped.setdefault(find(v), []).append(v)
    return list(grouped.values())
