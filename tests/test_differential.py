"""Differential correctness harness.

Seeded random (data, query) pairs are matched by every engine — CECI
on the batch engine, CECI with edge verification, CFLMatch, TurboIso,
VF2 and Ullmann — and
the embedding *sets* must be identical (symmetry breaking disabled so
the full sets compare).

On a mismatch the harness shrinks the query by dropping edges (keeping
it connected) while the disagreement persists, then fails with the
minimal reproducer — a failing seed should be debuggable by eye, not by
re-running a 16-vertex instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

import pytest

from conftest import brute_force_embeddings
from repro.baselines.cflmatch import cflmatch_match
from repro.baselines.turboiso import turboiso_match
from repro.baselines.ullmann import ullmann_match
from repro.baselines.vf2 import vf2_match
from repro.core.matcher import CECIMatcher
from repro.graph import Graph, erdos_renyi, generate_query, inject_labels
from repro.graph.generators import power_law

Engine = Callable[[Graph, Graph], Set[Tuple[int, ...]]]


def _ceci(use_intersection: bool = True, **extra) -> Engine:
    def run(query: Graph, data: Graph) -> Set[Tuple[int, ...]]:
        matcher = CECIMatcher(
            query,
            data,
            break_automorphisms=False,
            use_intersection=use_intersection,
            **extra,
        )
        return set(matcher.match())

    return run


ENGINES: Dict[str, Engine] = {
    # CECI on the batch engine, and the edge-verification recursion
    # (the batch engine's reference).
    "ceci-auto": _ceci(),
    "ceci-edge-verify": _ceci(use_intersection=False),
    "cfl-edge-verify": lambda q, d: set(
        cflmatch_match(q, d, break_automorphisms=False)
    ),
    "turboiso-edge-verify": lambda q, d: set(
        turboiso_match(q, d, break_automorphisms=False)
    ),
    "vf2": lambda q, d: set(vf2_match(q, d, break_automorphisms=False)),
    "ullmann": lambda q, d: set(ullmann_match(q, d, break_automorphisms=False)),
    # The batch engine under every index-shape perturbation: alternate
    # matching orders and weakened construction pipelines change the
    # frontier layout and candidate sets it joins over (DESIGN.md §12).
    "ceci-batch-edge-ranked": _ceci(order_strategy="edge_ranked"),
    "ceci-batch-path-ranked": _ceci(order_strategy="path_ranked"),
    "ceci-batch-norefine": _ceci(use_refinement=False),
    "ceci-batch-nocascade": _ceci(use_cascade=False),
}


def make_instance(seed: int) -> Optional[Tuple[Graph, Graph]]:
    """A reproducible random (query, data) pair, mixing generator
    families, sizes and label counts across the seed space."""
    import random

    rng = random.Random(seed * 7919 + 13)
    n = rng.randint(8, 16)
    if seed % 3 == 0:
        data = power_law(n, rng.randint(2, 4), seed=seed)
    else:
        e = rng.randint(n, min(n * (n - 1) // 2, 3 * n))
        data = erdos_renyi(n, e, seed=seed)
    data = inject_labels(data, rng.randint(1, 3), seed=seed)
    try:
        query = generate_query(data, rng.randint(3, 6), seed=seed * 31 + 7)
    except ValueError:
        return None  # data graph too fragmented for a connected query
    return query, data


def _connected_after_drop(query: Graph, edge_index: int) -> Optional[Graph]:
    """The query with one edge removed, or None if that disconnects it
    (isolated-vertex queries are out of scope for every engine here)."""
    edges = [e for i, e in enumerate(query.edges) if i != edge_index]
    labels = {u: query.labels_of(u) for u in query.vertices()}
    shrunk = Graph(query.num_vertices, edges, labels=labels)
    return shrunk if shrunk.is_connected() else None


def _disagreeing(query: Graph, data: Graph) -> List[str]:
    """Engine names whose embedding set differs from brute force."""
    expected = brute_force_embeddings(query, data)
    return [
        name
        for name, engine in ENGINES.items()
        if engine(query, data) != expected
    ]


def shrink_query(query: Graph, data: Graph) -> Graph:
    """Greedy edge-dropping shrink: keep removing query edges (staying
    connected) while at least one engine still disagrees with brute
    force. Returns the minimal failing query."""
    current = query
    progress = True
    while progress:
        progress = False
        for i in range(len(current.edges)):
            candidate = _connected_after_drop(current, i)
            if candidate is None:
                continue
            if _disagreeing(candidate, data):
                current = candidate
                progress = True
                break
    return current


@pytest.mark.parametrize("seed", range(60))
def test_engines_agree(seed):
    instance = make_instance(seed)
    if instance is None:
        pytest.skip("seed yields no connected query")
    query, data = instance
    expected = brute_force_embeddings(query, data)
    failures = {
        name: result
        for name, engine in ENGINES.items()
        if (result := engine(query, data)) != expected
    }
    if not failures:
        assert expected, (
            "DFS-extracted queries guarantee at least one embedding "
            "(Section 6.2), so an empty result set means the reference "
            "itself is broken"
        )
        return
    minimal = shrink_query(query, data)
    still = _disagreeing(minimal, data)
    pytest.fail(
        f"seed {seed}: engines {sorted(failures)} disagree with brute "
        f"force.\nMinimal failing query after shrinking "
        f"({len(minimal.edges)} edges, engines {still}):\n"
        f"  vertices={minimal.num_vertices}\n"
        f"  edges={minimal.edges}\n"
        f"  labels={[minimal.labels_of(u) for u in minimal.vertices()]}\n"
        f"  data: |V|={data.num_vertices} edges={data.edges}\n"
        f"  data labels={[data.labels_of(v) for v in data.vertices()]}"
    )


def test_shrinker_finds_minimal_reproducer():
    """The shrink loop itself must work: give it a deliberately broken
    'engine' and check it reduces a triangle-plus-tail query to the
    smallest query that still triggers the disagreement."""
    data = inject_labels(erdos_renyi(10, 20, seed=5), 1, seed=5)
    query = generate_query(data, 4, seed=11)
    lying_name = "ceci-auto"
    real = ENGINES[lying_name]
    ENGINES[lying_name] = lambda q, d: set()  # always wrong when matches exist
    try:
        minimal = shrink_query(query, data)
    finally:
        ENGINES[lying_name] = real
    # Connected 4-vertex queries have >= 3 edges; the shrinker must reach
    # a spanning tree (the minimum), since the fake engine fails on all.
    assert len(minimal.edges) == minimal.num_vertices - 1
    assert minimal.is_connected()

