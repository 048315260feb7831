"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

from typing import List, Set, Tuple

import pytest

from repro.graph import Graph, erdos_renyi, generate_query, inject_labels


def brute_force_embeddings(query: Graph, data: Graph) -> Set[Tuple[int, ...]]:
    """Independent reference: all injective, edge- and label-preserving
    mappings, found by naive backtracking over query vertices 0..n-1."""
    results: Set[Tuple[int, ...]] = set()
    qn = query.num_vertices

    def rec(depth: int, mapping: List[int], used: Set[int]) -> None:
        if depth == qn:
            results.add(tuple(mapping))
            return
        for v in data.vertices():
            if v in used:
                continue
            if not (query.labels_of(depth) <= data.labels_of(v)):
                continue
            ok = True
            for s, d in query.edges:
                other = -1
                if s == depth and d < depth:
                    other = d
                elif d == depth and s < depth:
                    other = s
                if other >= 0 and not data.has_edge(v, mapping[other]):
                    ok = False
                    break
            if ok:
                mapping.append(v)
                used.add(v)
                rec(depth + 1, mapping, used)
                mapping.pop()
                used.discard(v)

    rec(0, [], set())
    return results


def refined_builder(query: Graph, data: Graph):
    """A filtered + refined dict builder (:class:`repro.core.ceci.CECI`)
    that was never frozen — what :meth:`CECI.compact` packs."""
    from repro.core import QueryTree, build_ceci, refine_ceci, select_root

    root, pivots = select_root(query, data)
    return refine_ceci(build_ceci(QueryTree(query, root), data, pivots))


def random_labeled_instance(seed: int, max_labels: int = 3):
    """A reproducible random (query, data) pair, or None when the random
    graph is too fragmented to extract a connected query."""
    import random

    rng = random.Random(seed)
    n = rng.randint(6, 14)
    e = rng.randint(n, min(n * (n - 1) // 2, 2 * n))
    data = erdos_renyi(n, e, seed=seed)
    data = inject_labels(data, rng.randint(1, max_labels), seed=seed)
    try:
        query = generate_query(data, rng.randint(2, 5), seed=seed * 3 + 1)
    except ValueError:
        return None
    return query, data


@pytest.fixture
def triangle() -> Graph:
    """The 3-clique with uniform labels."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def paper_query() -> Graph:
    """The 5-vertex query graph of Figure 1: labels A,B,C,D,E; edges
    (u1,u2),(u1,u3),(u2,u3),(u2,u4),(u3,u4),(u3,u5)."""
    return Graph(
        5,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)],
        labels=["A", "B", "C", "D", "E"],
    )


@pytest.fixture
def paper_data() -> Graph:
    """A data graph realizing Figure 1's two embeddings
    (v1,v3,v4,v11,v12) and (v1,v5,v6,v13,v14) plus false candidates."""
    # vertex ids 0..15 play v0..v15 (v0 is a filler with label Z)
    labels = {
        0: "Z",
        1: "A", 2: "A",
        3: "B", 5: "B", 7: "B", 9: "B",
        4: "C", 6: "C", 8: "C", 10: "C",
        11: "D", 13: "D", 15: "D",
        12: "E", 14: "E",
    }
    edges = [
        # pivot v1 wiring
        (1, 3), (1, 5), (1, 7),       # v1 - candidates of u2
        (1, 4), (1, 6),               # v1 - candidates of u3
        (3, 4), (5, 4), (5, 6), (7, 6),  # u2-u3 non-tree edge candidates
        (3, 11), (5, 13), (7, 15),    # u2 - u4 tree edge
        (4, 11), (6, 13),             # u3 - u4 non-tree edge
        (4, 12), (6, 14),             # u3 - u5 tree edge
        # pivot v2 wiring: v9 passes the u2 filters (A, C, D neighbors);
        # v8 passes DF for u3 (degree 4) but has no E neighbor -> NLCF
        # kills it, emptying u3's entry for v2 and cascading v2 away.
        (2, 7), (2, 9), (2, 8), (9, 8), (9, 15), (8, 15), (8, 11),
        # v15 needs a C neighbor to survive the u4 filters; it then dies
        # in refinement (not adjacent to any NTE candidate of u4), which
        # in turn kills v7 for u2 -- the Figure 3(c) green removals.
        (0, 15),
        # Satellite community: gives u3 five initial candidates (paper
        # cost 1.25) without touching the pivots' frontiers, so the root
        # cost ranking matches Section 2.2 (u1 = 1 is the argmin).
        (10, 16), (10, 17), (10, 18), (10, 19),
        (20, 16), (20, 17), (20, 18), (20, 19),
        (21, 16), (21, 17), (21, 18), (21, 19),
    ]
    labels.update({16: "A", 17: "B", 18: "D", 19: "E", 20: "C", 21: "C"})
    return Graph(22, edges, labels=labels)
