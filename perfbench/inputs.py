"""Seeded input generation for the benchmark.

Everything here is plain Python data (vertex counts, edge lists, label
lists): the program under test receives only these inputs and never
generates its own.  Data graphs, query pools and the request order
within a pass are fixed per scale, so the committed expected counts
apply to every run; ``--seed`` picks where in that cyclic order a run
starts.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

Edge = Tuple[int, int]


class GraphSpec(NamedTuple):
    """A graph as the program receives it: ``Graph(n, edges, labels)``."""

    n: int
    edges: Tuple[Edge, ...]
    labels: Optional[Tuple[frozenset, ...]]  # None = unlabeled

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.n};".encode())
        for s, d in self.edges:
            h.update(f"{s},{d};".encode())
        for labels in self.labels or ():
            h.update((",".join(map(str, sorted(labels))) + ";").encode())
        return h.hexdigest()[:16]


class Query(NamedTuple):
    name: str
    graph: GraphSpec


# ----------------------------------------------------------------------
# Sizes.  "full" is what the benchmark measures; "tiny" is for the
# self-test only.
# ----------------------------------------------------------------------
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "labeled_n": 20000, "labeled_m": 160000, "build_pool": 96,
        "mix_pool": 48, "mix_cache": 16, "power_n": 1800, "power_m": 8,
    },
    "tiny": {
        "labeled_n": 1500, "labeled_m": 12000, "build_pool": 8,
        "mix_pool": 6, "mix_cache": 3, "power_n": 200, "power_m": 4,
    },
}

NUM_LABELS = 16
MAX_LABELS_PER_VERTEX = 3
LABELED_GRAPH_SEED = 7
POWER_GRAPH_SEED = 104
POOL_SEED = 0
#: Queries with more embeddings than this are screened out of the
#: ``lib-build`` pool, so index build, not enumeration, dominates.
BUILD_EMBEDDING_CAP = 200
QUERY_SIZES = (6, 10)


def labeled_graph(scale: str) -> GraphSpec:
    """Uniform random graph with 1-3 labels per vertex drawn from 16 —
    the ``dense_labeled`` family at ~20k vertices and 160k edges."""
    size = SCALES[scale]
    n, m = size["labeled_n"], size["labeled_m"]
    rng = random.Random(LABELED_GRAPH_SEED)
    ints = list(range(n))  # one int object per vertex, shared by its edges
    chosen = set()
    while len(chosen) < m:
        s, d = ints[rng.randrange(n)], ints[rng.randrange(n)]
        if s != d:
            chosen.add((s, d) if s < d else (d, s))
    labels = tuple(
        frozenset(
            rng.randrange(NUM_LABELS)
            for _ in range(rng.randint(1, MAX_LABELS_PER_VERTEX))
        )
        for _ in range(n)
    )
    return GraphSpec(n, tuple(sorted(chosen)), labels)


def power_graph(scale: str) -> GraphSpec:
    """Unlabeled preferential-attachment graph (the LiveJournal analog):
    each new vertex attaches to between 1 and ``m`` existing vertices,
    the count drawn with weight ``1/k`` and each target picked with
    probability proportional to its degree."""
    size = SCALES[scale]
    n, m = size["power_n"], size["power_m"]
    rng = random.Random(POWER_GRAPH_SEED)
    counts = list(range(1, m + 1))
    weights = [1.0 / k for k in counts]
    edges: List[Edge] = []
    ends: List[int] = []  # each vertex once per incident edge
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            edges.append((i, j))
            ends += (i, j)
    for v in range(m + 1, n):
        want = rng.choices(counts, weights)[0]
        targets = set()
        while len(targets) < want:
            targets.add(rng.choice(ends))
        for t in sorted(targets):
            edges.append((t, v))
            ends += (t, v)
    return GraphSpec(n, tuple(edges), None)


#: The Figure 6 query graphs (all vertices carry one label).
FIGURE6 = {
    "QG1": (3, ((0, 1), (1, 2), (0, 2))),
    "QG2": (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "QG3": (4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),
    "QG4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "QG5": (5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4))),
}


def figure6(names: Sequence[str]) -> List[Query]:
    return [
        Query(name, GraphSpec(FIGURE6[name][0], FIGURE6[name][1], None))
        for name in names
    ]


def adjacency(graph: GraphSpec) -> List[set]:
    adj: List[set] = [set() for _ in range(graph.n)]
    for s, d in graph.edges:
        adj[s].add(d)
        adj[d].add(s)
    return adj


def induced_candidates(graph: GraphSpec, adj: List[set]) -> Iterator[GraphSpec]:
    """Endless seeded stream of connected induced subgraphs of ``graph``
    with sizes cycling through ``QUERY_SIZES``: grow a vertex set from
    a random start by adding random frontier vertices, then keep every
    data edge inside the set, so the identity map is an embedding."""
    rng = random.Random(POOL_SEED)
    low, high = QUERY_SIZES
    drawn = 0
    while True:
        size = low + drawn % (high - low + 1)
        drawn += 1
        start = rng.randrange(graph.n)
        chosen = [start]
        member = {start}
        frontier = sorted(adj[start])
        while len(chosen) < size and frontier:
            v = frontier.pop(rng.randrange(len(frontier)))
            if v in member:
                continue
            member.add(v)
            chosen.append(v)
            frontier.extend(sorted(w for w in adj[v] if w not in member))
        if len(chosen) < size:
            continue
        chosen.sort()
        index = {v: i for i, v in enumerate(chosen)}
        edges = tuple(sorted(
            (index[v], index[w])
            for v in chosen for w in adj[v]
            if w in index and v < w
        ))
        yield GraphSpec(size, edges, tuple(graph.labels[v] for v in chosen))


def build_pool(
    graph: GraphSpec, adj: List[set], size: int, screen: Sequence[int]
) -> List[Query]:
    """The first ``size`` candidates whose committed embedding count
    (``screen[i]`` for the i-th candidate, -1 above the cap) is at most
    ``BUILD_EMBEDDING_CAP``."""
    pool: List[Query] = []
    for i, candidate in enumerate(induced_candidates(graph, adj)):
        if len(pool) == size:
            break
        if i >= len(screen):
            raise ValueError(
                "expected-counts file lists too few screened candidates; "
                "regenerate it with perfbench/regen.py"
            )
        if 0 <= screen[i] <= BUILD_EMBEDDING_CAP:
            pool.append(Query(f"q{len(pool):03d}", candidate))
    return pool


# ----------------------------------------------------------------------
# Request sequences
# ----------------------------------------------------------------------
class Request(NamedTuple):
    query: Query
    limit: Optional[int]


def rotated(requests: Sequence[Request], seed: int) -> Iterator[List[Request]]:
    """Endless passes repeating one fixed request order, starting at a
    seeded offset.  Every pass then holds the same work in the same
    order, so neither the overlap of concurrent requests nor a cache's
    hits and evictions depend on the seed."""
    start = random.Random(seed).randrange(len(requests))
    order = list(requests[start:]) + list(requests[:start])
    while True:
        yield order


#: Every n-th ``svc-mix`` request carries ``limit=1`` (the solo lane).
MIX_LIMIT_EVERY = 10
MIX_ZIPF_EXPONENT = 1.0


def zipf_sequence(pool: Sequence[Query], length: int) -> List[Request]:
    """``length`` requests holding the Zipf frequencies exactly (rank
    ``r`` has weight ``1/r``; pool order is rank order; counts rounded
    by largest remainder) in one fixed shuffled order; every
    ``MIX_LIMIT_EVERY``-th request carries ``limit=1``."""
    weights = [1.0 / (r + 1) ** MIX_ZIPF_EXPONENT for r in range(len(pool))]
    exact = [length * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(pool)), key=lambda r: exact[r] - counts[r], reverse=True
    )
    for r in by_remainder[: length - sum(counts)]:
        counts[r] += 1
    multiset = [q for q, c in zip(pool, counts) for _ in range(c)]
    random.Random(POOL_SEED).shuffle(multiset)
    return [
        Request(q, 1 if (i + 1) % MIX_LIMIT_EVERY == 0 else None)
        for i, q in enumerate(multiset)
    ]
