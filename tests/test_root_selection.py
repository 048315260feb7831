"""The array-native candidate scan against its per-vertex definition.

``initial_candidates`` narrows the rarest query label's posting list
with one mask per filter over the data graph's scan tables.  Here it is
checked, list for list and counter for counter, against the LF/DF/NLCF
definition of Section 2.2 written out one data vertex at a time, and
``neighbor_label_counts`` against a plain count over the neighbours.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.root_selection import initial_candidates
from repro.core.stats import MatchStats
from repro.graph import Graph

#: A label no data graph below carries.
MISSING = 9999
#: Labels shared by many vertices of a wide-alphabet graph.
SHARED = (1000, 1001, 1002)


def naive_candidates(
    query: Graph, data: Graph, u: int, use_degree: bool, use_nlc: bool
) -> Tuple[List[int], Tuple[int, int, int, int]]:
    """Candidates of ``u`` and the four filter counters: scan the
    vertices carrying ``u``'s rarest label and drop each at the first
    filter it fails."""
    wanted = query.labels_of(u)
    postings = [
        [v for v in data.vertices() if label in data.labels_of(v)]
        for label in wanted
    ]
    needed = _label_counts(query, u)
    out: List[int] = []
    scanned = by_label = by_degree = by_nlc = 0
    for v in min(postings, key=len):
        scanned += 1
        if not wanted <= data.labels_of(v):
            by_label += 1
        elif use_degree and data.degree(v) < query.degree(u):
            by_degree += 1
        elif use_nlc and any(
            _label_counts(data, v)[label] < count
            for label, count in needed.items()
        ):
            by_nlc += 1
        else:
            out.append(v)
    return out, (scanned, by_label, by_degree, by_nlc)


def _label_counts(graph: Graph, v: int) -> Counter:
    return Counter(
        label for w in graph.neighbors(v) for label in graph.labels_of(w)
    )


def _subsets(items, max_size=None):
    if not items:
        return st.just([])
    return st.lists(st.sampled_from(items), unique=True, max_size=max_size)


@st.composite
def instances(draw):
    """A data graph (possibly with isolated vertices) in one of three
    label regimes and a small query whose labels may miss the data."""
    regime = draw(st.sampled_from(["uniform", "few", "wide"]))
    n = draw(st.integers(13 if regime == "wide" else 1, 18))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(_subsets(possible, max_size=40))
    if regime == "uniform":
        labels = None
        alphabet = [0]
    elif regime == "few":
        labels = [
            draw(st.frozensets(st.integers(0, 3), min_size=1, max_size=3))
            for _ in range(n)
        ]
        alphabet = [0, 1, 2, 3]
    else:
        # Five private labels per vertex: more than 64 labels in all.
        labels = [
            frozenset(range(8 * v, 8 * v + 5))
            | draw(st.frozensets(st.sampled_from(SHARED), max_size=2))
            for v in range(n)
        ]
        alphabet = list(SHARED) + [8 * v for v in range(n)]
    data = Graph(n, edges, labels)

    k = draw(st.integers(1, 5))
    possible = [(i, j) for i in range(k) for j in range(i + 1, k)]
    query_edges = draw(_subsets(possible))
    query_labels = [
        draw(
            st.frozensets(
                st.sampled_from(alphabet + [MISSING]), min_size=1, max_size=2
            )
        )
        for _ in range(k)
    ]
    if regime == "uniform" and draw(st.booleans()):
        query_labels = None
    return Graph(k, query_edges, query_labels), data


@settings(max_examples=200, deadline=None)
@given(instances(), st.booleans(), st.booleans())
def test_scan_equals_the_per_vertex_definition(instance, use_degree, use_nlc):
    query, data = instance
    for u in query.vertices():
        stats = MatchStats()
        got = initial_candidates(
            query, data, u, stats,
            use_degree_filter=use_degree, use_nlc_filter=use_nlc,
        )
        want, counters = naive_candidates(query, data, u, use_degree, use_nlc)
        assert got == want
        assert (
            stats.candidates_initial,
            stats.removed_by_label,
            stats.removed_by_degree,
            stats.removed_by_nlc,
        ) == counters


@settings(max_examples=100, deadline=None)
@given(instances())
def test_neighbor_label_counts_equal_a_count_over_the_neighbours(instance):
    for graph in instance:
        for v in graph.vertices():
            assert graph.neighbor_label_counts(v) == dict(
                _label_counts(graph, v)
            )


def test_wide_alphabet_prunes_by_every_label():
    """More than 64 labels, and a query vertex whose second label and
    neighbourhood each prune a vertex of the rarest posting list."""
    n = 80
    labels: List[frozenset] = [frozenset({v, 500}) for v in range(n)]
    labels[1] = frozenset({1, 500, 501})
    labels[3] = frozenset({3, 500, 501})
    labels[5] = frozenset({5, 501})
    data = Graph(n, [(1, 2), (3, 4), (5, 2), (3, 6)], labels)
    query = Graph(2, [(0, 1)], [{500, 501}, {2}])
    stats = MatchStats()
    assert initial_candidates(query, data, 0, stats) == [1]
    assert (
        stats.candidates_initial,
        stats.removed_by_label,
        stats.removed_by_degree,
        stats.removed_by_nlc,
    ) == (3, 1, 0, 1)
    assert len(data.scan_tables().rows) == n + 2
