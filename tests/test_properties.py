"""Property-based tests (hypothesis) for the core invariants:

* CECI completeness — the index never loses a true embedding (checked
  against independent brute force);
* intersection primitive == set semantics;
* cardinality is a true upper bound per cluster;
* work-unit decomposition partitions the embedding set;
* automorphism breaking lists each vertex set exactly once;
* graph construction invariants (symmetry, degree sums);
* CSR round trip is the identity.
"""

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro import CECIMatcher, Graph, match
from repro.graph import from_csr, to_csr
from repro.kernels import intersect

from conftest import brute_force_embeddings


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw, min_vertices=2, max_vertices=9, labels=2):
    n = draw(st.integers(min_vertices, max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    vertex_labels = draw(
        st.lists(
            st.integers(0, labels - 1), min_size=n, max_size=n
        )
    )
    return Graph(n, edges, vertex_labels)


@st.composite
def connected_queries(draw, max_vertices=4, labels=2):
    n = draw(st.integers(1, max_vertices))
    # random spanning tree guarantees connectivity
    edges: List[Tuple[int, int]] = []
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.append((parent, v))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    ) if possible else []
    vertex_labels = draw(
        st.lists(st.integers(0, labels - 1), min_size=n, max_size=n)
    )
    return Graph(n, list(set(edges) | set(extra)), vertex_labels)


@settings(max_examples=60, deadline=None)
@given(query=connected_queries(), data=small_graphs())
def test_ceci_equals_brute_force(query, data):
    expected = brute_force_embeddings(query, data)
    got = set(match(query, data, break_automorphisms=False))
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(query=connected_queries(), data=small_graphs())
def test_completeness_survives_refinement_removals(query, data):
    """Every true embedding's (u, v) pairs survive in the refined index
    (Section 3.5's completeness guarantee)."""
    matcher = CECIMatcher(query, data, break_automorphisms=False)
    ceci = matcher.build()
    for embedding in brute_force_embeddings(query, data):
        for u in query.vertices():
            # Candidate must not have been refined away: it still has a
            # positive refinement cardinality in the (frozen) store.
            assert ceci.cardinality_of(u, embedding[u]) >= 1


@settings(max_examples=40, deadline=None)
@given(query=connected_queries(), data=small_graphs())
def test_cardinality_upper_bounds_cluster_size(query, data):
    matcher = CECIMatcher(query, data, break_automorphisms=False)
    ceci = matcher.build()
    per_pivot: dict = {}
    for embedding in matcher.match():
        pivot = embedding[matcher.tree.root]
        per_pivot[pivot] = per_pivot.get(pivot, 0) + 1
    for pivot, count in per_pivot.items():
        assert ceci.cluster_cardinality(pivot) >= count


@settings(max_examples=30, deadline=None)
@given(
    query=connected_queries(),
    data=small_graphs(min_vertices=4),
    workers=st.integers(1, 4),
    beta=st.sampled_from([1.0, 0.5, 0.2]),
)
def test_work_units_partition_embeddings(query, data, workers, beta):
    matcher = CECIMatcher(query, data, break_automorphisms=False)
    sequential = sorted(matcher.match())
    units = matcher.work_units(worker_count=workers, beta=beta)
    enumerator = matcher.enumerator()
    from_units: list = []
    for unit in units:
        from_units.extend(enumerator.collect_from_unit(unit.prefix))
    assert sorted(from_units) == sequential


@settings(max_examples=50, deadline=None)
@given(query=connected_queries(labels=1), data=small_graphs(labels=1))
def test_automorphism_breaking_lists_subgraphs_once(query, data):
    """With breaking on, each image *subgraph* (edge-set image) appears
    exactly once; the set of reachable subgraphs is unchanged."""

    def image(embedding):
        return frozenset(
            frozenset((embedding[s], embedding[d])) for s, d in query.edges
        ) or frozenset(embedding)  # single-vertex query: vertex image

    broken = match(query, data)
    broken_images = [image(e) for e in broken]
    assert len(set(broken_images)) == len(broken_images)
    full = match(query, data, break_automorphisms=False)
    assert {image(e) for e in full} == set(broken_images)


@settings(max_examples=100, deadline=None)
@given(
    lists=st.lists(
        st.lists(st.integers(0, 30), max_size=15).map(
            lambda xs: sorted(set(xs))
        ),
        min_size=1,
        max_size=4,
    )
)
def test_intersect_sorted_equals_set_semantics(lists):
    expected = set(lists[0]).intersection(*lists[1:])
    assert intersect(lists).tolist() == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(data=small_graphs(max_vertices=12, labels=3))
def test_graph_invariants(data):
    # adjacency symmetric, degrees consistent, edge count consistent
    degree_sum = sum(data.degree(v) for v in data.vertices())
    assert degree_sum == 2 * data.num_edges
    for v in data.vertices():
        for w in data.neighbors(v):
            assert data.has_edge(w, v)


@settings(max_examples=40, deadline=None)
@given(data=small_graphs(max_vertices=12, labels=3))
def test_csr_round_trip_is_identity(data):
    assert from_csr(to_csr(data)) == data


@settings(max_examples=40, deadline=None)
@given(query=connected_queries(), data=small_graphs())
def test_limit_is_prefix_of_full_result(query, data):
    matcher = CECIMatcher(query, data, break_automorphisms=False)
    full = matcher.match()
    for limit in (0, 1, 3):
        fresh = CECIMatcher(query, data, break_automorphisms=False)
        assert fresh.match(limit=limit) == full[: limit]
