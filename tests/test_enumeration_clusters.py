"""Tests for set-intersection enumeration, work units, and
ExtremeCluster decomposition."""

import pytest

from repro import CECIMatcher, Graph
from repro.core import WorkUnit, clusters_of, decompose_extreme_clusters
from repro.graph import inject_labels, power_law


@pytest.fixture
def skewed_instance(triangle):
    """Triangle query on a power-law graph: skewed cluster sizes."""
    return triangle, power_law(300, 4, seed=17)


class TestEnumeration:
    def test_generator_and_fast_path_agree(self, skewed_instance):
        query, data = skewed_instance
        streaming = set(CECIMatcher(query, data).embeddings())
        collected = set(CECIMatcher(query, data).match())
        assert streaming == collected

    def test_limit_truncates(self, skewed_instance):
        query, data = skewed_instance
        total = CECIMatcher(query, data).count()
        assert total > 10
        assert CECIMatcher(query, data).count(limit=10) == 10
        assert len(CECIMatcher(query, data).match(limit=10)) == 10

    def test_limit_zero(self, skewed_instance):
        query, data = skewed_instance
        assert CECIMatcher(query, data).match(limit=0) == []

    def test_embedding_indexing_is_by_query_vertex(self, paper_query, paper_data):
        found = CECIMatcher(paper_query, paper_data).match()
        for embedding in found:
            for s, d in paper_query.edges:
                assert paper_data.has_edge(embedding[s], embedding[d])
            for u in paper_query.vertices():
                assert paper_query.labels_of(u) <= paper_data.labels_of(
                    embedding[u]
                )

    def test_injectivity(self, skewed_instance):
        query, data = skewed_instance
        for embedding in CECIMatcher(query, data).match():
            assert len(set(embedding)) == query.num_vertices

    def test_intersection_vs_edge_verification_agree(self, skewed_instance):
        query, data = skewed_instance
        with_intersection = set(CECIMatcher(query, data).match())
        verifying = CECIMatcher(query, data, use_intersection=False)
        assert set(verifying.match()) == with_intersection
        assert verifying.stats.edge_verifications > 0

    def test_intersection_mode_never_verifies_edges(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        matcher.match()
        assert matcher.stats.edge_verifications == 0
        assert matcher.stats.intersections > 0

    def test_single_vertex_query(self):
        data = Graph(4, [(0, 1), (1, 2), (2, 3)], labels=["A", "B", "A", "B"])
        query = Graph(1, [], labels=["A"])
        assert set(CECIMatcher(query, data).match()) == {(0,), (2,)}

    def test_no_embeddings(self):
        data = Graph(3, [(0, 1), (1, 2)], labels=["A", "B", "A"])
        query = Graph(2, [(0, 1)], labels=["A", "Z"])
        assert CECIMatcher(query, data).match() == []

    def test_recursive_calls_counted(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        found = matcher.match()
        assert matcher.stats.embeddings_found == len(found)
        assert matcher.stats.recursive_calls >= len(found)


class TestWorkUnits:
    def test_intact_clusters_sorted_by_workload(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        units = matcher.work_units(beta=None)
        workloads = [unit.workload for unit in units]
        assert workloads == sorted(workloads, reverse=True)
        assert all(unit.depth == 1 for unit in units)

    def test_units_partition_the_embedding_set(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        sequential = matcher.match()
        for beta in (None, 1.0, 0.2):
            units = matcher.work_units(worker_count=4, beta=beta)
            enumerator = matcher.enumerator()
            from_units = []
            for unit in units:
                from_units.extend(enumerator.collect_from_unit(unit.prefix))
            assert sorted(from_units) == sorted(sequential)

    def test_decomposition_respects_threshold(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        workers, beta = 4, 0.5
        total = sum(u.workload for u in matcher.work_units(beta=None))
        threshold = beta * total / workers
        units = matcher.work_units(worker_count=workers, beta=beta)
        assert all(unit.workload <= threshold + 1e-9 for unit in units)

    def test_smaller_beta_means_more_units(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        coarse = matcher.work_units(worker_count=4, beta=1.0)
        fine = matcher.work_units(worker_count=4, beta=0.1)
        assert len(fine) >= len(coarse)

    def test_cardinality_upper_bounds_cluster_embeddings(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        ceci = matcher.build()
        for pivot in ceci.pivots:
            true_count = len(
                matcher.enumerator().collect_from_unit((pivot,))
            )
            assert ceci.cluster_cardinality(pivot) >= true_count

    def test_invalid_parameters_rejected(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        ceci = matcher.build()
        with pytest.raises(ValueError):
            decompose_extreme_clusters(ceci, worker_count=0)
        with pytest.raises(ValueError):
            decompose_extreme_clusters(ceci, worker_count=2, beta=0.0)

    def test_workunit_accessors(self):
        unit = WorkUnit((7, 9), 3.5)
        assert unit.pivot == 7
        assert unit.depth == 2
        assert unit.workload == 3.5


class TestMatcherFacade:
    def test_empty_query_rejected(self, skewed_instance):
        _, data = skewed_instance
        with pytest.raises(ValueError):
            CECIMatcher(Graph(0, []), data)

    def test_disconnected_query_rejected(self, skewed_instance):
        _, data = skewed_instance
        with pytest.raises(ValueError):
            CECIMatcher(Graph(4, [(0, 1), (2, 3)]), data)

    def test_build_is_cached(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        assert matcher.build() is matcher.build()

    def test_phase_timings_recorded(self, skewed_instance):
        query, data = skewed_instance
        matcher = CECIMatcher(query, data)
        matcher.match()
        for phase in ("preprocess", "filter", "refine", "enumerate"):
            assert phase in matcher.stats.phase_seconds

    def test_find_embedding(self, paper_query, paper_data):
        from repro import find_embedding

        embedding = find_embedding(paper_query, paper_data)
        assert embedding in {(1, 3, 4, 11, 12), (1, 5, 6, 13, 14)}

    def test_find_embedding_none(self):
        from repro import find_embedding

        data = Graph(2, [(0, 1)], labels=["A", "B"])
        query = Graph(2, [(0, 1)], labels=["A", "Z"])
        assert find_embedding(query, data) is None

    def test_count_embeddings_helper(self, paper_query, paper_data):
        from repro import count_embeddings

        assert count_embeddings(paper_query, paper_data) == 2

    def test_labeled_data_directed_flag_is_ignored_for_matching(self):
        # Matching treats directed data graphs via symmetric adjacency.
        data = Graph(3, [(0, 1), (1, 2), (0, 2)], directed=True)
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert CECIMatcher(triangle, data).count() == 1
