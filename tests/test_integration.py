"""Integration tests spanning multiple subsystems: full pipelines on
realistic generated workloads, cross-matcher agreement at moderate
scale, and end-to-end IO round trips feeding the matcher."""

import pytest

from repro import CECIMatcher, count_embeddings, match
from repro.baselines import cflmatch_match, psgl_match, turboiso_match, vf2_match
from repro.bench import QG1, QG3, QG5
from repro.distributed import DistributedCECI
from repro.graph import (
    dense_labeled,
    generate_query,
    inject_labels,
    kronecker,
    load_graph_format,
    power_law,
    save_graph_format,
)
from repro.parallel import simulate_policy
from repro.service import MatchRequest, MatchService


@pytest.fixture(scope="module")
def social_graph():
    """A power-law 'social network' analog with the low-degree tail
    real networks have (so filtering has something to prune)."""
    return power_law(800, 6, seed=2024, min_edges_per_vertex=1)


@pytest.fixture(scope="module")
def labeled_graph():
    return inject_labels(kronecker(8, 4, seed=7), 4, seed=7)


class TestEndToEndPipelines:
    def test_motif_counts_consistent_across_matchers(self, social_graph):
        for query in (QG1, QG3):
            reference = count_embeddings(query, social_graph)
            assert len(vf2_match(query, social_graph)) == reference
            assert len(turboiso_match(query, social_graph)) == reference
            assert len(psgl_match(query, social_graph)) == reference

    def test_labeled_pipeline_all_matchers(self, labeled_graph):
        query = generate_query(labeled_graph, 5, seed=5)
        reference = sorted(match(query, labeled_graph))
        assert sorted(cflmatch_match(query, labeled_graph)) == reference
        assert sorted(vf2_match(query, labeled_graph)) == reference

    def test_sequential_parallel_distributed_agree(self, social_graph):
        sequential = match(QG3, social_graph)
        with MatchService(social_graph, workers=3) as service:
            par = service.match(MatchRequest(QG3))
        assert par.ok, par.error
        assert par.embeddings == sequential
        sequential = set(sequential)
        dist = DistributedCECI(QG3, social_graph, num_machines=3).run()
        assert set(dist.embeddings) == sequential

    def test_io_round_trip_preserves_matching(self, labeled_graph, tmp_path):
        path = str(tmp_path / "graph.graph")
        save_graph_format(labeled_graph, path)
        reloaded = load_graph_format(path)
        query = generate_query(labeled_graph, 4, seed=11)
        assert sorted(match(query, reloaded)) == sorted(
            match(query, labeled_graph)
        )

    def test_dense_multilabel_pipeline(self):
        data = dense_labeled(300, avg_degree=20, num_labels=25, seed=1)
        query = generate_query(data, 6, seed=3, keep_all_labels=True)
        found = match(query, data, limit=64)
        assert found
        for embedding in found:
            for u in query.vertices():
                assert query.labels_of(u) <= data.labels_of(embedding[u])

    def test_first_k_matches_prefix_of_full(self, social_graph):
        full = match(QG3, social_graph)
        first = match(QG3, social_graph, limit=10)
        assert first == full[:10]


class TestSchedulingIntegration:
    def test_policy_results_share_total_work(self, social_graph):
        matcher = CECIMatcher(QG5, social_graph)
        st = simulate_policy(matcher, 8, "ST")
        cgd = simulate_policy(matcher, 8, "CGD")
        assert st.sequential_cost == pytest.approx(cgd.sequential_cost, rel=0.01)

    def test_extreme_cluster_threshold_scales_with_workers(self, social_graph):
        matcher = CECIMatcher(QG5, social_graph)
        few = matcher.work_units(worker_count=2, beta=0.5)
        many = matcher.work_units(worker_count=16, beta=0.5)
        # more workers -> lower threshold -> at least as many fragments
        assert len(many) >= len(few)


class TestStatsIntegration:
    def test_table2_invariant_on_real_workload(self, social_graph):
        matcher = CECIMatcher(QG5, social_graph)
        matcher.build()
        stats = matcher.stats
        assert 0 < stats.index_bytes < stats.theoretical_bytes(
            QG5.num_edges, social_graph.num_edges
        )

    def test_recursive_calls_scale_with_query_size(self, social_graph):
        small = CECIMatcher(QG1, social_graph)
        small.match()
        big = CECIMatcher(QG5, social_graph)
        big.match()
        assert big.stats.recursive_calls > small.stats.recursive_calls
