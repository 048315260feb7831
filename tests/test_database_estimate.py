"""Tests for the cardinality bound a built CECI gives for free."""

import pytest

from repro import CECIMatcher, Graph
from repro.core import cardinality_bound
from repro.graph import power_law


class TestEstimator:
    @pytest.fixture(scope="class")
    def triangle_instance(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        data = power_law(250, 5, seed=11, min_edges_per_vertex=1)
        return triangle, data

    def test_bound_dominates_truth(self, triangle_instance):
        triangle, data = triangle_instance
        matcher = CECIMatcher(triangle, data, break_automorphisms=False)
        true_count = matcher.count()
        assert cardinality_bound(matcher) >= true_count

    def test_estimate_zero_when_no_embeddings(self):
        """The bound is exactly zero when refinement empties the index."""
        data = Graph(3, [(0, 1), (1, 2)], labels=["A", "B", "A"])
        query = Graph(2, [(0, 1)], labels=["A", "Z"])
        matcher = CECIMatcher(query, data, break_automorphisms=False)
        assert cardinality_bound(matcher) == 0
        assert matcher.count() == 0
