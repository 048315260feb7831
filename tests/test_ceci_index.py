"""Tests for CECI construction, filtering and refinement — including a
vertex-by-vertex walk of the paper's Figure 1/3 worked example."""

import numpy as np
import pytest

from repro.core import (
    CECI,
    MatchStats,
    QueryTree,
    build_ceci,
    initial_candidates,
    refine_ceci,
    select_root,
)
from repro.core.filtering import FilterConfig
from repro.graph import Graph, erdos_renyi, inject_labels
from repro.kernels import intersect


@pytest.fixture
def paper_ceci(paper_query, paper_data):
    """The CECI of the Figure 1 instance after Algorithm 1 (filtering),
    before refinement; rooted at u1 as in the paper."""
    tree = QueryTree(paper_query, root=0)
    pivots = initial_candidates(paper_query, paper_data, 0)
    stats = MatchStats()
    ceci = build_ceci(tree, paper_data, pivots, stats)
    return ceci, stats


class TestPaperExampleFiltering:
    def test_initial_pivots_are_v1_v2(self, paper_query, paper_data):
        assert initial_candidates(paper_query, paper_data, 0) == [1, 2]

    def test_te_candidates_of_u2_before_cascade_effect(self, paper_ceci):
        ceci, _ = paper_ceci
        # <v1, {v3,v5,v7}> survives; the <v2, {v7,v9}> entry is cascade-
        # deleted when u3's entry for v2 empties (v8 fails NLCF).
        assert ceci.te[1] == {1: [3, 5, 7]}

    def test_te_candidates_of_u3(self, paper_ceci):
        ceci, _ = paper_ceci
        assert ceci.te[2] == {1: [4, 6]}

    def test_v2_cascaded_out_of_pivots(self, paper_ceci):
        ceci, stats = paper_ceci
        assert ceci.pivots == [1]
        assert stats.removed_by_cascade >= 1

    def test_nte_candidates_of_u3_under_u2(self, paper_ceci):
        ceci, _ = paper_ceci
        # Paper Section 3.2: <v3,{v4}>, <v5,{v4,v6}>, <v7,{v6}>.
        assert ceci.nte[2][1] == {3: [4], 5: [4, 6], 7: [6]}

    def test_te_candidates_of_u4_and_u5(self, paper_ceci):
        ceci, _ = paper_ceci
        assert ceci.te[3] == {3: [11], 5: [13], 7: [15]}
        assert ceci.te[4] == {4: [12], 6: [14]}

    def test_nte_candidates_of_u4_under_u3(self, paper_ceci):
        ceci, _ = paper_ceci
        assert ceci.nte[3][2] == {4: [11], 6: [13]}

    def test_v8_removed_by_nlc_filter(self, paper_ceci):
        _, stats = paper_ceci
        assert stats.removed_by_nlc >= 1


class TestPaperExampleRefinement:
    def test_cardinalities_match_paper(self, paper_ceci):
        ceci, _ = paper_ceci
        refine_ceci(ceci)
        # Leaves: all ones.
        assert ceci.cardinality[3] == {11: 1, 13: 1}
        assert ceci.cardinality[4] == {12: 1, 14: 1}
        # u2: v3 and v5 have cardinality 1; v7 is refined away because
        # its only child v15 is not in the NTE candidates of u4.
        assert ceci.cardinality[1] == {3: 1, 5: 1}
        # u3: each candidate supports one u5 leaf.
        assert ceci.cardinality[2] == {4: 1, 6: 1}
        # Root cluster: product over children sums = (1+1) x (1+1) = 4.
        # An *upper bound* on the 2 true embeddings — Section 4.3 notes
        # the cardinality deliberately overestimates.
        assert ceci.cardinality[0] == {1: 4}
        assert ceci.compact().cluster_cardinality(1) == 4

    def test_v7_and_v15_removed(self, paper_ceci):
        ceci, _ = paper_ceci
        stats = MatchStats()
        refine_ceci(ceci, stats)
        assert ceci.te[1] == {1: [3, 5]}
        assert 7 not in ceci.te[3]  # v7's u4 entry gone
        # The <v7, {v6}> NTE entry of u3 is removed despite v6's own
        # cardinality being fine (paper's exact example).
        assert 7 not in ceci.nte[2][1]
        assert stats.removed_by_refinement >= 2

    def test_refined_index_yields_exactly_the_two_embeddings(
        self, paper_query, paper_data
    ):
        from repro import match

        found = set(match(paper_query, paper_data))
        assert found == {(1, 3, 4, 11, 12), (1, 5, 6, 13, 14)}


class TestCECIStructure:
    def test_size_counters(self, paper_query, paper_data, paper_ceci):
        ceci, stats = paper_ceci
        store = ceci.compact()
        store.record_size(stats)
        assert stats.te_candidate_edges == store.te_edge_count() > 0
        assert stats.nte_candidate_edges == store.nte_edge_count() > 0
        assert stats.index_bytes == 8 * (
            store.te_edge_count() + store.nte_edge_count()
        )
        # The matcher publishes the same counters once, off its frozen
        # store.
        from repro import CECIMatcher

        matcher = CECIMatcher(paper_query, paper_data)
        built = matcher.build()
        assert matcher.stats.te_candidate_edges == built.te_edge_count()
        assert matcher.stats.nte_candidate_edges == built.nte_edge_count()

    def test_size_below_theoretical_bound(self, paper_query, paper_data, paper_ceci):
        ceci, stats = paper_ceci
        ceci.compact().record_size(stats)
        theoretical = stats.theoretical_bytes(
            paper_query.num_edges, paper_data.num_edges
        )
        assert stats.index_bytes < theoretical
        assert 0 < stats.space_saved_percent(
            paper_query.num_edges, paper_data.num_edges
        ) < 100

    def test_remove_candidate_scrubs_everywhere(self, paper_ceci):
        ceci, _ = paper_ceci
        ceci.remove_candidate(1, 5)  # drop v5 as candidate of u2
        assert 5 not in ceci.te[1][1]
        assert 5 not in ceci.te[3]  # key removed from child u4
        assert 5 not in ceci.nte[2][1]  # key removed from NTE child u3

    def test_te_union_reflects_cascades(self, paper_ceci):
        ceci, _ = paper_ceci
        assert ceci.te_union(1) == {3, 5, 7}
        assert ceci.te_union(0) == {1}

    def test_repr_mentions_clusters(self, paper_ceci):
        ceci, _ = paper_ceci
        assert "clusters=1" in repr(ceci)


class TestFilterConfigAblation:
    def test_disabling_filters_keeps_completeness(self, paper_query, paper_data):
        from repro import match

        reference = set(match(paper_query, paper_data))
        for kwargs in (
            dict(use_degree_filter=False),
            dict(use_nlc_filter=False),
            dict(use_cascade=False),
            dict(use_refinement=False),
            dict(use_intersection=False),
            dict(
                use_degree_filter=False,
                use_nlc_filter=False,
                use_cascade=False,
                use_refinement=False,
                use_intersection=False,
            ),
        ):
            assert set(match(paper_query, paper_data, **kwargs)) == reference

    def test_weaker_filtering_never_shrinks_the_index(
        self, paper_query, paper_data
    ):
        tree = QueryTree(paper_query, root=0)
        pivots = initial_candidates(
            paper_query, paper_data, 0, use_nlc_filter=False
        )
        full = build_ceci(tree, paper_data, list(pivots), MatchStats())
        loose = build_ceci(
            tree,
            paper_data,
            list(pivots),
            MatchStats(),
            FilterConfig(use_nlc_filter=False),
        )
        loose, full = loose.compact(), full.compact()
        assert (
            loose.te_edge_count() + loose.nte_edge_count()
            >= full.te_edge_count() + full.nte_edge_count()
        )


class TestIntersectSorted:
    """The k-way intersection of sorted candidate arrays that cluster
    enumeration runs on (Lemma 2)."""

    def test_empty_input(self):
        assert intersect([]).tolist() == []

    def test_single_list_copied(self):
        src = np.array([1, 2, 3], dtype=np.int64)
        out = intersect([src])
        assert out.tolist() == [1, 2, 3] and out is not src

    def test_two_lists(self):
        assert intersect([[1, 3, 5, 7], [3, 4, 5]]).tolist() == [3, 5]

    def test_three_lists(self):
        assert intersect([[1, 2, 3, 4], [2, 4, 6], [4, 5]]).tolist() == [4]

    def test_disjoint(self):
        assert intersect([[1, 2], [3, 4]]).tolist() == []

    def test_matches_set_intersection_on_random_input(self):
        import random

        rng = random.Random(42)
        for _ in range(50):
            lists = [
                sorted(rng.sample(range(60), rng.randint(0, 25)))
                for _ in range(rng.randint(1, 4))
            ]
            expected = set(lists[0]).intersection(*lists[1:])
            assert intersect(lists).tolist() == sorted(expected)


def _naive_refine(ceci):
    """Algorithm 2 written out plainly: per reverse-order vertex, keep
    ``cand ∩`` every NTE member set, price each survivor, then delete
    the zero-cardinality candidates."""
    tree = ceci.tree
    for u in tree.reverse_order():
        alive = set(ceci.cand[u])
        for u_n in tree.nte_parents[u]:
            if u_n in ceci.nte[u]:
                alive &= ceci.nte_member_set(u, u_n)
        doomed = []
        for v in sorted(ceci.cand[u]):
            closes = all(
                ceci.nte[u_c].get(u) is None or ceci.nte[u_c][u].get(v)
                for u_c in tree.nte_children[u]
            )
            cardinality = int(v in alive and closes)
            for u_c in tree.children[u]:
                cardinality *= sum(
                    ceci.cardinality[u_c].get(v_c, 0)
                    for v_c in ceci.te[u_c].get(v, ())
                )
            if cardinality:
                ceci.cardinality[u][v] = cardinality
            else:
                doomed.append(v)
        for v in doomed:
            ceci.remove_candidate(u, v)


def _clique(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


class TestRefinementNTEIntersection:
    @pytest.mark.parametrize("size", [4, 5])
    def test_matches_naive_reference(self, size):
        """On clique queries, where a vertex has >= 2 NTE parents,
        refinement's set-intersection form equals the naive reference
        exactly, and it does prune on these instances."""
        removed = 0
        for seed in range(6):
            data = inject_labels(erdos_renyi(50, 200, seed=seed), 3, seed=seed)
            query = inject_labels(_clique(size), 3, seed=seed + 100)
            root, pivots = select_root(query, data)
            tree = QueryTree(query, root)
            assert max(len(parents) for parents in tree.nte_parents) >= 2

            refined = build_ceci(tree, data, pivots)
            reference = build_ceci(tree, data, pivots)
            stats = MatchStats()
            refine_ceci(refined, stats)
            _naive_refine(reference)
            removed += stats.removed_by_refinement
            assert refined.cand == reference.cand
            assert refined.cardinality == reference.cardinality
            assert refined.te == reference.te
            assert refined.nte == reference.nte
            assert refined.pivots == reference.pivots
        assert removed > 0
