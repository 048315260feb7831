"""Tests for every baseline matcher: correctness against CECI and the
algorithm-specific behaviors each reimplementation must exhibit."""

import pytest

from repro import CECIMatcher, Graph, match
from repro.baselines import (
    BareMatcher,
    CFLMatcher,
    DualSimMatcher,
    PageStore,
    PsgLMatcher,
    QuickSIMatcher,
    TurboIsoMatcher,
    UllmannMatcher,
    VF2Matcher,
    bare_match,
    boosted_turboiso_match,
    cflmatch_match,
    core_forest_leaf,
    data_vertex_classes,
    dualsim_match,
    psgl_match,
    quicksi_match,
    turboiso_match,
    ullmann_match,
    vf2_match,
)
from repro.graph import inject_labels, power_law

from conftest import brute_force_embeddings, random_labeled_instance

ALL_MATCH_FNS = {
    "ullmann": ullmann_match,
    "vf2": vf2_match,
    "quicksi": quicksi_match,
    "turboiso": turboiso_match,
    "boosted": boosted_turboiso_match,
    "cflmatch": cflmatch_match,
    "psgl": psgl_match,
    "dualsim": dualsim_match,
    "bare": bare_match,
}


@pytest.mark.parametrize("name", sorted(ALL_MATCH_FNS))
class TestAgainstBruteForce:
    def test_paper_example(self, name, paper_query, paper_data):
        fn = ALL_MATCH_FNS[name]
        assert set(fn(paper_query, paper_data)) == {
            (1, 3, 4, 11, 12),
            (1, 5, 6, 13, 14),
        }

    def test_random_instances(self, name):
        fn = ALL_MATCH_FNS[name]
        checked = 0
        for seed in range(40):
            instance = random_labeled_instance(seed)
            if instance is None:
                continue
            query, data = instance
            expected = brute_force_embeddings(query, data)
            got = set(fn(query, data, break_automorphisms=False))
            assert got == expected, f"{name} differs on seed {seed}"
            checked += 1
        assert checked >= 20

    def test_limit_semantics(self, name, triangle):
        fn = ALL_MATCH_FNS[name]
        data = power_law(120, 4, seed=23)
        total = len(fn(triangle, data))
        limited = fn(triangle, data, limit=5)
        assert len(limited) == min(5, total)

    def test_automorphism_breaking(self, name, triangle):
        fn = ALL_MATCH_FNS[name]
        data = power_law(60, 4, seed=29)
        broken = fn(triangle, data)
        full = fn(triangle, data, break_automorphisms=False)
        assert len(full) == 6 * len(broken)


class TestUllmann:
    def test_refinement_prunes(self):
        data = Graph(4, [(0, 1), (1, 2), (2, 3)], labels=["A", "B", "A", "B"])
        query = Graph(3, [(0, 1), (1, 2)], labels=["A", "B", "A"])
        matcher = UllmannMatcher(query, data)
        candidates = matcher._initial_matrix()
        assert matcher._refine(candidates)
        # data vertex 0 (degree-1 'A') can match the path ends only
        assert candidates[1] == {1}  # middle 'B' with two 'A' neighbors

    def test_refinement_detects_dead_instance(self):
        data = Graph(2, [(0, 1)], labels=["A", "B"])
        query = Graph(3, [(0, 1), (1, 2)], labels=["A", "B", "A"])
        matcher = UllmannMatcher(query, data)
        candidates = matcher._initial_matrix()
        assert not matcher._refine(candidates)


class TestVF2:
    def test_connected_order(self, paper_query):
        matcher = VF2Matcher(paper_query, paper_query)
        order = matcher._order
        placed = {order[0]}
        for u in order[1:]:
            assert any(w in placed for w in paper_query.neighbors(u))
            placed.add(u)

    def test_disconnected_query_rejected(self):
        with pytest.raises(ValueError):
            VF2Matcher(Graph(3, [(0, 1)]), Graph(3, [(0, 1)]))


class TestQuickSI:
    def test_qi_sequence_tree_plus_extra_edges(self, paper_query):
        matcher = QuickSIMatcher(paper_query, paper_query)
        order, parent, extra = (
            matcher._order,
            matcher._tree_parent,
            matcher._extra_edges,
        )
        tree_edges = sum(1 for u in order if parent[u] >= 0)
        extra_edges = sum(len(e) for e in extra)
        assert tree_edges + extra_edges == paper_query.num_edges

    def test_infrequent_label_starts(self):
        data = Graph(
            5, [(0, 1), (0, 2), (0, 3), (0, 4)], labels=["R", "B", "B", "B", "B"]
        )
        query = Graph(2, [(0, 1)], labels=["R", "B"])
        matcher = QuickSIMatcher(query, data)
        assert matcher._order[0] == 0  # 'R' is rarer than 'B'


class TestTurboIso:
    def test_boosted_equals_plain(self):
        data = inject_labels(power_law(100, 3, seed=31), 2, seed=31)
        query = Graph(3, [(0, 1), (1, 2)], labels=[0, 1, 0])
        assert sorted(turboiso_match(query, data)) == sorted(
            boosted_turboiso_match(query, data)
        )

    def test_data_vertex_classes_partition(self):
        data = power_law(80, 3, seed=37)
        classes = data_vertex_classes(data)
        members = sorted(v for group in classes for v in group)
        assert members == list(range(80))

    def test_twins_grouped(self):
        # 0, 1, 3 are mutually adjacent twins (closed neighborhood
        # {0,1,2,3} each); 4 and 5 are open twins (both only see 2).
        g = Graph(
            6,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5)],
        )
        classes = {tuple(c) for c in data_vertex_classes(g)}
        assert (0, 1, 3) in classes
        assert (4, 5) in classes


class TestCFLMatch:
    def test_core_forest_leaf_on_house(self):
        house = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
        core, forest, leaves = core_forest_leaf(house)
        assert core == {0, 1, 2, 3, 4}
        assert forest == set() and leaves == set()

    def test_core_forest_leaf_on_tadpole(self):
        # triangle 0-1-2 with path 2-3-4
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        core, forest, leaves = core_forest_leaf(g)
        assert core == {0, 1, 2}
        assert leaves == {4}
        assert forest == {3}

    def test_acyclic_query_all_forest_and_leaves(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        core, forest, leaves = core_forest_leaf(path)
        assert core == set()
        assert leaves == {0, 3}
        assert forest == {1, 2}

    def test_uses_edge_verification(self, paper_query, paper_data):
        matcher = CFLMatcher(paper_query, paper_data)
        matcher.match()
        assert matcher.stats.edge_verifications > 0
        assert matcher.stats.intersections == 0

    def test_te_only_cpi_verifies_even_in_intersection_mode(
        self, paper_query, paper_data
    ):
        """A CPI has no NTE lists, so an intersection-mode enumerator
        over it falls to the recursion and verifies every non-tree
        edge on the data graph."""
        from repro.core import Enumerator, SymmetryBreaker

        assert paper_query.num_edges >= paper_query.num_vertices
        cpi = CFLMatcher(paper_query, paper_data)._build().ceci
        assert not cpi.nte_built
        enumerator = Enumerator(
            cpi,
            symmetry=SymmetryBreaker(paper_query, enabled=False),
            use_intersection=True,
        )
        found = enumerator.collect()
        assert enumerator.engine == "recursive"
        assert enumerator.stats.intersections == 0
        assert enumerator.stats.edge_verifications > 0
        assert sorted(found) == sorted(
            vf2_match(paper_query, paper_data, break_automorphisms=False)
        )

    def test_adjacency_matrix_bytes(self, paper_query, paper_data):
        matcher = CFLMatcher(paper_query, paper_data)
        n = paper_data.num_vertices
        assert matcher.adjacency_matrix_bytes() == n * n // 8


class TestPsgL:
    def test_peak_intermediate_recorded(self, triangle):
        data = power_law(100, 4, seed=41)
        matcher = PsgLMatcher(triangle, data)
        matcher.match()
        assert matcher.peak_intermediate > 0
        assert len(matcher.level_work) == triangle.num_vertices - 1

    def test_parallel_model_improves_with_workers(self, triangle):
        data = power_law(200, 4, seed=43)
        matcher = PsgLMatcher(triangle, data)
        matcher.match()
        t1 = matcher.simulate_parallel(1)
        t8 = matcher.simulate_parallel(8)
        assert t8 < t1

    def test_parallel_model_requires_profile(self, triangle):
        matcher = PsgLMatcher(triangle, power_law(50, 3, seed=1))
        with pytest.raises(RuntimeError):
            matcher.simulate_parallel(4)

    def test_routing_overhead_caps_scaling(self, triangle):
        data = power_law(200, 4, seed=43)
        matcher = PsgLMatcher(triangle, data)
        matcher.match()
        t64 = matcher.simulate_parallel(64)
        t1024 = matcher.simulate_parallel(1024)
        # per-embedding routing is serial: huge worker counts stop helping
        assert t1024 > 0.5 * t64


class TestDualSim:
    def test_page_store_counts_loads(self):
        g = power_law(64, 3, seed=47)
        store = PageStore(g, vertices_per_page=8, buffer_pages=2)
        store.neighbors(0)
        store.neighbors(1)  # same page: hit
        store.neighbors(63)  # different page: load
        assert store.page_loads == 2
        assert store.page_hits == 1

    def test_lru_eviction(self):
        g = power_law(64, 3, seed=47)
        store = PageStore(g, vertices_per_page=8, buffer_pages=1)
        store.neighbors(0)
        store.neighbors(63)
        store.neighbors(0)  # evicted, reloads
        assert store.page_loads == 3

    def test_bad_geometry_rejected(self):
        g = power_law(10, 3, seed=1)
        with pytest.raises(ValueError):
            PageStore(g, vertices_per_page=0)

    def test_modeled_runtime_dominated_by_io(self, triangle):
        data = power_law(150, 4, seed=53)
        matcher = DualSimMatcher(triangle, data, buffer_pages=2)
        matcher.match()
        assert matcher.store.page_loads > 0
        modeled = matcher.modeled_runtime(io_cost_ratio=1000.0)
        compute_only = matcher.modeled_runtime(io_cost_ratio=0.0)
        assert modeled > 10 * compute_only


class TestBare:
    def test_pivot_partitioning_covers_everything(self, triangle):
        data = power_law(100, 4, seed=59)
        matcher = BareMatcher(triangle, data)
        sequential = set(matcher.match())
        union = set()
        fresh = BareMatcher(triangle, data)
        for pivot in fresh.pivots():
            union.update(fresh.embeddings_from_pivot(pivot))
        assert union == sequential

    def test_does_more_work_than_ceci(self, triangle):
        data = power_law(150, 4, seed=61)
        bare = BareMatcher(triangle, data)
        bare.match()
        ceci = CECIMatcher(triangle, data)
        ceci.match()
        assert bare.stats.recursive_calls >= ceci.stats.recursive_calls
