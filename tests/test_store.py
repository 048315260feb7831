"""Tests for the two-phase index lifecycle (DESIGN.md §8).

Filtering and refinement mutate the dict builder; :meth:`CECI.compact`
freezes it into :class:`CompactCECI`, the only runtime index.  Freezing
must lose nothing — same pivots, candidates, candidate lists,
cardinalities and embeddings — and every lookup on the frozen store is
a zero-copy array view.
"""

import sys

import numpy as np
import pytest

from conftest import refined_builder
from repro import CECIMatcher, Graph
from repro.core import CompactCECI, Enumerator
from repro.core.estimate import cardinality_bound, store_cardinality_bound
from repro.core.store import encode_pairs, lookup_pairs
from repro.graph import inject_labels, power_law
from repro.service import MatchRequest, MatchService


@pytest.fixture(scope="module")
def instance():
    data = inject_labels(
        power_law(300, 5, seed=7, min_edges_per_vertex=1), 3, seed=7
    )
    query = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                  labels=[0, 1, 0, 2])
    return query, data


@pytest.fixture(scope="module")
def stores(instance):
    """(refined dict builder, the store it freezes into)."""
    builder = refined_builder(*instance)
    return builder, builder.compact()


def _unique_pairs(mapping) -> int:
    """Distinct undirected ``(key, value)`` pairs of one candidate map —
    the Table 2 convention, computed the naive way."""
    return len({
        (min(key, v), max(key, v))
        for key, values in mapping.items()
        for v in values
    })


def _boxed_bytes(builder) -> int:
    """The builder's payload as boxed Python containers: ``getsizeof``
    per container plus one boxed int per stored key and value."""
    int_size = sys.getsizeof(1 << 30)

    def lists(mapping) -> int:
        return sys.getsizeof(mapping) + sum(
            sys.getsizeof(values) + int_size * (len(values) + 1)
            for values in mapping.values()
        )

    total = sys.getsizeof(builder.pivots) + int_size * len(builder.pivots)
    for u in range(len(builder.te)):
        total += lists(builder.te[u]) + sys.getsizeof(builder.nte[u])
        total += sum(lists(groups) for groups in builder.nte[u].values())
        card = builder.cardinality[u]
        total += sys.getsizeof(card) + 2 * int_size * len(card)
    return total


class TestProtocol:
    """The frozen store answers exactly what the builder held."""

    def test_unknown_store_rejected(self, instance):
        """There is one runtime store: the retired knob is an error."""
        with pytest.raises(TypeError):
            CECIMatcher(*instance, store="dict")

    def test_pivots_and_candidates_agree(self, stores):
        builder, compact_store = stores
        assert isinstance(compact_store, CompactCECI)
        assert list(compact_store.pivots) == sorted(builder.pivots)
        for u in builder.tree.query.vertices():
            assert sorted(int(v) for v in compact_store.candidates(u)) == \
                sorted(builder.te_union(u))

    def test_te_and_nte_values_agree(self, stores):
        builder, compact_store = stores
        query = builder.tree.query
        for u in query.vertices():
            for v_p, values in builder.te[u].items():
                got = compact_store.te_values(u, v_p)
                assert list(got) == list(values)
            for u_n, groups in builder.nte[u].items():
                for v_n, values in groups.items():
                    got = compact_store.nte_values(u, u_n, v_n)
                    assert list(got) == list(values)
            # Missing keys answer empty.
            assert len(compact_store.te_values(u, -1)) == 0

    def test_cardinalities_agree(self, stores):
        builder, compact_store = stores
        for u in builder.tree.query.vertices():
            for v, c in builder.cardinality[u].items():
                assert compact_store.cardinality_of(u, v) == c
            assert compact_store.cardinality_of(u, -1) == 0
        assert compact_store.te_edge_count() == sum(
            _unique_pairs(per_node) for per_node in builder.te
        )
        assert compact_store.nte_edge_count() == sum(
            _unique_pairs(groups)
            for per_node in builder.nte
            for groups in per_node.values()
        )


class TestZeroCopy:
    def test_te_values_are_views_into_the_flat_buffer(self, stores):
        _, compact_store = stores
        probed = 0
        for u in compact_store.tree.query.vertices():
            keys, _, values = compact_store.te[u]
            for v_p in keys[:5]:
                got = compact_store.te_values(u, int(v_p))
                if len(got) == 0:
                    continue
                assert np.shares_memory(got, values)
                probed += 1
        assert probed > 0

    def test_lookup_pairs_empty_on_missing_key(self):
        triple = encode_pairs({3: [1, 2], 9: [5]})
        assert list(lookup_pairs(triple, 3)) == [1, 2]
        assert list(lookup_pairs(triple, 9)) == [5]
        assert len(lookup_pairs(triple, 4)) == 0
        assert len(lookup_pairs(triple, 99)) == 0


class TestEquivalence:
    def test_embeddings_identical_across_stores(self, instance, stores):
        """A hand-frozen builder enumerates the matcher's embeddings."""
        query, data = instance
        _, compact_store = stores
        matcher = CECIMatcher(query, data)
        got = Enumerator(compact_store, symmetry=matcher.symmetry).collect()
        assert sorted(got) == sorted(matcher.match())

    def test_estimation_runs_on_both_stores(self, instance, stores):
        query, data = instance
        builder, compact_store = stores
        matcher = CECIMatcher(query, data)
        root = builder.tree.root
        assert store_cardinality_bound(compact_store) == sum(
            builder.cardinality[root].values()
        )
        assert cardinality_bound(matcher) == store_cardinality_bound(
            matcher.build()
        )

    def test_service_workers_share_the_frozen_store(self, instance):
        query, data = instance
        reference = CECIMatcher(query, data).match()
        with MatchService(data, workers=3) as service:
            response = service.match(MatchRequest(query))
        assert response.ok, response.error
        assert response.embeddings == reference

    def test_array_kernel_engaged_on_compact_store(self, instance):
        query, data = instance
        matcher = CECIMatcher(query, data, use_intersection=True)
        matcher.match()
        assert matcher.stats.kernel_array_calls > 0


class TestFootprint:
    def test_compact_at_least_2x_smaller(self, stores):
        builder, compact_store = stores
        boxed, compact_bytes = _boxed_bytes(builder), compact_store.memory_bytes()
        assert compact_bytes > 0
        assert boxed >= 2 * compact_bytes, (
            f"boxed builder {boxed}B vs compact {compact_bytes}B: "
            f"ratio {boxed / compact_bytes:.2f}x < 2x"
        )

    def test_memory_bytes_is_the_array_payload(self, instance):
        query, data = instance
        matcher = CECIMatcher(query, data)
        store = matcher.build()
        arrays = [store.pivots]
        for u in range(query.num_vertices):
            arrays.extend(store.te[u])
            for triple in store.nte[u].values():
                arrays.extend(triple)
            arrays.extend(store.card[u])
        assert store.memory_bytes() == sum(int(a.nbytes) for a in arrays)
        assert matcher.stats.memory_bytes == store.memory_bytes() > 0

    def test_freeze_phase_recorded(self, instance):
        matcher = CECIMatcher(*instance)
        matcher.build()
        assert "freeze" in matcher.stats.phase_seconds


class TestPivotMaintenance:
    def test_remove_candidate_keeps_pivots_sorted(self, stores):
        builder, _ = stores
        before = list(builder.pivots)
        assert before == sorted(before)
        assert len(before) >= 2

    def test_cascade_delete_uses_set_discard(self, instance):
        ceci = refined_builder(*instance)
        root = ceci.tree.root
        victim = ceci.pivots[0]
        survivors = [p for p in ceci.pivots if p != victim]
        ceci.remove_candidate(root, victim)
        assert victim not in ceci._pivot_set
        assert list(ceci.pivots) == survivors  # still sorted, no victim

    def test_pivot_assignment_resets_mirror(self, instance):
        ceci = refined_builder(*instance)
        ceci.pivots = [5, 3, 3, 1]
        assert ceci.pivots == [1, 3, 5]
        assert ceci._pivot_set == {1, 3, 5}


class TestCardinalitySaturation:
    def test_overflowing_cardinality_saturates_at_int64_max(
        self, instance, tmp_path
    ):
        """A CPI without NTE pruning can price a pivot above int64;
        freezing saturates it, and the value survives a CECIIDX3 save
        and load.  A zero stays a zero."""
        from repro.core.persist import load_ceci, save_ceci

        ceci = refined_builder(*instance)
        root = ceci.tree.root
        big, small = ceci.pivots[0], ceci.pivots[1]
        ceci.cardinality[root][big] = 2**70
        ceci.cardinality[root][small] = 0
        top = int(np.iinfo(np.int64).max)

        store = ceci.compact()
        assert store.cluster_cardinality(big) == top
        assert store.cluster_cardinality(small) == 0
        path = str(tmp_path / "saturated.ceci")
        save_ceci(store, path)
        loaded = load_ceci(path, instance[1])
        assert loaded.cluster_cardinality(big) == top
        assert loaded.cluster_cardinality(small) == 0


class TestClusterCardinalities:
    """The one-lookup form the planners use equals the per-pivot
    :meth:`CompactCECI.cluster_cardinality`, for every pivot."""

    def test_matches_per_pivot_lookup(self, stores):
        _, store = stores
        expected = [store.cluster_cardinality(p) for p in store.pivots]
        assert store.cluster_cardinalities().tolist() == expected

    def test_zeroed_missing_and_saturated_pivots(self, instance, tmp_path):
        from repro.core.persist import load_ceci, save_ceci

        ceci = refined_builder(*instance)
        table = ceci.cardinality[ceci.tree.root]
        table[ceci.pivots[0]] = 0
        del table[ceci.pivots[1]]
        table[ceci.pivots[-1]] = 2**70
        store = ceci.compact()
        path = str(tmp_path / "zeroed.ceci")
        save_ceci(store, path)
        for frozen in (store, load_ceci(path, instance[1])):
            expected = [frozen.cluster_cardinality(p) for p in frozen.pivots]
            assert expected[:2] == [0, 0]
            assert expected[-1] == int(np.iinfo(np.int64).max)
            assert frozen.cluster_cardinalities().tolist() == expected

    def test_unrefined_store_gives_zeros(self, instance):
        """Only refinement fills the cardinality tables, so a store
        frozen straight after filtering has none."""
        from repro.core import QueryTree, build_ceci, select_root

        query, data = instance
        root, pivots = select_root(query, data)
        store = build_ceci(QueryTree(query, root), data, pivots).compact()
        assert len(store.pivots) > 0
        assert store.cluster_cardinalities().tolist() == [0] * len(
            store.pivots
        )
