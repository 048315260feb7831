"""Tests for the simulated distributed runtime."""

import pytest

from repro import CECIMatcher, Graph
from repro.distributed import (
    DistributedCECI,
    InMemoryStorage,
    SharedStorage,
    distribute_pivots,
    jaccard_similarity,
    lightweight_workload,
)
from repro.graph import power_law


@pytest.fixture(scope="module")
def data():
    return power_law(400, 4, seed=73)


@pytest.fixture(scope="module")
def triangle_query():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestLightweightWorkload:
    def test_memory_mode_counts_neighborhood(self, data):
        v = 0
        expected_base = data.degree(v) + sum(
            data.degree(w) for w in data.neighbors(v)
        )
        n = data.num_vertices
        assert lightweight_workload(data, v, "memory") == pytest.approx(
            expected_base * (n - v) / n
        )

    def test_shared_mode_uses_degree_only(self, data):
        v = 5
        n = data.num_vertices
        assert lightweight_workload(data, v, "shared") == pytest.approx(
            data.degree(v) * (n - v) / n
        )

    def test_vertex_id_scaling_decreases(self, data):
        # same degree structure would weigh less for higher ids
        low = lightweight_workload(data, 10, "shared") / max(data.degree(10), 1)
        high = lightweight_workload(data, 390, "shared") / max(
            data.degree(390), 1
        )
        assert low > high

    def test_unknown_mode_rejected(self, data):
        with pytest.raises(ValueError):
            lightweight_workload(data, 0, "quantum")


class TestJaccard:
    def test_identical_neighborhoods(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert jaccard_similarity(g, 0, 1) == 1.0

    def test_disjoint_neighborhoods(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert jaccard_similarity(g, 0, 2) == 0.0

    def test_partial_overlap(self):
        g = Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
        assert jaccard_similarity(g, 0, 1) == pytest.approx(1 / 3)


class TestDistributePivots:
    def test_partition_covers_all_pivots(self, data):
        pivots = list(range(0, 100))
        machines = distribute_pivots(data, pivots, 4)
        flattened = sorted(v for ms in machines for v in ms)
        assert flattened == pivots

    def test_single_machine(self, data):
        machines = distribute_pivots(data, [1, 2, 3], 1)
        assert machines == [[1, 2, 3]]

    def test_load_roughly_balanced(self, data):
        pivots = list(range(200))
        machines = distribute_pivots(data, pivots, 4, mode="shared")
        loads = [
            sum(lightweight_workload(data, v, "shared") for v in ms)
            for ms in machines
        ]
        assert max(loads) <= 2.0 * (sum(loads) / len(loads))

    def test_similar_clusters_colocated(self):
        # Pivots 0 and 1 share their whole neighborhood (J = 1.0); with
        # enough filler pivots the group fits under the load cap and
        # must land on one machine.
        edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
        fillers = list(range(4, 24, 2))
        edges += [(v, v + 1) for v in fillers]
        g = Graph(24, edges)
        machines = distribute_pivots(g, [0, 1] + fillers, 2, mode="memory")
        home = next(m for m, ms in enumerate(machines) if 0 in ms)
        assert 1 in machines[home]

    def test_invalid_machine_count(self, data):
        with pytest.raises(ValueError):
            distribute_pivots(data, [0], 0)


class TestDistributePivotsEdgeCases:
    """Property checks on the degenerate shapes the sharded service
    tier feeds the partitioner (DESIGN.md §14): whatever the pivot set
    looks like, every pivot lands exactly once and no machine carries
    more than the bounded-imbalance share of the workload."""

    @staticmethod
    def _assert_exact_cover(machines, pivots):
        placed = sorted(v for ms in machines for v in ms)
        assert placed == sorted(pivots), "pivot lost or duplicated"

    @staticmethod
    def _assert_bounded_imbalance(data, machines, mode):
        loads = [
            sum(lightweight_workload(data, v, mode) for v in ms)
            for ms in machines
        ]
        total = sum(loads)
        if total == 0:
            return
        nonempty = [load for load in loads if load]
        # One indivisible pivot can dominate, but no machine may exceed
        # the largest single workload plus its fair share of the rest.
        biggest = max(
            lightweight_workload(data, v, mode)
            for ms in machines
            for v in ms
        )
        bound = biggest + total / len(machines)
        assert max(nonempty) <= bound + 1e-9

    @pytest.mark.parametrize("mode", ["memory", "shared"])
    @pytest.mark.parametrize("machines", [1, 2, 4, 7])
    def test_empty_pivot_set(self, data, mode, machines):
        parts = distribute_pivots(data, [], machines, mode=mode)
        assert len(parts) == machines
        assert all(part == [] for part in parts)

    def test_edgeless_graph_zero_workloads(self):
        # Every workload is 0.0: the greedy assignment must still place
        # each pivot exactly once instead of dividing by the zero total.
        g = Graph(10, [])
        parts = distribute_pivots(g, list(range(10)), 3)
        self._assert_exact_cover(parts, list(range(10)))

    @pytest.mark.parametrize("mode", ["memory", "shared"])
    def test_fewer_pivots_than_machines(self, data, mode):
        pivots = [0, 1]
        parts = distribute_pivots(data, pivots, 8, mode=mode)
        assert len(parts) == 8
        self._assert_exact_cover(parts, pivots)
        # No machine hoards both while six sit idle — unless Jaccard
        # pinning demands it, which the shared mode never does.
        if mode == "shared":
            assert max(len(part) for part in parts) == 1

    def test_all_equal_degrees_balance_by_count(self):
        # A cycle: every vertex has degree 2, so the only workload skew
        # is the (n - v)/n vertex-id scaling; counts must still split
        # near-evenly.
        n = 24
        g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
        parts = distribute_pivots(g, list(range(n)), 4, mode="shared")
        self._assert_exact_cover(parts, list(range(n)))
        sizes = sorted(len(part) for part in parts)
        assert sizes[-1] - sizes[0] <= 2
        self._assert_bounded_imbalance(g, parts, "shared")

    def test_single_giant_degree_pivot(self):
        # A star center dwarfs every leaf; it must be isolated on its
        # own machine, with the leaves spread over the remaining ones.
        n = 41
        g = Graph(n, [(0, v) for v in range(1, n)])
        pivots = list(range(n))
        parts = distribute_pivots(g, pivots, 4, mode="shared")
        self._assert_exact_cover(parts, pivots)
        home = next(part for part in parts if 0 in part)
        assert home == [0], "giant pivot must not drag leaves along"
        self._assert_bounded_imbalance(g, parts, "shared")

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_shapes_cover_and_balance(self, seed):
        import random

        rng = random.Random(seed)
        g = power_law(rng.randint(20, 120), rng.randint(2, 5), seed=seed)
        pivots = sorted(
            rng.sample(range(g.num_vertices),
                       rng.randint(1, g.num_vertices))
        )
        machines = rng.randint(1, 6)
        mode = rng.choice(["memory", "shared"])
        parts = distribute_pivots(g, pivots, machines, mode=mode)
        assert len(parts) == machines
        self._assert_exact_cover(parts, pivots)
        self._assert_bounded_imbalance(g, parts, mode)


class TestStorageModels:
    def test_in_memory_charges_nothing(self, data):
        storage = InMemoryStorage(data)
        g = storage.graph_for_machine(0)
        g.neighbors(0)
        g.has_edge(0, 1)
        assert storage.io_cost == 0.0

    def test_shared_charges_per_first_touch(self, data):
        storage = SharedStorage(data)
        g = storage.graph_for_machine(0)
        g.neighbors(0)
        first = storage.io_cost
        g.neighbors(0)  # cached
        assert storage.io_cost == first
        g.neighbors(1)
        assert storage.io_cost > first
        assert storage.io_requests == 2

    def test_tracked_graph_forwards_metadata(self, data):
        storage = SharedStorage(data)
        g = storage.graph_for_machine(0)
        assert g.num_vertices == data.num_vertices
        assert g.degree(3) == data.degree(3)
        assert g.labels_of(0) == data.labels_of(0)

    def test_memory_footprints(self, data):
        replicated = InMemoryStorage(data)
        shared = SharedStorage(data)
        assert shared.memory_bytes_per_machine(4) < replicated.memory_bytes_per_machine(4)


class TestDistributedRuns:
    def test_embeddings_match_sequential(self, triangle_query, data):
        sequential = set(CECIMatcher(triangle_query, data).match())
        for mode in ("memory", "shared"):
            result = DistributedCECI(
                triangle_query, data, num_machines=4, mode=mode
            ).run()
            assert set(result.embeddings) == sequential
            assert len(result.embeddings) == len(sequential)

    def test_speedup_with_more_machines(self, triangle_query, data):
        t1 = DistributedCECI(triangle_query, data, num_machines=1).run()
        t8 = DistributedCECI(triangle_query, data, num_machines=8).run()
        assert t8.total_time < t1.total_time

    def test_shared_mode_has_io_in_breakdown(self, triangle_query, data):
        result = DistributedCECI(
            triangle_query, data, num_machines=4, mode="shared"
        ).run()
        breakdown = result.construction_breakdown()
        assert breakdown["io"] > 0
        assert breakdown["compute"] > 0

    def test_memory_mode_has_no_io(self, triangle_query, data):
        result = DistributedCECI(
            triangle_query, data, num_machines=4, mode="memory"
        ).run()
        assert result.construction_breakdown()["io"] == 0.0

    def test_work_stealing_happens_on_imbalance(self, triangle_query, data):
        sequential = set(CECIMatcher(triangle_query, data).match())
        for mode in ("memory", "shared"):
            result = DistributedCECI(
                triangle_query, data, num_machines=8, mode=mode
            ).run()
            steals = sum(r.steals for r in result.reports)
            assert steals > 0, mode
            assert steals == result.stats.steals
            assert set(result.embeddings) == sequential
            assert len(result.embeddings) == len(sequential)
            # every machine report accounts its pivots
            all_pivots = sorted(v for r in result.reports for v in r.pivots)
            assert len(all_pivots) == len(set(all_pivots))

    def test_unknown_mode_rejected(self, triangle_query, data):
        with pytest.raises(ValueError):
            DistributedCECI(triangle_query, data, mode="floppy")


class TestDistributedEdgeCases:
    """Degenerate cluster topologies must still yield the exact
    sequential embedding set (satellite of the resilience PR)."""

    @pytest.fixture(scope="class")
    def tiny_data(self):
        # Two disjoint triangles: at most 6 cluster pivots, so any
        # machine count above that leaves machines with no work.
        return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])

    def test_more_machines_than_pivots(self, triangle_query, tiny_data):
        sequential = set(CECIMatcher(triangle_query, tiny_data).match())
        result = DistributedCECI(
            triangle_query, tiny_data, num_machines=8
        ).run()
        assert set(result.embeddings) == sequential
        assert len(result.embeddings) == len(sequential)
        assert any(not r.pivots for r in result.reports)

    def test_zero_pivot_machine_report_is_benign(
        self, triangle_query, tiny_data
    ):
        result = DistributedCECI(
            triangle_query, tiny_data, num_machines=8
        ).run()
        idle = [r for r in result.reports if not r.pivots]
        assert idle  # 8 machines cannot all own a pivot here
        for report in idle:
            assert report.construction_io == 0.0
            assert report.construction_compute == 0.0
            assert report.local_enumeration == 0.0
