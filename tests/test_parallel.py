"""Tests for scheduling policies, the thread executor and the
simulated-time executor."""

import pytest

from repro import CECIMatcher, Graph
from repro.graph import power_law
from repro.service import MatchRequest, MatchService
from repro.parallel import (
    dynamic_schedule,
    measure_unit_costs,
    simulate_policy,
    speedup_curve,
    static_schedule,
)


@pytest.fixture
def matcher(triangle):
    return CECIMatcher(triangle, power_law(300, 4, seed=67))


class TestStaticSchedule:
    def test_all_units_assigned_once(self):
        assignment = static_schedule([1.0] * 10, 3)
        seen = [i for units in assignment.worker_units for i in units]
        assert sorted(seen) == list(range(10))

    def test_equal_count_blocks(self):
        assignment = static_schedule([1.0] * 9, 3)
        assert [len(u) for u in assignment.worker_units] == [3, 3, 3]

    def test_makespan_is_max_block_sum(self):
        assignment = static_schedule([5.0, 1.0, 1.0, 1.0], 2)
        assert assignment.makespan == 6.0  # first block gets 5+1

    def test_empty_units(self):
        assignment = static_schedule([], 4)
        assert assignment.makespan == 0.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            static_schedule([1.0], 0)


class TestDynamicSchedule:
    def test_all_units_assigned_once(self):
        assignment = dynamic_schedule([1.0, 2.0, 3.0, 4.0], 2)
        seen = [i for units in assignment.worker_units for i in units]
        assert sorted(seen) == [0, 1, 2, 3]

    def test_balances_skew_better_than_static(self):
        costs = [100.0] + [1.0] * 99
        static = static_schedule(costs, 4)
        dynamic = dynamic_schedule(costs, 4)
        assert dynamic.makespan <= static.makespan

    def test_pull_overhead_charged(self):
        cheap = dynamic_schedule([1.0] * 8, 2, pull_overhead=0.0)
        pricey = dynamic_schedule([1.0] * 8, 2, pull_overhead=1.0)
        assert pricey.makespan > cheap.makespan

    def test_skew_metric(self):
        balanced = dynamic_schedule([1.0] * 8, 2)
        assert balanced.skew == pytest.approx(1.0)


class TestThreadExecutor:
    """The in-process thread executor is the service's: its worker pool
    returns the sequential answer (FGD-unit exactness is pinned by
    ``test_properties.py::test_work_units_partition_embeddings`` and
    ``test_enumeration_clusters.py::TestWorkUnits``)."""

    def test_limit_respected(self, matcher, triangle):
        reference = matcher.match()
        with MatchService(matcher.data, workers=4) as service:
            response = service.match(MatchRequest(triangle, limit=7))
        assert response.ok, response.error
        assert response.embeddings == reference[:7]

    def test_single_worker(self, triangle):
        data = power_law(100, 3, seed=71)
        sequential = CECIMatcher(triangle, data).match()
        with MatchService(data, workers=1) as service:
            response = service.match(MatchRequest(triangle))
        assert response.ok, response.error
        assert response.embeddings == sequential

    def test_invalid_worker_count_rejected(self, matcher):
        with pytest.raises(ValueError):
            MatchService(matcher.data, workers=0)


class TestSimulator:
    def test_unit_costs_sum_close_to_sequential(self, matcher, triangle):
        units = matcher.work_units(beta=None)
        costs = measure_unit_costs(matcher, units)
        fresh = CECIMatcher(triangle, matcher.data)
        fresh.match()
        # per-unit re-enumeration counts the same recursive calls
        assert sum(costs) == pytest.approx(fresh.stats.recursive_calls, rel=0.05)

    def test_policy_ordering_on_skewed_workload(self, matcher):
        st = simulate_policy(matcher, workers=8, policy="ST")
        cgd = simulate_policy(matcher, workers=8, policy="CGD")
        assert cgd.makespan <= st.makespan

    def test_fgd_bounds_largest_unit(self, matcher):
        fgd = simulate_policy(matcher, workers=8, policy="FGD", beta=0.5)
        total = fgd.sequential_cost
        # no worker is stuck with a monolithic extreme cluster
        assert fgd.makespan <= total  # sanity
        assert max(fgd.assignment.finish_times) > 0

    def test_speedup_curve_monotone_early(self, matcher):
        curve = speedup_curve(matcher, [1, 2, 4], policy="CGD")
        assert curve[2] > curve[1] * 1.2
        assert curve[4] > curve[2] * 1.2

    def test_unknown_policy_rejected(self, matcher):
        with pytest.raises(ValueError):
            simulate_policy(matcher, workers=2, policy="XYZ")

    def test_worker_finish_times_exposed(self, matcher):
        result = simulate_policy(matcher, workers=4, policy="CGD")
        assert len(result.worker_finish_times) == 4
