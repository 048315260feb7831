"""Tests for the resilience layer: enumeration budgets, deterministic
fault injection, and crash recovery in the service's thread pool."""

import pytest

from repro import CECIMatcher, Graph
from repro.graph import power_law
from repro.resilience import (
    Budget,
    BudgetExhausted,
    FaultPlan,
    PartialResult,
    RetryPolicy,
)
from repro.service import MatchRequest, MatchService


@pytest.fixture(scope="module")
def data():
    return power_law(300, 4, seed=67)


@pytest.fixture(scope="module")
def triangle_query():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="module")
def sequential(triangle_query, data):
    return set(CECIMatcher(triangle_query, data).match())


class TestBudget:
    def test_rejects_non_positive_axes(self):
        with pytest.raises(ValueError):
            Budget(deadline_seconds=0)
        with pytest.raises(ValueError):
            Budget(max_calls=-1)

    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_calls=10).unlimited

    def test_tracker_max_calls(self):
        tracker = Budget(max_calls=3).tracker().start()
        for _ in range(3):
            tracker.charge_call()
        with pytest.raises(BudgetExhausted) as err:
            tracker.charge_call()
        assert err.value.reason == "max_calls"

    def test_tracker_max_embeddings(self):
        tracker = Budget(max_embeddings=2).tracker().start()
        tracker.charge_embedding(3)
        tracker.charge_embedding(3)
        with pytest.raises(BudgetExhausted) as err:
            tracker.charge_embedding(3)
        assert err.value.reason == "max_embeddings"

    def test_tracker_memory(self):
        tracker = Budget(max_memory_bytes=100).tracker().start()
        tracker.charge_embedding(3)  # 56 + 24 = 80 bytes
        with pytest.raises(BudgetExhausted) as err:
            tracker.charge_embedding(3)
        assert err.value.reason == "max_memory"

    def test_expired_deadline_detected(self):
        tracker = Budget(deadline_seconds=1e-9).tracker().start()
        assert tracker.deadline_passed()
        with pytest.raises(BudgetExhausted):
            tracker.check_deadline()


class TestBudgetedMatcher:
    def test_max_calls_truncates(self, triangle_query, data, sequential):
        matcher = CECIMatcher(triangle_query, data, budget=Budget(max_calls=40))
        result = matcher.run()
        assert result.truncated and not result.exhausted
        assert result.stop_reason == "max_calls"
        assert 0 < len(result) < len(sequential)
        assert matcher.stats.budget_stops == 1
        # the partial answer contains only true embeddings
        assert set(result.embeddings) <= sequential

    def test_max_embeddings_truncates_exactly(self, triangle_query, data):
        matcher = CECIMatcher(
            triangle_query, data, budget=Budget(max_embeddings=10)
        )
        result = matcher.run()
        assert result.truncated and result.stop_reason == "max_embeddings"
        assert len(result) == 10

    def test_tight_deadline_returns_instead_of_hanging(
        self, triangle_query, data
    ):
        matcher = CECIMatcher(
            triangle_query, data, budget=Budget(deadline_seconds=1e-9)
        )
        result = matcher.run()
        assert result.truncated and result.stop_reason == "deadline"

    def test_unbudgeted_run_is_exhaustive(
        self, triangle_query, data, sequential
    ):
        result = CECIMatcher(triangle_query, data).run()
        assert result.exhausted and not result.truncated
        assert set(result.embeddings) == sequential

    def test_limit_cut_is_neither_exhausted_nor_truncated(
        self, triangle_query, data
    ):
        result = CECIMatcher(triangle_query, data).run(limit=5)
        assert len(result) == 5
        assert not result.truncated and not result.exhausted

    def test_generous_budget_unchanged_result(
        self, triangle_query, data, sequential
    ):
        matcher = CECIMatcher(
            triangle_query, data, budget=Budget(max_calls=10**9)
        )
        result = matcher.run()
        assert result.exhausted
        assert set(result.embeddings) == sequential

    def test_budgeted_generator_path(self, triangle_query, data):
        matcher = CECIMatcher(triangle_query, data, budget=Budget(max_calls=40))
        enumerator = matcher.enumerator()
        found = list(enumerator.embeddings())
        assert enumerator.truncated
        assert enumerator.stop_reason == "max_calls"
        assert found  # partial, not empty, and did not raise


class TestBatchedBudgets:
    """Budget semantics under the set-at-a-time engine (DESIGN.md §12):
    blocks are charged and truncated in bulk, but the PartialResult the
    caller sees — flags, stop reason, and the exact cut point — must be
    indistinguishable from the edge-verification recursion's."""

    def _run(self, query, data, engine, budget=None, limit=None):
        """``engine`` names the path: "batch" (intersection) or
        "recursive" (the edge-verification recursion)."""
        matcher = CECIMatcher(
            query, data, use_intersection=engine == "batch", budget=budget
        )
        assert matcher.enumerator().engine == engine
        return matcher.run(limit=limit), matcher

    def test_truncated_flags_under_batching(self, triangle_query, data):
        result, matcher = self._run(
            triangle_query, data, "batch", Budget(max_calls=40)
        )
        assert result.truncated and not result.exhausted
        assert result.stop_reason == "max_calls"
        assert matcher.stats.budget_stops == 1
        assert matcher.stats.batch_blocks > 0  # the batch path ran

    def test_unbudgeted_batch_run_is_exhausted(self, triangle_query, data):
        result, matcher = self._run(triangle_query, data, "batch")
        assert result.exhausted and not result.truncated
        assert result.stop_reason is None
        assert matcher.stats.batch_blocks > 0

    def test_max_embeddings_lands_mid_block_exactly(
        self, triangle_query, data
    ):
        """Leaf blocks hold many embeddings at once; the cut must land
        on the exact embedding, and the kept rows must be the same
        DFS prefix the unbudgeted run starts with."""
        full, _ = self._run(triangle_query, data, "batch")
        total = len(full)
        for cap in (1, 10, total - 1):
            result, _ = self._run(
                triangle_query, data, "batch", Budget(max_embeddings=cap)
            )
            assert len(result) == cap
            assert result.truncated
            assert result.stop_reason == "max_embeddings"
            assert list(result) == list(full)[:cap]

    @pytest.mark.parametrize("max_calls", [25, 40, 100])
    def test_budget_cut_matches_recursive_engine(
        self, max_calls, triangle_query, data
    ):
        b_result, bm = self._run(
            triangle_query, data, "batch", Budget(max_calls=max_calls)
        )
        r_result, rm = self._run(
            triangle_query, data, "recursive", Budget(max_calls=max_calls)
        )
        assert list(b_result) == list(r_result)
        assert b_result.truncated == r_result.truncated
        assert b_result.stop_reason == r_result.stop_reason
        assert bm.stats.recursive_calls == rm.stats.recursive_calls

    def test_deadline_stop_loses_and_duplicates_nothing(
        self, triangle_query, data
    ):
        """A deadline can expire anywhere inside the block loop; the
        partial answer must still be a clean prefix of the unbudgeted
        stream — no row committed twice, none silently dropped."""
        full, _ = self._run(triangle_query, data, "batch")
        result, _ = self._run(
            triangle_query, data, "batch", Budget(deadline_seconds=1e-9)
        )
        assert result.truncated and result.stop_reason == "deadline"
        got = list(result)
        assert len(set(got)) == len(got)
        assert got == list(full)[: len(got)]

    def test_limit_cut_mid_block_is_not_truncated(
        self, triangle_query, data
    ):
        result, _ = self._run(triangle_query, data, "batch", limit=7)
        assert len(result) == 7
        assert not result.truncated and not result.exhausted


class TestPartialResult:
    def test_container_protocol(self):
        result = PartialResult([(0, 1), (2, 3)])
        assert len(result) == 2
        assert list(result) == [(0, 1), (2, 3)]
        assert bool(result)
        assert not PartialResult([])


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(scheduler_stall_seconds=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(shard_stall_picks=frozenset({(0, 0)}))

    def test_service_chaos_replays_by_seed(self):
        def plan(seed):
            return FaultPlan.service_chaos(
                seed, requests=24, num_shards=2, shard_crash_fraction=0.2
            )

        assert plan(42) == plan(42)
        assert any(plan(seed) != plan(42) for seed in range(8))


class TestRecoveryPrimitives:
    def test_retry_policy(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(2) and not policy.allows(3)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestParallelCrashSafety:
    """The service's worker pool under an injected worker crash (the
    full crash matrix is ``tests/test_service_chaos.py``)."""

    @pytest.mark.parametrize("limit", [1, 7, 50])
    def test_limit_exact_under_faults(self, limit, triangle_query, data):
        reference = CECIMatcher(triangle_query, data).match()
        plan = FaultPlan(seed=1, thread_crash_picks=frozenset({0}))
        with MatchService(
            data, workers=4, fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2),
        ) as service:
            response = service.match(
                MatchRequest(triangle_query, limit=limit)
            )
        assert response.ok, response.error
        assert response.retries == 1
        assert response.embeddings == reference[:limit]


class TestAcceptanceScenario:
    """One worker thread of 4 crashes mid-run; the service still returns
    the exact sequential set and exposes the recovery work."""

    def test_both_paths_survive_chaos(self, triangle_query, data, sequential):
        plan = FaultPlan(seed=42, thread_crash_picks=frozenset({2}))
        with MatchService(
            data, workers=4, fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2),
        ) as service:
            response = service.match(MatchRequest(triangle_query))
        assert response.ok, response.error
        assert set(response.embeddings) == sequential
        assert len(response.embeddings) == len(sequential)
        assert response.retries == 1

    def test_tight_budget_returns_partial_not_unbounded(
        self, triangle_query, data
    ):
        matcher = CECIMatcher(
            triangle_query, data, budget=Budget(max_calls=25)
        )
        result = matcher.run()
        assert result.truncated
        assert not result.exhausted
        assert matcher.stats.recursive_calls <= 25 + 1
