"""Front-end contracts that must hold on either executor.

Deadlines, cancellation, bounded close, retries and the query history
all live in the :class:`~repro.service.service.MatchService` front end,
so every test here runs twice: on the thread executor
(``MatchService``) and on the shard executor (``ShardedMatchService``).
Each holds one request in flight deterministically by gating the index
cache's ``get_or_build`` — the front end's own step, identical for both
executors.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

import pytest

from repro.core.matcher import CECIMatcher
from repro.graph import Graph, inject_labels
from repro.graph.generators import power_law
from repro.observability import read_history
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RetryPolicy
from repro.service import (
    MatchRequest,
    MatchService,
    ShardedMatchService,
    Status,
    generate_workload,
)

EXECUTORS = ("threads", "shards")


def _workload() -> Tuple[Graph, List[Graph], List[int]]:
    data = inject_labels(power_law(150, 3, seed=5), 3, seed=5)
    queries = generate_workload(
        data, 3, seed=5, min_vertices=3, max_vertices=5, max_embeddings=500
    )
    counts = [
        CECIMatcher(q, data, break_automorphisms=False).count()
        for q in queries
    ]
    return data, queries, counts


def _service(executor: str, data: Graph, **kwargs) -> MatchService:
    if executor == "shards":
        return ShardedMatchService(data, shards=2, **kwargs)
    return MatchService(data, workers=2, **kwargs)


def _gate(service: MatchService):
    """Block the first index resolution until the returned ``gate`` is
    set; ``entered`` fires once a request is held there."""
    gate = threading.Event()
    entered = threading.Event()
    original = service.index_cache.get_or_build

    def gated(query, build):
        entered.set()
        assert gate.wait(timeout=60)
        return original(query, build)

    service.index_cache.get_or_build = gated
    return gate, entered


def _request(query: Graph, **kwargs) -> MatchRequest:
    return MatchRequest(query, break_automorphisms=False, **kwargs)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_deadline_resolves_without_waiting_for_the_held_request(executor):
    data, queries, counts = _workload()
    with _service(executor, data) as service:
        gate, entered = _gate(service)
        try:
            started = time.perf_counter()
            handle = service.submit(
                _request(queries[0], deadline_seconds=0.1)
            )
            assert entered.wait(timeout=30)
            response = handle.result(timeout=10)
            assert response.status == Status.TIMEOUT
            assert response.embeddings == []
            assert "deadline" in (response.error or "")
            assert time.perf_counter() - started < 5.0
        finally:
            gate.set()
        again = service.match(_request(queries[0]))
        assert again.ok and again.count == counts[0]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_cancel_resolves_cancelled(executor):
    data, queries, counts = _workload()
    with _service(executor, data) as service:
        gate, entered = _gate(service)
        try:
            handle = service.submit(_request(queries[1]))
            assert entered.wait(timeout=30)
            assert handle.cancel() is True
            response = handle.result(timeout=10)
            assert response.status == Status.CANCELLED
            assert response.embeddings == []
            assert handle.cancel() is False
        finally:
            gate.set()
        again = service.match(_request(queries[1]))
        assert again.ok and again.count == counts[1]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_close_timeout_resolves_the_held_request(executor):
    data, queries, _ = _workload()
    service = _service(executor, data)
    gate, entered = _gate(service)
    try:
        handle = service.submit(_request(queries[0]))
        assert entered.wait(timeout=30)
        started = time.monotonic()
        assert service.close(timeout=0.5) is False  # a thread is held
        assert time.monotonic() - started < 10.0
        response = handle.result(timeout=5)
        assert response.status == Status.TIMEOUT
        assert "close" in (response.error or "")
        with pytest.raises(RuntimeError):
            service.submit(_request(queries[0]))
    finally:
        gate.set()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_build_fault_is_retried(executor):
    data, queries, counts = _workload()
    plan = FaultPlan(seed=1, build_failure_picks=frozenset({0}))
    with _service(
        executor, data, fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=2),
    ) as service:
        response = service.match(_request(queries[0]))
        assert response.ok, response.error
        assert response.retries == 1
        assert response.count == counts[0]
        assert service.metrics.get("service_retries_total") == 1


@pytest.mark.parametrize("executor", EXECUTORS)
def test_failing_dispatch_fails_the_request_and_scheduling_goes_on(executor):
    data, queries, _ = _workload()
    expected = CECIMatcher(queries[0], data, break_automorphisms=False).match()
    service = _service(executor, data)
    try:
        run_units = service.executor.run_units
        raised = []

        def raise_once(*args):
            if not raised:
                raised.append(True)
                raise RuntimeError("dispatch broke")
            return run_units(*args)

        service.executor.run_units = raise_once
        first = service.submit(_request(queries[0])).result(timeout=10)
        assert first.status != Status.OK
        assert "dispatch broke" in (first.error or "")
        second = service.submit(_request(queries[0])).result(timeout=30)
        assert second.ok, second.error
        assert [tuple(e) for e in second.embeddings] == [
            tuple(e) for e in expected
        ]
    finally:
        # Bounded, so a dead scheduler fails the test instead of hanging.
        service.close(timeout=10)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_history_has_one_line_per_response_in_submission_order(
    executor, tmp_path
):
    data, queries, _ = _workload()
    path = str(tmp_path / "history.jsonl")
    with _service(executor, data, history=path) as service:
        responses = [
            service.match(_request(queries[0])),
            service.match(_request(queries[1], limit=2)),
            service.match(_request(queries[0])),
        ]
    records = read_history(path)
    assert [r["request_id"] for r in records] == [
        response.request_id for response in responses
    ]
    assert [r["status"] for r in records] == [
        response.status for response in responses
    ]
    assert [r["cache"] for r in records] == ["miss", "miss", "hit"]


@pytest.mark.parametrize(
    "option", ["workers", "stall_after_seconds", "watchdog_interval"]
)
def test_shard_executor_refuses_thread_only_options(option):
    data, _, _ = _workload()
    with pytest.raises(TypeError, match=option):
        ShardedMatchService(data, **{option: 1})
