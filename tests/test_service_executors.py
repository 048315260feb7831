"""Front-end contracts that must hold on either executor.

Deadlines, cancellation, bounded close, retries and the query history
all live in the :class:`~repro.service.service.MatchService` front end,
so every test here runs twice: on the thread executor
(``MatchService``) and on the shard executor (``ShardedMatchService``).
Each holds one request in flight deterministically by gating the index
cache's ``get_or_build`` — the front end's own step, identical for both
executors.  Both executors also run one unit model: a batched request
becomes one task per non-empty share of the front end's LPT plan.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from types import SimpleNamespace
from typing import List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.enumeration import embedding_tuples
from repro.core.matcher import CECIMatcher
from repro.graph import Graph, inject_labels
from repro.graph.generators import power_law
from repro.observability import read_history
from repro.parallel.scheduling import dynamic_schedule
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RetryPolicy
from repro.service import service as service_module
from repro.service import (
    MatchRequest,
    MatchService,
    ShardedMatchService,
    Status,
    generate_workload,
)

EXECUTORS = ("threads", "shards")

#: Worker threads, or shard processes, of every service built here.
WORKERS = 2


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
        return ShardedMatchService(data, shards=WORKERS, **kwargs)
    return MatchService(data, workers=WORKERS, **kwargs)


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


def _lpt_shares(
    query: Graph, data: Graph, workers: int
) -> Tuple[List[int], List[Set[int]]]:
    """The pivots of the built index and the non-empty pivot sets of the
    LPT plan over their ``cluster_cardinality`` workloads."""
    store = CECIMatcher(query, data, break_automorphisms=False).build()
    pivots = [int(p) for p in store.pivots]
    weights = [
        max(float(store.cluster_cardinality(p)), 1.0) for p in pivots
    ]
    order = sorted(range(len(pivots)), key=weights.__getitem__, reverse=True)
    plan = dynamic_schedule([weights[i] for i in order], workers)
    shares = [{pivots[order[i]] for i in units} for units in plan.worker_units]
    return pivots, [share for share in shares if share]


def _record_shares(
    executor: str, service: MatchService, monkeypatch
) -> List[List[int]]:
    """The pivots of every batched task the executor runs: thread tasks
    as they enter the shared task body, shard tasks as they are queued
    for their shard."""
    shares: List[List[int]] = []
    if executor == "shards":
        enqueue = service.executor._enqueue

        def queued(shard, task, solo=False):
            if not solo:
                shares.append(list(task.spec["pivots"]))
            return enqueue(shard, task, solo=solo)

        service.executor._enqueue = queued
    else:
        run_task = service_module.run_task

        def ran(store, symmetry, share, limit, tracker):
            if share is not None:
                shares.append(list(share))
            return run_task(store, symmetry, share, limit, tracker)

        monkeypatch.setattr(service_module, "run_task", ran)
    return shares


@pytest.mark.parametrize("executor", EXECUTORS)
def test_batched_request_runs_one_task_per_lpt_share(executor, monkeypatch):
    """More pivots than workers: the request becomes min(workers,
    pivots) batched tasks, each holding exactly one LPT share, and the
    merged list is the sequential matcher's."""
    data, queries, _ = _workload()
    query = queries[0]
    pivots, expected = _lpt_shares(query, data, WORKERS)
    assert len(pivots) > WORKERS
    sequential = CECIMatcher(query, data, break_automorphisms=False).match()
    with _service(executor, data) as service:
        shares = _record_shares(executor, service, monkeypatch)
        response = service.match(_request(query))
        assert response.ok, response.error
        tasks = (
            service.metrics.get("service_shard_tasks_total")
            if executor == "shards"
            else service.executor.snapshot()["scheduler"]["pushed_units"]
        )
        assert tasks == len(shares) == min(WORKERS, len(pivots))
        assert sorted(map(sorted, shares)) == sorted(map(sorted, expected))
        assert service.metrics.get("service_units_total") == len(pivots)
        assert [tuple(e) for e in response.embeddings] == [
            tuple(e) for e in sequential
        ]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_random_shares_and_reply_order_merge_exactly(executor, monkeypatch):
    """Whatever shares the plan cuts and whatever order their packed
    replies arrive in, the response is the sequential matcher's list."""
    data, queries, _ = _workload()
    expected = [
        CECIMatcher(q, data, break_automorphisms=False).match()
        for q in queries
    ]
    workers = 3
    if executor == "shards":
        service = ShardedMatchService(data, shards=workers)
    else:
        service = MatchService(data, workers=workers)
    # Hypothesis draws each example's shares and reply order; the
    # patched plan and callback read them from ``draw``.
    draw = SimpleNamespace(rng=random.Random(0), shares=1)

    def random_plan(costs, count):
        units = [[] for _ in range(count)]
        for i in range(len(costs)):
            units[draw.rng.randrange(draw.shares)].append(i)
        return SimpleNamespace(worker_units=units, makespan=0.0, skew=1.0)

    held = {}
    task_done = service._task_done

    def shuffled_replies(job, payload, *args, **kwargs):
        replies = held.setdefault(job, [])
        replies.append((payload, args, kwargs))
        if sum(reply[0]["units"] for reply in replies) < len(job.pivots):
            return
        del held[job]
        draw.rng.shuffle(replies)
        for payload, args, kwargs in replies:
            task_done(job, payload, *args, **kwargs)

    monkeypatch.setattr(service_module, "dynamic_schedule", random_plan)
    service._task_done = shuffled_replies

    @settings(max_examples=15, deadline=None)
    @given(
        index=st.integers(0, len(queries) - 1),
        shares=st.integers(1, workers),
        seed=st.integers(0, 2**16),
    )
    def check(index, shares, seed):
        draw.rng = random.Random(seed)
        draw.shares = shares
        # Plan every example afresh: drop the cached indexes' plans.
        for entry in service.index_cache._lru.values():
            entry.unit_plan = None
        response = service.match(_request(queries[index]))
        assert response.ok, response.error
        assert response.embeddings == expected[index]

    try:
        check()
    finally:
        service.close(timeout=30)


def test_row_dtype_is_the_narrowest_that_holds_every_vertex():
    # A stub vertex count: no graph of that size is built.
    assert service_module._row_dtype(2**31 - 1) == np.int32
    assert service_module._row_dtype(2**31) == np.int64
    assert service_module._row_dtype(2**40) == np.int64


@st.composite
def _row_blocks(draw):
    """An int32 or int64 block (0-12 rows, 1-8 columns, any value of its
    dtype) in every layout a reply or an engine block can take:
    C-contiguous, a row slice, a column-strided view and Fortran order."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 8))
    base = draw(hnp.arrays(
        dtype, (rows + 2, 2 * cols),
        elements=st.integers(int(info.min), int(info.max)),
    ))
    return [
        np.ascontiguousarray(base[:rows, :cols]),
        np.ascontiguousarray(base[:, :cols])[1:rows + 1],
        base[1:rows + 1, ::2],
        np.asfortranarray(base[:rows, :cols]),
    ]


@settings(max_examples=200, deadline=None)
@given(blocks=_row_blocks(), data=st.data())
def test_decode_equals_row_wise_conversion(blocks, data):
    """``embedding_tuples`` is ``map(tuple, tolist())`` with plain
    ``int`` elements, and ``_decode_rows`` is the per-pivot split of
    those tuples, for every dtype, value and layout."""
    root = data.draw(st.integers(0, blocks[0].shape[1] - 1))
    for block in blocks:
        expected = list(map(tuple, block.tolist()))
        got = embedding_tuples(block)
        assert got == expected
        assert all(type(v) is int for row in got for v in row)
        # A share's rows arrive grouped by pivot (the root column).
        grouped = block[np.argsort(block[:, root], kind="stable")]
        split = {}
        for row in map(tuple, grouped.tolist()):
            split.setdefault(row[root], []).append(row)
        parts = service_module._decode_rows(grouped, root)
        assert parts == split
        assert list(parts) == list(split)
        assert all(type(pivot) is int for pivot in parts)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_finished_answer_is_freed_by_refcount(executor):
    """With the cyclic collector off, a caller that drops a response
    and its handle frees the job and the answer list: nothing holds
    them in a reference cycle.  ``progress()`` on a resolved handle
    reports the final unit count and the response's stats."""
    data, queries, _ = _workload()
    query = queries[0]
    pivots, _ = _lpt_shares(query, data, WORKERS)

    def leftovers(first):
        """Live jobs, and live lists that start with ``first``."""
        return [
            o for o in gc.get_objects()
            if isinstance(o, service_module._Job)
            or (type(o) is list and o and o[0] is first)
        ]

    with _service(executor, data) as service:
        for request, units in (
            (_request(query), len(pivots)),
            (_request(query, limit=5), 0),
        ):
            gc.collect()
            gc.disable()
            try:
                pending = service.submit(request)
                response = pending.result(timeout=60)
                assert response.ok, response.error
                assert pending.progress() == (units, response.stats)
                assert pending.progress()[1] is response.stats
                first = response.embeddings[0]
                del pending, response
                # The resolving thread may still be unwinding its frame.
                deadline = time.monotonic() + 10
                while leftovers(first) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert leftovers(first) == []
            finally:
                gc.enable()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_each_cached_index_is_planned_once(executor, monkeypatch):
    """Requests on one cached index reuse its LPT plan, which equals a
    freshly computed one; an evicted and rebuilt index is planned
    afresh; the plan gauges and the flight ``planned`` event still come
    once per request."""
    data, queries, _ = _workload()
    query, other = queries[0], queries[1]
    _, expected = _lpt_shares(query, data, WORKERS)
    plans = []
    schedule = service_module.dynamic_schedule

    def counted(costs, workers):
        plans.append(len(costs))
        return schedule(costs, workers)

    monkeypatch.setattr(service_module, "dynamic_schedule", counted)
    with _service(
        executor, data, index_capacity=1, flight_records=16
    ) as service:
        gauges = []
        set_gauge = service.metrics.set_gauge

        def recorded(name, value):
            gauges.append(name)
            return set_gauge(name, value)

        service.metrics.set_gauge = recorded
        shares = _record_shares(executor, service, monkeypatch)
        for _ in range(2):
            assert service.match(_request(query)).ok
        assert len(plans) == 1
        assert sorted(map(sorted, shares)) == sorted(
            map(sorted, expected + expected)
        )
        assert service.match(_request(other)).ok  # evicts ``query``
        assert len(plans) == 2
        assert service.match(_request(query)).ok  # rebuilt: fresh plan
        assert len(plans) == 3
        records = service.flight_records()
        assert len(records) == 4
        for record in records:
            events = [e["ev"] for e in record["events"]]
            assert events.count("planned") == 1
        for name in ("service_plan_makespan", "service_plan_skew"):
            assert gauges.count(name) == 4


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
