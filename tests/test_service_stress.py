"""Concurrency stress for the resident match service.

N client threads hammer one service with a mixed seeded workload and
every response is checked against precomputed sequential counts.  What
must hold under contention:

* **no cross-request bleed** — each response's ``stats`` describe that
  request alone (``embeddings_found == count``), even though all
  requests share one index cache and one metrics registry;
* **no torn index reuse** — every repeat of a query, from any thread
  and any cache tier, reports the same embedding count;
* **rejected requests touch nothing** — a request shed at admission
  resolves immediately and leaves every shared counter and cache slot
  exactly as it found them.

The module-level tests are the fast tier-1 subset; the
``@pytest.mark.slow`` test scales the same invariants up (more
threads, more queries, budgets and limits mixed in, admission shedding
allowed) and is excluded from the CI tier-1 job via ``-m "not slow"``
but run by the dedicated service job under a hard timeout.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.matcher import CECIMatcher
from repro.core.stats import MatchStats
from repro.graph import Graph, inject_labels
from repro.graph.generators import power_law
from repro.resilience.budget import Budget
from repro.service import service as service_module
from repro.service import (
    MatchRequest,
    MatchService,
    Status,
    generate_workload,
)


def _workload(
    vertices: int, labels: int, queries: int, seed: int, cap: int = 500
) -> Tuple[Graph, List[Graph], List[int]]:
    """(data, queries, sequential counts) — counts are the ground truth
    every concurrent response is checked against."""
    data = inject_labels(power_law(vertices, 3, seed=seed), labels, seed=seed)
    pool = generate_workload(
        data, queries, seed=seed, min_vertices=3, max_vertices=5,
        max_embeddings=cap,
    )
    counts = [
        CECIMatcher(q, data, break_automorphisms=False).count() for q in pool
    ]
    return data, pool, counts


def _hammer(
    service: MatchService,
    queries: List[Graph],
    counts: List[int],
    threads: int,
    rounds: int,
    seed: int,
    budgets: bool = False,
) -> Dict[str, int]:
    """Drive the service from ``threads`` clients; raise on the first
    broken invariant.  Returns the observed status tally."""
    errors: List[str] = []
    statuses: Dict[str, int] = {status: 0 for status in Status.ALL}
    tally_lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def check(index: int, response, limit: Optional[int]) -> None:
        with tally_lock:
            statuses[response.status] += 1
        if response.status == Status.REJECTED:
            return  # legal under shedding; checked separately
        if response.status == Status.FAILED:
            raise AssertionError(f"query {index} failed: {response.error}")
        expected = counts[index]
        if limit is not None:
            expected = min(limit, expected)
        if response.count != expected:
            raise AssertionError(
                f"query {index} returned {response.count} embeddings, "
                f"expected {expected} (cache {response.cache}, "
                f"status {response.status})"
            )
        if response.stats.embeddings_found != response.count:
            raise AssertionError(
                f"query {index}: stats bleed — embeddings_found="
                f"{response.stats.embeddings_found} but count="
                f"{response.count}"
            )

    def client(tid: int) -> None:
        rng = random.Random(seed * 1000 + tid)
        barrier.wait()
        try:
            for _ in range(rounds):
                index = rng.randrange(len(queries))
                limit: Optional[int] = None
                kwargs = {}
                if budgets and rng.random() < 0.3:
                    limit = rng.randint(1, max(counts[index], 1))
                    kwargs["limit"] = limit
                elif budgets and rng.random() < 0.3:
                    cap = rng.randint(1, max(counts[index], 1))
                    kwargs["budget"] = Budget(max_embeddings=cap)
                    limit = cap  # truncation cap behaves like a limit
                response = service.match(MatchRequest(
                    queries[index], break_automorphisms=False, **kwargs
                ))
                check(index, response, limit)
        except AssertionError as exc:
            errors.append(f"thread {tid}: {exc}")

    workers = [
        threading.Thread(target=client, args=(tid,)) for tid in range(threads)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    assert not errors, "\n".join(errors)
    return statuses


def test_concurrent_mixed_queries_stay_exact():
    data, queries, counts = _workload(150, 3, queries=4, seed=5)
    with MatchService(data, workers=3, max_pending=256) as service:
        statuses = _hammer(
            service, queries, counts, threads=4, rounds=6, seed=5
        )
    assert statuses[Status.OK] == 4 * 6
    assert statuses[Status.REJECTED] == 0
    # The cache served most repeats: at most one build per query class.
    assert service.index_cache.misses <= len(queries)


def test_same_query_from_all_threads_no_torn_store():
    """Every thread slams the same cold query simultaneously: one build
    (or a private duplicate, never a torn one) and identical answers."""
    data, queries, counts = _workload(150, 3, queries=1, seed=9)
    query, expected = queries[0], counts[0]
    results: List[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(6)

    with MatchService(data, workers=3, max_pending=64) as service:
        def client() -> None:
            barrier.wait()
            for _ in range(3):
                response = service.match(
                    MatchRequest(query, break_automorphisms=False)
                )
                assert response.ok, response.error
                with lock:
                    results.append(response.count)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert results == [expected] * 18
    # All 18 requests resolved through one cache slot.
    assert len(service.index_cache) == 1
    assert service.index_cache.misses == 1


def test_rejected_requests_never_mutate_shared_state():
    """Deterministic shedding: the scheduler is gated inside the first
    request's index resolution, so the single pending slot stays busy
    while further submissions arrive — they must bounce instantly and
    leave the caches and metrics untouched."""
    data, queries, _ = _workload(150, 3, queries=2, seed=11)
    gate = threading.Event()
    entered = threading.Event()

    with MatchService(data, workers=1, max_pending=1) as service:
        original = service.index_cache.get_or_build

        def gated(query, build):
            entered.set()
            assert gate.wait(timeout=30)
            return original(query, build)

        service.index_cache.get_or_build = gated
        try:
            first = service.submit(
                MatchRequest(queries[0], break_automorphisms=False)
            )
            assert entered.wait(timeout=30)
            index_before = service.index_cache.snapshot()
            shed = [
                service.submit(
                    MatchRequest(queries[1], break_automorphisms=False)
                )
                for _ in range(5)
            ]
            # Shedding is synchronous: resolved before submit returned.
            assert all(handle.done() for handle in shed)
            for handle in shed:
                response = handle.result()
                assert response.status == Status.REJECTED
                assert response.embeddings == [] and response.cache is None
                assert "queue depth" in (response.error or "")
            assert service.index_cache.snapshot() == index_before
            assert service.metrics.get(
                "service_requests_total", label=Status.REJECTED
            ) == 5
        finally:
            service.index_cache.get_or_build = original
            gate.set()
        assert first.result(timeout=60).ok
        # The slot freed: the service accepts and serves again.
        assert service.match(
            MatchRequest(queries[1], break_automorphisms=False)
        ).ok


# ----------------------------------------------------------------------
# Drain / close / cancel paths
# ----------------------------------------------------------------------

def _gated_service(data, queries, **kwargs):
    """A service whose first index resolution blocks on ``gate`` —
    the deterministic way to hold one request in flight."""
    service = MatchService(data, **kwargs)
    gate = threading.Event()
    entered = threading.Event()
    original = service.index_cache.get_or_build

    def gated(query, build):
        entered.set()
        assert gate.wait(timeout=60)
        return original(query, build)

    service.index_cache.get_or_build = gated
    return service, gate, entered, original


def test_drain_timeout_with_inflight_work():
    data, queries, counts = _workload(150, 3, queries=1, seed=13)
    service, gate, entered, original = _gated_service(
        data, queries, workers=1, max_pending=4
    )
    try:
        handle = service.submit(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert entered.wait(timeout=30)
        # In-flight work pins drain until its timeout expires...
        assert service.drain(timeout=0.05) is False
        # ...and releasing the gate lets it drain fully.
        service.index_cache.get_or_build = original
        gate.set()
        assert service.drain(timeout=30) is True
        response = handle.result(timeout=1)
        assert response.ok and response.count == counts[0]
    finally:
        gate.set()
        assert service.close(timeout=30)


def test_close_timeout_with_wedged_request_is_bounded(monkeypatch):
    """A worker wedged inside enumeration: ``close(timeout=...)`` must
    return within the bound, resolve the stuck request TIMEOUT, and —
    once the wedge clears — leak no threads."""
    data, queries, _ = _workload(150, 3, queries=1, seed=13)
    gate = threading.Event()
    entered = threading.Event()
    before = threading.active_count()

    def wedged(store, symmetry, share, limit, tracker):
        entered.set()
        gate.wait(timeout=60)
        return {
            "embeddings": [], "truncated": False, "stop_reason": None,
            "stats": MatchStats(),
        }

    monkeypatch.setattr(service_module, "run_task", wedged)
    service = MatchService(data, workers=2, max_pending=4)
    handle = service.submit(MatchRequest(
        queries[0], break_automorphisms=False, limit=10,
    ))
    assert entered.wait(timeout=30)
    started = time.monotonic()
    closed = service.close(timeout=1.0)
    elapsed = time.monotonic() - started
    assert closed is False  # honest: a thread is still wedged
    assert elapsed < 10.0  # but the call itself was bounded
    response = handle.result(timeout=5)
    assert response.status == Status.TIMEOUT
    assert "close" in (response.error or "")
    # Un-wedge: every service thread must now exit — no leaks.
    gate.set()
    deadline = time.monotonic() + 30
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.02)
    assert threading.active_count() <= before


def test_concurrent_close_is_idempotent():
    """Several threads race ``close()`` while requests are in flight:
    every call returns True, every request resolved, and the service
    refuses new work afterwards."""
    data, queries, counts = _workload(150, 3, queries=2, seed=7)
    service = MatchService(data, workers=2, max_pending=64)
    handles = [
        service.submit(
            MatchRequest(queries[i % 2], break_automorphisms=False)
        )
        for i in range(6)
    ]
    results: List[bool] = []
    lock = threading.Lock()

    def closer() -> None:
        ok = service.close(timeout=60)
        with lock:
            results.append(ok)

    closers = [threading.Thread(target=closer) for _ in range(4)]
    for thread in closers:
        thread.start()
    for thread in closers:
        thread.join()
    assert results == [True] * 4
    for i, handle in enumerate(handles):
        response = handle.result(timeout=1)
        assert response.ok and response.count == counts[i % 2]
    with pytest.raises(RuntimeError):
        service.submit(MatchRequest(queries[0], break_automorphisms=False))
    # A fourth close after the fact is still a cheap no-op.
    assert service.close(timeout=1)


def test_cancel_resolves_cancelled():
    data, queries, _ = _workload(150, 3, queries=1, seed=13)
    service, gate, entered, original = _gated_service(
        data, queries, workers=1, max_pending=4
    )
    try:
        handle = service.submit(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert entered.wait(timeout=30)
        assert handle.cancel() is True
        service.index_cache.get_or_build = original
        gate.set()
        response = handle.result(timeout=30)
        assert response.status == Status.CANCELLED
        assert response.embeddings == []
        # Cancelling a finished request reports False.
        assert handle.cancel() is False
    finally:
        gate.set()
        assert service.close(timeout=30)


def test_cancel_on_rejected_request_is_false():
    data, queries, _ = _workload(150, 3, queries=1, seed=13)
    service, gate, entered, original = _gated_service(
        data, queries, workers=1, max_pending=1
    )
    try:
        service.submit(MatchRequest(queries[0], break_automorphisms=False))
        assert entered.wait(timeout=30)
        shed = service.submit(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert shed.result(timeout=1).status == Status.REJECTED
        assert shed.cancel() is False
    finally:
        service.index_cache.get_or_build = original
        gate.set()
        assert service.close(timeout=30)


@pytest.mark.slow
def test_stress_heavy_mixed_workload():
    """The scaled-up version: 8 threads, 6 query classes, limits and
    budgets mixed in, tight admission so shedding actually happens —
    every non-shed answer must still be exact and the service must end
    the run drained and consistent."""
    data, queries, counts = _workload(400, 5, queries=6, seed=21, cap=800)
    with MatchService(
        data, workers=4, max_pending=16, index_capacity=4
    ) as service:
        statuses = _hammer(
            service, queries, counts, threads=8, rounds=12, seed=21,
            budgets=True,
        )
        assert service.drain(timeout=60)
    total = sum(statuses.values())
    assert total == 8 * 12
    assert statuses[Status.FAILED] == 0
    assert statuses[Status.OK] + statuses[Status.TRUNCATED] >= total - \
        statuses[Status.REJECTED]
    snapshot = service.index_cache.snapshot()
    # With capacity 4 < 6 classes the LRU must have churned, and the
    # counters must balance: every resolution is exactly one tier.
    assert snapshot["entries"] <= 4
    resolutions = (
        service.index_cache.hits
        + service.index_cache.warm_hits
        + service.index_cache.coalesced
        + service.index_cache.misses
    )
    assert resolutions == total - statuses[Status.REJECTED]
