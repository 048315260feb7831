"""Seeded chaos tests for the hardened service tier.

Each test injects one deterministic fault class through
``MatchService(fault_plan=...)`` and pins the exact recovery contract:

* a worker crash mid-job is recovered by the retry policy (answer still
  exact, pool respawned to full strength) or, with no policy, surfaces
  as an honest ``CRASHED`` response;
* an injected index-build failure is a transient fault the retry policy
  absorbs;
* a corrupted spill blob is quarantined and the index rebuilt — never
  served;
* an injected scheduler stall trips the end-to-end deadline with
  ``TIMEOUT``;
* a wedged worker is condemned by the watchdog, its request is failed
  ``TIMEOUT``, and a replacement thread restores the pool.

The sharded tier (DESIGN.md §14) gets the same treatment with its own
fault classes: a shard *process* killed mid-query is respawned and its
lost task redispatched (answer still exact); a torn shared-mmap
publish is caught by the CECIIDX3 checksums in every shard and
republished from pristine bytes; a stalled shard trips the request
deadline and the tier stays healthy afterwards.

The ``@pytest.mark.slow`` suite at the bottom runs the full
:func:`~repro.service.loadgen.run_chaos` harness (all fault classes at
once, thread-pool and sharded) and gates on the acceptance bar: zero
wrong results, accurate failure statuses, full-strength pool.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

import pytest

from repro.core.matcher import CECIMatcher
from repro.core.stats import MatchStats
from repro.graph import Graph, inject_labels
from repro.graph.generators import power_law
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RetryPolicy
from repro.service import service as service_module
from repro.service import (
    MatchRequest,
    MatchService,
    Status,
    generate_workload,
    run_chaos,
)

#: Immediate retries keep the fast tier fast; backoff is covered by the
#: RetryPolicy unit tests and the slow harness.
RETRY = RetryPolicy(max_retries=2)


def _workload(
    queries: int = 2, seed: int = 5, vertices: int = 150
) -> Tuple[Graph, List[Graph], List[int]]:
    data = inject_labels(power_law(vertices, 3, seed=seed), 3, seed=seed)
    pool = generate_workload(
        data, queries, seed=seed, min_vertices=3, max_vertices=5,
        max_embeddings=500,
    )
    counts = [
        CECIMatcher(q, data, break_automorphisms=False).count() for q in pool
    ]
    return data, pool, counts


# ----------------------------------------------------------------------
# Worker crashes
# ----------------------------------------------------------------------

def _pivots(query: Graph, data: Graph) -> int:
    return len(CECIMatcher(query, data, break_automorphisms=False).build()
               .pivots)


def _record_plans(service: MatchService) -> List[List[List[int]]]:
    """Every LPT assignment the front end hands the executor."""
    plans: List[List[List[int]]] = []
    run_units = service.executor.run_units

    def recording(job, assignment):
        plans.append([list(share) for share in assignment])
        return run_units(job, assignment)

    service.executor.run_units = recording
    return plans


def _crash_events(service: MatchService, request_id: int):
    """The request's ``worker_crash`` and ``unit_failed`` events and the
    units its finished shares reported."""
    (record,) = service.flight_records(request_id=request_id)
    events = record["events"]
    crashes = [e for e in events if e["ev"] == "worker_crash"]
    failed = [e for e in events if e["ev"] == "unit_failed"]
    done = sum(e["units"] for e in events if e["ev"] == "unit")
    return crashes, failed, done


def test_worker_crash_recovered_by_retry():
    """The first attempt's two task picks kill their workers mid-job:
    the watchdog respawns both slots and fails each whole share (the
    large one included), the retry re-runs the request, and the answer
    is still exact."""
    data, queries, counts = _workload()
    assert _pivots(queries[0], data) > 2
    plan = FaultPlan(seed=1, thread_crash_picks=frozenset({0, 1}))
    with MatchService(
        data, workers=2, fault_plan=plan, retry_policy=RETRY,
        flight_records=8,
    ) as service:
        plans = _record_plans(service)
        # The deadline turns a unit miscount into a TIMEOUT, not a hang.
        response = service.match(MatchRequest(
            queries[0], break_automorphisms=False, deadline_seconds=30,
        ))
        assert response.ok, response.error
        assert response.count == counts[0]
        assert response.retries == 1
        crashes, failed, _ = _crash_events(service, response.request_id)
        shares = sorted(len(share) for share in plans[0] if share)
        assert max(shares) > 1
        assert sorted(e["units"] for e in crashes) == shares
        assert sorted(e["units"] for e in failed) == shares
        assert {e["kind"] for e in failed} == {"crash"}
        # The watchdog noticed the deaths and restored the pool.
        assert service.healthy_workers() == 2
        assert service.metrics.get("service_worker_respawns") >= 2
        assert service.metrics.get("service_retries_total") == 1


def test_worker_crash_without_retry_is_crashed():
    """The crashed share fails all of its units, so the request resolves
    once, after the other share reports, with every unit accounted."""
    data, queries, _ = _workload()
    pivots = _pivots(queries[0], data)
    assert pivots > 2
    plan = FaultPlan(seed=1, thread_crash_picks=frozenset({0}))
    with MatchService(
        data, workers=2, fault_plan=plan, flight_records=8
    ) as service:
        plans = _record_plans(service)
        # The deadline turns a unit miscount into a TIMEOUT, not a hang.
        response = service.match(MatchRequest(
            queries[0], break_automorphisms=False, deadline_seconds=30,
        ))
        assert response.status == Status.CRASHED
        assert response.embeddings == []
        assert "worker died" in (response.error or "")
        assert service.healthy_workers() == 2  # pool still respawned
        crashes, failed, done = _crash_events(service, response.request_id)
        assert len(crashes) == len(failed) == 1
        assert failed[0]["units"] == crashes[0]["units"]
        assert failed[0]["units"] in {len(share) for share in plans[0]}
        assert failed[0]["units"] + done == pivots


def test_crash_retries_exhausted_resolves_crashed():
    """Every attempt crashes: the policy runs out and the caller gets
    an honest CRASHED, not a hang."""
    data, queries, _ = _workload()
    plan = FaultPlan(
        seed=1, thread_crash_picks=frozenset(range(4096))
    )
    with MatchService(
        data, workers=2, fault_plan=plan, retry_policy=RETRY
    ) as service:
        # A limit makes the request solo: one task pick per attempt, so
        # three attempts -> three crashes, all injected.
        response = service.match(MatchRequest(
            queries[0], break_automorphisms=False, limit=10_000,
        ))
        assert response.status == Status.CRASHED
        assert response.retries == RETRY.max_retries
        assert service.healthy_workers() == 2


# ----------------------------------------------------------------------
# Build failures
# ----------------------------------------------------------------------

def test_build_failure_retried_transparently():
    data, queries, counts = _workload()
    plan = FaultPlan(seed=1, build_failure_picks=frozenset({0}))
    with MatchService(
        data, workers=2, fault_plan=plan, retry_policy=RETRY
    ) as service:
        response = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert response.ok, response.error
        assert response.count == counts[0]
        assert response.retries == 1


def test_build_failure_without_retry_is_failed():
    data, queries, _ = _workload()
    plan = FaultPlan(seed=1, build_failure_picks=frozenset({0}))
    with MatchService(data, workers=2, fault_plan=plan) as service:
        response = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert response.status == Status.FAILED
        assert "InjectedBuildError" in (response.error or "")


# ----------------------------------------------------------------------
# Spill corruption
# ----------------------------------------------------------------------

def test_corrupt_spill_quarantined_and_rebuilt(tmp_path):
    """A spilled index whose bytes rot is detected on revival, moved to
    ``*.corrupt`` and rebuilt from scratch — the answer stays exact and
    ``spill_corrupt`` counts the event."""
    data, queries, counts = _workload()
    plan = FaultPlan(seed=1, spill_read_corrupt_picks=frozenset({0}))
    with MatchService(
        data,
        workers=2,
        index_capacity=1,
        spill_dir=str(tmp_path),
        fault_plan=plan,
    ) as service:
        first = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert first.ok and first.count == counts[0]
        # Evict the first index into the spill tier...
        assert service.match(
            MatchRequest(queries[1], break_automorphisms=False)
        ).ok
        # ...and revive it through the injected read corruption.
        again = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert again.ok, again.error
        assert again.count == counts[0]
        assert again.cache == "miss"  # rebuilt, not served from rot
        snap = service.index_cache.snapshot()
        assert snap["spill_corrupt"] == 1
    quarantined = list(tmp_path.glob("*.corrupt"))
    assert len(quarantined) == 1


def test_torn_spill_write_never_serves_garbage(tmp_path):
    """A torn (short) spill write is caught by the checksum layer on
    revival; the request is answered from a fresh build."""
    data, queries, counts = _workload()
    plan = FaultPlan(seed=1, spill_torn_write_picks=frozenset({0}))
    with MatchService(
        data,
        workers=2,
        index_capacity=1,
        spill_dir=str(tmp_path),
        fault_plan=plan,
    ) as service:
        assert service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        ).ok
        assert service.match(
            MatchRequest(queries[1], break_automorphisms=False)
        ).ok
        again = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert again.ok and again.count == counts[0]
        assert service.index_cache.snapshot()["spill_corrupt"] >= 1


# ----------------------------------------------------------------------
# Deadlines vs. an injected scheduler stall
# ----------------------------------------------------------------------

def test_scheduler_stall_trips_request_deadline():
    data, queries, _ = _workload()
    plan = FaultPlan(
        seed=1,
        scheduler_stall_picks=frozenset({0}),
        scheduler_stall_seconds=0.5,
    )
    with MatchService(data, workers=2, fault_plan=plan) as service:
        started = time.perf_counter()
        response = service.match(MatchRequest(
            queries[0], break_automorphisms=False, deadline_seconds=0.05,
        ))
        elapsed = time.perf_counter() - started
        assert response.status == Status.TIMEOUT
        assert response.embeddings == []
        assert "deadline" in (response.error or "")
        # The stall itself still ran on the scheduler thread, but the
        # response never waited past it.
        assert elapsed < 5.0


def test_service_wide_default_deadline_applies():
    data, queries, _ = _workload()
    plan = FaultPlan(
        seed=1,
        scheduler_stall_picks=frozenset({0}),
        scheduler_stall_seconds=0.5,
    )
    with MatchService(
        data, workers=2, fault_plan=plan, deadline_seconds=0.05
    ) as service:
        response = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert response.status == Status.TIMEOUT


# ----------------------------------------------------------------------
# Wedged-worker condemnation
# ----------------------------------------------------------------------

def test_watchdog_condemns_wedged_worker(monkeypatch):
    """A worker stuck inside enumeration past ``stall_after_seconds``:
    the watchdog fails the request with TIMEOUT, condemns the thread and
    restores the pool without waiting for the wedge to clear."""
    data, queries, _ = _workload()
    gate = threading.Event()
    entered = threading.Event()

    def wedged(store, symmetry, share, limit, tracker):
        entered.set()
        gate.wait(timeout=60)
        return {
            "embeddings": [], "truncated": False, "stop_reason": None,
            "stats": MatchStats(),
        }

    monkeypatch.setattr(service_module, "run_task", wedged)
    service = MatchService(
        data, workers=2, stall_after_seconds=0.2, watchdog_interval=0.02
    )
    try:
        response = service.match(MatchRequest(
            queries[0], break_automorphisms=False, limit=10,
        ))
        assert entered.is_set()
        assert response.status == Status.TIMEOUT
        assert "stalled" in (response.error or "")
        assert service.metrics.get("service_worker_stalls") == 1
        # Replacement spawned while the wedged thread is still stuck.
        assert service.healthy_workers() == 2
    finally:
        gate.set()
        assert service.close(timeout=30)


# ----------------------------------------------------------------------
# Shard-process fault classes (DESIGN.md §14)
# ----------------------------------------------------------------------

def test_shard_crash_respawned_and_redispatched():
    """The first task dispatched to shard 0 kills the shard *process*
    mid-query.  The reader thread notices the dead pipe, respawns the
    shard, redispatches the lost task, and the merged answer is still
    exact — the crash is invisible to the caller."""
    from repro.service.shards import ShardedMatchService

    data, queries, counts = _workload()
    plan = FaultPlan(seed=1, shard_crash_picks=frozenset({(0, 0)}))
    with ShardedMatchService(data, shards=2, fault_plan=plan) as service:
        response = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert response.ok, response.error
        assert response.count == counts[0]
        assert service.metrics.get("service_shard_crashes") >= 1
        assert service.metrics.get("service_shard_respawns") >= 1
        assert service.metrics.get("service_shard_redispatches") >= 1
        assert service.healthy_workers() == 2
        # Recovery must not have corrupted the tier: a repeat request
        # (warm index) still answers exactly.
        again = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert again.ok and again.count == counts[0]


def test_shard_crash_redispatch_exhausted_is_crashed():
    """Every incarnation of every shard dies on every task: the bounded
    redispatch budget runs out and the caller gets an honest CRASHED,
    not a hang — and the supervisor still restores the processes."""
    from repro.service.shards import ShardedMatchService

    data, queries, _ = _workload()
    plan = FaultPlan(
        seed=1,
        shard_crash_picks=frozenset(
            (shard, pick) for shard in range(2) for pick in range(64)
        ),
    )
    with ShardedMatchService(
        data, shards=2, fault_plan=plan, max_redispatch=2
    ) as service:
        response = service.match(MatchRequest(
            queries[0], break_automorphisms=False, limit=10_000,
        ))
        assert response.status == Status.CRASHED
        assert response.embeddings == []
        assert service.metrics.get("service_shard_crashes") >= 3


def test_torn_publish_detected_and_republished():
    """The first shared-index publish is torn mid-write (short file).
    Every shard's mmap load CRC-fails on it; the parent republishes the
    pristine bytes once (idempotently) and the request completes with
    the exact answer — garbage is never enumerated."""
    from repro.service.shards import ShardedMatchService

    data, queries, counts = _workload()
    plan = FaultPlan(seed=1, publish_torn_picks=frozenset({0}))
    with ShardedMatchService(data, shards=2, fault_plan=plan) as service:
        response = service.match(
            MatchRequest(queries[0], break_automorphisms=False)
        )
        assert response.ok, response.error
        assert response.count == counts[0]
        assert service.metrics.get("service_shard_corrupt_loads") >= 1
        # One repair no matter how many shards tripped on the torn file.
        assert service.metrics.get("service_shard_republishes") == 1


def test_shard_stall_trips_deadline_then_recovers():
    """Both shards stall on their first task past the request deadline:
    the monitor resolves TIMEOUT without waiting for the stall, and
    once it clears the tier answers exactly again."""
    from repro.service.shards import ShardedMatchService

    data, queries, counts = _workload()
    plan = FaultPlan(
        seed=1,
        shard_stall_picks=frozenset({(0, 0), (1, 0)}),
        shard_stall_seconds=1.0,
    )
    with ShardedMatchService(data, shards=2, fault_plan=plan) as service:
        stalled = service.match(MatchRequest(
            queries[0], break_automorphisms=False, deadline_seconds=0.2,
        ))
        assert stalled.status == Status.TIMEOUT
        assert stalled.embeddings == []
        recovered = service.match(MatchRequest(
            queries[0], break_automorphisms=False, deadline_seconds=30.0,
        ))
        assert recovered.ok, recovered.error
        assert recovered.count == counts[0]
        assert service.healthy_workers() == 2


# ----------------------------------------------------------------------
# The full seeded suite (the CI chaos job runs this)
# ----------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_seeded_chaos_suite_zero_wrong_results(seed):
    """All fault classes at once, three seeds: no completed request may
    ever disagree with the sequential matcher, failures must carry
    honest statuses, and the pool must end at full strength."""
    data = inject_labels(power_law(300, 3, seed=2), 4, seed=2)
    report = run_chaos(
        data,
        num_queries=4,
        requests=32,
        seed=seed,
        workers=3,
        max_retries=2,
        crash_fraction=0.15,
        build_failure_fraction=0.1,
        spill_fault_fraction=0.25,
    )
    assert report["wrong_results"] == []
    assert report["pool_full_strength"], report["healthy_workers"]
    statuses = report["statuses"]
    total = sum(statuses.values())
    assert total == 32
    # Injected faults may exhaust retries, but only into the honest
    # failure statuses — never into silent wrongness.
    assert statuses[Status.OK] + statuses[Status.CRASHED] + \
        statuses[Status.FAILED] + statuses[Status.TIMEOUT] == total
    assert report["availability"] >= 0.6
    # Retries really ran (the plans above always inject something).
    assert report["retries_total"] >= 1


@pytest.mark.slow
def test_chaos_with_stalls_and_deadline():
    """Scheduler stalls + a tight service deadline: stalled requests
    resolve TIMEOUT instead of hanging, everything else stays exact."""
    data = inject_labels(power_law(300, 3, seed=2), 4, seed=2)
    report = run_chaos(
        data,
        num_queries=3,
        requests=20,
        seed=11,
        workers=2,
        crash_fraction=0.0,
        build_failure_fraction=0.0,
        spill_fault_fraction=0.0,
        stall_fraction=0.2,
        stall_seconds=0.5,
        deadline_seconds=0.1,
    )
    assert report["wrong_results"] == []
    assert report["statuses"][Status.TIMEOUT] >= 1
    assert report["pool_full_strength"]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 13])
def test_seeded_shard_chaos_zero_wrong_results(seed):
    """The chaos harness against the sharded tier: shard-process kills,
    per-shard stalls and torn shared-index publishes all at once.  No
    completed request may disagree with the sequential matcher, and
    every shard process must be alive again at the end."""
    data = inject_labels(power_law(300, 3, seed=2), 4, seed=2)
    report = run_chaos(
        data,
        num_queries=4,
        requests=24,
        seed=seed,
        shards=2,
        shard_crash_fraction=0.15,
        shard_stall_fraction=0.1,
        shard_stall_seconds=0.05,
        publish_torn_fraction=0.3,
        deadline_seconds=30.0,
    )
    assert report["wrong_results"] == []
    assert report["pool_full_strength"], report["healthy_workers"]
    statuses = report["statuses"]
    assert sum(statuses.values()) == 24
    assert report["availability"] >= 0.6
    injected = report["injected"]
    assert (
        injected["shard_crashes"]
        + injected["shard_stalls"]
        + injected["torn_publishes"]
        > 0
    ), "the seeded plan must actually inject shard faults"
