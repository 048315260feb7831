"""Differential harness for the sharded service tier (DESIGN.md §14).

Seeded random (data, query) configurations are answered twice: by the
single-process :class:`MatchService` (the ground truth the sharded tier
must be indistinguishable from) and by a :class:`ShardedMatchService`
whose worker *processes* share one mmap'd CECIIDX3 index per query.
Statuses, embedding lists (order included — the merge concatenates
per-pivot parts in pivot order, exactly the sequential collect order),
truncation flags and stop reasons must be identical across three
request shapes per query: unbounded, ``limit``-truncated (solo-routed),
and budget-bounded on a deterministic axis.

On a mismatch the harness shrinks the query by dropping edges (keeping
it connected) while the divergence persists, then fails with the
minimal reproducer — the same discipline as ``test_differential.py``.

Sharded services fork processes, so each data-graph configuration
stands its pair of services up once (module-scoped fixture) and runs
every query and request shape against them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.core.matcher import CECIMatcher
from repro.graph import Graph, erdos_renyi, generate_query, inject_labels
from repro.graph.generators import power_law
from repro.parallel.scheduling import dynamic_schedule
from repro.resilience.budget import Budget
from repro.service import MatchRequest, MatchService, Status
from repro.service import shards as shards_module
from repro.service.shards import ShardedMatchService, sharded_metric_specs

#: Data-graph configurations; with QUERIES_PER_DATA queries each and
#: three request shapes per query this is 10 x 4 = 40 seeded
#: (graph, query) configs — 120 differential comparisons.
DATA_SEEDS = range(10)
QUERIES_PER_DATA = 4
SHARDS = 3


def make_data(seed: int) -> Graph:
    """A reproducible data graph, mixing generator families, sizes and
    label counts across the seed space."""
    import random

    rng = random.Random(seed * 6151 + 29)
    n = rng.randint(30, 70)
    if seed % 2 == 0:
        data = power_law(n, rng.randint(2, 4), seed=seed)
    else:
        e = rng.randint(n, 3 * n)
        data = erdos_renyi(n, e, seed=seed)
    return inject_labels(data, rng.randint(1, 3), seed=seed)


def make_queries(data: Graph, seed: int) -> List[Graph]:
    """Up to QUERIES_PER_DATA connected queries extracted from data."""
    import random

    rng = random.Random(seed * 911 + 3)
    queries = []
    for i in range(QUERIES_PER_DATA):
        try:
            queries.append(
                generate_query(data, rng.randint(3, 5), seed=seed * 53 + i)
            )
        except ValueError:
            continue  # data graph too fragmented at this size
    return queries


def response_facets(response) -> Tuple:
    """Everything the differential compares: status, truncation flag,
    stop reason, count, and the exact embedding list (order included)."""
    return (
        response.status,
        response.truncated,
        response.stop_reason,
        response.count,
        [tuple(e) for e in response.embeddings],
    )


REQUEST_SHAPES = ("unbounded", "limit", "budget")


def build_request(query: Graph, shape: str) -> MatchRequest:
    if shape == "unbounded":
        return MatchRequest(query)
    if shape == "limit":
        return MatchRequest(query, limit=2)
    # Deterministic budget axis: max_calls counts recursion identically
    # in the sequential and sharded (solo-routed) paths, so the
    # truncated prefix and stop_reason must match exactly.
    return MatchRequest(query, budget=Budget(max_calls=40))


@pytest.fixture(scope="module", params=DATA_SEEDS)
def service_pair(request):
    data = make_data(request.param)
    with MatchService(data, workers=2) as truth:
        with ShardedMatchService(data, shards=SHARDS) as sharded:
            yield request.param, data, truth, sharded


def _divergent_shapes(
    query: Graph, truth: MatchService, sharded: ShardedMatchService
) -> List[str]:
    """Request shapes on which the two tiers disagree."""
    return [
        shape
        for shape in REQUEST_SHAPES
        if response_facets(truth.match(build_request(query, shape)))
        != response_facets(sharded.match(build_request(query, shape)))
    ]


def _connected_after_drop(query: Graph, edge_index: int) -> Optional[Graph]:
    edges = [e for i, e in enumerate(query.edges) if i != edge_index]
    labels = {u: query.labels_of(u) for u in query.vertices()}
    shrunk = Graph(query.num_vertices, edges, labels=labels)
    return shrunk if shrunk.is_connected() else None


def shrink_query(
    query: Graph, truth: MatchService, sharded: ShardedMatchService
) -> Graph:
    """Greedy edge-dropping shrink: keep removing query edges (staying
    connected) while the sharded tier still diverges from the
    single-process service on any request shape."""
    current = query
    progress = True
    while progress:
        progress = False
        for i in range(len(current.edges)):
            candidate = _connected_after_drop(current, i)
            if candidate is None:
                continue
            if _divergent_shapes(candidate, truth, sharded):
                current = candidate
                progress = True
                break
    return current


def test_sharded_tier_is_indistinguishable(service_pair):
    seed, data, truth, sharded = service_pair
    queries = make_queries(data, seed)
    if not queries:
        pytest.skip("data seed yields no connected queries")
    for qi, query in enumerate(queries):
        for shape in REQUEST_SHAPES:
            expected = response_facets(truth.match(build_request(query, shape)))
            got = response_facets(sharded.match(build_request(query, shape)))
            if got == expected:
                continue
            minimal = shrink_query(query, truth, sharded)
            still = _divergent_shapes(minimal, truth, sharded)
            pytest.fail(
                f"data seed {seed}, query {qi}, shape {shape}: sharded "
                f"tier diverged from MatchService.\n"
                f"  expected {expected[:4]} ({len(expected[4])} emb)\n"
                f"  got      {got[:4]} ({len(got[4])} emb)\n"
                f"Minimal failing query after shrinking "
                f"({len(minimal.edges)} edges, shapes {still}):\n"
                f"  vertices={minimal.num_vertices}\n"
                f"  edges={minimal.edges}\n"
                f"  labels="
                f"{[minimal.labels_of(u) for u in minimal.vertices()]}\n"
                f"  data: |V|={data.num_vertices} edges={data.edges}\n"
                f"  data labels="
                f"{[data.labels_of(v) for v in data.vertices()]}"
            )


def test_unbounded_requests_fan_out(service_pair):
    """Unbounded requests decompose across shards (fan-out recorded on
    the response); limit/budget requests route solo to one shard."""
    seed, data, truth, sharded = service_pair
    queries = make_queries(data, seed)
    if not queries:
        pytest.skip("data seed yields no connected queries")
    saw_fanout = False
    for query in queries:
        unbounded = sharded.match(MatchRequest(query))
        assert unbounded.status == Status.OK
        assert unbounded.shard_fanout is not None
        assert 1 <= unbounded.shard_fanout <= SHARDS
        saw_fanout = saw_fanout or unbounded.shard_fanout > 1
        solo = sharded.match(MatchRequest(query, limit=2))
        assert solo.status == Status.OK
        assert solo.shard_fanout == 1
    assert saw_fanout, "no query decomposed across more than one shard"


def test_shard_counters_sum_to_the_sequential_matcher():
    """Each shard runs its pivot share as one frontier; the counters it
    reports, summed over the shards, are the sequential matcher's."""
    data = make_data(4)
    queries = make_queries(data, 4)
    fanned_with_nte = 0
    with ShardedMatchService(data, shards=SHARDS) as service:
        for query in queries:
            response = service.match(MatchRequest(query))
            matcher = CECIMatcher(query, data)
            assert response.status == Status.OK
            assert [tuple(e) for e in response.embeddings] == matcher.match()
            assert response.stats.recursive_calls == (
                matcher.stats.recursive_calls
            )
            assert response.stats.intersections == (
                matcher.stats.intersections
            )
            if response.shard_fanout > 1 and matcher.stats.intersections:
                fanned_with_nte += 1
    assert fanned_with_nte, "no query intersected across several shards"


class TestShardedLifecycle:
    """Shape-of-the-tier checks that need their own service instances."""

    def test_single_shard_equals_many(self):
        data = make_data(3)
        query = make_queries(data, 3)[0]
        facets = []
        for shards in (1, 4):
            with ShardedMatchService(data, shards=shards) as service:
                facets.append(response_facets(service.match(MatchRequest(query))))
        assert facets[0] == facets[1]

    def test_empty_result_query_is_ok(self):
        data = inject_labels(erdos_renyi(20, 40, seed=9), 2, seed=9)
        # A query label no data vertex carries: zero embeddings, not an
        # error, and no shard has anything to enumerate.
        query = Graph(2, [(0, 1)], labels=["missing-label", "missing-label"])
        with ShardedMatchService(data, shards=2) as service:
            response = service.match(MatchRequest(query))
            assert response.status == Status.OK
            assert response.count == 0
            assert not response.truncated

    def test_warm_requests_hit_shared_index(self):
        data = make_data(5)
        query = make_queries(data, 5)[0]
        with ShardedMatchService(data, shards=2) as service:
            cold = service.match(MatchRequest(query))
            warm = service.match(MatchRequest(query))
            assert cold.cache == "miss"
            assert warm.cache == "hit"
            assert response_facets(cold) == response_facets(warm)
            publishes = service.metrics.get("service_shard_publishes")
            assert publishes == 1, "warm request must reuse the publish"

    def test_healthy_workers_and_telemetry(self):
        data = make_data(1)
        queries = make_queries(data, 1)
        with ShardedMatchService(data, shards=3) as service:
            for query in queries:
                assert service.match(MatchRequest(query)).status == Status.OK
            assert service.healthy_workers() == 3
            telemetry = service.shard_telemetry()
            assert len(telemetry["busy_seconds"]) == 3
            assert len(telemetry["tasks"]) == 3
            assert sum(telemetry["tasks"]) > 0
            snapshot = service.snapshot()
            assert len(snapshot["shards"]["tasks"]) == 3
            assert snapshot["healthy_workers"] == 3

    def test_rejects_past_admission_limit(self):
        data = make_data(2)
        query = make_queries(data, 2)[0]
        with ShardedMatchService(data, shards=2, max_pending=1) as service:
            pending = [
                service.submit(MatchRequest(query)) for _ in range(6)
            ]
            statuses = [handle.result().status for handle in pending]
            assert Status.REJECTED in statuses
            ok = [s for s in statuses if s == Status.OK]
            assert ok, "admission control must not reject everything"


class TestSinglePlan:
    """The front end plans each batched request once (LPT over the
    refined cluster cardinalities) and the shard tier runs that plan;
    the Section 5 Jaccard planner is never on the service path."""

    @staticmethod
    def _lpt(query: Graph, data: Graph, shards: int):
        """(pivots, per-shard pivot sets, makespan) of the LPT plan over
        the built index's ``cluster_cardinality`` workloads."""
        store = CECIMatcher(query, data, break_automorphisms=False).build()
        pivots = [int(p) for p in store.pivots]
        weights = [
            max(float(store.cluster_cardinality(p)), 1.0) for p in pivots
        ]
        order = sorted(
            range(len(pivots)), key=weights.__getitem__, reverse=True
        )
        plan = dynamic_schedule([weights[i] for i in order], shards)
        sets = [
            {pivots[order[i]] for i in units} for units in plan.worker_units
        ]
        return pivots, sets, plan.makespan

    @staticmethod
    def _record_tasks(service: ShardedMatchService) -> Dict[int, List[int]]:
        """Shard -> pivots of every units task the executor enqueues."""
        executor = service.executor
        sent: Dict[int, List[int]] = {}
        enqueue = executor._enqueue

        def recording(shard, task, solo=False):
            if not solo:
                sent.setdefault(shard, []).extend(task.spec["pivots"])
            return enqueue(shard, task, solo=solo)

        executor._enqueue = recording
        return sent

    def test_shards_run_the_front_end_lpt_plan(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the service called distribute_pivots")

        monkeypatch.setattr(shards_module, "distribute_pivots", forbidden)
        data = make_data(4)
        query = make_queries(data, 4)[0]
        pivots, expected_sets, makespan = self._lpt(query, data, SHARDS)
        assert len(pivots) > SHARDS
        # The deadline turns a planner failure into a TIMEOUT, not a hang.
        with ShardedMatchService(
            data, shards=SHARDS, deadline_seconds=30
        ) as service:
            sent = self._record_tasks(service)
            response = service.match(MatchRequest(query))
            assert response.status == Status.OK
            assert [tuple(e) for e in response.embeddings] == [
                tuple(e) for e in CECIMatcher(query, data).match()
            ]
            got_sets = [set(sent.get(w, ())) for w in range(SHARDS)]
            assert got_sets == expected_sets
            assert service.metrics.get("service_plan_makespan") == makespan
            assert response.shard_fanout == sum(1 for s in expected_sets if s)

    def test_fewer_pivots_than_shards_fan_out_per_pivot(self):
        # Two "A" vertices, so a single A-B edge query has two clusters.
        data = Graph(
            6,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
            labels=["A", "B", "C", "A", "B", "C"],
        )
        query = Graph(2, [(0, 1)], labels=["A", "B"])
        pivots, expected_sets, _ = self._lpt(query, data, 4)
        assert 1 < len(pivots) < 4
        with ShardedMatchService(data, shards=4) as service:
            sent = self._record_tasks(service)
            response = service.match(MatchRequest(query))
            assert response.status == Status.OK
            assert response.count == CECIMatcher(query, data).count()
            assert response.shard_fanout == len(pivots) == len(sent)
            assert [set(sent.get(w, ())) for w in range(4)] == expected_sets


def test_share_reply_is_one_packed_array():
    """A share's reply crosses the pipe as one int32 row array plus its
    unit count and stats: no tuple is built or pickled in the shard."""
    data = make_data(4)
    query = make_queries(data, 4)[0]
    with ShardedMatchService(data, shards=2) as service:
        executor = service.executor
        replies = []
        handle = executor._handle_message

        def recording(shard_index, message):
            replies.append(message)
            return handle(shard_index, message)

        executor._handle_message = recording
        response = service.match(MatchRequest(query))
        assert response.status == Status.OK
        assert response.embeddings == CECIMatcher(query, data).match()
    payloads = [message[2] for message in replies]
    assert [message[0] for message in replies] == ["result"] * len(replies)
    assert len(payloads) == response.shard_fanout > 1
    for payload in payloads:
        rows = payload["rows"]
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int32
        assert rows.shape[1] == query.num_vertices
        assert "parts" not in payload and "embeddings" not in payload
    assert sum(len(payload["rows"]) for payload in payloads) == (
        response.count
    )
    assert sum(payload["units"] for payload in payloads) == (
        service.metrics.get("service_units_total")
    )


def test_sharded_metric_specs_extend_service_specs():
    names = [spec.name for spec in sharded_metric_specs()]
    assert "service_requests_total" in names  # the base tier's specs
    for shard_metric in (
        "service_shard_tasks_total",
        "service_shard_crashes",
        "service_shard_respawns",
        "service_shard_publishes",
        "service_shard_republishes",
    ):
        assert shard_metric in names
    assert len(names) == len(set(names)), "duplicate metric registration"
