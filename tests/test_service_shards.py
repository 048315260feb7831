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

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.core.matcher import CECIMatcher
from repro.graph import Graph, erdos_renyi, generate_query, inject_labels
from repro.graph.generators import power_law
from repro.parallel.scheduling import dynamic_schedule
from repro.resilience.budget import Budget
from repro.service import MatchRequest, MatchService, Status, generate_workload
from repro.service import shards as shards_module
from repro.service.service import chunk_count
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


def make_wide() -> Tuple[Graph, List[Graph]]:
    """A data graph and queries with more pivots than one chunk takes,
    so each unbounded request is cut into several tasks."""
    data = inject_labels(power_law(200, 3, seed=5), 2, seed=5)
    queries = generate_workload(
        data, 4, seed=5, min_vertices=3, max_vertices=5,
        max_embeddings=5000,
    )
    wide = [
        q for q in queries if chunk_count(len(pivots_of(q, data)), SHARDS) > 1
    ]
    assert len(wide) >= 2
    return data, wide


def pivots_of(query: Graph, data: Graph) -> List[int]:
    """The pivots of the query's built index, in ``store.pivots`` order."""
    store = CECIMatcher(query, data, break_automorphisms=False).build()
    return [int(p) for p in store.pivots]


def record_sent(service: ShardedMatchService) -> List[Tuple[int, List[int]]]:
    """(shard, pivots) of every units task the executor sends."""
    executor = service.executor
    sent: List[Tuple[int, List[int]]] = []
    send = executor._send

    def recording(shard_index, task):
        if task.units:
            sent.append((shard_index, list(task.spec["pivots"])))
        return send(shard_index, task)

    executor._send = recording
    return sent


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
    """An unbounded request runs on at most as many shards as its chunk
    plan has chunks (one for these small queries), recorded on the
    response; limit/budget requests route solo to one shard."""
    seed, data, truth, sharded = service_pair
    queries = make_queries(data, seed)
    if not queries:
        pytest.skip("data seed yields no connected queries")
    for query in queries:
        chunks = chunk_count(len(pivots_of(query, data)), SHARDS)
        unbounded = sharded.match(MatchRequest(query))
        assert unbounded.status == Status.OK
        assert unbounded.shard_fanout is not None
        assert 1 <= unbounded.shard_fanout <= min(chunks, SHARDS)
        solo = sharded.match(MatchRequest(query, limit=2))
        assert solo.status == Status.OK
        assert solo.shard_fanout == 1


def test_shard_counters_sum_to_the_sequential_matcher():
    """Each shard runs its chunks as one frontier each; the counters
    they report, summed over the shards, are the sequential matcher's."""
    data, queries = make_wide()
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
            # Mapping an index is booked on its own, and inside busy.
            loads = telemetry["load_seconds"]
            assert len(loads) == 3 and sum(loads) > 0
            for load, busy in zip(loads, telemetry["busy_seconds"]):
                assert 0 <= load <= busy
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
    refined cluster cardinalities into weight-balanced chunks) and the
    shard tier runs that plan, one task per chunk, whichever shard
    frees first; the Section 5 Jaccard planner is never on the service
    path."""

    @staticmethod
    def _chunks(query: Graph, data: Graph, shards: int):
        """(pivots, chunk pivot sets, makespan) of the LPT cut of the
        built index's ``cluster_cardinality`` workloads into
        ``chunk_count`` bins."""
        store = CECIMatcher(query, data, break_automorphisms=False).build()
        pivots = [int(p) for p in store.pivots]
        weights = [
            max(float(store.cluster_cardinality(p)), 1.0) for p in pivots
        ]
        order = sorted(
            range(len(pivots)), key=weights.__getitem__, reverse=True
        )
        plan = dynamic_schedule(
            [weights[i] for i in order], chunk_count(len(pivots), shards)
        )
        sets = [
            {pivots[order[i]] for i in units} for units in plan.worker_units
        ]
        return pivots, sets, plan.makespan

    def test_shards_run_the_front_end_lpt_plan(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the service called distribute_pivots")

        monkeypatch.setattr(shards_module, "distribute_pivots", forbidden)
        data, queries = make_wide()
        query = queries[0]
        pivots, expected_sets, makespan = self._chunks(query, data, SHARDS)
        assert len(expected_sets) > 1
        # The deadline turns a planner failure into a TIMEOUT, not a hang.
        with ShardedMatchService(
            data, shards=SHARDS, deadline_seconds=30
        ) as service:
            sent = record_sent(service)
            response = service.match(MatchRequest(query))
            assert response.status == Status.OK
            assert [tuple(e) for e in response.embeddings] == [
                tuple(e) for e in CECIMatcher(query, data).match()
            ]
            got_sets = [set(chunk) for _, chunk in sent]
            assert sorted(map(sorted, got_sets)) == sorted(
                map(sorted, expected_sets)
            )
            # Each pivot in exactly one task.
            assert sorted(p for _, chunk in sent for p in chunk) == sorted(
                pivots
            )
            assert service.metrics.get("service_plan_makespan") == makespan
            shards_used = {shard for shard, _ in sent}
            assert response.shard_fanout == len(shards_used)
            assert 1 <= response.shard_fanout <= SHARDS

    def test_fewer_pivots_than_a_chunk_run_as_one_task(self):
        # Two "A" vertices, so a single A-B edge query has two clusters.
        data = Graph(
            6,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
            labels=["A", "B", "C", "A", "B", "C"],
        )
        query = Graph(2, [(0, 1)], labels=["A", "B"])
        pivots, expected_sets, _ = self._chunks(query, data, 4)
        assert 1 < len(pivots) < 4
        assert expected_sets == [set(pivots)]
        with ShardedMatchService(data, shards=4) as service:
            sent = record_sent(service)
            response = service.match(MatchRequest(query))
            assert response.status == Status.OK
            assert response.count == CECIMatcher(query, data).count()
            assert response.shard_fanout == len(sent) == 1
            assert set(sent[0][1]) == set(pivots)


def test_share_reply_is_one_packed_array():
    """A chunk's reply crosses the pipe as one int32 row array plus its
    unit count and stats: no tuple is built or pickled in the shard."""
    data, queries = make_wide()
    query = queries[0]
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
    assert len(payloads) == chunk_count(len(pivots_of(query, data)), 2) > 1
    assert 1 <= response.shard_fanout <= 2
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
