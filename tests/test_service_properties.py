"""Property/metamorphic harness for the resident match service.

The service's contract is *exactness*: whatever combination of cache
tier (cold build, LRU hit, spill revival), execution shape (batched
cluster units vs. solo) and truncation (limit, budget) serves a
request, the response must reproduce a fresh sequential
``CECIMatcher(query, data).run()`` — embedding for embedding, in order,
for the bit-identical modes; set-for-set where only enumeration order
may legitimately differ (relabeled isomorphic hits, symmetry breaking).

Mirrors :mod:`test_differential`: seeded random instances, and on a
mismatch the query is shrunk by dropping edges (staying connected)
while the disagreement persists, so a failing seed reports a minimal
reproducer instead of a 16-vertex haystack.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from test_differential import make_instance
from repro.core.matcher import CECIMatcher
from repro.graph import Graph
from repro.resilience.budget import Budget
from repro.service import MatchRequest, MatchService, Status

#: The service modes every instance is checked under; each entry must
#: agree with the fresh sequential matcher (see ``_mode_failures``).
MODES = (
    "cold",
    "warm-hit",
    "solo-vs-batched",
    "limit-prefix",
    "budget-prefix",
)


def _fresh(
    query: Graph,
    data: Graph,
    limit: Optional[int] = None,
    budget: Optional[Budget] = None,
    break_automorphisms: bool = False,
):
    """The sequential reference — same engine configuration the service
    fixes service-wide (bfs order, refinement, intersections on)."""
    matcher = CECIMatcher(
        query, data, break_automorphisms=break_automorphisms, budget=budget
    )
    return matcher.run(limit)


def _mode_failures(query: Graph, data: Graph) -> List[str]:
    """Names of MODES whose service response diverges from the fresh
    sequential matcher on this instance (empty list = all exact)."""
    failures: List[str] = []
    expected = _fresh(query, data).embeddings
    request = lambda **kw: MatchRequest(  # noqa: E731 - local shorthand
        query, break_automorphisms=False, **kw
    )
    with MatchService(data, workers=2) as service:
        cold = service.match(request())
        if not (cold.ok and cold.cache == "miss"
                and cold.embeddings == expected):
            failures.append("cold")
        warm = service.match(request())
        if not (warm.ok and warm.cache == "hit"
                and warm.embeddings == expected):
            failures.append("warm-hit")
        # limit >= |answer| forces the solo path but must still return
        # the complete batched/sequential answer, in the same order.
        solo = service.match(request(limit=len(expected) + 1))
        if not (solo.ok and solo.embeddings == expected):
            failures.append("solo-vs-batched")
        k = max(1, len(expected) // 2)
        if service.match(request(limit=k)).embeddings != _fresh(
            query, data, limit=k
        ).embeddings:
            failures.append("limit-prefix")
        budget = Budget(max_embeddings=k)
        truncated_fresh = _fresh(query, data, budget=budget)
        truncated = service.match(request(budget=budget))
        agree = (
            truncated.embeddings == truncated_fresh.embeddings
            and truncated.truncated == truncated_fresh.truncated
            and truncated.status
            == (Status.TRUNCATED if truncated_fresh.truncated else Status.OK)
        )
        if not agree:
            failures.append("budget-prefix")
    return failures


def _connected_after_drop(query: Graph, edge_index: int) -> Optional[Graph]:
    edges = [e for i, e in enumerate(query.edges) if i != edge_index]
    labels = {u: query.labels_of(u) for u in query.vertices()}
    shrunk = Graph(query.num_vertices, edges, labels=labels)
    return shrunk if shrunk.is_connected() else None


def _shrink(query: Graph, data: Graph) -> Graph:
    """Greedy edge-dropping shrink, exactly test_differential's loop but
    with service-vs-sequential disagreement as the failure predicate."""
    current = query
    progress = True
    while progress:
        progress = False
        for i in range(len(current.edges)):
            candidate = _connected_after_drop(current, i)
            if candidate is None:
                continue
            if _mode_failures(candidate, data):
                current = candidate
                progress = True
                break
    return current


@pytest.mark.parametrize("seed", range(20))
def test_service_reproduces_sequential_matcher(seed):
    instance = make_instance(seed)
    if instance is None:
        pytest.skip("seed yields no connected query")
    query, data = instance
    failures = _mode_failures(query, data)
    if not failures:
        return
    minimal = _shrink(query, data)
    still = _mode_failures(minimal, data)
    pytest.fail(
        f"seed {seed}: service modes {failures} diverge from the "
        f"sequential matcher.\nMinimal failing query after shrinking "
        f"({len(minimal.edges)} edges, modes {still}):\n"
        f"  vertices={minimal.num_vertices}\n"
        f"  edges={minimal.edges}\n"
        f"  labels={[minimal.labels_of(u) for u in minimal.vertices()]}\n"
        f"  data: |V|={data.num_vertices} edges={data.edges}\n"
        f"  data labels={[data.labels_of(v) for v in data.vertices()]}"
    )


@pytest.mark.parametrize("seed", [1, 4, 8])
def test_symmetry_breaking_matches_sequential(seed):
    """With automorphism breaking ON (the default), the service must
    emit exactly the sequential matcher's representative set."""
    instance = make_instance(seed)
    if instance is None:
        pytest.skip("seed yields no connected query")
    query, data = instance
    expected = _fresh(query, data, break_automorphisms=True).embeddings
    with MatchService(data, workers=2) as service:
        cold = service.match(MatchRequest(query))
        warm = service.match(MatchRequest(query))
    assert cold.ok and cold.embeddings == expected
    assert warm.ok and warm.cache == "hit" and warm.embeddings == expected


def test_relabeled_isomorphic_query_is_set_identical():
    """An isomorphic-but-relabeled repeat hits the same cache slot; its
    transplanted index must yield the same embedding *set* as a fresh
    build for that labeling (order may differ — the tree is the
    representative's image, not this labeling's own BFS)."""
    instance = make_instance(2)
    assert instance is not None
    query, data = instance
    perm = list(range(query.num_vertices))
    perm = perm[1:] + perm[:1]  # rotate vertex names
    relabeled = Graph(
        query.num_vertices,
        [(perm[s], perm[d]) for s, d in query.edges],
        labels={perm[u]: query.labels_of(u) for u in query.vertices()},
    )
    expected = set(_fresh(relabeled, data).embeddings)
    with MatchService(data, workers=2) as service:
        first = service.match(MatchRequest(query, break_automorphisms=False))
        second = service.match(
            MatchRequest(relabeled, break_automorphisms=False)
        )
    assert first.ok and first.cache == "miss"
    assert second.ok and second.cache == "hit"
    assert set(second.embeddings) == expected
    assert len(second.embeddings) == len(expected)


def test_spill_revival_is_bit_identical(tmp_path):
    """Evict through a capacity-1 LRU into the CECIIDX3 spill tier and
    revive: the warm response must equal the cold one exactly."""
    instance = make_instance(5)
    assert instance is not None
    query, data = instance
    # An unlabeled path with one more vertex: structurally guaranteed to
    # live in a different cache slot than ``query``.
    n = query.num_vertices + 1
    evictor_query = Graph(n, [(i, i + 1) for i in range(n - 1)])
    with MatchService(
        data, workers=2, index_capacity=1, spill_dir=str(tmp_path)
    ) as service:
        cold = service.match(MatchRequest(query, break_automorphisms=False))
        # A different query class evicts (and spills) the first index.
        service.match(MatchRequest(evictor_query, break_automorphisms=False))
        revived = service.match(
            MatchRequest(query, break_automorphisms=False)
        )
    assert cold.ok and cold.cache == "miss"
    assert revived.ok and revived.cache == "warm"
    assert revived.embeddings == cold.embeddings
    snapshot = service.index_cache.snapshot()
    assert snapshot["spills"] >= 1 and snapshot["warm_hits"] == 1


def test_budget_deadline_during_build_truncates_like_sequential():
    instance = make_instance(3)
    assert instance is not None
    query, data = instance
    budget = Budget(deadline_seconds=1e-9)
    fresh = _fresh(query, data, budget=budget)
    assert fresh.truncated and fresh.embeddings == []
    with MatchService(data, workers=2) as service:
        response = service.match(
            MatchRequest(query, budget=budget, break_automorphisms=False)
        )
    assert response.status == Status.TRUNCATED
    assert response.truncated and response.embeddings == []
    assert response.stats.budget_stops >= 1


def test_unsatisfiable_query_returns_ok_empty():
    data = Graph(4, [(0, 1), (1, 2), (2, 3)], labels=["x", "x", "x", "x"])
    query = Graph(2, [(0, 1)], labels=["z", "z"])
    with MatchService(data, workers=1) as service:
        response = service.match(MatchRequest(query))
    assert response.status == Status.OK
    assert response.embeddings == [] and not response.truncated


def test_failed_preparation_is_isolated():
    """One request whose index resolution explodes must come back
    FAILED — and the scheduler thread must survive to serve the next."""
    instance = make_instance(1)
    assert instance is not None
    query, data = instance
    with MatchService(data, workers=2) as service:
        original = service.index_cache.get_or_build
        calls = []

        def sabotaged(q, build):
            if not calls:
                calls.append(1)
                raise RuntimeError("sabotaged build")
            return original(q, build)

        service.index_cache.get_or_build = sabotaged
        try:
            failed = service.match(
                MatchRequest(query, break_automorphisms=False)
            )
            recovered = service.match(
                MatchRequest(query, break_automorphisms=False)
            )
        finally:
            service.index_cache.get_or_build = original
    assert failed.status == Status.FAILED
    assert "sabotaged" in (failed.error or "")
    assert recovered.ok
    assert recovered.embeddings == _fresh(query, data).embeddings


def test_response_stats_are_request_local():
    """A response's counters describe that request alone: the embedding
    counter equals the response length even after unrelated requests
    ran concurrently through the same service."""
    instance = make_instance(6)
    assert instance is not None
    query, data = instance
    with MatchService(data, workers=2) as service:
        handles = [
            service.submit(MatchRequest(query, break_automorphisms=False))
            for _ in range(6)
        ]
        responses = [handle.result(timeout=30) for handle in handles]
    for response in responses:
        assert response.ok
        assert response.stats.embeddings_found == response.count


def test_request_validation():
    with pytest.raises(ValueError):
        MatchRequest(Graph(0, []))
    with pytest.raises(ValueError):
        MatchRequest(Graph(3, [(0, 1)]))  # disconnected
    with pytest.raises(ValueError):
        MatchRequest(Graph(2, [(0, 1)]), limit=-1)
    assert MatchRequest(Graph(2, [(0, 1)]), limit=0).solo
    assert MatchRequest(Graph(2, [(0, 1)]), budget=Budget(max_calls=1)).solo
    assert not MatchRequest(Graph(2, [(0, 1)])).solo


def test_closed_service_refuses_submissions():
    data = Graph(3, [(0, 1), (1, 2)])
    service = MatchService(data, workers=1)
    service.close()
    service.close()  # idempotent
    with pytest.raises(RuntimeError):
        service.submit(MatchRequest(Graph(2, [(0, 1)])))
