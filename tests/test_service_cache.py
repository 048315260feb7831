"""Unit tests for the service's index cache and fair scheduler.

The first test pins an end-to-end regression: two queries over one data
graph whose bare intersection-memo keys ``(query vertex, parent
candidate, NTE candidates)`` collide.  Every memo cache is private to
one enumerator, so both answers must stay exact.

The rest covers the :class:`~repro.service.cache.IndexCache` tiers
(hit / warm spill revival / coalesced in-flight builds / miss), store
transplantation onto relabeled isomorphic queries, and the weighted
fair interleaving the batch scheduler runs on.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

import pytest

from conftest import brute_force_embeddings
from repro.core.automorphism import SymmetryBreaker, canonical_form
from repro.core.enumeration import Enumerator
from repro.core.matcher import CECIMatcher
from repro.core.store import CompactCECI
from repro.graph import Graph, inject_labels
from repro.graph.generators import power_law
from repro.service import (
    CacheEntry,
    IndexCache,
    MatchRequest,
    MatchService,
    TaskQueue,
    transplant_store,
)

# ----------------------------------------------------------------------
# Colliding memo keys across queries
# ----------------------------------------------------------------------

#: K4 whose vertices 0,1 carry both labels, so they are candidates for
#: *both* triangle queries below — the bare cache key ``(u, v_p, nte)``
#: then collides across the queries while the correct TE∩NTE results
#: differ (vertex 2 only matches "x", vertex 3 only "y").
POISON_DATA = Graph(
    4,
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    labels={0: {"x", "y"}, 1: {"x", "y"}, 2: {"x"}, 3: {"y"}},
)
TRIANGLE_X = Graph(3, [(0, 1), (1, 2), (0, 2)], labels=["x", "x", "x"])
TRIANGLE_Y = Graph(3, [(0, 1), (1, 2), (0, 2)], labels=["y", "y", "y"])


def test_service_survives_the_poison_pair():
    """End-to-end: the service answers both colliding queries, in
    turn and repeatedly, and both answers stay exact."""
    with MatchService(POISON_DATA, workers=2) as service:
        for query in (TRIANGLE_X, TRIANGLE_Y, TRIANGLE_X, TRIANGLE_Y):
            response = service.match(
                MatchRequest(query, break_automorphisms=False)
            )
            assert response.ok
            got = {tuple(int(v) for v in e) for e in response.embeddings}
            assert got == brute_force_embeddings(query, POISON_DATA)


# ----------------------------------------------------------------------
# IndexCache tiers
# ----------------------------------------------------------------------

def _instance() -> Tuple[Graph, Graph]:
    data = inject_labels(power_law(80, 3, seed=3), 2, seed=3)
    query = Graph(3, [(0, 1), (1, 2), (0, 2)])
    query = data.subgraph(_triangle_vertices(data))
    return query, data


def _triangle_vertices(data: Graph) -> List[int]:
    for s, d in data.edges:
        common = set(data.neighbors(s)) & set(data.neighbors(d))
        if common:
            return sorted([s, d, common.pop()])
    raise AssertionError("generator produced a triangle-free graph")


def _builder(query: Graph, data: Graph):
    def build() -> CompactCECI:
        store = CECIMatcher(query, data, break_automorphisms=False).build()
        assert isinstance(store, CompactCECI)
        return store

    return build


def _embeddings_from(store: CompactCECI, query: Graph) -> List[Tuple]:
    enumerator = Enumerator(
        store, symmetry=SymmetryBreaker(query, enabled=False)
    )
    return enumerator.collect()


def test_index_cache_miss_then_hit():
    query, data = _instance()
    cache = IndexCache(data, capacity=4)
    entry, tag, order = cache.get_or_build(query, _builder(query, data))
    assert tag == "miss" and cache.misses == 1
    again, tag2, order2 = cache.get_or_build(query, _builder(query, data))
    assert tag2 == "hit" and again is entry and order2 == order
    # Identical labeling -> adapt returns the very same store object.
    assert cache.adapt(again, query, order2) is entry.store
    snap = cache.snapshot()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["hit_rate"] == 0.5


def test_index_cache_eviction_spills_and_revives(tmp_path):
    query, data = _instance()
    other = data.subgraph(sorted(data.neighbors(0))[:1] + [0])  # an edge
    cache = IndexCache(data, capacity=1, spill_dir=str(tmp_path))
    entry, _, order = cache.get_or_build(query, _builder(query, data))
    reference = _embeddings_from(entry.store, query)
    cache.get_or_build(other, _builder(other, data))  # evicts the triangle
    assert cache.evictions == 1 and cache.spills == 1
    revived, tag, order2 = cache.get_or_build(query, _builder(query, data))
    assert tag == "warm" and cache.warm_hits == 1
    store = cache.adapt(revived, query, order2)
    assert store is not None
    assert _embeddings_from(store, query) == reference


def test_index_cache_without_spill_dir_rebuilds():
    query, data = _instance()
    other = data.subgraph(sorted(data.neighbors(0))[:1] + [0])
    cache = IndexCache(data, capacity=1)
    cache.get_or_build(query, _builder(query, data))
    cache.get_or_build(other, _builder(other, data))
    _, tag, _ = cache.get_or_build(query, _builder(query, data))
    assert tag == "miss" and cache.misses == 3 and cache.spills == 0


def test_index_cache_coalesces_concurrent_builds():
    """N threads race one cold key: exactly one build happens, the rest
    wait on the in-flight event and report ``coalesced`` (or ``hit`` if
    they arrive after insertion)."""
    query, data = _instance()
    builds = []

    def slow_build() -> CompactCECI:
        time.sleep(0.05)
        builds.append(1)
        return _builder(query, data)()

    cache = IndexCache(data, capacity=4)
    tags: List[str] = []
    barrier = threading.Barrier(4)

    def probe() -> None:
        barrier.wait()
        _, tag, _ = cache.get_or_build(query, slow_build)
        tags.append(tag)

    threads = [threading.Thread(target=probe) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(builds) == 1
    assert sorted(tags).count("miss") == 1
    assert set(tags) <= {"miss", "coalesced", "hit"}
    assert cache.coalesced + cache.hits == 3


def test_index_cache_failed_build_releases_waiters():
    query, data = _instance()
    cache = IndexCache(data, capacity=4)

    def broken() -> CompactCECI:
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        cache.get_or_build(query, broken)
    # The in-flight slot was released: the next caller becomes the
    # builder instead of deadlocking on a dead event.
    _, tag, _ = cache.get_or_build(query, _builder(query, data))
    assert tag == "miss"


def test_index_cache_rejects_bad_capacity():
    _, data = _instance()
    with pytest.raises(ValueError):
        IndexCache(data, capacity=0)


def _wedge_vertices(data: Graph) -> List[int]:
    """Three vertices inducing a path (a wedge) — non-isomorphic to both
    the triangle and the single edge used by the other spill tests."""
    for u in data.vertices():
        neighbors = sorted(data.neighbors(u))
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                if not data.has_edge(a, b):
                    return sorted([a, u, b])
    raise AssertionError("generator produced no induced wedge")


def test_corrupt_spill_file_quarantined_then_rebuilt(tmp_path):
    """Real on-disk rot: a byte of the spilled CECIIDX3 blob flips while
    it sits in the spill dir.  Revival must detect it via the block
    checksums, rename the blob ``*.corrupt`` and fall back to a fresh
    build — never serve the rotten arrays."""
    query, data = _instance()
    other = data.subgraph(sorted(data.neighbors(0))[:1] + [0])
    cache = IndexCache(data, capacity=1, spill_dir=str(tmp_path))
    entry, _, order = cache.get_or_build(query, _builder(query, data))
    reference = _embeddings_from(entry.store, query)
    cache.get_or_build(other, _builder(other, data))  # spills the triangle
    spilled = list(tmp_path.glob("*.ceci"))
    assert len(spilled) == 1
    raw = spilled[0].read_bytes()
    pos = len(raw) - 5  # inside the last array block
    spilled[0].write_bytes(raw[:pos] + bytes([raw[pos] ^ 0x40]) + raw[pos + 1:])
    revived, tag, order2 = cache.get_or_build(query, _builder(query, data))
    assert tag == "miss"  # quarantined, not warm-revived
    snap = cache.snapshot()
    assert snap["spill_corrupt"] == 1
    assert len(list(tmp_path.glob("*.corrupt"))) == 1
    store = cache.adapt(revived, query, order2)
    assert store is not None
    assert _embeddings_from(store, query) == reference


def test_spill_dir_byte_bound_evicts_oldest(tmp_path):
    """``spill_max_bytes`` keeps the spill dir bounded: when a new spill
    pushes the directory over the bound, least-recently-used blobs are
    deleted (the just-written blob always survives)."""
    query, data = _instance()
    edge = data.subgraph(sorted(data.neighbors(0))[:1] + [0])
    wedge = data.subgraph(_wedge_vertices(data))
    cache = IndexCache(
        data, capacity=1, spill_dir=str(tmp_path), spill_max_bytes=1
    )
    cache.get_or_build(query, _builder(query, data))
    cache.get_or_build(edge, _builder(edge, data))  # spills the triangle
    first_spill = list(tmp_path.glob("*.ceci"))
    assert len(first_spill) == 1
    cache.get_or_build(wedge, _builder(wedge, data))  # spills the edge
    snap = cache.snapshot()
    assert snap["spill_evicted"] == 1
    assert snap["spill_files"] == 1  # the triangle blob was deleted
    assert not first_spill[0].exists()
    # The deleted blob is gone for good: the triangle now rebuilds cold.
    _, tag, _ = cache.get_or_build(query, _builder(query, data))
    assert tag == "miss"


def test_spill_bound_rejects_nonpositive():
    _, data = _instance()
    with pytest.raises(ValueError):
        IndexCache(data, capacity=1, spill_max_bytes=0)


# ----------------------------------------------------------------------
# Transplanting onto relabeled isomorphic queries
# ----------------------------------------------------------------------

def _permuted(query: Graph, perm: List[int]) -> Graph:
    """The same labeled graph with vertex ``u`` renamed ``perm[u]``."""
    edges = [(perm[s], perm[d]) for s, d in query.edges]
    labels = {perm[u]: query.labels_of(u) for u in query.vertices()}
    return Graph(query.num_vertices, edges, labels=labels)


def test_transplant_matches_brute_force():
    query, data = _instance()
    perm = [2, 0, 1]
    relabeled = _permuted(query, perm)
    store = CECIMatcher(query, data, break_automorphisms=False).build()
    assert isinstance(store, CompactCECI)
    moved = transplant_store(store, relabeled, perm)
    got = {
        tuple(int(v) for v in e) for e in _embeddings_from(moved, relabeled)
    }
    assert got == brute_force_embeddings(relabeled, data)


def test_adapt_serves_relabeled_query_from_one_slot():
    query, data = _instance()
    relabeled = _permuted(query, [1, 2, 0])
    cache = IndexCache(data, capacity=4)
    cache.get_or_build(query, _builder(query, data))
    entry, tag, order = cache.get_or_build(
        relabeled, _builder(relabeled, data)
    )
    assert tag == "hit" and len(cache) == 1
    store = cache.adapt(entry, relabeled, order)
    assert store is not None and store is not entry.store
    got = {
        tuple(int(v) for v in e)
        for e in _embeddings_from(store, relabeled)
    }
    assert got == brute_force_embeddings(relabeled, data)


def test_adapt_refuses_non_isomorphic_representative():
    """A forged signature collision must degrade to ``None`` (the
    service then builds privately), never to a wrong store."""
    query, data = _instance()
    store = CECIMatcher(query, data, break_automorphisms=False).build()
    assert isinstance(store, CompactCECI)
    _, canon_order = canonical_form(query)
    entry = CacheEntry(("fp", "sig"), store, canon_order, 0.0)
    impostor = Graph(3, [(0, 1), (1, 2)])  # path, not a triangle
    _, impostor_order = canonical_form(impostor)
    cache = IndexCache(data, capacity=4)
    assert cache.adapt(entry, impostor, impostor_order) is None


# ----------------------------------------------------------------------
# Task queue lanes
# ----------------------------------------------------------------------

def test_task_queue_serves_lanes_in_priority_order():
    """Recovered tasks first, then solo, then batched; FIFO within a
    lane, whatever the push order."""
    queue: TaskQueue[str] = TaskQueue()
    queue.push("a0")
    queue.push("b0")
    queue.push_solo("s0")
    queue.push("a1")
    queue.push_recovered("r0")
    queue.push_solo("s1")
    queue.push_recovered("r1")
    drained = [queue.pop(timeout=0.1) for _ in range(7)]
    assert drained == ["r0", "r1", "s0", "s1", "a0", "b0", "a1"]
    assert queue.pop(timeout=0.01) is None
    snapshot = queue.snapshot()
    assert snapshot["depth"] == 0 and snapshot["popped"] == 7
    assert (
        snapshot["pushed_recovered"], snapshot["pushed_solo"],
        snapshot["pushed_units"],
    ) == (2, 2, 3)


def test_fair_task_queue_close_drains_then_signals():
    queue: TaskQueue[int] = TaskQueue()
    queue.push_solo(1)
    queue.close()
    assert queue.pop() == 1
    assert queue.pop() is None
    with pytest.raises(RuntimeError):
        queue.push_solo(2)
