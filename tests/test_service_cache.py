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
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

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


# ----------------------------------------------------------------------
# Admission by frequency
# ----------------------------------------------------------------------

def _label_key(label: int) -> Graph:
    """A one-vertex query per label: a distinct cache key each, with a
    trivial canonical form."""
    return Graph(1, [], labels=[label])


def _zipf_stream(keys: int, length: int, seed: int) -> List[int]:
    """``length`` lookups of ``keys`` keys holding Zipf frequencies
    (rank ``r`` weighs ``1/(r+1)``) in one seeded shuffled order."""
    import random

    weights = [1.0 / (r + 1) for r in range(keys)]
    counts = [round(length * w / sum(weights)) for w in weights]
    stream = [r for r, count in enumerate(counts) for _ in range(count)]
    random.Random(seed).shuffle(stream)
    return stream


def _lru_hits(stream: List[int], capacity: int) -> int:
    from collections import OrderedDict

    resident: "OrderedDict[int, None]" = OrderedDict()
    hits = 0
    for key in stream:
        if key in resident:
            resident.move_to_end(key)
            hits += 1
            continue
        resident[key] = None
        if len(resident) > capacity:
            resident.popitem(last=False)
    return hits


def _replay(stream: List[int], capacity: int) -> IndexCache:
    _, data = _instance()
    cache = IndexCache(data, capacity=capacity)
    queries = {key: _label_key(key) for key in set(stream)}
    for key in stream:
        cache.get_or_build(queries[key], lambda: object())
    return cache


#: ``(hits, misses, evictions)`` of the seed-0 replay below; LRU serves
#: 107 of its 201 lookups.
PINNED_ZIPF = (125, 76, 72)


def test_zipf_replay_keeps_the_head_resident():
    """A deterministic Zipf replay over 10 keys through 4 slots: the
    frequency rule's hit count is pinned, and at least LRU's on the same
    stream (one-off keys displace each other, not the head)."""
    stream = _zipf_stream(10, 200, seed=0)
    cache = _replay(stream, capacity=4)
    assert cache.hits + cache.misses == len(stream)
    assert (cache.hits, cache.misses, cache.evictions) == PINNED_ZIPF
    assert cache.hits >= _lru_hits(stream, 4)


def test_capacity_one_is_lru():
    """With one slot the resident entry is always the previous window
    entry, so every new key evicts it: the LRU hit count exactly."""
    for seed in range(5):
        stream = _zipf_stream(6, 60, seed=seed)
        cache = _replay(stream, capacity=1)
        assert cache.hits == _lru_hits(stream, 1)
        assert cache.evictions == cache.misses - 1


def test_frequent_key_outlives_a_burst_of_one_offs():
    """Two heavily used keys stay resident through a burst of one-off
    keys; under LRU the burst would flush them."""
    _, data = _instance()
    cache = IndexCache(data, capacity=3)
    hot = [_label_key(0), _label_key(1)]
    for _ in range(3):
        for query in hot:
            cache.get_or_build(query, lambda: object())
    for label in range(100, 110):
        cache.get_or_build(_label_key(label), lambda: object())
    for query in hot:
        _, tag, _ = cache.get_or_build(query, lambda: object())
        assert tag == "hit"
    assert len(cache) == 3


def test_frequency_counts_age():
    """Every ``AGING_PERIOD × capacity`` lookups the counts halve and
    zeros drop, and the dict never outgrows that many keys."""
    from repro.service.cache import AGING_PERIOD

    _, data = _instance()
    cache = IndexCache(data, capacity=2)
    period = AGING_PERIOD * 2
    query = _label_key(0)
    for _ in range(period - 1):
        cache.get_or_build(query, lambda: object())
    (key,) = cache._freq
    assert cache._freq[key] == period - 1
    cache.get_or_build(query, lambda: object())  # the period-th lookup
    assert cache._freq[key] == period // 2
    # Keys looked up twice survive a halving; without the size trigger a
    # period of them on top of the survivors would pass the bound.
    for label in range(1, 3 * period):
        for _ in range(2):
            cache.get_or_build(_label_key(label), lambda: object())
            assert len(cache._freq) <= period


def test_counters_balance_under_concurrent_lookups():
    """Eight threads look up their own distinct keys (and revisit some)
    at once, with the interpreter switching threads every microsecond:
    every call is counted in exactly one tier, and each tier's counter
    equals the tags the calls returned."""
    import sys
    from collections import Counter

    _, data = _instance()
    cache = IndexCache(data, capacity=4)
    threads_n, per_thread = 8, 250
    tags: List[str] = []
    barrier = threading.Barrier(threads_n)

    def probe(worker: int) -> None:
        mine: List[str] = []
        barrier.wait()
        for i in range(per_thread):
            label = worker * 1000 + (i % 200)
            _, tag, _ = cache.get_or_build(_label_key(label), lambda: object())
            mine.append(tag)
        tags.extend(mine)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=probe, args=(w,)) for w in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    seen = Counter(tags)
    snap = cache.snapshot()
    calls = threads_n * per_thread
    assert len(tags) == calls
    assert snap["hits"] + snap["warm_hits"] + snap["coalesced"] + snap[
        "misses"
    ] == calls
    assert snap["hits"] == seen["hit"]
    assert snap["misses"] == seen["miss"]
    assert snap["coalesced"] == seen["coalesced"]
    assert snap["warm_hits"] == seen["warm"] == 0
    assert snap["evictions"] == snap["misses"] - snap["entries"]


# ----------------------------------------------------------------------
# Stateful model of the cache
# ----------------------------------------------------------------------

def _machine_queries() -> List[Graph]:
    """A small key space over the shared instance: a triangle, an edge,
    a wedge and two generated 4-vertex queries, plus relabeled copies
    of two of them (same key, transplanted store)."""
    from repro.graph import generate_query

    triangle, data = _instance()
    edge = data.subgraph(sorted(data.neighbors(0))[:1] + [0])
    wedge = data.subgraph(_wedge_vertices(data))
    fours = [generate_query(data, 4, seed=seed) for seed in (1, 2)]
    return [
        triangle, edge, wedge, *fours,
        _permuted(triangle, [2, 0, 1]), _permuted(wedge, [1, 2, 0]),
    ]


MACHINE_QUERIES = _machine_queries()
_MACHINE_ANSWERS: dict = {}


def _machine_answer(index: int) -> set:
    """What a fresh sequential matcher answers for query ``index``."""
    if index not in _MACHINE_ANSWERS:
        _, data = _instance()
        embeddings = CECIMatcher(
            MACHINE_QUERIES[index], data, break_automorphisms=False
        ).match()
        _MACHINE_ANSWERS[index] = {
            tuple(int(v) for v in e) for e in embeddings
        }
    return _MACHINE_ANSWERS[index]


class IndexCacheMachine(RuleBasedStateMachine):
    """Random lookups through caches of 1–4 slots, with and without a
    spill tier: the occupancy, eviction and frequency bounds hold after
    every step, and every store handed out answers exactly."""

    @initialize(capacity=st.integers(1, 4), spill=st.booleans())
    def start(self, capacity: int, spill: bool) -> None:
        import tempfile

        _, data = _instance()
        self.spill_dir = tempfile.mkdtemp() if spill else None
        self.cache = IndexCache(
            data, capacity=capacity, spill_dir=self.spill_dir
        )
        self.lookups = 0

    @rule(index=st.integers(0, len(MACHINE_QUERIES) - 1))
    def lookup(self, index: int) -> None:
        from collections import Counter

        query = MACHINE_QUERIES[index]
        cache = self.cache
        before = set(cache._lru)
        counters = Counter(cache.snapshot())
        entry, tag, order = cache.get_or_build(
            query, _builder(query, cache.data)
        )
        self.lookups += 1
        after = set(cache._lru)
        snap = cache.snapshot()
        assert entry.key in after
        assert snap["evictions"] - counters["evictions"] == len(before - after)
        assert (tag == "hit") == (entry.key in before)
        tier = {"hit": "hits", "warm": "warm_hits", "miss": "misses"}[tag]
        assert snap[tier] == counters[tier] + 1
        store = cache.adapt(entry, query, order)
        assert store is not None
        got = {tuple(int(v) for v in e) for e in _embeddings_from(store, query)}
        assert got == _machine_answer(index)

    @invariant()
    def bounded(self) -> None:
        from repro.service.cache import AGING_PERIOD

        cache = self.cache
        assert len(cache) <= cache.capacity
        assert len(cache._freq) <= AGING_PERIOD * cache.capacity
        snap = cache.snapshot()
        assert snap["hits"] + snap["warm_hits"] + snap["misses"] == self.lookups
        if self.spill_dir is None:
            assert snap["warm_hits"] == snap["spills"] == 0

    def teardown(self) -> None:
        import shutil

        if getattr(self, "spill_dir", None) is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)


IndexCacheMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestIndexCacheMachine = IndexCacheMachine.TestCase


# ----------------------------------------------------------------------
# One canonical form and symmetry breaker per labeling
# ----------------------------------------------------------------------

def test_repeated_labeling_is_analysed_once(monkeypatch):
    """Requests with equal but distinct query graphs run
    ``canonical_form`` and ``automorphisms`` once between them; a
    relabeled isomorphic query is analysed afresh, still transplants
    onto the cached store and answers exactly."""
    from collections import Counter

    import repro.core.automorphism as automorphism
    import repro.service.cache as cache_module

    query, data = _instance()
    expected = CECIMatcher(query, data).match()
    calls: Counter = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        cache_module, "canonical_form",
        counting("canonical_form", cache_module.canonical_form),
    )
    monkeypatch.setattr(
        automorphism, "automorphisms",
        counting("automorphisms", automorphism.automorphisms),
    )
    cache_module.query_labeling.cache_clear()

    def copy(graph: Graph) -> Graph:
        return Graph(
            graph.num_vertices, graph.edges,
            labels={u: graph.labels_of(u) for u in graph.vertices()},
        )

    with MatchService(data, workers=2) as service:
        for _ in range(4):
            response = service.match(MatchRequest(copy(query)))
            assert response.ok and response.embeddings == expected
        assert calls == {"canonical_form": 1, "automorphisms": 1}
        relabeled = _permuted(query, [1, 2, 0])
        for _ in range(2):
            response = service.match(
                MatchRequest(copy(relabeled), break_automorphisms=False)
            )
            assert response.ok and response.cache == "hit"
            got = {tuple(int(v) for v in e) for e in response.embeddings}
            assert got == brute_force_embeddings(relabeled, data)
        assert service.index_cache.transplants == 2
        assert service.index_cache.misses == 1
    assert calls == {"canonical_form": 2, "automorphisms": 1}
    cache_module.query_labeling.cache_clear()
