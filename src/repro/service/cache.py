"""Cross-query index cache — the warm path of the resident service.

Building a CECI (filter + refine + freeze) dominates small-query latency,
yet the frozen :class:`~repro.core.store.CompactCECI` depends only on the
*(data graph, query graph up to isomorphism)* pair — not on the request's
limit, budget or symmetry setting (the matcher never consults the
symmetry breaker while building).  :class:`IndexCache` therefore keys
frozen stores by ``(data fingerprint, canonical query signature)`` and
serves every structurally-equal request from one build:

* **hit** — the store is resident;
* **warm** — an eviction spilled a CECIIDX3 blob
  (:func:`~repro.core.persist.dump_store_bytes`) into ``spill_dir`` and
  reviving the arrays is far cheaper than rebuilding;
* **coalesced** — another request is building the same key right now;
  this one waits on the in-flight build instead of duplicating it;
* **miss** — this request pays for the build (and populates the cache).

Which entries stay resident is decided by frequency, not recency alone
(W-TinyLFU's admission rule; Einziger, Friedman and Manes, "TinyLFU: A
Highly Efficient Cache Admission Policy", ACM TOS 2017).  Every lookup
of a key bumps its count in a plain dict.  Each newly resident entry
(built or revived) enters as a one-entry *window*; when the next one
arrives and the cache overflows, the previous window entry and the
least-recently-used entry of the rest compete, and the one with the
lower count is evicted (ties evict the window entry).  A one-off query
therefore displaces only the previous one-off, never a Zipf head that
was merely not asked for lately.  Counts age: every
:data:`AGING_PERIOD` ``× capacity`` lookups each count is halved and
zeros are dropped, so a key's count tracks its recent popularity and
the dict stays at most that many keys.  The period is TinyLFU's sample
size of ten times the cache size: long enough that a head key's count
clearly exceeds a tail key's, short enough that a shifted mix takes
over within a few periods.  At capacity 1 the resident entry is always
the previous window entry, so the policy is plain LRU.

Isomorphic-but-relabeled queries share a cache slot.  The cached store
was built for one *representative* labeling, so :meth:`IndexCache.adapt`
transplants it onto the request's labeling: the canonical orders of the
two graphs compose into an isomorphism ``sigma`` (see
:func:`~repro.core.automorphism.canonical_form`), and every per-query-
vertex array is re-indexed through ``sigma`` while the query tree is
rebuilt with explicitly mapped parents (BFS tie-breaking is labeling-
dependent, so the parents must be carried, not re-derived).  The
transplanted index is *array-identical* to the cached one — data-vertex
content is untouched — so enumeration from it yields exactly the
embedding set of the request's query.  ``adapt`` re-verifies that
``sigma`` is a labeled isomorphism before trusting it, so even a
signature collision degrades to a fresh build, never a wrong answer.

The canonical form and the symmetry breaker of a query are pure
functions of its exact labeled graph, yet cost more than a cache hit
itself.  :func:`query_labeling` memoises both per labeled query
(:meth:`Graph.__eq__` / ``__hash__``), so a repeated labeling — a
resubmitted query, equal but parsed afresh — pays for them once.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..core.automorphism import SymmetryBreaker, canonical_form
from ..core.persist import ChecksumError, dump_store_bytes, load_store_bytes
from ..core.query_tree import QueryTree
from ..core.store import CompactCECI, PairArrays
from ..graph import Graph
from ..parallel.scheduling import Assignment

__all__ = [
    "CacheEntry",
    "IndexCache",
    "QueryLabeling",
    "query_labeling",
    "transplant_store",
]

#: Lookups between two halvings of the frequency counts, per entry of
#: capacity (TinyLFU's sample size W = 10 × cache size).
AGING_PERIOD = 10

#: Distinct labeled queries whose canonical form and symmetry breaker
#: :func:`query_labeling` keeps.
LABELING_MEMO_SIZE = 256


class QueryLabeling:
    """What the service derives from one exact labeled query graph: its
    canonical ``signature`` and ``order`` (:func:`canonical_form`) and,
    built on first use, its :class:`SymmetryBreaker`.

    One instance is shared by every request with an equal query graph,
    on any thread; the breaker is read-only after construction (the
    enumerators only call :meth:`SymmetryBreaker.admissible` and read
    ``conditions``), so sharing it is safe.
    """

    __slots__ = ("query", "signature", "order", "_symmetry")

    def __init__(self, query: Graph) -> None:
        self.query = query
        self.signature, self.order = canonical_form(query)
        self._symmetry: Optional[SymmetryBreaker] = None

    def symmetry(self, enabled: bool) -> SymmetryBreaker:
        """The query's symmetry breaker; a disabled one is trivial, so
        only the enabled breaker is memoised."""
        if not enabled:
            return SymmetryBreaker(self.query, enabled=False)
        if self._symmetry is None:
            # Two threads may both build it; either result is the same.
            self._symmetry = SymmetryBreaker(self.query)
        return self._symmetry


@functools.lru_cache(maxsize=LABELING_MEMO_SIZE)
def query_labeling(query: Graph) -> QueryLabeling:
    """The memoised :class:`QueryLabeling` of ``query``, shared by every
    equal labeled graph (bounded to :data:`LABELING_MEMO_SIZE`)."""
    return QueryLabeling(query)


class CacheEntry:
    """One cached frozen index plus what :meth:`IndexCache.adapt` needs
    to re-target it: the representative query's canonical order and the
    build cost (for the warm-speedup accounting).  ``unit_plan`` is the
    owning service's memo of the index's batched chunk plan
    (``(pivots, LPT plan, pivots per chunk)``); it lives and
    dies with the entry, so an evicted index is planned afresh."""

    __slots__ = ("key", "store", "canon_order", "build_seconds", "unit_plan")

    def __init__(
        self,
        key: Tuple[str, str],
        store: CompactCECI,
        canon_order: Tuple[int, ...],
        build_seconds: float,
    ) -> None:
        self.key = key
        self.store = store
        self.canon_order = canon_order
        self.build_seconds = build_seconds
        self.unit_plan: Optional[
            Tuple[List[int], Assignment, List[List[int]]]
        ] = None


def transplant_store(
    store: CompactCECI, query: Graph, sigma: List[int]
) -> CompactCECI:
    """Re-index a frozen store built for ``store.tree.query`` onto the
    isomorphic ``query`` via the vertex map ``sigma`` (representative
    vertex ``u`` plays the role of ``sigma[u]``).

    Only query-vertex-indexed containers move; the int64 candidate
    arrays themselves (data-vertex content) are shared untouched.  The
    tree is rebuilt with the *mapped* parents so it is exactly the
    relabeled original — re-deriving it by BFS could pick different
    parents and silently mismatch the TE/NTE arrays.
    """
    tree = store.tree
    n = query.num_vertices
    root = sigma[tree.root]
    order = [sigma[u] for u in tree.order]
    parents = [-1] * n
    for u in range(n):
        p = tree.parent[u]
        parents[sigma[u]] = sigma[p] if p >= 0 else -1
    mapped_tree = QueryTree(query, root, order, parents=parents)
    te: List[Optional[PairArrays]] = [None] * n
    nte: List[Optional[Dict[int, PairArrays]]] = [None] * n
    card: List[Optional[Tuple]] = [None] * n
    for u in range(n):
        te[sigma[u]] = store.te[u]
        nte[sigma[u]] = {
            sigma[u_n]: triple for u_n, triple in store.nte[u].items()
        }
        card[sigma[u]] = store.card[u]
    return CompactCECI(
        mapped_tree,
        store.data,
        store.pivots,
        te,  # type: ignore[arg-type]
        nte,  # type: ignore[arg-type]
        card,  # type: ignore[arg-type]
        nte_built=store.nte_built,
    )


def _is_isomorphism(a: Graph, b: Graph, sigma: List[int]) -> bool:
    """Whether ``sigma`` maps ``a`` onto ``b`` preserving labels and
    adjacency — the cheap O(n + m) certificate check that makes a
    canonical-signature collision harmless."""
    if a.num_vertices != b.num_vertices or a.num_edges != b.num_edges:
        return False
    if sorted(sigma) != list(range(a.num_vertices)):
        return False
    for u in a.vertices():
        if a.labels_of(u) != b.labels_of(sigma[u]):
            return False
    for s, d in a.edges:
        if not b.has_edge(sigma[s], sigma[d]):
            return False
    return True


class IndexCache:
    """Bounded cache of frozen stores for one data graph, with
    frequency-based admission, a spill tier and in-flight build
    coalescing.

    Thread-safe: every counter and the frequency dict change under one
    lock.  ``get_or_build`` blocks only the requests that truly depend
    on the same key: the lock is never held while building, loading a
    spilled blob, or waiting on another request's build.
    """

    #: ``get_or_build``'s second return value.
    TAGS = ("hit", "warm", "coalesced", "miss")

    def __init__(
        self,
        data: Graph,
        capacity: int = 32,
        spill_dir: Optional[str] = None,
        spill_max_bytes: Optional[int] = None,
        metrics=None,
        fault_plan=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if spill_max_bytes is not None and spill_max_bytes < 1:
            raise ValueError("spill_max_bytes must be >= 1")
        self.data = data
        self.data_fingerprint = data.fingerprint()
        self.capacity = capacity
        self.spill_dir = spill_dir
        self.spill_max_bytes = spill_max_bytes
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        self.metrics = metrics
        #: Seeded FaultPlan consulted at the spill write/read points
        #: (torn writes, corrupted reads) — the service chaos harness.
        self.fault_plan = fault_plan
        #: Resident entries in recency order (least recent first).
        self._lru: "OrderedDict[Tuple[str, str], CacheEntry]" = OrderedDict()
        #: The most recently admitted key: the one-entry window.
        self._window: Optional[Tuple[str, str]] = None
        #: Lookups per key since the counts last aged.
        self._freq: Dict[Tuple[str, str], int] = {}
        self._lookups = 0
        self._inflight: Dict[Tuple[str, str], threading.Event] = {}
        self._lock = threading.Lock()
        #: Spill files in LRU order (path -> bytes on disk); pre-existing
        #: blobs found in spill_dir join in mtime order so a restarted
        #: service keeps honouring the byte bound.
        self._spill_files: "OrderedDict[str, int]" = OrderedDict()
        self._spill_writes = 0
        self._spill_reads = 0
        self.hits = 0
        self.warm_hits = 0
        self.misses = 0
        self.coalesced = 0
        self.transplants = 0
        self.evictions = 0
        self.spills = 0
        self.spill_corrupt = 0
        self.spill_evicted = 0
        if spill_dir is not None:
            found = []
            for name in os.listdir(spill_dir):
                if not name.endswith(".ceci"):
                    continue
                path = os.path.join(spill_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append((stat.st_mtime, path, stat.st_size))
            for _, path, size in sorted(found):
                self._spill_files[path] = size

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a counter (and its metric); called with the lock held."""
        setattr(self, name, getattr(self, name) + amount)
        if self.metrics is not None:
            self.metrics.inc(f"service_index_cache_{name}", amount)

    # ------------------------------------------------------------------
    # Lookup / build
    # ------------------------------------------------------------------
    def get_or_build(
        self,
        query: Graph,
        build: Callable[[], CompactCECI],
    ) -> Tuple[CacheEntry, str, Tuple[int, ...]]:
        """The cache entry for ``query``'s isomorphism class.

        Returns ``(entry, tag, canonical order of *query*)`` — pass the
        order to :meth:`adapt` to obtain a store enumerable for this
        exact labeling.  ``build`` is called (without any cache lock
        held) only when this request loses the race for an existing
        entry and the spill tier has nothing; it must return the frozen
        store built for ``query`` itself.
        """
        labeling = query_labeling(query)
        signature, order = labeling.signature, labeling.order
        key = (self.data_fingerprint, signature)
        waited = False
        while True:
            with self._lock:
                if not waited:
                    self._record_lookup(key)
                entry = self._lru.get(key)
                if entry is not None:
                    self._lru.move_to_end(key)
                    self._count("coalesced" if waited else "hits")
                    return entry, "coalesced" if waited else "hit", order
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    break
            # Someone else is building this key: wait outside the lock,
            # then re-check (on build failure we may become the builder).
            event.wait()
            waited = True

        tag = "miss"
        try:
            entry = self._load_spilled(key, signature)
            if entry is not None:
                tag = "warm"
            else:
                started = time.perf_counter()
                store = build()
                entry = CacheEntry(
                    key, store, order, time.perf_counter() - started
                )
        except BaseException:
            with self._lock:
                self._inflight.pop(key).set()
            raise
        with self._lock:
            self._count("warm_hits" if tag == "warm" else "misses")
            self._admit(entry)
            self._inflight.pop(key).set()
        return entry, tag, order

    def _record_lookup(self, key: Tuple[str, str]) -> None:
        """Count one lookup of ``key``; every ``AGING_PERIOD × capacity``
        lookups (or as soon as that many keys are counted) halve every
        count and drop the zeros.  Called with the lock held."""
        self._freq[key] = self._freq.get(key, 0) + 1
        self._lookups += 1
        period = AGING_PERIOD * self.capacity
        if self._lookups >= period or len(self._freq) > period:
            self._lookups = 0
            self._freq = {
                k: count >> 1 for k, count in self._freq.items() if count > 1
            }

    def _admit(self, entry: CacheEntry) -> None:
        """Make ``entry`` resident as the new window entry; on overflow
        evict whichever of the previous window entry and the least-
        recently-used entry of the rest was looked up less often (ties
        evict the window entry).  Called with the lock held."""
        key = entry.key
        previous, self._window = self._window, key
        self._lru[key] = entry
        self._lru.move_to_end(key)
        if len(self._lru) <= self.capacity:
            return
        rest = next((k for k in self._lru if k not in (key, previous)), None)
        if previous not in self._lru or (
            rest is not None
            and self._freq.get(previous, 0) > self._freq.get(rest, 0)
        ):
            victim = rest
        else:
            victim = previous
        self._count("evictions")
        self._spill(self._lru.pop(victim))

    def adapt(
        self, entry: CacheEntry, query: Graph, order: Tuple[int, ...]
    ) -> Optional[CompactCECI]:
        """A store enumerable for ``query`` itself, from a cached entry
        of its isomorphism class — the representative store when the
        labelings coincide (bit-identical reuse), a transplant through
        ``sigma`` otherwise.  Returns ``None`` when the certificate
        check fails (signature collision): the caller must build fresh.
        """
        rep = entry.store.tree.query
        if len(order) != rep.num_vertices:
            return None
        rep_position = {u: i for i, u in enumerate(entry.canon_order)}
        sigma = [order[rep_position[u]] for u in range(rep.num_vertices)]
        if not _is_isomorphism(rep, query, sigma):
            return None
        if all(sigma[u] == u for u in range(rep.num_vertices)):
            return entry.store
        with self._lock:
            self._count("transplants")
        return transplant_store(entry.store, query, sigma)

    # ------------------------------------------------------------------
    # Spill tier
    # ------------------------------------------------------------------
    def _spill_path(self, key: Tuple[str, str]) -> str:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        assert self.spill_dir is not None
        return os.path.join(self.spill_dir, f"{digest}.ceci")

    def _spill(self, entry: CacheEntry) -> None:
        """Evicted entries demote to a checksummed CECIIDX3 blob on disk
        instead of vanishing — reviving arrays is far cheaper than
        rebuilding.  The spill directory is byte-bounded: past
        ``spill_max_bytes`` the least-recently-used blobs are deleted
        (called with the cache lock held)."""
        if self.spill_dir is None:
            return
        path = self._spill_path(entry.key)
        if os.path.exists(path):
            return
        blob = dump_store_bytes(entry.store)
        write_index = self._spill_writes
        self._spill_writes += 1
        if self.fault_plan is not None and self.fault_plan.spill_write_torn_at(
            write_index
        ):
            # Injected torn write: the blob is cut mid-array, as if the
            # process died between write() and fsync().  The checksum
            # table (already fully inside the header) must catch it.
            blob = blob[: max(len(blob) * 2 // 3, 1)]
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
        self._spill_files[path] = len(blob)
        self._spill_files.move_to_end(path)
        self._count("spills")
        self._enforce_spill_bound(keep=path)

    def _enforce_spill_bound(self, keep: Optional[str] = None) -> None:
        """Delete least-recently-used spill files until the directory is
        back under ``spill_max_bytes`` (the just-written ``keep`` blob
        survives even when it alone exceeds the bound)."""
        if self.spill_max_bytes is None:
            return
        total = sum(self._spill_files.values())
        for path, size in list(self._spill_files.items()):
            if total <= self.spill_max_bytes:
                break
            if path == keep:
                continue
            self._spill_files.pop(path, None)
            try:
                os.remove(path)
            except OSError:
                pass
            total -= size
            self._count("spill_evicted")

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a corrupt/mismatched spill blob aside (``*.corrupt``) so
        it is rebuilt once instead of re-read and re-failed on every
        subsequent miss, and count it."""
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        with self._lock:
            self._spill_files.pop(path, None)
            self._count("spill_corrupt")

    def _load_spilled(
        self, key: Tuple[str, str], signature: str
    ) -> Optional[CacheEntry]:
        """Revive a spilled entry, or ``None``.  A blob that fails its
        block checksums, cannot be parsed, or whose revived query's
        canonical signature does not match the key is *quarantined*
        (renamed ``*.corrupt``), never silently retried.  The revived
        query graph went through the persist label round-trip, so its
        signature is re-derived and must match — a mismatch (labels
        that don't survive ``repr``) falls back to a fresh build."""
        if self.spill_dir is None:
            return None
        path = self._spill_path(key)
        if not os.path.exists(path):
            return None
        with self._lock:
            read_index = self._spill_reads
            self._spill_reads += 1
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        if self.fault_plan is not None and self.fault_plan.spill_read_corrupt_at(
            read_index
        ):
            # Injected read-side corruption: one byte flipped inside the
            # array region (bit rot / torn sector on the read path).
            flip = max(len(raw) - 9, 0)
            raw = raw[:flip] + bytes([raw[flip] ^ 0x01]) + raw[flip + 1:]
        try:
            store = load_store_bytes(raw, self.data)
        except ChecksumError as exc:
            self._quarantine(path, f"checksum: {exc}")
            return None
        except Exception as exc:  # noqa: BLE001 - any parse failure
            # (legacy un-checksummed blobs corrupt in ways numpy reports
            # idiosyncratically) means the blob can never be served.
            self._quarantine(path, f"unparseable: {exc!r}")
            return None
        revived = query_labeling(store.tree.query)
        if revived.signature != signature:
            self._quarantine(path, "canonical signature mismatch")
            return None
        with self._lock:
            if path in self._spill_files:
                self._spill_files.move_to_end(path)
        return CacheEntry(key, store, revived.order, 0.0)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Counters + occupancy as one JSON-friendly dict."""
        with self._lock:
            snap: Dict[str, float] = {
                name: getattr(self, name)
                for name in (
                    "hits", "warm_hits", "coalesced", "misses",
                    "transplants", "evictions", "spills", "spill_corrupt",
                    "spill_evicted",
                )
            }
            snap["spill_files"] = len(self._spill_files)
            snap["spill_bytes"] = sum(self._spill_files.values())
            snap["entries"] = len(self._lru)
        snap["capacity"] = self.capacity
        served = snap["hits"] + snap["warm_hits"] + snap["coalesced"]
        probes = served + snap["misses"]
        snap["hit_rate"] = round(served / probes, 6) if probes else 0.0
        return snap
