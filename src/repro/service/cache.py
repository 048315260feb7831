"""Cross-query index cache — the warm path of the resident service.

Building a CECI (filter + refine + freeze) dominates small-query latency,
yet the frozen :class:`~repro.core.store.CompactCECI` depends only on the
*(data graph, query graph up to isomorphism)* pair — not on the request's
limit, budget or symmetry setting (the matcher never consults the
symmetry breaker while building).  :class:`IndexCache` therefore keys
frozen stores by ``(data fingerprint, canonical query signature)`` and
serves every structurally-equal request from one build:

* **hit** — the store is resident in the LRU;
* **warm** — the LRU evicted it, but the eviction spilled a CECIIDX3
  blob (:func:`~repro.core.persist.dump_store_bytes`) into ``spill_dir``
  and reviving the arrays is far cheaper than rebuilding;
* **coalesced** — another request is building the same key right now;
  this one waits on the in-flight build instead of duplicating it;
* **miss** — this request pays for the build (and populates the cache).

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
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..core.automorphism import canonical_form
from ..core.persist import ChecksumError, dump_store_bytes, load_store_bytes
from ..core.query_tree import QueryTree
from ..core.store import CompactCECI, PairArrays
from ..graph import Graph
from ..parallel.scheduling import Assignment

__all__ = ["CacheEntry", "IndexCache", "transplant_store"]


class CacheEntry:
    """One cached frozen index plus what :meth:`IndexCache.adapt` needs
    to re-target it: the representative query's canonical order and the
    build cost (for the warm-speedup accounting).  ``unit_plan`` is the
    owning service's memo of the index's batched unit plan
    (``(pivots, assignment plan, pivots per worker)``); it lives and
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
    """Bounded LRU of frozen stores for one data graph, with a spill
    tier and in-flight build coalescing.

    Thread-safe.  ``get_or_build`` blocks only the requests that truly
    depend on the same key: the LRU lock is never held while building,
    loading a spilled blob, or waiting on another request's build.
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
        self._lru: "OrderedDict[Tuple[str, str], CacheEntry]" = OrderedDict()
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
        signature, order = canonical_form(query)
        key = (self.data_fingerprint, signature)
        waited = False
        while True:
            with self._lock:
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
                self._count("warm_hits")
            else:
                started = time.perf_counter()
                store = build()
                entry = CacheEntry(
                    key, store, order, time.perf_counter() - started
                )
                self._count("misses")
        except BaseException:
            with self._lock:
                self._inflight.pop(key).set()
            raise
        with self._lock:
            self._lru[key] = entry
            self._lru.move_to_end(key)
            while len(self._lru) > self.capacity:
                _, evicted = self._lru.popitem(last=False)
                self._count("evictions")
                self._spill(evicted)
            self._inflight.pop(key).set()
        return entry, tag, order

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
        revived_sig, revived_order = canonical_form(store.tree.query)
        if revived_sig != signature:
            self._quarantine(path, "canonical signature mismatch")
            return None
        with self._lock:
            if path in self._spill_files:
                self._spill_files.move_to_end(path)
        return CacheEntry(key, store, revived_order, 0.0)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Counters + occupancy as one JSON-friendly dict."""
        with self._lock:
            entries = len(self._lru)
            spill_files = len(self._spill_files)
            spill_bytes = sum(self._spill_files.values())
        probes = self.hits + self.warm_hits + self.coalesced + self.misses
        served = self.hits + self.warm_hits + self.coalesced
        return {
            "hits": self.hits,
            "warm_hits": self.warm_hits,
            "coalesced": self.coalesced,
            "misses": self.misses,
            "transplants": self.transplants,
            "evictions": self.evictions,
            "spills": self.spills,
            "spill_corrupt": self.spill_corrupt,
            "spill_evicted": self.spill_evicted,
            "spill_files": spill_files,
            "spill_bytes": spill_bytes,
            "entries": entries,
            "capacity": self.capacity,
            "hit_rate": round(served / probes, 6) if probes else 0.0,
        }
