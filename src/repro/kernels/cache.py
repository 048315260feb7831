"""Bounded memo cache for repeated candidate intersections.

During enumeration the same intersection is recomputed across sibling
subtrees: every partial embedding that reaches query vertex ``u`` with
the same ``(parent candidate, NTE parent candidates)`` combination needs
the same ``TE ∩ NTE`` result, and on symmetry-rich data graphs those
combinations repeat heavily (the same redundancy CEMR's
redundant-extension elimination and l2Match's label-pair caching
target).  :class:`IntersectionCache` memoises them under bounded
insertion-order (FIFO) eviction.

Keys are ``(query vertex, parent candidate, NTE candidate tuple)`` —
everything the intersection result depends on once the index is frozen
*for one query/index pair*, and nothing more: the key says nothing about
which query or data graph produced an entry, so a cache must never be
shared across queries.  A cache therefore lives on one
:class:`~repro.core.enumeration.Enumerator` over one built index;
enumerators are created per run, so index mutations (streaming updates,
refinement) can never leak stale entries.

Cached lists are shared, not copied: callers must treat results as
read-only (the enumerator only iterates them).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

__all__ = ["IntersectionCache", "DEFAULT_CACHE_SIZE"]

#: Default entry bound — at ~tens of candidates per cached list this
#: keeps the cache in the low megabytes even on hub-heavy graphs.
DEFAULT_CACHE_SIZE = 4096


class IntersectionCache:
    """Bounded ``key -> List[int]`` memo with hit/miss/eviction counters.

    Eviction is insertion-order FIFO, not LRU: the hit path must cost
    less than recomputing a small intersection, so it does exactly one
    dict probe and one counter increment — no recency bookkeeping.
    (Enumeration walks sibling subtrees back to back, so entries are
    hot immediately after insertion and FIFO ≈ LRU for this access
    pattern at a fraction of the constant cost.)

    ``stats`` (a :class:`~repro.core.stats.MatchStats`) is optional;
    when given, its ``cache_hits`` / ``cache_misses`` /
    ``cache_evictions`` counters are incremented alongside the cache's
    own, so one run's cache behaviour lands in the run's stats without
    the cache depending on the stats module.

    ``maxsize <= 0`` disables storage entirely (every probe misses and
    nothing is kept) — the switch the ablation benchmarks use.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_stats", "_data")

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE, stats=None) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._stats = stats
        self._data: Dict[Hashable, List[int]] = {}

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[List[int]]:
        """The cached list for ``key``, or ``None`` — an *empty list* is
        a valid cached value, so test the return with ``is None``, not
        truthiness."""
        found = self._data.get(key)
        if found is None:
            self.misses += 1
            if self._stats is not None:
                self._stats.cache_misses += 1
            return None
        self.hits += 1
        if self._stats is not None:
            self._stats.cache_hits += 1
        return found

    def put(self, key: Hashable, value: List[int]) -> None:
        """Store ``value`` under ``key``, evicting the oldest insertion
        when full."""
        data = self._data
        if len(data) >= self.maxsize and key not in data:
            if self.maxsize <= 0:
                return
            del data[next(iter(data))]
            self.evictions += 1
            if self._stats is not None:
                self._stats.cache_evictions += 1
        data[key] = value

    @property
    def hit_rate(self) -> float:
        """Hits over probes (0.0 before any probe)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Counters + occupancy as one JSON-friendly dict — what the
        tracing layer records as a ``cache`` instant event."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._data),
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 6),
        }

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._data.clear()

