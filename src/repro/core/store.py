"""The frozen, array-packed CECI store — the index's second phase.

The paper's central claim is *compactness*: the CECI is ``O(|Eq| x
|Eg|)`` and Section 6.4 plans an NVM-resident layout of flat arrays.
The dict-of-dict builder (:class:`repro.core.ceci.CECI`) is the right
shape for BFS filtering and reverse-BFS refinement — those phases
mutate heavily — but it is the wrong shape to *keep*: boxed ints,
per-list headers and hash tables cost an order of magnitude over the
payload, and every enumeration probe materialises Python objects.

This module introduces the two-phase index lifecycle:

* **build** — filtering and refinement mutate the dict builder;
* **freeze** — :meth:`CECI.compact` / :meth:`CompactCECI.from_ceci`
  pack the final index into per-query-vertex sorted ``(keys, offsets,
  values)`` int64 triples (CSR over the candidate keys) plus a flat
  ``(keys, values)`` cardinality pair — exactly the layout
  :mod:`repro.core.persist` writes to disk, so persistence becomes a
  header plus raw array blocks and loading can ``mmap`` the arrays
  without ever reconstructing dicts.

:class:`CompactCECI` is the only runtime index: enumeration
(:mod:`repro.core.enumeration`), cluster decomposition
(:mod:`repro.core.clusters`), estimation (:mod:`repro.core.estimate`)
and persistence all read it.  Lookups return **zero-copy array slices**
(``values[offsets[i]:offsets[i+1]]``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import Graph
from ..kernels import code_bitmap
from .query_tree import QueryTree
from .stats import MatchStats

__all__ = [
    "BITMAP_MAX_RATIO",
    "CompactCECI",
    "PairArrays",
    "encode_pairs",
    "lookup_pairs",
]

#: One flattened ``{key: [values]}`` mapping: sorted ``keys``,
#: ``offsets`` of length ``len(keys) + 1``, concatenated ``values`` —
#: ``values[offsets[i]:offsets[i+1]]`` are the sorted values of
#: ``keys[i]``.  All int64.
PairArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Cardinalities saturate here when frozen.  Algorithm 2's product of
#: sums overflows int64 on large queries without NTE pruning (CFLMatch's
#: CPI); cardinality is only a workload weight and a zero test.
_CARD_MAX = int(np.iinfo(np.int64).max)

#: A probed source (a TE triple or an NTE group) answers the batch
#: engine's membership probes through a
#: :func:`~repro.kernels.code_bitmap` of its whole code space
#: (``pair_scale**2`` bits) when that bitmap takes at most this many
#: times the bytes of the source's sorted int64 codes, else through
#: ``searchsorted`` over the codes.  The bitmap wins on time at every
#: density (3-5 against 13-36 ns per needle, from 400 to 280k codes at
#: ``pair_scale`` 1,800 and 6,000, 2-vCPU VM), so the multiple bounds
#: memory only: the ``shard-fanout`` power graph's 12 probed sources
#: need 5.1-5.7x (396 KiB each), while a 20,000-vertex data graph would
#: need a 50 MB bitmap per source and stays on ``searchsorted``.
BITMAP_MAX_RATIO = 8


def encode_pairs(mapping: Dict[int, Sequence[int]]) -> PairArrays:
    """Flatten ``{key: [sorted values]}`` into ``(keys, offsets,
    values)`` int64 arrays — the compact store's (and the on-disk
    format's) unit of layout."""
    keys = np.fromiter(sorted(mapping), dtype=np.int64, count=len(mapping))
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    chunks: List[np.ndarray] = []
    for i, key in enumerate(keys):
        values = mapping[int(key)]
        offsets[i + 1] = offsets[i] + len(values)
        chunks.append(np.asarray(values, dtype=np.int64))
    values = np.concatenate(chunks) if chunks else _EMPTY_I64
    return keys, offsets, values


def lookup_pairs(triple: PairArrays, key: int) -> np.ndarray:
    """Zero-copy value slice for ``key`` (empty array when unkeyed).

    The compact store's (and any compact-region baseline's) single probe
    primitive: binary-search the key column, hand back a value *view*."""
    keys, offsets, values = triple
    i = int(np.searchsorted(keys, key))
    if i >= len(keys) or keys[i] != key:
        return _EMPTY_I64
    return values[offsets[i] : offsets[i + 1]]


def _unique_pair_count(triple: PairArrays) -> int:
    """Distinct undirected ``(key, value)`` pairs in one mapping — the
    Table 2 candidate-edge convention (each edge counted once even when
    keyed under both endpoints)."""
    keys, offsets, values = triple
    if len(values) == 0:
        return 0
    a = np.repeat(keys, np.diff(offsets))
    # Fold each undirected pair into one int64 code, so one 1-D sort
    # counts them (far cheaper than a row-wise ``unique(axis=0)``).
    scale = int(max(a.max(), values.max())) + 1
    codes = np.minimum(a, values) * scale + np.maximum(a, values)
    return int(len(np.unique(codes)))


class CompactCECI:
    """The frozen CECI: flat sorted int64 arrays, nothing boxed.

    Per query vertex ``u``:

    * ``te[u]`` — one :data:`PairArrays` triple for TE_Candidates;
    * ``nte[u][u_n]`` — one triple per NTE parent group;
    * ``card[u]`` — ``(keys, values)`` refinement-cardinality columns.

    Lookups binary-search the key column and hand back value *views*;
    nothing is copied and nothing is rebuilt into Python containers.
    The identical arrays are what :mod:`repro.core.persist` writes, so
    a loaded index can be ``np.memmap``-backed transparently.
    """

    #: Whether the arrays were integrity-checked on the way in.  True
    #: for stores built in memory; the persist loader sets False when a
    #: pre-checksum (v3.0) file is loaded without a CRC table.
    checksum_verified: bool = True

    def __init__(
        self,
        tree: QueryTree,
        data: Graph,
        pivots: np.ndarray,
        te: List[PairArrays],
        nte: List[Dict[int, PairArrays]],
        card: List[Tuple[np.ndarray, np.ndarray]],
        nte_built: bool = True,
    ) -> None:
        self.tree = tree
        self.data = data
        self._pivots = np.asarray(pivots, dtype=np.int64)
        self.te = te
        self.nte = nte
        self.card = card
        self.nte_built = nte_built
        # Lazily-built probe sets for the batch engine, one per TE
        # triple and per NTE group (see :meth:`_probe`).  Keyed
        # ``(u, u_n)``, with ``u_n = None`` for ``te[u]``.
        self._probe_sets: Dict[Tuple[int, Optional[int]], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_ceci(cls, ceci) -> "CompactCECI":
        """Freeze a built (filtered + refined) dict builder."""
        tree = ceci.tree
        n = tree.query.num_vertices
        te = [encode_pairs(ceci.te[u]) for u in range(n)]
        nte = [
            {
                int(u_n): encode_pairs(ceci.nte[u][u_n])
                for u_n in sorted(ceci.nte[u])
            }
            for u in range(n)
        ]
        card = []
        for u in range(n):
            table = ceci.cardinality[u]
            keys = np.fromiter(
                sorted(table), dtype=np.int64, count=len(table)
            )
            values = np.fromiter(
                (min(table[int(k)], _CARD_MAX) for k in keys),
                dtype=np.int64,
                count=len(keys),
            )
            card.append((keys, values))
        pivots = np.fromiter(
            ceci.pivots, dtype=np.int64, count=len(ceci.pivots)
        )
        return cls(tree, ceci.data, pivots, te, nte, card, ceci.nte_built)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pivots(self) -> np.ndarray:
        """Sorted pivot array (read-only view of the store)."""
        return self._pivots

    def te_values(self, u: int, v_p: int) -> np.ndarray:
        """Zero-copy sorted TE candidate slice of ``u`` under ``v_p``."""
        return lookup_pairs(self.te[u], v_p)

    def nte_values(self, u: int, u_n: int, v_n: int) -> np.ndarray:
        """Zero-copy sorted NTE candidate slice of ``u`` under NTE
        parent ``u_n``'s candidate ``v_n``."""
        triple = self.nte[u].get(u_n)
        if triple is None:
            return _EMPTY_I64
        return lookup_pairs(triple, v_n)

    @property
    def pair_scale(self) -> int:
        """Multiplier folding a ``(key, value)`` pair into one int64
        (``key * scale + value``); any value strictly greater than every
        data-vertex id works, and ``num_vertices`` is the smallest."""
        return max(int(self.data.num_vertices), 1)

    def _combined(self, u: int, u_n: Optional[int]) -> np.ndarray:
        """One triple (``te[u]`` when ``u_n`` is None, else the NTE
        group ``nte[u][u_n]``, empty when absent) as one globally-sorted
        array of combined ``key * pair_scale + value`` codes.

        Because the key column is sorted and each value block is sorted,
        the concatenation ``repeat(keys, block_len) * scale + values``
        is already sorted — so one ``searchsorted`` answers "is data
        edge ``(v_key, c)`` a candidate edge of this triple" for a whole
        frontier of pairs at once.
        """
        triple = self.te[u] if u_n is None else self.nte[u].get(u_n)
        if triple is None or len(triple[2]) == 0:
            return _EMPTY_I64
        keys, offsets, values = triple
        return np.repeat(keys, np.diff(offsets)) * self.pair_scale + values

    def _probe(self, u: int, u_n: Optional[int]) -> np.ndarray:
        """What :func:`~repro.kernels.member_mask` probes for one
        triple: its :meth:`_combined` codes, or their
        :func:`~repro.kernels.code_bitmap` when the code space is dense
        enough (:data:`BITMAP_MAX_RATIO`).

        Derived data: built lazily per triple and memoised on the store,
        never persisted, so it dies with the store and a loaded store
        rebuilds it (a shared store may build a set twice under a race;
        both results are identical arrays, so last-write-wins is
        benign).
        """
        cached = self._probe_sets.get((u, u_n))
        if cached is not None:
            return cached
        codes = self._combined(u, u_n)
        space = self.pair_scale * self.pair_scale
        if (space + 7) >> 3 <= BITMAP_MAX_RATIO * codes.nbytes:
            probe = code_bitmap(codes, space)
        else:
            probe = codes
        self._probe_sets[(u, u_n)] = probe
        return probe

    def te_probe(self, u: int) -> np.ndarray:
        """``te[u]``'s probe set (see :meth:`_probe`)."""
        return self._probe(u, None)

    def nte_probe(self, u: int, u_n: int) -> np.ndarray:
        """The NTE group ``nte[u][u_n]``'s probe set (see
        :meth:`_probe`); empty sorted codes when the group is absent."""
        return self._probe(u, u_n)

    def cardinality_of(self, u: int, v: int) -> int:
        """Refinement cardinality of ``u -> v`` (0 if pruned)."""
        keys, values = self.card[u]
        i = int(np.searchsorted(keys, v))
        if i >= len(keys) or keys[i] != v:
            return 0
        return int(values[i])

    def cluster_cardinality(self, pivot: int) -> int:
        """Maximum embeddings in the cluster rooted at ``pivot``."""
        return self.cardinality_of(self.tree.root, pivot)

    def cluster_cardinalities(self) -> np.ndarray:
        """:meth:`cluster_cardinality` of every pivot, in pivot order:
        one ``searchsorted`` of the pivots over the root's cardinality
        keys, 0 where a pivot has no entry."""
        keys, values = self.card[self.tree.root]
        if len(keys) == 0:
            return np.zeros(len(self._pivots), dtype=np.int64)
        at = np.minimum(np.searchsorted(keys, self._pivots), len(keys) - 1)
        return np.where(keys[at] == self._pivots, values[at], 0).astype(
            np.int64, copy=False
        )

    def candidates(self, u: int) -> np.ndarray:
        """Sorted candidates of ``u``: the pivots for the root, else the
        distinct TE values (exactly the builder's frontier union)."""
        if u == self.tree.root:
            return self._pivots
        values = self.te[u][2]
        if len(values) == 0:
            return _EMPTY_I64
        return np.unique(values)

    def te_edge_count(self) -> int:
        """Distinct tree-edge candidate edges (Table 2 convention)."""
        return sum(_unique_pair_count(triple) for triple in self.te)

    def nte_edge_count(self) -> int:
        """Distinct non-tree-edge candidate edges."""
        return sum(
            _unique_pair_count(triple)
            for per_node in self.nte
            for triple in per_node.values()
        )

    def record_size(self, stats: MatchStats) -> None:
        """Publish index-size counters into ``stats`` (Table 2)."""
        stats.te_candidate_edges = self.te_edge_count()
        stats.nte_candidate_edges = self.nte_edge_count()

    def memory_bytes(self) -> int:
        """Exact payload footprint: the sum of all array bytes."""
        total = int(self._pivots.nbytes)
        for keys, offsets, values in self.te:
            total += int(keys.nbytes + offsets.nbytes + values.nbytes)
        for per_node in self.nte:
            for keys, offsets, values in per_node.values():
                total += int(keys.nbytes + offsets.nbytes + values.nbytes)
        for keys, values in self.card:
            total += int(keys.nbytes + values.nbytes)
        return total

    def __repr__(self) -> str:
        return (
            f"<CompactCECI clusters={len(self._pivots)} "
            f"bytes={self.memory_bytes()}>"
        )
