"""Graph storage models for the distributed runtime (Section 5).

Two designs from the paper:

* **in-memory** — the whole data graph replicated in each machine's
  memory; adjacency access costs only compute;
* **shared** — one CSR copy on a lustre-like networked file system; each
  machine locates adjacency lists via the ``beginning_position`` array
  and pays IO (latency + bytes/bandwidth) per on-demand load, with a
  local cache of already-fetched lists.

The IO cost model substitutes for real lustre hardware; the knobs are
calibrated so construction overhead lands in the paper's reported range
(up to ~100x the in-memory construction cost, Section 6.5).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..graph import Graph
from ..graph.csr import CSRGraph, to_csr

__all__ = ["StorageModel", "InMemoryStorage", "SharedStorage", "TrackedGraph"]


class StorageModel:
    """Per-machine view of the data graph plus an IO meter."""

    #: Simulated seconds (cost units) per IO request.
    IO_LATENCY = 5.0
    #: Cost units per byte transferred.
    IO_BYTE_COST = 0.002

    def __init__(self) -> None:
        self.io_cost = 0.0
        self.io_requests = 0
        #: Resident bytes of each machine's frozen candidate index
        #: (registered by the runtime after per-machine construction).
        self.index_bytes: Dict[int, int] = {}

    def register_index_bytes(self, machine_id: int, nbytes: int) -> None:
        """Record the payload bytes of a machine's built CECI store.

        This is the exact flat-array footprint — the per-cluster
        candidate slices that machine holds (and that a placement would
        ship to it).  Purely accounting: registered bytes do not feed
        back into the IO cost model.
        """
        self.index_bytes[machine_id] = (
            self.index_bytes.get(machine_id, 0) + int(nbytes)
        )

    def total_index_bytes(self) -> int:
        """Sum of registered index bytes across machines."""
        return sum(self.index_bytes.values())

    def graph_for_machine(self, machine_id: int) -> "TrackedGraph":
        """A graph handle whose adjacency accesses are metered for the
        given machine."""
        raise NotImplementedError

    def memory_bytes_per_machine(self, num_machines: int) -> int:
        """Graph bytes resident per machine."""
        raise NotImplementedError


class TrackedGraph:
    """Duck-typed :class:`Graph` proxy that meters adjacency access.

    Every matcher in this repository only touches ``neighbors``,
    ``neighbor_set``, ``degree``, ``has_edge``, label accessors and
    ``num_vertices``; the proxy forwards all of them and lets the storage
    model charge IO on first touch of each adjacency list.
    """

    def __init__(self, inner: Graph, storage: "StorageModel", machine_id: int) -> None:
        self._inner = inner
        self._storage = storage
        self._machine_id = machine_id
        self._cached: set = set()

    # -- metered adjacency -------------------------------------------------
    def _touch(self, v: int) -> None:
        if v in self._cached:
            return
        self._cached.add(v)
        self._storage.charge(self._machine_id, v)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        self._touch(v)
        return self._inner.neighbors(v)

    def neighbor_set(self, v: int) -> FrozenSet[int]:
        self._touch(v)
        return self._inner.neighbor_set(v)

    def has_edge(self, u: int, v: int) -> bool:
        self._touch(u if self._inner.degree(u) <= self._inner.degree(v) else v)
        return self._inner.has_edge(u, v)

    def neighbor_label_counts(self, v: int) -> Mapping[object, int]:
        self._touch(v)
        return self._inner.neighbor_label_counts(v)

    # -- metadata (free: served from the beginning_position / label arrays)
    def degree(self, v: int) -> int:
        return self._inner.degree(v)

    def labels_of(self, v: int) -> FrozenSet[object]:
        return self._inner.labels_of(v)

    def label_of(self, v: int) -> object:
        return self._inner.label_of(v)

    def label_matches(self, query_labels: FrozenSet[object], v: int) -> bool:
        return self._inner.label_matches(query_labels, v)

    def vertices_with_label(self, label: object) -> Tuple[int, ...]:
        return self._inner.vertices_with_label(label)

    def distinct_labels(self) -> Tuple[object, ...]:
        return self._inner.distinct_labels()

    def uniform_label(self):
        return self._inner.uniform_label()

    @property
    def degrees(self) -> Tuple[int, ...]:
        # Degree metadata is free (beginning_position array); exposing
        # it does NOT bypass metering because the fast construction path
        # additionally requires the (absent) ``adjacency`` table.
        return self._inner.degrees

    @property
    def num_vertices(self) -> int:
        return self._inner.num_vertices

    @property
    def num_edges(self) -> int:
        return self._inner.num_edges

    @property
    def directed(self) -> bool:
        return self._inner.directed

    @property
    def name(self) -> str:
        return self._inner.name

    def vertices(self) -> range:
        return self._inner.vertices()

    def is_connected(self) -> bool:
        return self._inner.is_connected()


class InMemoryStorage(StorageModel):
    """Whole graph replicated in every machine's memory; access is free
    (compute cost is accounted separately by the runtime)."""

    def __init__(self, graph: Graph) -> None:
        super().__init__()
        self.graph = graph
        self._bytes = 8 * (2 * graph.num_edges + graph.num_vertices + 1)

    def charge(self, machine_id: int, v: int) -> None:
        """In-memory access: no IO."""

    def graph_for_machine(self, machine_id: int) -> TrackedGraph:
        return TrackedGraph(self.graph, self, machine_id)

    def memory_bytes_per_machine(self, num_machines: int) -> int:
        return self._bytes


class SharedStorage(StorageModel):
    """One CSR copy on networked storage; adjacency lists fetched on
    demand, cached per machine, IO metered per fetch."""

    def __init__(self, graph: Graph) -> None:
        super().__init__()
        self.graph = graph
        self.csr: CSRGraph = to_csr(graph)
        self.per_machine_io: Dict[int, float] = {}

    def charge(self, machine_id: int, v: int) -> None:
        cost = self.IO_LATENCY + self.IO_BYTE_COST * self.csr.adjacency_bytes(v)
        self.io_cost += cost
        self.io_requests += 1
        self.per_machine_io[machine_id] = (
            self.per_machine_io.get(machine_id, 0.0) + cost
        )

    def graph_for_machine(self, machine_id: int) -> TrackedGraph:
        return TrackedGraph(self.graph, self, machine_id)

    def memory_bytes_per_machine(self, num_machines: int) -> int:
        # Only the beginning_position array is resident ("the memory
        # requirement in each compute node is reduced by up to |E|").
        return 8 * (self.graph.num_vertices + 1)
