"""Labeled graph store used by every matcher in the repository.

The paper (Section 2.1) represents a graph as ``G = (V, E, L)`` where ``L``
assigns *one or more* labels to each vertex.  Query graphs are connected and
undirected; data graphs may be directed or undirected.  Following the paper's
isomorphism definition, a data vertex ``v`` can host a query vertex ``u``
when ``L_q(u) ⊆ L(v)`` — i.e. the query vertex's labels are a subset of the
data vertex's labels.

For matching purposes the paper treats edges as adjacency (its example
graphs and all the query graphs are undirected patterns), so :class:`Graph`
keeps a symmetric adjacency structure.  Directed inputs simply record the
direction flag and symmetrize adjacency, which is also what the original
C++ implementation does when building candidate sets.

Vertices are dense integers ``0..n-1``.  Per-vertex adjacency is stored both
as a *sorted tuple* (for ordered merge intersection, the heart of CECI's
enumeration) and as a *frozenset* (for O(1) edge verification, which the
edge-verification baselines need).
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = ["Graph", "ScanTables"]

Edge = Tuple[int, int]


class ScanTables(NamedTuple):
    """Flat arrays behind the LF/DF/NLCF candidate scan (Section 2.2).

    ``rows`` maps each label to its row in the two ``|L|×|V|`` tables,
    which are label-major so one label's row over all vertices is
    contiguous: ``member[r, v]`` says whether ``v`` carries label ``r``
    and ``nlc[r, v]`` counts ``v``'s neighbours carrying it.
    ``postings[r]`` lists the vertices carrying label ``r`` in
    ascending order.
    """

    rows: Dict[object, int]
    member: np.ndarray  # bool, |L|×|V|
    nlc: np.ndarray  # int32, |L|×|V|
    degrees: np.ndarray  # int32, |V|
    postings: Tuple[np.ndarray, ...]  # int64, one per row


class Graph:
    """An immutable labeled graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0..num_vertices-1``.
    edges:
        Iterable of ``(src, dst)`` pairs.  Self loops are rejected and
        duplicate / reverse duplicates are collapsed (simple graph).
    labels:
        Either ``None`` (every vertex gets label ``0``), a sequence with one
        entry per vertex where each entry is a label or an iterable of
        labels, or a mapping ``vertex -> label(s)``.
    directed:
        Whether the *source* data was directed.  Matching always uses the
        symmetrized adjacency, mirroring the reference implementation.
    name:
        Optional human-readable name (dataset abbreviation etc.).
    """

    __slots__ = (
        "name",
        "directed",
        "_n",
        "_edges",
        "_adj_sorted",
        "_adj_set",
        "_labels",
        "_label_index",
        "_nlc",
        "_scan",
        "_degrees",
        "_twin_classes",
        "_fingerprint",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Edge],
        labels: Optional[object] = None,
        directed: bool = False,
        name: str = "",
    ) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.name = name
        self.directed = directed
        self._n = num_vertices

        adj: List[set] = [set() for _ in range(num_vertices)]
        edge_set: set = set()
        for s, d in edges:
            if not (0 <= s < num_vertices and 0 <= d < num_vertices):
                raise ValueError(f"edge ({s}, {d}) references unknown vertex")
            if s == d:
                raise ValueError(f"self loop on vertex {s} is not allowed")
            key = (s, d) if s < d else (d, s)
            if key in edge_set:
                continue
            edge_set.add(key)
            adj[s].add(d)
            adj[d].add(s)

        self._edges: Tuple[Edge, ...] = tuple(sorted(edge_set))
        self._adj_sorted: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbors)) for neighbors in adj
        )
        self._adj_set: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(neighbors) for neighbors in adj
        )
        self._labels: Tuple[FrozenSet[object], ...] = self._normalize_labels(labels)

        label_index: Dict[object, List[int]] = {}
        for v, vlabels in enumerate(self._labels):
            for label in vlabels:
                label_index.setdefault(label, []).append(v)
        self._label_index: Dict[object, Tuple[int, ...]] = {
            label: tuple(vs) for label, vs in label_index.items()
        }
        self._nlc: Optional[Tuple[Mapping[object, int], ...]] = None
        self._scan: Optional[ScanTables] = None
        # lazily cached by repro.baselines.turboiso.data_vertex_classes
        self._twin_classes = None
        # lazily cached by fingerprint()
        self._fingerprint: Optional[str] = None
        self._degrees: Tuple[int, ...] = tuple(
            len(neighbors) for neighbors in self._adj_sorted
        )

    def _normalize_labels(self, labels: Optional[object]) -> Tuple[FrozenSet[object], ...]:
        n = self._n
        if labels is None:
            return tuple(frozenset((0,)) for _ in range(n))
        if isinstance(labels, Mapping):
            seq: List[object] = [labels.get(v, 0) for v in range(n)]
        else:
            seq = list(labels)  # type: ignore[arg-type]
            if len(seq) != n:
                raise ValueError(
                    f"labels has {len(seq)} entries but graph has {n} vertices"
                )
        out: List[FrozenSet[object]] = []
        for entry in seq:
            if isinstance(entry, (set, frozenset, list, tuple)):
                labelset = frozenset(entry)
                if not labelset:
                    raise ValueError("every vertex needs at least one label")
            else:
                labelset = frozenset((entry,))
            out.append(labelset)
        return tuple(out)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges after de-duplication."""
        return len(self._edges)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges as sorted ``(min, max)`` pairs."""
        return self._edges

    def vertices(self) -> range:
        """Iterate vertex ids."""
        return range(self._n)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self._adj_sorted[v]

    def neighbor_set(self, v: int) -> FrozenSet[int]:
        """Neighbors of ``v`` as a frozenset (O(1) membership)."""
        return self._adj_set[v]

    def degree(self, v: int) -> int:
        """Degree of ``v`` in the symmetrized graph."""
        return self._degrees[v]

    @property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """The full sorted-adjacency table (per-vertex tuples) — lets
        hot loops index directly instead of calling :meth:`neighbors`
        per vertex."""
        return self._adj_sorted

    @property
    def degrees(self) -> Tuple[int, ...]:
        """All vertex degrees, indexable by vertex id."""
        return self._degrees

    @property
    def label_table(self) -> Tuple[FrozenSet[object], ...]:
        """Per-vertex label sets, indexable by vertex id."""
        return self._labels

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge connects ``u`` and ``v``."""
        return v in self._adj_set[u]

    def labels_of(self, v: int) -> FrozenSet[object]:
        """Label set of vertex ``v``."""
        return self._labels[v]

    def label_of(self, v: int) -> object:
        """Primary (smallest) label of ``v`` — convenience for
        single-labeled graphs."""
        return min(self._labels[v], key=repr)

    def vertices_with_label(self, label: object) -> Tuple[int, ...]:
        """All vertices carrying ``label`` (inverted label index)."""
        return self._label_index.get(label, ())

    def distinct_labels(self) -> Tuple[object, ...]:
        """All labels present in the graph."""
        return tuple(self._label_index)

    def uniform_label(self) -> Optional[object]:
        """The single label when every vertex carries exactly the same
        one label (the paper's unlabeled-graph regime), else ``None``.
        Filters collapse in this regime: LF is vacuous and NLCF reduces
        to the degree filter."""
        if len(self._label_index) != 1:
            return None
        label = next(iter(self._label_index))
        if all(len(ls) == 1 for ls in self._labels):
            return label
        return None

    def label_matches(self, query_labels: FrozenSet[object], v: int) -> bool:
        """Paper's label rule: ``L_q(u) ⊆ L(v)``."""
        return query_labels <= self._labels[v]

    # ------------------------------------------------------------------
    # Neighborhood label counts (NLC) — used by the NLCF filter
    # ------------------------------------------------------------------
    def neighbor_label_counts(self, v: int) -> Mapping[object, int]:
        """Count of each label among ``v``'s neighbors (labels with no
        such neighbor are absent).

        A neighbor with multiple labels contributes to each of its labels,
        matching the multi-label semantics of the HU dataset experiments.
        The rows are read off :meth:`scan_tables`' count table for the
        whole graph on first use and cached.
        """
        if self._nlc is None:
            rows, _, nlc, _, _ = self.scan_tables()
            labels = list(rows)
            # Vertex by vertex, so each dict is built whole and no
            # graph-sized temporary is live alongside the dicts.
            self._nlc = tuple(
                {label: c for label, c in zip(labels, column.tolist()) if c}
                for column in nlc.T
            )
        return self._nlc[v]

    def scan_tables(self) -> ScanTables:
        """The label, degree and neighbour-label-count arrays of the
        candidate scan, built on first use (one ``np.bincount`` per
        label, no per-vertex loop) and cached.  The two ``|L|×|V|``
        tables take ``5·|L|·|V|`` bytes.  The tables are assigned as one
        tuple, so concurrent first callers at worst build them twice."""
        if self._scan is None:
            self._scan = self._build_scan_tables()
        return self._scan

    def _build_scan_tables(self) -> ScanTables:
        n = self._n
        adjacency = self._adj_sorted.__getitem__
        degrees = np.fromiter(self._degrees, dtype=np.int32, count=n)
        rows: Dict[object, int] = {}
        postings: List[np.ndarray] = []
        member = np.zeros((len(self._label_index), n), dtype=bool)
        nlc = np.zeros((len(self._label_index), n), dtype=np.int32)
        # Per label row: every neighbour of a vertex carrying the label
        # counts it once.  The neighbours are gathered from the adjacency
        # tuples in C, and temporaries stay one label's worth: a single
        # pass over all (vertex, label) pairs needs graph-sized ones, which
        # raised peak RSS by ~9 MiB on a 20k-vertex, 16-label graph.
        for r, (label, vertices) in enumerate(self._label_index.items()):
            rows[label] = r
            posting = np.array(vertices, dtype=np.int64)
            postings.append(posting)
            member[r, posting] = True
            neighbours = np.fromiter(
                chain.from_iterable(map(adjacency, vertices)),
                dtype=np.int64,
                count=int(degrees[posting].sum()),
            )
            nlc[r] = np.bincount(neighbours, minlength=n)
        return ScanTables(rows, member, nlc, degrees, tuple(postings))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Vertex-induced subgraph, relabeled to ``0..k-1`` preserving the
        order of ``vertices``."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices in subgraph selection")
        edges = [
            (index[s], index[d])
            for s, d in self._edges
            if s in index and d in index
        ]
        labels = [self._labels[v] for v in vertices]
        return Graph(len(vertices), edges, labels, directed=self.directed)

    def is_connected(self) -> bool:
        """Whether the (symmetrized) graph is connected."""
        if self._n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self._adj_sorted[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self._n

    def degree_sequence(self) -> List[int]:
        """Sorted (descending) degree sequence."""
        return sorted((len(a) for a in self._adj_sorted), reverse=True)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        kind = "directed" if self.directed else "undirected"
        return (
            f"<Graph{tag} |V|={self._n} |E|={self.num_edges} {kind} "
            f"labels={len(self._label_index)}>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges, self._labels))

    def fingerprint(self) -> str:
        """Stable content hash of the graph (hex digest, cached).

        Covers exactly what :meth:`__eq__` compares — vertex count,
        de-duplicated edge set and per-vertex label sets — so two equal
        graphs always share a fingerprint across processes and runs
        (unlike :meth:`__hash__`, which is salted per interpreter for
        strings).  This is the data-graph half of the service-layer
        index cache key; the query half is
        :func:`repro.core.automorphism.canonical_form`.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(f"v{self._n};".encode())
            for s, d in self._edges:
                digest.update(f"{s},{d};".encode())
            for vlabels in self._labels:
                digest.update(
                    ("|".join(sorted(map(repr, vlabels))) + ";").encode()
                )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint
