"""repro — full Python reproduction of *CECI: Compact Embedding Cluster
Index for Scalable Subgraph Matching* (SIGMOD 2019).

Quickstart::

    from repro import Graph, match

    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    data = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    print(match(triangle, data))

Subpackages
-----------
``repro.graph``
    Labeled graph store, CSR view, generators, IO, query extraction.
``repro.core``
    The CECI index, filtering/refinement, intersection enumeration,
    embedding clusters, the :class:`CECIMatcher` facade.
``repro.baselines``
    Ullmann, VF2, QuickSI, TurboIso(+Boosted), CFLMatch, PsgL, DualSim
    and the bare-graph listing baseline.
``repro.parallel``
    ST / CGD / FGD scheduling and the simulated-time executor (the
    in-process thread executor is ``repro.service.MatchService``).
``repro.kernels``
    Sorted-set intersection: the batch engine's whole-array join
    primitives and one k-way ``intersect``.
``repro.resilience``
    Enumeration budgets (:class:`Budget` / :class:`PartialResult`),
    seeded fault injection (:class:`FaultPlan`) and the retry policy
    of the service.
``repro.distributed``
    Simulated multi-machine runtime (replicated vs shared CSR storage,
    pivot partitioning, work stealing).
``repro.bench``
    Dataset analogs (Table 1), the QG1-QG5 query graphs (Figure 6), and
    the experiment drivers behind ``benchmarks/``.
"""

from .core import (
    CECI,
    CECIMatcher,
    Embedding,
    Enumerator,
    MatchStats,
    QueryTree,
    SymmetryBreaker,
    WorkUnit,
    count_embeddings,
    find_embedding,
    match,
)
from .graph import Graph, GraphBuilder
from .resilience import Budget, FaultPlan, PartialResult

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "CECI",
    "CECIMatcher",
    "Embedding",
    "Enumerator",
    "FaultPlan",
    "Graph",
    "GraphBuilder",
    "MatchStats",
    "PartialResult",
    "QueryTree",
    "SymmetryBreaker",
    "WorkUnit",
    "count_embeddings",
    "find_embedding",
    "match",
    "__version__",
]
