"""Per-machine bookkeeping for the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["MachineReport"]


@dataclass
class MachineReport:
    """Everything one simulated machine did during a distributed run."""

    machine_id: int
    #: Pivots this machine owns (its share of the embedding clusters).
    pivots: List[int] = field(default_factory=list)
    #: Lightweight workload estimate the partitioner assigned.
    estimated_workload: float = 0.0

    # --- CECI construction phase (Figure 20's three bars) -------------
    construction_compute: float = 0.0
    construction_io: float = 0.0
    construction_comm: float = 0.0
    #: Resident bytes of this machine's built candidate index (the
    #: compact store's flat arrays).
    index_bytes: int = 0
    #: Index payload bytes shipped to place this machine's cluster
    #: slices (equals ``index_bytes``: the per-machine index *is* its
    #: clusters' candidate slices).
    shipped_bytes: int = 0

    # --- enumeration phase ---------------------------------------------
    #: Cost of enumerating the machine's own clusters.
    local_enumeration: float = 0.0
    #: Cost of clusters stolen from other machines (incl. penalty).
    stolen_enumeration: float = 0.0
    #: Number of MPI_Get steals performed.
    steals: int = 0
    #: Number of embeddings this machine reported.
    embeddings: int = 0
    #: Simulated time this machine went idle.
    finish_time: float = 0.0

    # --- real wall-clock telemetry (observability layer) ----------------
    #: Measured seconds building + refining (+ freezing) this machine's
    #: CECI — the simulated ``construction_*`` costs above model the
    #: paper's cluster, these measure this process.
    construction_seconds: float = 0.0
    #: Measured seconds enumerating this machine's own clusters.
    enumeration_seconds: float = 0.0
    #: Recursive calls performed enumerating this machine's clusters.
    recursive_calls: int = 0

    @property
    def construction_total(self) -> float:
        """Total construction-phase cost."""
        return (
            self.construction_compute
            + self.construction_io
            + self.construction_comm
        )

    def construction_breakdown(self) -> Tuple[float, float, float]:
        """(io, comm, compute) — the Figure 20 stacking order."""
        return (
            self.construction_io,
            self.construction_comm,
            self.construction_compute,
        )
