"""Instrumentation counters.

The paper's evaluation reports several internal quantities besides wall
clock: number of recursive calls (Figure 18 uses it as the proxy for total
search space), CECI index size in bytes against the theoretical
``|Eq| x |Eg|`` bound (Table 2), candidates removed by each filter, and the
phase breakdown of the run (Figures 15, 19, 20).  :class:`MatchStats`
collects all of them during one ``match`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

from ..observability.metrics import MetricSpec, MetricsRegistry

__all__ = [
    "MatchStats",
    "BYTES_PER_CANDIDATE_EDGE",
    "match_metric_specs",
]

#: The paper stores each candidate edge in 8 bytes ("8 bytes is used to
#: store each edge" — Section 6.4); index sizes are reported on that basis.
BYTES_PER_CANDIDATE_EDGE = 8


@dataclass
class MatchStats:
    """Counters populated while building a CECI and enumerating from it."""

    # --- enumeration ---------------------------------------------------
    recursive_calls: int = 0
    embeddings_found: int = 0
    intersections: int = 0
    edge_verifications: int = 0
    #: Frontier blocks expanded by the set-at-a-time batch engine.
    batch_blocks: int = 0
    #: Partial embeddings (frontier rows) expanded in batch.
    batch_rows: int = 0

    #: Whole-array NTE membership probes issued by the batch engine.
    kernel_array_calls: int = 0

    # --- filtering / refinement ----------------------------------------
    candidates_initial: int = 0
    removed_by_label: int = 0
    removed_by_degree: int = 0
    removed_by_nlc: int = 0
    removed_by_cascade: int = 0
    removed_by_refinement: int = 0

    # --- index size -----------------------------------------------------
    te_candidate_edges: int = 0
    nte_candidate_edges: int = 0
    #: Measured resident bytes of the runtime index (the compact
    #: store's flat arrays); 0 until an index is built.  Contrast with
    #: :attr:`index_bytes`, the paper's 8-bytes-per-candidate-edge
    #: accounting, which is representation-independent.
    memory_bytes: int = 0

    # --- budgets and distributed enumeration ---------------------------
    #: Enumerations stopped early by a Budget axis.
    budget_stops: int = 0
    #: Work-steal operations (distributed enumeration phase).
    steals: int = 0

    # --- phase timings (seconds) -----------------------------------------
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def index_bytes(self) -> int:
        """Actual CECI size in bytes (Table 2's first number)."""
        return (
            self.te_candidate_edges + self.nte_candidate_edges
        ) * BYTES_PER_CANDIDATE_EDGE

    def theoretical_bytes(self, num_query_edges: int, num_data_edges: int) -> int:
        """Theoretical bound ``|Eq| x |Eg| x 8`` (Table 2's parenthesized
        number)."""
        return num_query_edges * num_data_edges * BYTES_PER_CANDIDATE_EDGE

    def space_saved_percent(self, num_query_edges: int, num_data_edges: int) -> float:
        """Table 2's bracketed percentage."""
        theoretical = self.theoretical_bytes(num_query_edges, num_data_edges)
        if theoretical == 0:
            return 0.0
        return 100.0 * (1.0 - self.index_bytes / theoretical)

    def add_phase(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock time into a named phase."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def registry(self) -> MetricsRegistry:
        """Project these counters into a :class:`MetricsRegistry` — the
        spec table declares each field's kind and merge semantic, so the
        registry is the canonical typed form of a run's telemetry."""
        reg = MetricsRegistry(match_metric_specs())
        for spec in match_metric_specs():
            if spec.labeled:
                for label, value in getattr(self, spec.name).items():
                    reg.inc(spec.name, value, label=label)
            elif spec.kind == "gauge":
                reg.set_gauge(spec.name, getattr(self, spec.name))
            else:
                reg.inc(spec.name, getattr(self, spec.name))
        return reg

    def apply_registry(self, registry: MetricsRegistry) -> None:
        """Load field values back from a registry (inverse of
        :meth:`registry`)."""
        for spec in match_metric_specs():
            if spec.labeled:
                setattr(self, spec.name, dict(registry.labels(spec.name)))
            elif spec.kind == "gauge":
                setattr(self, spec.name, int(registry.get(spec.name)))
            else:
                setattr(self, spec.name, int(registry.get(spec.name)))

    def merge(self, other: "MatchStats") -> None:
        """Fold another stats object into this one (per-worker /
        per-machine merge).  Delegates to the single
        :meth:`MetricsRegistry.merge` implementation, which applies each
        field's declared semantic: work counters and phase timings sum,
        while ``memory_bytes`` keeps the peak (workers share one index,
        so the footprint is a max, not a sum)."""
        self.apply_registry(self.registry().merge(other.registry()))


#: Fields whose merge semantic is "peak survives" rather than "sum".
_PEAK_FIELDS = frozenset({"memory_bytes"})

_MATCH_METRIC_SPECS: Tuple[MetricSpec, ...] = ()


def match_metric_specs() -> Tuple[MetricSpec, ...]:
    """The spec table for :class:`MatchStats`, derived from its fields —
    adding a dataclass field is all it takes to get a merged, dumpable
    metric (no second copy of the list to keep in sync)."""
    global _MATCH_METRIC_SPECS
    if not _MATCH_METRIC_SPECS:
        specs = []
        for spec_field in fields(MatchStats):
            if spec_field.name == "phase_seconds":
                specs.append(
                    MetricSpec(
                        "phase_seconds",
                        kind="counter",
                        merge="sum",
                        labeled=True,
                        label_name="phase",
                        help="Wall-clock seconds per matching phase.",
                    )
                )
            elif spec_field.name in _PEAK_FIELDS:
                specs.append(
                    MetricSpec(
                        spec_field.name,
                        kind="gauge",
                        merge="max",
                        help="Measured resident bytes of the index (peak).",
                    )
                )
            else:
                specs.append(MetricSpec(spec_field.name))
        _MATCH_METRIC_SPECS = tuple(specs)
    return _MATCH_METRIC_SPECS
