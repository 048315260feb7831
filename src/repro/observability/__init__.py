"""Observability: tracing spans, a typed metrics registry, and live
progress — DESIGN.md §9.

The paper's evaluation decomposes every claim into phases (filtering /
refinement / enumeration — Figures 15, 19, 20) and search-space proxies
(recursive calls — Figure 18).  This package is the subsystem that
produces those decompositions for any run of this repo:

* :class:`Tracer` / :class:`NullTracer` — nested spans and instant
  events written as JSON lines with monotonic timestamps; the null
  tracer is the default on every layer so the hot path pays (at most)
  one attribute check when tracing is off.
* :class:`MetricsRegistry` / :class:`MetricSpec` — named counters,
  gauges and histograms with *declared* merge semantics (sum for work
  counters, peak for ``memory_bytes``), which ``MatchStats.merge``
  applies field by field.
* :class:`ProgressReporter` — a heartbeat line for long enumerations
  (calls/s, embeddings/s, budget remaining, cardinality-bound ETA).
* :func:`summarize_trace` — validation + the per-phase / per-worker /
  per-request breakdowns behind ``repro trace summarize``.

Service telemetry (DESIGN.md §13) builds on those primitives:

* :class:`FlightRecorder` — bounded ring of per-request lifecycle
  records (``repro flight``, ``{"op": "flight"}``);
* :class:`QueryHistory` — append-only, size-rotated query-history
  store: the durable view of each request's terminal record, plus its
  query features;
* :class:`MetricsExporter` — stdlib HTTP endpoint serving the live
  registry in Prometheus text format (``--metrics-port``).
"""

from __future__ import annotations

from .exporter import MetricsExporter
from .flight import (
    FLIGHT_SCHEMA,
    FlightError,
    FlightRecord,
    FlightRecorder,
    load_flight_records,
    render_explain,
    render_flight,
    validate_flight_record,
)
from .history import (
    HISTORY_SCHEMA,
    HistoryError,
    QueryHistory,
    read_history,
    validate_history_record,
)
from .metrics import METRICS_SCHEMA, MetricSpec, MetricsRegistry
from .progress import ProgressReporter
from .summarize import (
    TraceError,
    TraceSummary,
    read_trace,
    render_summary,
    summarize_trace,
)
from .tracer import NULL_TRACER, NullTracer, Span, TRACE_SCHEMA, Tracer

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightError",
    "FlightRecord",
    "FlightRecorder",
    "HISTORY_SCHEMA",
    "HistoryError",
    "METRICS_SCHEMA",
    "MetricSpec",
    "MetricsExporter",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProgressReporter",
    "QueryHistory",
    "Span",
    "TRACE_SCHEMA",
    "TraceError",
    "TraceSummary",
    "Tracer",
    "load_flight_records",
    "read_history",
    "read_trace",
    "render_explain",
    "render_flight",
    "render_summary",
    "summarize_trace",
    "validate_flight_record",
    "validate_history_record",
]

