"""Named-metric registry with declared merge semantics.

A :class:`MetricSpec` declares each metric's kind (counter / gauge /
histogram) and how two runs' values combine (``sum`` for work counters,
``max`` for peak gauges such as ``memory_bytes``), and
:meth:`MetricsRegistry.merge` folds two registries by those semantics —
the service's live registry, its scrape-time snapshots and the fold of
each request's stats into it.  ``MatchStats``' spec table is derived
from its fields, and ``MatchStats.merge`` applies the semantic that
table declares field by field, without building registries.

A labeled spec (``labeled=True``) is a metric *family*: one value per
label, e.g. ``phase_seconds{phase="filter"}``.  Histograms are kept as
mergeable summaries (count / sum / min / max), not raw samples.

Output formats: :meth:`as_dict` (JSON-friendly nesting) and
:meth:`to_prom` (Prometheus text exposition) — the two shapes behind
the CLI's ``--metrics {json,prom}``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

__all__ = [
    "METRICS_SCHEMA",
    "MetricSpec",
    "MetricsRegistry",
]

#: Version stamped into :meth:`MetricsRegistry.as_dict`; bump on
#: incompatible shape changes so downstream parsers can refuse cleanly.
METRICS_SCHEMA = 1

_KINDS = ("counter", "gauge", "histogram")
_MERGES = ("sum", "max")

Number = Union[int, float]
#: Histogram summary representation.
Summary = Dict[str, float]


class MetricSpec:
    """Declaration of one metric: its kind and its merge semantics."""

    __slots__ = ("name", "kind", "merge", "labeled", "label_name", "help")

    def __init__(
        self,
        name: str,
        kind: str = "counter",
        merge: str = "sum",
        labeled: bool = False,
        label_name: str = "label",
        help: str = "",
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if merge not in _MERGES:
            raise ValueError(f"unknown merge semantic {merge!r}")
        self.name = name
        self.kind = kind
        self.merge = merge
        self.labeled = labeled
        self.label_name = label_name
        self.help = help

    def __repr__(self) -> str:
        return (
            f"<MetricSpec {self.name} kind={self.kind} merge={self.merge}"
            f"{' labeled' if self.labeled else ''}>"
        )


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash first, then double quote and line feed."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _merged_summary(a: Summary, b: Summary) -> Summary:
    return {
        "count": a["count"] + b["count"],
        "sum": a["sum"] + b["sum"],
        "min": min(a["min"], b["min"]),
        "max": max(a["max"], b["max"]),
    }


class MetricsRegistry:
    """Typed store of named counters, gauges and histograms.

    Unknown metric names auto-register as summed counters on first use,
    so ad-hoc telemetry doesn't require a spec — but anything with
    non-default semantics (peak gauges, labeled families) should declare
    one up front.
    """

    def __init__(self, specs: Iterable[MetricSpec] = ()) -> None:
        self._specs: Dict[str, MetricSpec] = {}
        #: plain metrics: name -> number; labeled: name -> {label: number};
        #: histograms: name -> Summary.
        self._values: Dict[str, Union[Number, Dict[str, Number], Summary]] = {}
        for spec in specs:
            self.register(spec)

    # ------------------------------------------------------------------
    # Registration & access
    # ------------------------------------------------------------------
    def register(self, spec: MetricSpec) -> MetricSpec:
        existing = self._specs.get(spec.name)
        if existing is not None:
            return existing
        self._specs[spec.name] = spec
        return spec

    def spec(self, name: str) -> MetricSpec:
        found = self._specs.get(name)
        if found is None:
            found = self.register(MetricSpec(name))
        return found

    def names(self):
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def inc(
        self, name: str, amount: Number = 1, label: Optional[str] = None
    ) -> None:
        """Add ``amount`` to a counter (or one label of a family)."""
        spec = self.spec(name)
        if spec.labeled:
            if label is None:
                raise ValueError(f"metric {name!r} requires a label")
            family = self._values.setdefault(name, {})
            family[label] = family.get(label, 0) + amount
        else:
            if label is not None:
                raise ValueError(f"metric {name!r} takes no label")
            self._values[name] = self._values.get(name, 0) + amount

    def set_gauge(
        self, name: str, value: Number, label: Optional[str] = None
    ) -> None:
        """Set a gauge to ``value`` (last write wins within one run;
        merging applies the spec's semantic, e.g. ``max`` for peaks)."""
        spec = self.spec(name)
        if spec.kind == "counter":
            raise ValueError(f"metric {name!r} is a counter; use inc()")
        if spec.labeled:
            if label is None:
                raise ValueError(f"metric {name!r} requires a label")
            self._values.setdefault(name, {})[label] = value
        else:
            self._values[name] = value

    def observe(self, name: str, value: Number) -> None:
        """Record one observation into a histogram summary."""
        spec = self.spec(name)
        if spec.kind != "histogram":
            raise ValueError(f"metric {name!r} is not a histogram")
        summary = self._values.get(name)
        if summary is None:
            self._values[name] = {
                "count": 1.0,
                "sum": float(value),
                "min": float(value),
                "max": float(value),
            }
        else:
            summary["count"] += 1
            summary["sum"] += value
            summary["min"] = min(summary["min"], value)
            summary["max"] = max(summary["max"], value)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, name: str, label: Optional[str] = None, default: Number = 0):
        value = self._values.get(name)
        if value is None:
            return default
        if isinstance(value, dict) and self.spec(name).labeled:
            if label is None:
                return dict(value)
            return value.get(label, default)
        return value

    def labels(self, name: str) -> Dict[str, Number]:
        """The label -> value map of a labeled family (empty if unset)."""
        value = self._values.get(name)
        if isinstance(value, dict) and self.spec(name).labeled:
            return dict(value)
        return {}

    # ------------------------------------------------------------------
    # The one merge path
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry, per-metric semantics:

        * ``merge="sum"`` — values add (per label for families);
        * ``merge="max"`` — the peak survives (workers sharing one index
          report a footprint, not a footprint *sum*);
        * histograms — summaries combine exactly.

        Returns ``self`` so call sites can chain.
        """
        # Iterate over list/dict copies: a live service registry may be
        # incremented by worker threads while a metrics scrape merges it
        # into a snapshot, and dicts must not resize mid-iteration.
        for name, theirs in list(other._values.items()):
            spec = self.register(other.spec(name))
            if spec.kind == "histogram":
                mine = self._values.get(name)
                self._values[name] = (
                    dict(theirs) if mine is None
                    else _merged_summary(mine, theirs)
                )
            elif spec.labeled:
                family = self._values.setdefault(name, {})
                for label, value in list(theirs.items()):
                    if spec.merge == "max":
                        family[label] = max(family.get(label, value), value)
                    else:
                        family[label] = family.get(label, 0) + value
            else:
                mine = self._values.get(name)
                if mine is None:
                    self._values[name] = theirs
                elif spec.merge == "max":
                    self._values[name] = max(mine, theirs)
                else:
                    self._values[name] = mine + theirs
        return self

    # ------------------------------------------------------------------
    # Output formats
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        """JSON-friendly dump: ``{"schema": 1, "metrics": {...}}``."""
        metrics: Dict[str, object] = {}
        for name in sorted(self._values):
            value = self._values[name]
            metrics[name] = dict(value) if isinstance(value, dict) else value
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    def to_prom(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition of every populated metric.

        Histogram summaries become the four series a summary type
        implies — ``_count``/``_sum`` plus ``_min``/``_max`` gauges —
        and label values are escaped per the exposition format
        (backslash, double quote, newline)."""
        lines = []
        for name in sorted(self._values):
            spec = self.spec(name)
            value = self._values[name]
            metric = prefix + name
            kind = "counter" if spec.kind == "counter" else "gauge"
            if spec.help:
                lines.append(f"# HELP {metric} {spec.help}")
            if spec.kind == "histogram":
                lines.append(f"# TYPE {metric} summary")
                lines.append(f"{metric}_count {value['count']:g}")
                lines.append(f"{metric}_sum {value['sum']:g}")
                lines.append(f"{metric}_min {value['min']:g}")
                lines.append(f"{metric}_max {value['max']:g}")
            elif spec.labeled:
                lines.append(f"# TYPE {metric} {kind}")
                for label in sorted(value):
                    escaped = _escape_label_value(str(label))
                    lines.append(
                        f'{metric}{{{spec.label_name}="{escaped}"}} '
                        f"{value[label]:g}"
                    )
            else:
                lines.append(f"# TYPE {metric} {kind}")
                lines.append(f"{metric} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")
