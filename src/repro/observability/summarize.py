"""Trace-file validation and per-phase / per-worker summarisation.

``repro trace summarize FILE.jsonl`` renders the Figure 15/19/20-style
decomposition from a trace produced with ``--trace``:

* **phase breakdown** — total seconds per phase (filtering, refinement,
  enumeration, ...) from the ``p`` records, which carry the exact same
  durations as ``MatchStats.phase_seconds``;
* **per-worker / per-machine breakdown** — the same records grouped by
  their ``machine`` / ``worker`` tags, reproducing the per-executor
  bars;
* **per-request breakdown** — service traces stamp every phase with the
  owning request's id (``request=<id>``); those group into one phase
  table per request, so a multi-query service trace reads as
  per-request stories instead of one blended stream;
* **span accounting** — counts and summed durations of the nested
  ``b``/``e`` spans (per-cluster, per-filter-level, ...).

Validation happens while reading (:func:`read_trace`): the first line
must be a schema-1 ``meta`` event, every line must parse, and within
each thread stream (``tid`` + ``machine`` + ``worker``) begin/end
events must pair LIFO with matching ids and names.  A malformed trace
raises :class:`TraceError` instead of summarising garbage.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .tracer import TRACE_SCHEMA

__all__ = [
    "TraceError",
    "TraceSummary",
    "read_trace",
    "render_summary",
    "summarize_trace",
]


class TraceError(ValueError):
    """A trace file that violates the event schema."""


def _stream_key(event: Dict) -> Tuple:
    return (
        event.get("machine"),
        event.get("worker"),
        event.get("tid"),
    )


class TraceSummary:
    """Aggregates of one validated trace."""

    def __init__(self) -> None:
        self.events = 0
        #: phase name -> {"seconds": total, "events": n}
        self.phases: Dict[str, Dict[str, float]] = {}
        #: (machine, worker) -> phase name -> seconds
        self.executors: Dict[Tuple, Dict[str, float]] = {}
        #: request id -> phase name -> seconds (phases carrying a
        #: ``request`` tag, i.e. service traces).
        self.requests: Dict[object, Dict[str, float]] = {}
        #: span name -> {"count": n, "seconds": total}
        self.spans: Dict[str, Dict[str, float]] = {}
        self.instants = 0

    # -- accumulation ---------------------------------------------------
    def add_phase(self, event: Dict) -> None:
        name = event["name"]
        seconds = float(event["dur"])
        entry = self.phases.setdefault(name, {"seconds": 0.0, "events": 0})
        entry["seconds"] += seconds
        entry["events"] += 1
        executor = (event.get("machine"), event.get("worker"))
        per_phase = self.executors.setdefault(executor, {})
        per_phase[name] = per_phase.get(name, 0.0) + seconds
        request = event.get("request")
        if request is not None:
            per_request = self.requests.setdefault(request, {})
            per_request[name] = per_request.get(name, 0.0) + seconds

    def add_span(self, name: str, seconds: float) -> None:
        entry = self.spans.setdefault(name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += seconds

    # -- reads ----------------------------------------------------------
    def phase_seconds(self) -> Dict[str, float]:
        """Phase name -> total seconds (the ``MatchStats`` shape)."""
        return {
            name: entry["seconds"] for name, entry in self.phases.items()
        }

    def total_seconds(self) -> float:
        return sum(entry["seconds"] for entry in self.phases.values())

    def as_dict(self) -> Dict:
        return {
            "schema": TRACE_SCHEMA,
            "events": self.events,
            "phases": {
                name: dict(entry) for name, entry in sorted(self.phases.items())
            },
            "executors": {
                _executor_label(executor): dict(per_phase)
                for executor, per_phase in sorted(
                    self.executors.items(), key=lambda kv: str(kv[0])
                )
            },
            "requests": {
                str(request): dict(per_phase)
                for request, per_phase in sorted(
                    self.requests.items(), key=lambda kv: str(kv[0])
                )
            },
            "spans": {
                name: dict(entry) for name, entry in sorted(self.spans.items())
            },
        }


def _executor_label(executor: Tuple) -> str:
    machine, worker = executor
    bits = []
    if machine is not None:
        bits.append(f"machine={machine}")
    if worker is not None:
        bits.append(f"worker={worker}")
    return " ".join(bits) if bits else "main"


def read_trace(path: str) -> TraceSummary:
    """Parse, validate and aggregate one JSONL trace file."""
    summary = TraceSummary()
    #: per-stream stack of open (id, name) spans.
    stacks: Dict[Tuple, List[Tuple[int, str]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: invalid JSON ({exc})")
            if not isinstance(event, dict) or "ev" not in event:
                raise TraceError(f"line {lineno}: not a trace event")
            kind = event["ev"]
            if summary.events == 0:
                if kind != "meta":
                    raise TraceError(
                        f"line {lineno}: first event must be 'meta', "
                        f"got {kind!r}"
                    )
                if event.get("schema") != TRACE_SCHEMA:
                    raise TraceError(
                        f"line {lineno}: unsupported trace schema "
                        f"{event.get('schema')!r} (expected {TRACE_SCHEMA})"
                    )
                summary.events += 1
                continue
            summary.events += 1
            if kind == "meta":
                continue
            if "t" not in event:
                raise TraceError(f"line {lineno}: event missing 't'")
            if kind == "p":
                if "name" not in event or "dur" not in event:
                    raise TraceError(
                        f"line {lineno}: phase event missing name/dur"
                    )
                if event["dur"] < 0:
                    raise TraceError(f"line {lineno}: negative duration")
                summary.add_phase(event)
            elif kind == "b":
                stacks.setdefault(_stream_key(event), []).append(
                    (event["id"], event["name"])
                )
            elif kind == "e":
                stack = stacks.get(_stream_key(event))
                if not stack:
                    raise TraceError(
                        f"line {lineno}: span end with no open span "
                        f"in its stream"
                    )
                open_id, open_name = stack.pop()
                if open_id != event["id"] or open_name != event["name"]:
                    raise TraceError(
                        f"line {lineno}: span end {event['name']!r}#"
                        f"{event['id']} does not match innermost open "
                        f"span {open_name!r}#{open_id} (improper nesting)"
                    )
                if event.get("dur", 0.0) < 0:
                    raise TraceError(f"line {lineno}: negative duration")
                summary.add_span(event["name"], float(event.get("dur", 0.0)))
            elif kind == "i":
                summary.instants += 1
            else:
                raise TraceError(
                    f"line {lineno}: unknown event kind {kind!r}"
                )
    if summary.events == 0:
        raise TraceError("empty trace (no meta line)")
    unclosed = {
        key: stack for key, stack in stacks.items() if stack
    }
    if unclosed:
        key, stack = next(iter(unclosed.items()))
        raise TraceError(
            f"unclosed span {stack[-1][1]!r}#{stack[-1][0]} in stream "
            f"{key} (begin without end)"
        )
    return summary


def render_summary(summary: TraceSummary) -> str:
    """The human-readable breakdown tables."""
    lines: List[str] = []
    total = summary.total_seconds()

    lines.append("phase breakdown")
    lines.append(f"{'phase':<14} {'seconds':>12} {'share':>7} {'events':>7}")
    for name, entry in sorted(
        summary.phases.items(), key=lambda kv: -kv[1]["seconds"]
    ):
        share = 100.0 * entry["seconds"] / total if total else 0.0
        lines.append(
            f"{name:<14} {entry['seconds']:>12.6f} {share:>6.1f}% "
            f"{int(entry['events']):>7}"
        )
    lines.append(f"{'total':<14} {total:>12.6f}")

    if len(summary.executors) > 1 or any(
        executor != (None, None) for executor in summary.executors
    ):
        lines.append("")
        lines.append("per-executor breakdown")
        lines.append(f"{'executor':<22} {'phase':<14} {'seconds':>12}")
        for executor, per_phase in sorted(
            summary.executors.items(), key=lambda kv: str(kv[0])
        ):
            label = _executor_label(executor)
            for name, seconds in sorted(per_phase.items()):
                lines.append(f"{label:<22} {name:<14} {seconds:>12.6f}")

    if summary.requests:
        lines.append("")
        lines.append("per-request breakdown")
        lines.append(
            f"{'request':<12} {'phase':<14} {'seconds':>12} {'share':>7}"
        )
        for request, per_phase in sorted(
            summary.requests.items(), key=lambda kv: str(kv[0])
        ):
            request_total = sum(per_phase.values())
            for name, seconds in sorted(
                per_phase.items(), key=lambda kv: -kv[1]
            ):
                share = (
                    100.0 * seconds / request_total if request_total else 0.0
                )
                lines.append(
                    f"{str(request):<12} {name:<14} {seconds:>12.6f} "
                    f"{share:>6.1f}%"
                )
            lines.append(
                f"{str(request):<12} {'total':<14} {request_total:>12.6f}"
            )

    if summary.spans:
        lines.append("")
        lines.append("spans")
        lines.append(f"{'name':<20} {'count':>8} {'seconds':>12}")
        for name, entry in sorted(summary.spans.items()):
            lines.append(
                f"{name:<20} {int(entry['count']):>8} "
                f"{entry['seconds']:>12.6f}"
            )
    return "\n".join(lines)


def summarize_trace(path: str, as_json: bool = False) -> str:
    """Read + validate ``path`` and return the rendered summary (or its
    JSON form)."""
    summary = read_trace(path)
    if as_json:
        return json.dumps(summary.as_dict(), indent=2)
    return render_summary(summary)
