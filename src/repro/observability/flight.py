"""Per-request flight recorder: a bounded ring of request lifecycles.

A resident :class:`~repro.service.service.MatchService` is a black box
per request: counters say *how much* work the service did, but not what
happened to request #4217 — how long it queued, which cache tier served
its index, which plan the matcher chose, whether the watchdog or the
retry policy touched it.  The flight recorder answers exactly that
question, the way an aircraft one does: every request writes a compact
:class:`FlightRecord` of timestamped lifecycle events plus its plan
facts and final counters into a bounded in-memory ring
(:class:`FlightRecorder`), dumpable at any time via the ``repro serve``
``{"op": "flight"}`` control message and renderable with ``repro
flight``.

Event vocabulary (``t`` is seconds since the request was admitted):

``admit``
    Admission decision (``outcome`` = ``admitted``/``rejected``,
    current ``queue_depth``).
``prepare``
    The scheduler picked the request up; ``queue_seconds`` is the time
    it spent waiting in the inbox.
``index``
    Index resolution: ``tier`` (miss/hit/warm/coalesced), whether the
    store was ``transplanted`` onto this labeling, and the
    ``build_seconds`` this request paid (misses only).
``plan``
    Plan facts became available (root, order, per-level candidate
    cardinalities — stored on the record's ``plan`` field).
``planned``
    Execution shape: ``mode`` = ``solo``/``batched``, unit count and
    the predicted ``makespan``/``skew`` for batched jobs.
``solo`` / ``unit``
    One enumeration task finished: a solo run, or one share of the
    batched plan (its ``seconds``, ``embeddings`` and, for a share, the
    ``units`` it covered and the front end's ``decode`` seconds for
    turning its packed rows into tuples).
``unit_failed``
    A task failed (``kind`` = crash/fault/error/timeout) and took its
    ``units`` with it (0 for a solo run).
``retry``
    The retry policy re-ran the request (``attempt``, backoff delay).
``worker_crash`` / ``worker_stall``
    The watchdog recovered this request from a dead or condemned
    worker ``slot``; ``units`` is the size of the share it held (0 for
    a solo run).
``final``
    Terminal status resolved.

The ring holds the last ``capacity`` requests (finished or in flight);
older records fall off the end.  Appends are O(1) and lock-free on the
event path (list appends are atomic under the GIL); only ring rotation
takes the recorder lock.

:func:`validate_flight_record` is the schema gate used by the tests and
the CI telemetry job; :func:`render_flight` and :func:`render_explain`
are the human renderers behind ``repro flight`` and ``repro explain``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from itertools import count
from typing import Dict, List, Optional

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightError",
    "FlightRecord",
    "FlightRecorder",
    "QuietRecord",
    "load_flight_records",
    "render_explain",
    "render_flight",
    "validate_flight_record",
]

#: Version stamped into every record dict; bump on incompatible shape
#: changes so downstream parsers can refuse cleanly.
FLIGHT_SCHEMA = 1

#: Default ring capacity when a recorder is enabled without a size.
DEFAULT_FLIGHT_CAPACITY = 256


class FlightError(ValueError):
    """A flight record that violates the schema."""


#: The terminal facts of a record still in flight.
_IN_FLIGHT: Dict = {
    "status": None,
    "cache": None,
    "retries": 0,
    "signature": None,
    "latency_seconds": 0.0,
    "service_seconds": 0.0,
    "stop_reason": None,
    "error": None,
    "plan": None,
}


class FlightRecord:
    """One request's lifecycle: timestamped events + terminal facts.

    Mutated by whichever service thread currently holds the request
    (scheduler, workers, watchdog, retry timers); the event list is
    append-only and appends are GIL-atomic, so no lock is needed on the
    hot path.  :meth:`finish` stamps the terminal facts exactly once
    (first writer wins, mirroring the service's first-resolution rule).
    """

    __slots__ = ("request_id", "origin", "events", "facts")

    def __init__(self, request_id: int, origin: Optional[float] = None) -> None:
        self.request_id = request_id
        self.origin = time.perf_counter() if origin is None else origin
        self.events: List[Dict] = []
        #: The terminal facts :meth:`finish` stamped (None in flight).
        self.facts: Optional[Dict] = None

    def event(self, ev: str, **detail) -> None:
        """Append one lifecycle event (timestamped against admission).

        The positional parameter is deliberately named after the stored
        ``ev`` key so natural detail keys (``kind=...``, ``status=...``)
        never collide with it.
        """
        self.events.append({
            "t": round(time.perf_counter() - self.origin, 6),
            "ev": ev,
            **detail,
        })

    def finish(self, facts: Dict) -> None:
        """Stamp the terminal facts (first call wins): a dict of the
        record's fields (``status``, ``cache``, ``retries``,
        ``signature``, ``latency_seconds``, ``service_seconds``,
        ``stop_reason``, ``error``, ``plan``, ``phase_seconds``,
        ``counters``); a field it leaves out keeps its in-flight value.
        The dict is kept, not copied, so the caller must not mutate it
        afterwards."""
        if self.facts is None:
            self.facts = facts

    def as_dict(self) -> Dict:
        """JSON-ready snapshot (safe to call while events still land —
        the event list is copied atomically)."""
        return {
            "schema": FLIGHT_SCHEMA,
            "request_id": self.request_id,
            "finished": self.facts is not None,
            **_IN_FLIGHT,
            "phase_seconds": {},
            "counters": {},
            **(self.facts or {}),
            "events": list(self.events),
        }


class QuietRecord(FlightRecord):
    """The record of a request when the flight ring is off: lifecycle
    events are dropped (each :meth:`event` is a no-op, as every
    :data:`~repro.observability.tracer.NULL_TRACER` method is), and only
    the terminal facts are kept, so the slow-query log and the history
    read one record shape whether the ring is on or off."""

    __slots__ = ()

    def event(self, ev: str, **detail) -> None:
        return None


class FlightRecorder:
    """Bounded ring buffer of :class:`FlightRecord`\\ s, newest-biased.

    ``capacity`` bounds retained records; admitting request
    ``capacity + 1`` silently drops the oldest record (finished or
    not — a job still holds a reference to its own record, so its
    events keep landing; the ring just no longer serves it).
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.evicted = 0
        self._records: "OrderedDict[int, FlightRecord]" = OrderedDict()
        self._seq = count()
        import threading

        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def begin(self, request_id: int) -> FlightRecord:
        """Open a record for one admitted (or shed) request."""
        record = FlightRecord(request_id)
        with self._lock:
            self._records[next(self._seq)] = record
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
                self.evicted += 1
        return record

    def records(
        self,
        request_id: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Dict]:
        """Retained records as dicts, oldest first; optionally filtered
        by request id and truncated to the most recent ``limit``."""
        with self._lock:
            snapshot = list(self._records.values())
        out = [
            record.as_dict()
            for record in snapshot
            if request_id is None or record.request_id == request_id
        ]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    def find(self, request_id: int) -> Optional[Dict]:
        """The most recent record of ``request_id`` (None if rotated
        out or never admitted)."""
        found = self.records(request_id=request_id, limit=1)
        return found[0] if found else None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def validate_flight_record(record: Dict) -> Dict:
    """Raise :class:`FlightError` unless ``record`` is a well-formed
    schema-1 flight record; returns it unchanged for chaining."""
    if not isinstance(record, dict):
        raise FlightError("flight record must be an object")
    if record.get("schema") != FLIGHT_SCHEMA:
        raise FlightError(
            f"unsupported flight schema {record.get('schema')!r} "
            f"(expected {FLIGHT_SCHEMA})"
        )
    if not isinstance(record.get("request_id"), int):
        raise FlightError("flight record missing integer request_id")
    status = record.get("status")
    if status is not None and not isinstance(status, str):
        raise FlightError("status must be a string (or null in flight)")
    events = record.get("events")
    if not isinstance(events, list):
        raise FlightError("events must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ev" not in event or "t" not in event:
            raise FlightError(f"event {i} missing ev/t")
        if not isinstance(event["ev"], str):
            raise FlightError(f"event {i}: ev must be a string")
        if not isinstance(event["t"], (int, float)) or event["t"] < 0:
            raise FlightError(f"event {i}: t must be a non-negative number")
    for field in ("phase_seconds", "counters"):
        mapping = record.get(field)
        if not isinstance(mapping, dict):
            raise FlightError(f"{field} must be an object")
        for key, value in mapping.items():
            if not isinstance(value, (int, float)):
                raise FlightError(f"{field}[{key!r}] must be a number")
    plan = record.get("plan")
    if plan is not None and not isinstance(plan, dict):
        raise FlightError("plan must be an object or null")
    return record


def load_flight_records(path: str) -> List[Dict]:
    """Read flight records from ``path`` and validate each.

    Accepts the two shapes the service produces: a JSON object carrying
    a ``records`` array (an ``{"op": "flight"}`` dump line) and plain
    JSONL with one record per line (the slow-query log).
    """
    import json

    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FlightError(f"{path}: not UTF-8 ({exc})")
    records: List[Dict] = []
    stripped = text.strip()
    if not stripped:
        raise FlightError(f"{path}: empty file")
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FlightError(f"{path}:{lineno}: invalid JSON ({exc})")
        if isinstance(payload, dict) and "records" in payload:
            found = payload["records"]
            if not isinstance(found, list):
                raise FlightError(f"{path}:{lineno}: records must be a list")
            records.extend(found)
        else:
            records.append(payload)
    for record in records:
        validate_flight_record(record)
    return records


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------
def _format_detail(event: Dict) -> str:
    return " ".join(
        f"{key}={value}"
        for key, value in event.items()
        if key not in ("t", "ev")
    )


def _plan_lines(plan: Optional[Dict]) -> List[str]:
    if not plan:
        return ["plan: (not recorded)"]
    lines = ["plan"]
    root = plan.get("root")
    lines.append(
        f"  root {root} "
        f"({plan.get('root_candidates', '?')} candidates, "
        f"score {plan.get('root_score', 0.0):.2f})"
    )
    order = plan.get("order") or []
    lines.append("  order: " + " ".join(str(u) for u in order))
    levels = plan.get("level_candidates") or []
    if levels:
        lines.append(
            "  level candidates: "
            + " ".join(f"u{u}={n}" for u, n in levels)
        )
    lines.append(
        f"  clusters {plan.get('clusters', '?')}, "
        f"cardinality bound {plan.get('cardinality_bound', '?')}"
    )
    return lines


def _phase_lines(phase_seconds: Dict[str, float]) -> List[str]:
    if not phase_seconds:
        return []
    total = sum(phase_seconds.values())
    lines = ["phases"]
    for name, seconds in sorted(
        phase_seconds.items(), key=lambda kv: -kv[1]
    ):
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"  {name:<12} {seconds:>10.6f}s {share:>5.1f}%")
    lines.append(f"  {'total':<12} {total:>10.6f}s")
    return lines


def _counter_lines(counters: Dict[str, int]) -> List[str]:
    interesting = [
        (name, value)
        for name, value in sorted(counters.items())
        if value
    ]
    if not interesting:
        return []
    return [
        "counters",
        "  " + " ".join(f"{name}={value}" for name, value in interesting),
    ]


def render_flight(record: Dict) -> str:
    """The full lifecycle view behind ``repro flight``: header, event
    timeline, plan, phases, counters."""
    status = record.get("status") or "(in flight)"
    lines = [
        f"request {record['request_id']} — status {status} "
        f"(cache {record.get('cache') or 'n/a'}, "
        f"retries {record.get('retries', 0)})",
        f"  latency {record.get('latency_seconds', 0.0) * 1e3:.2f}ms "
        f"(service {record.get('service_seconds', 0.0) * 1e3:.2f}ms)",
    ]
    if record.get("error"):
        lines.append(f"  error: {record['error']}")
    if record.get("stop_reason"):
        lines.append(f"  stop reason: {record['stop_reason']}")
    lines.append("timeline")
    for event in record.get("events", ()):
        detail = _format_detail(event)
        lines.append(
            f"  +{event['t']:.6f}s {event['ev']:<14}"
            + (f" {detail}" if detail else "")
        )
    lines.extend(_plan_lines(record.get("plan")))
    lines.extend(_phase_lines(record.get("phase_seconds", {})))
    lines.extend(_counter_lines(record.get("counters", {})))
    return "\n".join(lines)


def render_explain(record: Dict) -> str:
    """The plan-first view behind ``repro explain``: why was this
    request slow — plan facts, then the phase budget, then the
    condensed lifecycle."""
    status = record.get("status") or "(in flight)"
    latency_ms = record.get("latency_seconds", 0.0) * 1e3
    lines = [
        f"slow query: request {record['request_id']} — "
        f"{latency_ms:.1f}ms, status {status}"
    ]
    if record.get("slow_ms") is not None:
        lines[0] += f" (threshold {record['slow_ms']:g}ms)"
    lines.append(
        f"  cache {record.get('cache') or 'n/a'}, "
        f"retries {record.get('retries', 0)}, "
        f"signature {record.get('signature') or 'n/a'}"
    )
    if record.get("error"):
        lines.append(f"  error: {record['error']}")
    lines.extend(_plan_lines(record.get("plan")))
    lines.extend(_phase_lines(record.get("phase_seconds", {})))
    events = record.get("events", ())
    if events:
        lines.append("lifecycle")
        for event in events:
            detail = _format_detail(event)
            lines.append(
                f"  +{event['t']:.6f}s {event['ev']:<14}"
                + (f" {detail}" if detail else "")
            )
    lines.extend(_counter_lines(record.get("counters", {})))
    return "\n".join(lines)
