"""Nested-span tracing with JSON-lines output.

The paper's evaluation is a phase-breakdown story — Figures 15, 19 and
20 decompose runtime into filtering / refinement / enumeration — and a
trace file is how this repo produces that decomposition for *any* run:
every instrumented layer emits events into one append-only JSONL stream
with monotonic (``time.perf_counter``) timestamps.

Event vocabulary (one JSON object per line; ``t`` is seconds since the
tracer's origin):

``{"ev": "meta", "schema": 1, "clock": "perf_counter", ...}``
    First line of every trace; carries the schema version.
``{"ev": "b"|"e", "id": n, "parent": p, "name": ..., "tid": k, ...}``
    Begin/end of a nested **span**.  Spans nest per thread stream
    (``tid`` plus any ``worker``/``machine`` tags): every ``b`` has a
    matching ``e`` with the same ``id`` and ``name``, LIFO-ordered —
    :mod:`repro.observability.summarize` validates exactly that.  The
    ``e`` event carries ``dur`` (seconds).
``{"ev": "p", "name": ..., "dur": s, ...}``
    A **phase** record: a self-contained span whose start/duration were
    measured by the caller (the exact floats that also land in
    ``MatchStats.phase_seconds``, so trace totals and stats totals agree
    bit-for-bit).
``{"ev": "i", "name": ..., ...}``
    An instant event (cache snapshots, progress).

Two tracer flavours share the interface:

* :class:`Tracer` — the real thing: thread-safe writer, per-thread span
  stacks;
* :class:`NullTracer` — the default everywhere: ``enabled`` is False and
  every method is a no-op returning a shared immutable null span, so the
  hot path pays one attribute check at most when tracing is off.

``tracer.scoped(machine=3)`` returns a lightweight view that stamps the
given tags on every event — how the distributed runtime merges
per-machine span streams into one trace file, and how worker threads tag
their enumeration spans.
"""

from __future__ import annotations

import json
import threading
import time
from itertools import count
from typing import Any, Dict, IO, List, Optional, Union

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
]

#: Version stamped into the trace meta line; bump on incompatible event
#: vocabulary changes so downstream parsers can refuse cleanly.
TRACE_SCHEMA = 1


class Span:
    """One nested span; use as a context manager.

    ``start``/``end`` are raw ``perf_counter`` readings, ``duration``
    their difference — available after ``__exit__``.
    """

    __slots__ = ("_tracer", "name", "tags", "id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.id = 0
        self.parent: Optional[int] = None
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent = stack[-1].id if stack else None
        self.id = tracer._next_id()
        stack.append(self)
        self.start = time.perf_counter()
        tracer._emit({
            "t": self.start - tracer._origin,
            "ev": "b",
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            **self.tags,
        })
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        tracer._emit({
            "t": self.end - tracer._origin,
            "ev": "e",
            "id": self.id,
            "name": self.name,
            "dur": self.end - self.start,
            **self.tags,
        })

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Shared, immutable no-op span: the disabled-path context manager."""

    __slots__ = ()
    id = 0
    parent = None
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer — the default on every instrumented layer.

    ``enabled`` is ``False`` so hot loops can skip even the method call;
    when they don't bother, every method here is still a safe no-op.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, **tags) -> _NullSpan:
        return _NULL_SPAN

    def phase(self, name: str, start: float, seconds: float, **tags) -> None:
        return None

    def instant(self, name: str, **tags) -> None:
        return None

    def scoped(self, **tags) -> "NullTracer":
        return self

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


#: The shared default instance (tracers are stateless when disabled).
NULL_TRACER = NullTracer()


class Tracer:
    """JSONL span/event writer with per-thread nesting.

    Parameters
    ----------
    sink:
        A path (opened for writing and closed by :meth:`close`) or any
        object with a ``write`` method (kept open; caller owns it).
    tags:
        Tags stamped on every event this tracer (and its scoped views)
        emits — e.g. ``machine=0`` on a distributed machine stream.
    """

    enabled = True

    def __init__(
        self,
        sink: Union[str, IO[str]],
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        if isinstance(sink, str):
            self._sink: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False
        self._tags = dict(tags or {})
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = count(1)
        self._tids: Dict[int, int] = {}
        self._closed = False
        self._origin = time.perf_counter()
        self._emit({
            "t": 0.0,
            "ev": "meta",
            "schema": TRACE_SCHEMA,
            "clock": "perf_counter",
            **self._tags,
        })

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        return next(self._ids)  # itertools.count is GIL-atomic

    def _tid(self) -> int:
        ident = threading.get_ident()
        found = self._tids.get(ident)
        if found is None:
            with self._lock:
                found = self._tids.setdefault(ident, len(self._tids))
        return found

    def _emit(self, payload: Dict[str, Any]) -> None:
        payload.setdefault("tid", self._tid())
        line = json.dumps(payload, separators=(",", ":"), default=str)
        with self._lock:
            if not self._closed:
                self._sink.write(line + "\n")

    # ------------------------------------------------------------------
    # Emission API (shared with NullTracer)
    # ------------------------------------------------------------------
    def span(self, name: str, **tags) -> Span:
        """A nested span context manager (begin/end event pair)."""
        if self._tags:
            tags = {**self._tags, **tags}
        return Span(self, name, tags)

    def phase(self, name: str, start: float, seconds: float, **tags) -> None:
        """Record a phase with caller-measured timing.  ``start`` is a
        raw ``perf_counter`` reading; ``seconds`` the exact duration the
        caller also fed to ``MatchStats.add_phase`` — which is what makes
        ``trace summarize`` agree with the stats to the last bit."""
        if self._tags:
            tags = {**self._tags, **tags}
        self._emit({
            "t": max(start - self._origin, 0.0),
            "ev": "p",
            "name": name,
            "dur": seconds,
            **tags,
        })

    def instant(self, name: str, **tags) -> None:
        """A point-in-time event (no duration)."""
        if self._tags:
            tags = {**self._tags, **tags}
        self._emit({
            "t": time.perf_counter() - self._origin,
            "ev": "i",
            "name": name,
            **tags,
        })

    def scoped(self, **tags) -> "_ScopedTracer":
        """A view of this tracer that stamps ``tags`` on every event."""
        return _ScopedTracer(self, {**self._tags, **tags})

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._sink.flush()

    def close(self) -> None:
        """Flush, and close the sink if this tracer opened it."""
        with self._lock:
            if self._closed:
                return
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._closed = True


class _ScopedTracer:
    """Tag-stamping view over a base :class:`Tracer` (shared sink, ids
    and span stacks — events interleave into the same trace)."""

    __slots__ = ("_base", "_scope")
    enabled = True

    def __init__(self, base: Tracer, scope: Dict[str, Any]) -> None:
        self._base = base
        self._scope = scope

    def span(self, name: str, **tags) -> Span:
        return Span(self._base, name, {**self._scope, **tags})

    def phase(self, name: str, start: float, seconds: float, **tags) -> None:
        base = self._base
        base._emit({
            "t": max(start - base._origin, 0.0),
            "ev": "p",
            "name": name,
            "dur": seconds,
            **self._scope,
            **tags,
        })

    def instant(self, name: str, **tags) -> None:
        base = self._base
        base._emit({
            "t": time.perf_counter() - base._origin,
            "ev": "i",
            "name": name,
            **self._scope,
            **tags,
        })

    def scoped(self, **tags) -> "_ScopedTracer":
        return _ScopedTracer(self._base, {**self._scope, **tags})

    def flush(self) -> None:
        self._base.flush()

    def close(self) -> None:
        # Scoped views never own the sink; closing is the base's job.
        self._base.flush()
