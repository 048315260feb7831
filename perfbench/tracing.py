"""In-memory span recording around calls into the program's layers.

The recorder patches a fixed list of public functions and methods (the
module attributes the program looks them up through) with wrappers that
record one span per call, and restores them on :meth:`Recorder.uninstall`.
Nothing inside the program is changed.  Spans stay in memory until the
run ends, then :meth:`Recorder.write` dumps them as JSON lines.

A span's *self time* is its duration minus the part of it covered by
its child spans; a child is a span opened while its parent was the
innermost open span on the same thread, or, on a service thread with no
open span, a top-level span attributed to a request whose root span
(submit to result) is open.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, attribute owner inside it or "", attribute, layer name).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.matcher", "", "initial_candidates", "plan"),
    ("repro.core.matcher", "", "make_order", "plan"),
    ("repro.core.matcher", "", "build_ceci", "filter"),
    ("repro.core.matcher", "", "refine_ceci", "refine"),
    ("repro.core.ceci", "CECI", "freeze", "refine"),
    ("repro.core.ceci", "CECI", "compact", "freeze"),
    ("repro.core.enumeration", "Enumerator", "collect", "enumerate"),
    ("repro.core.enumeration", "Enumerator", "collect_from_unit", "enumerate"),
    ("repro.service.cache", "IndexCache", "get_or_build", "cache"),
    ("repro.service.shards", "", "distribute_pivots", "fanout"),
    ("repro.service.shards", "", "publish_bytes", "publish"),
)

#: Name of the driver's own submit-to-result spans.
REQUEST = "request"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "info")

    def __init__(self, sid, name, start, parent, rid) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.info = None

    def as_dict(self) -> Dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "request": self.rid,
            "info": self.info,
        }


class Recorder:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._patched: List[Tuple[object, str, object]] = []
        #: id(query graph object) -> request id, set by the driver so
        #: service-thread spans can be attributed to their request.
        self.rid_of_query: Dict[int, int] = {}
        #: request id -> open root span id.
        self._roots: Dict[int, int] = {}

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[int] = None) -> Span:
        stack = self._stack()
        if rid is None:
            rid = getattr(self._local, "rid", None)
        if stack:
            parent = stack[-1]
        else:
            parent = self._roots.get(rid) if rid is not None else None
        span = Span(next(self._ids), name, time.perf_counter(), parent, rid)
        stack.append(span.sid)
        if name == REQUEST and rid is not None:
            self._roots[rid] = span.sid
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == REQUEST:
            self._roots.pop(span.rid, None)
        self.spans.append(span)

    def request_span(self, rid: int) -> Span:
        """Open the root span of request ``rid``.  Close it with
        :meth:`end_request` on the same thread."""
        span = self.begin(REQUEST, rid)
        # Library calls made on this thread belong to this request.
        self._local.rid = rid
        return span

    def end_request(self, span: Span) -> None:
        self.end(span)
        self._local.rid = None

    # -- patching --------------------------------------------------------
    def _wrap(self, func, layer: str, attribute: str):
        recorder = self

        def traced(*args, **kwargs):
            if os.getpid() != recorder._pid:  # forked shard process
                return func(*args, **kwargs)
            rid = None
            if attribute == "get_or_build":
                rid = recorder.rid_of_query.get(id(args[1]))
            outer = getattr(recorder._local, "rid", None)
            if rid is not None:
                recorder._local.rid = rid
            span = recorder.begin(layer, rid)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.end(span)
                recorder._local.rid = outer
            if attribute == "get_or_build":
                span.info = result[1]
            elif attribute == "publish_bytes":
                span.info = len(args[0])
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module_name, owner_name, attribute, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer, attribute))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def in_window(spans: Sequence[Span], t0: float, t1: float) -> List[Span]:
    return [s for s in spans if t0 <= s.start < t1]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[str, float] = {}
    for span in spans:
        kids = children.get(span.sid, ())
        inner = covered(
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids
            if k.end > span.start and k.start < span.end
        )
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - inner)
    return out


def unattributed(spans: Sequence[Span], t0: float, t1: float) -> float:
    """Share of the window ``[t0, t1]`` during which no layer span (any
    span but the driver's request spans) was open on any thread."""
    wall = t1 - t0
    busy = covered(
        (max(s.start, t0), min(s.end, t1))
        for s in spans
        if s.name != REQUEST and s.end > t0 and s.start < t1
    )
    return (wall - busy) / wall
