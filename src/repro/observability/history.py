"""Append-only, size-rotated query-history store.

The history is the durable view of the service's terminal request
record: the flight ring keeps the last N requests in memory, and this
JSONL log keeps every completed request on disk, bounded by bytes.  A
line carries the request's terminal facts — the same dict its flight
record and slow-log line read (status, cache tier, retries, latencies,
per-phase seconds, counters) — plus a feature block (the query's
structure and the plan the optimizer chose), keyed by the canonical
query signature (the same ``canonical_form`` signature the index cache
dedupes on, so isomorphic queries share a key).

One record per completed request::

    {"schema": 1, "signature": "...", "request_id": 7, "status": "ok",
     "cache": "hit", "retries": 0,
     "latency_seconds": 0.0123, "service_seconds": 0.0101,
     "features": {"query_vertices": 5, "query_edges": 7, ...,
                  "root": 2, "order": [2, 0, ...],
                  "level_candidates": [[2, 14], [0, 9], ...],
                  "cardinality_bound": 120},
     "phase_seconds": {"filter": ..., "enumerate": ...},
     "counters": {"recursive_calls": ..., "embeddings_found": ...}}

Durability model: appends are ``write + flush`` under a lock (one line
per record, so a crash can lose at most the tail line, never corrupt
earlier ones).  When the active file exceeds ``max_bytes`` it is
rotated shift-style (``path`` → ``path.1`` → ``path.2`` …), keeping at
most ``keep`` rotated segments — the same bounded-disk discipline the
index cache's spill tier uses.  ``schema`` is stamped into every record
so a reader can refuse a shape it does not know; a damaged segment
(active or rotated) reads back as records or raises
:class:`HistoryError`.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional

__all__ = [
    "HISTORY_SCHEMA",
    "HistoryError",
    "QueryHistory",
    "read_history",
    "validate_history_record",
]

#: Version stamped into every record; bump on incompatible shape changes.
HISTORY_SCHEMA = 1

#: Feature keys every record must carry (plan-derived keys — root,
#: order, level_candidates, cardinality_bound — are optional because a
#: request can fail before a plan exists).
_REQUIRED_FEATURES = ("query_vertices", "query_edges", "query_labels", "max_degree")


class HistoryError(ValueError):
    """A history record or file that violates the schema."""


class QueryHistory:
    """Durable per-request telemetry log with shift rotation.

    Thread-safe: the service appends from its scheduler and retry-timer
    threads concurrently.  The file handle is opened lazily on first
    append so constructing a service with a history path has no
    filesystem effect until traffic arrives.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 4_000_000,
        keep: int = 2,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if keep < 0:
            raise ValueError("keep must be >= 0")
        self.path = path
        self.max_bytes = max_bytes
        self.keep = keep
        self.appended = 0
        self.rotations = 0
        self._handle = None
        self._bytes = 0
        self._closed = False
        self._lock = threading.Lock()

    # -- write path --------------------------------------------------
    def append(self, record: Dict) -> Dict:
        """Stamp the schema version, write one line, rotate if the
        active segment is over budget.  Returns the stamped record."""
        stamped = {"schema": HISTORY_SCHEMA, **record}
        line = json.dumps(stamped, sort_keys=True) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._closed:
                raise HistoryError(f"history store {self.path} is closed")
            if self._handle is None:
                self._open()
            self._handle.write(line)
            self._handle.flush()
            self._bytes += len(data)
            self.appended += 1
            if self._bytes > self.max_bytes:
                self._rotate()
        return stamped

    def _open(self) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = os.path.getsize(self.path)

    def _rotate(self) -> None:
        """Shift ``path`` → ``path.1`` → … keeping ``keep`` segments."""
        self._handle.close()
        self._handle = None
        if self.keep == 0:
            os.remove(self.path)
        else:
            overflow = f"{self.path}.{self.keep}"
            if os.path.exists(overflow):
                os.remove(overflow)
            for i in range(self.keep - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
        self.rotations += 1
        self._bytes = 0

    # -- lifecycle ---------------------------------------------------
    def close(self) -> None:
        """Terminal: a closed store refuses further appends (a stray
        late append must not resurrect the file after shutdown)."""
        with self._lock:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "QueryHistory":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- read path ---------------------------------------------------
    def segments(self) -> List[str]:
        """Existing on-disk segments, oldest first."""
        found = [
            f"{self.path}.{i}"
            for i in range(self.keep, 0, -1)
            if os.path.exists(f"{self.path}.{i}")
        ]
        if os.path.exists(self.path):
            found.append(self.path)
        return found

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "appended": self.appended,
                "rotations": self.rotations,
                "active_bytes": self._bytes,
            }


# ---------------------------------------------------------------------------
# Validation / reading
# ---------------------------------------------------------------------------
def validate_history_record(record: Dict) -> Dict:
    """Raise :class:`HistoryError` unless ``record`` is a well-formed
    schema-1 history record; returns it unchanged for chaining."""
    if not isinstance(record, dict):
        raise HistoryError("history record must be an object")
    if record.get("schema") != HISTORY_SCHEMA:
        raise HistoryError(
            f"unsupported history schema {record.get('schema')!r} "
            f"(expected {HISTORY_SCHEMA})"
        )
    if not isinstance(record.get("signature"), str) or not record["signature"]:
        raise HistoryError("history record missing query signature")
    if not isinstance(record.get("request_id"), int):
        raise HistoryError("history record missing integer request_id")
    if not isinstance(record.get("status"), str) or not record["status"]:
        raise HistoryError("history record missing status")
    features = record.get("features")
    if not isinstance(features, dict):
        raise HistoryError("features must be an object")
    for key in _REQUIRED_FEATURES:
        if not isinstance(features.get(key), int):
            raise HistoryError(f"features.{key} must be an integer")
    for field in ("phase_seconds", "counters"):
        mapping = record.get(field)
        if not isinstance(mapping, dict):
            raise HistoryError(f"{field} must be an object")
        for key, value in mapping.items():
            if not isinstance(value, (int, float)):
                raise HistoryError(f"{field}[{key!r}] must be a number")
    for field in ("latency_seconds", "service_seconds"):
        value = record.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            raise HistoryError(f"{field} must be a non-negative number")
    return record


def read_history(
    path: str, validate: bool = True, keep: int = 8
) -> List[Dict]:
    """Read records from ``path`` and any rotated segments next to it,
    oldest first, validating each unless ``validate`` is False."""
    files = [
        f"{path}.{i}" for i in range(keep, 0, -1) if os.path.exists(f"{path}.{i}")
    ]
    if os.path.exists(path):
        files.append(path)
    if not files:
        raise HistoryError(f"{path}: no history segments found")
    records: List[Dict] = []
    for name in files:
        with open(name, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise HistoryError(f"{name}:{lineno}: not UTF-8 ({exc})")
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise HistoryError(f"{name}:{lineno}: invalid JSON ({exc})")
                if validate:
                    try:
                        validate_history_record(record)
                    except HistoryError as exc:
                        raise HistoryError(f"{name}:{lineno}: {exc}")
                records.append(record)
    return records
