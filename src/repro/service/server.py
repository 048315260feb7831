"""JSON-lines front end for the resident service (``repro serve``).

One request per input line, one response per output line — the shape a
driver script, a socket shim, or an interactive session can all speak
without a dependency on any RPC framework:

Request lines::

    {"query": {"n": 3, "edges": [[0,1],[1,2],[0,2]],
               "labels": [["a"], ["a"], ["b"]]},
     "limit": 10, "deadline_seconds": 1.0,
     "embeddings": true, "id": 7}

``labels`` is optional (unlabeled queries), as are every knob and the
``id`` echo.  ``deadline_seconds`` is the enumeration *budget* deadline
(a tripped budget returns a ``truncated`` prefix);
``service_deadline_seconds`` is the end-to-end service deadline covering
queue wait + index build + matching (an expired one returns ``timeout``
with no embeddings).  Control lines use either the legacy ``cmd`` key or
the ``op`` key (one verb per line, same vocabulary):

* ``{"cmd": "metrics"}`` — drain, then print the metrics/cache
  snapshot (the historical, deterministic form);
* ``{"op": "metrics"}`` — the *live* snapshot, without draining:
  scrape-time gauges (in-flight, queue depth, healthy workers) reflect
  this instant, which is the point of an in-band health query;
* ``{"op": "flight", "id": 7, "limit": 10}`` — dump retained flight
  records (both filters optional; requires ``--flight-records``);
* ``{"cmd"|"op": "shutdown"}`` — drain and stop the loop
  (end-of-input does the same).

Response lines mirror :class:`~repro.service.request.MatchResponse`::

    {"id": 7, "status": "ok", "count": 2, "embeddings": [[0,1,2], ...],
     "cache": "hit", "truncated": false, "stop_reason": null,
     "latency_seconds": ..., "service_seconds": ..., "retries": 0}

A malformed line yields ``{"status": "failed", "error": ...}`` instead
of killing the loop — a resident service must outlive bad input.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, TextIO

from ..graph import Graph
from ..resilience.budget import Budget
from .request import MatchRequest, MatchResponse, Status
from .service import MatchService

__all__ = ["query_from_json", "response_to_json", "serve"]


def query_from_json(payload: Dict) -> Graph:
    """Build the query graph from a request's ``query`` object."""
    if not isinstance(payload, dict):
        raise ValueError("query must be an object")
    n = payload.get("n")
    if not isinstance(n, int):
        raise ValueError("query.n (vertex count) must be an integer")
    edges = [
        (int(s), int(d)) for s, d in payload.get("edges", [])
    ]
    labels = payload.get("labels")
    return Graph(n, edges, labels)


def _budget_from_json(line: Dict) -> Optional[Budget]:
    axes = {
        "deadline_seconds": line.get("deadline_seconds"),
        "max_calls": line.get("max_calls"),
        "max_embeddings": line.get("max_embeddings"),
        "max_memory_bytes": line.get("max_memory_bytes"),
    }
    if all(value is None for value in axes.values()):
        return None
    return Budget(**axes)


def request_from_json(line: Dict) -> MatchRequest:
    """Decode one request line (raises ``ValueError``/``KeyError`` on
    malformed input — the loop turns those into ``failed`` lines)."""
    kwargs = {}
    if line.get("id") is not None:
        kwargs["request_id"] = int(line["id"])
    deadline = line.get("service_deadline_seconds")
    return MatchRequest(
        query=query_from_json(line["query"]),
        limit=line.get("limit"),
        budget=_budget_from_json(line),
        break_automorphisms=bool(line.get("break_automorphisms", True)),
        deadline_seconds=float(deadline) if deadline is not None else None,
        **kwargs,
    )


def response_to_json(
    response: MatchResponse, include_embeddings: bool = True
) -> Dict:
    """One response as a JSON-ready dict."""
    out: Dict = {
        "id": response.request_id,
        "status": response.status,
        "count": response.count,
        "truncated": response.truncated,
        "stop_reason": response.stop_reason,
        "cache": response.cache,
        "latency_seconds": response.latency_seconds,
        "service_seconds": response.service_seconds,
        "retries": response.retries,
        "error": response.error,
        # Build-vs-enumerate time, client-visible without server logs.
        "phase_seconds": dict(response.stats.phase_seconds),
    }
    if response.shard_fanout is not None:
        # Only the sharded tier stamps fan-out; single-process responses
        # keep their historical wire shape byte-for-byte.
        out["shards"] = response.shard_fanout
    if include_embeddings:
        out["embeddings"] = [
            [int(v) for v in embedding] for embedding in response.embeddings
        ]
    return out


def serve(
    service: MatchService,
    in_stream: TextIO,
    out_stream: TextIO,
) -> int:
    """Run the request/response loop until shutdown or end-of-input.
    Returns the number of match requests handled."""
    handled = 0
    for raw in in_stream:
        raw = raw.strip()
        if not raw:
            continue
        try:
            line = json.loads(raw)
        except json.JSONDecodeError as exc:
            _emit(out_stream, {"status": Status.FAILED, "error": str(exc)})
            continue
        command = None
        key = None
        if isinstance(line, dict):
            for key in ("cmd", "op"):
                if line.get(key) is not None:
                    command = line[key]
                    break
        if command == "shutdown":
            break
        if command == "metrics":
            if key == "cmd":
                # Legacy form: deterministic post-drain snapshot.
                service.drain()
            _emit(out_stream, {key: "metrics", **service.snapshot()})
            continue
        if command == "flight":
            records = service.flight_records(
                request_id=(
                    int(line["id"]) if line.get("id") is not None else None
                ),
                limit=(
                    int(line["limit"])
                    if line.get("limit") is not None
                    else None
                ),
            )
            payload: Dict = {
                key: "flight",
                "enabled": service.flight is not None,
                "count": len(records),
                "records": records,
            }
            if service.flight is None:
                payload["error"] = (
                    "flight recorder disabled (start the service with "
                    "flight_records > 0 / --flight-records)"
                )
            _emit(out_stream, payload)
            continue
        try:
            request = request_from_json(line)
        except (ValueError, KeyError, TypeError) as exc:
            _emit(out_stream, {
                "id": line.get("id") if isinstance(line, dict) else None,
                "status": Status.FAILED,
                "error": f"bad request: {exc}",
            })
            continue
        response = service.match(request)
        handled += 1
        _emit(
            out_stream,
            response_to_json(
                response,
                include_embeddings=bool(line.get("embeddings", True)),
            ),
        )
    return handled


def _emit(out_stream: TextIO, payload: Dict) -> None:
    out_stream.write(json.dumps(payload) + "\n")
    out_stream.flush()
