"""JSON-lines protocol tests for ``repro serve``'s front end.

Drives :func:`repro.service.server.serve` directly over StringIO
streams — no subprocess — covering request decoding (labels, limits,
budget axes, kernel and id echo), response encoding, the metrics and
shutdown control lines, and the resilience contract: malformed input
yields a ``failed`` line and the loop keeps serving.
"""

from __future__ import annotations

import io
import json
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph
from repro.service import MatchService, serve
from repro.service.server import (
    query_from_json,
    request_from_json,
    response_to_json,
)
from repro.service.request import MatchResponse, Status


DATA = Graph(
    5,
    [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
)

TRIANGLE_LINE = {"query": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}}


def _serve_lines(lines: List[Dict], **service_kwargs) -> List[Dict]:
    """Feed request lines through one service; parsed response lines."""
    payload = "\n".join(json.dumps(line) for line in lines) + "\n"
    out = io.StringIO()
    with MatchService(DATA, workers=2, **service_kwargs) as service:
        serve(service, io.StringIO(payload), out)
    return [json.loads(raw) for raw in out.getvalue().splitlines()]


def test_basic_match_roundtrip():
    [response] = _serve_lines([{**TRIANGLE_LINE, "id": 7}])
    assert response["id"] == 7
    assert response["status"] == Status.OK
    assert response["count"] == len(response["embeddings"])
    assert response["cache"] == "miss"
    got = {tuple(e) for e in response["embeddings"]}
    assert got == {(0, 1, 2), (2, 3, 4)}


def test_limit_and_embedding_suppression():
    responses = _serve_lines([
        {**TRIANGLE_LINE, "limit": 1},
        {**TRIANGLE_LINE, "embeddings": False},
    ])
    assert responses[0]["count"] == 1
    assert len(responses[0]["embeddings"]) == 1
    assert responses[1]["count"] == 2
    assert "embeddings" not in responses[1]


def test_budget_line_truncates():
    [response] = _serve_lines([{**TRIANGLE_LINE, "max_embeddings": 1}])
    assert response["status"] == Status.TRUNCATED
    assert response["truncated"] and response["count"] == 1
    assert response["stop_reason"]


def test_malformed_lines_do_not_kill_the_loop():
    payload = "\n".join([
        "this is not json",
        json.dumps({"query": {"n": "three", "edges": []}, "id": 1}),
        json.dumps({"query": {"n": 2, "edges": [[0, 1]],
                              "labels": ["x", "x"]}, "id": 2}),
        json.dumps({**TRIANGLE_LINE, "id": 3}),
    ]) + "\n"
    out = io.StringIO()
    with MatchService(DATA, workers=2) as service:
        handled = serve(service, io.StringIO(payload), out)
    responses = [json.loads(raw) for raw in out.getvalue().splitlines()]
    assert len(responses) == 4
    assert responses[0]["status"] == Status.FAILED  # not JSON
    assert responses[1]["status"] == Status.FAILED  # bad vertex count
    assert responses[1]["id"] == 1
    # Line 3 is well-formed but unsatisfiable (DATA is unlabeled).
    assert responses[2]["status"] == Status.OK
    assert responses[2]["count"] == 0
    assert responses[3]["status"] == Status.OK and responses[3]["count"] == 2
    assert handled == 2  # only decodable match requests are counted


def test_metrics_and_shutdown_control_lines():
    payload = "\n".join([
        json.dumps(TRIANGLE_LINE),
        json.dumps({"cmd": "metrics"}),
        json.dumps({"cmd": "shutdown"}),
        json.dumps(TRIANGLE_LINE),  # after shutdown: never served
    ]) + "\n"
    out = io.StringIO()
    with MatchService(DATA, workers=2) as service:
        handled = serve(service, io.StringIO(payload), out)
    responses = [json.loads(raw) for raw in out.getvalue().splitlines()]
    assert handled == 1
    assert len(responses) == 2
    metrics_line = responses[1]
    assert metrics_line["cmd"] == "metrics"
    assert metrics_line["metrics"]["metrics"]["service_requests_total"] == {
        Status.OK: 1
    }
    assert metrics_line["index_cache"]["misses"] == 1


def test_query_decoding_errors():
    with pytest.raises(ValueError):
        query_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        query_from_json({"edges": []})
    query = query_from_json(
        {"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]}
    )
    assert query.num_vertices == 2 and query.labels_of(1) == {"b"}


def test_request_decoding_budget_axes():
    request = request_from_json({
        "query": {"n": 2, "edges": [[0, 1]]},
        "deadline_seconds": 5.0,
        "max_calls": 10,
        "id": 42,
        "kernel": "merge",  # retired knob: ignored like any unknown key
    })
    assert request.request_id == 42
    assert request.budget is not None and request.solo
    plain = request_from_json({"query": {"n": 2, "edges": [[0, 1]]}})
    assert plain.budget is None and not plain.solo


def test_response_encoding_is_json_clean():
    response = MatchResponse(
        request_id=1, status=Status.OK, embeddings=[(0, 1)], cache="hit"
    )
    encoded = response_to_json(response)
    json.dumps(encoded)  # must not raise on any field
    assert encoded["embeddings"] == [[0, 1]]
    assert response_to_json(response, include_embeddings=False).get(
        "embeddings"
    ) is None


def test_phase_seconds_on_the_wire():
    # Clients get the build-vs-enumerate split without server logs.
    [response] = _serve_lines([TRIANGLE_LINE])
    phases = response["phase_seconds"]
    assert isinstance(phases, dict) and phases
    assert all(
        isinstance(v, float) and v >= 0.0 for v in phases.values()
    )
    assert {"filter", "enumerate"} <= set(phases)


def test_op_metrics_is_live_and_folded():
    responses = _serve_lines(
        [TRIANGLE_LINE, {"op": "metrics"}],
        fold_request_stats=True,
    )
    line = responses[1]
    assert line["op"] == "metrics"
    metrics = line["metrics"]["metrics"]
    assert metrics["service_requests_total"] == {Status.OK: 1}
    # The continuous fold carries enumeration counters, and the
    # scrape-time gauges ride along with the snapshot.
    assert metrics["recursive_calls"] > 0
    assert "service_healthy_workers" in metrics
    assert line["scheduler"]["popped"] >= 1
    assert line["index_cache"]["misses"] == 1


def test_op_flight_dump_and_filters():
    from repro.observability import validate_flight_record

    responses = _serve_lines(
        [
            {**TRIANGLE_LINE, "id": 1},
            {**TRIANGLE_LINE, "id": 2},
            {"op": "flight"},
            {"op": "flight", "id": 2},
            {"op": "flight", "limit": 1},
        ],
        flight_records=8,
    )
    full, by_id, limited = responses[2], responses[3], responses[4]
    assert full["op"] == "flight" and full["enabled"] is True
    assert full["count"] == 2
    for record in full["records"]:
        validate_flight_record(record)
        assert record["finished"] is True
        assert record["status"] == Status.OK
    assert by_id["count"] == 1
    assert by_id["records"][0]["request_id"] == 2
    # limit keeps the most recent record.
    assert limited["count"] == 1
    assert limited["records"][0]["request_id"] == 2


def test_op_flight_disabled_hint():
    [response] = _serve_lines([{"op": "flight"}])
    assert response["enabled"] is False
    assert response["records"] == []
    assert "--flight-records" in response["error"]


def test_lines_that_do_not_decode_answer_failed_and_serving_continues():
    payload = "\n".join([
        json.dumps([1, 2]),
        json.dumps(5),
        json.dumps("x"),
        json.dumps(None),
        json.dumps({"op": "flight", "id": "abc"}),
        json.dumps({"op": "flight", "limit": [1]}),
        json.dumps({"op": "flight", "id": float("inf")}),
        json.dumps({**TRIANGLE_LINE, "id": float("inf")}),
        "[" * 100_000,
        # A vertex count no edge list can connect is refused before the
        # graph allocates it.
        json.dumps({"query": {"n": 10**12, "edges": []}, "id": 4}),
        json.dumps({**TRIANGLE_LINE, "id": 5}),
    ]) + "\n"
    out = io.StringIO()
    with MatchService(DATA, workers=2, flight_records=4) as service:
        handled = serve(service, io.StringIO(payload), out)
    responses = [json.loads(raw) for raw in out.getvalue().splitlines()]
    assert len(responses) == 11
    assert all(r["status"] == Status.FAILED for r in responses[:-1])
    errors = [r["error"] for r in responses]
    assert all("TypeError" in e for e in errors[:4])
    assert "ValueError" in errors[4] and "TypeError" in errors[5]
    assert "OverflowError" in errors[6] and "OverflowError" in errors[7]
    assert "recursion" in errors[8]
    assert responses[9]["id"] == 4 and "connected" in errors[9]
    assert responses[-1]["status"] == Status.OK
    assert responses[-1]["id"] == 5 and responses[-1]["count"] == 2
    assert handled == 1


#: JSON values whose object keys are often the protocol's own, so drawn
#: lines reach every decoder (query, budget axes, control verbs).
_PROTOCOL_KEYS = st.sampled_from([
    "query", "n", "edges", "labels", "id", "limit", "op", "cmd",
    "embeddings", "deadline_seconds", "service_deadline_seconds",
    "max_calls", "max_embeddings", "max_memory_bytes",
    "break_automorphisms",
])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["metrics", "flight"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        _PROTOCOL_KEYS | st.text(max_size=6), children, max_size=5
    ),
    max_leaves=16,
).filter(
    # A shutdown line is the one line answered by no reply.
    lambda line: not (
        isinstance(line, dict)
        and "shutdown" in (line.get("cmd"), line.get("op"))
    )
)


@pytest.fixture(scope="module")
def fuzz_service():
    with MatchService(DATA, workers=2, flight_records=4) as service:
        yield service


@settings(max_examples=150, deadline=None)
@given(line=_JSON_VALUES)
def test_any_json_line_gets_one_reply_and_serving_continues(
    fuzz_service, line
):
    payload = json.dumps(line) + "\n" + json.dumps(
        {**TRIANGLE_LINE, "id": 9}
    ) + "\n"
    out = io.StringIO()
    serve(fuzz_service, io.StringIO(payload), out)
    replies = [json.loads(raw) for raw in out.getvalue().splitlines()]
    assert len(replies) == 2, replies
    assert replies[1]["status"] == Status.OK and replies[1]["id"] == 9
