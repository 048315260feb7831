"""Service telemetry tests (DESIGN.md §13).

Four subsystems, one acceptance bar:

* the **flight recorder** — bounded ring of per-request lifecycle
  records; every response the service hands back must have a terminal
  flight record that *agrees* with it (status, cache tier, retries),
  including under injected chaos;
* the **query-history store** — append-only, size-rotated JSONL of
  per-query features + observed phase costs that must round-trip its
  own schema validation;
* the **slow-query log** — flight-shaped JSONL records for requests
  past the ``slow_ms`` threshold, renderable by ``repro explain``;
* the **metrics exporter** — a stdlib HTTP endpoint serving the live
  registry as Prometheus text while requests are in flight.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.matcher import CECIMatcher
from repro.graph import Graph, inject_labels
from repro.graph.generators import power_law
from repro.observability import (
    FLIGHT_SCHEMA,
    FlightError,
    FlightRecorder,
    HISTORY_SCHEMA,
    HistoryError,
    MetricsExporter,
    MetricsRegistry,
    QueryHistory,
    load_flight_records,
    read_history,
    render_explain,
    render_flight,
    validate_flight_record,
    validate_history_record,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RetryPolicy
from repro.service import (
    MatchRequest,
    MatchService,
    ShardedMatchService,
    Status,
    generate_workload,
    serve,
)

DATA = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------------------
# FlightRecorder unit behaviour
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for request_id in range(1, 6):
            recorder.begin(request_id).finish({"status": "ok"})
        assert len(recorder) == 3
        assert recorder.evicted == 2
        kept = [r["request_id"] for r in recorder.records()]
        assert kept == [3, 4, 5]  # oldest-first, 1 and 2 evicted
        assert recorder.find(1) is None
        assert recorder.find(5)["status"] == "ok"

    def test_limit_keeps_most_recent(self):
        recorder = FlightRecorder(capacity=8)
        for request_id in range(1, 6):
            recorder.begin(request_id)
        kept = [r["request_id"] for r in recorder.records(limit=2)]
        assert kept == [4, 5]

    def test_request_id_filter(self):
        recorder = FlightRecorder(capacity=8)
        recorder.begin(1)
        recorder.begin(2)
        recorder.begin(1)  # a retry-style duplicate id
        assert len(recorder.records(request_id=1)) == 2
        assert recorder.records(request_id=99) == []

    def test_finish_is_first_call_wins(self):
        record = FlightRecorder(capacity=2).begin(7)
        record.finish({"status": "ok", "retries": 1})
        record.finish({"status": "crashed", "retries": 9})
        out = record.as_dict()
        assert out["status"] == "ok" and out["retries"] == 1
        assert out["finished"] is True

    def test_events_carry_relative_timestamps(self):
        record = FlightRecorder(capacity=2).begin(1)
        record.event("admit", outcome="admitted")
        record.event("final", status="ok")
        events = record.as_dict()["events"]
        assert [e["ev"] for e in events] == ["admit", "final"]
        assert all(e["t"] >= 0 for e in events)
        assert events[0]["t"] <= events[1]["t"]
        assert events[0]["outcome"] == "admitted"

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestFlightValidation:
    def _minimal(self):
        record = FlightRecorder(capacity=1).begin(3)
        record.event("admit")
        record.finish({"status": "ok"})
        return record.as_dict()

    def test_minimal_record_validates(self):
        validate_flight_record(self._minimal())

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: r.update(schema=99), "schema"),
        (lambda r: r.update(request_id="3"), "request_id"),
        (lambda r: r.update(status=7), "status"),
        (lambda r: r.update(events={}), "events"),
        (lambda r: r["events"].append({"t": 0.0}), "ev"),
        (lambda r: r["events"].append({"ev": "x", "t": -1.0}), "t must"),
        (lambda r: r.update(phase_seconds={"enumerate": "fast"}), "number"),
        (lambda r: r.update(counters=[1, 2]), "counters"),
        (lambda r: r.update(plan=[1]), "plan"),
    ])
    def test_rejections(self, mutate, message):
        record = self._minimal()
        mutate(record)
        with pytest.raises(FlightError, match=message):
            validate_flight_record(record)

    def test_not_an_object(self):
        with pytest.raises(FlightError):
            validate_flight_record([1, 2])


class TestFlightFiles:
    def test_loads_dump_lines_and_plain_jsonl(self, tmp_path):
        record = FlightRecorder(capacity=1).begin(1)
        record.finish({"status": "ok"})
        dump = {"op": "flight", "records": [record.as_dict()]}
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps(dump) + "\n" + json.dumps(record.as_dict()) + "\n"
        )
        records = load_flight_records(str(path))
        assert len(records) == 2
        assert all(r["request_id"] == 1 for r in records)

    def test_empty_and_malformed_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(FlightError, match="empty"):
            load_flight_records(str(empty))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(FlightError, match="invalid JSON"):
            load_flight_records(str(bad))

    def test_renderers_smoke(self):
        record = FlightRecorder(capacity=1).begin(12)
        record.event("admit", outcome="admitted")
        record.event("final", status="ok")
        record.finish({
            "status": "ok", "cache": "hit", "latency_seconds": 0.004,
            "service_seconds": 0.003,
            "plan": {"root": 0, "root_candidates": 5, "root_score": 2.5,
                     "order": [0, 1], "level_candidates": [[0, 5], [1, 3]],
                     "clusters": 5, "cardinality_bound": 15},
            "phase_seconds": {"enumerate": 0.003},
            "counters": {"recursive_calls": 9},
        })
        flight_text = render_flight(record.as_dict())
        assert "request 12" in flight_text
        assert "admit" in flight_text and "root 0" in flight_text
        assert "recursive_calls=9" in flight_text
        explain_text = render_explain(record.as_dict())
        assert "request 12" in explain_text
        assert explain_text.index("plan") < explain_text.index("lifecycle")


# ---------------------------------------------------------------------------
# QueryHistory store
# ---------------------------------------------------------------------------
def _history_record(request_id: int = 1, signature: str = "sig-a") -> dict:
    return {
        "request_id": request_id,
        "signature": signature,
        "status": "ok",
        "cache": "miss",
        "retries": 0,
        "latency_seconds": 0.01,
        "service_seconds": 0.009,
        "features": {
            "query_vertices": 3, "query_edges": 3,
            "query_labels": 1, "max_degree": 2,
        },
        "phase_seconds": {"enumerate": 0.005},
        "counters": {"recursive_calls": 11},
    }


class TestQueryHistory:
    def test_append_stamps_schema_and_round_trips(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        with QueryHistory(path) as history:
            stamped = history.append(_history_record())
            assert stamped["schema"] == HISTORY_SCHEMA
        records = read_history(path)
        assert len(records) == 1
        validate_history_record(records[0])

    def test_rotation_keeps_bounded_segments(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        with QueryHistory(path, max_bytes=400, keep=2) as history:
            for i in range(40):
                history.append(_history_record(request_id=i))
            snap = history.snapshot()
            segments = history.segments()
        assert snap["appended"] == 40
        assert snap["rotations"] >= 2
        assert len(segments) <= 3  # active + keep=2 rotated
        # Rotated-out records are dropped, survivors read oldest-first.
        records = read_history(path)
        ids = [r["request_id"] for r in records]
        assert ids == sorted(ids)
        assert ids[-1] == 39
        for record in records:
            validate_history_record(record)

    def test_append_after_close_raises(self, tmp_path):
        history = QueryHistory(str(tmp_path / "history.jsonl"))
        history.append(_history_record())
        history.close()
        with pytest.raises(HistoryError):
            history.append(_history_record())

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: r.update(schema=0), "schema"),
        (lambda r: r.update(signature=""), "signature"),
        (lambda r: r.pop("signature"), "signature"),
        (lambda r: r.update(request_id=None), "request_id"),
        (lambda r: r.update(status=1), "status"),
        (lambda r: r["features"].pop("max_degree"), "max_degree"),
        (lambda r: r["features"].update(query_edges="many"), "query_edges"),
        (lambda r: r.update(latency_seconds=-1), "latency_seconds"),
        (lambda r: r.update(phase_seconds={"x": None}), "number"),
    ])
    def test_rejections(self, mutate, message):
        record = {"schema": HISTORY_SCHEMA, **_history_record()}
        mutate(record)
        with pytest.raises(HistoryError, match=message):
            validate_history_record(record)

    def test_concurrent_appends_all_land(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        with QueryHistory(path) as history:
            threads = [
                threading.Thread(target=lambda i=i: [
                    history.append(_history_record(request_id=i * 100 + j))
                    for j in range(25)
                ])
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        records = read_history(path)
        assert len(records) == 100
        # Interleaved writers must never tear a JSON line.
        assert len({r["request_id"] for r in records}) == 100


# ---------------------------------------------------------------------------
# Untrusted telemetry files: every truncation and seeded byte flips
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_telemetry(tmp_path_factory):
    """The bytes of a history file and of a flight dump line written by
    the serve loop over three requests."""
    root = tmp_path_factory.mktemp("served")
    history = root / "history.jsonl"
    request = {"query": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}}
    lines = [{**request, "id": i} for i in (1, 2, 3)] + [{"op": "flight"}]
    out = io.StringIO()
    with MatchService(
        DATA, workers=2, flight_records=8, history=str(history)
    ) as service:
        serve(
            service,
            io.StringIO("".join(json.dumps(line) + "\n" for line in lines)),
            out,
        )
    dump = out.getvalue().splitlines()[-1] + "\n"
    return history.read_bytes(), dump.encode("utf-8")


def _load_or_typed_error(path, blob: bytes, loader, error):
    """Write ``blob`` to ``path`` and load it: the records, or None when
    the loader raised its typed error."""
    path.write_bytes(blob)
    try:
        return loader(str(path))
    except error:
        return None


_TELEMETRY_READERS = {
    "history": (read_history, HistoryError, 0),
    "flight": (load_flight_records, FlightError, 1),
}


class TestTelemetryFileFuzz:
    """``read_history`` and ``load_flight_records`` on damaged files:
    each either loads records or raises its own typed error."""

    @pytest.mark.parametrize("kind", sorted(_TELEMETRY_READERS))
    def test_every_truncation_loads_a_prefix_or_raises_typed(
        self, kind, served_telemetry, tmp_path
    ):
        loader, error, which = _TELEMETRY_READERS[kind]
        blob = served_telemetry[which]
        path = tmp_path / "file"
        full = _load_or_typed_error(path, blob, loader, error)
        assert full is not None and len(full) == 3
        for cut in range(len(blob)):
            loaded = _load_or_typed_error(path, blob[:cut], loader, error)
            if loaded is not None:
                assert loaded == full[: len(loaded)], cut

    @pytest.mark.parametrize("kind", sorted(_TELEMETRY_READERS))
    def test_seeded_byte_flips_load_or_raise_typed(
        self, kind, served_telemetry, tmp_path
    ):
        loader, error, which = _TELEMETRY_READERS[kind]
        blob = served_telemetry[which]
        path = tmp_path / "file"
        rng = random.Random(26)
        for _ in range(400):
            mutated = bytearray(blob)
            mutated[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
            loaded = _load_or_typed_error(path, bytes(mutated), loader, error)
            # One flipped byte cannot add or drop a record without
            # breaking the JSON around it.
            assert loaded is None or len(loaded) == 3

    @pytest.mark.parametrize("kind", sorted(_TELEMETRY_READERS))
    def test_undecodable_tail_raises_typed_error(
        self, kind, served_telemetry, tmp_path
    ):
        loader, error, which = _TELEMETRY_READERS[kind]
        path = tmp_path / "file"
        # A file cut in the middle of a multi-byte UTF-8 sequence.
        path.write_bytes(served_telemetry[which] + "\u20ac".encode()[:2])
        with pytest.raises(error, match=str(path)):
            loader(str(path))


@pytest.fixture(scope="module")
def rotated_history(tmp_path_factory):
    """A history whose active file has rotated twice, so ``path.1`` and
    ``path.2`` hold older records; returns the path and every
    segment's bytes."""
    path = tmp_path_factory.mktemp("rotated") / "history.jsonl"
    with QueryHistory(str(path), max_bytes=600, keep=2) as history:
        request_id = 0
        while history.rotations < 2 or not path.exists():
            history.append(_history_record(request_id=request_id))
            request_id += 1
    segments = {
        name: (path.parent / name).read_bytes()
        for name in ("history.jsonl", "history.jsonl.1", "history.jsonl.2")
    }
    return path, segments, len(read_history(str(path)))


class TestRotatedHistoryFuzz:
    """``read_history`` over damaged rotated segments: every truncation
    and 1-4 byte flips of ``path.1`` or ``path.2`` either read back as
    records or raise :class:`HistoryError`, never another exception."""

    @staticmethod
    def _read(path, segments, name, blob):
        for other, data in segments.items():
            (path.parent / other).write_bytes(blob if other == name else data)
        try:
            return read_history(str(path))
        except HistoryError:
            return None

    @pytest.mark.parametrize("name", ["history.jsonl.1", "history.jsonl.2"])
    def test_every_truncation(self, rotated_history, name):
        path, segments, count = rotated_history
        blob = segments[name]
        full = self._read(path, segments, name, blob)
        assert full is not None and len(full) == count
        for cut in range(len(blob)):
            self._read(path, segments, name, blob[:cut])

    @pytest.mark.parametrize("name", ["history.jsonl.1", "history.jsonl.2"])
    def test_seeded_byte_flips(self, rotated_history, name):
        path, segments, _ = rotated_history
        blob = segments[name]
        rng = random.Random(31)
        for _ in range(500):
            mutated = bytearray(blob)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
            self._read(path, segments, name, bytes(mutated))


# ---------------------------------------------------------------------------
# HTTP exporter
# ---------------------------------------------------------------------------
def _get(url: str) -> tuple:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


class TestMetricsExporter:
    def test_serves_live_registry(self):
        from repro.observability import MetricSpec

        registry = MetricsRegistry([
            MetricSpec(
                "service_requests_total", labeled=True, label_name="status"
            ),
        ])
        registry.inc("service_requests_total", 3, label="ok")
        with MetricsExporter(lambda: registry, port=0) as exporter:
            status, text = _get(exporter.url)
            assert status == 200
            assert 'repro_service_requests_total{status="ok"} 3' in text
            # The provider is consulted per scrape: updates are live.
            registry.inc("service_requests_total", 2, label="ok")
            _, text = _get(exporter.url)
            assert 'repro_service_requests_total{status="ok"} 5' in text
            status, body = _get(exporter.url.replace("/metrics", "/healthz"))
            assert (status, body.strip()) == (200, "ok")
            status, body = _get(exporter.url + ".json")
            assert status == 200
            assert json.loads(body)["schema"] == 1

    def test_unknown_path_404_provider_error_500(self):
        calls = {"n": 0}

        def provider():
            calls["n"] += 1
            raise RuntimeError("registry exploded")

        with MetricsExporter(provider, port=0) as exporter:
            base = exporter.url.rsplit("/", 1)[0]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/nope")
            assert excinfo.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(exporter.url)
            assert excinfo.value.code == 500
        assert calls["n"] == 1


# ---------------------------------------------------------------------------
# Service integration: every response has an agreeing flight record
# ---------------------------------------------------------------------------
def _service(executor: str, width: int = 2, **kwargs):
    """A service over DATA on ``executor`` ("threads" or "shards") with
    ``width`` workers."""
    if executor == "shards":
        return ShardedMatchService(DATA, shards=width, **kwargs)
    return MatchService(DATA, workers=width, **kwargs)


class TestServiceTelemetry:
    """Telemetry lives in the front end, so every test here must hold
    on either executor; :class:`TestShardedServiceTelemetry` re-runs
    them all on the shard executor."""

    executor = "threads"

    def _telemetry_service(self, tmp_path, **kwargs):
        defaults = dict(
            flight_records=64,
            history=str(tmp_path / "history.jsonl"),
            slow_ms=0.0,
            slow_log=str(tmp_path / "slow.jsonl"),
            fold_request_stats=True,
        )
        defaults.update(kwargs)
        return _service(self.executor, **defaults)

    def test_flight_record_agrees_with_response(self, tmp_path):
        with self._telemetry_service(tmp_path) as service:
            cold = service.match(MatchRequest(TRIANGLE))
            warm = service.match(MatchRequest(TRIANGLE, limit=1))
            records = service.flight_records()
        assert len(records) == 2
        by_id = {r["request_id"]: r for r in records}
        for response, expected_cache in ((cold, "miss"), (warm, "hit")):
            record = by_id[response.request_id]
            validate_flight_record(record)
            assert record["finished"] is True
            assert record["status"] == response.status == Status.OK
            assert record["cache"] == response.cache == expected_cache
            assert record["retries"] == response.retries
            assert record["latency_seconds"] == pytest.approx(
                response.latency_seconds
            )
            kinds = [e["ev"] for e in record["events"]]
            assert kinds[0] == "admit" and kinds[-1] == "final"
            assert "index" in kinds and "planned" in kinds

    def test_flight_record_carries_phases_counters_signature_plan(
        self, tmp_path
    ):
        with self._telemetry_service(tmp_path) as service:
            responses = [
                service.match(MatchRequest(TRIANGLE)),
                service.match(MatchRequest(TRIANGLE, limit=1)),
            ]
            records = {r["request_id"]: r for r in service.flight_records()}
        for response in responses:
            record = records[response.request_id]
            validate_flight_record(record)
            assert record["phase_seconds"]["enumerate"] > 0
            assert record["phase_seconds"] == response.stats.phase_seconds
            counters = {
                name: value
                for name, value in dataclasses.asdict(response.stats).items()
                if name != "phase_seconds" and value
            }
            assert counters["recursive_calls"] > 0
            assert record["counters"] == counters
            assert isinstance(record["signature"], str)
            assert record["signature"]
            assert record["plan"]["root"] in range(3)

    def test_plan_facts_present_for_miss_and_hit(self, tmp_path):
        with self._telemetry_service(tmp_path) as service:
            service.match(MatchRequest(TRIANGLE))
            service.match(MatchRequest(TRIANGLE))
            records = service.flight_records()
        for record in records:
            plan = record["plan"]
            assert plan["root"] in range(3)
            assert plan["order"] and len(plan["order"]) == 3
            assert plan["cardinality_bound"] >= plan["root_candidates"] > 0
            assert len(plan["level_candidates"]) == 3

    def test_rejected_requests_are_recorded(self, tmp_path):
        gate = threading.Event()
        entered = threading.Event()
        with self._telemetry_service(
            tmp_path, width=1, max_pending=1
        ) as service:
            original = service.index_cache.get_or_build

            def gated(query, build):
                entered.set()
                assert gate.wait(timeout=30)
                return original(query, build)

            service.index_cache.get_or_build = gated
            try:
                first = service.submit(MatchRequest(TRIANGLE))
                assert entered.wait(timeout=30)
                shed = service.submit(MatchRequest(TRIANGLE))
                response = shed.result(timeout=5)
                record = service.flight_records(
                    request_id=response.request_id
                )[0]
            finally:
                service.index_cache.get_or_build = original
                gate.set()
            assert first.result(timeout=30).ok
        assert response.status == Status.REJECTED
        assert record["status"] == Status.REJECTED
        assert [e["ev"] for e in record["events"]] == ["admit", "final"]
        assert record["events"][0]["outcome"] == "rejected"

    def test_history_and_slow_log_round_trip(self, tmp_path):
        with self._telemetry_service(tmp_path) as service:
            responses = [
                service.match(MatchRequest(TRIANGLE)),
                service.match(MatchRequest(TRIANGLE, limit=1)),
            ]
        history = read_history(str(tmp_path / "history.jsonl"))
        assert [r["request_id"] for r in history] == [
            response.request_id for response in responses
        ]
        signatures = {r["signature"] for r in history}
        assert len(signatures) == 1  # same query -> same canonical key
        for record in history:
            assert record["features"]["query_vertices"] == 3
            assert record["phase_seconds"].get("enumerate", 0) >= 0
        # slow_ms=0 -> every request is "slow"; the log lines are
        # flight-shaped records stamped with the tripped threshold.
        slow = load_flight_records(str(tmp_path / "slow.jsonl"))
        assert len(slow) == 2
        assert all(line["slow_ms"] == 0.0 for line in slow)

    def test_slow_threshold_filters(self, tmp_path):
        with self._telemetry_service(tmp_path, slow_ms=60_000.0) as service:
            service.match(MatchRequest(TRIANGLE))
        assert not (tmp_path / "slow.jsonl").exists()

    def test_fold_and_snapshot_surface_telemetry(self, tmp_path):
        with self._telemetry_service(tmp_path) as service:
            service.match(MatchRequest(TRIANGLE))
            snapshot = service.snapshot()
            live = service.metrics_snapshot()
        assert snapshot["flight_records"] == 1
        assert snapshot["history"]["appended"] == 1
        if self.executor == "threads":
            assert snapshot["scheduler"]["popped"] >= 1
        else:
            assert sum(snapshot["shards"]["tasks"]) >= 1
        # fold_request_stats merged the request's own counters in.
        assert snapshot["metrics"]["metrics"]["recursive_calls"] > 0
        assert live.get("service_healthy_workers") == 2

    def test_telemetry_disabled_is_inert(self):
        with _service(self.executor) as service:
            response = service.match(MatchRequest(TRIANGLE))
            assert service.flight is None
            assert service.flight_records() == []
            snapshot = service.snapshot()
        assert response.ok
        assert "flight_records" not in snapshot
        assert "history" not in snapshot


class TestShardedServiceTelemetry(TestServiceTelemetry):
    executor = "shards"


# ---------------------------------------------------------------------------
# Chaos agreement: telemetry stays truthful under injected faults
# ---------------------------------------------------------------------------
class TestChaosAgreement:
    def _chaos_run(self, tmp_path, seed: int):
        data = inject_labels(power_law(150, 3, seed=5), 3, seed=5)
        queries = generate_workload(
            data, 3, seed=5, min_vertices=3, max_vertices=5,
            max_embeddings=500,
        )
        plan = FaultPlan.service_chaos(seed, requests=12)
        responses = []
        with MatchService(
            data, workers=2, fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2),
            flight_records=128,
            history=str(tmp_path / "history.jsonl"),
            fold_request_stats=True,
        ) as service:
            for i in range(12):
                responses.append(
                    service.match(
                        MatchRequest(
                            queries[i % len(queries)],
                            break_automorphisms=False,
                        )
                    )
                )
            records = service.flight_records()
        return responses, records

    @pytest.mark.parametrize("seed", [0, 3])
    def test_flight_records_agree_under_chaos(self, tmp_path, seed):
        responses, records = self._chaos_run(tmp_path, seed)
        by_id = {r["request_id"]: r for r in records}
        assert len(by_id) == len(responses)
        for response in responses:
            record = by_id[response.request_id]
            validate_flight_record(record)
            assert record["finished"] is True
            assert record["status"] == response.status, (
                response.request_id, record["status"], response.status
            )
            assert record["retries"] == response.retries
            assert record["cache"] == response.cache
        # At least one seeded fault actually fired, or the test is vacuous.
        eventful = {
            e["ev"] for record in records for e in record["events"]
        }
        assert eventful & {"retry", "worker_crash", "unit_failed"}, eventful

    def test_history_round_trips_under_chaos(self, tmp_path):
        responses, _ = self._chaos_run(tmp_path, seed=1)
        records = read_history(str(tmp_path / "history.jsonl"))
        assert len(records) == len(responses)
        statuses = {r["request_id"]: r["status"] for r in records}
        for response in responses:
            assert statuses[response.request_id] == response.status
