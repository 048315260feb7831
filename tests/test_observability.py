"""Tests for the observability layer (DESIGN.md §9).

Covers the tracer's span pairing and nesting invariants, the metrics
registry's declared merge semantics (sum counters vs. peak gauges), the
progress reporter, and the headline acceptance criterion: the phase
totals reported by ``trace summarize`` agree with the run's
``MatchStats.phase_seconds`` — for single-process, service worker-pool
and distributed runs alike — because both sides book the *same float*.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.core import CECIMatcher
from repro.core.stats import MatchStats, match_metric_specs
from repro.distributed import DistributedCECI
from repro.graph import Graph, erdos_renyi, generate_query, inject_labels
from repro.observability import (
    METRICS_SCHEMA,
    MetricSpec,
    MetricsRegistry,
    NULL_TRACER,
    ProgressReporter,
    TraceError,
    Tracer,
    read_trace,
    summarize_trace,
)
from repro.service import MatchRequest, MatchService


@pytest.fixture
def instance():
    """A labeled (query, data) pair with a few hundred embeddings."""
    data = inject_labels(erdos_renyi(60, 240, seed=5), 2, seed=5)
    query = generate_query(data, 4, seed=17)
    return query, data


def _trace_path(tmp_path) -> str:
    return str(tmp_path / "run.jsonl")


def _events(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_meta_first_and_schema(self, tmp_path):
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        tracer.close()
        events = _events(path)
        assert events[0]["ev"] == "meta"
        assert events[0]["schema"] == 1

    def test_span_pairing_and_nesting(self, tmp_path):
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        with tracer.span("outer"):
            with tracer.span("inner", u=3):
                pass
        tracer.close()
        events = _events(path)
        begins = [e for e in events if e["ev"] == "b"]
        ends = [e for e in events if e["ev"] == "e"]
        assert [e["name"] for e in begins] == ["outer", "inner"]
        # LIFO: inner ends before outer.
        assert [e["name"] for e in ends] == ["inner", "outer"]
        by_name = {e["name"]: e for e in begins}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert all(e["dur"] >= 0 for e in ends)
        # The validator accepts what the tracer wrote.
        summary = read_trace(path)
        assert summary.spans["inner"]["count"] == 1

    def test_phase_carries_caller_duration(self, tmp_path):
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        tracer.phase("filter", tracer._origin, 0.125)
        tracer.close()
        phases = [e for e in _events(path) if e["ev"] == "p"]
        assert phases[0]["name"] == "filter"
        assert phases[0]["dur"] == 0.125

    def test_scoped_tags_every_event(self, tmp_path):
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        scoped = tracer.scoped(machine=2)
        with scoped.span("work"):
            scoped.instant("ping")
        scoped.phase("enumerate", tracer._origin, 0.5)
        tracer.close()
        tagged = [e for e in _events(path) if e["ev"] in ("b", "e", "p", "i")]
        assert tagged and all(e["machine"] == 2 for e in tagged)

    def test_writes_to_caller_owned_stream(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.span("s"):
            pass
        tracer.close()
        lines = sink.getvalue().strip().splitlines()
        assert json.loads(lines[0])["ev"] == "meta"
        assert len(lines) == 3

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x") as span:
            assert span.duration == 0.0
        NULL_TRACER.phase("p", 0.0, 1.0)
        NULL_TRACER.instant("i")
        assert NULL_TRACER.scoped(worker=1) is NULL_TRACER
        NULL_TRACER.close()


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------
class TestTraceValidation:
    def _write(self, tmp_path, lines) -> str:
        path = _trace_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(json.dumps(e) for e in lines) + "\n")
        return path

    META = {"t": 0.0, "ev": "meta", "schema": 1, "tid": 0}

    def test_empty_file_rejected(self, tmp_path):
        path = _trace_path(tmp_path)
        open(path, "w").close()
        with pytest.raises(TraceError, match="empty trace"):
            read_trace(path)

    def test_first_line_must_be_meta(self, tmp_path):
        path = self._write(
            tmp_path, [{"t": 0.0, "ev": "i", "name": "x", "tid": 0}]
        )
        with pytest.raises(TraceError, match="must be 'meta'"):
            read_trace(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = self._write(tmp_path, [{**self.META, "schema": 99}])
        with pytest.raises(TraceError, match="unsupported trace schema"):
            read_trace(path)

    def test_unclosed_span_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            self.META,
            {"t": 0.1, "ev": "b", "id": 1, "parent": None,
             "name": "s", "tid": 0},
        ])
        with pytest.raises(TraceError, match="unclosed span"):
            read_trace(path)

    def test_improper_nesting_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            self.META,
            {"t": 0.1, "ev": "b", "id": 1, "parent": None,
             "name": "a", "tid": 0},
            {"t": 0.2, "ev": "b", "id": 2, "parent": 1,
             "name": "b", "tid": 0},
            {"t": 0.3, "ev": "e", "id": 1, "name": "a",
             "dur": 0.2, "tid": 0},
        ])
        with pytest.raises(TraceError, match="improper nesting"):
            read_trace(path)

    def test_negative_duration_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            self.META,
            {"t": 0.1, "ev": "p", "name": "filter", "dur": -1.0, "tid": 0},
        ])
        with pytest.raises(TraceError, match="negative duration"):
            read_trace(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            self.META,
            {"t": 0.1, "ev": "zz", "name": "x", "tid": 0},
        ])
        with pytest.raises(TraceError, match="unknown event kind"):
            read_trace(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = _trace_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.META) + "\n{not json\n")
        with pytest.raises(TraceError, match="invalid JSON"):
            read_trace(path)

    def test_worker_streams_pair_independently(self, tmp_path):
        # Interleaved begin/ends are fine when they belong to different
        # worker streams — pairing is per (machine, worker, tid).
        path = self._write(tmp_path, [
            self.META,
            {"t": 0.1, "ev": "b", "id": 1, "parent": None,
             "name": "unit", "tid": 0, "worker": 0},
            {"t": 0.2, "ev": "b", "id": 2, "parent": None,
             "name": "unit", "tid": 1, "worker": 1},
            {"t": 0.3, "ev": "e", "id": 1, "name": "unit",
             "dur": 0.2, "tid": 0, "worker": 0},
            {"t": 0.4, "ev": "e", "id": 2, "name": "unit",
             "dur": 0.2, "tid": 1, "worker": 1},
        ])
        assert read_trace(path).spans["unit"]["count"] == 2


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_sum_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("calls", 3)
        b.inc("calls", 4)
        assert a.merge(b).get("calls") == 7

    def test_peak_gauge_keeps_max(self):
        spec = MetricSpec("memory_bytes", kind="gauge", merge="max")
        a, b = MetricsRegistry([spec]), MetricsRegistry([spec])
        a.set_gauge("memory_bytes", 100)
        b.set_gauge("memory_bytes", 250)
        a.merge(b)
        assert a.get("memory_bytes") == 250
        # Peak, not sum — and merging the smaller back changes nothing.
        a.merge(b)
        assert a.get("memory_bytes") == 250

    def test_labeled_family_sums_per_label(self):
        spec = MetricSpec("phase_seconds", labeled=True, label_name="phase")
        a, b = MetricsRegistry([spec]), MetricsRegistry([spec])
        a.inc("phase_seconds", 1.0, label="filter")
        b.inc("phase_seconds", 0.5, label="filter")
        b.inc("phase_seconds", 2.0, label="enumerate")
        assert a.merge(b).labels("phase_seconds") == {
            "filter": 1.5, "enumerate": 2.0,
        }

    def test_histogram_summaries_combine(self):
        spec = MetricSpec("depth", kind="histogram")
        a, b = MetricsRegistry([spec]), MetricsRegistry([spec])
        a.observe("depth", 2)
        a.observe("depth", 8)
        b.observe("depth", 5)
        merged = a.merge(b).get("depth")
        assert merged == {"count": 3.0, "sum": 15.0, "min": 2.0, "max": 8.0}

    def test_as_dict_carries_schema(self):
        reg = MetricsRegistry()
        reg.inc("x")
        dump = reg.as_dict()
        assert dump["schema"] == METRICS_SCHEMA
        assert dump["metrics"]["x"] == 1

    def test_prom_exposition(self):
        spec = MetricSpec("phase_seconds", labeled=True, label_name="phase")
        reg = MetricsRegistry([spec])
        reg.inc("calls", 7)
        reg.inc("phase_seconds", 0.25, label="filter")
        text = reg.to_prom()
        assert "# TYPE repro_calls counter" in text
        assert "repro_calls 7" in text
        assert 'repro_phase_seconds{phase="filter"} 0.25' in text

    def test_kind_and_merge_validated(self):
        with pytest.raises(ValueError):
            MetricSpec("x", kind="timer")
        with pytest.raises(ValueError):
            MetricSpec("x", merge="avg")
        reg = MetricsRegistry()
        reg.inc("c")
        with pytest.raises(ValueError):
            reg.set_gauge("c", 1)


# ---------------------------------------------------------------------------
# MatchStats as a registry view
# ---------------------------------------------------------------------------
class TestMatchStatsMerge:
    def test_work_counters_sum(self):
        a, b = MatchStats(), MatchStats()
        a.recursive_calls, b.recursive_calls = 10, 32
        a.intersections, b.intersections = 1, 2
        a.merge(b)
        assert a.recursive_calls == 42
        assert a.intersections == 3

    def test_memory_bytes_keeps_peak(self):
        a, b = MatchStats(), MatchStats()
        a.memory_bytes, b.memory_bytes = 1000, 400
        a.merge(b)
        assert a.memory_bytes == 1000  # max, not 1400

    def test_phase_seconds_sum_per_phase(self):
        a, b = MatchStats(), MatchStats()
        a.add_phase("enumerate", 1.0)
        b.add_phase("enumerate", 0.25)
        b.add_phase("filter", 0.5)
        a.merge(b)
        assert a.phase_seconds == {"enumerate": 1.25, "filter": 0.5}

    def test_registry_round_trip(self):
        stats = MatchStats()
        stats.recursive_calls = 9
        stats.memory_bytes = 512
        stats.add_phase("refine", 0.125)
        clone = MatchStats()
        clone.apply_registry(stats.registry())
        assert clone.recursive_calls == 9
        assert clone.memory_bytes == 512
        assert clone.phase_seconds == {"refine": 0.125}

    def test_specs_cover_every_field(self):
        from dataclasses import fields

        names = {spec.name for spec in match_metric_specs()}
        assert names == {f.name for f in fields(MatchStats)}


# ---------------------------------------------------------------------------
# Progress reporter
# ---------------------------------------------------------------------------
class TestProgressReporter:
    def test_emits_heartbeats(self):
        stats = MatchStats()
        out = io.StringIO()
        progress = ProgressReporter(
            stats, interval=0.0, stream=out, check_every=10,
            total_estimate=1000,
        )
        for _ in range(50):
            stats.recursive_calls += 1
            stats.embeddings_found += 1
            progress.tick()
        progress.finish()
        lines = out.getvalue().strip().splitlines()
        assert progress.lines_emitted == len(lines) >= 2
        assert lines[-1].endswith("(done)")
        assert "calls=50" in lines[-1]
        assert "eta<=" in lines[-1]

    def test_silent_when_never_ticked(self):
        out = io.StringIO()
        ProgressReporter(MatchStats(), stream=out).finish()
        assert out.getvalue() == ""

    def test_short_run_still_gets_final_line(self):
        # Fewer ticks than check_every: no heartbeat fires, but finish()
        # still reports the run.
        stats = MatchStats()
        out = io.StringIO()
        progress = ProgressReporter(stats, interval=0.0, stream=out)
        progress.start()
        stats.recursive_calls = 3
        for _ in range(3):
            progress.tick()
        progress.finish()
        assert out.getvalue().count("\n") == 1

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ProgressReporter(MatchStats(), interval=-1.0)

    def test_heartbeats_mirrored_into_trace(self, tmp_path):
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        stats = MatchStats()
        progress = ProgressReporter(
            stats, interval=0.0, stream=io.StringIO(),
            check_every=1, tracer=tracer,
        )
        stats.recursive_calls = 1
        progress.tick()
        progress.finish()
        tracer.close()
        instants = [
            e for e in _events(path)
            if e["ev"] == "i" and e["name"] == "progress"
        ]
        assert instants and instants[-1]["final"] is True


# ---------------------------------------------------------------------------
# End-to-end: trace totals == stats totals (the acceptance criterion)
# ---------------------------------------------------------------------------
def _assert_agreement(stats: MatchStats, trace_path: str) -> None:
    """Per-phase trace totals must match MatchStats within 1% (they are
    the same floats, so the observed error is ~0)."""
    traced = read_trace(trace_path).phase_seconds()
    assert set(traced) == set(stats.phase_seconds)
    for name, seconds in stats.phase_seconds.items():
        assert traced[name] == pytest.approx(seconds, rel=0.01, abs=1e-12), (
            name
        )


class TestTraceStatsAgreement:
    def test_single_process(self, instance, tmp_path):
        query, data = instance
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        matcher = CECIMatcher(query, data, tracer=tracer)
        matcher.match()
        tracer.close()
        _assert_agreement(matcher.stats, path)
        summary = read_trace(path)
        assert summary.spans.get("cluster", {}).get("count", 0) > 0

    def test_worker_threads(self, instance, tmp_path):
        query, data = instance
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        with MatchService(data, workers=3, tracer=tracer) as service:
            response = service.match(MatchRequest(query))
        tracer.close()
        assert response.ok, response.error
        summary = read_trace(path)
        # The request's build and enumerate phases agree with its
        # request-tagged trace phases.  ``queue`` is trace-only: the
        # wait before the scheduler picks the request up is service
        # time, not matching work, so MatchStats never books it.
        traced = dict(summary.requests[response.request_id])
        assert traced.pop("queue") >= 0.0
        assert set(traced) == set(response.phase_seconds)
        for name, seconds in response.phase_seconds.items():
            assert traced[name] == pytest.approx(
                seconds, rel=0.01, abs=1e-12
            ), name
        # Worker-tagged enumerate phases landed in the executor table.
        workers_seen = {
            executor for executor in summary.executors
            if executor[1] is not None
        }
        assert workers_seen
        # And the pool's answer is the sequential one.
        assert response.embeddings == CECIMatcher(query, data).match()

    def test_distributed(self, instance, tmp_path):
        query, data = instance
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        runtime = DistributedCECI(query, data, num_machines=3, tracer=tracer)
        result = runtime.run()
        tracer.close()
        _assert_agreement(result.stats, path)
        summary = read_trace(path)
        machines_seen = {
            executor[0] for executor in summary.executors
            if executor[0] is not None
        }
        assert len(machines_seen) > 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCLI:
    @pytest.fixture
    def files(self, tmp_path):
        from repro.graph import save_graph_format

        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        data = Graph(
            6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]
        )
        qpath = str(tmp_path / "q.graph")
        dpath = str(tmp_path / "d.graph")
        save_graph_format(triangle, qpath)
        save_graph_format(data, dpath)
        return qpath, dpath, tmp_path

    def test_match_json_schema(self, files, capsys):
        from repro.cli import main

        qpath, dpath, _ = files
        assert main(["match", qpath, dpath, "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema"] == 1
        assert payload["count"] == 2
        assert payload["stats"]["recursive_calls"] > 0
        # JSON mode silences the stderr counter lines.
        assert "#" not in captured.err

    def test_count_json_schema(self, files, capsys):
        from repro.cli import main

        qpath, dpath, _ = files
        assert main(["count", qpath, dpath, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_stats_json_schema(self, files, capsys):
        from repro.cli import main

        qpath, dpath, _ = files
        assert main(["stats", qpath, dpath]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_trace_flag_and_summarize(self, files, capsys):
        from repro.cli import main

        qpath, dpath, tmp_path = files
        trace = str(tmp_path / "t.jsonl")
        assert main(["match", qpath, dpath, "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "enumerate" in out

    def test_trace_summarize_json(self, files, capsys):
        from repro.cli import main

        qpath, dpath, tmp_path = files
        trace = str(tmp_path / "t.jsonl")
        main(["count", qpath, dpath, "--trace", trace, "--workers", "2"])
        capsys.readouterr()
        assert main(["trace", "summarize", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert "enumerate" in payload["phases"]

    def test_trace_summarize_missing_file(self, files, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", "/nonexistent.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_summarize_malformed_file(self, files, capsys):
        from repro.cli import main

        _, _, tmp_path = files
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write('{"ev": "i", "name": "x", "t": 0.0}\n')
        assert main(["trace", "summarize", bad]) == 2
        assert "meta" in capsys.readouterr().err

    def test_metrics_json_on_stderr(self, files, capsys):
        from repro.cli import main

        qpath, dpath, _ = files
        assert main(["count", qpath, dpath, "--metrics", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(
            captured.err[captured.err.index("{"):]
        )
        assert payload["schema"] == 1
        assert payload["metrics"]["embeddings_found"] == 2

    def test_metrics_prom_on_stderr(self, files, capsys):
        from repro.cli import main

        qpath, dpath, _ = files
        assert main(["count", qpath, dpath, "--metrics", "prom"]) == 0
        assert "# TYPE repro_recursive_calls counter" in (
            capsys.readouterr().err
        )

    def test_progress_final_line(self, files, capsys):
        from repro.cli import main

        qpath, dpath, _ = files
        assert main([
            "count", qpath, dpath, "--progress", "--progress-interval", "0",
        ]) == 0
        assert "(done)" in capsys.readouterr().err

    def test_progress_final_line_under_workers(self, files, capsys):
        # Service workers tick their own enumerators, not the CLI
        # reporter, so the --workers route force-emits one summary over
        # the request's stats.
        from repro.cli import main

        qpath, dpath, _ = files
        assert main([
            "count", qpath, dpath, "--progress", "--workers", "2",
        ]) == 0
        err = capsys.readouterr().err
        assert "(done)" in err
        assert "calls=" in err

    def test_progress_interval_validated(self, files):
        from repro.cli import main

        qpath, dpath, _ = files
        with pytest.raises(SystemExit):
            main(["count", qpath, dpath, "--progress-interval", "-1"])


# ---------------------------------------------------------------------------
# Batched progress ticks (DESIGN.md §13 satellite)
# ---------------------------------------------------------------------------
class TestTickMany:
    def _reporter(self, **kwargs):
        stats = MatchStats()
        out = io.StringIO()
        defaults = dict(interval=0.0, stream=out, check_every=10)
        defaults.update(kwargs)
        return stats, out, ProgressReporter(stats, **defaults)

    def test_zero_and_negative_are_noops(self):
        _, out, progress = self._reporter()
        progress.tick_many(0)
        progress.tick_many(-5)
        progress.finish()
        # No real work was ever ticked, so finish() stays silent too.
        assert out.getvalue() == ""
        assert progress.lines_emitted == 0

    def test_huge_single_increment_emits(self):
        # One batch far larger than check_every must trip the clock
        # check on that very call, not wait for a later tick.
        stats, out, progress = self._reporter(check_every=10)
        stats.recursive_calls = 1_000_000
        progress.tick_many(1_000_000)
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert "calls=1000000" in lines[0]

    def test_final_done_line_after_batched_ticks(self):
        # Batches that never reach check_every never consult the clock,
        # but finish() still owes the run its closing summary.
        stats, out, progress = self._reporter(check_every=1000)
        stats.recursive_calls = 30
        stats.embeddings_found = 4
        for _ in range(3):
            progress.tick_many(10)
        progress.finish()
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert lines[-1].endswith("(done)")
        assert "calls=30" in lines[-1]
        assert "embeddings=4" in lines[-1]

    def test_mixed_tick_and_tick_many_share_the_counter(self):
        # 3 singles + a batch of 4 crosses check_every=7 exactly once.
        stats, out, progress = self._reporter(check_every=7)
        for _ in range(3):
            progress.tick()
        progress.tick_many(4)
        assert progress.lines_emitted == 1
        progress.finish()
        assert out.getvalue().strip().splitlines()[-1].endswith("(done)")


# ---------------------------------------------------------------------------
# Labeled-family folds under concurrency + prom exposition details
# ---------------------------------------------------------------------------
class TestRegistryFolds:
    def test_concurrent_labeled_folds_are_exact(self):
        # Mirrors the service's continuous fold: every request finishes
        # with its own registry, and a shared lock serialises the merge
        # into the service-wide one (service.py holds _fold_lock).  The
        # folded totals must be exact — a lost increment here would make
        # the /metrics endpoint quietly lie.
        specs = [
            MetricSpec(
                "service_requests_total", labeled=True, label_name="status"
            ),
            MetricSpec("depth", kind="histogram"),
        ]
        target = MetricsRegistry(specs)
        fold_lock = threading.Lock()
        statuses = ["ok", "error", "timeout"]

        def fold_requests(worker: int) -> None:
            for i in range(50):
                per_request = MetricsRegistry(specs)
                per_request.inc(
                    "service_requests_total",
                    label=statuses[(worker + i) % len(statuses)],
                )
                per_request.inc("recursive_calls", 3)
                per_request.observe("depth", float(i % 7))
                with fold_lock:
                    target.merge(per_request)

        threads = [
            threading.Thread(target=fold_requests, args=(w,))
            for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        family = target.labels("service_requests_total")
        assert sum(family.values()) == 200
        assert set(family) == set(statuses)
        assert target.get("recursive_calls") == 600
        assert target.get("depth")["count"] == 200.0

    def test_merge_is_safe_against_live_source(self):
        # A scrape folds the live registry while workers keep
        # incrementing it; the copy-iteration in merge() must never
        # blow up with a resized-dict error.
        spec = MetricSpec("phase_seconds", labeled=True, label_name="phase")
        live = MetricsRegistry([spec])
        stop = threading.Event()

        def mutate() -> None:
            i = 0
            while not stop.is_set():
                live.inc("phase_seconds", 0.001, label=f"phase{i % 13}")
                live.inc(f"counter{i % 17}")
                i += 1

        mutator = threading.Thread(target=mutate)
        mutator.start()
        try:
            for _ in range(200):
                snapshot = MetricsRegistry()
                snapshot.merge(live)
                assert snapshot.as_dict()["schema"] == METRICS_SCHEMA
        finally:
            stop.set()
            mutator.join()

    def test_prom_escapes_label_values(self):
        spec = MetricSpec("errors", labeled=True, label_name="detail")
        reg = MetricsRegistry([spec])
        reg.inc("errors", label='path\\tmp "x"\nline2')
        text = reg.to_prom()
        assert (
            'repro_errors{detail="path\\\\tmp \\"x\\"\\nline2"} 1' in text
        )
        # The escaped line must stay a single physical line.
        [series] = [
            line for line in text.splitlines()
            if line.startswith("repro_errors{")
        ]
        assert series.count('"') == 4

    def test_prom_histogram_summary_series(self):
        spec = MetricSpec("unit_seconds", kind="histogram")
        reg = MetricsRegistry([spec])
        for value in (0.5, 2.0, 1.0):
            reg.observe("unit_seconds", value)
        text = reg.to_prom()
        assert "# TYPE repro_unit_seconds summary" in text
        assert "repro_unit_seconds_count 3" in text
        assert "repro_unit_seconds_sum 3.5" in text
        assert "repro_unit_seconds_min 0.5" in text
        assert "repro_unit_seconds_max 2" in text


# ---------------------------------------------------------------------------
# Per-request trace summaries (repro trace summarize on service traces)
# ---------------------------------------------------------------------------
class TestSummarizePerRequest:
    def _service_style_trace(self, tmp_path) -> str:
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        for request_id, (filt, enum) in enumerate(
            [(0.25, 0.75), (0.1, 0.4)]
        ):
            scoped = tracer.scoped(request=request_id)
            scoped.phase("filter", 0.0, filt)
            scoped.phase("enumerate", filt, enum)
        # An untagged phase (e.g. index build shared across requests)
        # must contribute to the blended totals but no request's table.
        tracer.phase("build", 0.0, 0.5)
        tracer.close()
        return path

    def test_requests_group_into_separate_tables(self, tmp_path):
        path = self._service_style_trace(tmp_path)
        summary = read_trace(path)
        assert summary.requests == {
            0: {"filter": 0.25, "enumerate": 0.75},
            1: {"filter": 0.1, "enumerate": 0.4},
        }
        # Blended totals still include every phase, tagged or not.
        assert summary.phase_seconds()["build"] == pytest.approx(0.5)
        assert summary.phase_seconds()["filter"] == pytest.approx(0.35)

    def test_as_dict_and_render_carry_requests(self, tmp_path):
        path = self._service_style_trace(tmp_path)
        dump = json.loads(summarize_trace(path, as_json=True))
        assert dump["requests"]["0"]["enumerate"] == pytest.approx(0.75)
        rendered = summarize_trace(path)
        assert "per-request breakdown" in rendered
        # Each request's table closes with its own total row.
        assert rendered.count("total") >= 2

    def test_untagged_trace_renders_without_request_section(self, tmp_path):
        path = _trace_path(tmp_path)
        tracer = Tracer(path)
        tracer.phase("filter", 0.0, 0.2)
        tracer.close()
        rendered = summarize_trace(path)
        assert "per-request breakdown" not in rendered
