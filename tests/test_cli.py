"""Tests for the command-line interface."""

import json
import time

import pytest

from repro.cli import main
from repro.graph import Graph, load_graph_format, save_graph_format


@pytest.fixture
def files(tmp_path):
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    data = Graph(
        6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]
    )
    qpath = str(tmp_path / "q.graph")
    dpath = str(tmp_path / "d.graph")
    save_graph_format(triangle, qpath)
    save_graph_format(data, dpath)
    return qpath, dpath, tmp_path


class TestMatchCommand:
    def test_lists_embeddings(self, files, capsys):
        qpath, dpath, _ = files
        assert main(["match", qpath, dpath]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["0 1 2", "2 3 4"]

    def test_limit(self, files, capsys):
        qpath, dpath, _ = files
        main(["match", qpath, dpath, "--limit", "1"])
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_all_autos(self, files, capsys):
        qpath, dpath, _ = files
        main(["match", qpath, dpath, "--all-autos"])
        assert len(capsys.readouterr().out.strip().splitlines()) == 12

    def test_order_strategy_accepted(self, files, capsys):
        qpath, dpath, _ = files
        assert main(["match", qpath, dpath, "--order", "path_ranked"]) == 0
        assert capsys.readouterr().out.strip()


class TestCountCommand:
    def test_count(self, files, capsys):
        qpath, dpath, _ = files
        assert main(["count", qpath, dpath]) == 0
        assert capsys.readouterr().out.strip() == "2"


class TestWorkersOption:
    """``--workers K`` runs the query on ``MatchService(workers=K)`` and
    prints exactly what the sequential command prints."""

    @pytest.fixture(scope="class")
    def skewed(self, tmp_path_factory):
        from repro.graph import power_law

        tmp_path = tmp_path_factory.mktemp("workers")
        qpath = str(tmp_path / "q.graph")
        dpath = str(tmp_path / "d.graph")
        save_graph_format(Graph(3, [(0, 1), (1, 2), (0, 2)]), qpath)
        save_graph_format(power_law(300, 4, seed=7), dpath)
        return qpath, dpath

    @staticmethod
    def _json(capsys, argv):
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        return {
            key: payload.get(key)
            for key in ("count", "embeddings", "truncated", "stop_reason")
        }

    @pytest.mark.parametrize("command", ["match", "count"])
    @pytest.mark.parametrize("workers", ["2", "3"])
    @pytest.mark.parametrize("bound", [
        [], ["--limit", "5"], ["--max-calls", "50"],
        ["--timeout", "1e-9"], ["--timeout", "60"],
    ], ids=["unbounded", "limit", "max-calls", "timeout-cut", "timeout"])
    def test_output_equals_sequential(
        self, skewed, capsys, command, workers, bound
    ):
        qpath, dpath = skewed
        argv = [command, qpath, dpath, *bound]
        sequential = self._json(capsys, argv)
        assert self._json(capsys, argv + ["--workers", workers]) == (
            sequential
        )
        assert sequential["count"] > 0 or sequential["truncated"]

    def test_budget_cut_reported_without_note(self, skewed, capsys):
        qpath, dpath = skewed
        assert main(["count", qpath, dpath, "--workers", "2",
                     "--max-calls", "50"]) == 0
        err = capsys.readouterr().err
        assert "# truncated: max_calls" in err
        assert "note" not in err

    def test_failed_request_exits_nonzero(self, files, capsys, monkeypatch):
        from repro.service import service as service_module

        def broken(store, symmetry, share, limit, tracker):
            raise RuntimeError("enumerator unavailable")

        monkeypatch.setattr(service_module, "run_task", broken)
        qpath, dpath, _ = files
        assert main(["count", qpath, dpath, "--workers", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: failed" in captured.err
        assert "enumerator unavailable" in captured.err

    def test_progress_heartbeats_while_the_request_runs(
        self, skewed, capsys, monkeypatch
    ):
        # Each task sleeps past the interval first, so the caller's wait
        # outlasts at least one --progress-interval slice.
        from repro.service import service as service_module

        run_task = service_module.run_task

        def slow(*args):
            time.sleep(0.2)
            return run_task(*args)

        monkeypatch.setattr(service_module, "run_task", slow)
        qpath, dpath = skewed
        assert main(["count", qpath, dpath, "--workers", "2", "--progress",
                     "--progress-interval", "0.02"]) == 0
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("# progress:")
        ]
        assert len(lines) >= 2
        assert lines[-1].endswith("(done)")
        heartbeats = lines[:-1]
        assert all("units=" in line and "embeddings=" in line
                   for line in heartbeats)
        assert not any(line.endswith("(done)") for line in heartbeats)

    @pytest.mark.parametrize("command", ["index", "stats"])
    def test_only_match_and_count_take_workers(
        self, files, capsys, command
    ):
        qpath, dpath, tmp_path = files
        extra = [str(tmp_path / "idx.ceci")] if command == "index" else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, qpath, dpath, *extra, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestIndexCommand:
    def test_writes_loadable_index(self, files):
        from repro.core import Enumerator, load_ceci

        qpath, dpath, tmp_path = files
        out = str(tmp_path / "idx.ceci")
        assert main(["index", qpath, dpath, out]) == 0
        data = load_graph_format(dpath)
        loaded = load_ceci(out, data)
        assert len(Enumerator(loaded).collect()) == 2


class TestStatsCommand:
    def test_emits_json(self, files, capsys):
        qpath, dpath, _ = files
        assert main(["stats", qpath, dpath]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["embeddings"] == 2
        assert payload["recursive_calls"] > 0
        assert "phases_seconds" in payload


class TestGenerateCommand:
    @pytest.mark.parametrize("kind", ["powerlaw", "kronecker", "erdos"])
    def test_generates_loadable_graph(self, kind, tmp_path):
        out = str(tmp_path / f"{kind}.graph")
        assert main(["generate", kind, out, "--vertices", "64",
                     "--edges-per-vertex", "3", "--labels", "4"]) == 0
        graph = load_graph_format(out)
        assert graph.num_vertices >= 32
        assert len(graph.distinct_labels()) > 1


class TestServeCommand:
    def test_serves_jsonl_requests(self, files, capsys, monkeypatch):
        import io
        import sys

        _, dpath, _ = files
        lines = [
            json.dumps({"query": {"n": 3,
                                  "edges": [[0, 1], [1, 2], [0, 2]]},
                        "id": 1}),
            json.dumps({"cmd": "shutdown"}),
        ]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", dpath, "--workers", "2",
                     "--metrics", "json"]) == 0
        captured = capsys.readouterr()
        response = json.loads(captured.out.splitlines()[0])
        assert response["id"] == 1 and response["status"] == "ok"
        assert response["count"] == 2
        assert "# served 1 requests" in captured.err
        snapshot = json.loads(
            captured.err.split("# served 1 requests", 1)[1]
        )
        assert snapshot["index_cache"]["misses"] == 1

    def test_sharded_serve_keeps_the_shared_flags(
        self, files, capsys, monkeypatch
    ):
        import io
        import sys

        from repro.observability import read_history

        _, dpath, tmp_path = files
        history = str(tmp_path / "history.jsonl")
        slow_log = str(tmp_path / "slow.jsonl")
        lines = [
            json.dumps({"query": {"n": 3,
                                  "edges": [[0, 1], [1, 2], [0, 2]]},
                        "id": 1}),
            json.dumps({"cmd": "shutdown"}),
        ]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", dpath, "--shards", "2", "--retries", "1",
                     "--history", history, "--slow-ms", "0",
                     "--slow-log", slow_log]) == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert response["status"] == "ok" and response["count"] == 2
        assert response["shards"] >= 1
        assert [r["request_id"] for r in read_history(history)] == [1]
        with open(slow_log) as handle:
            assert len(handle.readlines()) == 1

    def test_workers_with_shards_is_a_usage_error(self, files, capsys):
        _, dpath, _ = files
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", dpath, "--shards", "2", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err


class TestBenchServiceCommand:
    def test_writes_schema_valid_report(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        assert main([
            "bench-service", "--vertices", "400", "--labels", "3",
            "--graph-seed", "7", "--queries", "2", "--requests", "6",
            "--min-vertices", "3", "--max-vertices", "4",
            "--max-embeddings", "500", "--workers", "2", "--out", out,
        ]) == 0
        captured = capsys.readouterr()
        with open(out) as handle:
            report = json.load(handle)
        assert report == json.loads(captured.out)
        assert report["schema"] == 1
        for key in ("cold", "warm", "warm_speedup", "latency",
                    "throughput_rps", "statuses", "index_cache"):
            assert key in report, key
        assert report["statuses"]["ok"] == 2 * 2 + 6
        assert "# warm speedup" in captured.err
