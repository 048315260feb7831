"""Self-test of the benchmark's own code, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
#: Every workload the driver runs, including the two that BENCHMARK.json
#: does not declare (see README.md), so they keep working.
WORKLOADS = sorted(workloads.WORKLOADS)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _declared(kind: str):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_declared_end_to_end_metrics(workload):
    result = run.run(workload, seed=3, seconds=0.2, trace=False, scale="tiny")["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _emitted(result) == _declared("end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_declared_per_layer_metrics(workload):
    result = run.run(workload, seed=3, seconds=0.2, trace=True, scale="tiny")["result"]
    assert result["correct"] and result["failed"] == 0
    assert _emitted(result) == _declared("per_layer")


@pytest.mark.parametrize("workload", ["lib-build", "shard-fanout"])
def test_corrupted_expected_count_is_a_failed_operation(workload):
    expected = copy.deepcopy(oracle.load_expected())
    counts = expected["tiny"][workload]
    victim = sorted(counts)[0]
    counts[victim] += 1
    result = run.run(
        workload, seed=3, seconds=0.2, trace=False, scale="tiny",
        expected=expected,
    )["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_oracle_rejects_invalid_embeddings():
    data = inputs.GraphSpec(
        4, ((0, 1), (1, 2), (2, 3)),
        (frozenset({0}), frozenset({1}), frozenset({0}), frozenset({1})),
    )
    index = oracle.DataIndex(data)
    edge = inputs.GraphSpec(2, ((0, 1),), (frozenset({0}), frozenset({1})))
    assert oracle.embedding_errors([(0, 1), (2, 3), (2, 1)], edge, index) is None
    assert "injective" in oracle.embedding_errors([(1, 1)], edge, index)
    assert "unknown" in oracle.embedding_errors([(0, 4)], edge, index)
    assert "label" in oracle.embedding_errors([(1, 0)], edge, index)
    assert "unmapped" in oracle.embedding_errors([(0, 3)], edge, index)
    assert "duplicate" in oracle.embedding_errors([(0, 1), (0, 1)], edge, index)
    assert "length" in oracle.embedding_errors([(0, 1, 2)], edge, index)


def test_fails_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, the driver must exit
    non-zero without printing a result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(run.ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
