"""Figure 10 — CECI vs TurboIso vs Boosted-TurboIso, first 1,024
embeddings of DFS-generated labeled queries on the HU analog.

Paper result: CECI is on average 2.71x faster than TurboIso and 2.52x
than Boosted-TurboIso; the boost (data-side symmetry) helps TurboIso a
little but CECI's NTE intersection and one-pass filtering keep it ahead.
Each time covers the index build and the enumeration; one untimed match
per system comes first, because the process's first match pays one-off
costs.
"""

import time

from conftest import run_once
from repro import CECIMatcher
from repro.baselines import (
    BoostedTurboIsoMatcher,
    TurboIsoMatcher,
    data_vertex_classes,
)
from repro.bench import ResultTable, geometric_mean, load_dataset
from repro.graph import generate_query_set

QUERY_SIZES = [4, 8, 12, 16, 24]
QUERIES_PER_SIZE = 5
LIMIT = 1024


def test_fig10_turboiso(benchmark, publish):
    def experiment():
        data = load_dataset("HU")
        data_vertex_classes(data)  # BoostIso's offline adapted graph
        table = ResultTable(
            "Figure 10: avg runtime (ms) for first 1,024 embeddings on HU",
            ["|Vq|", "CECI(ms)", "TurboIso(ms)", "Boosted(ms)",
             "vs TurboIso", "vs Boosted"],
        )
        turbo_ratios, boosted_ratios = [], []
        for size in QUERY_SIZES:
            queries = generate_query_set(data, size, QUERIES_PER_SIZE,
                                         seed=size * 13)
            ceci_total = turbo_total = boosted_total = 0.0
            if size == QUERY_SIZES[0]:
                # Untimed: the process's first match pays one-off costs
                # (lazy imports, first numpy calls).
                CECIMatcher(
                    queries[0], data, order_strategy="edge_ranked"
                ).match(limit=LIMIT)
                TurboIsoMatcher(queries[0], data).match(limit=LIMIT)
                BoostedTurboIsoMatcher(queries[0], data).match(limit=LIMIT)
            for query in queries:
                started = time.perf_counter()
                found = CECIMatcher(
                    query, data, order_strategy="edge_ranked"
                ).match(limit=LIMIT)
                ceci_total += time.perf_counter() - started
                assert found

                started = time.perf_counter()
                TurboIsoMatcher(query, data).match(limit=LIMIT)
                turbo_total += time.perf_counter() - started

                started = time.perf_counter()
                BoostedTurboIsoMatcher(query, data).match(limit=LIMIT)
                boosted_total += time.perf_counter() - started
            turbo_ratios.append(turbo_total / ceci_total)
            boosted_ratios.append(boosted_total / ceci_total)
            table.add(**{
                "|Vq|": size,
                "CECI(ms)": 1000 * ceci_total / QUERIES_PER_SIZE,
                "TurboIso(ms)": 1000 * turbo_total / QUERIES_PER_SIZE,
                "Boosted(ms)": 1000 * boosted_total / QUERIES_PER_SIZE,
                "vs TurboIso": turbo_total / ceci_total,
                "vs Boosted": boosted_total / ceci_total,
            })
        table.note(
            f"geomean speedup vs TurboIso {geometric_mean(turbo_ratios):.2f}x, "
            f"vs Boosted {geometric_mean(boosted_ratios):.2f}x "
            "(paper: 2.71x / 2.52x)"
        )
        return table, turbo_ratios, boosted_ratios

    table, turbo_ratios, boosted_ratios = run_once(benchmark, experiment)
    publish("fig10_turboiso", table)
    assert geometric_mean(turbo_ratios) > 1.0
    assert geometric_mean(boosted_ratios) > 1.0
