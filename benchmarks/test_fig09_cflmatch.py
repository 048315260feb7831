"""Figure 9 — CECI vs CFLMatch, first 1,024 embeddings of DFS-generated
labeled queries of growing size, on the RD and HU analogs.

Paper protocol (Section 6.2): RD gets random labels injected (100 on
their 0.5M-vertex graph; scaled here to 16 so candidates-per-label stays
in the paper's regime); HU is natively multi-labeled (CECI uses all
labels, CFLMatch only the first); queries of growing size are
DFS-extracted so each has at least one embedding; both systems run
single-threaded and stop at 1,024 embeddings.  Each time covers the
index build and the enumeration.  One untimed match per system comes
first (the process's first match pays one-off costs), and the systems
take turns running first on a query (the second run finds the data it
touches in cache).

Paper result: CECI wins by ~3.5x on RD and ~1.9x on HU.  NOTE: this
reimplementation of CFLMatch deliberately shares CECI's optimized
filtering and enumeration substrate (differing only in its TE-only CPI,
edge verification, and core-forest-leaf order), which makes it a far
stronger baseline than the original C++ binary.  The size-4 RD queries
are trees, so both systems run the same batch engine and that row is
parity.  From size 8 on, CFLMatch's missing NTE candidates make it
verify edges over ever larger TE candidate sets, and CECI's lead grows
to about 9x at size 24 — the very effect the paper credits CECI's NTE
candidates for.  A limited run takes frontier chunks no larger than
the embeddings it still needs (DESIGN.md §12).  CFLMatch's batch runs
use that rule too, so its HU times fell with it at sizes 4-12, and the
HU speedups with them.  The mechanism is additionally isolated by
``test_ablation_intersection.py``.
"""

import time

from conftest import run_once
from repro import CECIMatcher
from repro.baselines import CFLMatcher
from repro.bench import ResultTable, geometric_mean, load_dataset
from repro.bench.datasets import warm
from repro.graph import generate_query_set, inject_labels, relabel_with

QUERY_SIZES = [4, 8, 12, 16, 24]
QUERIES_PER_SIZE = 5
LIMIT = 1024
RD_LABELS = 16  # paper's 100 labels on 0.5M vertices, selectivity-scaled


def test_fig09_cflmatch(benchmark, publish):
    def experiment():
        table = ResultTable(
            "Figure 9: avg runtime (ms) for first 1,024 embeddings",
            ["Dataset", "|Vq|", "CECI(ms)", "CFLMatch(ms)", "speedup"],
        )
        ratios = []
        first = True
        for abbr in ("RD", "HU"):
            data = load_dataset(abbr)
            keep_all = abbr == "HU"  # CECI exploits HU's multi-labels
            if abbr == "RD":
                data = warm(inject_labels(data, RD_LABELS, seed=9))
            for size in QUERY_SIZES:
                queries = generate_query_set(
                    data, size, QUERIES_PER_SIZE, seed=size * 11,
                    keep_all_labels=keep_all,
                )
                ceci_total = cfl_total = 0.0
                for index, query in enumerate(queries):
                    # CFLMatch only sees the primary label per vertex.
                    cfl_query = query if not keep_all else relabel_with(
                        query, [query.label_of(u) for u in query.vertices()]
                    )
                    runs = [
                        lambda: CECIMatcher(
                            query, data, order_strategy="edge_ranked"
                        ).match(limit=LIMIT),
                        lambda: CFLMatcher(cfl_query, data).match(
                            limit=LIMIT
                        ),
                    ]
                    if first:
                        # Untimed: the process's first match pays one-off
                        # costs (lazy imports, first numpy calls).
                        for run in runs:
                            run()
                        first = False
                    # Alternate which system runs first: the second run
                    # of a query finds the data it touches in cache.
                    seconds = [0.0, 0.0]
                    for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                        started = time.perf_counter()
                        found = runs[side]()
                        seconds[side] = time.perf_counter() - started
                        assert found, "DFS queries must embed at least once"
                    ceci_total += seconds[0]
                    cfl_total += seconds[1]
                ratio = cfl_total / ceci_total if ceci_total > 0 else 1.0
                ratios.append(ratio)
                table.add(Dataset=abbr, **{
                    "|Vq|": size,
                    "CECI(ms)": 1000 * ceci_total / QUERIES_PER_SIZE,
                    "CFLMatch(ms)": 1000 * cfl_total / QUERIES_PER_SIZE,
                    "speedup": ratio,
                })
        table.note(
            f"geomean speedup {geometric_mean(ratios):.2f}x "
            "(paper: 3.5x on RD, 1.9x on HU vs the original C++ CFLMatch; "
            "this CFLMatch shares CECI's substrate — see module docstring)"
        )
        return table, ratios

    table, ratios = run_once(benchmark, experiment)
    publish("fig09_cflmatch", table)
    # Shape: CECI stays at or above parity overall with a CFLMatch that
    # borrows its whole substrate, and wins clearly on the largest
    # low-selectivity queries (where NTE refinement pays off).
    assert geometric_mean(ratios) > 0.8
    assert max(ratios) > 2.0
