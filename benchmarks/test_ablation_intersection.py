"""Ablation — intersection-based enumeration vs per-edge verification
(Section 4.1: "average improvement of 13% to 170% on run-time ...
higher for query graphs with larger number of non-tree edges").
"""

import time

from conftest import run_once
from repro import CECIMatcher
from repro.bench import ResultTable, load_dataset, query_graph

#: QG5 is omitted from the default run: its verification-mode runtime
#: on the analogs exceeds ten minutes (the gap the paper's Lemma 2 is
#: about, taken to the extreme); QG4 already exercises three NTEs.
QUERIES = ["QG1", "QG3", "QG4"]


def test_ablation_intersection(benchmark, publish):
    def experiment():
        data = load_dataset("LJ")
        table = ResultTable(
            "Ablation: intersection vs edge verification (LJ)",
            ["Query", "NTEs", "intersect s", "verify s", "gain %",
             "edge checks avoided"],
        )
        gains = {}
        for qname in QUERIES:
            query = query_graph(qname)
            started = time.perf_counter()
            fast = CECIMatcher(query, data)
            fast_count = len(fast.match())
            fast_time = time.perf_counter() - started

            started = time.perf_counter()
            slow = CECIMatcher(query, data, use_intersection=False)
            slow_count = len(slow.match())
            slow_time = time.perf_counter() - started

            assert fast_count == slow_count
            ntes = len(fast.tree.non_tree_edges)
            gain = 100.0 * (slow_time - fast_time) / fast_time
            gains[qname] = (ntes, gain)
            table.add(Query=qname, NTEs=ntes,
                      **{"intersect s": fast_time, "verify s": slow_time,
                         "gain %": gain,
                         "edge checks avoided": slow.stats.edge_verifications})
        table.note("paper: 13%-170% improvement, growing with NTE count")
        table.note(
            '"intersect" runs the set-at-a-time batch engine; "verify" '
            "runs the per-embedding edge-verification recursion"
        )
        return table, gains

    table, gains = run_once(benchmark, experiment)
    publish("ablation_intersection", table)
    # Shape: intersection wins materially on every query with non-tree
    # edges (the paper's 13%-170% band; per-instance ordering by NTE
    # count is workload-dependent at analog scale).
    assert all(gain > 10.0 for _, gain in gains.values())
