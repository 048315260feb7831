#!/usr/bin/env python3
"""Embedding clusters, ExtremeClusters, and workload balancing.

Reproduces Section 4's story on a skewed graph: the power-law hub owns a
cluster that dwarfs the rest, static distribution stalls on it, dynamic
pulling helps, and cardinality-guided ExtremeCluster decomposition (FGD)
splits the monster ahead of time.

Run:  python examples/parallel_clusters.py
"""

from repro import CECIMatcher
from repro.bench import QG3
from repro.graph import power_law
from repro.parallel import simulate_policy
from repro.service import MatchRequest, MatchService

data = power_law(num_vertices=1200, edges_per_vertex=5, seed=77, name="skewed")
matcher = CECIMatcher(QG3, data)

# ----------------------------------------------------------------------
# 1. Cluster skew: cardinality per cluster, biggest first.
# ----------------------------------------------------------------------
units = matcher.work_units(beta=None)
total = sum(u.workload for u in units)
print(f"{len(units)} embedding clusters, total cardinality {total:.0f}")
print("largest clusters (pivot: share of total):")
for unit in units[:5]:
    print(f"  v{unit.pivot:>5}: {100 * unit.workload / total:5.1f}%")

# ----------------------------------------------------------------------
# 2. ExtremeCluster decomposition: beta controls the split threshold.
# ----------------------------------------------------------------------
workers = 8
for beta in (1.0, 0.2, 0.1):
    decomposed = matcher.work_units(worker_count=workers, beta=beta)
    fragments = sum(1 for u in decomposed if u.depth > 1)
    print(f"beta={beta:<4}: {len(decomposed):>5} work units "
          f"({fragments} are sub-clusters)")

# ----------------------------------------------------------------------
# 3. Simulated makespan of the three policies (Figure 11's comparison).
# ----------------------------------------------------------------------
print(f"\nsimulated speedup on {workers} workers:")
for policy in ("ST", "CGD", "FGD"):
    result = simulate_policy(matcher, workers=workers, policy=policy, beta=0.2)
    print(f"  {policy}: speedup {result.speedup:5.2f}x "
          f"(makespan {result.makespan:.0f} ops, skew {result.assignment.skew:.2f})")

# ----------------------------------------------------------------------
# 4. Real threads: the match service cuts the clusters once into
#    weight-balanced chunks (LPT over their cardinalities), runs each
#    chunk as one task on whichever worker frees first, and merges the
#    parts back in pivot order — the exact sequential embedding list.
# ----------------------------------------------------------------------
sequential = CECIMatcher(QG3, data).match()
with MatchService(data, workers=4) as service:
    response = service.match(MatchRequest(QG3))
tasks = service.snapshot()["scheduler"]["pushed_units"]
print(f"\nthread pool: {response.count} embeddings from "
      f"{service.metrics.get('service_units_total')} cluster units "
      f"in {tasks} tasks on {service.workers} worker threads")
assert response.embeddings == sequential, "pool answer differs"
