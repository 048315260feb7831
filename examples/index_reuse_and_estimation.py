#!/usr/bin/env python3
"""Index persistence and the cardinality bound.

Two workflows on top of the core matcher:

1. build a CECI once, persist it (the paper's Section 6.4 plans exactly
   this for indexes that outgrow memory), reload and re-enumerate;
2. read the upper bound on the embedding count that the refined
   cardinalities give for free, next to the exact count.

Run:  python examples/index_reuse_and_estimation.py
"""

import os
import tempfile
import time

from repro import CECIMatcher, Graph
from repro.core import Enumerator, cardinality_bound, load_ceci, save_ceci
from repro.graph import power_law

data = power_law(2500, 6, seed=13, min_edges_per_vertex=1, name="web")
diamond = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])

# ----------------------------------------------------------------------
# 1. Build once, persist, reload, enumerate again.
# ----------------------------------------------------------------------
matcher = CECIMatcher(diamond, data)
started = time.perf_counter()
ceci = matcher.build()
build_time = time.perf_counter() - started

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "diamond.ceci")
    save_ceci(ceci, path)
    size_kb = os.path.getsize(path) / 1024

    started = time.perf_counter()
    reloaded = load_ceci(path, data)
    load_time = time.perf_counter() - started

count = len(Enumerator(reloaded, symmetry=matcher.symmetry).collect())
print(f"index built in {build_time * 1000:.1f} ms, "
      f"persisted at {size_kb:.1f} KB, reloaded in {load_time * 1000:.1f} ms")
print(f"{count} diamond embeddings from the reloaded index\n")

# ----------------------------------------------------------------------
# 2. The cardinality bound vs exact enumeration.
# ----------------------------------------------------------------------
exact_matcher = CECIMatcher(diamond, data, break_automorphisms=False)
started = time.perf_counter()
exact = exact_matcher.count()
exact_time = time.perf_counter() - started

print(f"exact count      : {exact} ({exact_time * 1000:.0f} ms)")
print(f"cardinality bound: {cardinality_bound(exact_matcher)} "
      f"(free with the index)")
