"""Recompute ``expected_counts.json`` with the library's sequential
matcher, for every workload and scale.  Run it from the root of a
checkout after changing the generated inputs::

    python3 perfbench/regen.py
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

import inputs
import oracle
import run


def regenerate() -> Dict:
    from repro import CECIMatcher
    from workloads import make_graph

    out: Dict = {}
    for scale in inputs.SCALES:
        labeled = inputs.labeled_graph(scale)
        power = inputs.power_graph(scale)
        labeled_graph, power_graph = make_graph(labeled), make_graph(power)
        adj = inputs.adjacency(labeled)
        size = max(inputs.SCALES[scale]["build_pool"], inputs.SCALES[scale]["mix_pool"])
        screen: List[int] = []
        accepted = 0
        for candidate in inputs.induced_candidates(labeled, adj):
            if accepted == size:
                break
            found = len(CECIMatcher(make_graph(candidate), labeled_graph).match(
                inputs.BUILD_EMBEDDING_CAP + 1
            ))
            if found > inputs.BUILD_EMBEDDING_CAP:
                screen.append(-1)
            else:
                screen.append(found)
                accepted += 1
        pool = inputs.build_pool(labeled, adj, size, screen)
        counts = {
            q.name: len(CECIMatcher(make_graph(q.graph), labeled_graph).match())
            for q in pool
        }
        figure6 = {
            q.name: len(CECIMatcher(make_graph(q.graph), power_graph).match())
            for q in inputs.figure6(sorted(inputs.FIGURE6))
        }
        sizes = inputs.SCALES[scale]
        out[scale] = {
            "digests": {"labeled": labeled.digest(), "power": power.digest()},
            "screen": screen,
            "lib-build": {k: counts[k] for k in sorted(counts)[: sizes["build_pool"]]},
            "svc-mix": {k: counts[k] for k in sorted(counts)[: sizes["mix_pool"]]},
            "lib-enum": figure6,
            "shard-fanout": {k: figure6[k] for k in ("QG1", "QG2", "QG3", "QG5")},
        }
    return out


def main() -> int:
    run._import_program()
    with open(oracle.EXPECTED_PATH, "w") as handle:
        json.dump(regenerate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
