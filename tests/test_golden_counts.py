"""Golden embedding-count regression fixtures.

``golden_counts.json`` pins the exact embedding count of a set of fixed
instances — hand-built graphs with closed-form counts and seeded
generator configurations.  Any enumeration-layer change that alters a
count (intersection, refinement, symmetry machinery) fails here with
the instance name, which is far easier to bisect than a broken
integration test.

Counts are full embedding sets (symmetry breaking disabled) and must be
reproduced by the batch engine, by the edge-verification recursion and
by the service and sharded tiers.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python tests/test_golden_counts.py --regen
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Tuple

import pytest

from repro.core.enumeration import Enumerator
from repro.core.matcher import CECIMatcher
from repro.graph import Graph, erdos_renyi, generate_query, inject_labels
from repro.graph.generators import dense_labeled, power_law

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_counts.json")

MODES = [
    "auto",
    "edge-verify",
    # Service-path configurations: the same instances answered by a
    # resident MatchService — "service-cold" pays a fresh build,
    # "service-warm" must serve the repeat from the index cache's hit
    # path.  Both must reproduce the pinned sequential counts, so a
    # cache-layer change that corrupts reuse fails here by name.
    "service-cold",
    "service-warm",
    # Engine axis (DESIGN.md §12): the set-at-a-time batch engine, and
    # the recursion run over the very same compact index the batch
    # engine reads — a divergence between them names the broken
    # instance directly.
    "batch",
    "recursive-compact",
    # Sharded tier (DESIGN.md §14): the same instances answered by the
    # multi-process ShardedMatchService — pivot partitions fanned across
    # two shard processes over a shared mmap'd index, merged exactly.
    "sharded",
]


def _quickstart() -> Tuple[Graph, Graph]:
    """The README quickstart: unlabeled triangle in a 5-vertex graph of
    two triangles sharing vertex 2."""
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    data = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    return triangle, data


def _quickstart_labeled() -> Tuple[Graph, Graph]:
    """The examples/quickstart.py instance: an A-B-C triangle query in
    the 9-vertex two-community data graph."""
    data = Graph(
        9,
        [
            (0, 1), (0, 2), (1, 2),
            (2, 3), (3, 4), (2, 4),
            (4, 5), (5, 6), (4, 6),
            (6, 7), (7, 8),
        ],
        labels=["A", "B", "C", "B", "A", "B", "C", "B", "A"],
    )
    query = Graph(3, [(0, 1), (1, 2), (0, 2)], labels=["A", "B", "C"])
    return query, data


def _paper_figure1() -> Tuple[Graph, Graph]:
    """The Figure 1 five-vertex query against a data graph realizing its
    two embeddings plus false candidates (the conftest fixture pair)."""
    query = Graph(
        5,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)],
        labels=["A", "B", "C", "D", "E"],
    )
    labels = {
        0: "Z",
        1: "A", 2: "A",
        3: "B", 5: "B", 7: "B", 9: "B",
        4: "C", 6: "C", 8: "C", 10: "C",
        11: "D", 13: "D", 15: "D",
        12: "E", 14: "E",
    }
    edges = [
        (1, 3), (1, 5), (1, 7), (1, 4), (1, 6),
        (3, 4), (5, 4), (5, 6), (7, 6),
        (3, 11), (5, 13), (7, 15),
        (4, 11), (6, 13),
        (4, 12), (6, 14),
        (2, 7), (2, 9), (2, 8), (9, 8), (9, 15), (8, 15), (8, 11),
        (0, 15),
        (10, 16), (10, 17), (10, 18), (10, 19),
        (20, 16), (20, 17), (20, 18), (20, 19),
        (21, 16), (21, 17), (21, 18), (21, 19),
    ]
    labels.update({16: "A", 17: "B", 18: "D", 19: "E", 20: "C", 21: "C"})
    return query, Graph(22, edges, labels=labels)


def _square_in_k5() -> Tuple[Graph, Graph]:
    """4-cycle in the unlabeled K5: closed form 5!/(5-4)! ordered
    choices filtered by the cycle's automorphisms — exactly 120."""
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    return square, k5


def _generated(kind: str) -> Tuple[Graph, Graph]:
    if kind == "erdos":
        data = inject_labels(erdos_renyi(40, 140, seed=17), 2, seed=17)
        query = generate_query(data, 4, seed=5)
    elif kind == "powerlaw":
        data = inject_labels(power_law(50, 4, seed=23), 3, seed=23)
        query = generate_query(data, 5, seed=8)
    elif kind == "dense":
        data = dense_labeled(24, 3, seed=4)
        query = generate_query(data, 4, seed=12)
    else:  # pragma: no cover - config typo guard
        raise ValueError(kind)
    return query, data


INSTANCES: Dict[str, Callable[[], Tuple[Graph, Graph]]] = {
    "quickstart-triangle": _quickstart,
    "quickstart-labeled-abc": _quickstart_labeled,
    "paper-figure1": _paper_figure1,
    "square-in-k5": _square_in_k5,
    "erdos-40v-140e-2l": lambda: _generated("erdos"),
    "powerlaw-50v-3l": lambda: _generated("powerlaw"),
    "dense-24v-3l": lambda: _generated("dense"),
}


def count_with(query: Graph, data: Graph, mode: str) -> int:
    if mode.startswith("service-"):
        return _service_count(query, data, warm=mode == "service-warm")
    if mode == "sharded":
        return _sharded_count(query, data)
    if mode == "batch":
        matcher = CECIMatcher(query, data, break_automorphisms=False)
        assert matcher.enumerator().engine == "batch"
        return matcher.count()
    if mode == "recursive-compact":
        matcher = CECIMatcher(query, data, break_automorphisms=False)
        enumerator = Enumerator(
            matcher.build(), symmetry=matcher.symmetry, use_intersection=False
        )
        # A query without non-tree edges always runs batched; pin the
        # recursion so it is checked against every instance.
        enumerator.engine = "recursive"
        return enumerator.count()
    matcher = CECIMatcher(
        query,
        data,
        break_automorphisms=False,
        use_intersection=mode != "edge-verify",
    )
    return matcher.count()


def _service_count(query: Graph, data: Graph, warm: bool) -> int:
    from repro.service import MatchRequest, MatchService

    with MatchService(data, workers=2) as service:
        response = service.match(MatchRequest(query, break_automorphisms=False))
        assert response.ok and response.cache == "miss", response.status
        if warm:
            response = service.match(
                MatchRequest(query, break_automorphisms=False)
            )
            assert response.ok and response.cache == "hit", response.cache
        return response.count


def _sharded_count(query: Graph, data: Graph) -> int:
    from repro.service import MatchRequest
    from repro.service.shards import ShardedMatchService

    with ShardedMatchService(data, shards=2) as service:
        response = service.match(MatchRequest(query, break_automorphisms=False))
        assert response.ok, (response.status, response.error)
        return response.count


def load_golden() -> Dict[str, int]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("mode", MODES)
def test_golden_count(name, mode):
    golden = load_golden()
    assert name in golden, (
        f"{name} missing from golden_counts.json — regenerate with "
        f"PYTHONPATH=src python tests/test_golden_counts.py --regen"
    )
    query, data = INSTANCES[name]()
    assert count_with(query, data, mode) == golden[name]


def test_golden_file_has_no_orphans():
    """Every pinned count corresponds to a buildable instance."""
    assert set(load_golden()) == set(INSTANCES)


def test_paper_figure1_count_is_two():
    """Figure 1 promises exactly two embeddings — independent of the
    JSON file, since this one is stated in the paper itself."""
    query, data = _paper_figure1()
    assert count_with(query, data, "auto") == 2


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit(__doc__)
    counts = {}
    for name, build in sorted(INSTANCES.items()):
        query, data = build()
        per_mode = {mode: count_with(query, data, mode) for mode in MODES}
        assert len(set(per_mode.values())) == 1, (name, per_mode)
        counts[name] = per_mode["auto"]
        print(f"{name}: {counts[name]}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(counts, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
