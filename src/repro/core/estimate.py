"""Approximate subgraph counting on top of CECI.

Section 7: "approximate subgraph count estimators calculate the number
of a given query graph in data graphs [3, 6, 12].  Although these works
have better scalability, they do not provide the individual embeddings
unlike CECI system."  This module closes the loop the other way: the
refined CECI *is* an excellent proposal structure for estimation,
because the per-candidate cardinalities from Algorithm 2 give exact
upper-bound weights over the search tree.

Two estimators:

* :func:`cardinality_bound` — the deterministic upper bound
  ``Σ_pivots cardinality(u_s, v_s)`` (free once the index is built);
* :func:`estimate_embeddings` — unbiased importance sampling: random
  root-to-leaf walks through the candidate tree, each step drawn
  proportionally to cardinality, each completed walk weighted by the
  inverse of its path probability (a Knuth/Chen-style tree-size
  estimator guided by CECI's cardinalities).

The estimator ignores the injectivity and symmetry constraints while
walking and verifies them per sample, so it is exact in expectation for
the same embedding set ``match()`` lists (with automorphism breaking
off — estimates count *all* automorphic listings; divide by
``SymmetryBreaker.automorphism_count()`` for the broken count on
symmetric queries).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .matcher import CECIMatcher

__all__ = [
    "cardinality_bound",
    "estimate_embeddings",
    "level_cardinalities",
    "plan_facts",
    "store_cardinality_bound",
    "EstimateResult",
]


class EstimateResult:
    """Outcome of a sampling run."""

    def __init__(self, estimate: float, samples: int, hits: int, bound: int) -> None:
        self.estimate = estimate
        self.samples = samples
        self.hits = hits
        self.bound = bound

    def __repr__(self) -> str:
        return (
            f"<EstimateResult ~{self.estimate:.1f} embeddings "
            f"({self.hits}/{self.samples} walks hit, bound {self.bound})>"
        )


def cardinality_bound(matcher: CECIMatcher) -> int:
    """Deterministic upper bound on the number of (unbroken) embeddings:
    the sum of cluster cardinalities."""
    return store_cardinality_bound(matcher.build())


def store_cardinality_bound(store) -> int:
    """:func:`cardinality_bound` computed directly from a built store
    — what the service uses, since a cache hit has a store but no
    matcher."""
    return int(sum(store.cluster_cardinality(pivot) for pivot in store.pivots))


def level_cardinalities(store) -> List[Tuple[int, int]]:
    """Per-level candidate cardinalities along the matching order:
    ``[(query vertex, |refined candidate set|), ...]`` — the sizes the
    enumerator actually walks, after filtering and refinement."""
    return [
        (int(u), int(len(store.candidates(u))))
        for u in store.tree.order
    ]


def plan_facts(store, query=None) -> dict:
    """The plan a built index embodies, as a JSON-ready dict.

    Works from the store alone so the service can explain cache *hits*
    (which never construct a matcher).  ``root_score`` here is the
    post-filter score ``|candidates(root)| / degree(root)`` — the same
    cost function root selection minimized, evaluated on the refined
    sets; a matcher that ran the selection itself overrides it with the
    pre-filter value (see ``CECIMatcher.plan_facts``).
    """
    tree = store.tree
    query = tree.query if query is None else query
    root = int(tree.root)
    root_candidates = int(len(store.candidates(root)))
    return {
        "root": root,
        "root_candidates": root_candidates,
        "root_score": root_candidates / (query.degree(root) or 1),
        "order": [int(u) for u in tree.order],
        "level_candidates": [
            [u, n] for u, n in level_cardinalities(store)
        ],
        "clusters": int(len(store.pivots)),
        "cardinality_bound": store_cardinality_bound(store),
    }


def estimate_embeddings(
    matcher: CECIMatcher,
    samples: int = 1000,
    seed: int = 0,
) -> EstimateResult:
    """Importance-sampled estimate of the embedding count.

    Each walk picks a pivot with probability proportional to its cluster
    cardinality, then at every level picks one matching node with
    probability proportional to its refined cardinality.  A walk that
    reaches a full, injective, edge-consistent mapping contributes the
    inverse of its selection probability; dead walks contribute zero.
    The estimator is unbiased for the count of unbroken embeddings.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ceci = matcher.build()
    enumerator = matcher.enumerator()
    tree = ceci.tree
    order = tree.order
    rng = random.Random(seed)

    pivots = [int(p) for p in ceci.pivots if ceci.cluster_cardinality(p) > 0]
    weights = [float(ceci.cluster_cardinality(p)) for p in pivots]
    total_weight = sum(weights)
    bound = int(total_weight)
    if not pivots or total_weight == 0.0:
        return EstimateResult(0.0, samples, 0, 0)

    accumulated = 0.0
    hits = 0
    for _ in range(samples):
        # pick the pivot ∝ cluster cardinality
        pick = rng.random() * total_weight
        index = 0
        while pick > weights[index]:
            pick -= weights[index]
            index += 1
        pivot = pivots[index]
        probability = weights[index] / total_weight

        mapping = [-1] * tree.query.num_vertices
        mapping[tree.root] = pivot
        used = {pivot}
        alive = True
        for depth in range(1, len(order)):
            u = order[depth]
            candidates = enumerator.matching_nodes(u, mapping)
            live: List[Tuple[int, float]] = []
            for v in candidates:
                v = int(v)
                if v in used:
                    continue
                weight = float(ceci.cardinality_of(u, v))
                if weight > 0.0:
                    live.append((v, weight))
            level_weight = sum(w for _, w in live)
            if level_weight == 0.0:
                alive = False
                break
            pick = rng.random() * level_weight
            for v, w in live:
                if pick <= w:
                    chosen, chosen_weight = v, w
                    break
                pick -= w
            probability *= chosen_weight / level_weight
            mapping[u] = chosen
            used.add(chosen)
        if alive:
            hits += 1
            accumulated += 1.0 / probability
    return EstimateResult(accumulated / samples, samples, hits, bound)
