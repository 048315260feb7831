"""Cardinality facts of a built CECI.

Section 7: "approximate subgraph count estimators calculate the number
of a given query graph in data graphs [3, 6, 12].  Although these works
have better scalability, they do not provide the individual embeddings
unlike CECI system."  The refined CECI carries a count bound for free:
the per-candidate cardinalities from Algorithm 2 are exact upper-bound
weights over the search tree, so :func:`cardinality_bound` —
``Σ_pivots cardinality(u_s, v_s)`` — bounds the number of (unbroken)
embeddings once the index is built.  The service reads the same facts
(:func:`plan_facts`) to explain each request's plan.
"""

from __future__ import annotations

from typing import List, Tuple

from .matcher import CECIMatcher

__all__ = [
    "cardinality_bound",
    "level_cardinalities",
    "plan_facts",
    "store_cardinality_bound",
]


def cardinality_bound(matcher: CECIMatcher) -> int:
    """Deterministic upper bound on the number of (unbroken) embeddings:
    the sum of cluster cardinalities."""
    return store_cardinality_bound(matcher.build())


def store_cardinality_bound(store) -> int:
    """:func:`cardinality_bound` computed directly from a built store
    — what the service uses, since a cache hit has a store but no
    matcher."""
    return sum(store.cluster_cardinalities().tolist())


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
