"""CECI core: the paper's primary contribution."""

from .automorphism import (
    SymmetryBreaker,
    automorphisms,
    equivalence_groups,
    gk_conditions,
)
from .ceci import CECI
from .clusters import WorkUnit, clusters_of, decompose_extreme_clusters
from .estimate import cardinality_bound
from .enumeration import Embedding, Enumerator
from .filtering import FilterConfig, build_ceci
from .matcher import CECIMatcher, count_embeddings, find_embedding, match
from .matching_order import (
    bfs_order,
    edge_ranked_order,
    make_order,
    path_ranked_order,
)
from .query_tree import QueryTree
from .persist import dump_store_bytes, load_ceci, load_store_bytes, save_ceci
from .refinement import refine_ceci
from .root_selection import initial_candidates, select_root
from .stats import MatchStats
from .store import CompactCECI

__all__ = [
    "CECI",
    "CECIMatcher",
    "CompactCECI",
    "Embedding",
    "Enumerator",
    "FilterConfig",
    "MatchStats",
    "QueryTree",
    "SymmetryBreaker",
    "WorkUnit",
    "automorphisms",
    "bfs_order",
    "build_ceci",
    "clusters_of",
    "cardinality_bound",
    "count_embeddings",
    "decompose_extreme_clusters",
    "edge_ranked_order",
    "equivalence_groups",
    "dump_store_bytes",
    "find_embedding",
    "gk_conditions",
    "initial_candidates",
    "load_ceci",
    "load_store_bytes",
    "make_order",
    "match",
    "path_ranked_order",
    "refine_ceci",
    "save_ceci",
    "select_root",
]
