"""Adaptive sorted-set intersection kernels and the batch engine's
array primitives.

The k-way intersection of sorted candidate lists is the primitive of
CECI (Lemma 2).  This subpackage provides three interchangeable list
kernels — linear merge, galloping search, and bitset — behind an
adaptive dispatcher that picks by size ratio and density (refinement's
NTE membership step and TurboIso's intersection variant use it), plus
the whole-array searchsorted / gather / membership primitives the batch
engine expands frontiers with.  See DESIGN.md §7 for the dispatch rules.
"""

from .intersect import (
    BITSET_MAX_SPAN,
    BITSET_MIN_DENSITY,
    BITSET_MIN_SHORTEST,
    GALLOP_RATIO,
    KERNEL_CHOICES,
    KERNEL_NAMES,
    choose_kernel,
    dispatch,
    expand_blocks,
    intersect,
    intersect_bitset,
    intersect_gallop,
    intersect_merge,
    intersect_ndarray,
    kernel_observer,
    maybe_assert_sorted,
    member_mask,
    searchsorted_blocks,
    set_check_sorted,
    set_kernel_observer,
    sorted_checks_enabled,
)

__all__ = [
    "BITSET_MAX_SPAN",
    "BITSET_MIN_DENSITY",
    "BITSET_MIN_SHORTEST",
    "GALLOP_RATIO",
    "KERNEL_CHOICES",
    "KERNEL_NAMES",
    "choose_kernel",
    "dispatch",
    "expand_blocks",
    "intersect",
    "intersect_bitset",
    "intersect_gallop",
    "intersect_merge",
    "intersect_ndarray",
    "kernel_observer",
    "maybe_assert_sorted",
    "member_mask",
    "searchsorted_blocks",
    "set_check_sorted",
    "set_kernel_observer",
    "sorted_checks_enabled",
]
