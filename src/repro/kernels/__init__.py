"""Sorted-set intersection: the batch engine's whole-array primitives
and one k-way :func:`intersect` (DESIGN.md §7).

The k-way intersection of sorted candidate lists is the primitive of
CECI (Lemma 2).  The batch engine expands and filters whole frontiers
with :func:`searchsorted_blocks`, :func:`expand_blocks` and
:func:`member_mask` (over sorted codes, or a :func:`code_bitmap` of
them where the code space is dense); :func:`intersect` serves the few
callers that intersect a handful of store slices at a time.
"""

from .intersect import (
    code_bitmap,
    expand_blocks,
    intersect,
    member_mask,
    searchsorted_blocks,
)

__all__ = [
    "code_bitmap",
    "expand_blocks",
    "intersect",
    "member_mask",
    "searchsorted_blocks",
]
