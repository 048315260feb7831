"""Sorted-set intersection over int64 arrays (DESIGN.md §7).

The k-way intersection of sorted candidate lists is the primitive of
CECI (Lemma 2).  Every function here works on strictly increasing int64
numpy arrays — the layout of the compact store's CSR triples — and does
its work in whole-array ``np.searchsorted`` calls:

* :func:`searchsorted_blocks` / :func:`expand_blocks` — locate and
  gather the candidate block of every frontier row at once (the batch
  engine's TE expansion);
* :func:`member_mask` — batched membership of many needles in one
  sorted haystack, or in a :func:`code_bitmap` of it (the batch
  engine's TE∩NTE probe);
* :func:`intersect` — k-way intersection of a handful of sorted arrays
  (ExtremeCluster splitting's matching nodes).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "code_bitmap",
    "expand_blocks",
    "intersect",
    "member_mask",
    "searchsorted_blocks",
]


#: ``_BITS[i]`` is the byte with only bit ``i`` set.
_BITS = np.array([1 << i for i in range(8)], dtype=np.uint8)


def searchsorted_blocks(keys, offsets, probes):
    """Locate the value block of each probe key in a ``(keys, offsets,
    values)`` CSR triple.

    Returns ``(starts, counts)`` int64 arrays of ``len(probes)``:
    ``values[starts[i]:starts[i]+counts[i]]`` are probe ``i``'s values
    (``counts[i] == 0`` when the key is absent).  Vectorised equivalent
    of calling ``lookup_pairs`` once per probe.
    """
    n = len(keys)
    total = len(probes)
    if n == 0 or total == 0:
        zeros = np.zeros(total, dtype=np.int64)
        return zeros, zeros.copy()
    idx = np.searchsorted(keys, probes)
    idx_c = np.minimum(idx, n - 1)
    found = keys[idx_c] == probes
    starts = np.where(found, offsets[idx_c], 0)
    counts = np.where(found, offsets[idx_c + 1] - offsets[idx_c], 0)
    return starts.astype(np.int64, copy=False), counts.astype(
        np.int64, copy=False
    )


def expand_blocks(values, starts, counts):
    """Gather the ragged value blocks located by
    :func:`searchsorted_blocks` into flat arrays.

    Returns ``(rows, out)``: ``out`` is every block's values
    concatenated in probe order, ``rows[i]`` the probe index that
    produced ``out[i]``.  This is the frontier-expansion gather: one
    partial embedding (probe) fans out into ``counts[i]`` extensions.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ends = np.cumsum(counts)
    firsts = ends - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(firsts, counts)
    return rows, values[np.repeat(starts, counts) + within]


def code_bitmap(codes, size: int) -> np.ndarray:
    """A bitmap of the code space ``[0, size)``: bit ``c & 7`` of byte
    ``c >> 3`` is set iff ``c`` occurs in the strictly increasing int64
    array ``codes``.  :func:`member_mask` answers a needle from it with
    one byte gather and a mask, instead of a binary search."""
    bits = np.zeros((size + 7) >> 3, dtype=np.uint8)
    if len(codes):
        byte = codes >> 3
        # Sorted codes give non-decreasing bytes: OR each byte's run of
        # bits together in one ``reduceat``.
        first = np.flatnonzero(np.diff(byte, prepend=-1))
        bits[byte[first]] = np.bitwise_or.reduceat(
            np.take(_BITS, codes & 7), first
        )
    return bits


def member_mask(haystack, needles):
    """Boolean mask: which ``needles`` occur in ``haystack``.

    ``haystack`` is a strictly increasing int64 array, answered with one
    vectorised ``np.searchsorted`` (the batched form of the
    per-candidate binary-search membership test), or the uint8
    :func:`code_bitmap` of one, answered with one byte gather; every
    needle must then lie in the bitmap's code space.
    """
    if haystack.dtype == np.uint8:
        bits = np.take(haystack, needles >> 3) & np.take(_BITS, needles & 7)
        return bits != 0
    n = len(haystack)
    if n == 0:
        return np.zeros(len(needles), dtype=bool)
    pos = np.minimum(np.searchsorted(haystack, needles), n - 1)
    return haystack[pos] == needles


def intersect(lists: Sequence) -> np.ndarray:
    """k-way intersection of strictly increasing int64 arrays.

    The shortest array drives; each other array filters it with one
    :func:`member_mask` probe, so the running result only shrinks.  The
    result is a new sorted int64 array (empty for no inputs).
    """
    arrays = sorted(
        (np.asarray(values, dtype=np.int64) for values in lists), key=len
    )
    if not arrays:
        return np.empty(0, dtype=np.int64)
    current = arrays[0]
    for other in arrays[1:]:
        if len(current) == 0:
            break
        current = current[member_mask(other, current)]
    # Fresh even when no probe ran, so a caller may mutate the result.
    return current.copy() if current is arrays[0] else current
