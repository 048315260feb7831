"""Kernel equivalence and dispatch (repro.kernels).

Every kernel must agree with naive ``set.intersection`` on adversarial
shapes — empty, singleton, disjoint, identical, heavily skewed — and the
adaptive dispatcher must both pick sensible kernels and return the exact
same result regardless of which one it picks.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.kernels import (
    BITSET_MAX_SPAN,
    GALLOP_RATIO,
    choose_kernel,
    dispatch,
    intersect,
    intersect_bitset,
    intersect_gallop,
    intersect_merge,
    set_check_sorted,
    sorted_checks_enabled,
)
from repro.core.ceci import intersect_sorted

# The package re-exports a function named ``intersect`` which shadows the
# submodule attribute, so module internals (the numpy handle) are reached
# through sys.modules.
import repro.kernels.intersect  # noqa: F401  (registers the submodule)

_MODULE = sys.modules["repro.kernels.intersect"]

KERNELS = {
    "merge": intersect_merge,
    "gallop": intersect_gallop,
    "bitset": intersect_bitset,
}


def reference(lists):
    """Ground truth by built-in set semantics."""
    if not lists:
        return []
    result = set(lists[0])
    for values in lists[1:]:
        result &= set(values)
    return sorted(result)


ADVERSARIAL_CASES = [
    pytest.param([], id="no-lists"),
    pytest.param([[]], id="single-empty"),
    pytest.param([[5]], id="single-singleton"),
    pytest.param([list(range(10))], id="k1-passthrough"),
    pytest.param([[], [1, 2, 3]], id="empty-vs-nonempty"),
    pytest.param([[1, 2, 3], []], id="nonempty-vs-empty"),
    pytest.param([[7], [7]], id="matching-singletons"),
    pytest.param([[7], [8]], id="mismatching-singletons"),
    pytest.param([list(range(100)), list(range(100, 200))],
                 id="disjoint-ranges"),
    pytest.param([list(range(200, 300)), list(range(100))],
                 id="disjoint-ranges-reversed"),
    pytest.param([list(range(50)), list(range(50))], id="identical"),
    pytest.param([list(range(50)), list(range(50)), list(range(50))],
                 id="identical-x3"),
    pytest.param([list(range(0, 100, 2)), list(range(1, 100, 2))],
                 id="interleaved-disjoint"),
    pytest.param([[3, 50, 9999], list(range(10000))], id="skew-1-vs-10000"),
    pytest.param([list(range(10000)), [0, 9999]], id="skew-10000-vs-2"),
    pytest.param([[0, 10_000_000], [0, 10_000_000]], id="huge-span"),
    pytest.param([[-5, -3, 0, 2], [-4, -3, 2, 7]], id="negative-values"),
    pytest.param([list(range(64)), list(range(32, 96)),
                  list(range(16, 80))], id="k3-overlapping-windows"),
    pytest.param([[1, 2], [2, 3], [3, 4]], id="k3-pairwise-but-not-global"),
]


@pytest.mark.parametrize("lists", ADVERSARIAL_CASES)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_set_semantics(name, lists):
    assert KERNELS[name](lists) == reference(lists)


@pytest.mark.parametrize("lists", ADVERSARIAL_CASES)
def test_dispatch_matches_set_semantics(lists):
    name, result = dispatch(lists, "auto")
    assert result == reference(lists)
    if len(lists) < 2 or any(not values for values in lists):
        assert name == "trivial"
    else:
        assert name in KERNELS


@pytest.mark.parametrize("seed", range(25))
def test_kernels_agree_on_random_inputs(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    lists = []
    for _ in range(k):
        universe = rng.randint(1, 500)
        size = rng.randint(0, universe)
        lists.append(sorted(rng.sample(range(universe), size)))
    expect = reference(lists)
    for name, kernel in KERNELS.items():
        assert kernel(lists) == expect, name
    assert intersect(lists) == expect
    for name in KERNELS:
        assert intersect(lists, kernel=name) == expect


def test_bitset_fallback_path_without_numpy(monkeypatch):
    """The pure-Python bitset path must match the numpy path."""
    monkeypatch.setattr(_MODULE, "_np", None)
    rng = random.Random(99)
    for _ in range(20):
        lists = [
            sorted(rng.sample(range(256), rng.randint(0, 200)))
            for _ in range(rng.randint(2, 4))
        ]
        assert intersect_bitset(lists) == reference(lists)
    assert intersect_bitset([[3, 50, 9999], list(range(9999))]) == [3, 50]


def test_kernel_results_are_fresh_lists():
    a, b = [1, 2, 3], [2, 3, 4]
    for kernel in KERNELS.values():
        out = kernel([a, b])
        assert out == [2, 3]
        out.append(99)  # mutating the result must not corrupt the inputs
        assert a == [1, 2, 3] and b == [2, 3, 4]


# ----------------------------------------------------------------------
# Dispatcher choice
# ----------------------------------------------------------------------
class TestChooseKernel:
    def test_skewed_sizes_pick_gallop(self):
        short = [1, 500, 900]
        long = list(range(0, GALLOP_RATIO * len(short) * 10))
        assert choose_kernel([short, long]) == "gallop"
        assert dispatch([short, long])[0] == "gallop"

    def test_dense_small_span_picks_bitset(self):
        a = list(range(0, 512))
        b = list(range(256, 768))
        assert choose_kernel([a, b]) == "bitset"
        assert dispatch([a, b])[0] == "bitset"

    def test_sparse_comparable_sizes_pick_merge(self):
        step = 2 * BITSET_MAX_SPAN
        a = [i * step for i in range(64)]
        b = [i * step + step // 2 for i in range(64)] + [63 * step]
        assert choose_kernel([a, b]) == "merge"
        assert dispatch([a, b])[0] == "merge"

    def test_forced_kernel_is_honored(self):
        skewed = [[5], list(range(1000))]
        for name in KERNELS:
            got, result = dispatch(skewed, name)
            assert got == name
            assert result == [5]

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown intersection kernel"):
            dispatch([[1], [1]], "quantum")
        with pytest.raises(ValueError, match="unknown intersection kernel"):
            dispatch([[1], [1], [1]], "quantum")

    def test_k3_dispatch_agrees_with_choice(self):
        lists = [list(range(30)), list(range(10, 40)), list(range(20, 50))]
        name, result = dispatch(lists)
        assert name == choose_kernel(lists)
        assert result == reference(lists)


# ----------------------------------------------------------------------
# Sorted-input debug assertion
# ----------------------------------------------------------------------
class TestSortedChecks:
    def test_unsorted_input_raises_when_enabled(self):
        was = sorted_checks_enabled()
        set_check_sorted(True)
        try:
            with pytest.raises(AssertionError, match="strictly increasing"):
                intersect_merge([[3, 1, 2], [1, 2, 3]])
            with pytest.raises(AssertionError):
                dispatch([[1, 1], [1]])  # duplicates are not allowed either
            with pytest.raises(AssertionError):
                intersect_sorted([[1, 2], [9, 4]])
        finally:
            set_check_sorted(was)

    def test_disabled_by_default_and_restorable(self):
        was = sorted_checks_enabled()
        set_check_sorted(False)
        try:
            # Garbage in, garbage out — but no crash when checks are off.
            intersect_merge([[3, 1], [3, 1]])
        finally:
            set_check_sorted(was)


# ----------------------------------------------------------------------
# intersect_sorted regression (the parameter-shadowing bug)
# ----------------------------------------------------------------------
class TestIntersectSortedRegression:
    def test_outer_list_is_not_reordered(self):
        long = list(range(100))
        short = [5, 50, 99]
        lists = [long, short]
        assert intersect_sorted(lists) == [5, 50, 99]
        # The historical bug sorted ``lists`` in place (shortest first).
        assert lists[0] is long and lists[1] is short

    def test_unequal_lengths_any_order(self):
        a = list(range(0, 60, 3))
        b = list(range(0, 60, 2))
        c = list(range(0, 60, 5))
        expect = [v for v in range(0, 60, 6) if v % 5 == 0]
        assert intersect_sorted([a, b, c]) == expect
        assert intersect_sorted([c, b, a]) == expect
        assert intersect_sorted([b, c, a]) == expect
