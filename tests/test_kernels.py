"""The one k-way set intersection (repro.kernels.intersect).

It must agree with built-in ``set.intersection`` on adversarial shapes
— no lists, empty, singleton, disjoint, identical, heavily skewed, k=3
— and on random inputs, return a fresh array, and leave its inputs
untouched.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.kernels import intersect


def reference(lists):
    """Ground truth by built-in set semantics."""
    if not lists:
        return []
    return sorted(set(lists[0]).intersection(*lists[1:]))


def check(lists):
    """``intersect`` on int64 arrays equals :func:`reference` and leaves
    the arrays as they were."""
    arrays = [np.array(values, dtype=np.int64) for values in lists]
    before = [array.copy() for array in arrays]
    result = intersect(arrays)
    assert result.dtype == np.int64
    assert result.tolist() == reference(lists)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


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
def test_dispatch_matches_set_semantics(lists):
    check(lists)


@pytest.mark.parametrize("seed", range(60))
def test_kernels_agree_on_random_inputs(seed):
    rng = random.Random(seed)
    lists = []
    for _ in range(rng.randint(2, 5)):
        universe = rng.randint(1, 500)
        size = rng.randint(0, universe)
        lists.append(sorted(rng.sample(range(universe), size)))
    check(lists)
    # Plain Python lists are accepted too.
    assert intersect(lists).tolist() == reference(lists)


def test_kernel_results_are_fresh_lists():
    a = np.array([1, 2, 3], dtype=np.int64)
    b = np.array([2, 3, 4], dtype=np.int64)
    for lists in ([a, b], [a]):
        out = intersect(lists)
        assert out is not a and out is not b
        out[0] = 99  # mutating the result must not corrupt the inputs
        assert a.tolist() == [1, 2, 3] and b.tolist() == [2, 3, 4]


class TestIntersectSortedRegression:
    def test_outer_list_is_not_reordered(self):
        long = np.arange(100, dtype=np.int64)
        short = np.array([5, 50, 99], dtype=np.int64)
        lists = [long, short]
        assert intersect(lists).tolist() == [5, 50, 99]
        # Driving by the shortest array must not sort ``lists`` in place.
        assert lists[0] is long and lists[1] is short

    def test_unequal_lengths_any_order(self):
        a = list(range(0, 60, 3))
        b = list(range(0, 60, 2))
        c = list(range(0, 60, 5))
        expect = [v for v in range(0, 60, 6) if v % 5 == 0]
        assert intersect([a, b, c]).tolist() == expect
        assert intersect([c, b, a]).tolist() == expect
        assert intersect([b, c, a]).tolist() == expect
