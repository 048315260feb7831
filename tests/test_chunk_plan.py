"""Properties of the chunk cut every batched request goes through.

:func:`~repro.service.service.chunk_plan` cuts a request's pivots into
weight-balanced chunks by LPT over their cluster cardinalities, into
``chunk_count(pivots, workers)`` bins.  Over random weights and worker
counts the chunks must partition the pivots, there must be at most
``_CHUNKS_PER_WORKER * workers`` of them, a request of at most
``_CHUNK_PIVOTS`` pivots must be one chunk, and no chunk may weigh more
than the greedy list-scheduling bound.

That bound is Graham's ``total / n + (1 - 1/n) * heaviest``.  The
tighter-looking ``4/3 * max(heaviest, total / n)`` is not a property of
LPT, nor of any cut: four pivots of weight 1,000 and 61 of weight 1 on
one worker make three chunks, two heavy pivots must share one (2,000),
and ``4/3 * max(1,000, 4,061 / 3)`` is 1,804.9.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.service import service as service_module
from repro.service.service import chunk_count, chunk_plan

K = service_module._CHUNKS_PER_WORKER
P = service_module._CHUNK_PIVOTS


@st.composite
def _requests(draw):
    """(pivots, weights, workers): distinct pivot ids in index order,
    each with a weight of at least 1 (the service clamps cardinalities
    to 1), drawn from a few scales so some pivots dwarf the rest."""
    count = draw(st.integers(0, 12 * P))
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    weights = draw(st.lists(
        st.floats(1.0, scale, allow_nan=False), min_size=count,
        max_size=count,
    ))
    start = draw(st.integers(0, 10_000))
    pivots = list(range(start, start + 3 * count, 3))
    workers = draw(st.integers(1, 8))
    return pivots, weights, workers


@settings(max_examples=300, deadline=None)
@given(request=_requests())
def test_chunks_partition_the_pivots_within_the_lpt_bound(request):
    pivots, weights, workers = request
    plan, chunks = chunk_plan(pivots, weights, workers)
    # A partition: every pivot in exactly one non-empty chunk.
    assert all(chunks)
    assert sorted(p for chunk in chunks for p in chunk) == pivots
    n = chunk_count(len(pivots), workers)
    assert len(chunks) <= n <= K * workers
    if len(pivots) <= P:
        assert len(chunks) == (1 if pivots else 0)
    if not pivots:
        return
    # Each bin gets a pivot: LPT hands the n heaviest to n empty bins.
    assert len(chunks) == n
    weight = dict(zip(pivots, weights))
    loads = [sum(weight[p] for p in chunk) for chunk in chunks]
    assert math.isclose(max(loads), plan.makespan)
    total, heaviest = sum(weights), max(weights)
    bound = total / n + (1 - 1 / n) * heaviest
    assert max(loads) <= bound * (1 + 1e-9)

