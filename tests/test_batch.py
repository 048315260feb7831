"""Property and metamorphic tests for the set-at-a-time batch engine.

The batched frontier join (DESIGN.md §12) must be an *exact* drop-in
for the per-embedding recursion: every vectorised primitive is checked
against its scalar counterpart on random inputs, and the full engine is
checked against the edge-verification recursion (``use_intersection=
False``, its independent reference) for identical embedding **order**
(not just sets), identical ``limit`` prefixes, and identical budget
truncation points.
"""

from __future__ import annotations

import functools
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_labeled_instance
from repro.baselines.cflmatch import CFLMatcher
from repro.core import batch as batch_module
from repro.core.batch import (
    BatchEngine,
    batch_capable,
    used_exclusion_mask,
)
from repro.core.enumeration import Enumerator, embedding_tuples
from repro.core.matcher import CECIMatcher
from repro.core.stats import MatchStats
from repro.core.store import encode_pairs, lookup_pairs
from repro.graph import Graph, power_law
from repro.kernels import expand_blocks, member_mask, searchsorted_blocks
from repro.resilience import Budget


def _random_triple(rng: random.Random):
    """A random CSR (keys, offsets, values) triple as encode_pairs
    builds it: sorted unique keys, per-key sorted value runs (duplicate
    values allowed — multigraph-shaped runs must round-trip too)."""
    mapping = {}
    for key in rng.sample(range(50), rng.randint(0, 12)):
        run = sorted(rng.choices(range(200), k=rng.randint(1, 9)))
        mapping[key] = run
    return mapping, encode_pairs(mapping)


class TestFrontierJoinPrimitives:
    """searchsorted_blocks + expand_blocks == per-row lookup_pairs."""

    @pytest.mark.parametrize("seed", range(30))
    def test_batched_join_equals_per_row_lookup(self, seed):
        rng = random.Random(seed)
        mapping, triple = _random_triple(rng)
        # Probe present keys, absent keys, and *duplicates* of both —
        # a frontier routinely probes the same parent match many times.
        probes = rng.choices(range(60), k=rng.randint(0, 40))
        probe_arr = np.asarray(probes, dtype=np.int64)

        keys, offsets, values_arr = triple
        starts, counts = searchsorted_blocks(keys, offsets, probe_arr)
        rows, values = expand_blocks(values_arr, starts, counts)

        expected_rows, expected_values = [], []
        for i, key in enumerate(probes):
            for v in lookup_pairs(triple, key):
                expected_rows.append(i)
                expected_values.append(int(v))
        assert rows.tolist() == expected_rows
        assert values.tolist() == expected_values
        # And per-probe block sizes agree with the scalar lookup.
        assert counts.tolist() == [
            len(lookup_pairs(triple, key)) for key in probes
        ]

    def test_empty_frontier(self):
        _, (keys, offsets, values_arr) = _random_triple(random.Random(3))
        empty = np.empty(0, dtype=np.int64)
        starts, counts = searchsorted_blocks(keys, offsets, empty)
        assert len(starts) == len(counts) == 0
        rows, values = expand_blocks(values_arr, starts, counts)
        assert len(rows) == len(values) == 0

    def test_empty_triple(self):
        keys, offsets, values_arr = encode_pairs({})
        probes = np.asarray([0, 7, 7, 99], dtype=np.int64)
        starts, counts = searchsorted_blocks(keys, offsets, probes)
        assert counts.tolist() == [0, 0, 0, 0]
        rows, values = expand_blocks(values_arr, starts, counts)
        assert len(rows) == len(values) == 0

    def test_probe_beyond_last_key(self):
        keys, offsets, _ = encode_pairs({5: [1, 2]})
        probes = np.asarray([4, 5, 6, 10**9], dtype=np.int64)
        _, counts = searchsorted_blocks(keys, offsets, probes)
        assert counts.tolist() == [0, 2, 0, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_member_mask_equals_set_membership(self, seed):
        rng = random.Random(seed * 11 + 5)
        haystack = np.unique(
            np.asarray(
                rng.choices(range(100), k=rng.randint(0, 25)), dtype=np.int64
            )
        )
        needles = np.asarray(
            rng.choices(range(120), k=rng.randint(0, 40)), dtype=np.int64
        )
        present = set(haystack.tolist())
        mask = member_mask(haystack, needles)
        assert mask.tolist() == [int(n) in present for n in needles]

    def test_member_mask_empty_haystack(self):
        needles = np.asarray([1, 2, 3], dtype=np.int64)
        assert not member_mask(np.empty(0, dtype=np.int64), needles).any()


class TestUsedExclusionMask:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_set_based_exclusion(self, seed):
        rng = random.Random(seed * 7 + 2)
        n_rows, n_cols = rng.randint(1, 12), rng.randint(2, 6)
        frontier = np.asarray(
            [
                [rng.randint(-1, 8) for _ in range(n_cols)]
                for _ in range(n_rows)
            ],
            dtype=np.int64,
        )
        used_cols = rng.sample(range(n_cols), rng.randint(0, n_cols))
        rows = np.asarray(
            rng.choices(range(n_rows), k=rng.randint(0, 20)), dtype=np.int64
        )
        cand = np.asarray(
            [rng.randint(0, 8) for _ in range(len(rows))], dtype=np.int64
        )
        mask = used_exclusion_mask(frontier, rows, cand, used_cols)
        expected = [
            int(c) not in {int(frontier[r, col]) for col in used_cols}
            for r, c in zip(rows, cand)
        ]
        assert mask.tolist() == expected

    def test_no_used_cols_keeps_everything(self):
        frontier = np.asarray([[3, -1]], dtype=np.int64)
        rows = np.zeros(4, dtype=np.int64)
        cand = np.asarray([0, 1, 2, 3], dtype=np.int64)
        assert used_exclusion_mask(frontier, rows, cand, ()).all()


def _instances(count):
    built = []
    seed = 0
    while len(built) < count:
        instance = random_labeled_instance(seed)
        seed += 1
        if instance is not None:
            built.append(instance)
    return built


def _nte_instance():
    """The first fixed instance whose query has a non-tree edge (so the
    verification matcher really runs the recursion)."""
    for query, data in _instances(5):
        if query.num_edges >= query.num_vertices:
            return query, data
    raise AssertionError("no fixed instance with a non-tree edge")


def _pair(query, data, **kwargs):
    """(batch matcher, verification-recursion matcher) over the same
    instance; on an NTE-free query both run the batch engine."""
    batch = CECIMatcher(query, data, **kwargs)
    recursive = CECIMatcher(query, data, use_intersection=False, **kwargs)
    return batch, recursive

#: ``intersections`` the per-embedding TE∩NTE recursion reported on
#: ``_instances(5)`` (symmetry off) before it was retired; the batch
#: engine keeps its one-per-non-empty-TE-base counting convention.
RECURSIVE_INTERSECTIONS = [0, 0, 6, 5, 40]


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_order_parity(self, seed):
        instance = random_labeled_instance(seed)
        if instance is None:
            pytest.skip("seed yields no connected query")
        query, data = instance
        batch, recursive = _pair(query, data, break_automorphisms=False)
        assert batch.match() == recursive.match()  # order, not just set

    @pytest.mark.parametrize("seed", [2, 5, 9])
    def test_symmetry_broken_order_parity(self, seed):
        instance = random_labeled_instance(seed)
        if instance is None:
            pytest.skip("seed yields no connected query")
        query, data = instance
        batch, recursive = _pair(query, data, break_automorphisms=True)
        assert batch.match() == recursive.match()

    @pytest.mark.parametrize("limit", [1, 2, 5, 17])
    def test_limit_prefixes_identical(self, limit):
        for query, data in _instances(6):
            batch, recursive = _pair(query, data, break_automorphisms=False)
            assert batch.match(limit=limit) == recursive.match(limit=limit)

    def test_count_matches_collect(self):
        for query, data in _instances(4):
            matcher = CECIMatcher(query, data)
            count = matcher.count()
            assert count == len(matcher.match())

    def test_work_counters_identical(self):
        """The batch engine must *account* like the recursion, not just
        answer like it: calls are the same numbers, and intersections
        match the retired TE∩NTE recursion's pinned counts."""
        for (query, data), pinned in zip(
            _instances(5), RECURSIVE_INTERSECTIONS
        ):
            batch, recursive = _pair(query, data, break_automorphisms=False)
            batch.match()
            recursive.match()
            assert batch.stats.recursive_calls == (
                recursive.stats.recursive_calls
            )
            assert batch.stats.intersections == pinned
            assert recursive.stats.intersections == 0

    def test_batch_counters_only_on_batch_engine(self):
        query, data = _nte_instance()
        batch, recursive = _pair(query, data)
        batch.match()
        recursive.match()
        assert batch.stats.batch_blocks > 0
        assert batch.stats.batch_rows >= batch.stats.batch_blocks
        assert recursive.stats.batch_blocks == 0
        assert recursive.stats.batch_rows == 0
        assert recursive.stats.edge_verifications > 0


class TestUnitPrefixParity:
    def _enumerators(self, query, data):
        out = []
        for use_intersection in (True, False):
            matcher = CECIMatcher(
                query, data, use_intersection=use_intersection,
                break_automorphisms=False,
            )
            ceci = matcher.build()
            out.append(
                (
                    matcher,
                    Enumerator(
                        ceci,
                        symmetry=matcher.symmetry,
                        use_intersection=use_intersection,
                        stats=matcher.stats,
                    ),
                )
            )
        return out

    def test_unit_streams_identical(self):
        for query, data in _instances(4):
            (bm, be), (rm, re_) = self._enumerators(query, data)
            for unit in bm.work_units(beta=None):
                got = be.collect_from_unit(unit.prefix)
                want = re_.collect_from_unit(unit.prefix)
                assert got == want, unit.prefix

    def test_collect_from_unit_respects_limit(self):
        query, data = _instances(1)[0]
        (bm, be), (rm, re_) = self._enumerators(query, data)
        for unit in bm.work_units(beta=None):
            assert be.collect_from_unit(unit.prefix, limit=2) == (
                re_.collect_from_unit(unit.prefix, limit=2)
            )

    def test_dead_prefix_yields_nothing(self):
        """A prefix reusing one data vertex twice is injectivity-dead;
        both engines must return an empty stream, not crash."""
        query = Graph(3, [(0, 1), (1, 2), (0, 2)])
        data = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        (bm, be), (rm, re_) = self._enumerators(query, data)
        dead = (0, 0)
        assert be.collect_from_unit(dead) == []
        assert re_.collect_from_unit(dead) == []

    def test_overlong_prefix_rejected(self):
        query = Graph(2, [(0, 1)])
        data = Graph(3, [(0, 1), (1, 2)])
        (bm, be), _ = self._enumerators(query, data)
        with pytest.raises(ValueError):
            be.collect_from_unit((0, 1, 2))


class TestEntryPointAgreement:
    """Every ``Enumerator`` entry point reads one block stream, so under
    any budget shape they must agree on the rows, the flags and the
    call count — on both engines."""

    @staticmethod
    def _run(matcher, use_intersection, budget, method, *args):
        """``method(*args)`` on a fresh enumerator over ``matcher``'s
        index, with ``(truncated, stop_reason, recursive_calls)``."""
        enumerator = Enumerator(
            matcher.build(),
            symmetry=matcher.symmetry,
            use_intersection=use_intersection,
            budget=budget,
        )
        result = getattr(enumerator, method)(*args)
        if method == "embeddings":
            result = list(result)
        return result, (
            enumerator.truncated,
            enumerator.stop_reason,
            enumerator.stats.recursive_calls,
        )

    @pytest.mark.parametrize(
        "shape", ["unbounded", "limit", "max_calls", "max_embeddings"]
    )
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 400),
        cut=st.integers(1, 30),
        use_intersection=st.booleans(),
        symmetric=st.booleans(),
    )
    def test_entry_points_agree(
        self, shape, seed, cut, use_intersection, symmetric
    ):
        instance = random_labeled_instance(seed)
        assume(instance is not None)
        query, data = instance
        matcher = CECIMatcher(
            query, data, use_intersection=use_intersection,
            break_automorphisms=symmetric,
        )
        limit = cut if shape == "limit" else None
        budget = None
        if shape in ("max_calls", "max_embeddings"):
            budget = Budget(**{shape: cut})
        run = functools.partial(self._run, matcher, use_intersection, budget)

        rows, outcome = run("collect", limit)
        assert run("embeddings", limit) == (rows, outcome)
        assert run("count", limit) == (len(rows), outcome)

        # A share in LPT-like (unsorted) order runs as the sorted units:
        # its packed rows are the whole-index stream under the same
        # budget, each pivot's rows one contiguous run.
        full, full_outcome = run("collect", None)
        store = matcher.build()
        share = [int(p) for p in store.pivots][::-1]
        rows, rows_outcome = run("collect_rows", share)
        assert rows.shape == (len(full), query.num_vertices)
        assert embedding_tuples(rows) == full
        assert rows_outcome == full_outcome
        if not rows_outcome[0]:
            parts = _split_rows(rows, store.tree.root)
            for pivot in share:
                alone, _ = run("collect_from_unit", (pivot,))
                assert parts.get(pivot, []) == alone, pivot


    @pytest.mark.parametrize("shape", ["limit", "max_embeddings"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 400), symmetric=st.booleans())
    def test_one_embedding_left_charges_the_recursion_calls(
        self, shape, seed, symmetric
    ):
        """With one embedding to find, the batch engine's chunks are
        single rows, so every entry point charges the verification
        recursion's calls at the cut, not just its rows and flags."""
        instance = random_labeled_instance(seed)
        assume(instance is not None)
        query, data = instance
        matcher = CECIMatcher(query, data, break_automorphisms=symmetric)
        limit = 1 if shape == "limit" else None
        budget = Budget(max_embeddings=1) if shape != "limit" else None
        for method in ("collect", "embeddings", "count"):
            batch = self._run(matcher, True, budget, method, limit)
            recursion = self._run(matcher, False, budget, method, limit)
            assert batch == recursion, method


class TestBudgetTruncationParity:
    """Budget axes must cut the batch stream at the *same embedding* as
    the recursive engine — PartialResult semantics are part of the
    engine contract, not an approximation."""

    def _run(self, query, data, engine, budget):
        matcher = CECIMatcher(
            query, data, use_intersection=engine == "batch", budget=budget,
            break_automorphisms=False,
        )
        result = matcher.run()
        return result, matcher

    @pytest.mark.parametrize("max_embeddings", [1, 3, 8])
    def test_max_embeddings_identical_prefix(self, max_embeddings):
        for query, data in _instances(4):
            budget = Budget(max_embeddings=max_embeddings)
            b_result, _ = self._run(query, data, "batch", budget)
            r_result, _ = self._run(query, data, "recursive", budget)
            assert list(b_result) == list(r_result)
            assert b_result.truncated == r_result.truncated
            assert b_result.stop_reason == r_result.stop_reason

    @pytest.mark.parametrize("max_calls", [1, 5, 20, 200])
    def test_max_calls_identical_prefix(self, max_calls):
        for query, data in _instances(4):
            budget = Budget(max_calls=max_calls)
            b_result, bm = self._run(query, data, "batch", budget)
            r_result, rm = self._run(query, data, "recursive", budget)
            assert list(b_result) == list(r_result)
            assert b_result.stop_reason == r_result.stop_reason
            assert bm.stats.recursive_calls == rm.stats.recursive_calls

    def test_max_memory_identical_prefix(self):
        for query, data in _instances(3):
            budget = Budget(max_memory_bytes=400)
            b_result, _ = self._run(query, data, "batch", budget)
            r_result, _ = self._run(query, data, "recursive", budget)
            assert list(b_result) == list(r_result)
            assert b_result.stop_reason == r_result.stop_reason


class TestEngineSelection:
    """No knob: the inputs pick the path (DESIGN.md §12)."""

    def test_auto_picks_batch_on_compact_intersection(self):
        query, data = _nte_instance()
        assert CECIMatcher(query, data).enumerator().engine == "batch"

    def test_verification_with_nte_runs_recursion(self):
        query, data = _nte_instance()
        matcher = CECIMatcher(query, data, use_intersection=False)
        assert matcher.enumerator().engine == "recursive"

    def test_nte_free_query_always_batches(self):
        query = Graph(3, [(0, 1), (1, 2)])
        data = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for use_intersection in (True, False):
            matcher = CECIMatcher(
                query, data, use_intersection=use_intersection
            )
            assert matcher.enumerator().engine == "batch"

    def test_unknown_engine_rejected(self):
        """The engine knob is gone: passing one is an error."""
        query, data = _instances(1)[0]
        for option in ("engine", "store", "cache_size"):
            with pytest.raises(TypeError):
                CECIMatcher(query, data, **{option: "batch"})

    def test_batch_capable_requires_intersection(self):
        query, data = _nte_instance()
        ceci = CECIMatcher(query, data).build()
        assert batch_capable(ceci, use_intersection=True)
        assert not batch_capable(ceci, use_intersection=False)
        ceci.nte_built = False  # a TE-only index facing a non-tree edge
        assert not batch_capable(ceci, use_intersection=True)


class TestBatchEngineInternals:
    def _engine(self, query, data):
        matcher = CECIMatcher(query, data, break_automorphisms=False)
        ceci = matcher.build()
        return BatchEngine(ceci, matcher.symmetry, matcher.stats), matcher

    def test_root_frontier_shape(self):
        query, data = _instances(1)[0]
        engine, matcher = self._engine(query, data)
        pivots = engine.ceci.pivots
        frontier = engine.root_frontier(pivots)
        assert frontier.shape == (len(pivots), query.num_vertices)
        root = engine.tree.root
        assert frontier[:, root].tolist() == [int(p) for p in pivots]
        others = [c for c in range(query.num_vertices) if c != root]
        if others and len(frontier):
            assert (frontier[:, others] == -1).all()

    def test_seed_frontier_dead_prefix_is_none(self):
        query = Graph(3, [(0, 1), (1, 2), (0, 2)])
        data = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        engine, _ = self._engine(query, data)
        assert engine.seed_frontier((0, 0)) is None

    def test_blocks_stream_in_dfs_order(self):
        query, data = _nte_instance()
        engine, matcher = self._engine(query, data)
        frontier = engine.root_frontier(engine.ceci.pivots)
        streamed = [
            tuple(row)
            for block in engine.blocks(frontier, 1, [None])
            for row in block.tolist()
        ]
        recursive = CECIMatcher(
            query, data, use_intersection=False, break_automorphisms=False
        )
        assert streamed == recursive.match()


#: Queries whose levels intersect one or two NTE groups: the diamond
#: (4-cycle plus chord), K4, and Figure 6's QG5 (two squares sharing an
#: edge).
HUB_QUERIES = {
    "diamond": Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    "k4": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "qg5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
}


def _hub_data(n: int, m: int, hubs: int, seed: int) -> Graph:
    """A power-law graph whose first ``hubs`` vertices are joined to
    every other vertex: rows keyed by a hub see long TE blocks next to
    short NTE blocks (and the reverse), so drivers mix in one block."""
    edges = set(power_law(n, m, seed=seed).edges)
    for h in range(hubs):
        edges.update((h, v) for v in range(h + 1, n))
    return Graph(n, sorted(edges))


def _counting_recursion(ceci, symmetry):
    """An edge-verification enumerator over ``ceci`` plus a one-cell
    counter of its TE∩NTE steps: calls of ``matching_nodes`` at a level
    with NTE parents whose TE block is non-empty."""
    tree = ceci.tree
    recursion = Enumerator(ceci, symmetry=symmetry, use_intersection=False)
    steps = [0]
    plain = recursion.matching_nodes

    def counting(u, mapping):
        if tree.nte_parents[u] and len(
            ceci.te_values(u, mapping[tree.parent[u]])
        ):
            steps[0] += 1
        return plain(u, mapping)

    recursion.matching_nodes = counting
    return recursion, steps


class TestShortestListDrives:
    """Each row's shortest candidate block drives the TE∩NTE step; the
    answers and the accounting must still be the verification
    recursion's, row for row (DESIGN.md §12)."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 36),
        m=st.integers(1, 3),
        hubs=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        shape=st.sampled_from(sorted(HUB_QUERIES)),
        symmetry=st.booleans(),
        refined=st.booleans(),
        cut=st.integers(1, 80),
    )
    def test_rows_and_counters_equal_verification(
        self, n, m, hubs, seed, shape, symmetry, refined, cut
    ):
        # Unrefined, the index keeps dead-end candidates, so more rows
        # reach the TE∩NTE steps and die there.
        matcher = CECIMatcher(
            HUB_QUERIES[shape],
            _hub_data(n, m, hubs, seed),
            break_automorphisms=symmetry,
            use_refinement=refined,
        )
        ceci = matcher.build()
        batch = Enumerator(ceci, symmetry=matcher.symmetry)
        assert batch.engine == "batch"
        recursion, te_steps = _counting_recursion(ceci, matcher.symmetry)
        assert recursion.engine == "recursive"
        assert batch.collect() == recursion.collect()
        assert batch.stats.recursive_calls == recursion.stats.recursive_calls
        assert batch.stats.intersections == te_steps[0]

        def fresh(use_intersection, **kwargs):
            return Enumerator(
                ceci,
                symmetry=matcher.symmetry,
                use_intersection=use_intersection,
                **kwargs,
            )

        assert fresh(True).collect(cut) == fresh(False).collect(cut)
        b, r = fresh(True), fresh(False)
        assert b.collect(1) == r.collect(1)
        assert b.stats.recursive_calls == r.stats.recursive_calls
        for budget in (
            Budget(max_calls=cut),
            Budget(max_embeddings=cut),
            Budget(max_embeddings=1),
        ):
            b, r = fresh(True, budget=budget), fresh(False, budget=budget)
            assert b.collect() == r.collect()
            assert (b.truncated, b.stop_reason) == (
                r.truncated, r.stop_reason
            )
            if budget.max_calls is not None or budget.max_embeddings == 1:
                # Single-row chunks (under max_calls, or with one
                # embedding left to find) make the charge order, so the
                # call count at the cut, the DFS's.
                assert b.stats.recursive_calls == r.stats.recursive_calls

    def test_gathers_at_most_the_shortest_block(self, monkeypatch):
        """On a hub instance each TE∩NTE step gathers no more than
        Σ_rows min(block sizes), TE and NTE drivers mix within one
        block, and the total stays below the TE blocks' sum."""
        matcher = CECIMatcher(
            HUB_QUERIES["k4"], _hub_data(40, 2, 2, 3),
            break_automorphisms=False,
        )
        ceci = matcher.build()
        tree = ceci.tree
        #: One dict per TE∩NTE step: candidates gathered, Σ_rows min
        #: block size, Σ_rows TE block size, which sources drove.
        steps = []
        expand = batch_module.expand_blocks
        candidates = BatchEngine._candidates

        def counting_expand(values, starts, counts):
            rows, out = expand(values, starts, counts)
            if steps:
                steps[-1]["gathered"] += len(out)
                steps[-1]["drivers"].add(
                    "te" if values is steps[-1]["te"] else "nte"
                )
            return rows, out

        def bounded_candidates(self, frontier, level):
            u = level.u
            if not tree.nte_parents[u]:
                return candidates(self, frontier, level)
            step = dict(gathered=0, bound=0, te_total=0, drivers=set())
            step["te"] = ceci.te[u][2]
            for row in frontier.tolist():
                te = len(ceci.te_values(u, row[tree.parent[u]]))
                nte = [
                    len(ceci.nte_values(u, u_n, row[u_n]))
                    for u_n in tree.nte_parents[u]
                ]
                step["bound"] += min([te, *nte])
                step["te_total"] += te
            steps.append(step)
            return candidates(self, frontier, level)

        monkeypatch.setattr(batch_module, "expand_blocks", counting_expand)
        monkeypatch.setattr(BatchEngine, "_candidates", bounded_candidates)
        found = Enumerator(ceci, symmetry=matcher.symmetry).collect()
        recursion = Enumerator(
            ceci, symmetry=matcher.symmetry, use_intersection=False
        )
        assert found == recursion.collect()
        assert steps
        for step in steps:
            assert step["gathered"] <= step["bound"]
        assert any(step["drivers"] == {"te", "nte"} for step in steps)
        assert sum(step["gathered"] for step in steps) < sum(
            step["te_total"] for step in steps
        )


def _lpt_share(store):
    """Every pivot of ``store`` in LPT order: descending cluster
    cardinality, so not sorted by id."""
    return sorted(
        (int(p) for p in store.pivots),
        key=lambda p: (-store.cluster_cardinality(p), p),
    )


def _split_rows(rows, root):
    """``{pivot: [embedding tuples]}`` of a packed share, checking that
    the pivots come in sorted order, each as one contiguous run."""
    parts = {}
    for row in embedding_tuples(rows):
        pivot = row[root]
        if pivot not in parts:
            assert not parts or pivot > max(parts), pivot
            parts[pivot] = []
        parts[pivot].append(row)
    return parts


class TestCollectParts:
    """A shard's pivot share runs as one frontier and comes back as one
    packed row array (``collect_rows``); each pivot's part of it must
    equal the pivot's own unit run, whichever engine the inputs pick."""

    def _check(self, ceci, symmetry, engine):
        share = _lpt_share(ceci)
        assert share != sorted(share)
        stats = MatchStats()
        enumerator = Enumerator(ceci, symmetry=symmetry, stats=stats)
        assert enumerator.engine == engine
        rows = enumerator.collect_rows(share)
        assert rows.dtype == np.int64
        assert rows.shape[1] == ceci.tree.query.num_vertices
        parts = _split_rows(rows, ceci.tree.root)
        assert set(parts) <= set(share)
        unit_stats = MatchStats()
        sizes = []
        for pivot in share:
            alone = Enumerator(ceci, symmetry=symmetry, stats=unit_stats)
            part = alone.collect_from_unit((pivot,))
            assert parts.get(pivot, []) == part, pivot
            sizes.append(len(part))
        assert stats.recursive_calls == unit_stats.recursive_calls
        assert stats.intersections == unit_stats.intersections
        assert stats.embeddings_found == unit_stats.embeddings_found
        assert 0 in sizes and max(sizes) > 0
        # A narrower dtype carries the same rows.
        narrow = Enumerator(ceci, symmetry=symmetry).collect_rows(
            share, np.int32
        )
        assert narrow.dtype == np.int32
        assert np.array_equal(narrow, rows)

    @pytest.mark.parametrize("shape", sorted(HUB_QUERIES))
    def test_batch_parts_equal_unit_runs(self, shape):
        matcher = CECIMatcher(HUB_QUERIES[shape], _hub_data(40, 2, 2, 3))
        self._check(matcher.build(), matcher.symmetry, "batch")

    @pytest.mark.parametrize("shape", sorted(HUB_QUERIES))
    def test_te_only_cpi_parts_equal_unit_runs(self, shape):
        cfl = CFLMatcher(HUB_QUERIES[shape], _hub_data(40, 2, 2, 3))
        self._check(cfl._build().ceci, cfl.symmetry, "recursive")

    def test_empty_share(self):
        matcher = CECIMatcher(HUB_QUERIES["k4"], _hub_data(20, 2, 1, 1))
        enumerator = Enumerator(matcher.build(), symmetry=matcher.symmetry)
        for dtype in (np.int64, np.int32):
            rows = enumerator.collect_rows([], dtype)
            assert rows.shape == (0, 4) and rows.dtype == dtype
            assert embedding_tuples(rows) == []


#: Levels whose frontiers the redundant-extension tests rebuild, as
#: ``(query, symmetry breaking, depth)``: QG5's u=4 and u=2 steps have
#: matched columns outside their key columns (injectivity differs inside
#: a run), the symmetric diamond's last step compares against a non-key
#: column (the Grochow-Kellis mask differs inside a run), K4's steps
#: key on every matched column, and QG5's u=1 and u=3 steps are TE-only.
DEDUP_CASES = [
    ("qg5", False, 3),
    ("qg5", False, 4),
    ("qg5", True, 4),
    ("diamond", True, 3),
    ("k4", True, 3),
    ("qg5", False, 1),
    ("qg5", False, 2),
]


def _case_id(case):
    shape, symmetry, depth = case
    return f"{shape}-{'sym' if symmetry else 'plain'}-d{depth}"


@functools.lru_cache(maxsize=None)
def _level_frontier(shape, symmetry, depth):
    """``(matcher, index, the real frontier reaching depth)`` for one
    hub instance: the all-pivots root frontier expanded level by
    level."""
    matcher = CECIMatcher(
        HUB_QUERIES[shape], _hub_data(30, 2, 2, 3),
        break_automorphisms=symmetry,
    )
    ceci = matcher.build()
    engine = BatchEngine(ceci, matcher.symmetry, MatchStats())
    frontier = engine.root_frontier(ceci.pivots)
    for d in range(1, depth):
        frontier = engine._expand(frontier, d)
    assert frontier is not None and len(frontier) > 1
    return matcher, ceci, frontier


def _fresh_engine(shape, symmetry, depth):
    matcher, ceci, _ = _level_frontier(shape, symmetry, depth)
    return BatchEngine(ceci, matcher.symmetry, MatchStats())


def _key_heads(frontier, level):
    """Indices of the rows that start a run of equal key columns."""
    head = np.ones(len(frontier), dtype=bool)
    for col, _, _ in level.sources:
        column = frontier[:, col]
        head[1:] &= column[1:] == column[:-1]
    head[1:] = ~head[1:]
    return np.flatnonzero(head)


def _row_by_row(engine, frontier, depth):
    """The reference: every row expanded as its own one-row frontier,
    the results concatenated in row order (``None`` when none grow)."""
    grown = [
        engine._expand(frontier[i : i + 1], depth)
        for i in range(len(frontier))
    ]
    grown = [block for block in grown if block is not None]
    return np.concatenate(grown) if grown else None


def _assert_same_expansion(case, frontier):
    """``_expand`` on ``frontier`` equals the row-by-row reference, and
    charges the same intersections."""
    shape, symmetry, depth = case
    batched = _fresh_engine(*case)
    single = _fresh_engine(*case)
    got = batched._expand(frontier, depth)
    want = _row_by_row(single, frontier, depth)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
    assert batched.stats.intersections == single.stats.intersections


class TestRedundantExtensions:
    """Rows equal on a level's key columns (TE parent and NTE parents)
    share one TE∩NTE step, broadcast to their run; the per-row masks
    still run on every row (DESIGN.md §12)."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(DEDUP_CASES), data=st.data())
    def test_expand_equals_row_by_row(self, case, data):
        """Runs of rows that agree on the key columns but differ on the
        other matched columns, so injectivity and symmetry masks differ
        inside a run."""
        matcher, _, real = _level_frontier(*case)
        level = _fresh_engine(*case).levels[case[2]]
        keys = {col for col, _, _ in level.sources}
        free = [col for col in level.used_cols if col not in keys]
        vertices = st.integers(0, matcher.data.num_vertices - 1)
        # Consecutive real rows as bases: neighbours there often share
        # some key columns but not all, the near misses a run must split.
        start = data.draw(st.integers(0, len(real) - 1))
        runs = data.draw(st.lists(st.integers(1, 6), max_size=12))
        rows = []
        for offset, run in enumerate(runs):
            for _ in range(run):
                row = real[(start + offset) % len(real)].copy()
                for col in free:
                    if data.draw(st.booleans()):
                        row[col] = data.draw(vertices)
                rows.append(row)
        frontier = (
            np.array(rows, dtype=np.int64)
            if rows
            else np.empty((0, real.shape[1]), dtype=np.int64)
        )
        _assert_same_expansion(case, frontier)

    def test_cases_exercise_every_mask(self):
        """The property's cases really put injectivity and symmetry
        columns outside the key columns, and include TE-only levels."""
        free_used = free_symmetry = te_only = False
        for case in DEDUP_CASES:
            level = _fresh_engine(*case).levels[case[2]]
            keys = {col for col, _, _ in level.sources}
            te_only |= len(level.sources) == 1
            free_used |= any(c not in keys for c in level.used_cols)
            free_symmetry |= any(
                c not in keys for c in level.above_cols + level.below_cols
            )
        assert free_used and free_symmetry and te_only

    @pytest.mark.parametrize("case", DEDUP_CASES, ids=_case_id)
    def test_edge_frontiers(self, case):
        """Empty frontier, a single row, and one run spanning the whole
        frontier."""
        _, _, real = _level_frontier(*case)
        _assert_same_expansion(case, real[:0])
        _assert_same_expansion(case, real[:1])
        _assert_same_expansion(case, np.repeat(real[:1], 7, axis=0))

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize(
        "case",
        [c for c in DEDUP_CASES if c[2] >= 3 and c[0] != "k4"],
        ids=_case_id,
    )
    def test_fallback_point(self, case, dedup, monkeypatch):
        """Heads at exactly half the rows intersect the heads only; one
        head more and every row intersects.  Both give the row-by-row
        answer."""
        _, _, real = _level_frontier(*case)
        level = _fresh_engine(*case).levels[case[2]]
        bases = real[_key_heads(real, level)[:20]]
        assert len(bases) == 20
        runs = [2] * len(bases)
        if not dedup:
            runs[-1] = 1
        frontier = np.repeat(bases, runs, axis=0)
        assert (2 * len(bases) > len(frontier)) is not dedup
        intersected = []
        plain = BatchEngine._intersect

        def recording(self, rows, sources, weights):
            intersected.append(len(rows))
            return plain(self, rows, sources, weights)

        monkeypatch.setattr(BatchEngine, "_intersect", recording)
        engine = _fresh_engine(*case)
        engine._expand(frontier, case[2])
        assert intersected == [len(bases) if dedup else len(frontier)]
        monkeypatch.undo()
        _assert_same_expansion(case, frontier)

    def test_repeats_probe_no_extra_needles(self, monkeypatch):
        """Structural, not timed: on QG5 over a one-hub tree-like graph
        (every vertex attached once, so rows share parents) fewer
        needles reach ``member_mask`` than rows reach the TE∩NTE steps
        (0.6 per row; per-row probing sends 3.1), and a frontier with
        every row repeated three times probes no more needles than the
        original, yields each row's extensions three times and charges
        three times the intersections."""
        needles = [0]
        probe = batch_module.member_mask

        def counting(haystack, probes):
            needles[0] += len(probes)
            return probe(haystack, probes)

        nte_rows = [0]
        candidates = BatchEngine._candidates

        def counting_rows(self, frontier, level):
            if len(level.sources) > 1:
                nte_rows[0] += len(frontier)
            return candidates(self, frontier, level)

        monkeypatch.setattr(batch_module, "member_mask", counting)
        monkeypatch.setattr(BatchEngine, "_candidates", counting_rows)
        matcher = CECIMatcher(
            HUB_QUERIES["qg5"], _hub_data(60, 1, 1, 1),
            break_automorphisms=False,
        )
        matcher.match()
        assert 0 < needles[0] < nte_rows[0]

        case = ("qg5", False, 4)
        _, _, real = _level_frontier(*case)
        frontier = real[:120]
        repeats = np.repeat(frontier, 3, axis=0)
        once, repeated = _fresh_engine(*case), _fresh_engine(*case)
        needles[0] = 0
        want = once._expand(frontier, case[2])
        single_needles = needles[0]
        needles[0] = 0
        got = repeated._expand(repeats, case[2])
        assert needles[0] <= single_needles
        assert repeated.stats.intersections == 3 * once.stats.intersections
        # Row by row, each row's extensions come out three times in a row.
        reference = _fresh_engine(*case)
        assert np.array_equal(want, _row_by_row(reference, frontier, case[2]))
        assert np.array_equal(got, _row_by_row(reference, repeats, case[2]))


class TestEmbeddingTuples:
    """The one array-to-tuple conversion every batch entry point uses."""

    @pytest.mark.parametrize(
        "block",
        [
            np.array([[3, 1, 4], [1, 5, 9], [2, 6, 5]], dtype=np.int64),
            np.array([[7], [0], [2**40]], dtype=np.int64),
            np.empty((0, 4), dtype=np.int64),
            np.empty((0, 1), dtype=np.int64),
            np.arange(24, dtype=np.int64).reshape(6, 4)[::2, 1:],
        ],
        ids=["square", "one-column", "empty", "empty-one-column", "strided"],
    )
    def test_equals_row_wise_conversion(self, block):
        got = embedding_tuples(block)
        assert got == list(map(tuple, block.tolist()))
        assert all(
            type(row) is tuple and all(type(v) is int for v in row)
            for row in got
        )
        assert pickle.loads(pickle.dumps(got)) == got
