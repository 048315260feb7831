"""The benchmark's own answer checks.

Nothing here calls into the program: an embedding is checked against
the generated inputs directly, and counts against the committed
``expected_counts.json``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from inputs import GraphSpec, Query

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected_counts.json")


def load_expected(path: str = EXPECTED_PATH) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def answer_digest(embeddings: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Order-sensitive fingerprint of an answer list: two answers with
    the same digest are, barring a 64-bit hash collision, the same list.
    The checker keeps these instead of the answers themselves, so the
    driver's memory does not grow with the answers it has seen."""
    return len(embeddings), hash(tuple(map(tuple, embeddings)))


class DataIndex:
    """The data graph as the oracle needs it: every undirected edge as
    one sorted code ``min * n + max``, and each vertex's label set as a
    bit mask."""

    def __init__(self, data: GraphSpec) -> None:
        self.n = data.n
        ends = np.array(data.edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        self.edge_codes = np.unique(lo * self.n + hi)
        self.label_masks = (
            None if data.labels is None
            else np.array([_mask(labels) for labels in data.labels], dtype=np.int64)
        )

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        codes = np.minimum(a, b) * self.n + np.maximum(a, b)
        at = np.searchsorted(self.edge_codes, codes)
        at[at == len(self.edge_codes)] = 0
        return self.edge_codes[at] == codes


def _mask(labels) -> int:
    return sum(1 << label for label in labels)


def embedding_errors(
    embeddings: Sequence[Sequence[int]],
    query: GraphSpec,
    data: DataIndex,
) -> Optional[str]:
    """Why ``embeddings`` is not a set of embeddings of ``query`` in
    ``data`` (``None`` when it is): each must be injective, map every
    query vertex to a data vertex carrying all of its labels, and map
    every query edge onto a data edge; no embedding may repeat."""
    if not embeddings:
        return None
    n = query.n
    if any(len(emb) != n for emb in embeddings):
        return "embedding of the wrong length"
    rows = np.array(embeddings, dtype=np.int64).reshape(len(embeddings), n)

    def first(bad: np.ndarray, why: str) -> Optional[str]:
        hits = np.flatnonzero(bad)
        if len(hits) == 0:
            return None
        return f"{why}: {tuple(int(v) for v in rows[hits[0]])}"

    problem = first(((rows < 0) | (rows >= data.n)).any(axis=1), "unknown data vertex")
    if problem is not None:
        return problem
    ordered = np.sort(rows, axis=1)
    problem = first((ordered[:, 1:] == ordered[:, :-1]).any(axis=1), "not injective")
    if problem is not None:
        return problem
    if query.labels is not None:
        for u in range(n):
            want = _mask(query.labels[u])
            problem = first(
                data.label_masks[rows[:, u]] & want != want,
                f"label mismatch at query vertex {u}",
            )
            if problem is not None:
                return problem
    for a, b in query.edges:
        problem = first(
            ~data.has_edges(rows[:, a], rows[:, b]),
            f"query edge ({a}, {b}) unmapped",
        )
        if problem is not None:
            return problem
    if len(np.unique(rows, axis=0)) != len(rows):
        return "duplicate embeddings"
    return None


class Checker:
    """Checks every response of one run and keeps the tally.

    The first answer for each (query, limit) is checked in full and its
    digest kept as that query's reference; every later answer must have
    the same digest, i.e. equal it as an exact list (the engine is
    deterministic), which is cheap enough to do inside the timed loop.
    """

    def __init__(self, data: GraphSpec, expected: Dict[str, int]) -> None:
        self.data = DataIndex(data)
        self.expected = expected
        #: (query, limit) -> digest of the first answer, or ``None`` when
        #: that answer was wrong.
        self.reference: Dict[tuple, Optional[Tuple[int, int]]] = {}
        #: Responses per (query, limit) that matched the reference.
        self.served: Dict[tuple, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def _fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def record(
        self,
        query: Query,
        limit: Optional[int],
        embeddings: Optional[list],
        error: Optional[str] = None,
    ) -> None:
        """One response: ``embeddings`` is ``None`` when the request
        failed, was rejected or timed out (``error`` says why)."""
        self.attempted += 1
        if embeddings is None:
            self._fail(f"{query.name}: {error}")
            return
        key = (query.name, limit)
        if key not in self.reference:
            if not self._check_first(query, limit, embeddings):
                self.reference[key] = None
                return
            self.reference[key] = answer_digest(embeddings)
        elif self.reference[key] is None:
            self._fail(f"{query.name}: wrong answer (as before)")
            return
        elif answer_digest(embeddings) != self.reference[key]:
            self._fail(f"{query.name}: answer differs from earlier answer")
            return
        self.served[key] = self.served.get(key, 0) + 1

    def _check_first(self, query: Query, limit, embeddings: list) -> bool:
        expected = self.expected.get(query.name)
        if expected is None:
            self._fail(f"{query.name}: no expected count")
            return False
        if limit is not None:
            expected = min(expected, limit)
        if len(embeddings) != expected:
            self._fail(
                f"{query.name}: {len(embeddings)} embeddings, "
                f"expected {expected}"
            )
            return False
        problem = embedding_errors(embeddings, query.graph, self.data)
        if problem is not None:
            self._fail(f"{query.name}: {problem}")
            return False
        return True

    def compare_exact(self, name: str, limit, library_answer: list) -> None:
        """Require the kept answer for ``name`` to equal the library's
        sequential answer as an exact list; on a mismatch every response
        that carried it is counted failed."""
        key = (name, limit)
        reference = self.reference.get(key)
        if reference is None:
            return
        if reference != answer_digest(library_answer):
            self.reference[key] = None
            self._fail(
                f"{name}: differs from the library's exact answer",
                self.served.pop(key),
            )
