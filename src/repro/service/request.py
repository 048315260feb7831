"""Request/response shapes of the resident match service.

A :class:`MatchRequest` is everything one caller wants from the shared
data graph: the query pattern plus per-request knobs that affect
*enumeration only* (result limit, resource budget, symmetry breaking).  Knobs that change the *index* (filter
configuration, matching-order strategy, refinement) are fixed per
:class:`~repro.service.service.MatchService` instance — that is what
makes the cross-query index cache sound: every cached store was built
under the one service-wide configuration.

A :class:`MatchResponse` is explicit about what happened: ``status`` is
one of the :class:`Status` constants, ``truncated``/``stop_reason``
mirror :class:`~repro.resilience.budget.PartialResult`, ``cache`` says
how the index was obtained (``"miss"`` built fresh, ``"hit"`` served
from the in-memory cache, ``"warm"`` revived from a spilled CECIIDX3
blob, ``"coalesced"`` shared a concurrent in-flight build), and
``stats`` carries only *this* request's counters — never another
request's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.stats import MatchStats
from ..graph import Graph
from ..resilience.budget import Budget

__all__ = ["Status", "MatchRequest", "MatchResponse"]

_REQUEST_IDS = itertools.count(1)


class Status:
    """Terminal states of a service request."""

    #: Full (or limit-capped) answer.
    OK = "ok"
    #: A budget axis stopped enumeration (or index construction) early;
    #: the embeddings are a flagged prefix, mirroring ``PartialResult``.
    TRUNCATED = "truncated"
    #: Shed at admission (queue depth); nothing was built or enumerated
    #: and no shared state was touched.
    REJECTED = "rejected"
    #: An exception escaped preparation or execution; ``error`` has it.
    FAILED = "failed"
    #: The end-to-end service deadline (queueing + index + matching)
    #: expired, or a supervised worker was detected wedged on the
    #: request, or the request was still in flight when ``close``'s
    #: timeout ran out.  No embeddings are returned — a deadline answer
    #: is not a flagged prefix (that is what ``TRUNCATED`` + ``budget``
    #: are for); it is an explicit non-answer.
    TIMEOUT = "timeout"
    #: The caller cancelled via :meth:`PendingMatch.cancel`; workers
    #: abandoned the request at the next batch boundary.
    CANCELLED = "cancelled"
    #: A worker thread died (real bug or injected crash) while holding
    #: the request, and the retry policy was exhausted or absent.
    CRASHED = "crashed"

    ALL = (OK, TRUNCATED, REJECTED, FAILED, TIMEOUT, CANCELLED, CRASHED)


@dataclass
class MatchRequest:
    """One unit of service work.

    ``budget`` caps the run exactly like
    :meth:`~repro.core.matcher.CECIMatcher.run`: the clock starts before
    index work, and a tripped axis yields a ``TRUNCATED`` response
    carrying the prefix found so far.  Budgeted (and limited) requests
    are executed *solo* — un-decomposed — so their truncation prefix is
    bit-identical to the sequential matcher's; unbounded requests are
    cut into weight-balanced chunks of their embedding clusters (the
    front end's LPT chunk plan), one task per chunk.
    """

    query: Graph
    limit: Optional[int] = None
    budget: Optional[Budget] = None
    break_automorphisms: bool = True
    #: End-to-end service deadline in wall seconds, measured from
    #: *submit*: it covers queue wait, index resolution/build, and
    #: matching, and is enforced at scheduler pop, after the build, and
    #: at every batch boundary.  Distinct from ``budget.deadline_seconds``
    #: (which clocks only the matcher's own run and yields a TRUNCATED
    #: prefix); an expired service deadline yields ``Status.TIMEOUT``
    #: with no embeddings.  ``None`` falls back to the service-wide
    #: default deadline, if one is configured.
    deadline_seconds: Optional[float] = None
    #: Caller-supplied correlation id (autogenerated when omitted).
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def __post_init__(self) -> None:
        if self.query.num_vertices == 0:
            raise ValueError("query graph is empty")
        if not self.query.is_connected():
            raise ValueError("query graph must be connected")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    @property
    def solo(self) -> bool:
        """Whether this request must run un-decomposed: budget
        truncation and ``limit`` early-stop are defined as a prefix of
        the *sequential* enumeration order, which only a solo run
        reproduces exactly."""
        return self.budget is not None or self.limit is not None


@dataclass
class MatchResponse:
    """Terminal outcome of one :class:`MatchRequest`."""

    request_id: int
    status: str
    embeddings: List[Tuple[int, ...]] = field(default_factory=list)
    truncated: bool = False
    stop_reason: Optional[str] = None
    #: How the index was obtained: "miss" | "hit" | "warm" | "coalesced"
    #: (None for rejected/failed-before-prepare requests).
    cache: Optional[str] = None
    #: This request's counters only (enumeration, plus build phases when
    #: this request paid for the build).
    stats: MatchStats = field(default_factory=MatchStats)
    #: Submit-to-completion wall seconds (includes queue wait).
    latency_seconds: float = 0.0
    #: Prepare+execute wall seconds (excludes queue wait) — the number
    #: the warm-vs-cold speedup is measured on.
    service_seconds: float = 0.0
    #: How many times the retry policy transparently re-ran the request
    #: after a worker crash or injected fault (0 = first attempt served).
    retries: int = 0
    #: How many distinct shard processes ran a task of this request,
    #: over all its attempts (``None`` when the thread executor served
    #: it; ``1`` for a solo request, or a batched one of a single chunk,
    #: that ran on the shard executor).  Purely informational — the
    #: embedding list is merged in pivot order, indistinguishable from
    #: a thread executor's answer regardless of fan-out.
    shard_fanout: Optional[int] = None
    error: Optional[str] = None

    @property
    def count(self) -> int:
        return len(self.embeddings)

    @property
    def phase_seconds(self) -> dict:
        """This request's per-phase wall seconds (build phases only when
        this request paid for the build; always ``enumerate``) — also
        included verbatim in the JSON wire object."""
        return self.stats.phase_seconds

    @property
    def ok(self) -> bool:
        return self.status == Status.OK

    def __len__(self) -> int:
        return len(self.embeddings)

    def __iter__(self):
        return iter(self.embeddings)
