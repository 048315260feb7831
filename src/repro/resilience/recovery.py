"""Retry policy and recovery accounting.

Two runtimes recover lost work:

* the resident service (:mod:`repro.service.service`) re-runs a request
  failed by a worker crash or an injected transient fault, as its
  :class:`RetryPolicy` allows, backing off between attempts;
* the simulated distributed runtime (:mod:`repro.distributed.runtime`)
  requeues a crashed machine's in-flight cluster with its attempt
  counter bumped, reports a cluster whose attempts exceed
  ``RetryPolicy.max_retries`` as failed instead of retrying it forever,
  and appends every crash / retry / reassignment to a
  :class:`RecoveryLog`.

Either way the result covers the full embedding set or says that it
does not: work is never silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "RecoveryEvent",
    "RecoveryLog",
    "RetryPolicy",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times one piece of work may be retried after a failure
    before it is declared failed (0 = fail on first loss), and how long
    to back off between attempts.

    Backoff is the classic exponential-with-jitter schedule: retry
    ``k`` (1-based) waits ``backoff_base_seconds * backoff_factor**(k-1)``
    seconds, capped at ``backoff_max_seconds``, multiplied by a seeded
    jitter factor drawn uniformly from ``1 ± jitter_fraction`` so a
    burst of simultaneous failures does not retry in lockstep.  The
    defaults (``backoff_base_seconds=0``) retry immediately;
    ``repro serve --retries N`` backs off from 10 ms.
    """

    max_retries: int = 2
    backoff_base_seconds: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 1.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_seconds < 0.0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_seconds < self.backoff_base_seconds:
            raise ValueError(
                "backoff_max_seconds must be >= backoff_base_seconds"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")

    def allows(self, attempts_so_far: int) -> bool:
        """May a piece that already ran ``attempts_so_far`` times be
        tried again?"""
        return attempts_so_far <= self.max_retries

    def delay(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Seconds to wait before retry ``attempt`` (1-based).  Pass a
        seeded ``rng`` for deterministic jitter; with ``rng=None`` the
        un-jittered schedule is returned."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.backoff_base_seconds <= 0.0:
            return 0.0
        delay = min(
            self.backoff_base_seconds * self.backoff_factor ** (attempt - 1),
            self.backoff_max_seconds,
        )
        if rng is not None and self.jitter_fraction > 0.0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery-relevant incident.

    ``kind`` is one of ``"machine_crash"``, ``"requeue"``,
    ``"reassign"``, ``"message_drop"``, ``"give_up"``; ``subject`` is
    the machine id involved (-1 for the coordinator) and ``work``
    identifies the cluster pivot (None for events without an associated
    piece of work).
    """

    kind: str
    subject: int
    work: Optional[Tuple[int, ...]] = None
    attempt: int = 0
    detail: str = ""


class RecoveryLog:
    """Ordered record of every recovery event in one run."""

    def __init__(self) -> None:
        self.events: List[RecoveryEvent] = []

    def record(
        self,
        kind: str,
        subject: int,
        work: Optional[Tuple[int, ...]] = None,
        attempt: int = 0,
        detail: str = "",
    ) -> RecoveryEvent:
        event = RecoveryEvent(kind, subject, work, attempt, detail)
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)

    def summary(self) -> Dict[str, int]:
        """Event counts keyed by kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
