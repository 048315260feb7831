"""Retry policy of the resident service.

The service (:mod:`repro.service.service`) re-runs a request failed by
a worker crash or an injected transient fault, as its
:class:`RetryPolicy` allows, backing off between attempts.  A retried
answer is exactly a first-attempt one, and a request past its retry
budget resolves with its error: work is never silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]


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
