"""Resilience layer: enumeration budgets, deterministic fault injection,
and the service's retry policy.

The three modules map onto the three failure surfaces of a production
matcher:

* :mod:`repro.resilience.budget` — a pathological query must return a
  flagged partial answer, not hang (``Budget`` / ``PartialResult``);
* :mod:`repro.resilience.faults` — service-worker, build, shard and
  storage failures are described up front by a seeded ``FaultPlan`` so
  recovery is testable and replayable;
* :mod:`repro.resilience.recovery` — the service's ``RetryPolicy``:
  how often lost work is re-run, and how long to back off.
"""

from .budget import (
    Budget,
    BudgetExhausted,
    BudgetTracker,
    PartialResult,
    embedding_bytes,
)
from .faults import (
    FaultPlan,
    InjectedBuildError,
    InjectedCrash,
)
from .recovery import RetryPolicy

__all__ = [
    "Budget",
    "BudgetExhausted",
    "BudgetTracker",
    "FaultPlan",
    "InjectedBuildError",
    "InjectedCrash",
    "PartialResult",
    "RetryPolicy",
    "embedding_bytes",
]
