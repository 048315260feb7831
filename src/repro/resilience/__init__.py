"""Resilience layer: enumeration budgets, deterministic fault injection,
and retry/recovery accounting for the service and the distributed
runtime.

The three modules map onto the three failure surfaces of a production
matcher:

* :mod:`repro.resilience.budget` — a pathological query must return a
  flagged partial answer, not hang (``Budget`` / ``PartialResult``);
* :mod:`repro.resilience.faults` — machine, service-worker, shard and
  storage failures are described up front by a seeded ``FaultPlan`` so
  recovery is testable and replayable;
* :mod:`repro.resilience.recovery` — the retry policy both runtimes
  share, and the distributed runtime's ordered recovery log.
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
from .recovery import (
    RecoveryEvent,
    RecoveryLog,
    RetryPolicy,
)

__all__ = [
    "Budget",
    "BudgetExhausted",
    "BudgetTracker",
    "FaultPlan",
    "InjectedBuildError",
    "InjectedCrash",
    "PartialResult",
    "RecoveryEvent",
    "RecoveryLog",
    "RetryPolicy",
    "embedding_bytes",
]
