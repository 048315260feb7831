"""Parallel execution: scheduling policies and the simulated-time executor.

The in-process thread executor is the service's
(:class:`~repro.service.service.MatchService`); this package keeps the
ST / CGD / FGD policies and the makespan model that Figs 11-14 replay.
"""

from .scheduling import (
    POLICIES,
    Assignment,
    dynamic_schedule,
    static_schedule,
)
from .simulate import (
    PolicyResult,
    measure_unit_costs,
    simulate_policy,
    speedup_curve,
)

__all__ = [
    "POLICIES",
    "Assignment",
    "PolicyResult",
    "dynamic_schedule",
    "measure_unit_costs",
    "simulate_policy",
    "speedup_curve",
    "static_schedule",
]
