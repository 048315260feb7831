"""Live progress / heartbeat reporting for long enumerations.

A deep enumeration can run for minutes with nothing on the terminal.
:class:`ProgressReporter` fixes that: the enumerator calls
:meth:`tick` once per recursive call (one attribute check when progress
is off), and every ``interval`` seconds the reporter prints one stderr
line with cumulative rates, the remaining budget, and an ETA derived
from the CECI cardinality bound (:mod:`repro.core.estimate`'s
deterministic upper bound on the number of embeddings)::

    # progress: 4.0s calls=1203456 (300864/s) embeddings=88123 (22030/s) \
budget: calls 796544 left | eta<=12.3s

The clock is only consulted every ``check_every`` ticks, so the per-call
cost is an integer compare; the ETA is labelled ``<=`` because the
cardinality bound over-estimates (it ignores injectivity and symmetry
breaking).
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

__all__ = ["ProgressReporter"]

#: Consult the wall clock once per this many ticks.
DEFAULT_CHECK_EVERY = 512


class ProgressReporter:
    """Periodic one-line heartbeat over a shared ``MatchStats``.

    Parameters
    ----------
    stats:
        The live :class:`~repro.core.stats.MatchStats` of the run —
        cumulative counts are read from it at emission time.
    interval:
        Seconds between heartbeat lines (``0`` emits at every clock
        check — useful in tests).
    stream:
        Output stream; defaults to ``sys.stderr`` at emission time.
    total_estimate:
        Upper bound on embeddings (the CECI cardinality bound); enables
        the ``eta<=`` field.  The matcher fills this in after the index
        is built when the caller did not.
    tracker:
        The run's :class:`~repro.resilience.budget.BudgetTracker`, if
        any — used to print the remaining budget axes.
    tracer:
        Optional tracer; each heartbeat is mirrored as a ``progress``
        instant event so traces carry the liveness timeline too.
    """

    def __init__(
        self,
        stats,
        interval: float = 1.0,
        stream: Optional[IO[str]] = None,
        total_estimate: Optional[int] = None,
        tracker=None,
        tracer=None,
        check_every: int = DEFAULT_CHECK_EVERY,
    ) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.stats = stats
        self.interval = interval
        self.stream = stream
        self.total_estimate = total_estimate
        self.tracker = tracker
        self.tracer = tracer
        self.check_every = max(1, int(check_every))
        self.lines_emitted = 0
        self._ticks = 0
        self._pending = 0
        self._started_at: Optional[float] = None
        self._next_emit_at = 0.0

    # ------------------------------------------------------------------
    def start(self) -> "ProgressReporter":
        """Arm the reporter (idempotent); called on the first tick."""
        if self._started_at is None:
            self._started_at = time.perf_counter()
            self._next_emit_at = self._started_at + self.interval
        return self

    def tick(self) -> None:
        """One unit of enumeration work.  Hot path: an increment and a
        compare; the clock is read once per ``check_every`` ticks."""
        self._ticks += 1
        self._pending += 1
        if self._pending >= self.check_every:
            self._pending = 0
            if self._started_at is None:
                self.start()
            now = time.perf_counter()
            if now >= self._next_emit_at:
                self._emit(now)

    def tick_many(self, n: int) -> None:
        """``n`` units of enumeration work at once — the batch engine's
        per-frontier-block tick (one clock check per block at most)."""
        if n <= 0:
            return
        self._ticks += n
        self._pending += n
        if self._pending >= self.check_every:
            self._pending = 0
            if self._started_at is None:
                self.start()
            now = time.perf_counter()
            if now >= self._next_emit_at:
                self._emit(now)

    def finish(self, force: bool = False) -> None:
        """Emit one final ``(done)`` line (only if the run ever ticked).

        Runs shorter than ``check_every`` calls never consulted the
        clock, so this arms the reporter late — ``--progress`` always
        yields at least the final line.  ``force`` emits even with zero
        ticks: a ``--workers`` run's service workers tick their own
        enumerators rather than this reporter, but the request's stats
        still make a truthful final summary."""
        if self._ticks or force:
            self.start()
            self._emit(time.perf_counter(), final=True)

    def heartbeat(self, units: int, stats) -> None:
        """One line for a request in flight on a service: ``units``
        reported back so far and the request's live ``stats`` (the
        ``--workers`` route, whose workers tick their own
        enumerators)."""
        self.stats = stats
        self.start()
        self._emit(time.perf_counter(), units=units)

    # ------------------------------------------------------------------
    def _emit(
        self, now: float, final: bool = False, units: Optional[int] = None
    ) -> None:
        elapsed = max(now - (self._started_at or now), 1e-9)
        self._next_emit_at = now + self.interval
        stats = self.stats
        calls = stats.recursive_calls
        found = stats.embeddings_found
        call_rate = calls / elapsed
        found_rate = found / elapsed
        parts = [f"# progress: {elapsed:.1f}s"]
        if units is not None:
            parts.append(f"units={units}")
        parts += [
            f"calls={calls} ({call_rate:.0f}/s)",
            f"embeddings={found} ({found_rate:.0f}/s)",
        ]
        budget_bits = []
        tracker = self.tracker
        if tracker is not None:
            budget = tracker.budget
            if budget.max_calls is not None:
                budget_bits.append(
                    f"calls {max(budget.max_calls - tracker.calls, 0)} left"
                )
            if budget.deadline_seconds is not None:
                budget_bits.append(
                    f"{max(budget.deadline_seconds - tracker.elapsed(), 0.0):.1f}s left"
                )
        if budget_bits:
            parts.append("budget: " + ", ".join(budget_bits))
        if self.total_estimate is not None and found_rate > 0:
            remaining = max(self.total_estimate - found, 0)
            parts.append(f"eta<={remaining / found_rate:.1f}s")
        if final:
            parts.append("(done)")
        stream = self.stream if self.stream is not None else sys.stderr
        print(" ".join(parts), file=stream)
        self.lines_emitted += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "progress",
                calls=calls,
                embeddings=found,
                elapsed=round(elapsed, 6),
                final=final,
            )
