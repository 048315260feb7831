"""Deterministic fault injection for the service and its shards.

Testing recovery logic against *real* nondeterministic failures is
hopeless; instead every failure the service can experience is described
up front by a :class:`FaultPlan` and injected at deterministic points.

The **service-level** fault points drive the resident
:class:`~repro.service.service.MatchService`'s hardening layer (the
watchdog, retry, and spill-integrity paths):

* ``thread_crash_picks = {k, ...}`` — the thread-executor worker that
  pops its ``k``-th task *globally* dies mid-job (the thread exits; the
  watchdog must detect the death, fail or retry the in-flight work, and
  respawn the slot).  Real threads race for the queue, so *which*
  worker dies depends on scheduling, but *that* exactly one dies per
  pick is deterministic;
* ``build_failure_picks = {k, ...}`` — the ``k``-th index build the
  service pays for raises :class:`InjectedBuildError`;
* ``spill_torn_write_picks = {k, ...}`` — the ``k``-th spill write is
  torn short (the blob is truncated mid-array, simulating a crash
  between ``write`` and ``fsync``);
* ``spill_read_corrupt_picks = {k, ...}`` — the ``k``-th spill read
  observes a single flipped byte (bit rot / torn sector), which the
  CECIIDX3 block checksums must catch;
* ``scheduler_stall_picks`` / ``scheduler_stall_seconds`` — the
  scheduler wedges for a bounded interval before preparing the ``k``-th
  admitted job, which end-to-end request deadlines must absorb.

The **shard-level** fault points drive the multi-process
:class:`~repro.service.shards.ShardedMatchService` (shard processes,
shared-mmap index publishes) through the same seeded discipline:

* ``shard_crash_picks = {(s, k), ...}`` — shard process ``s`` dies
  (``os._exit``) while holding the ``k``-th task *it* received (0-based
  per shard); the parent must observe the pipe EOF, respawn the shard
  and re-dispatch the lost task without ever surfacing a partial
  answer;
* ``shard_stall_picks = {(s, k), ...}`` / ``shard_stall_seconds`` —
  shard ``s`` wedges for a bounded interval before working its ``k``-th
  task (a straggler shard), which request deadlines must absorb while
  every other shard's results stay exact;
* ``publish_torn_picks = {k, ...}`` — the ``k``-th shared-index publish
  writes a torn (truncated) CECIIDX3 file, as if the publisher died
  mid-write; shard processes must detect the broken block checksums,
  refuse to serve from it, and the parent must republish.

Every stochastic decision flows from ``seed`` through
:meth:`FaultPlan.service_chaos`, so a plan replays identically run after
run — the deterministic-seed guarantee DESIGN.md documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

__all__ = [
    "FaultPlan",
    "InjectedBuildError",
    "InjectedCrash",
]


class InjectedCrash(RuntimeError):
    """A planned crash of a service worker thread."""

    def __init__(self, kind: str, subject: int) -> None:
        super().__init__(f"injected crash of {kind} {subject}")
        self.kind = kind
        self.subject = subject


class InjectedBuildError(RuntimeError):
    """A planned failure of one service-paid index build.  Counts as a
    *transient* fault: the service retry policy may transparently rerun
    the request that hit it."""

    def __init__(self, build_index: int) -> None:
        super().__init__(f"injected failure of index build #{build_index}")
        self.build_index = build_index


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of the failures to inject."""

    seed: int = 0
    # Service-level fault points (see module docstring).
    thread_crash_picks: FrozenSet[int] = field(default_factory=frozenset)
    build_failure_picks: FrozenSet[int] = field(default_factory=frozenset)
    spill_torn_write_picks: FrozenSet[int] = field(default_factory=frozenset)
    spill_read_corrupt_picks: FrozenSet[int] = field(
        default_factory=frozenset
    )
    scheduler_stall_picks: FrozenSet[int] = field(default_factory=frozenset)
    scheduler_stall_seconds: float = 0.0
    # Shard-level fault points (see module docstring).
    shard_crash_picks: FrozenSet[Tuple[int, int]] = field(
        default_factory=frozenset
    )
    shard_stall_picks: FrozenSet[Tuple[int, int]] = field(
        default_factory=frozenset
    )
    shard_stall_seconds: float = 0.0
    publish_torn_picks: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.scheduler_stall_seconds < 0.0:
            raise ValueError("scheduler_stall_seconds must be >= 0")
        if self.scheduler_stall_picks and self.scheduler_stall_seconds == 0.0:
            raise ValueError(
                "scheduler_stall_picks requires scheduler_stall_seconds > 0"
            )
        if self.shard_stall_seconds < 0.0:
            raise ValueError("shard_stall_seconds must be >= 0")
        if self.shard_stall_picks and self.shard_stall_seconds == 0.0:
            raise ValueError(
                "shard_stall_picks requires shard_stall_seconds > 0"
            )

    # ------------------------------------------------------------------
    # Injection predicates (all deterministic)
    # ------------------------------------------------------------------
    def thread_crashes_at(self, task_pick: int) -> bool:
        """Does the service worker popping the globally n-th task die?"""
        return task_pick in self.thread_crash_picks

    def build_fails_at(self, build_index: int) -> bool:
        """Does the n-th service index build raise?"""
        return build_index in self.build_failure_picks

    def spill_write_torn_at(self, spill_index: int) -> bool:
        """Is the n-th spill write torn short?"""
        return spill_index in self.spill_torn_write_picks

    def spill_read_corrupt_at(self, read_index: int) -> bool:
        """Does the n-th spill read observe a flipped byte?"""
        return read_index in self.spill_read_corrupt_picks

    def scheduler_stalls_at(self, job_index: int) -> bool:
        """Does the scheduler wedge before preparing the n-th job?"""
        return job_index in self.scheduler_stall_picks

    def shard_crashes_at(self, shard: int, task_pick: int) -> bool:
        """Does shard process ``shard`` die holding its n-th task?"""
        return (shard, task_pick) in self.shard_crash_picks

    def shard_stalls_at(self, shard: int, task_pick: int) -> bool:
        """Does shard ``shard`` wedge before working its n-th task?"""
        return (shard, task_pick) in self.shard_stall_picks

    def publish_torn_at(self, publish_index: int) -> bool:
        """Is the n-th shared-index publish written torn?"""
        return publish_index in self.publish_torn_picks

    # ------------------------------------------------------------------
    # Generator
    # ------------------------------------------------------------------
    @classmethod
    def service_chaos(
        cls,
        seed: int,
        requests: int,
        crash_fraction: float = 0.15,
        build_failure_fraction: float = 0.1,
        spill_fault_fraction: float = 0.25,
        stall_fraction: float = 0.0,
        stall_seconds: float = 0.05,
        num_shards: int = 0,
        shard_crash_fraction: float = 0.0,
        shard_stall_fraction: float = 0.0,
        shard_stall_seconds: float = 0.05,
        publish_torn_fraction: float = 0.0,
    ) -> "FaultPlan":
        """A randomized-but-deterministic *service* plan sized to a run
        of ``requests`` requests: a fraction of task picks kill their
        worker, a fraction of index builds fail, a fraction of spill
        writes/reads are torn/corrupted, and (optionally) the scheduler
        stalls before a fraction of jobs.  With ``num_shards > 0`` the
        shard-level points join in: per-shard task picks that kill or
        stall their shard process, and torn shared-index publishes.
        The same seed always yields the same plan, so a chaos run
        replays exactly."""
        if requests < 1:
            raise ValueError("requests must be >= 1")
        rng = random.Random(seed)

        def picks(fraction: float, span: int) -> FrozenSet[int]:
            count = min(int(span * fraction + 0.5), span)
            if fraction > 0.0:
                count = max(count, 1)
            return frozenset(rng.sample(range(span), count))

        def shard_picks(fraction: float) -> FrozenSet[Tuple[int, int]]:
            """(shard, per-shard task pick) pairs drawn over an early
            window of each shard's task stream — a fan-out of one
            request gives every shard roughly one task, so the pick
            span mirrors the request count."""
            if num_shards < 1 or fraction <= 0.0:
                return frozenset()
            span = max(requests // max(num_shards, 1), 4)
            universe = [
                (s, k) for s in range(num_shards) for k in range(span)
            ]
            count = max(min(int(requests * fraction + 0.5), len(universe)), 1)
            return frozenset(rng.sample(universe, count))

        stall_picks = picks(stall_fraction, requests)
        shard_crashes = shard_picks(shard_crash_fraction)
        shard_stalls = shard_picks(shard_stall_fraction)
        return cls(
            seed=seed,
            thread_crash_picks=picks(crash_fraction, requests),
            build_failure_picks=picks(build_failure_fraction, requests),
            spill_torn_write_picks=picks(
                spill_fault_fraction, max(requests // 2, 1)
            ),
            spill_read_corrupt_picks=picks(
                spill_fault_fraction, max(requests // 2, 1)
            ),
            scheduler_stall_picks=stall_picks,
            scheduler_stall_seconds=stall_seconds if stall_picks else 0.0,
            shard_crash_picks=shard_crashes,
            shard_stall_picks=shard_stalls,
            shard_stall_seconds=shard_stall_seconds if shard_stalls else 0.0,
            publish_torn_picks=picks(
                publish_torn_fraction, max(requests // 4, 1)
            ),
        )
