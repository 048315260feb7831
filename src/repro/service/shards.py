"""The shard executor: cluster units on forked worker processes.

:class:`ShardedMatchService` is :class:`~repro.service.service.MatchService`
— the same front end (admission, index cache, deadlines, retries, exact
merge, telemetry) — with its units executed by ``shards`` worker
*processes* instead of threads.  The shard executor owns only dispatch
and failure recovery:

* **shared-mmap index publication** — the front end resolves each
  query's index through the cross-query
  :class:`~repro.service.cache.IndexCache`; the executor *publishes* the
  frozen ``CompactCECI`` once per query as a checksummed CECIIDX3 file
  (write-to-temp, fsync, rename).  Every shard process
  :func:`~repro.core.persist.load_ceci`\\ s the same file with
  ``mmap=True``, so N processes share one copy of the candidate arrays
  through the OS page cache — the index is frozen once and mapped
  everywhere, never rebuilt or re-pickled per shard.  The file holds
  the index only: each shard derives its own probe sets (the sorted
  codes, or their bitmaps where the code space is dense) from the
  mapped arrays on first use and keeps them with its cached store;
* **cardinality-planned routing** — a batched job arrives with the
  front end's unit plan (LPT over the refined ``cluster_cardinality``
  workloads, Section 4's cardinality-driven balancing), and each shard's
  share of it becomes one *task per shard*; a solo job runs on the
  least-loaded shard, un-decomposed, so its truncation prefix is the
  sequential matcher's.  Either way the shard runs the front end's task
  body, :func:`~repro.service.service.run_task`, as the thread executor
  does;
* **window-of-one dispatch** — each shard has an outbox and at most one
  task in flight on its pipe, so a crash loses at most one task; a
  reader thread per shard hands each reply to the front end's
  callback.  A share's reply is one packed row array (int32 unless
  the data graph needs int64) plus its stats: no tuple is built or
  pickled in the shard, and the front end builds the tuples once and
  merges them in ``store.pivots`` order;
* **crash recovery** — a shard process death is observed as pipe EOF;
  the executor respawns the shard and re-dispatches the lost task
  head-of-line (:meth:`~repro.service.scheduler.TaskQueue.push_recovered`),
  at most ``max_redispatch`` times per task before reporting the units
  failed as a crash (which the retry policy may then re-run).  Replies
  are atomic — a whole task's results or nothing — so recovery is
  exactly-once: no partial answer can ever be merged;
* **publish integrity** — shards CRC-verify every CECIIDX3 block before
  mapping; a torn publish (fault-injected or real) raises
  :class:`~repro.core.persist.ChecksumError` inside the shard, which
  reports ``corrupt_index`` instead of serving garbage.  The executor
  republishes a pristine blob under a bumped version (stale mmaps keep
  reading their old file; a new filename can never tear an existing
  reader) and re-dispatches.

Budget *deadline* clocks on a solo run restart when its shard begins
enumerating; the deterministic budget axes (``max_calls``,
``max_embeddings``) count identically to a sequential run because the
solo shard replays the exact sequential recursion.

**Speedup accounting.**  Each shard measures per-task *CPU* seconds
with ``time.process_time()`` — immune to time-slice contention when N
shard processes share fewer cores — and the executor accumulates them
per shard (:meth:`ShardedMatchService.shard_telemetry`).  The
horizontal-scaling benchmark
(:func:`~repro.service.loadgen.run_shard_benchmark`) reports
``shard_speedup`` as the critical-path ratio (max per-shard busy
seconds at 1 shard over at k shards), the same simulated-speedup
substitution DESIGN.md §2 documents for the thread-parallel figures,
alongside raw ``wall_speedup``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Tuple

from ..core.automorphism import SymmetryBreaker
from ..core.persist import (
    ChecksumError, dump_store_bytes, load_ceci, publish_bytes,
)
from ..core.store import CompactCECI
# Never called: perfbench/tracing.py patches ``shards.distribute_pivots``
# by name (ROADMAP item 2 deletes it).
from ..distributed.partition import distribute_pivots  # noqa: F401
from ..graph import Graph
from ..observability.metrics import MetricSpec
from ..resilience.faults import FaultPlan
from .scheduler import TaskQueue
from .service import MatchService, _Job, run_task, service_metric_specs

__all__ = ["ShardedMatchService", "sharded_metric_specs"]

#: How many distinct published index files one shard keeps mapped at
#: once (an OrderedDict LRU keyed by path; a bumped publish version is a
#: new path, so a republished index is never served stale).
_SHARD_STORE_CACHE = 8

#: Constructor options that only the thread executor understands.
_THREAD_ONLY = frozenset(
    {"workers", "stall_after_seconds", "watchdog_interval"}
)


def sharded_metric_specs() -> Tuple[MetricSpec, ...]:
    """The single-process service specs plus the shard tier's own:
    fan-out/routing, process supervision, and publish-integrity
    counters (all ``service_shard_*``)."""
    return service_metric_specs() + (
        MetricSpec(
            "service_shard_tasks_total",
            help="Tasks dispatched to shard processes.",
        ),
        MetricSpec(
            "service_shard_solo_routed",
            help="Budgeted/limited requests routed solo to one shard.",
        ),
        MetricSpec(
            "service_shard_fanout",
            kind="histogram",
            help="Shards contributing to each fanned-out request.",
        ),
        MetricSpec(
            "service_shard_crashes",
            help="Shard processes observed dead (pipe EOF).",
        ),
        MetricSpec(
            "service_shard_respawns",
            help="Shard processes replaced after a death.",
        ),
        MetricSpec(
            "service_shard_redispatches",
            help="Tasks re-dispatched after a shard crash or a corrupt "
                 "shared index.",
        ),
        MetricSpec(
            "service_shard_publishes",
            help="Shared CECIIDX3 index files published.",
        ),
        MetricSpec(
            "service_shard_republishes",
            help="Pristine re-publishes after a shard reported a "
                 "corrupt shared index.",
        ),
        MetricSpec(
            "service_shard_corrupt_loads",
            help="Shard-side checksum failures loading a shared index.",
        ),
        MetricSpec(
            "service_shard_count",
            kind="gauge",
            merge="max",
            help="Configured shard processes.",
        ),
        MetricSpec(
            "service_shard_inflight",
            kind="gauge",
            merge="max",
            help="Tasks currently held by shard processes (scrape-time).",
        ),
    )


# ----------------------------------------------------------------------
# Shard process (child side)
# ----------------------------------------------------------------------
def _shard_store(
    path: str, data: Graph, stores: "OrderedDict[str, CompactCECI]"
) -> CompactCECI:
    """The mmap-backed store for ``path``, via the shard's LRU."""
    store = stores.get(path)
    if store is not None:
        stores.move_to_end(path)
        return store
    loaded = load_ceci(path, data, mmap=True, verify=True)
    assert isinstance(loaded, CompactCECI)
    stores[path] = loaded
    while len(stores) > _SHARD_STORE_CACHE:
        stores.popitem(last=False)
    return loaded


def _run_shard_task(
    spec: Dict, data: Graph, stores: "OrderedDict[str, CompactCECI]"
) -> Dict:
    """Execute one task spec inside a shard process: :func:`run_task`
    over the mmap'd index, plus the task's busy and wall seconds.

    The symmetry breaker is built from the *request's own* query graph
    (shipped in the spec), not the header-round-tripped query inside
    the CECIIDX3 file, so the chosen orbit representatives are exactly
    the in-process executor's.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    store = _shard_store(spec["index_path"], data, stores)
    symmetry = SymmetryBreaker(
        spec["query"], enabled=spec["break_automorphisms"]
    )
    budget = spec["budget"]
    tracker = None
    if budget is not None and not budget.unlimited:
        tracker = budget.tracker().start()
    payload = run_task(
        store, symmetry, spec["pivots"], spec["limit"], tracker
    )
    # Per-process CPU seconds: the honest busy measure when N shard
    # processes time-share fewer cores (perf_counter would charge
    # scheduler wait to the task).
    payload["busy"] = time.process_time() - cpu0
    payload["seconds"] = time.perf_counter() - wall0
    return payload


def _shard_main(
    shard_id: int, conn, data: Graph, plan: Optional[FaultPlan]
) -> None:
    """Entry point of one shard process: a request/reply loop over the
    duplex pipe.  Replies are atomic per task — a whole task's results
    or an error — which is what makes parent-side crash recovery
    exactly-once.  Fault-plan predicates fire on the per-shard task
    counter, so a chaos plan replays identically."""
    stores: "OrderedDict[str, CompactCECI]" = OrderedDict()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "close":
            return
        # ``pick`` is the parent-owned per-shard dispatch counter: it
        # survives respawns, so a crash pick fires exactly once instead
        # of re-killing every fresh incarnation at its own pick 0.
        _, task_id, pick, spec = message
        if plan is not None and plan.shard_crashes_at(shard_id, pick):
            # Simulated process death: no reply, no cleanup — the
            # parent sees pipe EOF, exactly like a real crash.
            os._exit(1)
        if plan is not None and plan.shard_stalls_at(shard_id, pick):
            time.sleep(plan.shard_stall_seconds)
        try:
            payload = _run_shard_task(spec, data, stores)
            conn.send(("result", task_id, payload))
        except ChecksumError as exc:
            # Never serve from a torn publish: drop any stale mapping
            # and report so the parent can republish and re-dispatch.
            stores.pop(spec["index_path"], None)
            conn.send(("error", task_id, "corrupt_index", str(exc)))
        except Exception as exc:  # noqa: BLE001 - fail the task, keep
            # the shard serving its other tenants
            conn.send(("error", task_id, "error", repr(exc)))


# ----------------------------------------------------------------------
# Parent side: the shard executor
# ----------------------------------------------------------------------
class _ShardTask:
    """One dispatchable task: a spec bound to its job, covering
    ``units`` units (0 for a solo run)."""

    __slots__ = ("task_id", "job", "spec", "units", "redispatches")

    def __init__(
        self, task_id: int, job: _Job, spec: Dict, units: int
    ) -> None:
        self.task_id = task_id
        self.job = job
        self.spec = spec
        self.units = units
        self.redispatches = 0


class _Shard:
    """Parent-side handle of one shard process."""

    __slots__ = ("index", "proc", "conn", "busy_seconds", "tasks")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        #: Accumulated per-task CPU seconds (guarded by the executor's
        #: ``_task_lock``) — the benchmark's critical-path input.
        self.busy_seconds = 0.0
        self.tasks = 0


class _ShardExecutor:
    """Units on ``shards`` forked processes (see the module docstring).

    Threads: one dispatcher and one reader per shard.  Processes are
    forked in the constructor, before the parent starts any thread of
    its own; respawns after a crash do fork from a threaded parent —
    the child runs only :func:`_shard_main` over already-imported
    modules, the standard accepted trade-off for supervision.
    """

    def __init__(
        self,
        service: MatchService,
        shards: int,
        share_dir: Optional[str],
        max_redispatch: int,
    ) -> None:
        self.service = service
        self.shards = shards
        self.max_redispatch = max_redispatch
        self.metrics = service.metrics
        self.metrics.set_gauge("service_shard_count", shards)
        self._owns_share_dir = share_dir is None
        self.share_dir = (
            tempfile.mkdtemp(prefix="repro-shards-")
            if share_dir is None
            else share_dir
        )
        os.makedirs(self.share_dir, exist_ok=True)
        # Published indexes: fingerprint -> (path, version, pristine
        # blob kept for republish after a shard-side checksum failure).
        self._published: Dict[str, Tuple[str, int, bytes]] = {}
        self._publish_lock = threading.Lock()
        self._publish_picks = itertools.count()
        self._task_ids = itertools.count(1)
        self._closing = False
        # Per-shard dispatch state: an outbox queue, a window-of-one
        # semaphore, and the in-flight task table.
        self._outboxes: List[TaskQueue[_ShardTask]] = [
            TaskQueue() for _ in range(shards)
        ]
        self._windows = [threading.Semaphore(1) for _ in range(shards)]
        #: One send lock per shard pipe: a dispatcher's task send and
        #: close()'s shutdown message must never interleave bytes.
        self._send_locks = [threading.Lock() for _ in range(shards)]
        #: Parent-owned per-shard dispatch counters feeding the fault
        #: plan's (shard, pick) predicates — monotone across respawns.
        self._dispatch_counts = [0] * shards
        self._task_lock = threading.Lock()
        self._inflight_tasks: Dict[int, _ShardTask] = {}
        self._current: Dict[int, int] = {}  # shard -> in-flight task_id
        self._fork_lock = threading.Lock()
        self._ctx = get_context("fork")
        self._shards = [_Shard(i) for i in range(shards)]
        for shard in self._shards:
            self._fork_shard(shard)
        self._threads: List[threading.Thread] = []
        for shard in self._shards:
            self._start_reader(shard)
        for index in range(shards):
            self._start_thread(
                self._dispatch_loop, (index,), f"shard-dispatch-{index}"
            )

    # -- Executor protocol ---------------------------------------------
    def run_solo(self, job: _Job) -> None:
        spec = self._spec(job, 0)
        if spec is None:
            return
        job.fanout = 1
        self.metrics.inc("service_shard_solo_routed")
        self._enqueue(
            self._least_loaded(),
            _ShardTask(next(self._task_ids), job, spec, 0),
            solo=True,
        )

    def run_units(self, job: _Job, assignment: List[List[int]]) -> None:
        base = self._spec(job, sum(map(len, assignment)))
        if base is None:
            return
        owned = [
            (shard, assigned)
            for shard, assigned in enumerate(assignment)
            if assigned
        ]
        job.fanout = len(owned)
        self.metrics.observe("service_shard_fanout", len(owned))
        if job.flight is not None:
            job.flight.event("fanout", shards=len(owned))
        for shard, assigned in owned:
            spec = dict(base, pivots=assigned)
            self._enqueue(
                shard,
                _ShardTask(next(self._task_ids), job, spec, len(assigned)),
            )

    def healthy(self) -> int:
        with self._fork_lock:
            return sum(
                1
                for shard in self._shards
                if shard.proc is not None and shard.proc.is_alive()
            )

    def queue_depth(self) -> int:
        return sum(len(outbox) for outbox in self._outboxes)

    def snapshot(self) -> Dict[str, object]:
        return {
            "scheduler": {
                "shards": [outbox.snapshot() for outbox in self._outboxes],
            },
            "shards": self.telemetry(),
        }

    def telemetry(self) -> Dict[str, object]:
        with self._task_lock:
            return {
                "busy_seconds": [s.busy_seconds for s in self._shards],
                "tasks": [s.tasks for s in self._shards],
            }

    def close(self, left: Callable[[], Optional[float]]) -> bool:
        self._closing = True
        for outbox in self._outboxes:
            outbox.close()
        # Release every dispatch window so dispatchers can observe the
        # closed outboxes instead of blocking on a permit forever.
        for window in self._windows:
            window.release()
        with self._fork_lock:
            for shard in self._shards:
                try:
                    with self._send_locks[shard.index]:
                        shard.conn.send(("close",))
                except Exception:  # noqa: BLE001 - already-dead shard
                    pass
            for shard in self._shards:
                proc = shard.proc
                if proc is not None:
                    proc.join(timeout=2.0)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=1.0)
                try:
                    shard.conn.close()
                except Exception:  # noqa: BLE001
                    pass
        for thread in self._threads:
            thread.join(left())
        if self._owns_share_dir:
            shutil.rmtree(self.share_dir, ignore_errors=True)
        return not any(thread.is_alive() for thread in self._threads)

    # -- Process lifecycle -------------------------------------------------
    def _start_thread(self, target, args: Tuple, name: str) -> None:
        thread = threading.Thread(
            target=target, args=args, name=name, daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def _fork_shard(self, shard: _Shard) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_main,
            args=(
                shard.index, child_conn, self.service.data,
                self.service.fault_plan,
            ),
            name=f"repro-shard-{shard.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps only its end
        shard.proc = proc
        shard.conn = parent_conn

    def _start_reader(self, shard: _Shard) -> None:
        self._start_thread(
            self._reader_loop, (shard, shard.conn, shard.proc),
            f"shard-reader-{shard.index}",
        )

    # -- Publication -------------------------------------------------------
    def _spec(self, job: _Job, units: int) -> Optional[Dict]:
        """The task spec of ``job`` run solo (``pivots`` None), with its
        index published; a share's spec sets ``pivots``.  On a
        publish failure the job's ``units`` are reported failed and None
        is returned."""
        request = job.request
        try:
            path = self._publish(request.query.fingerprint(), job.store)
        except Exception as exc:  # noqa: BLE001 - fail the request,
            # not the scheduler
            self.service._unit_failed(job, units, repr(exc))
            return None
        return {
            "index_path": path,
            "query": request.query,
            "break_automorphisms": request.break_automorphisms,
            "pivots": None,
            "limit": request.limit,
            "budget": request.budget,
        }

    def _publish(self, fingerprint: str, store: CompactCECI) -> str:
        """Publish ``store`` once per query fingerprint as a checksummed
        CECIIDX3 file every shard can mmap.  Version numbers live in
        the *filename*: a republish never rewrites a file some shard
        already mapped, so a stale reader can at worst re-verify an
        intact old version, never observe a torn new one."""
        with self._publish_lock:
            existing = self._published.get(fingerprint)
            if existing is not None:
                return existing[0]
            blob = dump_store_bytes(store)
            path = os.path.join(self.share_dir, f"{fingerprint}.v0.ceci")
            out = blob
            plan = self.service.fault_plan
            if plan is not None and plan.publish_torn_at(
                next(self._publish_picks)
            ):
                # Torn publish: the file ends mid-block, as if the
                # publisher died between write and fsync.
                out = blob[: (2 * len(blob)) // 3]
            publish_bytes(out, path)
            self._published[fingerprint] = (path, 0, blob)
            self.metrics.inc("service_shard_publishes")
            return path

    def _republish(self, fingerprint: str, bad_path: str) -> Optional[str]:
        """Publish the pristine blob under a bumped version after a
        shard reported checksum failure on ``bad_path``.  Idempotent
        per torn version: when several shards report the same torn file
        only the first bumps; the rest are pointed at the repair.  The
        torn file is left in place — other in-flight tasks referencing
        it fail their own checksum and land here too, never read
        garbage.  The recovery path writes the known-good bytes
        directly: the torn-publish fault models the initial write, not
        the repair."""
        with self._publish_lock:
            existing = self._published.get(fingerprint)
            if existing is None:
                return None
            path, version, blob = existing
            if path != bad_path:
                return path  # already republished past the torn version
            version += 1
            path = os.path.join(
                self.share_dir, f"{fingerprint}.v{version}.ceci"
            )
            publish_bytes(blob, path)
            self._published[fingerprint] = (path, version, blob)
            self.metrics.inc("service_shard_republishes")
            return path

    # -- Dispatch -----------------------------------------------------------
    def _least_loaded(self) -> int:
        with self._task_lock:
            depth = [
                len(self._outboxes[i]) + (1 if i in self._current else 0)
                for i in range(self.shards)
            ]
        return min(range(self.shards), key=lambda i: depth[i])

    def _enqueue(
        self, shard: int, task: _ShardTask, solo: bool = False
    ) -> None:
        try:
            if solo:
                self._outboxes[shard].push_solo(task)
            else:
                self._outboxes[shard].push(task)
        except RuntimeError:
            # Outbox closed mid-push (timed-out close): the close path
            # force-finalizes every leftover job.
            return

    def _dispatch_loop(self, shard_index: int) -> None:
        outbox = self._outboxes[shard_index]
        window = self._windows[shard_index]
        while True:
            window.acquire()
            task = outbox.pop()
            if task is None:  # closed and drained
                return
            self._send(shard_index, task)
            # Wait for the next task holding none: a finished job must
            # die with its caller's handle, not linger in this frame.
            del task

    def _send(self, shard_index: int, task: _ShardTask) -> None:
        """Send one task to its shard under a window permit the caller
        acquired (released here if the task is not sent)."""
        window = self._windows[shard_index]
        if task.job.done:  # finalized while queued — skip the send
            window.release()
            return
        with self._task_lock:
            self._inflight_tasks[task.task_id] = task
            self._current[shard_index] = task.task_id
            pick = self._dispatch_counts[shard_index]
            self._dispatch_counts[shard_index] += 1
            self.metrics.set_gauge(
                "service_shard_inflight", len(self._inflight_tasks)
            )
        try:
            with self._fork_lock:
                conn = self._shards[shard_index].conn
            with self._send_locks[shard_index]:
                conn.send(("task", task.task_id, pick, task.spec))
            self.metrics.inc("service_shard_tasks_total")
            if task.job.flight is not None:
                task.job.flight.event(
                    "shard_dispatch", shard=shard_index,
                    task=task.task_id,
                    kind="units" if task.units else "solo",
                )
        except Exception:  # noqa: BLE001 - dead pipe: the reader
            # respawns the shard; requeue and hand the permit back.
            # Whoever claims the in-flight record owns the permit
            # release — if the reader's crash recovery claimed it
            # first, it also released, and we must not double up.
            if self._take_task(shard_index, task.task_id) is not None:
                window.release()
                if not self._closing:
                    try:
                        self._outboxes[shard_index].push_recovered(task)
                    except RuntimeError:
                        pass
            time.sleep(0.005)

    def _take_task(
        self, shard_index: int, task_id: int
    ) -> Optional[_ShardTask]:
        """Atomically claim (remove) an in-flight task record.  Exactly
        one of the dispatcher's failure path, the reader's result path
        and the reader's crash-recovery path wins; the winner owns the
        window permit release."""
        with self._task_lock:
            record = self._inflight_tasks.pop(task_id, None)
            if self._current.get(shard_index) == task_id:
                del self._current[shard_index]
            self.metrics.set_gauge(
                "service_shard_inflight", len(self._inflight_tasks)
            )
            return record

    # -- Replies and recovery ------------------------------------------------
    def _reader_loop(self, shard: _Shard, conn, proc) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                if not self._closing:
                    self._handle_shard_death(shard, conn, proc)
                return
            self._handle_message(shard.index, message)
            # A reply holds its rows (or a solo answer): wait for the
            # next one without it.
            del message

    def _handle_shard_death(self, shard: _Shard, conn, proc) -> None:
        """Pipe EOF from a live executor: the shard process died.  Claim
        its in-flight task, respawn the process (new pipe, new reader
        thread), then re-dispatch the lost task."""
        with self._fork_lock:
            if self._closing or shard.conn is not conn:
                return
            self.metrics.inc("service_shard_crashes")
            record: Optional[_ShardTask] = None
            with self._task_lock:
                task_id = self._current.get(shard.index)
            if task_id is not None:
                record = self._take_task(shard.index, task_id)
            try:
                conn.close()
            except Exception:  # noqa: BLE001
                pass
            if proc is not None:
                proc.join(timeout=1.0)
            self._fork_shard(shard)
            self._start_reader(shard)
            self.metrics.inc("service_shard_respawns")
        if record is not None:
            self._windows[shard.index].release()
            self._redispatch(shard.index, record, "shard crash", "crash")

    def _redispatch(
        self, shard_index: int, record: _ShardTask, reason: str, kind: str
    ) -> None:
        """Re-dispatch a lost task head-of-line, at most
        ``max_redispatch`` times; past that its units fail as ``kind``."""
        job = record.job
        if job.done:
            return
        record.redispatches += 1
        if job.flight is not None:
            job.flight.event(
                "shard_recover", shard=shard_index, task=record.task_id,
                reason=reason, attempt=record.redispatches,
            )
        if record.redispatches > self.max_redispatch:
            self.service._unit_failed(
                job, record.units,
                f"task re-dispatched {self.max_redispatch} times "
                f"({reason}) without completing",
                kind=kind,
            )
            return
        self.metrics.inc("service_shard_redispatches")
        try:
            self._outboxes[shard_index].push_recovered(record)
        except RuntimeError:
            pass  # closing: leftover jobs are force-finalized

    def _handle_message(self, shard_index: int, message: Tuple) -> None:
        if message[0] == "result":
            _, task_id, payload = message
        else:
            _, task_id, err_kind, detail = message
        record = self._take_task(shard_index, task_id)
        if record is None:
            return  # already recovered elsewhere
        self._windows[shard_index].release()
        job = record.job
        if message[0] == "error":
            if err_kind != "corrupt_index":
                self.service._unit_failed(job, record.units, detail)
                return
            # A shard refused a torn published index: republish pristine
            # bytes under a bumped version and re-dispatch against it.
            self.metrics.inc("service_shard_corrupt_loads")
            path = self._republish(
                job.request.query.fingerprint(), record.spec["index_path"]
            )
            if path is None:
                self.service._unit_failed(job, record.units, detail)
                return
            record.spec["index_path"] = path
            self._redispatch(
                shard_index, record, f"corrupt shared index: {detail}",
                "error",
            )
            return
        with self._task_lock:
            shard = self._shards[shard_index]
            shard.busy_seconds += float(payload["busy"])
            shard.tasks += 1
        if job.flight is not None:
            job.flight.event(
                "shard_result", shard=shard_index, task=record.task_id,
                busy=round(float(payload["busy"]), 6),
            )
        self.service._task_done(
            job, payload, payload["seconds"], worker=shard_index
        )


class ShardedMatchService(MatchService):
    """A :class:`~repro.service.service.MatchService` whose units run on
    ``shards`` worker processes.

    Takes every front-end option of :class:`MatchService` (all but the
    thread-only ``workers``, ``stall_after_seconds`` and
    ``watchdog_interval``) and keeps its exactness contract: a sharded
    response's embeddings, counts, truncation flags and statuses are
    indistinguishable from the thread executor's.  ``share_dir`` is
    where published CECIIDX3 files live (a private temporary directory
    by default, removed on close); ``max_redispatch`` bounds how many
    times one lost task is re-dispatched after shard crashes before its
    units fail as a crash.

    The shard processes are alive when the constructor returns.  Use as
    a context manager, or call :meth:`close` when done.
    """

    metric_specs = staticmethod(sharded_metric_specs)

    def __init__(
        self,
        data: Graph,
        shards: int = 2,
        share_dir: Optional[str] = None,
        max_redispatch: int = 3,
        **options,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        thread_only = sorted(_THREAD_ONLY & options.keys())
        if thread_only:
            raise TypeError(
                f"thread-executor options not accepted with shards: "
                f"{', '.join(thread_only)}"
            )
        self.shards = shards
        self._shard_options = (share_dir, max_redispatch)
        super().__init__(data, workers=shards, **options)

    def _make_executor(
        self,
        workers: int,
        stall_after_seconds: Optional[float],
        watchdog_interval: float,
    ) -> _ShardExecutor:
        return _ShardExecutor(self, self.shards, *self._shard_options)

    def shard_telemetry(self) -> Dict[str, object]:
        """Per-shard accounting the horizontal-scaling benchmark reads:
        accumulated CPU-busy seconds and task counts, per shard."""
        return self.executor.telemetry()
