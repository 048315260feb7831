"""The four workloads and the closed-loop callers that drive them.

* ``lib-build`` — library path, one caller, a fresh
  ``CECIMatcher(q, G).match()`` per request on a 20k-vertex labeled
  graph with small-answer queries: index build dominates.
* ``lib-enum`` — library path, one caller, the Figure 6 queries on an
  unlabeled power-law graph: enumeration dominates.
* ``svc-mix`` — ``MatchService(workers=2)``, two callers, a Zipf mix
  over 48 queries through a 16-entry index cache, every 10th request
  with ``limit=1``: cache hits, misses, evictions and the solo lane.
* ``shard-fanout`` — ``ShardedMatchService(shards=2)``, two callers,
  unbounded Figure 6 queries with indexes built and published during
  set-up: fan-out, shard enumeration, pickled replies and the merge.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import inputs
import rss
from inputs import GraphSpec, Query, Request
from oracle import Checker
from repro import CECIMatcher, Graph
from repro.service.request import MatchRequest, Status
from repro.service.service import MatchService
from repro.service.shards import ShardedMatchService

#: How long a caller waits for one service response before counting
#: the request failed.
RESULT_TIMEOUT_S = 60.0


def make_graph(spec: GraphSpec) -> Graph:
    return Graph(spec.n, spec.edges, spec.labels)


class Outcome:
    """What one request returned, as the metrics need it."""

    __slots__ = ("embeddings", "error", "stats", "response")

    def __init__(self, embeddings, error=None, stats=None, response=None):
        self.embeddings = embeddings
        self.error = error
        self.stats = stats
        self.response = response


class Workload:
    name = ""
    callers = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 4

    def __init__(self, scale: str, seed: int, expected: Dict) -> None:
        self.scale = scale
        self.seed = seed
        self.expected = expected[self.name]
        self.data = self.make_data()
        if self.data.digest() != expected["digests"][self.graph_kind]:
            raise ValueError(
                f"{self.name}: generated data graph differs from the one "
                "the expected counts were made for; regenerate them"
            )
        self.pool = self.make_pool(expected)

    graph_kind = ""

    def make_data(self) -> GraphSpec:
        if self.graph_kind == "labeled":
            return inputs.labeled_graph(self.scale)
        return inputs.power_graph(self.scale)

    def make_pool(self, expected: Dict) -> List[Query]:
        raise NotImplementedError

    def one_pass(self) -> List[Request]:
        """The requests of one pass, in order before the seeded rotation:
        the whole pool once, unbounded."""
        return [Request(q, None) for q in self.pool]

    def passes(self) -> Iterator[List[Request]]:
        return inputs.rotated(self.one_pass(), self.seed)

    def checker(self) -> Checker:
        return Checker(self.data, self.expected)

    def setup(self, recorder=None):
        """Build the data graph, warm its lazy caches and start what
        serves requests; returns the system handle."""
        span = recorder.begin("graph") if recorder is not None else None
        graph = make_graph(self.data)
        graph.neighbor_label_counts(0)  # fills the whole NLC table
        if span is not None:
            recorder.end(span)
        return self.start(graph)

    def start(self, graph: Graph):
        return graph

    def close(self, system) -> None:
        pass

    def execute(self, system, request: Request, query: Graph, rid: int) -> Outcome:
        raise NotImplementedError

    def final_checks(self, system, checker: Checker) -> None:
        pass

    def service_snapshot(self, system) -> Dict:
        return {}

    def reset_peaks(self) -> None:
        """Reset the peak-memory marks that :meth:`peak_rss_mb` reads,
        after handing freed heap back to the system."""
        rss.release_free_heap()
        rss.reset_peak()

    def peak_rss_mb(self) -> float:
        """Peak resident memory since :meth:`reset_peaks`: this process,
        plus on ``shard-fanout`` what the larger shard process holds
        beyond what it shared with this process at its fork."""
        return rss.peak()


def _labeled_pool(workload: Workload, expected: Dict, size: int) -> List[Query]:
    return inputs.build_pool(
        workload.data, inputs.adjacency(workload.data), size, expected["screen"]
    )


class LibraryWorkload(Workload):
    def execute(self, system, request, query, rid):
        matcher = CECIMatcher(query, system)
        embeddings = matcher.match(request.limit)
        return Outcome(embeddings, stats=matcher.stats)


class LibBuild(LibraryWorkload):
    name = "lib-build"
    graph_kind = "labeled"

    def make_pool(self, expected):
        return _labeled_pool(self, expected, inputs.SCALES[self.scale]["build_pool"])


class LibEnum(LibraryWorkload):
    name = "lib-enum"
    graph_kind = "power"
    #: Set-up is tens of milliseconds here, so take more samples.
    setup_repeats = 8

    def make_pool(self, expected):
        return inputs.figure6(["QG1", "QG2", "QG3", "QG4", "QG5"])


class ServiceWorkload(Workload):
    callers = 2

    def close(self, system) -> None:
        system.close(timeout=30.0)

    def execute(self, system, request, query, rid):
        pending = system.submit(
            MatchRequest(query, limit=request.limit, request_id=rid)
        )
        try:
            response = pending.result(timeout=RESULT_TIMEOUT_S)
        except TimeoutError:
            pending.cancel()
            return Outcome(None, error="no response within the timeout")
        if response.status != Status.OK:
            return Outcome(
                None,
                error=f"status {response.status}: {response.error}",
                stats=response.stats,
                response=response,
            )
        return Outcome(
            response.embeddings, stats=response.stats, response=response
        )

    def service_snapshot(self, system) -> Dict:
        snap = {"cache": system.index_cache.snapshot()}
        if isinstance(system, ShardedMatchService):
            snap["shards"] = system.shard_telemetry()
        return snap


class SvcMix(ServiceWorkload):
    name = "svc-mix"
    graph_kind = "labeled"

    def make_pool(self, expected):
        return _labeled_pool(self, expected, inputs.SCALES[self.scale]["mix_pool"])

    def one_pass(self):
        """96 Zipf-distributed requests."""
        return inputs.zipf_sequence(self.pool, 2 * len(self.pool))

    def start(self, graph):
        return MatchService(
            graph,
            workers=2,
            index_capacity=inputs.SCALES[self.scale]["mix_cache"],
        )


class ShardFanout(ServiceWorkload):
    name = "shard-fanout"
    graph_kind = "power"
    #: Set-up forks the shard processes, whose start-up time varies.
    setup_repeats = 6

    def make_pool(self, expected):
        return inputs.figure6(["QG1", "QG2", "QG3", "QG5"])

    def start(self, graph):
        service = ShardedMatchService(graph, shards=2)
        # A forked shard starts out resident with the pages it shares
        # with this process, which this process's peak already counts:
        # count only what each shard adds beyond them.
        self.shard_rss = {
            child.pid: rss.reset_peak(child.pid)
            for child in multiprocessing.active_children()
        }
        # Build and publish every index now: a limit=1 request resolves
        # the index, publishes it and enumerates one embedding solo.
        self.warm_answers = {}
        for query in self.pool:
            response = service.match(
                MatchRequest(make_graph(query.graph), limit=1)
            )
            self.warm_answers[query.name] = (
                response.embeddings if response.status == Status.OK else None
            )
        return service

    def reset_peaks(self) -> None:
        super().reset_peaks()
        for pid in self.shard_rss:
            rss.reset_peak(pid)

    def peak_rss_mb(self) -> float:
        return rss.peak() + max(
            rss.peak(pid) - at_fork for pid, at_fork in self.shard_rss.items()
        )

    def final_checks(self, system, checker):
        """Sharded answers must equal the library's, as exact lists."""
        for query in self.pool:
            library = CECIMatcher(
                make_graph(query.graph), system.data
            ).match()
            checker.record(query, 1, self.warm_answers[query.name])
            checker.compare_exact(query.name, None, library)
            checker.compare_exact(query.name, 1, library[:1])


WORKLOADS = {cls.name: cls for cls in (LibBuild, LibEnum, SvcMix, ShardFanout)}


# ----------------------------------------------------------------------
# Closed-loop callers
# ----------------------------------------------------------------------
class Feed:
    """The shared request stream.  It stops handing out requests only
    at a pass boundary once ``seconds`` have elapsed, so a run always
    covers whole passes."""

    def __init__(self, passes: Iterator[List[Request]], seconds: float) -> None:
        self._passes = passes
        self._seconds = seconds
        self._pending: List[Request] = []
        self._fetched = 0
        self._lock = threading.Lock()
        self.started = 0.0
        self.pass_length = 1

    def start(self) -> "Feed":
        self._fetched = 0
        self.started = time.perf_counter()
        return self

    def next(self) -> Optional[Request]:
        with self._lock:
            if not self._pending:
                if (
                    self._fetched
                    and time.perf_counter() - self.started >= self._seconds
                ):
                    return None
                self._pending = list(next(self._passes))
                self.pass_length = len(self._pending)
                self._fetched += 1
            return self._pending.pop(0)


class Sample:
    """One checked request, without its embeddings (which the checker
    has already compared).  Its ``MatchStats`` are kept only in a traced
    segment, which needs them for the per-layer metrics."""

    __slots__ = ("latency", "done", "embeddings", "stats", "service")

    def __init__(
        self, latency: float, done: float, outcome: Outcome, traced: bool
    ) -> None:
        self.latency = latency
        self.done = done
        self.embeddings = len(outcome.embeddings or ())
        self.stats = outcome.stats if traced else None
        #: (latency_seconds, service_seconds, status) as the service
        #: reported them; ``None`` on the library path.
        self.service = None
        if outcome.response is not None:
            response = outcome.response
            self.service = (
                response.latency_seconds, response.service_seconds,
                response.status,
            )


class Segment:
    """One closed-loop run over a feed: ``samples`` in completion order
    and the wall window ``[t0, t1]``."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.t0 = 0.0
        self.t1 = 0.0
        self.pass_length = 1

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    def passes(self) -> List[Tuple[float, List[Sample]]]:
        """The samples cut into pass-sized runs of consecutive
        completions, each with the wall time it took."""
        out = []
        last = self.t0
        size = self.pass_length
        for i in range(0, len(self.samples) - size + 1, size):
            chunk = self.samples[i:i + size]
            out.append((chunk[-1].done - last, chunk))
            last = chunk[-1].done
        return out


def drive(
    workload: Workload,
    system,
    feed: Feed,
    checker: Checker,
    request_ids: Iterator[int],
    recorder=None,
    sequential: bool = False,
) -> Segment:
    """Run ``workload.callers`` closed-loop callers until the feed
    stops; every answer is checked as it arrives.  ``sequential`` runs
    one caller and a full collection before each request, so the
    process's memory holds one request's live data and nothing that
    merely waits for the collector."""
    segment = Segment()
    lock = threading.Lock()
    errors: List[BaseException] = []

    def caller() -> None:
        try:
            while True:
                request = feed.next()
                if request is None:
                    return
                with lock:
                    rid = next(request_ids)
                if sequential:
                    gc.collect()
                query = make_graph(request.query.graph)
                span = None
                if recorder is not None:
                    recorder.rid_of_query[id(query)] = rid
                    span = recorder.request_span(rid)
                started = time.perf_counter()
                try:
                    outcome = workload.execute(system, request, query, rid)
                except Exception as exc:  # noqa: BLE001 - a failed
                    # request is counted, not fatal to the run
                    outcome = Outcome(None, error=repr(exc))
                done = time.perf_counter()
                latency = done - started
                if span is not None:
                    recorder.end_request(span)
                    del recorder.rid_of_query[id(query)]
                with lock:
                    checker.record(
                        request.query, request.limit,
                        outcome.embeddings, outcome.error,
                    )
                    segment.samples.append(
                        Sample(latency, done, outcome, recorder is not None)
                    )
                del outcome
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    feed.start()
    segment.t0 = feed.started
    callers = 1 if sequential else workload.callers
    if callers == 1:
        caller()
    else:
        threads = [
            threading.Thread(target=caller, name=f"bench-caller-{i}")
            for i in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    segment.t1 = time.perf_counter()
    segment.pass_length = feed.pass_length
    if errors:
        raise errors[0]
    return segment
