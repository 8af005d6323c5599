"""The serve workloads: closed-loop replay, inline replay and open loop.

* **Closed loop** — the whole schedule through
  :class:`~repro.serve.ServeService` in replay mode with the process
  backend and one shard: the parent (ingress, dispatch, merge) plus one
  worker, so no more busy processes than two cores.
* **Inline replay** — the same schedule through one
  :class:`~repro.serve.ShardState` in this process.  Its digest must equal
  the closed loop's, and its wall time is the baseline the process
  backend's overhead is measured against.
* **Open loop** — a fresh live inline ``ShardState`` (:class:`LiveShard`)
  serves the earlier part of the schedule untimed, then a single-threaded
  generator offers the rest as a seeded Poisson stream at a fixed rate.
  Each event's latency runs from its due time to the return of the
  ``process()`` call that served it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.serve import (
    ServeConfig,
    ServeService,
    ServeWorkloadConfig,
    ServiceReport,
    ShardState,
    encode_response,
    response_digest,
)
from repro.serve.events import EventSchedule
from repro.serve.shard import BatchResult

from edgebench.tracing import GCMonitor

#: Events per ``process()`` call wherever the benchmark drives a shard
#: itself; the service's own default batch size.
BATCH = ServeConfig().batch_max

#: The paper's real-time-bidding deadline.
DEADLINE_S = 0.100


def serve_config(schedule: EventSchedule, seed: int) -> ServeConfig:
    """One shard, process backend, replay mode: the closed-loop service."""
    return ServeConfig(
        workload=ServeWorkloadConfig(
            n_users=schedule.n_users, n_events=len(schedule), seed=seed
        ),
        n_shards=1,
        replay=True,
        use_processes=True,
    )


@dataclass
class ClosedLoop:
    """What the closed loop measured and what the checks need from it."""

    wall_s: float
    parent_cpu_s: float
    #: The parent's RSS when the service started, before it forked its
    #: worker: the pages the worker shares with the parent from birth.
    fork_rss_mb: float
    processed: int
    digest: str
    epsilon_spent: float
    ads_delivered: int
    ads_received: int
    top_events: int
    #: Canonical encoding of each response, indexed by ``seq``.
    encoded: List[bytes]
    #: Reported coordinates in ``seq`` order, with their user index.
    reported_xy: np.ndarray
    reported_user: np.ndarray
    failures: List[str] = field(default_factory=list)


def closed_loop(schedule: EventSchedule, config: ServeConfig) -> ClosedLoop:
    """Replay the whole schedule through the one-shard process service."""
    gc.collect()
    fork_rss_mb = rss_mb()
    cpu0 = time.process_time()
    result = ServeService(config, schedule=schedule).run()
    cpu = time.process_time() - cpu0
    report = ServiceReport(result=result, config=config)
    audit = report.audit
    responses = result.responses
    n = len(schedule)
    all_answered = (
        [r.seq for r in responses] == list(range(n))
        and result.dropped == 0
        and result.enqueued == n
    )
    out = ClosedLoop(
        wall_s=result.wall_seconds,
        parent_cpu_s=cpu,
        fork_rss_mb=fork_rss_mb,
        processed=result.processed,
        digest=result.digest,
        epsilon_spent=audit.gauge_epsilon,
        ads_delivered=sum(len(r.ads) for r in responses),
        ads_received=sum(r.received for r in responses),
        top_events=sum(r.path == "top" for r in responses),
        encoded=[encode_response(r) for r in responses],
        reported_xy=np.array([(r.reported_x, r.reported_y) for r in responses]),
        reported_user=np.array([r.user_index for r in responses], dtype=np.int64),
    )
    if result.backend != "process":
        out.failures.append(f"closed loop ran on the {result.backend} backend")
    if not audit.gauge_matches_audit:
        out.failures.append("privacy gauges differ from the ledger audit")
    if not all_answered:
        out.failures.append(
            f"closed loop answered {result.processed} of {n} events"
        )
    return out


def inline_replay(schedule: EventSchedule, config: ServeConfig) -> Tuple[float, str]:
    """Replay the schedule through one in-process shard: ``(wall, digest)``."""
    gc.collect()
    t0 = time.perf_counter()
    state = ShardState(config.shard_spec(0), schedule)
    responses = []
    for lo in range(0, len(schedule), BATCH):
        responses.extend(
            state.process(list(range(lo, min(lo + BATCH, len(schedule))))).responses
        )
    state.finalize()
    wall = time.perf_counter() - t0
    return wall, response_digest(responses)


def arrivals(n: int, rate: float, seed: int) -> np.ndarray:
    """Seeded Poisson due offsets (seconds from the window start)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


class LiveShard:
    """A live inline shard: warmed in bulk, then offered events on a clock.

    Events are served strictly in ``seq`` order.  Every response is
    compared with ``expected[seq]`` (the process backend's encoding) as
    soon as its batch returns, so no response outlives its batch: a
    retained result would grow the heap the collector walks.
    """

    def __init__(self, schedule: EventSchedule, config: ServeConfig,
                 expected: List[bytes]) -> None:
        self.state = ShardState(
            dataclasses.replace(config.shard_spec(0), replay=False), schedule
        )
        self.expected = expected
        self.next_seq = 0
        self.answered = 0
        self.mismatched = 0
        self.batches = 0
        self.late: List[float] = []

    def _check(self, result: BatchResult) -> None:
        for response in result.responses:
            self.answered += 1
            self.mismatched += encode_response(response) != self.expected[response.seq]

    def warm(self, until: int) -> None:
        """Serve the events before ``until`` untimed, in batches."""
        for lo in range(self.next_seq, until, BATCH):
            self._check(self.state.process(list(range(lo, min(lo + BATCH, until)))))
        self.next_seq = until

    def offer(self, due_offsets: np.ndarray,
              monitor: Optional[GCMonitor] = None) -> np.ndarray:
        """Offer the next ``len(due_offsets)`` events; their latencies (s).

        The generator busy-waits until the next event is due, then hands
        every event already due to one ``process()`` call.  A latency runs
        from the event's due time to the return of that call.  Waiting
        without sleeping keeps the core awake between events, as under
        steady load; a sleeping generator let the host park the core and
        made per-event times swing by half between runs.  ``monitor`` (if
        given) sees the collections inside the window only.  Nothing
        collects before the window: the collector runs on the heap the
        warm-up left, as it would in a long-running edge.
        """
        count = len(due_offsets)
        first = self.next_seq
        latency = np.empty(count)
        with monitor if monitor is not None else contextlib.nullcontext():
            due = time.perf_counter() + 0.01 + (due_offsets - due_offsets[0])
            i = 0
            while i < count:
                now = time.perf_counter()
                if due[i] > now:
                    while time.perf_counter() < due[i]:
                        pass
                    now = time.perf_counter()
                    self.late.append(now - due[i])
                j = max(int(np.searchsorted(due, now, side="right")), i + 1)
                result = self.state.process(list(range(first + i, first + j)))
                latency[i:j] = time.perf_counter() - due[i:j]
                self._check(result)
                self.batches += 1
                i = j
        self.next_seq = first + count
        return latency


def rss_mb() -> float:
    """Current RSS of this process in MB."""
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * resource.getpagesize() / 2**20


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, or of its largest reaped child, in MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
