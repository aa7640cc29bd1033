"""The assignment frontend: live task assignment against published snapshots.

When a worker arrives, the frontend asks its assignment strategy (AccOpt,
uncertainty-first, spatial-first or random — built through
:func:`repro.assign.build_assigner`) for that worker's HIT, computed against
the **latest published snapshot** rather than the live inference object: the
ingestion layer may be mid-update at any moment, and snapshots are the
read-side boundary that makes that safe.

Parameters are pushed into the assigner only when the snapshot version
actually changed since the last request, as the snapshot's frozen
:class:`~repro.core.params.ArrayParameterStore` (AccOpt aligns its arrays to
its own worker and task order in NumPy; the other strategies convert it as
they need), and every request records its wall-clock latency so the service
can report p50/p95 assignment latencies — the paper's Figure 14 concern,
measured on the serving path.  AccOpt requests run on the batched ΔAcc
kernels (:mod:`repro.core.accuracy_kernel`), dense by default or
candidate-pruned with ``engine="sparse"``; the scalar Algorithm 1 they are
tested against lives in ``tests/oracles/accopt.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.assign import build_assigner
from repro.data.models import AnswerSet, Task, Worker
from repro.obs.metrics import Histogram
from repro.obs.trace import Tracer
from repro.serving.snapshots import SnapshotStore
from repro.spatial.distance import DistanceModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.guard import ReputationTracker

#: Version reported while no snapshot has been published yet.
NO_SNAPSHOT = -1

#: Latency samples retained by :class:`LatencyReservoir` — percentiles are
#: exact up to this many requests, a uniform random sample beyond it.
LATENCY_RESERVOIR_SIZE = 4096


class LatencyReservoir:
    """Bounded uniform sample of latency observations (Vitter's Algorithm R).

    A long-lived frontend serves an unbounded number of requests; keeping
    every latency sample is O(requests) memory for percentile reporting that
    a fixed-size sample answers just as well.  The reservoir keeps the first
    ``capacity`` observations verbatim — percentiles are **exact** below the
    cap — and from then on each new observation replaces a uniformly random
    retained one with probability ``capacity / n``, yielding an unbiased
    uniform sample of the whole stream.  Replacement draws use a dedicated
    seeded generator so reported percentiles are reproducible run to run.
    """

    __slots__ = ("_capacity", "_samples", "_count", "_rng")

    def __init__(self, capacity: int = LATENCY_RESERVOIR_SIZE, seed: int = 0x1A7E) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._samples: list[float] = []
        self._count = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        """Number of retained samples (≤ capacity)."""
        return len(self._samples)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Total observations ever recorded (retained or not)."""
        return self._count

    @property
    def samples(self) -> list[float]:
        """The retained samples, in no particular order."""
        return self._samples

    @property
    def saturated(self) -> bool:
        """Whether observations have started displacing retained samples."""
        return self._count > self._capacity

    def add(self, value: float) -> None:
        self._count += 1
        if len(self._samples) < self._capacity:
            self._samples.append(float(value))
            return
        slot = int(self._rng.integers(self._count))
        if slot < self._capacity:
            self._samples[slot] = float(value)

    def percentile(self, percentile: float) -> float:
        """Latency percentile over the retained sample.

        Contract: an empty reservoir returns exactly ``0.0`` — never ``NaN``
        and never a division error — so rate/latency reporting is total.
        """
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, percentile))


@dataclass(frozen=True)
class AssignmentResponse:
    """Outcome of one assignment request."""

    worker_id: str
    task_ids: tuple[str, ...]
    snapshot_version: int
    latency_ms: float
    #: Age of the snapshot this response was computed against, measured from
    #: that snapshot's own monotonic publish stamp at serve time (clamped at
    #: 0; 0.0 when no snapshot existed yet).
    snapshot_age_s: float = 0.0


@dataclass
class FrontendStats:
    """Aggregate request counters plus a bounded latency reservoir.

    ``latencies`` holds at most :data:`LATENCY_RESERVOIR_SIZE` samples —
    exact percentiles below the cap, an unbiased uniform sample of the whole
    request stream beyond it — so a long-lived frontend's stats stay O(1)
    in the number of requests served.
    """

    requests: int = 0
    tasks_assigned: int = 0
    empty_responses: int = 0
    parameter_refreshes: int = 0
    #: Requests served while the snapshot store was marked degraded — the
    #: update path was failing and the response came off the last good
    #: snapshot instead of a fresh estimate.  Nonzero means the frontend kept
    #: answering through a fault storm; it never raises for staleness.
    stale_serves: int = 0
    #: Requests from quarantined workers refused with an empty HIT — the
    #: reputation tracker demoted the worker and the frontend stopped spending
    #: assignment budget on them (they may still be serving probation answers
    #: through the ingest path at reduced weight).
    blocked_requests: int = 0
    #: Assignments where one optimiser-picked task was swapped for the
    #: worker's nearest unanswered task (a trust probe).
    probes: int = 0
    latencies: LatencyReservoir = field(default_factory=LatencyReservoir)

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile in milliseconds.

        Contract: exactly ``0.0`` when no requests were served (empty
        reservoir) — never ``NaN`` or a raised error.
        """
        return self.latencies.percentile(percentile)

    @property
    def p50_latency_ms(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_ms(self) -> float:
        return self.latency_percentile(95.0)


class AssignmentFrontend:
    """Serves per-worker assignments computed against the latest snapshot."""

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        distance_model: DistanceModel,
        snapshots: SnapshotStore,
        strategy: str = "accopt",
        seed: int | None = None,
        engine: str = "vectorized",
        tracer: Tracer | None = None,
        candidate_radius: float | None = None,
        reputation: "ReputationTracker | None" = None,
        probe_interval: int = 0,
    ) -> None:
        self._assigner = build_assigner(
            strategy,
            tasks,
            workers,
            distance_model=distance_model,
            seed=seed,
            engine=engine,
            candidate_radius=candidate_radius,
            metrics=tracer.metrics if tracer is not None else None,
        )
        self._snapshots = snapshots
        self._strategy = strategy
        self._seen_version: int | None = None
        self._reputation = reputation
        # Trust probes: every ``probe_interval``-th request per worker swaps
        # one optimiser-picked task for the worker's nearest unanswered task.
        # Near-task behaviour is the only evidence that separates a *local*
        # honest profile from an adversarial coin (far from a task, both are
        # statistically coins under the paper's bell-function family), so the
        # platform has to actively collect it for every worker — the
        # optimiser alone can starve a worker of near tasks indefinitely.
        self._probe_interval = probe_interval
        if probe_interval > 0:
            # Probe ties go to the first task in construction order, then
            # arrival order; the assigner's columns run in its own order, so
            # keep each column's rank in ours (arrivals rank and sit last in
            # both).
            column = {tid: j for j, tid in enumerate(self._assigner.task_order)}
            columns = [column[tid] for tid in dict.fromkeys(t.task_id for t in tasks)]
            self._probe_rank = np.empty(len(columns), dtype=np.intp)
            self._probe_rank[columns] = np.arange(len(columns))
        # Tracker version whose quarantine set was last pushed into the
        # assigner's exclusion list; synced lazily per request.
        self._seen_reputation_version: int | None = None
        self._stats = FrontendStats()
        # The registry histogram is the authoritative percentile source when
        # telemetry is wired; the reservoir stays as a compatibility view.
        self._tracer = tracer
        self._latency_hist: Histogram | None = None
        self._age_hist: Histogram | None = None
        if tracer is not None and tracer.metrics is not None:
            self._latency_hist = tracer.metrics.histogram("assign_latency_seconds")
            self._age_hist = tracer.metrics.histogram("snapshot_age_at_serve_seconds")

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def stats(self) -> FrontendStats:
        return self._stats

    @property
    def seen_version(self) -> int | None:
        """Version of the snapshot the assigner's parameters came from."""
        return self._seen_version

    def latency_percentile_ms(self, percentile: float) -> float:
        """Assignment latency percentile in milliseconds (0.0 before any request).

        Prefers the registry histogram (exact counts over the whole request
        stream) and falls back to the reservoir's retained sample when the
        frontend runs without telemetry.
        """
        if self._latency_hist is not None and self._latency_hist.count > 0:
            return self._latency_hist.percentile(percentile) * 1000.0
        return self._stats.latency_percentile(percentile)

    # --------------------------------------------------------- open-world growth
    def add_task(self, task: Task) -> bool:
        """Admit a task posted after startup into the assignment universe.

        The strategy's task-side structures (including the accuracy kernel's
        cached distance matrix for AccOpt) grow with it; until the inference
        catches up, the new task scores with its footnote-3 prior.
        """
        admitted = self._assigner.add_task(task)
        if admitted and self._probe_interval > 0:
            self._probe_rank = np.append(self._probe_rank, self._probe_rank.size)
        return admitted

    def add_worker(self, worker: Worker) -> bool:
        """Admit a worker who joined after startup into the assignment universe."""
        return self._assigner.add_worker(worker)

    # ------------------------------------------------------------ trust probes
    def _maybe_probe(
        self, worker_id: str, h: int, task_ids: tuple[str, ...], answers: AnswerSet
    ) -> tuple[str, ...]:
        """Swap the last optimiser pick for the nearest unanswered task.

        Fires on every ``probe_interval``-th request per worker, counted as a
        pure function of the worker's *answered-task* total
        (``answer_count_of_worker // h``), not in-memory request counters — a
        recovered session derives the identical probe schedule from the
        replayed answer log.

        The pick is the minimum of the worker's normalised distance row as
        the assigner keeps it (:meth:`~repro.core.assignment.TaskAssigner.distance_row`:
        AccOpt's dense engine returns the row its request just cached, other
        configurations a fresh row from the assigner's task coordinates),
        with the worker's answered columns
        (:meth:`~repro.core.assignment.TaskAssigner.answered_columns`) at
        ``inf``.  Ties go to the first task in the frontend's order —
        construction, then arrival — through each column's rank in it; with
        every task answered there is no swap.
        """
        count = answers.answer_count_of_worker(worker_id)
        if (count // max(h, 1)) % self._probe_interval != 0:
            return task_ids
        distances = self._assigner.distance_row(worker_id).copy()
        distances[self._assigner.answered_columns(worker_id, answers)] = np.inf
        nearest = distances.min()
        if nearest == np.inf:
            return task_ids
        tied = np.flatnonzero(distances == nearest)
        column = int(tied[np.argmin(self._probe_rank[tied])])
        best_id = self._assigner.task_order[column]
        if best_id in task_ids:
            return task_ids
        self._stats.probes += 1
        return task_ids[:-1] + (best_id,)

    def assign(self, worker_id: str, h: int, answers: AnswerSet) -> AssignmentResponse:
        """Assign up to ``h`` tasks to the arriving ``worker_id``.

        Before any snapshot exists the assigner runs on its optimistic priors
        (the paper's footnote-3 cold start); afterwards it always reflects the
        latest published version.  While the snapshot store is degraded (the
        update path is failing) the frontend keeps serving off the last good
        snapshot and counts the request as a stale serve — degraded mode
        trades freshness for availability, never raising at the read side.
        """
        started = time.perf_counter()
        if self._reputation is not None:
            if self._reputation.version != self._seen_reputation_version:
                self._assigner.set_excluded_workers(self._reputation.quarantined_ids)
                self._seen_reputation_version = self._reputation.version
            if self._reputation.is_quarantined(worker_id):
                # Refuse the HIT outright: a quarantined worker's answers are
                # (at best) heavily down-weighted by the EM step, so spending
                # assignment budget on them buys nothing.  The request is
                # answered (empty), never raised, and counted separately from
                # assigner-empty responses.
                snapshot = self._snapshots.latest()
                self._stats.requests += 1
                self._stats.blocked_requests += 1
                return AssignmentResponse(
                    worker_id=worker_id,
                    task_ids=(),
                    snapshot_version=(
                        snapshot.version if snapshot is not None else NO_SNAPSHOT
                    ),
                    latency_ms=(time.perf_counter() - started) * 1000.0,
                )
        snapshot = self._snapshots.latest()
        if self._snapshots.degraded:
            self._stats.stale_serves += 1
        version = NO_SNAPSHOT
        if snapshot is not None:
            version = snapshot.version
            if snapshot.version != self._seen_version:
                self._assigner.update_parameters(snapshot.store)
                self._seen_version = snapshot.version
                self._stats.parameter_refreshes += 1
        assignment = self._assigner.assign([worker_id], h, answers)
        task_ids = tuple(assignment.get(worker_id, ()))
        if self._probe_interval > 0 and task_ids:
            task_ids = self._maybe_probe(worker_id, h, task_ids, answers)
        latency_ms = (time.perf_counter() - started) * 1000.0

        # Age of the *served* snapshot — the one this request's parameters
        # came from, which a concurrent publish cannot retroactively change —
        # against its own monotonic stamp, clamped so clock granularity can
        # never report a negative age.
        age_s = 0.0
        if snapshot is not None:
            age_s = max(0.0, time.monotonic() - snapshot.published_wall)
        self._stats.requests += 1
        self._stats.tasks_assigned += len(task_ids)
        if not task_ids:
            self._stats.empty_responses += 1
        self._stats.latencies.add(latency_ms)
        if self._tracer is not None:
            self._tracer.record("assign", latency_ms / 1000.0)
            if self._latency_hist is not None:
                self._latency_hist.observe(latency_ms / 1000.0)
            if self._age_hist is not None and snapshot is not None:
                self._age_hist.observe(age_s)
        return AssignmentResponse(
            worker_id=worker_id,
            task_ids=task_ids,
            snapshot_version=version,
            latency_ms=latency_ms,
            snapshot_age_s=age_s,
        )
