"""The serving session: arrivals → live assignment → simulated answers → ingest.

:class:`OnlineServingService` is the run-to-completion simulation of the whole
online system over a :class:`~repro.crowd.platform.CrowdPlatform` workload:

1. the platform's arrival process (wrapped in a
   :class:`~repro.crowd.arrival.TimedArrivalSchedule`) produces timestamped
   batches of arriving workers;
2. for **each** arriving worker, the :class:`~repro.serving.frontend.AssignmentFrontend`
   serves a HIT computed against the latest published snapshot (per-request
   latency recorded);
3. the platform simulates the worker's answers and charges the budget;
4. the answers stream into the :class:`~repro.serving.ingest.AnswerIngestor`,
   which micro-batches them into incremental EM updates (periodic full
   refreshes run straight off the incremental updater's live tensor — zero
   answer-log re-flattens) and publishes a fresh snapshot after every update.
   The ingestor shares the platform's own answer log (the simulator needs it
   anyway), but the update path never reads it back.

The loop ends when the budget is exhausted, a round yields no assignable task,
or ``max_rounds`` is reached; a final full refresh then produces the snapshot
the closing accuracy is evaluated on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.assign import ACCOPT_ENGINES
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.crowd.arrival import DiurnalPattern, TimedArrivalSchedule
from repro.crowd.platform import CrowdPlatform
from repro.framework.metrics import labelling_accuracy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PhaseBreakdown, PhaseTimeline, Tracer
from repro.serving.faults import FaultInjector
from repro.serving.frontend import AssignmentFrontend, FrontendStats
from repro.serving.guard import (
    EventGuard,
    GuardConfig,
    ReputationConfig,
    ReputationTracker,
)
from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig, IngestStats
from repro.serving.journal import AnswerJournal, RecoveryReport, recover_ingestor
from repro.serving.snapshots import CheckpointManager, ParameterSnapshot, SnapshotStore
from repro.utils.rng import default_rng, derive_seed


@dataclass
class ServingConfig:
    """Knobs of one serving session.

    ``holdback_worker_fraction`` / ``holdback_task_fraction`` exercise the
    open-world path: that fraction of the platform's workers/tasks is withheld
    from the serving model at startup and only admitted when it actually
    arrives — held-back workers on their first arrival batch, held-back tasks
    on a rolling release of ``tasks_released_per_round`` per round.
    ``final_refresh_warm_start=False`` makes the shutdown re-fit a cold start,
    so the final snapshot is bit-identical to an offline fit on the full
    answer log (the open-world acceptance check).

    ``state_dir`` turns on durability: every accepted answer event is
    journaled before it is applied and (with
    :attr:`IngestConfig.checkpoint_interval` > 0) the live state is
    checkpointed periodically.  ``resume=True`` rebuilds a crashed session
    from that directory — newest valid checkpoint plus journal-tail replay —
    before serving continues.
    """

    strategy: str = "accopt"
    assigner_engine: str = "vectorized"
    #: Candidate radius (raw coordinate units) for ``assigner_engine="sparse"``
    #: and the sparse inference engine's candidate structure; ``None`` keeps
    #: the dense paths.
    candidate_radius: float | None = None
    tasks_per_worker: int = 2
    #: Every this-many assignment requests per worker, one optimiser-picked
    #: task is swapped for the worker's nearest unanswered task (a trust
    #: probe) — guaranteeing near-task evidence for the reputation tracker's
    #: trust score, which cannot tell a local honest worker from a coin
    #: spammer on far tasks alone.  0 disables probing (the historical
    #: assignment stream, bit-identical).
    probe_interval: int = 0
    mean_interarrival: float = 1.0
    max_snapshots: int = 8
    ingest: IngestConfig = field(default_factory=IngestConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    final_full_refresh: bool = True
    final_refresh_warm_start: bool = True
    holdback_worker_fraction: float = 0.0
    holdback_task_fraction: float = 0.0
    tasks_released_per_round: int = 1
    seed: int | None = None
    #: Directory for the write-ahead journal + checkpoints (None = in-memory
    #: only, the pre-durability behaviour).
    state_dir: str | Path | None = None
    #: Recover from ``state_dir`` before serving (requires ``state_dir``).
    resume: bool = False
    #: fsync every journal append and every checkpoint before the journal
    #: is truncated behind it (safest, slowest; the default trusts the OS
    #: page cache, which survives process crashes but not power loss).
    journal_fsync: bool = False
    #: Records per journal segment before rotating to a new file.
    journal_segment_records: int = 1024
    #: Event validation policy; None serves unguarded (trusted input).
    guard: GuardConfig | None = None
    #: Trust-tier policy; a :class:`~repro.serving.guard.ReputationConfig`
    #: turns on the full degradation ladder (worker tiers re-judged after
    #: every flush, quarantined workers refused at the frontend and the
    #: intake, their history down-weighted at full refreshes).  ``None``
    #: serves reputation-blind (the historical behaviour).
    reputation: ReputationConfig | None = None
    #: Bursty/diurnal modulation of the arrival schedule; ``None`` keeps the
    #: homogeneous Poisson-like stream (bit-identical to the historical path).
    diurnal: DiurnalPattern | None = None
    #: Deterministic fault injector for chaos tests; None in production.
    faults: FaultInjector | None = None
    #: Directory for telemetry exports: ``metrics.jsonl`` snapshots, a final
    #: ``metrics.prom`` rendering and (with ``trace=True``) ``trace.json``.
    #: None disables exports; the in-memory registry still runs.
    metrics_dir: str | Path | None = None
    #: Rounds between periodic ``metrics.jsonl`` snapshots while the session
    #: runs (0 = export only the final snapshot).  Requires ``metrics_dir``.
    metrics_interval: int = 0
    #: Keep a bounded in-memory trace ring and export it as Chrome
    #: ``trace_event`` JSON to ``metrics_dir``.
    trace: bool = False
    #: Span events retained in the trace ring (oldest evicted first).
    trace_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.tasks_per_worker <= 0:
            raise ValueError(
                f"tasks_per_worker must be positive, got {self.tasks_per_worker}"
            )
        if self.mean_interarrival <= 0:
            raise ValueError(
                f"mean_interarrival must be positive, got {self.mean_interarrival}"
            )
        if self.probe_interval < 0:
            raise ValueError(
                f"probe_interval must be non-negative, got {self.probe_interval}"
            )
        for name in ("holdback_worker_fraction", "holdback_task_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        if self.tasks_released_per_round <= 0:
            raise ValueError(
                f"tasks_released_per_round must be positive, "
                f"got {self.tasks_released_per_round}"
            )
        if self.journal_segment_records <= 0:
            raise ValueError(
                f"journal_segment_records must be positive, "
                f"got {self.journal_segment_records}"
            )
        if self.resume and self.state_dir is None:
            raise ValueError("resume=True requires a state_dir to recover from")
        if self.metrics_interval < 0:
            raise ValueError(
                f"metrics_interval must be non-negative, got {self.metrics_interval}"
            )
        if self.metrics_interval > 0 and self.metrics_dir is None:
            raise ValueError("metrics_interval > 0 requires a metrics_dir to export to")
        if self.trace_capacity <= 0:
            raise ValueError(
                f"trace_capacity must be positive, got {self.trace_capacity}"
            )
        if self.assigner_engine not in ACCOPT_ENGINES:
            raise ValueError(
                f"assigner_engine must be one of {ACCOPT_ENGINES}, "
                f"got {self.assigner_engine!r}"
            )
        if self.assigner_engine == "sparse" and self.candidate_radius is None:
            raise ValueError(
                "assigner_engine='sparse' requires a candidate_radius"
            )
        if self.candidate_radius is not None and not self.candidate_radius > 0:
            raise ValueError(
                f"candidate_radius must be positive, got {self.candidate_radius}"
            )


@dataclass
class TrustReport:
    """Closing state of the reputation ladder, plus detection quality.

    ``true_positives`` counts quarantined workers that really are platform
    adversaries (known only in simulation, where
    :attr:`~repro.crowd.worker_pool.WorkerPool.adversary_ids` is ground
    truth); precision and recall follow the usual 0.0-on-empty contract.
    """

    #: Tracked workers per non-trusted tier, e.g. ``{"probation": 1, ...}``.
    tiers: dict = field(default_factory=dict)
    #: Total tier transitions applied over the session.
    transitions: int = 0
    #: Assignment requests refused because the worker was quarantined.
    blocked_requests: int = 0
    #: Answer events refused at intake for the same reason.
    rejected_events: int = 0
    #: Ground-truth adversarial workers in the platform's pool.
    adversaries: int = 0
    #: Quarantined workers that are ground-truth adversaries.
    true_positives: int = 0
    #: Workers quarantined at session end.
    quarantined: int = 0

    @property
    def detection_precision(self) -> float:
        """Share of quarantined workers that are real adversaries (0.0 if none)."""
        if self.quarantined <= 0:
            return 0.0
        return self.true_positives / self.quarantined

    @property
    def detection_recall(self) -> float:
        """Share of real adversaries that ended up quarantined (0.0 if none)."""
        if self.adversaries <= 0:
            return 0.0
        return self.true_positives / self.adversaries

    def summary_line(self) -> str:
        tiers = ", ".join(f"{count} {tier}" for tier, count in sorted(self.tiers.items()))
        line = (
            f"trust: {tiers or 'all trusted'} ({self.transitions} transitions), "
            f"{self.blocked_requests} requests blocked, "
            f"{self.rejected_events} events rejected"
        )
        if self.adversaries:
            line += (
                f"; adversary detection: recall "
                f"{self.detection_recall:.0%}, precision "
                f"{self.detection_precision:.0%} "
                f"({self.true_positives}/{self.adversaries} caught)"
            )
        return line


@dataclass
class ServingReport:
    """Everything a serve-sim run reports: ingestion, assignment and accuracy."""

    rounds: int
    workers_served: int
    answers_ingested: int
    ingest: IngestStats
    frontend: FrontendStats
    snapshots_published: int
    latest_version: int | None
    simulated_duration: float
    wall_seconds: float
    final_accuracy: float
    workers_joined: int = 0
    tasks_joined: int = 0
    open_world_answers: int = 0
    #: Whether the session ran with a durable journal (state_dir set).
    durable: bool = False
    #: Times the snapshot store entered degraded mode during the run.
    degraded_marks: int = 0
    #: What crash recovery found and rebuilt (None unless resumed).
    recovery: RecoveryReport | None = None
    #: Phase-attributed wall-time breakdown per stream quarter (None when the
    #: session ran without the service-level tracer).
    phases: PhaseBreakdown | None = None
    #: Assignment latency percentiles, preferring the registry histogram
    #: (exact counts over the whole stream) over the reservoir's sample.
    #: Contract: exactly ``0.0`` when no requests were served.
    assign_p50_ms: float = 0.0
    assign_p95_ms: float = 0.0
    #: Closing trust-ladder state (None when reputation tracking was off).
    trust: TrustReport | None = None

    @property
    def ingest_answers_per_second(self) -> float:
        """Answers applied per second of model-update time.

        Contract: exactly ``0.0`` when no update time was recorded — never
        ``NaN`` or a division error, so rate reporting is total.
        """
        return self.ingest.answers_per_second

    @property
    def wall_answers_per_second(self) -> float:
        """End-to-end throughput: answers ingested per second of wall clock.

        Contract: exactly ``0.0`` when ``wall_seconds`` is zero (a session
        that never entered its run loop) — never ``NaN`` or a division error.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.answers_ingested / self.wall_seconds

    @property
    def open_world_fraction(self) -> float:
        """Share of ingested answers involving an entity absent at startup.

        Contract: exactly ``0.0`` when nothing was ingested.
        """
        if self.answers_ingested <= 0:
            return 0.0
        return self.open_world_answers / self.answers_ingested

    def summary(self) -> str:
        """Human-readable multi-line digest (printed by ``repro-poi serve-sim``)."""
        version = "-" if self.latest_version is None else str(self.latest_version)
        lines = [
            f"rounds: {self.rounds}, workers served: {self.workers_served}, "
            f"answers ingested: {self.answers_ingested}",
            f"ingest: {self.ingest.batches} micro-batches "
            f"({self.ingest.incremental_updates} incremental, "
            f"{self.ingest.full_refreshes} full refreshes, "
            f"{self.ingest.log_flattens} log flattens), "
            f"{self.ingest_answers_per_second:,.0f} answers/s of update time",
            f"open world: {self.workers_joined} workers / {self.tasks_joined} tasks "
            f"joined mid-stream, {self.open_world_answers} answers "
            f"({self.open_world_fraction:.0%}) from entities absent at startup",
            f"snapshots: {self.snapshots_published} published, "
            f"latest version {version}",
            f"assignment latency: p50 {self.assign_p50_ms:.2f} ms, "
            f"p95 {self.assign_p95_ms:.2f} ms over "
            f"{self.frontend.requests} requests",
            f"pipeline: {self.ingest.refreshes_overlapped} refreshes overlapped "
            f"with ingest, {self.ingest.answers_reconciled} answers reconciled, "
            f"longest ingest stall {self.ingest.max_flush_stall_ms:.1f} ms, "
            f"refresh wait {self.ingest.refresh_wait_seconds * 1000.0:.1f} ms",
            f"simulated duration: {self.simulated_duration:.1f} s, "
            f"wall clock: {self.wall_seconds:.2f} s",
            f"final labelling accuracy: {self.final_accuracy:.3f}",
        ]
        if self.recovery is not None:
            lines.insert(0, self.recovery.summary())
        if self.durable:
            lines.append(
                f"durability: {self.ingest.journal_appends} journal appends, "
                f"{self.ingest.checkpoints_written} checkpoints "
                f"({self.ingest.checkpoint_failures} failed)"
            )
        if (
            self.ingest.events_quarantined
            or self.ingest.dropped_batches
            or self.ingest.publish_failures
            or self.frontend.stale_serves
            or self.degraded_marks
        ):
            lines.append(
                f"faults absorbed: {self.ingest.events_quarantined} quarantined, "
                f"{self.ingest.dropped_batches} batches dropped "
                f"({self.ingest.answers_dropped} answers), "
                f"{self.ingest.publish_failures} publish failures, "
                f"{self.frontend.stale_serves} stale serves over "
                f"{self.degraded_marks} degraded episodes"
            )
        if self.trust is not None:
            lines.append(self.trust.summary_line())
        if self.phases is not None and self.phases.quarters:
            lines.append("phase breakdown (share of wall time per stream quarter):")
            lines.append(self.phases.render())
        return "\n".join(lines)


class OnlineServingService:
    """Wires ingestion, snapshotting and the frontend over one platform.

    With the holdback fractions of :class:`ServingConfig` set, the service
    runs **open-world**: the withheld workers/tasks are unknown to the
    inference model, the frontend and the first snapshots, and enter the
    serving universe only when they arrive — workers on their first arrival
    batch, tasks on the rolling release schedule — flowing through
    ``add_worker`` / ``add_task`` registration all the way down to the live
    tensor and the published stores.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        config: ServingConfig | None = None,
        initial_snapshot: ParameterSnapshot | None = None,
    ) -> None:
        if platform.arrival_process is None:
            raise ValueError(
                "the serving service needs a platform with an arrival process"
            )
        self._platform = platform
        self._config = config or ServingConfig()
        # The service always runs its telemetry in memory (registry overhead
        # is a few histogram observes per micro-batch); metrics_dir only
        # controls whether anything is exported to disk.
        self._metrics = MetricsRegistry()
        self._tracer = Tracer(
            self._metrics,
            ring_capacity=self._config.trace_capacity if self._config.trace else 0,
        )
        startup_workers, startup_tasks, pending_tasks = self._split_universe()
        self._pending_tasks = pending_tasks
        self._startup_worker_ids = frozenset(w.worker_id for w in startup_workers)
        self._startup_task_ids = frozenset(t.task_id for t in startup_tasks)
        self._registered_workers = set(self._startup_worker_ids)
        self._workers_joined = 0
        self._tasks_joined = 0
        self._open_world_answers = 0
        self._inference = LocationAwareInference(
            startup_tasks,
            startup_workers,
            platform.distance_model,
            config=self._config.inference,
        )
        self._snapshots = SnapshotStore(max_snapshots=self._config.max_snapshots)
        if initial_snapshot is not None:
            self._snapshots.adopt(initial_snapshot)
            self._inference.warm_start(initial_snapshot.store)
        self._recovery: RecoveryReport | None = None
        guard = EventGuard(self._config.guard) if self._config.guard is not None else None
        self._reputation = (
            ReputationTracker(self._config.reputation)
            if self._config.reputation is not None
            else None
        )
        if self._config.state_dir is not None and self._config.resume:
            self._ingestor, self._recovery = recover_ingestor(
                Path(self._config.state_dir),
                inference=self._inference,
                snapshots=self._snapshots,
                ingest_config=self._config.ingest,
                answers=platform.answers,
                guard=guard,
                faults=self._config.faults,
                journal_fsync=self._config.journal_fsync,
                journal_segment_records=self._config.journal_segment_records,
                tracer=self._tracer,
                reputation=self._reputation,
            )
        else:
            journal = None
            checkpoints = None
            if self._config.state_dir is not None:
                state_dir = Path(self._config.state_dir)
                journal = AnswerJournal(
                    state_dir / "journal",
                    max_segment_records=self._config.journal_segment_records,
                    fsync=self._config.journal_fsync,
                )
                checkpoints = CheckpointManager(
                    state_dir / "checkpoints", fsync=self._config.journal_fsync
                )
            self._ingestor = AnswerIngestor(
                self._inference,
                self._snapshots,
                config=self._config.ingest,
                answers=platform.answers,
                journal=journal,
                guard=guard,
                faults=self._config.faults,
                checkpoints=checkpoints,
                tracer=self._tracer,
                reputation=self._reputation,
            )
        self._frontend = AssignmentFrontend(
            startup_tasks,
            startup_workers,
            platform.distance_model,
            self._snapshots,
            strategy=self._config.strategy,
            seed=self._config.seed,
            engine=self._config.assigner_engine,
            tracer=self._tracer,
            candidate_radius=self._config.candidate_radius,
            reputation=self._reputation,
            probe_interval=self._config.probe_interval,
        )
        if self._recovery is not None:
            self._sync_recovered_universe()
        self._schedule = TimedArrivalSchedule(
            platform.arrival_process,
            mean_interarrival=self._config.mean_interarrival,
            seed=self._config.seed,
            pattern=self._config.diurnal,
        )

    def _sync_recovered_universe(self) -> None:
        """Propagate entities the crashed run learned mid-stream.

        Recovery re-registered checkpointed/journaled workers and tasks into
        the inference model; the frontend (built over the startup universe)
        and the service's own bookkeeping must see them too, and tasks the
        crashed run already released must not be re-released.
        """
        for worker_id, worker in self._inference.workers.items():
            if worker_id not in self._registered_workers:
                self._frontend.add_worker(worker)
                self._registered_workers.add(worker_id)
                self._workers_joined += 1
        known_tasks = self._inference.tasks
        for task in list(self._pending_tasks):
            if task.task_id in known_tasks:
                self._frontend.add_task(task)
                self._tasks_joined += 1
        self._pending_tasks = [
            task for task in self._pending_tasks if task.task_id not in known_tasks
        ]

    def _split_universe(self):
        """Partition the platform universe into startup and held-back subsets."""
        workers = self._platform.workers
        tasks = list(self._platform.dataset.tasks)
        hold_workers = min(
            int(round(self._config.holdback_worker_fraction * len(workers))),
            len(workers) - 1,
        )
        hold_tasks = min(
            int(round(self._config.holdback_task_fraction * len(tasks))),
            len(tasks) - 1,
        )
        rng = default_rng(derive_seed(self._config.seed, 0x5EED))
        held_worker_rows = (
            set(rng.choice(len(workers), size=hold_workers, replace=False).tolist())
            if hold_workers
            else set()
        )
        held_task_rows = (
            set(rng.choice(len(tasks), size=hold_tasks, replace=False).tolist())
            if hold_tasks
            else set()
        )
        startup_workers = [
            worker for i, worker in enumerate(workers) if i not in held_worker_rows
        ]
        startup_tasks = [
            task for j, task in enumerate(tasks) if j not in held_task_rows
        ]
        pending_tasks = [tasks[j] for j in sorted(held_task_rows)]
        return startup_workers, startup_tasks, pending_tasks

    # ------------------------------------------------------------------ state
    @property
    def platform(self) -> CrowdPlatform:
        return self._platform

    @property
    def inference(self) -> LocationAwareInference:
        return self._inference

    @property
    def snapshots(self) -> SnapshotStore:
        return self._snapshots

    @property
    def ingestor(self) -> AnswerIngestor:
        return self._ingestor

    @property
    def frontend(self) -> AssignmentFrontend:
        return self._frontend

    @property
    def recovery(self) -> RecoveryReport | None:
        """What crash recovery rebuilt (None unless constructed with resume)."""
        return self._recovery

    @property
    def reputation(self) -> ReputationTracker | None:
        """The trust-tier tracker (None when reputation tracking is off)."""
        return self._reputation

    @property
    def metrics(self) -> MetricsRegistry:
        """The session-wide registry every pipeline component reports into."""
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        """The tracer attributing wall time to pipeline stages."""
        return self._tracer

    def close(self) -> None:
        """Release durable resources (the journal's open segment handle) and
        drain the ingest layer's background refresh worker."""
        self._ingestor.close()
        if self._ingestor.journal is not None:
            self._ingestor.journal.close()

    # ---------------------------------------------------------------- running
    def run(self, max_rounds: int | None = None) -> ServingReport:
        """Serve arrivals until the budget (or the task supply) runs out."""
        platform = self._platform
        h = self._config.tasks_per_worker
        wall_started = time.perf_counter()
        rounds = 0
        workers_served = 0
        timeline = PhaseTimeline(self._tracer)

        while not platform.budget.exhausted:
            if max_rounds is not None and rounds >= max_rounds:
                break
            self._release_pending_tasks()
            batch = self._schedule.next_batch()
            if not batch.worker_ids:
                break
            assigned_in_round = 0
            for worker_id in batch.worker_ids:
                remaining = platform.budget.remaining
                if remaining <= 0:
                    break
                self._register_arrival(worker_id)
                # Cap the request by the remaining budget so the frontend's
                # stats only ever count tasks that are actually executed.
                response = self._frontend.assign(
                    worker_id, min(h, remaining), platform.answers
                )
                if not response.task_ids:
                    continue
                collected = platform.execute_assignment(
                    {worker_id: list(response.task_ids)}, time=batch.time
                )
                workers_served += 1
                assigned_in_round += len(collected)
                for answer in collected:
                    if (
                        answer.worker_id not in self._startup_worker_ids
                        or answer.task_id not in self._startup_task_ids
                    ):
                        self._open_world_answers += 1
                    self._ingestor.submit(AnswerEvent(answer, time=batch.time))
            rounds += 1
            timeline.mark(
                float(self._ingestor.stats.answers),
                time.perf_counter() - wall_started,
            )
            if (
                self._config.metrics_interval > 0
                and rounds % self._config.metrics_interval == 0
            ):
                self._export_metrics_snapshot(rounds)
            if assigned_in_round == 0:
                # Every arrival in this round was saturated — stop, mirroring
                # the batch framework's zero-assignment exit; the post-loop
                # flush drains any still-open micro-batch.
                break

        self._ingestor.flush(
            now=self._schedule.now,
            full=self._config.final_full_refresh,
            warm=self._config.final_refresh_warm_start,
        )
        wall_seconds = time.perf_counter() - wall_started
        timeline.mark(float(self._ingestor.stats.answers), wall_seconds)
        phases = timeline.breakdown()
        self._export_final_telemetry(rounds)

        latest = self._snapshots.latest()
        tasks = platform.dataset.tasks
        if self._inference.is_fitted:
            accuracy = labelling_accuracy(self._inference.predict_all(), tasks)
        else:
            accuracy = 0.5
        trust: TrustReport | None = None
        if self._reputation is not None:
            quarantined = self._reputation.quarantined_ids
            adversaries = frozenset(
                getattr(platform.worker_pool, "adversary_ids", frozenset())
            )
            trust = TrustReport(
                tiers=self._reputation.tier_counts(),
                transitions=self._reputation.transitions,
                blocked_requests=self._frontend.stats.blocked_requests,
                rejected_events=self._ingestor.stats.events_rejected_reputation,
                adversaries=len(adversaries),
                true_positives=len(quarantined & adversaries),
                quarantined=len(quarantined),
            )
        return ServingReport(
            rounds=rounds,
            workers_served=workers_served,
            answers_ingested=self._ingestor.stats.answers,
            ingest=self._ingestor.stats,
            frontend=self._frontend.stats,
            snapshots_published=self._ingestor.stats.snapshots_published,
            latest_version=None if latest is None else latest.version,
            simulated_duration=self._schedule.now,
            wall_seconds=wall_seconds,
            final_accuracy=accuracy,
            workers_joined=self._workers_joined,
            tasks_joined=self._tasks_joined,
            open_world_answers=self._open_world_answers,
            durable=self._ingestor.journal is not None,
            degraded_marks=self._snapshots.degraded_marks,
            recovery=self._recovery,
            phases=phases,
            assign_p50_ms=self._frontend.latency_percentile_ms(50.0),
            assign_p95_ms=self._frontend.latency_percentile_ms(95.0),
            trust=trust,
        )

    # ------------------------------------------------------------- telemetry
    def _export_metrics_snapshot(self, rounds: int) -> None:
        """Append one stamped registry snapshot to ``metrics_dir/metrics.jsonl``."""
        if self._config.metrics_dir is None:
            return
        metrics_dir = Path(self._config.metrics_dir)
        metrics_dir.mkdir(parents=True, exist_ok=True)
        self._metrics.export_jsonl(
            metrics_dir / "metrics.jsonl",
            rounds=rounds,
            answers=self._ingestor.stats.answers,
        )

    def _export_final_telemetry(self, rounds: int) -> None:
        """Write the closing telemetry artifacts into ``metrics_dir``."""
        if self._config.metrics_dir is None:
            return
        metrics_dir = Path(self._config.metrics_dir)
        metrics_dir.mkdir(parents=True, exist_ok=True)
        self._export_metrics_snapshot(rounds)
        (metrics_dir / "metrics.prom").write_text(
            self._metrics.render_prometheus(), encoding="utf-8"
        )
        if self._config.trace:
            self._tracer.export_chrome(metrics_dir / "trace.json")

    # ------------------------------------------------------- open-world arrival
    def _release_pending_tasks(self) -> None:
        """Admit the next slice of held-back tasks into the serving universe."""
        for _ in range(min(self._config.tasks_released_per_round, len(self._pending_tasks))):
            task = self._pending_tasks.pop(0)
            self._inference.add_task(task)
            self._frontend.add_task(task)
            self._tasks_joined += 1

    def _register_arrival(self, worker_id: str) -> None:
        """Admit a first-sight worker into the serving universe."""
        if worker_id in self._registered_workers:
            return
        worker = self._platform.worker_pool.worker(worker_id)
        self._inference.add_worker(worker)
        self._frontend.add_worker(worker)
        self._registered_workers.add(worker_id)
        self._workers_joined += 1

    def save_latest_snapshot(self, path: str | Path) -> Path | None:
        """Persist the latest published snapshot (``None`` if nothing published)."""
        latest = self._snapshots.latest()
        if latest is None:
            return None
        return latest.save(path)
