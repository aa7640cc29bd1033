"""Streaming answer ingestion: micro-batched incremental EM, log-free.

Running any EM update after every single answer submission wastes most of its
work re-reading the same neighbourhood; the serving path therefore buffers
arriving :class:`AnswerEvent` records and closes a **micro-batch** when either

* the buffer reaches ``max_batch_answers`` events, or
* the oldest buffered event is older than ``max_batch_delay`` simulated
  seconds (so sparse traffic still gets timely refreshes).

Every model update is O(changed), never O(stream):

* each closed batch is applied through the array-backed
  :class:`~repro.core.incremental.IncrementalUpdater` — sufficient-statistic
  sweeps against its live, incrementally grown answer tensor, with
  per-entity convergence early-exit at the inference model's EM convergence
  threshold so settled neighbourhoods stop burning iterations;
* every ``full_refresh_interval`` ingested answers the model is re-fit
  **directly from the live tensor**
  (:meth:`~repro.core.incremental.IncrementalUpdater.full_refresh`): zero
  ``AnswerSet`` → tensor flattens, and warm starts hand the live row-aligned
  store straight to the EM loop.  Because of this the ingestor does not need
  to keep the answer log at all — retention is **opt-in**
  (:attr:`IngestConfig.retain_answer_log`), capping ingestor memory at the
  live tensor instead of tensor + an ever-growing duplicate log.  The log is
  retained automatically when the caller shares its own
  :class:`~repro.data.models.AnswerSet` (the simulator/platform case);
* after every update a new snapshot is published to the
  :class:`~repro.serving.snapshots.SnapshotStore` — the only surface the
  assignment frontend reads.  Every publish hands over one full copy of the
  estimate (:meth:`~repro.core.incremental.IncrementalUpdater.publish_store`),
  which the snapshot freezes in place.

The ingestion layer is **open-world**: an :class:`AnswerEvent` may reference a
worker or task the model has never seen, as long as it carries the entity's
metadata (:attr:`AnswerEvent.worker` / :attr:`AnswerEvent.task`).  First-sight
entities are registered into the inference model before the batch is applied,
admitted into the live tensor/store with the paper's footnote-3 trusted
priors, and show up in every snapshot published from then on.

The ingestor is also the durability seam (see :mod:`repro.serving` for the
full lifecycle): an optional :class:`~repro.serving.guard.EventGuard`
quarantines malformed events before they can poison a batch, an optional
:class:`~repro.serving.journal.AnswerJournal` makes every accepted event
durable *before* it is buffered (write-ahead), model updates and snapshot
publishes run under a bounded-retry supervisor that degrades the snapshot
store instead of raising, and an optional
:class:`~repro.serving.snapshots.CheckpointManager` persists the live state
every :attr:`IngestConfig.checkpoint_interval` applied answers so recovery
only replays the journal tail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.incremental import IncrementalUpdater
from repro.core.inference import LocationAwareInference
from repro.data.models import Answer, AnswerSet, Task, Worker
from repro.obs.trace import Tracer
from repro.serving.faults import FaultInjector
from repro.serving.pipeline import PendingRefresh, RefreshWorker
from repro.utils.timing import Timer
from repro.serving.guard import EventGuard, ReputationTracker, trust_scores
from repro.serving.journal import AnswerJournal
from repro.serving.snapshots import (
    CheckpointManager,
    CheckpointState,
    ParameterSnapshot,
    SnapshotStore,
)


@dataclass(frozen=True)
class AnswerEvent:
    """One answer submission with its simulated arrival time (seconds).

    ``worker`` and ``task`` are optional first-sight payloads: events from
    entities unknown to the serving model MUST carry the corresponding
    metadata so the ingestor can register them; for already-known entities the
    payloads are ignored.
    """

    answer: Answer
    time: float = 0.0
    worker: Worker | None = None
    task: Task | None = None


@dataclass
class IngestConfig:
    """Micro-batching and refresh policy of the ingestion layer.

    ``max_batch_answers`` bounds a micro-batch by count, ``max_batch_delay``
    by simulated-time window; whichever triggers first closes the batch.
    ``full_refresh_interval`` is the paper's two-tier refresh: a full EM re-run
    every that many ingested answers, incremental updates in between.

    ``retain_answer_log`` opts back in to keeping every ingested answer in the
    ingestor's own :class:`~repro.data.models.AnswerSet`.  The default is
    off: the update path (incremental sweeps *and* full refreshes) runs
    entirely from the live tensor, so retaining the log only duplicates it —
    O(stream) memory for nothing.  Retention is forced on when the caller
    shares an external answer set.

    ``pipeline`` selects the pipelined serving loop: interval full refreshes
    run as background fits on a :class:`~repro.serving.pipeline.RefreshWorker`
    while the ingest thread keeps applying incremental sweeps, and the fresh
    store is reconciled + published ``pipeline_lag_answers`` applied answers
    after launch (``None`` resolves to
    ``max(max_batch_answers, full_refresh_interval // 4)``).  ``False`` keeps
    the serial loop — the equivalence oracle the pipelined path is tested
    against.
    """

    max_batch_answers: int = 64
    max_batch_delay: float = 5.0
    full_refresh_interval: int = 1000
    local_iterations: int = 2
    retain_answer_log: bool = False
    #: Overlap interval full refreshes with ingest (see class docstring).
    pipeline: bool = True
    #: Applied answers between a background-fit launch and its integration
    #: point; ``None`` resolves from the batching/refresh config.
    pipeline_lag_answers: int | None = None
    #: Exponential decay applied to the sufficient statistics per applied
    #: micro-batch (see
    #: :attr:`~repro.core.incremental.IncrementalUpdater.stat_decay`): an
    #: answer ``k`` batches old contributes ``stat_decay**k`` of its original
    #: evidence, so the estimate tracks workers whose quality *drifts*.  The
    #: default ``1.0`` keeps the exact historical path bit-for-bit.
    stat_decay: float = 1.0
    #: Admission prior for workers first seen on the stream (see
    #: :attr:`~repro.core.incremental.IncrementalUpdater.admission_p_qualified`).
    #: ``None`` keeps the footnote-3 trusted seed, which is numerically
    #: absorbing — reputation tracking needs a learnable prior here to see
    #: adversaries at all.
    admission_p_qualified: float | None = None
    #: Write a checkpoint every this many applied answers (0 disables; only
    #: effective when the ingestor was built with a ``checkpoints`` manager).
    checkpoint_interval: int = 0
    #: Retries granted to a failing model update / snapshot publish before the
    #: batch is dropped and the store is marked degraded.
    max_update_retries: int = 2
    #: Initial sleep before the first retry (real seconds; kept tiny so the
    #: simulated-time serving loop never stalls noticeably).
    retry_backoff: float = 0.001
    #: Multiplier applied to the backoff after every failed retry.
    retry_backoff_factor: float = 2.0
    #: Ceiling on a single retry sleep (real seconds).
    max_retry_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch_answers <= 0:
            raise ValueError(
                f"max_batch_answers must be positive, got {self.max_batch_answers}"
            )
        if self.max_batch_delay <= 0:
            raise ValueError(
                f"max_batch_delay must be positive, got {self.max_batch_delay}"
            )
        if self.full_refresh_interval <= 0:
            raise ValueError(
                f"full_refresh_interval must be positive, got {self.full_refresh_interval}"
            )
        if self.local_iterations <= 0:
            raise ValueError(
                f"local_iterations must be positive, got {self.local_iterations}"
            )
        if self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be non-negative, "
                f"got {self.checkpoint_interval}"
            )
        if self.max_update_retries < 0:
            raise ValueError(
                f"max_update_retries must be non-negative, "
                f"got {self.max_update_retries}"
            )
        if self.retry_backoff < 0:
            raise ValueError(f"retry_backoff must be non-negative, got {self.retry_backoff}")
        if self.retry_backoff_factor < 1.0:
            raise ValueError(
                f"retry_backoff_factor must be >= 1, got {self.retry_backoff_factor}"
            )
        if self.max_retry_backoff < 0:
            raise ValueError(
                f"max_retry_backoff must be non-negative, got {self.max_retry_backoff}"
            )
        if self.pipeline_lag_answers is not None and self.pipeline_lag_answers <= 0:
            raise ValueError(
                f"pipeline_lag_answers must be positive when given, "
                f"got {self.pipeline_lag_answers}"
            )
        if self.admission_p_qualified is not None and not (
            0.0 < self.admission_p_qualified < 1.0
        ):
            raise ValueError(
                "admission_p_qualified must lie strictly inside (0, 1), got "
                f"{self.admission_p_qualified}"
            )
        if not 0.0 < self.stat_decay <= 1.0:
            raise ValueError(
                f"stat_decay must be in (0, 1], got {self.stat_decay}"
            )


@dataclass
class IngestStats:
    """Counters and timings accumulated by one :class:`AnswerIngestor`."""

    answers: int = 0
    batches: int = 0
    incremental_updates: int = 0
    full_refreshes: int = 0
    snapshots_published: int = 0
    workers_registered: int = 0
    tasks_registered: int = 0
    #: AnswerSet → tensor flattens the updater performed (0 on the pure
    #: live-tensor path — the log-free acceptance counter).
    log_flattens: int = 0
    update_seconds: float = 0.0
    #: Events the guard rejected at the intake boundary (never journaled).
    events_quarantined: int = 0
    #: Events refused because their worker is reputation-quarantined — a
    #: subset of the guard's ``reputation`` reason counter, kept separately so
    #: the trust degradation ladder is visible without a guard attached.
    events_rejected_reputation: int = 0
    #: Events made durable in the write-ahead journal.
    journal_appends: int = 0
    #: Events dropped because the journal append itself failed (an event that
    #: cannot be made durable is never applied).
    journal_append_failures: int = 0
    checkpoints_written: int = 0
    #: Checkpoint attempts that failed; never fatal — the previous checkpoint
    #: and the (untruncated) journal still cover the state.
    checkpoint_failures: int = 0
    #: Individual model-update attempt failures seen by the supervisor.
    update_failures: int = 0
    #: Retries the supervisor granted after an update failure.
    update_retries: int = 0
    #: Micro-batches durably dropped after retry exhaustion (degraded mode).
    dropped_batches: int = 0
    #: Answers inside those dropped batches.
    answers_dropped: int = 0
    #: Snapshot publishes abandoned after retry exhaustion (degraded mode).
    publish_failures: int = 0
    #: Full refreshes that ran as background fits overlapped with ingest.
    refreshes_overlapped: int = 0
    #: Answers applied mid-background-fit and replayed as localized sweeps
    #: against the fresh store at integration.
    answers_reconciled: int = 0
    #: Background fits that raised an ordinary exception (counted, non-fatal;
    #: the stream kept serving incrementally and the next interval retries).
    refresh_failures: int = 0
    #: Wall time the ingest thread actually blocked waiting for a background
    #: fit at an integration point (0 when the stream out-runs the fit).
    refresh_wait_seconds: float = 0.0
    #: Longest single flush (update through checkpoint) in wall milliseconds —
    #: the worst ingest stall a steady stream observes between batch applies.
    max_flush_stall_ms: float = 0.0

    @property
    def answers_per_second(self) -> float:
        """Ingestion throughput over the time spent inside model updates."""
        if self.update_seconds <= 0.0:
            return 0.0
        return self.answers / self.update_seconds


class AnswerIngestor:
    """Buffers answer events and turns them into model updates + snapshots.

    Parameters
    ----------
    inference:
        The live inference model the updates are applied to.
    snapshots:
        The store every refreshed estimate is published into.
    config:
        Micro-batching and refresh policy.
    answers:
        An external answer log to share (e.g. the platform's own
        :class:`~repro.data.models.AnswerSet`); sharing implies retention —
        every submitted event is appended to it.  By default the ingestor is
        **log-free**: it owns an empty answer set that stays empty unless
        :attr:`IngestConfig.retain_answer_log` is set.
    journal:
        Optional write-ahead :class:`~repro.serving.journal.AnswerJournal`;
        accepted events are appended (and flushed) *before* they are buffered,
        so a crash can never lose an acknowledged submission.
    guard:
        Optional :class:`~repro.serving.guard.EventGuard` consulted before
        journaling; rejected events are quarantined, counted, and dropped
        without raising.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector` for chaos
        testing; production paths pass ``None`` and pay one ``is None`` check.
    checkpoints:
        Optional :class:`~repro.serving.snapshots.CheckpointManager`; with
        :attr:`IngestConfig.checkpoint_interval` > 0 the live state is
        persisted after qualifying publishes and the journal is truncated up
        to the covered sequence number.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when given, every pipeline
        stage (guard/journal/apply/refresh/publish/checkpoint) reports
        phase-attributed wall time and counters into its registry, and the
        journal/guard/snapshot-store/fault-injector are bound to the same
        registry so one surface carries the whole pipeline's telemetry.
    """

    def __init__(
        self,
        inference: LocationAwareInference,
        snapshots: SnapshotStore,
        config: IngestConfig | None = None,
        answers: AnswerSet | None = None,
        journal: AnswerJournal | None = None,
        guard: EventGuard | None = None,
        faults: FaultInjector | None = None,
        checkpoints: CheckpointManager | None = None,
        tracer: Tracer | None = None,
        reputation: ReputationTracker | None = None,
    ) -> None:
        self._inference = inference
        self._snapshots = snapshots
        self._config = config or IngestConfig()
        self._journal = journal
        self._guard = guard
        self._faults = faults
        self._checkpoints = checkpoints
        self._reputation = reputation
        # A metricless tracer keeps the span/record call sites branch-free;
        # it observes nothing and costs one no-op call per micro-batch.
        self._tracer = tracer if tracer is not None else Tracer()
        # Per-event guard/journal time is accumulated here and attributed as
        # one per-batch observation at the next flush.
        self._guard_timer = Timer()
        self._journal_timer = Timer()
        if tracer is not None and tracer.metrics is not None:
            metrics = tracer.metrics
            if guard is not None:
                guard.bind_metrics(metrics)
            if journal is not None:
                journal.bind_metrics(metrics)
            if faults is not None:
                faults.bind_metrics(metrics)
            if reputation is not None:
                reputation.bind_metrics(metrics)
            snapshots.bind_metrics(metrics)
        #: Journal seq of the newest event handed to :meth:`flush` (pending)
        #: and of the newest event whose batch has been flushed (applied).
        #: ``applied`` advances even for dropped batches — dropped means
        #: *durably* dropped, so recovery must not replay those events into a
        #: state the crashed run never reached.
        self._pending_seq = 0
        self._applied_seq = 0
        self._answers_at_checkpoint = 0
        self._answers_at_stat_epoch = 0
        self._retain = self._config.retain_answer_log or answers is not None
        self._answers = answers if answers is not None else AnswerSet()
        self._updater = IncrementalUpdater(
            inference=inference,
            full_refresh_interval=self._config.full_refresh_interval,
            local_iterations=self._config.local_iterations,
            early_exit_threshold=inference.config.convergence_threshold,
            metrics=self._tracer.metrics,
            stat_decay=self._config.stat_decay,
            admission_p_qualified=self._config.admission_p_qualified,
        )
        if reputation is not None:
            # Full refreshes down-weight quarantined workers' *historical*
            # answers (their new submissions are refused at intake).
            self._updater.trust_weight_fn = reputation.trust_weight
        lag = self._config.pipeline_lag_answers
        if lag is None:
            lag = max(
                self._config.max_batch_answers,
                self._config.full_refresh_interval // 4,
            )
        self._pipeline_lag = lag
        self._refresh_worker = RefreshWorker()
        self._pending_refresh: PendingRefresh | None = None
        # Estimates to carry across re-fits: a model warm-started from a
        # restored snapshot knows entities the growing answer log may not
        # cover yet, and a full EM re-fit only returns entities present in
        # its tensor — without priming the updater's carryover, the first
        # publish after a restart would silently revert un-reanswered
        # workers/tasks to cold-start priors.
        if inference.is_fitted:
            self._updater.prime_carryover(inference.parameters)
        self._buffer: list[AnswerEvent] = []
        self._buffer_opened_at: float | None = None
        self._stats = IngestStats()

    # ------------------------------------------------------------------ state
    @property
    def answers(self) -> AnswerSet:
        """The retained answer log (empty on the default log-free path)."""
        return self._answers

    @property
    def retains_answer_log(self) -> bool:
        return self._retain

    @property
    def config(self) -> IngestConfig:
        return self._config

    @property
    def stats(self) -> IngestStats:
        return self._stats

    @property
    def pending(self) -> int:
        """Events buffered but not yet applied."""
        return len(self._buffer)

    @property
    def journal(self) -> AnswerJournal | None:
        return self._journal

    @property
    def guard(self) -> EventGuard | None:
        return self._guard

    @property
    def reputation(self) -> ReputationTracker | None:
        return self._reputation

    @property
    def checkpoints(self) -> CheckpointManager | None:
        return self._checkpoints

    @property
    def applied_seq(self) -> int:
        """Journal seq of the newest event whose micro-batch has been flushed."""
        return self._applied_seq

    @property
    def tracer(self) -> Tracer:
        """The tracer every pipeline stage reports into (metricless if unwired)."""
        return self._tracer

    # ------------------------------------------------------------------ intake
    def submit(self, event: AnswerEvent) -> ParameterSnapshot | None:
        """Admit, journal, and buffer one answer event; flush on a boundary.

        The durable intake order is guard → journal → buffer: an event the
        guard rejects is quarantined (counted, never raised) before it can
        reach the journal, and an accepted event is made durable *before* it
        can influence any in-memory state — write-ahead, so a crash can never
        lose an acknowledged submission.  An event whose journal append fails
        is dropped (counted) rather than applied: applying it would make the
        in-memory state unrecoverable from disk.

        Returns the snapshot published by the flush, or ``None`` while the
        batch is still open (or the event was quarantined/dropped).
        """
        if self._faults is not None:
            self._faults.check("ingest.submit")
        if self._reputation is not None and self._reputation.is_quarantined(
            event.answer.worker_id
        ):
            # A quarantined worker's new submissions never reach the journal:
            # replay then reproduces the same accepted stream without needing
            # the tracker's state at the moment of each rejection.
            self._stats.events_rejected_reputation += 1
            self._stats.events_quarantined += 1
            if self._guard is not None:
                self._guard.reject(
                    event,
                    "reputation",
                    f"worker {event.answer.worker_id!r} is quarantined",
                )
            return None
        if self._guard is not None:
            self._guard_timer.start()
            try:
                verdict = self._guard.admit(event, self._inference)
            finally:
                self._guard_timer.stop()
            if verdict is not None:
                self._stats.events_quarantined += 1
                return None
        if self._journal is not None:
            self._journal_timer.start()
            try:
                if self._faults is not None:
                    self._faults.check("journal.append")
                seq = self._journal.append(event)
            except Exception:
                self._stats.journal_append_failures += 1
                return None
            finally:
                self._journal_timer.stop()
            self._stats.journal_appends += 1
            self._pending_seq = seq
        return self._buffer_event(event)

    def replay_event(self, seq: int, event: AnswerEvent) -> ParameterSnapshot | None:
        """Re-ingest one journaled event during crash recovery.

        The event was admitted and journaled before the crash, so replay skips
        the guard's validation (only updating its duplicate/rate history) and
        must not re-journal.  Buffering and flushing run through the ordinary
        micro-batch path, so batch boundaries — and therefore the recovered
        estimate — reproduce the crashed run exactly.
        """
        if self._guard is not None:
            self._guard.observe(event)
        self._pending_seq = seq
        return self._buffer_event(event)

    def _buffer_event(self, event: AnswerEvent) -> ParameterSnapshot | None:
        if self._buffer_opened_at is None:
            self._buffer_opened_at = event.time
        self._buffer.append(event)
        if (
            len(self._buffer) >= self._config.max_batch_answers
            or event.time - self._buffer_opened_at >= self._config.max_batch_delay
        ):
            return self.flush(now=event.time)
        return None

    def tick(self, now: float) -> ParameterSnapshot | None:
        """Time-based flush: close the open batch if it has aged past the window.

        Call this when the simulated clock advances without new answers (e.g.
        a round of arrivals produced no assignments), so sparse traffic cannot
        leave a batch open forever.
        """
        if (
            self._buffer
            and self._buffer_opened_at is not None
            and now - self._buffer_opened_at >= self._config.max_batch_delay
        ):
            return self.flush(now=now)
        return None

    def flush(
        self, now: float | None = None, full: bool = False, warm: bool = True
    ) -> ParameterSnapshot | None:
        """Apply the buffered micro-batch and publish a fresh snapshot.

        ``full=True`` forces a full re-fit even if the interval has not
        elapsed (the service calls this once at shutdown so the final snapshot
        reflects a converged estimate); ``warm=False`` makes that re-fit a
        cold start instead of warm-starting from the current estimate, so the
        result is identical to an offline fit on the same answer stream (the
        live tensor is maintained bit-equal to a from-scratch flatten).
        Returns ``None`` only when there is nothing at all to do.
        """
        events = list(self._buffer)
        new_answers = [event.answer for event in events]
        if now is None:
            now = self._buffer[-1].time if self._buffer else 0.0
        self._buffer.clear()
        self._buffer_opened_at = None
        has_history = self._stats.answers > 0 or len(self._answers) > 0
        if not new_answers and not (full and has_history):
            return None

        for event in events:
            self._register_event_entities(event)
        if self._retain:
            for answer in new_answers:
                self._answers.add(answer)
        log = self._answers if self._retain else None

        # Attribute the guard/journal time this batch's events accumulated in
        # submit() as one per-batch observation each.
        if self._guard_timer.elapsed > 0.0:
            self._tracer.record("guard", self._guard_timer.elapsed, events=len(events))
            self._guard_timer.reset()
        if self._journal_timer.elapsed > 0.0:
            self._tracer.record(
                "journal", self._journal_timer.elapsed, events=len(events)
            )
            self._journal_timer.reset()

        started = time.perf_counter()
        try:
            return self._flush_update(
                new_answers, log, now=now, full=full, warm=warm
            )
        finally:
            stall_ms = (time.perf_counter() - started) * 1000.0
            if stall_ms > self._stats.max_flush_stall_ms:
                self._stats.max_flush_stall_ms = stall_ms
            if self._tracer.metrics is not None:
                self._tracer.metrics.histogram("ingest_stall_seconds").observe(
                    stall_ms / 1000.0
                )

    def _flush_update(
        self,
        new_answers: list[Answer],
        log: AnswerSet | None,
        now: float,
        full: bool,
        warm: bool,
    ) -> ParameterSnapshot | None:
        """Apply one closed micro-batch, schedule refreshes, and publish.

        Pipelined refresh scheduling is deliberately a pure function of
        applied-answer counts (launch when the refresh interval trips,
        integrate ``pipeline_lag_answers`` applied answers later, waiting if
        the fit is still running) so journal replay reproduces the exact same
        launch/integrate/publish sequence — wall clock and thread timing only
        ever change how long the deterministic wait takes.
        """
        started = time.perf_counter()
        if full and self._pending_refresh is not None:
            # A forced (final) refresh is synchronous by contract: fold the
            # in-flight background fit in first so the closing serial fit
            # starts from the reconciled state.
            self._integrate_refresh()
        run_full = (
            full
            or not self._inference.is_fitted
            or (self._pending_refresh is None and self._updater.full_refresh_due)
        )
        # The interval refresh runs in the background only once there is a
        # fitted estimate to keep serving from; the first fit and the forced
        # final fit stay serial.
        launch_background = (
            run_full and not full and self._config.pipeline and self._inference.is_fitted
        )
        if run_full and not launch_background:
            source = "full_refresh"
            with self._tracer.span("refresh", events=len(new_answers)):
                applied = self._supervised(
                    "refresh",
                    lambda: self._updater.full_refresh(
                        new_answers, answers=log, warm=warm
                    ),
                )
        else:
            # The batch that trips the interval is applied incrementally; the
            # background fit snapshots the tensor *after* it, so the fitted
            # store covers every answer up to the launch watermark.
            source = "incremental"
            with self._tracer.span("apply", events=len(new_answers)):
                applied = self._supervised(
                    "apply", lambda: self._updater.apply(log, new_answers)
                )
        self._stats.update_seconds += time.perf_counter() - started
        # Either way these events' fate is settled: a batch dropped after
        # retry exhaustion is *durably* dropped, so recovery must not replay
        # it into a state the live run never reached.
        self._applied_seq = self._pending_seq
        self._stats.log_flattens = self._updater.tensor_rebuilds
        if not applied:
            self._stats.dropped_batches += 1
            self._stats.answers_dropped += len(new_answers)
            if self._tracer.metrics is not None:
                self._tracer.metrics.counter("ingest_dropped_batches_total").inc()
            self._snapshots.mark_degraded(
                f"{source} update failed after "
                f"{self._config.max_update_retries} retries; serving the last "
                "good snapshot"
            )
            return None
        if run_full and not launch_background:
            self._stats.full_refreshes += 1
        else:
            self._stats.incremental_updates += 1
        self._stats.answers += len(new_answers)
        if new_answers:
            self._stats.batches += 1

        pipeline_started = time.perf_counter()
        pending = self._pending_refresh
        if pending is not None:
            pending.note_batch(new_answers)
            if pending.answers_since_launch >= self._pipeline_lag:
                if self._integrate_refresh():
                    source = "full_refresh"
        elif launch_background:
            self._launch_refresh(warm)
        self._stats.update_seconds += time.perf_counter() - pipeline_started

        metrics = self._tracer.metrics
        if metrics is not None:
            metrics.counter("ingest_answers_total").inc(len(new_answers))
            metrics.counter("ingest_batches_total", kind=source).inc()

        snapshot: ParameterSnapshot | None = None

        def publish() -> None:
            nonlocal snapshot
            snapshot = self._publish(published_at=now, source=source)

        with self._tracer.span("publish"):
            published = self._supervised("publish", publish)
        if not published:
            self._stats.publish_failures += 1
            self._snapshots.mark_degraded(
                f"snapshot publish failed after "
                f"{self._config.max_update_retries} retries; serving the last "
                "good snapshot"
            )
            return None
        self._snapshots.clear_degraded()
        self._evaluate_reputation()
        self._maybe_checkpoint(snapshot)
        self._maybe_reset_stat_epoch()
        return snapshot

    def _evaluate_reputation(self) -> None:
        """Re-judge every worker's trust tier from the fresh live estimate.

        Runs after each successful flush, against the live store's
        ``p_qualified`` posteriors and per-worker answer counts taken straight
        off the live tensor — pure functions of the applied answer stream, so
        a journal replay re-walks the exact same tier transitions.  Evaluated
        *before* the checkpoint cut so the persisted tracker state matches
        the persisted answer log.
        """
        tracker = self._reputation
        if tracker is None:
            return
        tensor = self._updater.live_tensor
        store = self._updater.live_store
        if tensor is None or store is None or not tensor.num_answers:
            return
        counts = np.bincount(tensor.a_worker, minlength=tensor.num_workers)
        answer_counts = {
            worker_id: int(count)
            for worker_id, count in zip(tensor.worker_ids, counts)
        }
        with self._tracer.span("reputation"):
            # Trust score per worker: a distance-aware likelihood-ratio test
            # of the worker's agreement with the *other* workers' firm
            # leave-one-out majority votes (see
            # :func:`repro.serving.guard.trust_scores` for why neither the
            # EM's mean-form ``p_qualified`` nor its weighted label
            # posterior is used here).  A pure function of the live tensor,
            # so crash recovery replays re-walk identical tier transitions.
            scores = trust_scores(tensor, excluded=tracker.quarantined_ids)
            tracker.evaluate(tensor.worker_ids, scores, answer_counts)

    def _maybe_reset_stat_epoch(self) -> None:
        """Re-seed the sufficient-stat cache on the checkpoint cadence.

        The cache is path-dependent (each row's contribution is frozen at the
        parameters current when it was last folded), so a run replayed from a
        checkpoint cannot reproduce an arbitrary-aged cache.  Resetting it
        every ``checkpoint_interval`` applied answers — on the *interval*
        alone, whether or not a checkpoint manager is attached, and deferred
        while a background refresh is in flight exactly like checkpoint cuts
        — keeps the reset schedule a pure function of the answer stream, so
        durable, non-durable and recovered runs all re-seed at the same
        points and remain bit-equal.
        """
        interval = self._config.checkpoint_interval
        if interval <= 0:
            return
        if self._pending_refresh is not None:
            return
        if self._stats.answers - self._answers_at_stat_epoch < interval:
            return
        self._updater.reset_sufficient_stats()
        self._answers_at_stat_epoch = self._stats.answers

    def _launch_refresh(self, warm: bool) -> bool:
        """Hand the interval full refresh to the background worker.

        The fit runs on a frozen copy of the live tensor (and, for warm
        starts, a copy of the live store) so the ingest thread may keep
        growing both; the refresh counter resets *now* — the launch is the
        refresh event as far as scheduling is concerned, and integration is
        just its deferred publish.
        """
        watermark = self._stats.answers

        def capture_and_launch() -> None:
            tensor, initial, weights, first_delta_floor = (
                self._updater.capture_refresh_state(warm=warm)
            )
            faults = self._faults
            inference = self._inference

            def fit() -> object:
                # Runs on the worker thread; the fault check lives here so
                # chaos can kill the process *inside* an overlapped fit.
                if faults is not None:
                    faults.check("refresh.background")
                return inference.run_em_detached(
                    tensor,
                    initial=initial,
                    answer_weights=weights,
                    first_delta_floor=first_delta_floor,
                )

            self._refresh_worker.launch(fit)

        with self._tracer.span("refresh", kind="launch"):
            ok = self._supervised("refresh", capture_and_launch)
        if not ok:
            # The batch itself was already applied incrementally; a failed
            # launch just means this interval's refresh never happened — the
            # counter keeps growing and the next due flush retries.
            return False
        self._pending_refresh = PendingRefresh(
            watermark_answers=watermark, warm=warm
        )
        self._updater.notify_full_refresh()
        self._stats.full_refreshes += 1
        self._stats.refreshes_overlapped += 1
        if self._tracer.metrics is not None:
            self._tracer.metrics.counter("ingest_refreshes_overlapped_total").inc()
        return True

    def _integrate_refresh(self) -> bool:
        """Collect the in-flight background fit and fold it into serving.

        Blocks (rarely — only when the fit is slower than ``pipeline_lag``
        answers of stream) until the worker finishes; the wait is recorded as
        the ``refresh_wait`` stage.  An ordinary exception from the fit is a
        counted, non-fatal refresh failure; a
        :class:`~repro.serving.faults.SimulatedCrash` re-raises on this
        thread so injected process death tears through exactly like the
        serial path.  Returns ``True`` when a fresh store was adopted.
        """
        pending = self._pending_refresh
        if pending is None:
            return False
        wait_started = time.perf_counter()
        outcome = self._refresh_worker.wait()
        waited = time.perf_counter() - wait_started
        self._pending_refresh = None
        self._stats.refresh_wait_seconds += waited
        self._tracer.record("refresh_wait", waited)
        if outcome.error is not None:
            if not isinstance(outcome.error, Exception):
                raise outcome.error
            self._stats.refresh_failures += 1
            self._stats.update_failures += 1
            if self._tracer.metrics is not None:
                self._tracer.metrics.counter(
                    "ingest_update_failures_total", point="refresh.background"
                ).inc()
            return False
        with self._tracer.span("refresh", kind="reconcile"):
            self._updater.integrate_refresh_result(
                outcome.result,
                pending.reconcile_workers,
                pending.reconcile_tasks,
            )
        self._stats.answers_reconciled += pending.answers_since_launch
        metrics = self._tracer.metrics
        if metrics is not None:
            metrics.histogram("refresh_fit_seconds").observe(outcome.fit_seconds)
            metrics.counter("ingest_reconciled_answers_total").inc(
                pending.answers_since_launch
            )
        return True

    def close(self) -> None:
        """Drain the background worker (discarding any in-flight fit).

        Shutdown seam: the service flushes ``full=True`` first — which
        integrates any in-flight fit — so a fit still running here belongs to
        an abandoned stream and is simply discarded.
        """
        self._pending_refresh = None
        self._refresh_worker.close()

    # ---------------------------------------------------------------- internal
    def _register_event_entities(self, event: AnswerEvent) -> None:
        """Register first-sight workers/tasks carried by ``event``.

        Unknown entities without a payload are a protocol error: the tensor
        append would fail later anyway, but failing here names the missing
        piece (the metadata, not the answer).
        """
        answer = event.answer
        inference = self._inference
        if answer.task_id not in inference._tasks:
            if event.task is None:
                raise KeyError(
                    f"answer references unknown task {answer.task_id!r} and the "
                    "event carries no task payload to register it"
                )
            if event.task.task_id != answer.task_id:
                raise ValueError(
                    f"event task payload {event.task.task_id!r} does not match "
                    f"the answer's task {answer.task_id!r}"
                )
            inference.add_task(event.task)
            self._stats.tasks_registered += 1
        if answer.worker_id not in inference._workers:
            if event.worker is None:
                raise KeyError(
                    f"answer references unknown worker {answer.worker_id!r} and "
                    "the event carries no worker payload to register it"
                )
            if event.worker.worker_id != answer.worker_id:
                raise ValueError(
                    f"event worker payload {event.worker.worker_id!r} does not "
                    f"match the answer's worker {answer.worker_id!r}"
                )
            inference.add_worker(event.worker)
            self._stats.workers_registered += 1

    def _publish(self, published_at: float, source: str) -> ParameterSnapshot:
        """Publish the live estimate over every known entity as a full copy.

        The copy (the live store plus any carried-over rows) is made solely
        for this publish, so it is handed over instead of paying a second
        full-array copy inside the snapshot.
        """
        store = self._updater.publish_store(self._answers if self._retain else None)
        snapshot = self._snapshots.publish(
            store, published_at=published_at, source=source, copy=False
        )
        self._stats.snapshots_published += 1
        return snapshot

    # -------------------------------------------------------------- durability
    #: Stats carried through a checkpoint so a resumed session's counters
    #: continue from the crashed run instead of restarting at zero.
    _CHECKPOINTED_COUNTERS = (
        "answers",
        "batches",
        "incremental_updates",
        "full_refreshes",
        "snapshots_published",
        "workers_registered",
        "tasks_registered",
        "events_quarantined",
        "events_rejected_reputation",
        "journal_appends",
        "refreshes_overlapped",
        "answers_reconciled",
        "update_seconds",
    )

    def _supervised(self, point: str, operation: Callable[[], object]) -> bool:
        """Run ``operation`` under bounded retry with exponential backoff.

        Returns ``True`` on success, ``False`` after exhausting
        :attr:`IngestConfig.max_update_retries` — the caller then drops the
        work and marks the snapshot store degraded instead of raising into
        the serving loop.  Only :class:`Exception` is absorbed;
        :class:`~repro.serving.faults.SimulatedCrash` (a ``BaseException``)
        tears through like a real ``kill -9``.
        """
        backoff = self._config.retry_backoff
        for attempt in range(self._config.max_update_retries + 1):
            try:
                if self._faults is not None:
                    self._faults.check(point)
                operation()
                return True
            except Exception:
                self._stats.update_failures += 1
                if self._tracer.metrics is not None:
                    self._tracer.metrics.counter(
                        "ingest_update_failures_total", point=point
                    ).inc()
                if attempt >= self._config.max_update_retries:
                    return False
                self._stats.update_retries += 1
                if self._tracer.metrics is not None:
                    self._tracer.metrics.counter(
                        "ingest_update_retries_total", point=point
                    ).inc()
                if backoff > 0:
                    time.sleep(min(backoff, self._config.max_retry_backoff))
                    backoff *= self._config.retry_backoff_factor
        return False  # pragma: no cover - loop always returns

    def _maybe_checkpoint(self, snapshot: ParameterSnapshot) -> None:
        """Persist the live state if the checkpoint interval has elapsed.

        Checkpoints are cut only here — right after a successful publish,
        with the event buffer empty — so a checkpoint always sits on a
        micro-batch boundary and journal replay from ``journal_seq`` rebuilds
        the exact batch boundaries the crashed run would have produced.
        Failures are counted, never raised: the previous checkpoint plus the
        untruncated journal still cover the full state.
        """
        if self._checkpoints is None or self._config.checkpoint_interval <= 0:
            return
        if self._pending_refresh is not None:
            # Never cut a checkpoint while a background refresh is in flight:
            # a checkpoint must be a state journal replay can reproduce, and
            # an in-flight fit is not part of that durable state — replay
            # re-launches it at the same deterministic answer count instead.
            # The cut happens at the first boundary after integration.
            return
        if (
            self._stats.answers - self._answers_at_checkpoint
            < self._config.checkpoint_interval
        ):
            return
        try:
            if self._faults is not None:
                self._faults.check("checkpoint.save")
            with self._tracer.span("checkpoint"):
                self._write_checkpoint(snapshot)
        except Exception:
            self._stats.checkpoint_failures += 1

    def _write_checkpoint(self, snapshot: ParameterSnapshot) -> None:
        counters: dict[str, float] = {
            name: getattr(self._stats, name) for name in self._CHECKPOINTED_COUNTERS
        }
        decay_epoch, arrival_epochs = 0, None
        if self._config.stat_decay < 1.0:
            decay_epoch, arrival_epochs = self._updater.export_decay_state()
        extra: dict = {}
        if self._guard is not None and self._guard.stats.reasons:
            # Quarantined events are never journaled; replay cannot recount
            # them, so the per-reason totals travel with the checkpoint.
            extra["guard_reasons"] = dict(self._guard.stats.reasons)
        if self._reputation is not None:
            extra["reputation"] = self._reputation.state_dict()
        workers, tasks = self._inference.learned_entities()
        state = CheckpointState(
            store=snapshot.store,
            journal_seq=self._applied_seq,
            snapshot_version=snapshot.version,
            published_at=snapshot.published_at,
            columns=self._updater.live_tensor.columns(),
            workers=workers,
            tasks=tasks,
            startup_digest=self._inference.startup_digest,
            answers_since_full_refresh=self._updater.answers_since_full_refresh,
            counters=counters,
            decay_epoch=decay_epoch,
            arrival_epochs=arrival_epochs,
            extra=extra,
        )
        self._checkpoints.save(state)
        self._stats.checkpoints_written += 1
        self._answers_at_checkpoint = self._stats.answers
        if self._journal is not None:
            # Truncate only what the OLDEST retained checkpoint covers:
            # recovery falls back across corrupt checkpoints newest-first, and
            # every retained one must still find its journal tail on disk.
            self._journal.truncate_covered(self._checkpoints.oldest_covered_seq())

    def restore(self, state: CheckpointState) -> None:
        """Adopt a checkpoint's live state (the crash-recovery entry point).

        The caller (:func:`~repro.serving.journal.recover_ingestor`) has
        already re-registered the checkpoint's learned entities and
        warm-started the inference model from the checkpointed store; this
        restores the ingestor's side: the live answer tensor/store, adopted
        from the checkpoint's answer columns (bit-equal, via
        :meth:`~repro.core.incremental.IncrementalUpdater.restore_live_state`),
        the decay ages, the carried-over counters, the guard's duplicate
        history (seeded from the columns), the retained log (the only
        consumer that needs the rows as :class:`~repro.data.models.Answer`
        objects), and the journal cursor.
        """
        self._updater.restore_live_state(
            state.columns, state.answers_since_full_refresh
        )
        if self._retain:
            for answer in state.columns.answers():
                self._answers.add(answer)
        if self._guard is not None:
            self._guard.seed_history(state.columns)
        for name in self._CHECKPOINTED_COUNTERS:
            if name in state.counters:
                value = state.counters[name]
                setattr(
                    self._stats,
                    name,
                    float(value) if name == "update_seconds" else int(value),
                )
        self._stats.log_flattens = self._updater.tensor_rebuilds
        if state.arrival_epochs is not None:
            self._updater.restore_decay_state(state.decay_epoch, state.arrival_epochs)
        extra = state.extra
        if self._guard is not None and extra.get("guard_reasons"):
            self._guard.restore_quarantine_stats(extra["guard_reasons"])
        if self._reputation is not None and "reputation" in extra:
            self._reputation.restore_state(extra["reputation"])
        self._pending_seq = state.journal_seq
        self._applied_seq = state.journal_seq
        self._answers_at_checkpoint = self._stats.answers
        # Checkpoints are only cut on stat-epoch boundaries (both follow the
        # same interval + in-flight deferral), so restoring one lands exactly
        # on a reset point: the original run re-seeded its cache here too.
        self._answers_at_stat_epoch = self._stats.answers
