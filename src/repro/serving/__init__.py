"""Online serving subsystem: streaming ingestion, snapshots, live assignment.

The paper's system is *online*: workers arrive continuously, answers stream in,
result inference is refreshed incrementally, and the next task assignment must
be computed against the freshest parameters.  This package is that serving
path, layered on the batched EM engine and the array-backed incremental
updater of :mod:`repro.core` (the only engines production runs; their
per-record specifications live with the tests, in ``tests/oracles/``):

* :mod:`repro.serving.ingest`    — accepts streams of answer events and
  micro-batches them (by count and/or simulated-time window) into
  :class:`~repro.core.incremental.IncrementalUpdater`; the periodic full
  re-fit runs **directly off the updater's live tensor** (zero answer-log
  re-flattens), so the ingestor is log-free by default
  (``IngestConfig.retain_answer_log`` opts back in);
* :mod:`repro.serving.pipeline`  — the background
  :class:`~repro.serving.pipeline.RefreshWorker` that overlaps the periodic
  full EM re-fit with continued ingest (see the pipelined loop below);
* :mod:`repro.serving.snapshots` — immutable, versioned copies of the
  :class:`~repro.core.params.ArrayParameterStore`, the package's one
  estimate type (every publish a frozen full copy, monotonically increasing
  versions, bounded retention, ``.npz`` persistence) so reads never observe
  a half-applied update: readers hold frozen snapshot stores, never the
  updater's live store, which every micro-batch changes in place;
* :mod:`repro.serving.frontend`  — serves an AccOpt / uncertainty /
  spatial-first assignment to each arriving worker against the latest
  published snapshot, recording per-request latency;
* :mod:`repro.serving.journal`   — the segmented, checksummed write-ahead
  :class:`~repro.serving.journal.AnswerJournal` plus the
  :func:`~repro.serving.journal.recover_ingestor` crash-recovery entry point;
* :mod:`repro.serving.guard`     — the event-validation / quarantine gate that
  keeps malformed, duplicate or rate-anomalous submissions out of the EM
  kernel;
* :mod:`repro.serving.faults`    — the deterministic fault-injection harness
  (seeded crash points, refresh exceptions, torn journal tails, corrupt
  checkpoint files) driving the chaos test suite;
* :mod:`repro.serving.service`   — wires everything together over a
  :class:`~repro.crowd.platform.CrowdPlatform` workload and exposes a
  run-to-completion simulation (the ``repro-poi serve-sim`` CLI subcommand).

**The pipelined serving loop.**  By default (``IngestConfig.pipeline``) the
periodic full EM re-fit no longer stalls the stream: when the refresh
interval trips, the triggering batch is applied incrementally and the fit is
handed to a :class:`~repro.serving.pipeline.RefreshWorker` thread over frozen
copies of the live tensor and store, while the ingest thread keeps applying
localized sweeps and publishing snapshots::

    ingest thread   ... A A A [launch] A A A A [integrate] A A ...
                              |  capture tensor/store  ^ replay mid-fit
                              v  copies (O(state))     | answers, publish
    refresh thread           [========= full EM fit ==========]

Determinism is preserved for crash recovery: launch happens at a fixed
applied-answer count (the interval trip), integration at a fixed count
(launch watermark + ``IngestConfig.pipeline_lag_answers``), and the ingest
thread *waits* at the integration point if the fit is still running (the
only nondeterministic quantity is that wait, recorded as the
``refresh_wait`` stage).  Answers applied mid-fit are accumulated by a
:class:`~repro.serving.pipeline.PendingRefresh` and replayed as localized
sweeps against the fresh store before it is atomically published.
``pipeline=False`` (CLI ``--no-pipeline``) restores the blocking serial
loop, which doubles as the equivalence oracle: both modes end in stores
matching to ≤1e-9.  Micro-batch applies themselves are O(changed) via the
sufficient-statistic cache of :mod:`repro.core.em_kernel` — a sweep folds
only the dirty rows' new answer slots into cached per-entity posteriors
totals instead of re-running E-steps over whole neighbourhoods, and
recently settled entities are deferred for
:data:`~repro.core.incremental.SETTLE_DEFER_BATCHES` batches.

**Durability and crash recovery.**  By default the serving stack is purely
in-memory; giving the service a *state directory* turns on the
journal → checkpoint → replay → degraded-mode lifecycle:

1. **Journal (write-ahead).**  Every accepted answer event is appended to the
   segmented, CRC-checksummed :class:`~repro.serving.journal.AnswerJournal`
   *before* it is buffered or applied, so a crash at any point loses at most
   the single record that was mid-write (a *torn tail*, detected and dropped
   on recovery).  Segments rotate at a bounded record count.
2. **Checkpoint.**  Every ``IngestConfig.checkpoint_interval`` applied
   answers, the ingestor persists a
   :class:`~repro.serving.snapshots.CheckpointManager` checkpoint: the latest
   published parameter store, the live answer tensor's columns (id tables,
   per-task label counts, per-answer worker/task indices, ``int8``
   responses) and decay arrival epochs as arrays, the metadata of the
   workers/tasks learned after startup, a digest of the startup universe,
   and the update counters — everything needed to rebuild the live
   :class:`~repro.core.incremental.IncrementalUpdater` state.  Journal
   segments wholly covered by the checkpoint are truncated (with
   ``journal_fsync`` on, only after the checkpoint is fsync'd).
3. **Replay (recovery).**  :func:`~repro.serving.journal.recover_ingestor`
   loads the newest *valid* checkpoint (corrupt ones are skipped with a
   diagnostic, falling back to older checkpoints or a cold start), re-registers
   its learned entities on the caller's startup model (another startup
   universe raises :class:`StartupUniverseError`), adopts the checkpoint's
   answer columns as the live tensor, then replays the journal tail (the
   only records it decodes) through the exact same micro-batching code path
   — so the recovered live store matches the uncrashed run to ≤1e-9,
   including batch boundaries.  If the journal was truncated past every
   checkpoint that still loads, recovery raises
   :class:`JournalCorruptionError` instead of replaying what is left.
   ``repro-poi serve-sim --state-dir DIR --resume`` drives this end to end.
4. **Degraded mode.**  Model refreshes and snapshot publishes run under a
   supervisor with bounded retries and exponential backoff; when an update
   keeps failing, the batch is dropped, the
   :class:`~repro.serving.snapshots.SnapshotStore` is marked *degraded* and
   the frontend keeps serving the last good snapshot — requests served in
   that state are counted in ``FrontendStats.stale_serves`` instead of
   raising mid-stream.  Invalid events never get this far: the
   :class:`~repro.serving.guard.EventGuard` quarantines them with per-reason
   counters before they touch the journal or the EM kernel.

**Typed failure surface.**  Everything that can go wrong with persisted or
live serving state raises a :class:`ServingStateError` subclass with an
actionable message: :class:`JournalCorruptionError` (a checksummed journal
record failed validation away from the tail), :class:`CheckpointCorruptionError`
(a checkpoint failed its CRC, format or column validation),
:class:`StartupUniverseError` (a restart was handed another startup universe
than the checkpointed run's), :class:`SnapshotIntegrityError` (a persisted
snapshot failed row-count/shape validation), and :class:`LiveStateError`
(the in-memory tensor/store lifecycle was violated, e.g. an externally
fitted model with no answer log to rebuild from).

**Open-world serving.**  The stack does not assume the worker/task universe is
known at startup — new entities flow through every layer as they arrive:

1. an :class:`~repro.serving.ingest.AnswerEvent` referencing an unknown worker
   or task carries the entity's metadata as a first-sight payload; the
   ingestor registers it into the inference model before the micro-batch is
   applied (``add_worker`` / ``add_task``);
2. the incremental updater appends the batch to its live, growable
   :class:`~repro.core.em_kernel.AnswerTensor` and admits the new entity into
   the row-aligned :class:`~repro.core.params.ArrayParameterStore` with the
   paper's footnote-3 trusted prior (fully qualified, flattest distance
   function), then refines it with localized masked sweeps — no per-batch
   rebuild of tensors or stores;
3. the next published snapshot's entity universe has grown accordingly
   (snapshots are append-only in entity space: universes never shrink between
   versions);
4. the frontend admits the entity into its assignment strategy — for AccOpt
   the cached distance rows, the task-side ragged label layout, ``|W(t)|``
   and the estimate's alignment grow with the store — so the very next
   request can be scored over the expanded universe;
5. :class:`~repro.serving.service.OnlineServingService` drives the whole flow
   with the ``holdback_worker_fraction`` / ``holdback_task_fraction`` knobs
   of :class:`~repro.serving.service.ServingConfig` (CLI:
   ``--holdback-workers`` / ``--holdback-tasks``): withheld workers join on
   their first arrival batch, withheld tasks on a rolling release schedule,
   and the report records how much of the stream came from entities absent at
   startup.

**Threat model and degradation ladder.**  The stream is assumed *hostile*:
beyond malformed events (the guard's domain), the crowd itself may contain
always-wrong label inverters, coin-flipping spammers and colluding rings
(:data:`~repro.crowd.worker_pool.ADVERSARY_ARCHETYPES`), and even honest
workers' quality drifts over the session
(:class:`~repro.crowd.answer_model.QualityDrift`).  Defences are layered so
each one degrades the attacker's influence further without ever taxing a
clean stream:

1. **Evidence.**  :func:`~repro.serving.guard.trust_scores` judges every
   worker against the *leave-one-out unweighted majority* of the other
   workers on each firm label cell, scored through a distance-decayed
   honest-reference curve whose floor is exactly 0.5 — far-task rows carry
   no evidence (an honest local worker and a coin are indistinguishable
   there), so the frontend's *trust probes* (``ServingConfig.probe_interval``)
   keep swapping one optimiser pick per cycle for the worker's nearest
   unanswered task, guaranteeing the near-task evidence detection needs.
2. **Judgement.**  The :class:`~repro.serving.guard.ReputationTracker` walks
   workers down (and back up) the ``trusted → probation → quarantined``
   ladder with hysteresis: a ``min_answers`` evidence gate, smoothed
   posteriors, consecutive-evaluation patience on every transition, and a
   dead band so re-admission only happens through sustained recovery — a
   falsely quarantined worker keeps being scored against the consensus and
   can earn their way back.
3. **Degradation.**  Quarantine bites at three layers at once: the intake
   rejects the worker's new events (counted separately from guard
   quarantines), full EM refreshes down-weight their *historical* answers by
   ``ReputationConfig.quarantined_weight`` (nonzero, so their own posterior
   can still recover), and the assignment frontend refuses them HITs and
   strikes them from the optimiser's worker universe.  Their votes are also
   struck from the trust consensus itself, so a caught coin stops
   randomising the majority everyone else is judged by.
4. **Drift.**  ``IngestConfig.stat_decay < 1`` ages sufficient statistics
   per applied batch so the model tracks non-stationary workers;
   ``stat_decay=1.0`` keeps the exact historical path bit-for-bit, and the
   whole ladder state (tiers, streaks, posteriors) rides the checkpoint /
   journal-replay cycle, so crash recovery restores the trust view of the
   world bit-equal.

The named workloads in :mod:`repro.framework.scenarios` (``clean``,
``spam``, ``collusion``, ``drift``, ``churn`` — CLI
``repro-poi serve-sim --scenario NAME``) pin this behaviour down, and
``benchmarks/bench_scenario_matrix.py`` gates it in CI: the clean stream
must be indistinguishable from a reputation-blind run, spam detection must
hit 90% recall at 90% precision, and decayed statistics must beat frozen
ones on the practice-curve drift stream.

**Observability.**  The whole pipeline reports into the dependency-free
telemetry substrate of :mod:`repro.obs` — one
:class:`~repro.obs.metrics.MetricsRegistry` per service, one
:class:`~repro.obs.trace.Tracer` threading phase-attributed wall time through
every stage:

* **pipeline spans** — every micro-batch's guard / journal / apply / refresh /
  publish / checkpoint work and every frontend ``assign`` request record into
  the ``stage_seconds`` histogram (labelled by stage) plus
  ``stage_calls_total`` / ``stage_errors_total`` counters.  The top-level
  stages never nest among themselves, so summing their totals attributes wall
  time without double counting;
* **component counters** — guard acceptances and per-reason quarantines,
  journal appends (fsync-labelled latency histogram) and segment rotations,
  snapshot publishes, ingest answers/batches/retries/drops, fault-injector
  armed/fired counts, and the EM work rate (localized sweeps run, entities
  settled by early-exit, refresh iterations and final convergence deltas);
* **serving histograms** — assignment latency (the registry histogram is the
  authoritative percentile source; the frontend's
  :class:`~repro.serving.frontend.LatencyReservoir` stays as a compatibility
  view) and snapshot age at serve time;
* **the phase breakdown** — :class:`~repro.obs.trace.PhaseTimeline` samples
  cumulative stage totals every round, and
  :meth:`ServingReport.summary <repro.serving.service.ServingReport.summary>`
  renders the per-stream-quarter share of wall time spent in each stage —
  the instrument that answers *which stage eats the throughput as the stream
  ages* (apply vs refresh vs publish), not just that it decays;
* **exports** — ``ServingConfig(metrics_dir=...)`` writes stamped
  ``metrics.jsonl`` snapshots (every ``metrics_interval`` rounds and at
  shutdown), a Prometheus text rendering, and (``trace=True``) a bounded
  span ring as Chrome ``trace_event`` JSON.  CLI:
  ``repro-poi serve-sim --metrics-dir DIR --metrics-interval N --trace
  --metrics-summary``.

Telemetry is always on in-process (a handful of histogram observations per
micro-batch); components constructed without a tracer fall back to an inert
metricless :class:`~repro.obs.trace.Tracer`, so the hot path never branches.

Typical usage::

    from repro.serving import OnlineServingService, ServingConfig

    service = OnlineServingService(platform, config=ServingConfig())
    report = service.run()
    print(report.summary())

Durable usage (restart-safe)::

    config = ServingConfig(state_dir="serving-state")
    OnlineServingService(platform, config=config).run()      # crashes at t
    config = ServingConfig(state_dir="serving-state", resume=True)
    OnlineServingService(platform, config=config).run()      # resumes from t
"""


class ServingStateError(RuntimeError):
    """Base class for every durable/live serving-state failure.

    Raised (via its subclasses) instead of bare ``RuntimeError`` / ``ValueError``
    deep inside the serving stack, so callers can catch one type and every
    message names both what broke and what to do about it.
    """


class JournalCorruptionError(ServingStateError):
    """A write-ahead journal record failed its checksum away from the tail.

    A *torn tail* (the final record of the final segment cut short by a
    crash) is expected and silently dropped; corruption anywhere else means
    the journal cannot be trusted and replay refuses to continue past it.
    Recovery also raises it when the journal's oldest record lies past the
    newest checkpoint that still loads: the records in between are gone.
    """


class CheckpointCorruptionError(ServingStateError):
    """A persisted checkpoint failed its CRC, format or column validation.

    Recovery skips corrupt checkpoints and falls back to the next older one
    (or a cold start + full journal replay); loading one directly raises.
    """


class StartupUniverseError(ServingStateError):
    """A restart was handed another startup universe than the crashed run's.

    A checkpoint records a digest of the workers and tasks its inference
    model was built with (ids, label counts, locations) and holds only the
    entities learned after that; recovery refuses a model over any other
    universe before replaying anything.  No older checkpoint can help, so
    this is not corruption and is never skipped.
    """


class SnapshotIntegrityError(ServingStateError):
    """A persisted snapshot failed integrity validation.

    Raised when a ``.npz`` snapshot cannot be read back consistently: the
    archive is unreadable, arrays are missing, or the store's ragged layout,
    shapes or probability ranges are incoherent.
    """


class LiveStateError(ServingStateError):
    """The in-memory serving state lifecycle was violated.

    For example: the incremental updater is asked to rebuild its live tensor
    but the inference model was fitted outside the updater and no answer log
    (nor primed snapshot carryover) exists to rebuild from.
    """


from repro.serving.frontend import AssignmentFrontend, AssignmentResponse, FrontendStats
from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig, IngestStats
from repro.serving.snapshots import (
    CheckpointManager,
    CheckpointState,
    ParameterSnapshot,
    SnapshotStore,
    load_snapshot,
)
from repro.serving.journal import AnswerJournal, RecoveryReport, recover_ingestor
from repro.serving.pipeline import PendingRefresh, RefreshOutcome, RefreshWorker
from repro.serving.guard import (
    TRUST_TIERS,
    EventGuard,
    GuardConfig,
    GuardStats,
    QuarantinedEvent,
    ReputationConfig,
    ReputationTracker,
)
from repro.serving.faults import FaultInjector, InjectedFault, SimulatedCrash
from repro.serving.service import (
    OnlineServingService,
    ServingConfig,
    ServingReport,
    TrustReport,
)

__all__ = [
    "AnswerEvent",
    "AnswerIngestor",
    "AnswerJournal",
    "AssignmentFrontend",
    "AssignmentResponse",
    "CheckpointCorruptionError",
    "CheckpointManager",
    "CheckpointState",
    "EventGuard",
    "FaultInjector",
    "FrontendStats",
    "GuardConfig",
    "GuardStats",
    "IngestConfig",
    "IngestStats",
    "InjectedFault",
    "JournalCorruptionError",
    "LiveStateError",
    "OnlineServingService",
    "ParameterSnapshot",
    "PendingRefresh",
    "QuarantinedEvent",
    "RecoveryReport",
    "RefreshOutcome",
    "RefreshWorker",
    "ReputationConfig",
    "ReputationTracker",
    "ServingConfig",
    "ServingReport",
    "ServingStateError",
    "SimulatedCrash",
    "SnapshotIntegrityError",
    "StartupUniverseError",
    "SnapshotStore",
    "TRUST_TIERS",
    "TrustReport",
    "load_snapshot",
]
