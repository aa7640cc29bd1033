"""Event validation and quarantine: crowd input is untrusted by construction.

Everything the EM kernel consumes arrives over the open submission surface,
and one malformed event deep inside a micro-batch used to surface as a bare
``KeyError``/``ValueError`` mid-flush — killing the whole serving loop for
one bad submission.  :class:`EventGuard` moves that validation to the intake
boundary: :meth:`EventGuard.admit` inspects every
:class:`~repro.serving.ingest.AnswerEvent` *before* it touches the journal or
the buffer and either accepts it or files it into a bounded in-memory
quarantine log (optionally mirrored to a JSONL sink) under a per-reason
counter, without raising.

Rejection reasons (the keys of :attr:`GuardStats.reasons`):

``coordinates``
    A first-sight worker/task payload carries a non-finite coordinate or one
    outside :attr:`GuardConfig.coordinate_bounds`.
``unknown-worker`` / ``unknown-task``
    The answer references an entity the model does not know and the event
    carries no payload to register it — the exact condition that previously
    raised ``KeyError`` inside the flush.
``payload-mismatch``
    The event's payload id contradicts the answer's worker/task id.
``label-arity``
    The answer's response vector length does not match the task's label count.
``duplicate``
    The identical ``(worker, task, responses)`` submission was already
    accepted — replays add no information and skew rate accounting.
``reanswer``
    A changed re-answer for an already-answered pair while
    :attr:`GuardConfig.allow_reanswers` is off.
``rate-limit``
    The worker exceeded :attr:`GuardConfig.max_answers_per_window` accepted
    answers inside the trailing :attr:`GuardConfig.rate_window` simulated
    seconds (0 disables the check).
``reputation``
    The submitting worker is currently quarantined by the
    :class:`ReputationTracker` — its new answers are rejected at intake
    (and therefore never journaled, keeping crash replay deterministic).

:meth:`EventGuard.observe` records an event into the duplicate/rate history
*without* validating — used when replaying journal events that were already
admitted before a crash, so recovery never re-litigates (and never drops)
history the crashed run accepted.  Replayed events update the same
``inspected``/``accepted`` counters as live traffic, and the per-worker
rate-history deques are pruned to the trailing window on every append
(amortized O(evicted) — history can never grow unbounded on the accept or
replay path).

:class:`ReputationTracker` sits one level above the per-event checks: it is
fed worker-accuracy posteriors (the model's ``p_qualified``) after each
refresh and walks each worker through hysteresis tiers — ``trusted`` →
``probation`` → ``quarantined`` — with streak-based patience in both
directions, so one noisy posterior estimate neither quarantines an honest
worker nor re-admits a spammer.
"""

from __future__ import annotations

import json
import math

import numpy as np
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.em_kernel import AnswerColumns
    from repro.core.inference import LocationAwareInference
    from repro.obs.metrics import MetricsRegistry
    from repro.serving.ingest import AnswerEvent


@dataclass
class GuardConfig:
    """Validation policy of one :class:`EventGuard`."""

    #: ``(min_x, min_y, max_x, max_y)`` accepted for payload coordinates;
    #: ``None`` only checks finiteness.
    coordinate_bounds: tuple[float, float, float, float] | None = None
    #: Whether a changed re-answer of an answered pair is accepted (identical
    #: resubmissions are always quarantined as duplicates).
    allow_reanswers: bool = True
    #: Accepted answers allowed per worker inside ``rate_window``; 0 disables.
    max_answers_per_window: int = 0
    #: Trailing window (simulated seconds) for the rate check.
    rate_window: float = 60.0
    #: Quarantined events retained in memory, newest last.
    quarantine_capacity: int = 256
    #: Optional JSONL file every quarantined event is appended to.
    quarantine_sink: str | Path | None = None

    def __post_init__(self) -> None:
        if self.coordinate_bounds is not None:
            min_x, min_y, max_x, max_y = self.coordinate_bounds
            if not (min_x < max_x and min_y < max_y):
                raise ValueError(
                    f"coordinate_bounds must be (min_x, min_y, max_x, max_y) "
                    f"with positive extent, got {self.coordinate_bounds}"
                )
        if self.max_answers_per_window < 0:
            raise ValueError(
                f"max_answers_per_window must be non-negative, "
                f"got {self.max_answers_per_window}"
            )
        if self.rate_window <= 0:
            raise ValueError(f"rate_window must be positive, got {self.rate_window}")
        if self.quarantine_capacity <= 0:
            raise ValueError(
                f"quarantine_capacity must be positive, got {self.quarantine_capacity}"
            )


@dataclass(frozen=True)
class QuarantinedEvent:
    """One rejected submission with its reason and diagnostic detail."""

    event: "AnswerEvent"
    reason: str
    detail: str


@dataclass
class GuardStats:
    """Counters of one :class:`EventGuard`."""

    inspected: int = 0
    accepted: int = 0
    quarantined: int = 0
    reasons: dict[str, int] = field(default_factory=dict)


class EventGuard:
    """Admits or quarantines answer events at the ingestion boundary."""

    def __init__(
        self,
        config: GuardConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._config = config or GuardConfig()
        self._metrics = metrics
        self._stats = GuardStats()
        self._quarantine: deque[QuarantinedEvent] = deque(
            maxlen=self._config.quarantine_capacity
        )
        # Accepted history: responses per answered pair (duplicate detection)
        # and accept times per worker (rate anomaly detection).
        self._seen_responses: dict[tuple[str, str], tuple[int, ...]] = {}
        self._accept_times: dict[str, deque[float]] = {}

    # ------------------------------------------------------------------ state
    @property
    def config(self) -> GuardConfig:
        return self._config

    @property
    def stats(self) -> GuardStats:
        return self._stats

    @property
    def quarantine(self) -> list[QuarantinedEvent]:
        """The retained quarantined events, oldest first (bounded)."""
        return list(self._quarantine)

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        """Mirror accept/quarantine counters into ``metrics`` from now on."""
        self._metrics = metrics

    # ----------------------------------------------------------------- intake
    def admit(
        self, event: "AnswerEvent", inference: "LocationAwareInference"
    ) -> str | None:
        """Validate ``event``; return ``None`` to accept or the rejection reason.

        A rejected event is recorded in the quarantine log and the per-reason
        counters — never raised.  Accepted events enter the duplicate/rate
        history.
        """
        self._stats.inspected += 1
        verdict = self._inspect(event, inference)
        if verdict is not None:
            reason, detail = verdict
            self._quarantine_event(event, reason, detail)
            return reason
        self._stats.accepted += 1
        if self._metrics is not None:
            self._metrics.counter("guard_accepted_total").inc()
        self._record_history(event)
        return None

    def reject(self, event: "AnswerEvent", reason: str, detail: str) -> None:
        """File ``event`` into quarantine under ``reason`` without inspecting it.

        Used by policy layers above the per-event checks (e.g. the
        :class:`ReputationTracker` rejecting a quarantined worker's new
        submissions) so their rejections land in the same counters, bounded
        log and JSONL sink as the guard's own.
        """
        self._stats.inspected += 1
        self._quarantine_event(event, reason, detail)

    def observe(self, event: "AnswerEvent") -> None:
        """Record an already-admitted event into the history (no validation).

        The crash-recovery replay path: journal records were validated before
        the crash, so replay must update the duplicate/rate history without
        being able to reject them.  It still counts: an event the crashed run
        inspected and accepted is inspected and accepted again on replay, so
        the recovered guard's counters match the uncrashed run's.
        """
        self._stats.inspected += 1
        self._stats.accepted += 1
        self._record_history(event)

    def seed_history(self, columns: "AnswerColumns") -> None:
        """Seed the duplicate history from a checkpoint's answer columns.

        Reads the rows' ids and ticks straight off the columns, without
        building an :class:`~repro.data.models.Answer` per row.  Every
        seeded answer was inspected and accepted by the run that
        checkpointed it, so the counters advance exactly as live traffic
        would have advanced them.
        """
        for worker_id, task_id, responses in columns.rows():
            self._seen_responses[(worker_id, task_id)] = responses
        self._stats.inspected += columns.num_answers
        self._stats.accepted += columns.num_answers

    def restore_quarantine_stats(self, reasons: dict[str, int]) -> None:
        """Restore checkpointed per-reason quarantine counters after recovery.

        Quarantined events are never journaled, so replay cannot reconstruct
        them; the checkpoint carries the reason counters instead.  Each
        restored rejection was also an inspection, so ``inspected`` advances
        by the restored total alongside ``quarantined``.
        """
        for reason, count in reasons.items():
            count = int(count)
            if count <= 0:
                continue
            self._stats.reasons[reason] = self._stats.reasons.get(reason, 0) + count
            self._stats.quarantined += count
            self._stats.inspected += count

    def _record_history(self, event: "AnswerEvent") -> None:
        """Append ``event`` to the duplicate/rate history, pruning the window.

        Pruning happens at append time with the same trailing-window popleft
        loop the rate check uses, so each history entry is evicted at most
        once — amortized O(evicted) per observation, and the per-worker deque
        is bounded by the answers accepted inside one window even for workers
        that are never rate-checked again.
        """
        answer = event.answer
        self._seen_responses[(answer.worker_id, answer.task_id)] = answer.responses
        if self._config.max_answers_per_window > 0:
            times = self._accept_times.setdefault(answer.worker_id, deque())
            times.append(event.time)
            window = self._config.rate_window
            while times and event.time - times[0] > window:
                times.popleft()

    # --------------------------------------------------------------- internal
    def _inspect(
        self, event: "AnswerEvent", inference: "LocationAwareInference"
    ) -> tuple[str, str] | None:
        answer = event.answer
        config = self._config

        coords = self._payload_coordinate_issue(event)
        if coords is not None:
            return "coordinates", coords

        if event.task is not None and event.task.task_id != answer.task_id:
            return (
                "payload-mismatch",
                f"task payload {event.task.task_id!r} vs answer task "
                f"{answer.task_id!r}",
            )
        if event.worker is not None and event.worker.worker_id != answer.worker_id:
            return (
                "payload-mismatch",
                f"worker payload {event.worker.worker_id!r} vs answer worker "
                f"{answer.worker_id!r}",
            )

        task = inference._tasks.get(answer.task_id)
        if task is None:
            if event.task is None:
                return (
                    "unknown-task",
                    f"task {answer.task_id!r} is unknown and the event carries "
                    "no payload",
                )
            task = event.task
        if answer.worker_id not in inference._workers and event.worker is None:
            return (
                "unknown-worker",
                f"worker {answer.worker_id!r} is unknown and the event carries "
                "no payload",
            )

        if answer.num_labels != task.num_labels:
            return (
                "label-arity",
                f"{answer.num_labels} responses for task {answer.task_id!r} "
                f"with {task.num_labels} labels",
            )

        previous = self._seen_responses.get((answer.worker_id, answer.task_id))
        if previous is not None:
            if previous == answer.responses:
                return (
                    "duplicate",
                    f"identical resubmission of ({answer.worker_id!r}, "
                    f"{answer.task_id!r})",
                )
            if not config.allow_reanswers:
                return (
                    "reanswer",
                    f"changed re-answer of ({answer.worker_id!r}, "
                    f"{answer.task_id!r}) with re-answers disabled",
                )

        if config.max_answers_per_window > 0:
            times = self._accept_times.get(answer.worker_id)
            if times is not None:
                while times and event.time - times[0] > config.rate_window:
                    times.popleft()
                if len(times) >= config.max_answers_per_window:
                    return (
                        "rate-limit",
                        f"worker {answer.worker_id!r} exceeded "
                        f"{config.max_answers_per_window} answers per "
                        f"{config.rate_window:g} s",
                    )
        return None

    def _payload_coordinate_issue(self, event: "AnswerEvent") -> str | None:
        bounds = self._config.coordinate_bounds
        points = []
        if event.worker is not None:
            points.extend(
                (f"worker {event.worker.worker_id!r}", loc)
                for loc in event.worker.locations
            )
        if event.task is not None:
            points.append((f"task {event.task.task_id!r}", event.task.location))
        for origin, point in points:
            x, y = float(point.x), float(point.y)
            if not (math.isfinite(x) and math.isfinite(y)):
                return f"{origin} has a non-finite coordinate ({x}, {y})"
            if bounds is not None:
                min_x, min_y, max_x, max_y = bounds
                if not (min_x <= x <= max_x and min_y <= y <= max_y):
                    return (
                        f"{origin} coordinate ({x:g}, {y:g}) lies outside "
                        f"bounds {bounds}"
                    )
        return None

    def _quarantine_event(self, event: "AnswerEvent", reason: str, detail: str) -> None:
        self._stats.quarantined += 1
        self._stats.reasons[reason] = self._stats.reasons.get(reason, 0) + 1
        if self._metrics is not None:
            self._metrics.counter("guard_quarantined_total", reason=reason).inc()
        entry = QuarantinedEvent(event=event, reason=reason, detail=detail)
        self._quarantine.append(entry)
        sink = self._config.quarantine_sink
        if sink is not None:
            answer = event.answer
            record = {
                "reason": reason,
                "detail": detail,
                "time": event.time,
                "worker_id": answer.worker_id,
                "task_id": answer.task_id,
                "responses": list(answer.responses),
            }
            with open(Path(sink), "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


# --------------------------------------------------------------------- trust
#: The hysteresis ladder, best to worst.  Workers start (implicitly) trusted.
TRUST_TIERS = ("trusted", "probation", "quarantined")

#: Label posteriors closer than this to 0.5 are too uncertain to count as
#: agreement evidence — early-stream labels stay out of the trust score until
#: the crowd has firmed them up.
TRUST_FIRM_MARGIN = 0.2

#: Minimum number of *other* workers' votes on a label cell before the cell
#: can serve as trust evidence — a leave-one-out majority over fewer voters
#: is too noisy to judge anyone by.
TRUST_MIN_VOTES = 3

#: Reference accuracy curve of an honest worker at worker-task distance ``d``:
#: ``floor + (peak - floor) * exp(-decay * d**2)``.  The *peak* is the
#: near-task accuracy any qualified profile reaches (every bell function
#: starts at 1; simulator noise keeps it just below that).  The *floor* is
#: exactly 0.5, which makes far rows contribute *zero* log-likelihood ratio
#: by construction: far from a task, a purely local honest profile and an
#: adversarial coin are statistically identical under the paper's
#: bell-function family, so far-task agreement must carry no evidence either
#: way — judging on it is what quarantines honest local workers.  All
#: discrimination therefore rests on near-task rows, which the frontend's
#: trust probes guarantee every worker keeps receiving.  The decay tracks
#: the worst-honest envelope — quality floor times the steepest member of
#: the distance-function family: the reference must be a hypothesis no
#: honest profile systematically underperforms at any distance, or
#: purely-local honest workers accumulate false negative evidence at
#: middling distances.  Steeper decays are safer still for honest workers
#: but discard the mid-distance rows that expose lucky coins.
TRUST_REFERENCE_PEAK = 0.94
TRUST_REFERENCE_FLOOR = 0.5
TRUST_REFERENCE_DECAY = 60.0


def trust_scores(
    tensor,
    firm_margin: float = TRUST_FIRM_MARGIN,
    min_votes: int = TRUST_MIN_VOTES,
    excluded=(),
) -> np.ndarray:
    """Posterior that each worker is honest, from leave-one-out agreement.

    A product-form likelihood-ratio test per worker: every label response is
    judged against the *other* workers' majority vote on the same label cell.
    Cells where the leave-one-out vote share is firm (at least ``min_votes``
    other voters, majority share further than ``firm_margin`` from 0.5)
    contribute the log-ratio of "answered like an honest worker" against
    "answered like an adversarial coin"; soft cells contribute nothing.  The
    honest hypothesis is the distance-decayed reference curve above —
    near-task rows are decisive (an honest worker of *any* profile matches
    the consensus there, a spammer flips coins everywhere), far-task rows
    carry mild evidence.  Summing log-ratios per worker and squashing
    through a sigmoid yields a posterior that separates honest workers
    (→ 1) from coin spammers and label inverters (→ 0) once a few dozen
    firm cells exist.

    Two deliberate non-choices.  The test does **not** reuse the EM's own
    estimates: the mean-form ``p_qualified`` M-step moves glacially near the
    endpoints, and the EM label posterior is weighted by the very
    reliabilities under test — a prolific spammer drags its tasks' posterior
    toward its own answers and then scores perfect "agreement" with labels
    it poisoned.  The leave-one-out majority is immune to both: a worker's
    own answers never vouch for themselves, and no reliability estimate
    amplifies anyone's vote.  (A distance- or log-odds-weighted consensus
    was tried and rejected: concentrating the vote in a handful of near
    voters raises its variance enough to quarantine unlucky honest workers,
    while the flat count keeps every firm cell backed by genuinely
    independent agreement.)

    Pure function of ``tensor`` (an
    :class:`~repro.core.em_kernel.AnswerTensor`) — crash-recovery replays
    recompute identical scores.  Returns one score per tensor worker row.
    """
    num_workers = tensor.num_workers
    if not tensor.num_answers:
        return np.full(num_workers, 0.5)
    responses = tensor.responses.astype(float)
    # Votes from ``excluded`` workers (the currently quarantined set) are
    # struck from the consensus *as voters* — a quarantined coin's answers
    # would keep randomising the very majority used to judge everyone else —
    # while the workers themselves are still scored against the remaining
    # consensus, which keeps their rehabilitation path open.
    voting = np.ones(num_workers)
    if len(excluded):
        excluded_set = set(excluded)
        for row, worker_id in enumerate(tensor.worker_ids):
            if worker_id in excluded_set:
                voting[row] = 0.0
    weight = voting[tensor.r_worker]
    num_cells = int(tensor.r_label.max()) + 1
    votes_one = np.bincount(
        tensor.r_label, weights=responses * weight, minlength=num_cells
    )
    votes_all = np.bincount(tensor.r_label, weights=weight, minlength=num_cells)
    others_all = votes_all[tensor.r_label] - weight
    others_one = votes_one[tensor.r_label] - responses * weight
    share = others_one / np.maximum(others_all, 1.0)
    firm = (others_all >= min_votes) & (np.abs(share - 0.5) >= firm_margin)
    agree = responses == (share > 0.5).astype(float)
    distances = tensor.distances[tensor.r_answer]
    reference = TRUST_REFERENCE_FLOOR + (
        TRUST_REFERENCE_PEAK - TRUST_REFERENCE_FLOOR
    ) * np.exp(-TRUST_REFERENCE_DECAY * distances * distances)
    llr = np.where(agree, np.log(reference / 0.5), np.log((1.0 - reference) / 0.5))
    log_odds = np.bincount(
        tensor.r_worker,
        weights=np.where(firm, llr, 0.0),
        minlength=num_workers,
    )
    # Clamp before exponentiating; |log_odds| > 60 is already saturated.
    return 1.0 / (1.0 + np.exp(-np.clip(log_odds, -60.0, 60.0)))


@dataclass
class ReputationConfig:
    """Policy of one :class:`ReputationTracker`.

    The three posterior thresholds define the target tier for a worker's
    current ``p_qualified`` estimate; the patience counters demand that many
    *consecutive* evaluations agree before a demotion or promotion actually
    happens (hysteresis), and ``min_answers`` refuses to judge a worker the
    model has barely seen — the footnote-3 cold-start prior is not evidence.
    """

    #: Posterior below which the target tier is ``quarantined``.
    quarantine_below: float = 0.15
    #: Posterior below which the target tier is ``probation``.
    probation_below: float = 0.35
    #: Posterior above which the target tier is ``trusted`` (re-admission).
    #: The gap between ``probation_below`` and ``readmit_above`` is the
    #: hysteresis dead band where a worker holds its current tier.
    readmit_above: float = 0.45
    #: Minimum accepted answers before a worker can be demoted or promoted.
    min_answers: int = 10
    #: Consecutive agreeing evaluations required to demote.
    demote_patience: int = 2
    #: Consecutive agreeing evaluations required to promote.
    promote_patience: int = 2
    #: Exponential smoothing weight on the *previous* smoothed posterior
    #: (0 judges each evaluation's raw score alone).  Trust scores are
    #: recomputed from scratch against the live consensus every evaluation,
    #: and single-evaluation spikes — a few thin vote cells flipping, the
    #: quarantine voter set changing — would otherwise reset patience
    #: streaks; smoothing makes the tracker judge the recent *trend*.
    posterior_smoothing: float = 0.5
    #: Weight applied to a quarantined worker's *historical* answers in full
    #: EM refreshes.  Deliberately nonzero: uniformly scaling one worker's
    #: rows barely moves that worker's own posterior (the ratio survives), so
    #: a falsely quarantined worker's estimate can recover and re-admit them,
    #: while their influence on task label posteriors is sharply reduced.
    quarantined_weight: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.quarantine_below <= self.probation_below <= 1.0:
            raise ValueError(
                f"need 0 <= quarantine_below <= probation_below <= 1, got "
                f"{self.quarantine_below} / {self.probation_below}"
            )
        if not self.probation_below <= self.readmit_above <= 1.0:
            raise ValueError(
                f"need probation_below <= readmit_above <= 1, got "
                f"{self.probation_below} / {self.readmit_above}"
            )
        if self.min_answers < 1:
            raise ValueError(f"min_answers must be >= 1, got {self.min_answers}")
        if self.demote_patience < 1 or self.promote_patience < 1:
            raise ValueError(
                f"patience counters must be >= 1, got demote="
                f"{self.demote_patience} promote={self.promote_patience}"
            )
        if not 0.0 <= self.posterior_smoothing < 1.0:
            raise ValueError(
                f"posterior_smoothing must lie in [0, 1), got "
                f"{self.posterior_smoothing}"
            )
        if not 0.0 <= self.quarantined_weight <= 1.0:
            raise ValueError(
                f"quarantined_weight must be in [0, 1], got "
                f"{self.quarantined_weight}"
            )


class ReputationTracker:
    """Walks workers through trust tiers from their accuracy posteriors.

    Fed ``p_qualified`` estimates after each model refresh via
    :meth:`evaluate`; maintains per-worker tier plus demote/promote streak
    counters implementing the hysteresis, and a monotonic :attr:`version`
    that bumps on any transition so consumers (the assignment frontend, the
    ingestor) can cheaply detect that the quarantined set changed.
    """

    def __init__(
        self,
        config: ReputationConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._config = config or ReputationConfig()
        self._metrics = metrics
        # Only non-trusted workers and active streaks are stored — a worker
        # absent from both dicts is trusted with clean streaks.
        self._tiers: dict[str, str] = {}
        self._demote_streak: dict[str, int] = {}
        self._promote_streak: dict[str, int] = {}
        # Smoothed posterior per worker (see ReputationConfig.posterior_smoothing).
        self._posteriors: dict[str, float] = {}
        self._version = 0
        self._transitions = 0

    # ------------------------------------------------------------------ state
    @property
    def config(self) -> ReputationConfig:
        return self._config

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every tier transition."""
        return self._version

    @property
    def transitions(self) -> int:
        """Total tier transitions ever applied."""
        return self._transitions

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        self._metrics = metrics

    def tier(self, worker_id: str) -> str:
        return self._tiers.get(worker_id, "trusted")

    def is_quarantined(self, worker_id: str) -> bool:
        return self._tiers.get(worker_id) == "quarantined"

    @property
    def quarantined_ids(self) -> frozenset[str]:
        return frozenset(
            worker_id
            for worker_id, tier in self._tiers.items()
            if tier == "quarantined"
        )

    def tier_counts(self) -> dict[str, int]:
        """Count of *tracked* workers per non-trusted tier."""
        counts = {tier: 0 for tier in TRUST_TIERS[1:]}
        for tier in self._tiers.values():
            counts[tier] = counts.get(tier, 0) + 1
        return counts

    def trust_weight(self, worker_id: str) -> float:
        """EM refresh weight for this worker's historical answers."""
        if self.is_quarantined(worker_id):
            return self._config.quarantined_weight
        return 1.0

    # ------------------------------------------------------------- evaluation
    def evaluate(
        self,
        worker_ids,
        p_qualified,
        answer_counts,
    ) -> int:
        """Re-judge every worker from fresh posteriors; return transitions.

        ``worker_ids`` and ``p_qualified`` align positionally (a parameter
        store's worker axis); ``answer_counts`` maps worker id → accepted
        answers, gating judgement until ``min_answers`` evidence exists.
        """
        config = self._config
        changed = 0
        for index, worker_id in enumerate(worker_ids):
            if int(answer_counts.get(worker_id, 0)) < config.min_answers:
                continue
            posterior = float(p_qualified[index])
            if not math.isfinite(posterior):
                continue
            smoothing = config.posterior_smoothing
            if smoothing > 0.0:
                previous = self._posteriors.get(worker_id)
                if previous is not None:
                    posterior = smoothing * previous + (1.0 - smoothing) * posterior
                self._posteriors[worker_id] = posterior
            current = self._tiers.get(worker_id, "trusted")
            target = self._target_tier(posterior, current)
            if target == current:
                self._demote_streak.pop(worker_id, None)
                self._promote_streak.pop(worker_id, None)
                continue
            demoting = TRUST_TIERS.index(target) > TRUST_TIERS.index(current)
            if demoting:
                streak = self._demote_streak.get(worker_id, 0) + 1
                self._promote_streak.pop(worker_id, None)
                if streak < config.demote_patience:
                    self._demote_streak[worker_id] = streak
                    continue
                self._demote_streak.pop(worker_id, None)
            else:
                streak = self._promote_streak.get(worker_id, 0) + 1
                self._demote_streak.pop(worker_id, None)
                if streak < config.promote_patience:
                    self._promote_streak[worker_id] = streak
                    continue
                self._promote_streak.pop(worker_id, None)
            self._apply_transition(worker_id, current, target)
            changed += 1
        return changed

    def _target_tier(self, posterior: float, current: str) -> str:
        config = self._config
        if posterior < config.quarantine_below:
            return "quarantined"
        if posterior < config.probation_below:
            return "probation"
        if posterior > config.readmit_above:
            return "trusted"
        # Dead band: every tier holds.  Quarantine in particular is only left
        # upward through ``readmit_above`` — a posterior drifting just over
        # ``quarantine_below`` is consensus jitter, not rehabilitation, and
        # re-admitting on it lets a caught spammer ping-pong back into the
        # assignment pool.
        return current

    def _apply_transition(self, worker_id: str, current: str, target: str) -> None:
        if target == "trusted":
            self._tiers.pop(worker_id, None)
        else:
            self._tiers[worker_id] = target
        self._version += 1
        self._transitions += 1
        if self._metrics is not None:
            self._metrics.counter(
                "reputation_transitions_total", to=target
            ).inc()

    # ---------------------------------------------------------- serialization
    def state_dict(self) -> dict:
        """JSON-serializable state for checkpointing (bit-equal restore)."""
        return {
            "tiers": dict(self._tiers),
            "demote_streak": dict(self._demote_streak),
            "promote_streak": dict(self._promote_streak),
            "posteriors": dict(self._posteriors),
            "version": self._version,
            "transitions": self._transitions,
        }

    def restore_state(self, state: dict) -> None:
        self._tiers = {str(k): str(v) for k, v in state.get("tiers", {}).items()}
        self._demote_streak = {
            str(k): int(v) for k, v in state.get("demote_streak", {}).items()
        }
        self._promote_streak = {
            str(k): int(v) for k, v in state.get("promote_streak", {}).items()
        }
        self._posteriors = {
            str(k): float(v) for k, v in state.get("posteriors", {}).items()
        }
        self._version = int(state.get("version", 0))
        self._transitions = int(state.get("transitions", 0))
