"""Incremental EM updates between full re-runs (Section III-D of the paper).

Running full EM after every single answer submission would be wasteful, so the
paper refreshes the model in two tiers:

* a **full EM run** every ``full_refresh_interval`` submissions, and
* an **incremental update** (Neal & Hinton style partial EM) after each batch of
  new answers in between: only the parameters of the workers who submitted the
  answers and of the tasks they touched are re-estimated, using the current
  values of everything else.

:class:`IncrementalUpdater` implements **both** tiers on top of a
:class:`~repro.core.inference.LocationAwareInference` instance, and the whole
update path is O(changed work), never O(stream history):

* The updater maintains a **live, incrementally grown**
  :class:`~repro.core.em_kernel.AnswerTensor` spanning the whole answer log
  plus a row-aligned live :class:`~repro.core.params.ArrayParameterStore`.
  Each micro-batch (:meth:`IncrementalUpdater.apply`) appends its new answer
  rows (registering workers and tasks unseen at startup on first sight — the
  open-world arrival path) and runs localized sweeps directly against the
  live state: with ``early_exit_threshold == 0`` exact
  :func:`repro.core.em_kernel.localized_sweeps` over each batch's whole
  neighbourhood (the path the per-record oracle in
  ``tests/oracles/incremental.py`` pins at 1e-9), with a positive threshold
  :func:`repro.core.em_kernel.cached_sweeps` over a
  :class:`~repro.core.em_kernel.SufficientStatCache`, where entities whose
  parameters stop moving drop out of the remaining sweeps.
* The periodic **full refresh** (:meth:`IncrementalUpdater.full_refresh`) runs
  EM *directly against the live tensor* via
  :meth:`~repro.core.inference.LocationAwareInference.fit_from_tensor` — no
  ``AnswerSet`` re-flatten, no tensor rebuild, and on warm starts not even a
  dict→array gather (the live store is handed in as the initial estimate).
  The fit's final store is adopted back as the live store, closing the loop
  without ever materialising per-entity containers on the hot path.  The
  answer log is therefore only needed by callers that re-fit the inference
  model behind the updater's back.
* Every publish is one full copy: :meth:`IncrementalUpdater.publish_store`
  returns a fresh store of the live rows followed by the carried-over
  entities of a restored snapshot, which ride along on every publish until
  the stream answers them.  The carried rows are built once per change of
  the carried set and appended by array concatenation, so a publish costs
  O(rows) C-level copying and no per-entity Python.

The estimate the updater hands out — :meth:`IncrementalUpdater.apply`'s
return value, installed as the inference model's
:attr:`~repro.core.inference.LocationAwareInference.parameters` — is the live
store itself, not a copy: every micro-batch changes it in place.  A caller
that keeps one version copies it; the serving snapshots publish frozen
copies, and the pipelined refresh fits a copy taken at launch
(:meth:`IncrementalUpdater.capture_refresh_state`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

from repro.core import em_kernel
from repro.core.inference import InferenceResult, LocationAwareInference
from repro.core.params import ArrayParameterStore
from repro.data.models import Answer, AnswerSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

#: Batches an entity the cached sweeps reported settled sits out of the
#: M-step (its statistics keep folding; only the re-estimate is deferred).
SETTLE_DEFER_BATCHES = 2


@dataclass
class IncrementalUpdater:
    """Applies localized EM updates for freshly submitted answers.

    Parameters
    ----------
    inference:
        The underlying inference model (provides the EM configuration, the
        distance model and the task/worker registries).
    full_refresh_interval:
        Number of answer submissions after which the caller should run full EM
        again (the paper suggests every 100 submissions).
    local_iterations:
        How many localized E/M sweeps to run per incremental update; one is the
        classic incremental-EM step, a couple more tightens the estimate at
        negligible cost because only the affected entities are touched.
    early_exit_threshold:
        Per-entity convergence early-exit for the localized sweeps.  ``0.0``
        (the default) runs exactly ``local_iterations`` sweeps over each
        batch's whole neighbourhood.  A positive value runs the sweeps off a
        :class:`~repro.core.em_kernel.SufficientStatCache` instead — each
        sweep folds only the batch's own label rows into cached per-entity
        totals, making :meth:`apply` O(batch) rather than O(entity-history) —
        and drops affected entities whose parameters all moved at most this
        much from the remaining sweeps; a dropped entity then skips the next
        :data:`SETTLE_DEFER_BATCHES` M-step writes it would receive.  The
        serving layer enables it with the EM convergence threshold,
        accepting drift no larger than what the convergence criterion
        already tolerates (and undone by the periodic full refreshes).
    """

    inference: LocationAwareInference
    full_refresh_interval: int = 100
    local_iterations: int = 2
    early_exit_threshold: float = 0.0
    #: Exponential forgetting factor for the answer history.  Every applied
    #: micro-batch advances one *decay epoch*; an answer whose batch is ``k``
    #: epochs old contributes ``stat_decay ** k`` of its weight to both the
    #: sufficient-stat cache (via :meth:`~repro.core.em_kernel.SufficientStatCache.decay_step`)
    #: and the periodic full refreshes (via weighted
    #: :func:`~repro.core.em_kernel.em_step`).  ``1.0`` (the default)
    #: disables decay and keeps every path bit-equal to the undecayed
    #: updater.  The epoch count is a pure function of the applied batch
    #: stream, so crash-recovery replays age answers identically.
    stat_decay: float = 1.0
    #: Optional per-worker trust weight provider (``worker_id -> weight``),
    #: consulted when building full-refresh weights so distrusted workers'
    #: historical answers are down-weighted.  Returning ``1.0`` for every
    #: worker keeps the refresh on the exact unweighted path.
    trust_weight_fn: "Callable[[str], float] | None" = None
    #: Admission prior for workers first seen on the live stream.  ``None``
    #: keeps the footnote-3 trusted seed (``p_qualified = 1.0``) — the
    #: historical, bit-identical behaviour — but that seed is numerically
    #: *absorbing* under the E-step's probability clip: a worker admitted at
    #: exactly 1.0 can never be demoted by warm EM, no matter how wrong its
    #: answers are.  Trust-aware serving therefore sets a learnable prior
    #: (e.g. the cold-start ``initial_p_qualified``) so the posterior can
    #: move in both directions and the reputation tracker has a real signal.
    #: The assigners' own footnote-3 optimism (new workers prioritised) is
    #: unaffected — this knob only changes the *estimation* seed.
    admission_p_qualified: float | None = None
    #: Optional registry the EM work accounting (sweeps run, entities settled
    #: by the early exit, refresh iterations/convergence) is reported into.
    metrics: "MetricsRegistry | None" = None
    answers_since_full_refresh: int = field(default=0, init=False)
    #: AnswerSet → tensor flattens performed so far (0 on a pure live-tensor
    #: stream; the serving benchmark pins it there).
    tensor_rebuilds: int = field(default=0, init=False)
    # Live incremental state: the growing tensor and the row-aligned store.
    # The store is in sync while it *is* the inference model's estimate; an
    # estimate installed from outside (e.g. an external re-fit) triggers a
    # re-gather.
    _tensor: em_kernel.AnswerTensor | None = field(
        default=None, init=False, repr=False
    )
    _store: ArrayParameterStore | None = field(default=None, init=False, repr=False)
    # Carried-over entities the live tensor does not cover (restored
    # snapshots), as ``id -> (store, row)``: they ride along on every
    # publish until the stream answers them.  ``_carried_tail`` holds their
    # rows as one store, built on the first publish after the carried set
    # changed (``None`` until then).
    _carried_workers: dict[str, tuple[ArrayParameterStore, int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _carried_tasks: dict[str, tuple[ArrayParameterStore, int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _carried_tail: ArrayParameterStore | None = field(
        default=None, init=False, repr=False
    )
    # Figure 10's first delta of the next warm fit spans the estimate the
    # fit starts from.  Beyond the live store's rows, that estimate holds the
    # carried entities taken from the estimate last synced to
    # (``_held_source``, until a fit replaces it) and lacks the tasks it has
    # not estimated yet: prior rows of a re-gather or of a refresh's
    # triggering batch.
    _held_source: ArrayParameterStore | None = field(
        default=None, init=False, repr=False
    )
    _unheld_tasks: set[str] = field(default_factory=set, init=False, repr=False)
    # Sufficient-statistic state: the cache bound to the current live
    # tensor/store pair, and per-store-row defer credits of settled entities.
    _stat_cache: "em_kernel.SufficientStatCache | None" = field(
        default=None, init=False, repr=False
    )
    _worker_defer: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    _task_defer: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    # Decay bookkeeping: epochs elapsed (one per applied non-empty batch when
    # stat_decay < 1) and the capacity-doubled per-answer-row arrival stamps.
    _decay_epoch: int = field(default=0, init=False)
    _arrival_epochs: np.ndarray | None = field(default=None, init=False, repr=False)
    _arrival_len: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.full_refresh_interval <= 0:
            raise ValueError(
                f"full_refresh_interval must be positive, got {self.full_refresh_interval}"
            )
        if self.admission_p_qualified is not None and not (
            0.0 < self.admission_p_qualified < 1.0
        ):
            raise ValueError(
                "admission_p_qualified must lie strictly inside (0, 1), got "
                f"{self.admission_p_qualified}"
            )
        if self.local_iterations <= 0:
            raise ValueError(
                f"local_iterations must be positive, got {self.local_iterations}"
            )
        if self.early_exit_threshold < 0:
            raise ValueError(
                f"early_exit_threshold must be non-negative, "
                f"got {self.early_exit_threshold}"
            )
        if not 0.0 < self.stat_decay <= 1.0:
            raise ValueError(
                f"stat_decay must be in (0, 1], got {self.stat_decay}"
            )

    @property
    def full_refresh_due(self) -> bool:
        """Whether enough answers have accumulated to warrant a full EM re-run."""
        return self.answers_since_full_refresh >= self.full_refresh_interval

    def notify_full_refresh(self) -> None:
        """Reset the counter after the caller has run full EM."""
        self.answers_since_full_refresh = 0

    def apply(
        self,
        answers: AnswerSet | None,
        new_answers: list[Answer],
    ) -> ArrayParameterStore:
        """Update parameters for the workers/tasks touched by ``new_answers``.

        The micro-batch is appended to the incrementally maintained tensor
        (admitting first-seen workers/tasks into the row-aligned live store)
        and the localized sweeps run in place against the live state —
        unaffected entities keep their current estimates.  Nothing is rebuilt
        per batch.  ``answers``, when provided, must already contain
        ``new_answers``; it is only consulted to (re)build the live tensor
        when the updater joins an existing stream cold or the log diverged
        from the tensor (an external fit), so a log-free caller may pass
        ``None`` and the live tensor is trusted outright.  An estimate other
        than the live store — a restored snapshot, or an external fit's —
        costs one O(entities) re-gather.  Returns the live store, also
        installed as the inference model's estimate; it changes in place with
        every later batch, so copy it to keep this version.
        """
        params = self.inference.parameters
        if not new_answers:
            return params

        self.answers_since_full_refresh += len(new_answers)

        affected_workers = {answer.worker_id for answer in new_answers}
        affected_tasks = {answer.task_id for answer in new_answers}
        inference = self.inference
        chain_intact = self._tensor is not None and params is self._store
        if self._tensor is None:
            # ``answers`` (when given) already contains ``new_answers``; the
            # rebuilt tensor covers them, and the append below degenerates to
            # in-place response rewrites of their rows.
            self._rebuild_tensor(answers)
        self._ensure_store(params)
        tensor = self._tensor
        store = self._store
        if self.stat_decay < 1.0:
            # One epoch per applied batch, bumped before the batch's rows are
            # stamped so they enter at age 0 — a pure function of the applied
            # batch count, hence identical on crash-recovery replays.
            self._decay_epoch += 1
        result = tensor.append_answers(
            new_answers,
            inference._tasks,
            inference._workers,
            inference.distance_model,
            store.function_set,
            pair_distance_fn=inference._engine_pair_distances(),
        )
        self._stamp_arrivals(tensor.num_answers - self._arrival_len)
        self._admit_new_entities(result)
        if self._recover_if_diverged(answers, params, chain_intact):
            # The rebuild covers the batch, so no second append is needed.
            tensor = self._tensor
            store = self._store

        affected_w = np.asarray(
            sorted(tensor.worker_row(w) for w in affected_workers), dtype=np.intp
        )
        affected_t = np.asarray(
            sorted(tensor.task_row(t) for t in affected_tasks), dtype=np.intp
        )
        if self.early_exit_threshold > 0.0:
            cache = self._stat_cache
            if cache is None or not cache.in_sync_with(tensor, store):
                # One full E-step pass seeds the cache; every full refresh
                # replaces the store and so pays this once per interval.
                # With decay, the seed weights each row by its current age so
                # the rebuilt totals match the aged totals a surviving cache
                # would carry.
                cache = em_kernel.SufficientStatCache(
                    tensor,
                    store,
                    decay=self.stat_decay,
                    row_ages=(
                        self._answer_ages() if self.stat_decay < 1.0 else None
                    ),
                )
                self._stat_cache = cache
                self._worker_defer.clear()
                self._task_defer.clear()
                if self.metrics is not None:
                    self.metrics.counter("em_statcache_rebuilds_total").inc()
            else:
                if self.stat_decay < 1.0:
                    cache.decay_step()
                cache.sync_growth()
            est_w, est_t = self._defer_filter(affected_w, affected_t)
            label_slots = em_kernel.label_slots_of_tasks(store.label_offsets, est_t)
            sweep_report = em_kernel.cached_sweeps(
                cache,
                np.unique(result.rows),
                est_w,
                est_t,
                label_slots,
                iterations=self.local_iterations,
                early_exit_threshold=self.early_exit_threshold,
            )
            self._note_settled(sweep_report)
        else:
            est_w, est_t = affected_w, affected_t
            label_slots = em_kernel.label_slots_of_tasks(store.label_offsets, est_t)
            sweep_report = em_kernel.localized_sweeps(
                tensor,
                store,
                em_kernel.gather_affected_rows(tensor, est_w, est_t),
                est_w,
                est_t,
                label_slots,
                iterations=self.local_iterations,
            )
        if self.metrics is not None:
            self.metrics.counter("em_localized_sweeps_total").inc(
                sweep_report.sweeps_run
            )
            self.metrics.counter("em_entities_settled_total", kind="worker").inc(
                sweep_report.workers_settled
            )
            self.metrics.counter("em_entities_settled_total", kind="task").inc(
                sweep_report.tasks_settled
            )

        if self._unheld_tasks:
            task_ids = tensor.task_ids
            self._unheld_tasks.difference_update(task_ids[int(j)] for j in est_t)

        # Publish the refreshed estimate on the inference model.
        inference._parameters = store
        inference._fitted = True
        return store

    def full_refresh(
        self,
        new_answers: list[Answer],
        answers: AnswerSet | None = None,
        warm: bool = True,
    ) -> ArrayParameterStore:
        """Run the periodic full EM re-fit against the live tensor.

        ``new_answers`` is the micro-batch that triggered the refresh (may be
        empty for a forced re-fit); it is appended to the live tensor first,
        then :meth:`~repro.core.inference.LocationAwareInference.fit_from_tensor`
        runs EM with zero ``AnswerSet`` → tensor flattens.
        ``warm=True`` starts from the current estimate (the live
        row-aligned store, read in place); ``warm=False`` is a cold start whose
        result is identical to an offline fit on the same answer log — the
        live tensor is maintained bit-equal to a from-scratch flatten.
        ``answers``, when provided, must already contain ``new_answers`` and
        is only consulted to recover from a log/tensor divergence (an
        external fit bypassed this updater).
        Resets the refresh counter.  Returns the fitted store, which becomes
        the live store.
        """
        inference = self.inference
        params = inference.parameters if inference.is_fitted else None
        warm = warm and params is not None
        chain_intact = self._tensor is not None and params is self._store
        if self._tensor is None:
            self._rebuild_tensor(answers)
        if warm:
            self._ensure_store(params)
        else:
            # A cold re-fit ignores the current estimate entirely; the
            # fitted store below replaces whatever live store existed.
            self._store = None
        if new_answers:
            if self.stat_decay < 1.0:
                self._decay_epoch += 1
            result = self._tensor.append_answers(
                new_answers,
                inference._tasks,
                inference._workers,
                inference.distance_model,
                inference.config.function_set,
                pair_distance_fn=inference._engine_pair_distances(),
            )
            self._stamp_arrivals(self._tensor.num_answers - self._arrival_len)
            if self._store is not None:
                self._admit_new_entities(result)
        self._recover_if_diverged(answers, params if warm else None, chain_intact)
        inference.fit_from_tensor(
            self._tensor,
            initial=self._store if warm else None,
            answer_weights=self._refresh_weights(),
            first_delta_floor=self._first_delta_floor() if warm else 0.0,
        )
        # Adopt the fit's final store as the live store: it is row-aligned
        # with the tensor by construction and freshly allocated by the EM
        # loop, so the updater owns it outright.
        self._store = inference.last_result.store
        self._adopted_fit(inference.last_result)
        self.notify_full_refresh()
        return self._store

    # ------------------------------------------------------ pipelined refresh
    def capture_refresh_state(
        self, warm: bool = True
    ) -> tuple[
        em_kernel.AnswerTensor,
        ArrayParameterStore | None,
        np.ndarray | None,
        float,
    ]:
        """Frozen copies of the live state for an off-thread full fit.

        Returns ``(tensor, initial, answer_weights, first_delta_floor)``
        ready to hand to
        :meth:`~repro.core.inference.LocationAwareInference.run_em_detached`:
        a :meth:`~repro.core.em_kernel.AnswerTensor.snapshot` of the live
        tensor and, on warm starts, a copy of the live store (copied because
        the ingest thread's localized sweeps keep mutating the original while
        the background fit runs) — or the estimate installed from outside,
        when the live store is not the model's estimate.
        ``answer_weights`` is the decay × trust weighting of the snapshot's
        rows frozen at capture time (``None`` on the exact unweighted path) —
        batches applied mid-fit advance the live decay epoch without
        disturbing the captured fit.  The live state itself is not touched —
        batches keep applying against it.
        """
        inference = self.inference
        if self._tensor is None:
            from repro.serving import LiveStateError

            raise LiveStateError(
                "cannot capture refresh state before the live tensor exists; "
                "apply at least one batch (or run a blocking full_refresh) first"
            )
        params = inference.parameters if warm and inference.is_fitted else None
        tensor = self._tensor.snapshot()
        floor = 0.0
        if params is not None and params is self._store:
            params, floor = self._store.copy(), self._first_delta_floor()
        return tensor, params, self._refresh_weights(), floor

    def integrate_refresh_result(
        self,
        result: "object",
        reconcile_workers: set[str],
        reconcile_tasks: set[str],
    ) -> ArrayParameterStore:
        """Adopt a detached fit's store, reconciling answers that arrived mid-fit.

        ``result`` is the :class:`~repro.core.inference.InferenceResult` of a
        :meth:`~repro.core.inference.LocationAwareInference.run_em_detached`
        call on a tensor captured by :meth:`capture_refresh_state`;
        ``reconcile_workers`` / ``reconcile_tasks`` are the entities touched
        by every batch applied since that capture.  The fitted store is grown
        to the live universe (entities admitted mid-fit copy their current
        live estimates), the mid-fit answers are replayed as localized sweeps
        against the live tensor, and the reconciled result is installed on the
        inference model, exactly like a blocking :meth:`full_refresh`.  The
        refresh counter is **not** reset here: the caller reset it at launch
        so the refresh schedule is a pure function of applied-answer counts
        (crash-recovery replay then re-launches at the same batch
        boundaries).  Returns the adopted store, the new live store.
        """
        inference = self.inference
        fitted: ArrayParameterStore = result.store
        live = self._tensor
        old_store = self._store
        # Entities admitted after the snapshot was cut: the fitted store must
        # span the live universe again before it can serve.  Copy their
        # current live estimates (carryover-seeded, locally swept) when the
        # old live store has them; fall back to the footnote-3 priors.
        for i in range(fitted.num_workers, live.num_workers):
            worker_id = live.worker_ids[i]
            if old_store is not None and i < old_store.num_workers:
                fitted.add_worker(
                    worker_id,
                    float(old_store.p_qualified[i]),
                    old_store.distance_weights[i].copy(),
                )
            elif self.admission_p_qualified is not None:
                fitted.add_worker(worker_id, p_qualified=self.admission_p_qualified)
            else:
                fitted.add_worker(worker_id)
        for j in range(fitted.num_tasks, live.num_tasks):
            task_id = live.task_ids[j]
            num_labels = inference._tasks[task_id].num_labels
            if old_store is not None and j < old_store.num_tasks:
                fitted.add_task(
                    task_id,
                    num_labels,
                    old_store.label_probs[old_store.task_label_slice(j)].copy(),
                    old_store.influence_weights[j].copy(),
                )
            else:
                fitted.add_task(task_id, num_labels)
        # Replay the mid-fit neighbourhood: the same localized sweeps those
        # batches ran against the old store, now against the fresh fit.
        if reconcile_workers or reconcile_tasks:
            affected_w = np.asarray(
                sorted(live.worker_row(w) for w in reconcile_workers),
                dtype=np.intp,
            )
            affected_t = np.asarray(
                sorted(live.task_row(t) for t in reconcile_tasks), dtype=np.intp
            )
            label_slots = em_kernel.label_slots_of_tasks(
                fitted.label_offsets, affected_t
            )
            rows = em_kernel.gather_affected_rows(live, affected_w, affected_t)
            em_kernel.localized_sweeps(
                live,
                fitted,
                rows,
                affected_w,
                affected_t,
                label_slots,
                iterations=self.local_iterations,
                early_exit_threshold=self.early_exit_threshold,
            )
        inference.adopt_result(result)
        self._store = fitted
        self._adopted_fit(result)
        return fitted

    def _adopted_fit(self, result: InferenceResult) -> None:
        """Bookkeeping once a full fit's store became the live store.

        The fit's estimate holds exactly the tensor's entities, so no carried
        entity is part of it and every task is estimated.
        """
        self._held_source = None
        self._unheld_tasks.clear()
        self._prune_carryover()
        self._reset_sufficient_stats()
        if self.metrics is not None:
            self.metrics.histogram("em_refresh_iterations").observe(
                float(result.iterations)
            )
            if result.convergence_trace:
                self.metrics.histogram("em_refresh_final_delta").observe(
                    float(result.convergence_trace[-1])
                )

    def _first_delta_floor(self) -> float:
        """Figure 10's first-delta terms the live store's rows do not show.

        A task the estimate holds outside the tensor, or a tensor task it
        has not estimated yet, reads 1.0; a carried worker it holds is
        compared with the footnote-3 prior.
        """
        held = self._held_source
        if held is None:
            return 1.0 if self._unheld_tasks else 0.0
        if self._unheld_tasks or any(s is held for s, _ in self._carried_tasks.values()):
            return 1.0
        rows = [row for source, row in self._carried_workers.values() if source is held]
        return em_kernel.prior_distance(held, rows)

    def _reset_sufficient_stats(self) -> None:
        """Drop the cache and defer credits (the store they index was replaced)."""
        self._stat_cache = None
        self._worker_defer.clear()
        self._task_defer.clear()

    def reset_sufficient_stats(self) -> None:
        """Drop the sufficient-stat cache and settle-defer credits.

        The cache is path-dependent (each row's contribution is frozen at the
        parameters current when it was last folded), so a run replayed from a
        checkpoint cannot reproduce it.  The ingest layer therefore calls
        this at every checkpoint boundary: both the original run and any
        replayed run re-seed the cache at the same applied-answer counts,
        keeping recovery bit-equal.  The next batch pays one full E-step to
        rebuild.
        """
        self._reset_sufficient_stats()

    # ----------------------------------------------------------- decayed stats
    @property
    def decay_epoch(self) -> int:
        """Decay epochs elapsed so far (one per applied non-empty batch)."""
        return self._decay_epoch

    def _stamp_arrivals(self, count: int) -> None:
        """Stamp ``count`` freshly appended answer rows at the current epoch.

        Re-answers rewrite their tensor row in place, so ``count`` (the
        tensor's row growth) may be smaller than the batch; rewritten rows
        keep their original arrival epoch — the rewritten response simply
        inherits the age of the answer it replaced.
        """
        if count <= 0:
            return
        needed = self._arrival_len + count
        buffer = self._arrival_epochs
        if buffer is None or needed > buffer.size:
            capacity = max(needed, 2 * (buffer.size if buffer is not None else 0), 64)
            grown = np.zeros(capacity, dtype=np.int64)
            if buffer is not None and self._arrival_len:
                grown[: self._arrival_len] = buffer[: self._arrival_len]
            self._arrival_epochs = grown
            buffer = grown
        buffer[self._arrival_len : needed] = self._decay_epoch
        self._arrival_len = needed

    def _reset_arrival_epochs(self) -> None:
        """Re-stamp the whole tensor at the current epoch (rebuilds lose ages)."""
        self._arrival_len = 0
        if self._tensor is not None:
            self._stamp_arrivals(self._tensor.num_answers)

    def _answer_ages(self) -> np.ndarray:
        """Per-answer-row ages in decay epochs, aligned with the live tensor."""
        if self._tensor is None or self._arrival_epochs is None:
            return np.zeros(0, dtype=np.int64)
        return self._decay_epoch - self._arrival_epochs[: self._tensor.num_answers]

    def _refresh_weights(self) -> np.ndarray | None:
        """Per-answer weights for a full refresh, or ``None`` for the exact path.

        The product of the decay aging (``stat_decay ** age``) and the
        per-worker trust weights.  ``None`` whenever every weight is exactly
        1.0, which keeps the refresh on the bit-identical unweighted path.
        """
        tensor = self._tensor
        if tensor is None:
            return None
        weights: np.ndarray | None = None
        if self.stat_decay < 1.0:
            ages = self._answer_ages().astype(np.float64)
            weights = np.power(self.stat_decay, ages)
        if self.trust_weight_fn is not None and tensor.num_workers:
            per_worker = np.fromiter(
                (float(self.trust_weight_fn(w)) for w in tensor.worker_ids),
                dtype=np.float64,
                count=tensor.num_workers,
            )
            if np.any(per_worker != 1.0):
                trust = per_worker[tensor.a_worker]
                weights = trust if weights is None else weights * trust
        return weights

    def export_decay_state(self) -> tuple[int, np.ndarray]:
        """The decay epoch and per-answer arrival epochs (checkpoint form).

        The arrival stamps are row-aligned with the live tensor's
        :meth:`~repro.core.em_kernel.AnswerTensor.columns`, so a checkpoint
        carrying both restores the exact aging the crashed run had via
        :meth:`restore_decay_state`.
        """
        count = self._tensor.num_answers if self._tensor is not None else 0
        if self._arrival_epochs is None or count == 0:
            arrivals = np.zeros(count, dtype=np.int64)
        else:
            arrivals = self._arrival_epochs[:count].copy()
        return self._decay_epoch, arrivals

    def restore_decay_state(
        self, decay_epoch: int, arrival_epochs: np.ndarray
    ) -> None:
        """Restore checkpointed aging over an already-rebuilt live tensor.

        Call after :meth:`restore_live_state`: ``arrival_epochs`` must be
        row-aligned with the restored tensor (the :meth:`export_decay_state`
        contract).
        """
        if self._tensor is None:
            raise RuntimeError(
                "restore the live tensor before restoring decay state"
            )
        arrivals = np.asarray(arrival_epochs, dtype=np.int64)
        if arrivals.shape != (self._tensor.num_answers,):
            raise ValueError(
                f"arrival_epochs has shape {arrivals.shape}, expected "
                f"({self._tensor.num_answers},) to match the live tensor"
            )
        self._decay_epoch = int(decay_epoch)
        self._arrival_len = 0
        self._stamp_arrivals(arrivals.size)
        if arrivals.size:
            self._arrival_epochs[: arrivals.size] = arrivals

    # -------------------------------------------------------------- live state
    @property
    def live_tensor(self) -> em_kernel.AnswerTensor | None:
        """The incrementally maintained tensor (``None`` before the first sync)."""
        return self._tensor

    @property
    def live_store(self) -> ArrayParameterStore | None:
        """The live row-aligned parameter store (``None`` before the first sync)."""
        return self._store

    def _rebuild_tensor(self, answers: AnswerSet | None) -> None:
        """(Re)flatten the log into a fresh live tensor (or start empty).

        Runs once at cold start (O(0) when the updater starts with the
        stream) and once per external estate change that left the tensor
        stale — never on the steady-state serving path, which only appends.
        """
        if (
            answers is None
            and self.inference.is_fitted
            and not (self._carried_workers or self._carried_tasks)
        ):
            # The model carries an estimate this updater never saw, and there
            # is no log to rebuild from: silently fitting on the micro-batch
            # alone would discard that history.  (A snapshot restore is the
            # legitimate log-less case; prime_carryover marks it.)
            from repro.serving import LiveStateError

            raise LiveStateError(
                "cannot rebuild the live answer tensor: the inference model "
                "was fitted outside this updater and no answer log was "
                "provided, so the estimate's history is unrecoverable here. "
                "Pass the full `answers` log to this call, or — after a "
                "snapshot restore — call prime_carryover(parameters) so the "
                "restored entities ride along without a log."
            )
        source = answers if answers is not None else AnswerSet()
        if len(source):
            self.tensor_rebuilds += 1
        tensor = self.inference._build_tensor(source)
        tensor.enable_row_tracking()
        self._tensor = tensor
        self._store = None
        self._reset_sufficient_stats()
        # A reflatten cannot recover per-row ages (the log carries no epochs),
        # so the rebuilt history restarts at the current epoch: every answer
        # is weighted 1.0 until batches age it again.  The checkpoint path
        # restores exact ages afterwards via restore_decay_state.
        self._reset_arrival_epochs()

    def restore_live_state(
        self,
        columns: em_kernel.AnswerColumns,
        answers_since_full_refresh: int = 0,
    ) -> None:
        """Rebuild the live tensor/store from a checkpoint's answer columns.

        The crash-recovery path: ``columns`` are the live tensor's
        :meth:`~repro.core.em_kernel.AnswerTensor.columns` as a checkpoint
        persisted them, and the inference model has already been
        warm-started to the checkpointed estimate with every checkpointed
        entity registered.  :meth:`~repro.core.em_kernel.AnswerTensor.from_columns`
        rebuilds the crashed run's tensor array for array (same id tables,
        same row order), the live store is force-gathered from the current
        estimate over that universe, and the refresh counter resumes where
        the crashed run left it.  Unlike :meth:`_rebuild_tensor` this does
        **not** count toward :attr:`tensor_rebuilds` — recovery is a
        restart, not a serving-path log flatten (the throughput gate pins
        steady-state flattens at zero).
        """
        tensor = self.inference._tensor_from_columns(columns)
        tensor.enable_row_tracking()
        self._tensor = tensor
        self._store = None
        self._reset_sufficient_stats()
        self._reset_arrival_epochs()
        self._ensure_store(self.inference.parameters, force=True)
        self.answers_since_full_refresh = answers_since_full_refresh

    def _ensure_store(self, params: ArrayParameterStore, force: bool = False) -> None:
        """Gather ``params`` into a store row-aligned with the live tensor.

        Skipped when ``params`` already is the live store; the gather is
        O(entities), never O(answers) — the tensor itself does not depend on
        the estimate and is left untouched.  The gathered store becomes the
        inference model's estimate.
        """
        if not force and params is self._store:
            return
        tensor = self._tensor
        alignment = params.alignment(tensor.worker_ids, tensor.task_ids, tensor.num_labels)
        store = params.gathered(alignment)
        if self.admission_p_qualified is not None:
            # Workers the estimate has never judged took the footnote-3 seed
            # in the gather; replace it with the learnable admission prior.
            judged = np.zeros(tensor.num_workers, dtype=bool)
            judged[alignment.workers] = True
            store.p_qualified[~judged] = self.admission_p_qualified
        estimated = np.zeros(tensor.num_tasks, dtype=bool)
        estimated[alignment.tasks] = True
        task_ids = tensor.task_ids
        self._unheld_tasks = {task_ids[j] for j in np.flatnonzero(~estimated)}
        self._store = store
        self._refresh_carryover(params)
        self.inference._parameters = store

    def _refresh_carryover(self, params: ArrayParameterStore) -> None:
        """Reconcile the carryover set against the tensor and ``params``.

        Sticky carryover: entities the estimate (or an earlier restore) knows
        but the log does not cover keep riding along on publishes; entities
        now present in the tensor are owned by the live store instead.
        """
        tensor = self._tensor
        seen_workers = set(tensor.worker_ids) if tensor is not None else ()
        seen_tasks = set(tensor.task_ids) if tensor is not None else ()
        self._prune_carryover()
        for row, worker_id in enumerate(params.worker_ids):
            if worker_id not in seen_workers:
                self._carried_workers[worker_id] = (params, row)
        for row, task_id in enumerate(params.task_ids):
            if task_id not in seen_tasks:
                self._carried_tasks[task_id] = (params, row)
        self._held_source = params
        self._carried_tail = None

    def _prune_carryover(self) -> None:
        """Drop carried-over entities the live tensor has since acquired."""
        if self._tensor is None or not (self._carried_workers or self._carried_tasks):
            return
        seen_workers = set(self._tensor.worker_ids)
        seen_tasks = set(self._tensor.task_ids)
        for worker_id in seen_workers.intersection(self._carried_workers):
            del self._carried_workers[worker_id]
            self._carried_tail = None
        for task_id in seen_tasks.intersection(self._carried_tasks):
            del self._carried_tasks[task_id]
            self._carried_tail = None

    def _recover_if_diverged(
        self,
        answers: AnswerSet | None,
        params: ArrayParameterStore | None,
        chain_intact: bool,
    ) -> bool:
        """Rebuild the live state if the log diverged from the tensor.

        The estimate chain being intact (``params`` is exactly what this
        updater last produced or synced to) means the live tensor saw every
        answer the estimate consumed, so it is trusted outright — a shared
        answer log may legitimately run *ahead* of the micro-batch buffer
        (answers collected but not yet submitted) without being a
        divergence.  Only a chain broken by an external fit combined with a
        count mismatch means the tensor missed answers; then the tensor is
        reflattened from ``answers`` (which, per the callers' contracts,
        already covers any in-flight batch) and, when ``params`` is given,
        the store is force re-gathered over the rebuilt universe.
        """
        if (
            chain_intact
            or answers is None
            or len(answers) == self._tensor.num_answers
        ):
            return False
        self._rebuild_tensor(answers)
        if params is not None:
            self._ensure_store(params, force=True)
        return True

    def _admit_new_entities(self, result: em_kernel.TensorAppendResult) -> None:
        """Grow the live store in lock-step with entities the tensor admitted.

        First-seen entities carried over from a restored snapshot resume from
        their carried values; genuinely unseen ones receive the footnote-3
        trusted priors (the values :meth:`ArrayParameterStore.worker` /
        :meth:`ArrayParameterStore.task` report for unknown ids).  Admitting
        a carried entity drops it from the carried rows.
        """
        if not result.new_worker_ids and not result.new_task_ids:
            return
        store = self._store
        for worker_id in result.new_worker_ids:
            carried = self._carried_workers.pop(worker_id, None)
            if carried is not None:
                self._carried_tail = None
                source, row = carried
                store.add_worker(
                    worker_id, source.p_qualified[row], source.distance_weights[row]
                )
            elif self.admission_p_qualified is not None:
                store.add_worker(worker_id, p_qualified=self.admission_p_qualified)
            else:
                store.add_worker(worker_id)
        for task_id in result.new_task_ids:
            num_labels = self.inference._tasks[task_id].num_labels
            carried = self._carried_tasks.pop(task_id, None)
            if carried is None or carried[0] is not self._held_source:
                self._unheld_tasks.add(task_id)
            labels = influence = None
            if carried is not None:
                self._carried_tail = None
                source, row = carried
                labels = source.label_probs[source.task_label_slice(row)]
                influence = source.influence_weights[row]
            if labels is not None and labels.size == num_labels:
                store.add_task(task_id, num_labels, labels, influence)
            else:
                store.add_task(task_id, num_labels)

    def prime_carryover(self, parameters: ArrayParameterStore) -> None:
        """Seed the carryover set from a pre-existing estimate.

        Used by the serving layer after a snapshot restore: every entity of
        ``parameters`` the live tensor lacks rides along on publishes until
        the stream covers it (the next sync prunes entities the answer log
        re-acquires).
        """
        self._refresh_carryover(parameters)

    # ------------------------------------------------------------- publishing
    def publish_store(self, answers: AnswerSet | None = None) -> ArrayParameterStore:
        """Snapshot-ready copy of the current estimate.

        Returns a fresh :class:`~repro.core.params.ArrayParameterStore`
        holding the live rows, then the carried-over workers, then the
        carried-over tasks (each sorted by id) — one C-level copy of the live
        store, or one concatenation with the carried rows, which are rebuilt
        only after the carried set changed.  Nobody else holds the returned
        store, so the snapshot layer may take it without copying.
        ``answers`` is only needed to (re)build the live tensor when the
        updater has none yet or the log diverged.
        """
        params = self.inference.parameters
        chain_intact = self._tensor is not None and params is self._store
        if self._tensor is None:
            self._rebuild_tensor(answers)
        else:
            self._recover_if_diverged(answers, None, chain_intact)
        self._ensure_store(params)
        if not (self._carried_workers or self._carried_tasks):
            return self._store.copy()
        if self._carried_tail is None:
            self._carried_tail = self._build_carried_tail()
        return self._store.concatenated(self._carried_tail)

    def _build_carried_tail(self) -> ArrayParameterStore:
        """The carried entities' rows as one frozen store (O(carried) Python)."""
        tail = ArrayParameterStore.empty(self._store.function_set, self._store.alpha)
        for worker_id in sorted(self._carried_workers):
            source, row = self._carried_workers[worker_id]
            tail.add_worker(worker_id, source.p_qualified[row], source.distance_weights[row])
        for task_id in sorted(self._carried_tasks):
            source, row = self._carried_tasks[task_id]
            labels = source.label_probs[source.task_label_slice(row)]
            tail.add_task(task_id, labels.size, labels, source.influence_weights[row])
        return tail.freeze()

    # ------------------------------------------------------------------ internal
    def _defer_filter(
        self, affected_w: np.ndarray, affected_t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop entities holding settle-defer credit, spending one credit each."""
        if not (self._worker_defer or self._task_defer):
            return affected_w, affected_t

        def spend(rows: np.ndarray, credits: dict[int, int]) -> np.ndarray:
            if not credits:
                return rows
            kept: list[int] = []
            for row in rows:
                row = int(row)
                credit = credits.get(row, 0)
                if credit > 0:
                    if credit == 1:
                        del credits[row]
                    else:
                        credits[row] = credit - 1
                else:
                    kept.append(row)
            if len(kept) == rows.size:
                return rows
            return np.asarray(kept, dtype=np.intp)

        return spend(affected_w, self._worker_defer), spend(
            affected_t, self._task_defer
        )

    def _note_settled(self, report: em_kernel.SweepReport) -> None:
        """Grant defer credit to the entities the cached sweeps settled."""
        if report.settled_worker_rows is not None:
            for row in report.settled_worker_rows:
                self._worker_defer[int(row)] = SETTLE_DEFER_BATCHES
        if report.settled_task_rows is not None:
            for row in report.settled_task_rows:
                self._task_defer[int(row)] = SETTLE_DEFER_BATCHES
