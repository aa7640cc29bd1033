"""The location-aware inference model (IM) and its EM parameter estimation.

Section III of the paper defines a graphical model in which every observed
answer ``r_{w,t,k}`` is generated from four latent variables: the label truth
``z_{t,k}``, the worker's inherent quality ``i_w``, the worker's distance
profile ``d_w`` and the POI's influence profile ``d_t``.  The likelihood of an
answer is

* ``P(r = z | i_w = 0) = 0.5``                       (unqualified ⇒ random), and
* ``P(r = z | i_w = 1, d_w, d_t) = q(d_w, d_t)``     with
  ``q = α · f_{d_w}(d) + (1 - α) · f_{d_t}(d)``       (Equation 8),

where ``d`` is the normalised worker-to-POI distance.  Parameters are estimated
by EM (Equations 12 and 14).  The E-step posterior factorises enough that all
marginals needed by the M-step have closed forms.  The paper's complexity
analysis counts ``O(B · |L_t| · |F|)`` per iteration; this engine pays
``O(B · (|L_t| + |F|))``, because an answer's distance-profile posteriors
depend on its label responses only through per-response scalars, which are
summed before the ``|F|``-wide product.

One EM engine implements that iteration: the answer log is flattened once per
fit into an :class:`~repro.core.em_kernel.AnswerTensor` and every iteration
runs as batched NumPy kernels over all answers at once
(:func:`repro.core.em_kernel.em_step`), with parameters held in a flat
:class:`~repro.core.params.ArrayParameterStore`.  The per-iteration constant
is a few C-level array passes rather than a Python step per answer — this is
what makes the paper's 50k-assignment scalability runs (Figures 12–13)
tractable.  The per-record loop that spells Equations 12 and 14 out one
answer at a time lives in ``tests/oracles/em.py``; the equivalence suite
(``tests/test_em_equivalence.py``) holds this engine to it at 1e-9.

:attr:`InferenceConfig.engine` only picks where per-answer distances come
from:

* ``engine="vectorized"`` (the default) computes exact per-pair geometry;
* ``engine="sparse"`` runs the same iteration but sources the
  per-answer distances from a :class:`~repro.spatial.candidates.CandidateIndex`
  (the CSR candidate structure shared with the sparse AccOpt engine) instead
  of exact per-pair geometry: observed pairs within
  :attr:`InferenceConfig.candidate_radius` get their cached exact normalised
  distance, pruned pairs the maximal distance ``1.0``.  The EM iteration was
  already O(answers) — never dense W×T — so what this buys is a fit whose
  *distance* work is O(nnz) and shared with assignment; with a radius
  covering the whole universe it is bit-identical to ``"vectorized"``.

The class implements the common :class:`~repro.baselines.base.LabelInferenceModel`
interface so the experiment harness can compare it directly against MV and
Dawid–Skene.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter

import numpy as np

from repro.baselines.base import LabelInferenceModel
from repro.core.distance_functions import DistanceFunctionSet, PAPER_FUNCTION_SET
from repro.core import em_kernel
from repro.core.em_kernel import AnswerColumns, AnswerTensor
from repro.core.params import ArrayParameterStore
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.candidates import CandidateIndex
from repro.spatial.distance import DistanceModel

#: Valid values of :attr:`InferenceConfig.engine`.
EM_ENGINES = ("vectorized", "sparse")


@dataclass
class InferenceConfig:
    """Hyper-parameters of the location-aware inference model.

    Defaults follow the paper's experimental setup: ``α = 0.5``,
    ``F = {f_0.1, f_10, f_100}`` and a convergence threshold of 0.005 on the
    maximum parameter change.

    ``engine`` selects the per-answer distance source of the batched EM
    kernel (:mod:`repro.core.em_kernel`): ``"vectorized"`` (default) uses
    exact per-pair geometry; ``"sparse"`` gathers distances from the CSR
    candidate structure bounded by ``candidate_radius`` (raw coordinate
    units; required for this engine, ``inf`` keeps every pair in radius).
    """

    function_set: DistanceFunctionSet = field(default_factory=lambda: PAPER_FUNCTION_SET)
    alpha: float = 0.5
    max_iterations: int = 100
    convergence_threshold: float = 0.005
    initial_p_qualified: float = 0.8
    engine: str = "vectorized"
    candidate_radius: float | None = None

    def __post_init__(self) -> None:
        if self.engine not in EM_ENGINES:
            raise ValueError(
                f"engine must be one of {EM_ENGINES}, got {self.engine!r}"
            )
        if self.engine == "sparse" and self.candidate_radius is None:
            raise ValueError(
                "engine='sparse' needs a candidate_radius (raw coordinate "
                "units; use inf to keep every pair a candidate)"
            )
        if self.candidate_radius is not None and not self.candidate_radius > 0:
            raise ValueError(
                f"candidate_radius must be positive, got {self.candidate_radius}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.convergence_threshold < 0:
            raise ValueError(
                f"convergence_threshold must be non-negative, got "
                f"{self.convergence_threshold}"
            )
        if not 0.0 < self.initial_p_qualified < 1.0:
            raise ValueError(
                f"initial_p_qualified must lie strictly inside (0, 1), got "
                f"{self.initial_p_qualified}"
            )


@dataclass
class InferenceResult:
    """Outcome of one EM run.

    ``store`` is the fit's final row-aligned
    :class:`~repro.core.params.ArrayParameterStore`, which the fitted model
    holds as its estimate.  The serving path's incremental updater adopts it
    as its live store after a full refresh, and from then on sweeps it in
    place (see :attr:`LocationAwareInference.parameters`).
    """

    iterations: int
    converged: bool
    convergence_trace: list[float]
    log_likelihood_trace: list[float]
    store: ArrayParameterStore


def _universe_digest(workers, tasks) -> str:
    """BLAKE2b digest of the entities' ids, label counts and coordinates."""
    workers = sorted(workers, key=attrgetter("worker_id"))
    tasks = sorted(tasks, key=attrgetter("task_id"))
    digest = hashlib.blake2b(digest_size=16)
    for ids in (
        [worker.worker_id for worker in workers],
        [task.task_id for task in tasks],
    ):
        digest.update("\0".join(ids).encode("utf-8") + b"\1")
    for values in (
        [len(worker.locations) for worker in workers],
        [point.as_tuple() for worker in workers for point in worker.locations],
        [task.num_labels for task in tasks],
        [task.location.as_tuple() for task in tasks],
    ):
        digest.update(np.asarray(values, dtype=np.float64).tobytes() + b"\1")
    return digest.hexdigest()


class LocationAwareInference(LabelInferenceModel):
    """The paper's inference model (IM).

    Parameters
    ----------
    tasks:
        Every task that may appear in the answer set.
    workers:
        Every worker that may appear in the answer set (their locations are
        needed to compute distances).
    distance_model:
        Shared normalised-distance computer.
    config:
        EM hyper-parameters; defaults reproduce the paper's setting.
    """

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        distance_model: DistanceModel,
        config: InferenceConfig | None = None,
    ) -> None:
        super().__init__(tasks)
        if not workers:
            raise ValueError("the inference model needs at least one worker")
        self._workers = {worker.worker_id: worker for worker in workers}
        if len(self._workers) != len(workers):
            raise ValueError("worker ids must be unique")
        self._distance_model = distance_model
        self._config = config or InferenceConfig()
        # Registration only appends: entities past these counts were learned
        # after construction (see :meth:`learned_entities`).
        self._startup_sizes = (len(self._workers), len(self._tasks))
        self._startup_digest: str | None = None
        self._parameters = ArrayParameterStore.empty(
            self._config.function_set, self._config.alpha
        )
        self._last_result: InferenceResult | None = None
        # Sparse-engine candidate structure, built lazily on the first fit and
        # topped up with tasks registered afterwards.
        self._candidate_index: CandidateIndex | None = None
        self._candidate_synced = 0

    # ------------------------------------------------------------------ props
    @property
    def config(self) -> InferenceConfig:
        return self._config

    @property
    def parameters(self) -> ArrayParameterStore:
        """The current estimate, the store itself rather than a copy.

        A fit's final store stays as it is, but once an
        :class:`~repro.core.incremental.IncrementalUpdater` drives the model
        this is the updater's live store, which every micro-batch changes in
        place.  A caller that keeps one version copies it
        (:meth:`~repro.core.params.ArrayParameterStore.copy`); serving readers
        get frozen snapshot copies instead.
        """
        return self._parameters

    @property
    def distance_model(self) -> DistanceModel:
        return self._distance_model

    @property
    def workers(self) -> dict[str, Worker]:
        return dict(self._workers)

    @property
    def last_result(self) -> InferenceResult | None:
        return self._last_result

    def learned_entities(self) -> tuple[list[Worker], list[Task]]:
        """The workers and tasks registered after construction, oldest first.

        These are what a serving checkpoint persists for a restart to
        re-register; the universe the model was built with comes from the
        restart's caller, checked against :attr:`startup_digest`.
        """
        workers, tasks = self._startup_sizes
        return (
            list(islice(self._workers.values(), workers, None)),
            list(islice(self._tasks.values(), tasks, None)),
        )

    @property
    def startup_digest(self) -> str:
        """Hex digest of what EM reads from the universe the model was built with.

        Covers the worker ids and locations and the task ids, label counts
        and POI coordinates, in id order.  Computed on first use only.
        """
        if self._startup_digest is None:
            workers, tasks = self._startup_sizes
            self._startup_digest = _universe_digest(
                islice(self._workers.values(), workers),
                islice(self._tasks.values(), tasks),
            )
        return self._startup_digest

    # -------------------------------------------------------------- interface
    def fit(
        self,
        answers: AnswerSet,
        initial: ArrayParameterStore | None = None,
    ) -> "LocationAwareInference":
        """Run full EM on ``answers`` (Section III-C).

        ``initial`` warm-starts the run from a previous estimate, e.g. a
        (possibly restored) snapshot store published by the online serving
        subsystem (:mod:`repro.serving`).
        """
        self._last_result = self.run_em(answers, initial=initial)
        self._parameters = self._last_result.store
        self._fitted = True
        return self

    def fit_from_tensor(
        self,
        tensor: AnswerTensor,
        initial: ArrayParameterStore | None = None,
        answer_weights: "np.ndarray | None" = None,
        first_delta_floor: float = 0.0,
    ) -> "LocationAwareInference":
        """Run full EM directly against a prebuilt (live) :class:`AnswerTensor`.

        This is the serving path's log-free full refresh: the incremental
        updater maintains the tensor across micro-batches, so the periodic
        re-fit skips the ``AnswerSet`` → tensor flatten entirely and costs
        only the EM iterations themselves.  ``initial`` warm-starts exactly
        like :meth:`fit`; a store already row-aligned with ``tensor`` (the
        updater's live store) is read in place, without a re-gather.
        ``answer_weights`` (one weight per tensor answer row) runs a weighted
        EM — the decayed/trust-aware refresh; ``None`` is the exact kernel.
        ``first_delta_floor`` is described under :meth:`run_em`.
        """
        self._last_result = self.run_em(
            None,
            initial=initial,
            tensor=tensor,
            answer_weights=answer_weights,
            first_delta_floor=first_delta_floor,
        )
        self._parameters = self._last_result.store
        self._fitted = True
        return self

    def run_em_detached(
        self,
        tensor: AnswerTensor,
        initial: ArrayParameterStore | None = None,
        answer_weights: "np.ndarray | None" = None,
        first_delta_floor: float = 0.0,
    ) -> InferenceResult:
        """Run the EM loop on ``tensor`` **without mutating this model**.

        The pipelined serving refresh calls this from a background thread
        against a frozen :meth:`AnswerTensor.snapshot` (and a copy of the
        live store) while the ingest thread keeps using the model for
        localized applies: the loop reads only the immutable
        :class:`InferenceConfig`, so concurrent detached runs are safe.  The
        caller makes the result current later (after reconciling answers that
        arrived mid-fit) via :meth:`adopt_result`.
        """
        return self.run_em(
            None,
            initial,
            tensor=tensor,
            answer_weights=answer_weights,
            first_delta_floor=first_delta_floor,
        )

    def adopt_result(self, result: InferenceResult) -> "LocationAwareInference":
        """Install a detached EM result as the model's current fit.

        The atomic publish step of a pipelined refresh: after the background
        fit finished and its store was reconciled with mid-fit answers, this
        makes the result visible exactly as :meth:`fit_from_tensor` would
        have.
        """
        self._last_result = result
        self._parameters = result.store
        self._fitted = True
        return self

    def label_probabilities(self, task_id: str) -> np.ndarray:
        self._require_fitted()
        task = self._require_task(task_id)
        return self._parameters.task(task_id, num_labels=task.num_labels).label_probs.copy()

    def add_worker(self, worker: Worker) -> bool:
        """Register a worker that joined after construction (open-world growth).

        Returns ``True`` if the worker was new.  Until the worker's answers
        are fitted, predictions about them fall back to the footnote-3 prior —
        the same cold-start treatment the paper gives brand-new workers.
        """
        existing = self._workers.get(worker.worker_id)
        if existing is not None:
            if existing is not worker and existing != worker:
                raise ValueError(
                    f"worker id {worker.worker_id!r} is already registered with "
                    "different content"
                )
            return False
        self._workers[worker.worker_id] = worker
        return True

    def warm_start(self, parameters: ArrayParameterStore) -> "LocationAwareInference":
        """Adopt an existing estimate without running EM.

        Used by the serving subsystem to resume from a restored snapshot: the
        model becomes immediately queryable (predictions, incremental updates)
        and the next :meth:`fit` naturally warm-starts from these values.
        The model holds ``parameters`` itself; it never writes to it.
        """
        self._parameters = parameters
        self._fitted = True
        return self

    # ------------------------------------------------------------------- EM
    def run_em(
        self,
        answers: AnswerSet | None,
        initial: ArrayParameterStore | None = None,
        tensor: AnswerTensor | None = None,
        answer_weights: "np.ndarray | None" = None,
        first_delta_floor: float = 0.0,
    ) -> InferenceResult:
        """Run EM to convergence and return the full trace.

        ``initial`` allows warm-starting from previous parameters, which is how
        the framework re-runs the model as new answers arrive; a store over
        another universe or row order (e.g. a serving snapshot restored from
        disk) is re-gathered onto the tensor's rows, with the footnote-3
        priors for entities it lacks.

        ``tensor`` runs the EM loop against a prebuilt (live)
        :class:`~repro.core.em_kernel.AnswerTensor` instead of flattening
        ``answers`` — the log-free serving refresh.  ``answer_weights`` (one
        weight per tensor answer row) runs a weighted EM.

        The first iteration's convergence delta spans both estimates' entity
        sets, as Figure 10's measure does
        (:func:`~repro.core.em_kernel.warm_start_extra_delta`).
        ``first_delta_floor`` adds the terms of entities the warm start
        holds, or lacks, beyond what ``initial``'s rows show: the incremental
        updater passes those of its carried-over and not yet estimated
        entities.
        """
        if tensor is None:
            if answers is None:
                raise ValueError("run_em needs an AnswerSet or a prebuilt tensor")
            tensor = self._build_tensor(answers)
        if initial is None:
            store = em_kernel.initial_store(
                tensor,
                self._config.function_set,
                self._config.alpha,
                self._config.initial_p_qualified,
            )
            first_extra_delta = 0.0
        else:
            aligned = (
                initial.worker_ids == tensor.worker_ids
                and initial.task_ids == tensor.task_ids
                and np.array_equal(initial.label_offsets, tensor.label_offsets)
            )
            store = (
                initial
                if aligned
                else initial.regather(
                    tensor.worker_ids, tensor.task_ids, tensor.num_labels
                )
            )
            first_extra_delta = max(
                em_kernel.warm_start_extra_delta(initial, tensor), first_delta_floor
            )

        convergence_trace: list[float] = []
        likelihood_trace: list[float] = []
        converged = False
        iterations = 0
        counts = em_kernel.count_denominators(tensor, answer_weights)

        for iteration in range(self._config.max_iterations):
            iterations = iteration + 1
            new_store, log_likelihood = em_kernel.em_step(
                tensor, store, answer_weights=answer_weights, counts=counts
            )
            # The M-step emits parameters under the *config's* alpha and
            # function set; only the first E-step sees the warm-start's own
            # values.
            new_store.alpha = self._config.alpha
            new_store.function_set = self._config.function_set
            delta = new_store.max_difference(store)
            if iteration == 0:
                delta = max(delta, first_extra_delta)
            store = new_store
            convergence_trace.append(delta)
            likelihood_trace.append(log_likelihood)
            if delta <= self._config.convergence_threshold:
                converged = True
                break

        return InferenceResult(
            iterations=iterations,
            converged=converged,
            convergence_trace=convergence_trace,
            log_likelihood_trace=likelihood_trace,
            store=store,
        )

    # ----------------------------------------------------------- EM internals
    def _pair_distance_fn(self) -> "em_kernel.PairDistanceFn":
        """The sparse engine's per-answer distance source.

        Syncs the :class:`CandidateIndex` with tasks registered since the
        last fit, then returns the closure the tensor build calls: observed
        pairs inside the candidate radius reuse the cached exact distance,
        pruned pairs fall back to the maximal normalised distance 1.0.
        """
        assert self._config.candidate_radius is not None
        task_list = list(self._tasks.values())
        if self._candidate_index is None:
            self._candidate_index = CandidateIndex(
                task_list,
                self._distance_model,
                self._config.candidate_radius,
            )
        else:
            for task in task_list[self._candidate_synced :]:
                self._candidate_index.add_task(task)
        self._candidate_synced = len(task_list)
        index = self._candidate_index

        def pair_distances(worker_ids, task_ids):
            return index.pair_distances(worker_ids, task_ids, self._workers)

        return pair_distances

    def _build_tensor(self, answers: AnswerSet) -> AnswerTensor:
        """Flatten ``answers`` into the EM kernel's index arrays."""
        return AnswerTensor.build(
            answers,
            self._tasks,
            self._workers,
            self._distance_model,
            self._config.function_set,
            pair_distance_fn=self._engine_pair_distances(),
        )

    def _tensor_from_columns(self, columns: AnswerColumns) -> AnswerTensor:
        """The EM kernel's index arrays of already-gathered ``columns``."""
        return AnswerTensor.from_columns(
            columns,
            self._tasks,
            self._workers,
            self._distance_model,
            self._config.function_set,
            pair_distance_fn=self._engine_pair_distances(),
        )

    def _engine_pair_distances(self) -> em_kernel.PairDistanceFn | None:
        """The tensor's distance override: the sparse engine's, else none."""
        return self._pair_distance_fn() if self._config.engine == "sparse" else None

    # ----------------------------------------------------------- convenience
    def answer_accuracy(self, worker_id: str, task_id: str) -> float:
        """Estimated ``P(r = z)`` for ``worker_id`` answering ``task_id`` (Eq. 9)."""
        task = self._require_task(task_id)
        worker = self._workers.get(worker_id)
        if worker is None:
            raise KeyError(f"unknown worker {worker_id!r}")
        distance = self._distance_model.worker_task_distance(
            worker.locations, task.location
        )
        return self._parameters.answer_accuracy(worker_id, task_id, distance)
