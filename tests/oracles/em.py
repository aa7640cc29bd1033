"""Per-record EM for the location-aware model (Section III-C, Eqs. 12 and 14).

The executable specification the batched engine of
:mod:`repro.core.em_kernel` is equivalence-tested against: every answer is
one :class:`AnswerRecord`, the E-step computes its closed-form marginals one
record at a time (:func:`expectation`), and the M-step accumulates them with
dict-based scatter-adds (:func:`em_iteration`): the paper's
``O(B · |L_t| · |F|)`` per iteration, a Python interpreter step per answer.

:func:`per_response_posteriors` is the same E-step over a batch as arrays,
one row per label response; the kernel's per-answer E-step is tested against
it summed per answer.

:class:`ReferenceInference` is a drop-in
:class:`~repro.core.inference.LocationAwareInference` whose
:meth:`~ReferenceInference.run_em` (and therefore ``fit``) runs this loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference import (
    InferenceConfig,
    InferenceResult,
    LocationAwareInference,
)
from repro.core.params import (
    ArrayParameterStore,
    ModelParameters,
    TaskParameters,
    WorkerParameters,
)
from repro.data.models import AnswerSet
from repro.utils.validation import PROBABILITY_FLOOR, clamp_probability


@dataclass
class AnswerRecord:
    """Flattened view of one (worker, task) answer used by the E-step."""

    worker_id: str
    task_id: str
    responses: np.ndarray
    distance: float
    f_values: np.ndarray  # the function set evaluated at `distance`


class ReferenceInference(LocationAwareInference):
    """The inference model with the per-record EM loop in place of the kernels."""

    def run_em(
        self,
        answers: AnswerSet,
        initial: ModelParameters | ArrayParameterStore | None = None,
    ) -> InferenceResult:
        if isinstance(initial, ArrayParameterStore):
            initial = initial.to_model()
        return self.run_em_on_records(build_records(self, answers), initial)

    def run_em_on_records(
        self, records: list[AnswerRecord], initial: ModelParameters | None = None
    ) -> InferenceResult:
        """The EM loop of :meth:`run_em` on answers already flattened."""
        params = (
            initial.copy()
            if initial is not None
            else initial_parameters(records, self.config)
        )

        convergence_trace: list[float] = []
        likelihood_trace: list[float] = []
        converged = False
        iterations = 0

        for iteration in range(self.config.max_iterations):
            iterations = iteration + 1
            new_params, log_likelihood = em_iteration(records, params, self.config)
            delta = new_params.max_difference(params)
            params = new_params
            convergence_trace.append(delta)
            likelihood_trace.append(log_likelihood)
            if delta <= self.config.convergence_threshold:
                converged = True
                break

        return InferenceResult(
            parameters=params,
            iterations=iterations,
            converged=converged,
            convergence_trace=convergence_trace,
            log_likelihood_trace=likelihood_trace,
        )


def build_records(
    model: LocationAwareInference, answers: AnswerSet
) -> list[AnswerRecord]:
    """One :class:`AnswerRecord` per answer, distances from ``model``'s geometry."""
    records: list[AnswerRecord] = []
    for answer in answers:
        task = model._tasks.get(answer.task_id)
        if task is None:
            raise KeyError(f"answer references unknown task {answer.task_id!r}")
        worker = model._workers.get(answer.worker_id)
        if worker is None:
            raise KeyError(f"answer references unknown worker {answer.worker_id!r}")
        if answer.num_labels != task.num_labels:
            raise ValueError(
                f"answer for task {task.task_id!r} has {answer.num_labels} labels, "
                f"task has {task.num_labels}"
            )
        distance = model.distance_model.worker_task_distance(
            worker.locations, task.location
        )
        records.append(
            AnswerRecord(
                worker_id=answer.worker_id,
                task_id=answer.task_id,
                responses=np.asarray(answer.responses, dtype=int),
                distance=distance,
                f_values=model.config.function_set.evaluate(distance),
            )
        )
    return records


def initial_parameters(
    records: list[AnswerRecord], config: InferenceConfig
) -> ModelParameters:
    """Initialise: soft majority vote for labels, optimistic priors elsewhere."""
    function_set = config.function_set
    uniform = function_set.uniform_weights()

    vote_sums: dict[str, np.ndarray] = {}
    vote_counts: dict[str, int] = {}
    worker_ids: set[str] = set()
    for record in records:
        worker_ids.add(record.worker_id)
        if record.task_id not in vote_sums:
            vote_sums[record.task_id] = np.zeros(record.responses.size)
            vote_counts[record.task_id] = 0
        vote_sums[record.task_id] += record.responses
        vote_counts[record.task_id] += 1

    tasks = {}
    for task_id, sums in vote_sums.items():
        count = vote_counts[task_id]
        probs = np.clip(sums / count, 0.02, 0.98) if count else np.full(sums.size, 0.5)
        tasks[task_id] = TaskParameters(
            label_probs=probs, influence_weights=uniform.copy()
        )

    workers = {
        worker_id: WorkerParameters(
            p_qualified=config.initial_p_qualified,
            distance_weights=uniform.copy(),
        )
        for worker_id in sorted(worker_ids)
    }
    return ModelParameters(
        function_set=function_set,
        alpha=config.alpha,
        workers=workers,
        tasks=tasks,
    )


def expectation(
    record: AnswerRecord, params: ModelParameters
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Closed-form E-step marginals for one answer vector.

    Returns ``(post_z1, post_i1, post_dw, post_dt, log_likelihood)`` where
    ``post_z1`` and ``post_i1`` are per-label vectors, ``post_dw`` and
    ``post_dt`` are per-label × |F| matrices, and ``log_likelihood`` is the
    summed log of the answer probabilities ``P(r_{w,t,k})``.
    """
    alpha = params.alpha
    worker = params.worker(record.worker_id)
    task = params.task(record.task_id, num_labels=record.responses.size)

    f_values = record.f_values
    p_qualified = clamp_probability(worker.p_qualified)
    p_unqualified = 1.0 - p_qualified
    dw = worker.distance_weights
    dt = task.influence_weights

    worker_quality = float(np.dot(dw, f_values))          # DQ_w at this distance
    poi_quality = float(np.dot(dt, f_values))              # IQ_t at this distance
    s_q = alpha * worker_quality + (1.0 - alpha) * poi_quality
    s_q = clamp_probability(s_q)
    # Per-function rows/columns of q(d_w, d_t) marginalised over the other
    # variable's current weights.
    q_row = alpha * f_values + (1.0 - alpha) * poi_quality     # varies with d_w
    q_col = alpha * worker_quality + (1.0 - alpha) * f_values  # varies with d_t

    responses = record.responses
    pz1 = np.clip(task.label_probs, 1e-9, 1.0 - 1e-9)
    pz_equal_r = np.where(responses == 1, pz1, 1.0 - pz1)      # P(z = r)
    pz_not_r = 1.0 - pz_equal_r

    # P(r) per label: the normaliser of the joint posterior.
    evidence = 0.5 * p_unqualified + p_qualified * (
        pz_equal_r * s_q + pz_not_r * (1.0 - s_q)
    )
    evidence = np.clip(evidence, 1e-12, None)

    # P(z = 1 | r): the z=1 branch uses s_q when r=1 and (1-s_q) when r=0.
    agree_factor = np.where(responses == 1, s_q, 1.0 - s_q)
    post_z1 = pz1 * (0.5 * p_unqualified + p_qualified * agree_factor) / evidence

    post_i1 = p_qualified * (pz_equal_r * s_q + pz_not_r * (1.0 - s_q)) / evidence

    # P(d_w = a | r) per label: (labels x |F|).
    agree_dw = pz_equal_r[:, None] * q_row[None, :] + pz_not_r[:, None] * (
        1.0 - q_row[None, :]
    )
    post_dw = dw[None, :] * (0.5 * p_unqualified + p_qualified * agree_dw)
    post_dw /= evidence[:, None]

    agree_dt = pz_equal_r[:, None] * q_col[None, :] + pz_not_r[:, None] * (
        1.0 - q_col[None, :]
    )
    post_dt = dt[None, :] * (0.5 * p_unqualified + p_qualified * agree_dt)
    post_dt /= evidence[:, None]

    log_likelihood = float(np.sum(np.log(evidence)))
    return post_z1, post_i1, post_dw, post_dt, log_likelihood


def per_response_posteriors(
    alpha: float,
    p_qualified: np.ndarray,
    dw: np.ndarray,
    dt: np.ndarray,
    f_values: np.ndarray,
    expand: np.ndarray,
    pz1: np.ndarray,
    observed_one: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`expectation` for a batch, one row per label response.

    Takes the per-answer arguments of
    ``repro.core.em_kernel._estep_posteriors``, each label response's clipped
    ``P(z = 1)`` as ``pz1`` and the 0/1 ticks as a boolean ``observed_one``,
    and returns
    ``(post_z1, post_i1, post_dw, post_dt, evidence)`` with ``post_dw`` and
    ``post_dt`` as ``(M, |F|)`` blocks — the posterior of every label
    response, before the kernel's per-answer sum.
    """
    floor = PROBABILITY_FLOOR
    p_unqualified = 1.0 - p_qualified
    worker_quality = np.einsum("nf,nf->n", dw, f_values)
    poi_quality = np.einsum("nf,nf->n", dt, f_values)
    s_q = np.clip(
        alpha * worker_quality + (1.0 - alpha) * poi_quality, floor, 1.0 - floor
    )
    q_row = alpha * f_values + (1.0 - alpha) * poi_quality[:, None]
    q_col = alpha * worker_quality[:, None] + (1.0 - alpha) * f_values

    pq_m = p_qualified[expand]
    pu_m = p_unqualified[expand]
    sq_m = s_q[expand]
    pz_equal_r = np.where(observed_one, pz1, 1.0 - pz1)
    pz_not_r = 1.0 - pz_equal_r

    evidence = 0.5 * pu_m + pq_m * (pz_equal_r * sq_m + pz_not_r * (1.0 - sq_m))
    evidence = np.clip(evidence, 1e-12, None)

    agree_factor = np.where(observed_one, sq_m, 1.0 - sq_m)
    post_z1 = pz1 * (0.5 * pu_m + pq_m * agree_factor) / evidence
    post_i1 = pq_m * (pz_equal_r * sq_m + pz_not_r * (1.0 - sq_m)) / evidence

    q_row_m = q_row[expand]
    agree_dw = pz_equal_r[:, None] * q_row_m + pz_not_r[:, None] * (1.0 - q_row_m)
    post_dw = (
        dw[expand] * (0.5 * pu_m[:, None] + pq_m[:, None] * agree_dw)
    ) / evidence[:, None]
    q_col_m = q_col[expand]
    agree_dt = pz_equal_r[:, None] * q_col_m + pz_not_r[:, None] * (1.0 - q_col_m)
    post_dt = (
        dt[expand] * (0.5 * pu_m[:, None] + pq_m[:, None] * agree_dt)
    ) / evidence[:, None]
    return post_z1, post_i1, post_dw, post_dt, evidence


def em_iteration(
    records: list[AnswerRecord], params: ModelParameters, config: InferenceConfig
) -> tuple[ModelParameters, float]:
    """One combined E+M step (Equations 12 and 14)."""
    function_count = len(config.function_set)

    z_sums: dict[str, np.ndarray] = {}
    z_counts: dict[str, int] = {}
    dt_sums: dict[str, np.ndarray] = {}
    dt_counts: dict[str, int] = {}
    i_sums: dict[str, float] = {}
    i_counts: dict[str, int] = {}
    dw_sums: dict[str, np.ndarray] = {}

    total_log_likelihood = 0.0
    for record in records:
        post_z1, post_i1, post_dw, post_dt, log_likelihood = expectation(record, params)
        total_log_likelihood += log_likelihood
        n_labels = record.responses.size

        if record.task_id not in z_sums:
            z_sums[record.task_id] = np.zeros(n_labels)
            z_counts[record.task_id] = 0
            dt_sums[record.task_id] = np.zeros(function_count)
            dt_counts[record.task_id] = 0
        z_sums[record.task_id] += post_z1
        z_counts[record.task_id] += 1
        dt_sums[record.task_id] += post_dt.sum(axis=0)
        dt_counts[record.task_id] += n_labels

        if record.worker_id not in i_sums:
            i_sums[record.worker_id] = 0.0
            i_counts[record.worker_id] = 0
            dw_sums[record.worker_id] = np.zeros(function_count)
        i_sums[record.worker_id] += float(post_i1.sum())
        i_counts[record.worker_id] += n_labels
        dw_sums[record.worker_id] += post_dw.sum(axis=0)

    new_tasks: dict[str, TaskParameters] = {}
    for task_id, sums in z_sums.items():
        count = max(1, z_counts[task_id])
        label_probs = np.clip(sums / count, 0.0, 1.0)
        influence = dt_sums[task_id] / max(1, dt_counts[task_id])
        influence_total = influence.sum()
        if influence_total <= 0:
            influence = config.function_set.uniform_weights()
        else:
            influence = influence / influence_total
        new_tasks[task_id] = TaskParameters(
            label_probs=label_probs, influence_weights=influence
        )

    new_workers: dict[str, WorkerParameters] = {}
    for worker_id, total in i_sums.items():
        count = max(1, i_counts[worker_id])
        p_qualified = min(1.0, max(0.0, total / count))
        weights = dw_sums[worker_id] / count
        weights_total = weights.sum()
        if weights_total <= 0:
            weights = config.function_set.uniform_weights()
        else:
            weights = weights / weights_total
        new_workers[worker_id] = WorkerParameters(
            p_qualified=p_qualified, distance_weights=weights
        )

    new_params = ModelParameters(
        function_set=config.function_set,
        alpha=config.alpha,
        workers=new_workers,
        tasks=new_tasks,
    )
    return new_params, total_log_likelihood
