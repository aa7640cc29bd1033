"""Per-record incremental EM update (Section III-D).

The executable specification of
:meth:`repro.core.incremental.IncrementalUpdater.apply`: gather every answer
of an affected worker or task through the answer log's indexes, then run
``local_iterations`` E+M sweeps over those records that re-estimate only the
affected entities.  :class:`ReferenceIncrementalUpdater` swaps this in for the
live-tensor sweeps; it needs the full answer log on every call.
"""

from __future__ import annotations

import numpy as np

from oracles.em import AnswerRecord, build_records, expectation, store_of
from oracles.params import (
    ModelParameters,
    TaskParameters,
    WorkerParameters,
    model_from_store,
)
from repro.core.incremental import IncrementalUpdater
from repro.core.params import ArrayParameterStore
from repro.data.models import Answer, AnswerSet


class ReferenceIncrementalUpdater(IncrementalUpdater):
    """An :class:`IncrementalUpdater` whose ``apply`` is the per-record sweep.

    The sweep runs on the id-keyed form (:mod:`oracles.params`); the result
    is installed as a new store over the estimate's ids plus the batch's.
    """

    def apply(
        self,
        answers: AnswerSet,
        new_answers: list[Answer],
    ) -> ArrayParameterStore:
        if not new_answers:
            return self.inference.parameters
        params = model_from_store(self.inference.parameters)
        self.answers_since_full_refresh += len(new_answers)

        affected_workers = {answer.worker_id for answer in new_answers}
        affected_tasks = {answer.task_id for answer in new_answers}
        relevant = relevant_answers(answers, affected_workers, affected_tasks)
        records = build_records(self.inference, AnswerSet(relevant))
        for _ in range(self.local_iterations):
            params = local_maximisation(
                records,
                params,
                affected_workers,
                affected_tasks,
                self.inference.config.function_set,
            )

        store = store_of(params)
        self.inference._parameters = store
        self.inference._fitted = True
        return store


def relevant_answers(
    answers: AnswerSet,
    affected_workers: set[str],
    affected_tasks: set[str],
) -> list[Answer]:
    """Union of the affected workers' and tasks' answers, deduplicated.

    Deterministic regardless of submission order: affected workers in
    sorted order (each worker's answers sorted by task), then the affected
    tasks' remaining answers (sorted by worker).
    """
    seen: set[tuple[str, str]] = set()
    relevant: list[Answer] = []
    for worker_id in sorted(affected_workers):
        for answer in answers.answers_of_worker(worker_id):
            seen.add((answer.worker_id, answer.task_id))
            relevant.append(answer)
    for task_id in sorted(affected_tasks):
        for answer in answers.answers_of_task(task_id):
            key = (answer.worker_id, answer.task_id)
            if key not in seen:
                seen.add(key)
                relevant.append(answer)
    return relevant


def local_maximisation(
    records: list[AnswerRecord],
    params: ModelParameters,
    affected_workers: set[str],
    affected_tasks: set[str],
    function_set,
) -> ModelParameters:
    """One E+M sweep restricted to the affected workers and tasks."""
    function_count = len(function_set)

    z_sums: dict[str, np.ndarray] = {}
    z_counts: dict[str, int] = {}
    dt_sums: dict[str, np.ndarray] = {}
    dt_counts: dict[str, int] = {}
    i_sums: dict[str, float] = {}
    i_counts: dict[str, int] = {}
    dw_sums: dict[str, np.ndarray] = {}

    for record in records:
        post_z1, post_i1, post_dw, post_dt, _ = expectation(record, params)
        n_labels = record.responses.size

        if record.task_id in affected_tasks:
            if record.task_id not in z_sums:
                z_sums[record.task_id] = np.zeros(n_labels)
                z_counts[record.task_id] = 0
                dt_sums[record.task_id] = np.zeros(function_count)
                dt_counts[record.task_id] = 0
            z_sums[record.task_id] += post_z1
            z_counts[record.task_id] += 1
            dt_sums[record.task_id] += post_dt.sum(axis=0)
            dt_counts[record.task_id] += n_labels

        if record.worker_id in affected_workers:
            if record.worker_id not in i_sums:
                i_sums[record.worker_id] = 0.0
                i_counts[record.worker_id] = 0
                dw_sums[record.worker_id] = np.zeros(function_count)
            i_sums[record.worker_id] += float(post_i1.sum())
            i_counts[record.worker_id] += n_labels
            dw_sums[record.worker_id] += post_dw.sum(axis=0)

    new_params = params.copy()
    for task_id in z_sums:
        count = max(1, z_counts[task_id])
        influence = dt_sums[task_id] / max(1, dt_counts[task_id])
        total = influence.sum()
        influence = influence / total if total > 0 else function_set.uniform_weights()
        new_params.tasks[task_id] = TaskParameters(
            label_probs=np.clip(z_sums[task_id] / count, 0.0, 1.0),
            influence_weights=influence,
        )
    for worker_id in i_sums:
        count = max(1, i_counts[worker_id])
        weights = dw_sums[worker_id] / count
        total = weights.sum()
        weights = weights / total if total > 0 else function_set.uniform_weights()
        new_params.workers[worker_id] = WorkerParameters(
            p_qualified=min(1.0, max(0.0, i_sums[worker_id] / count)),
            distance_weights=weights,
        )
    return new_params
