"""The Spatial-First (SF) assignment baseline.

For each available worker, SF assigns the ``h`` closest tasks the worker has
not yet answered — the strategy used by travel-cost-oriented spatial
crowdsourcing systems.  Distance is the same normalised worker-to-POI distance
the inference model uses (minimum over the worker's declared locations).

The paper observes (Table II) that SF concentrates assignments around densely
populated areas: because the spatial distribution of tasks and workers is
uneven, some tasks end up with many answers while remote tasks get almost none,
which caps the achievable inference accuracy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.assignment import TaskAssigner
from repro.data.models import AnswerSet


class SpatialFirstAssigner(TaskAssigner):
    """Closest-task-first assignment.

    Ranks each worker's unanswered tasks by ``(distance, task id)`` off the
    worker's :meth:`~repro.core.assignment.TaskAssigner.distance_row`, with
    the tasks the worker answered masked out through
    :meth:`~repro.core.assignment.TaskAssigner.answered_columns`.  Only the
    tasks within the ``h``-th smallest distance are sorted.
    """

    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        self._validate_request(available_workers, h)
        task_ids = self._task_ids
        assignment: dict[str, list[str]] = {}
        for worker_id in available_workers:
            distances = self.distance_row(worker_id).copy()
            answered = self.answered_columns(worker_id, answers)
            distances[answered] = np.inf
            k = min(h, len(task_ids) - answered.size)
            if k <= 0:
                assignment[worker_id] = []
                continue
            # Every task among the k first by (distance, id) lies within the
            # k-th smallest distance; ties there are broken by id.
            kth = np.partition(distances, k - 1)[k - 1]
            near = np.flatnonzero(distances <= kth).tolist()
            ranked = sorted(zip(distances[near].tolist(), (task_ids[j] for j in near)))
            assignment[worker_id] = [task_id for _, task_id in ranked[:k]]
        return assignment
