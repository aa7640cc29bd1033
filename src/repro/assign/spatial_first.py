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

from repro.core.assignment import TaskAssigner
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel


class SpatialFirstAssigner(TaskAssigner):
    """Closest-task-first assignment."""

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        distance_model: DistanceModel,
    ) -> None:
        super().__init__(tasks, workers, distance_model)
        # Distances are deterministic per (worker, task); cache them because the
        # same worker typically shows up in many assignment rounds.
        self._distance_cache: dict[tuple[str, str], float] = {}

    def _distance(self, worker_id: str, task_id: str) -> float:
        key = (worker_id, task_id)
        cached = self._distance_cache.get(key)
        if cached is not None:
            return cached
        worker = self._workers[worker_id]
        task = self._tasks[task_id]
        value = self._distance_model.worker_task_distance(
            worker.locations, task.location
        )
        self._distance_cache[key] = value
        return value

    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        self._validate_request(available_workers, h)
        assignment: dict[str, list[str]] = {}
        for worker_id in available_workers:
            candidates = self._candidate_tasks(worker_id, answers)
            ranked = sorted(
                candidates, key=lambda task_id: (self._distance(worker_id, task_id), task_id)
            )
            assignment[worker_id] = ranked[: min(h, len(ranked))]
        return assignment
