"""The RANDOM assignment baseline.

Assigns each available worker ``h`` tasks drawn uniformly at random from the
tasks that worker has not yet answered, ignoring worker quality, distance and
the current inference state.  This is the weakest baseline in the paper's
Figure 11 / Table II comparison.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.assignment import TaskAssigner
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel
from repro.utils.rng import SeedLike, default_rng


class RandomAssigner(TaskAssigner):
    """Uniformly random task assignment."""

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        seed: SeedLike = None,
        distance_model: DistanceModel | None = None,
    ) -> None:
        super().__init__(tasks, workers, distance_model)
        self._rng = default_rng(seed)

    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        self._validate_request(available_workers, h)
        assignment: dict[str, list[str]] = {}
        for worker_id in available_workers:
            candidates = self._candidate_tasks(worker_id, answers)
            if not candidates:
                assignment[worker_id] = []
                continue
            count = min(h, len(candidates))
            chosen = self._rng.choice(len(candidates), size=count, replace=False)
            assignment[worker_id] = [candidates[i] for i in sorted(chosen)]
        return assignment
