"""Uncertainty-first assignment baseline (an extension beyond the paper).

The paper's related work discusses entropy-style task selection (Liu et al.,
CDAS): give arriving workers the tasks whose current inference is most
uncertain, regardless of who the worker is.  It is a natural middle ground
between Random (ignores everything) and AccOpt (models the worker's expected
contribution), and the ablation benchmarks use it to quantify how much of
AccOpt's gain comes from modelling *workers* rather than just prioritising
uncertain *tasks*.

Uncertainty of a task is the summed Bernoulli entropy of its label
probabilities under the latest inference parameters; unanswered tasks have
maximal entropy and are therefore explored first.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.assignment import TaskAssigner
from repro.core.params import ArrayParameterStore
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel


def bernoulli_entropy(p: float) -> float:
    """Entropy (nats) of a Bernoulli(p) variable; 0 at p in {0, 1}, max at 0.5."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


class UncertaintyFirstAssigner(TaskAssigner):
    """Assign each worker the tasks with the most uncertain current inference."""

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        parameters: ArrayParameterStore | None = None,
        distance_model: DistanceModel | None = None,
    ) -> None:
        super().__init__(tasks, workers, distance_model)
        self._parameters = parameters or ArrayParameterStore.empty()

    @property
    def parameters(self) -> ArrayParameterStore:
        return self._parameters

    def update_parameters(self, parameters: ArrayParameterStore) -> None:
        self._parameters = parameters

    def task_uncertainty(self, task_id: str) -> float:
        """Summed label entropy of ``task_id`` under the current parameters."""
        task = self._tasks[task_id]
        params = self._parameters.task(task_id, num_labels=task.num_labels)
        return float(sum(bernoulli_entropy(float(p)) for p in params.label_probs))

    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        self._validate_request(available_workers, h)
        # Uncertainty is worker-independent, so rank tasks once per call and
        # hand every worker the most uncertain tasks they have not answered.
        # Within a round, spread the load: each pick bumps a task's assignment
        # count so two workers in the same batch don't pile onto one task when
        # equally uncertain alternatives exist.
        uncertainty = {task_id: self.task_uncertainty(task_id) for task_id in self._tasks}
        round_load: dict[str, int] = {task_id: 0 for task_id in self._tasks}

        assignment: dict[str, list[str]] = {}
        for worker_id in available_workers:
            candidates = self._candidate_tasks(worker_id, answers)
            ranked = sorted(
                candidates,
                key=lambda task_id: (
                    round_load[task_id],
                    -uncertainty[task_id],
                    task_id,
                ),
            )
            chosen = ranked[: min(h, len(ranked))]
            for task_id in chosen:
                round_load[task_id] += 1
            assignment[worker_id] = chosen
        return assignment
