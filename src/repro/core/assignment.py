"""The task-assigner interface shared by every assignment strategy.

Section IV of the paper formulates the optimal task assignment problem: given
the set ``W`` of currently available workers and a per-worker HIT size ``h``,
choose ``A(W)`` maximising the total expected accuracy improvement
``Σ_t Σ_k ΔAcc_{t,k}(Ŵ(t))``.  :class:`TaskAssigner` is the contract every
strategy in :mod:`repro.assign` implements — the paper's AccOpt greedy
algorithm (:class:`~repro.assign.accopt.AccOptAssigner`, which scores
candidates through the batched :mod:`repro.core.accuracy_kernel`) as well as
the Random, Spatial-First and Uncertainty-First baselines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.params import ArrayParameterStore, ModelParameters
from repro.data.models import AnswerSet, Task, Worker


class TaskAssigner(ABC):
    """A strategy that assigns ``h`` tasks to each available worker.

    Implementations must never assign a task the worker has already answered
    (the platform refuses duplicate completions) and must not assign the same
    task twice to one worker within a single call.
    """

    def __init__(self, tasks: list[Task], workers: list[Worker]) -> None:
        if not tasks:
            raise ValueError("an assigner needs at least one task")
        if not workers:
            raise ValueError("an assigner needs at least one worker")
        self._tasks = {task.task_id: task for task in tasks}
        self._workers = {worker.worker_id: worker for worker in workers}
        self._excluded_workers: frozenset[str] = frozenset()

    @property
    def tasks(self) -> dict[str, Task]:
        return dict(self._tasks)

    @property
    def workers(self) -> dict[str, Worker]:
        return dict(self._workers)

    # --------------------------------------------------------- open-world growth
    def add_task(self, task: Task) -> bool:
        """Register a task posted after construction (open-world arrival).

        Returns ``True`` if the task was new.  Strategies that precompute
        task-side structures extend them via the :meth:`_on_task_added` hook.
        """
        if task.task_id in self._tasks:
            return False
        self._tasks[task.task_id] = task
        self._on_task_added(task)
        return True

    def add_worker(self, worker: Worker) -> bool:
        """Register a worker who joined after construction (open-world arrival)."""
        if worker.worker_id in self._workers:
            return False
        self._workers[worker.worker_id] = worker
        self._on_worker_added(worker)
        return True

    def _on_task_added(self, task: Task) -> None:
        """Hook for strategies with task-side caches; default no-op."""

    def _on_worker_added(self, worker: Worker) -> None:
        """Hook for strategies with worker-side caches; default no-op."""

    def update_parameters(
        self, parameters: ModelParameters | ArrayParameterStore
    ) -> None:
        """Receive the latest inference parameters.

        ``parameters`` is the id-keyed
        :class:`~repro.core.params.ModelParameters` (the framework passes the
        inference's) or an :class:`~repro.core.params.ArrayParameterStore`
        (the serving frontend passes each published snapshot's frozen store);
        entities it lacks get the footnote-3 priors.  The default is a no-op;
        parameter-aware assigners (AccOpt, uncertainty-first) override it.
        It is called after every inference update so the assigner always
        works with fresh worker qualities and POI influences.
        """

    # -------------------------------------------------------- trust exclusion
    @property
    def excluded_workers(self) -> frozenset[str]:
        """Workers currently barred from receiving assignments."""
        return self._excluded_workers

    def set_excluded_workers(self, worker_ids) -> None:
        """Replace the set of workers this assigner must not assign to.

        The serving layer pushes quarantined workers here whenever the
        reputation tiers change; excluded workers passed to :meth:`assign`
        receive an empty HIT instead of raising, so a request racing a
        quarantine transition degrades gracefully.
        """
        self._excluded_workers = frozenset(worker_ids)

    def _assignable_workers(self, available_workers: Sequence[str]) -> list[str]:
        """``available_workers`` minus the excluded set, order preserved."""
        if not self._excluded_workers:
            return list(available_workers)
        return [w for w in available_workers if w not in self._excluded_workers]

    @abstractmethod
    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        """Return ``{worker_id: [task_id, ...]}`` with up to ``h`` tasks per worker."""

    # ------------------------------------------------------------ shared helpers
    def _validate_request(self, available_workers: Sequence[str], h: int) -> None:
        if h <= 0:
            raise ValueError(f"h must be positive, got {h}")
        unknown = [w for w in available_workers if w not in self._workers]
        if unknown:
            raise KeyError(f"unknown workers requested tasks: {unknown}")
        if len(set(available_workers)) != len(available_workers):
            raise ValueError("available_workers must not contain duplicates")

    def _candidate_tasks(self, worker_id: str, answers: AnswerSet) -> list[str]:
        """Tasks the worker has not answered yet, in deterministic order."""
        done = answers.tasks_of_worker(worker_id)
        return [task_id for task_id in sorted(self._tasks) if task_id not in done]
