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

import numpy as np

from repro.core.params import ArrayParameterStore
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel, normalised_distance_rows
from repro.spatial.geometry import points_to_arrays

#: The answered columns of a worker with no answered task in the universe.
_NO_COLUMNS = np.empty(0, dtype=np.intp)


class TaskAssigner(ABC):
    """A strategy that assigns ``h`` tasks to each available worker.

    Implementations must never assign a task the worker has already answered
    (the platform refuses duplicate completions) and must not assign the same
    task twice to one worker within a single call.

    Every strategy keeps its tasks in one column order (:attr:`task_order`)
    with their coordinates as arrays, and the per-worker arrays a request
    reads over it: a worker's normalised distances to every task
    (:meth:`distance_row`) and the columns of the tasks the worker answered
    (:meth:`answered_columns`).  The serving frontend's trust probe reads
    both through the strategy it serves.
    """

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        distance_model: DistanceModel | None = None,
    ) -> None:
        if not tasks:
            raise ValueError("an assigner needs at least one task")
        if not workers:
            raise ValueError("an assigner needs at least one worker")
        self._tasks = {task.task_id: task for task in tasks}
        self._workers = {worker.worker_id: worker for worker in workers}
        self._excluded_workers: frozenset[str] = frozenset()
        self._distance_model = distance_model
        # Columns: sorted ids at construction, then tasks in arrival order.
        self._task_ids: list[str] = sorted(self._tasks)
        self._task_column = {tid: j for j, tid in enumerate(self._task_ids)}
        self._task_x, self._task_y = points_to_arrays(
            [self._tasks[tid].location for tid in self._task_ids]
        )
        # Per worker, ``(buffer, size, pairs)``: the answered columns fill
        # ``buffer[:size]`` and cover the worker's first ``pairs`` pairs of
        # ``_answered_log`` (held by reference, compared with ``is``).
        self._answered: dict[str, tuple[np.ndarray, int, int]] = {}
        self._answered_log: AnswerSet | None = None

    @property
    def task_order(self) -> list[str]:
        """Task ids by column: sorted at construction, then in arrival order.

        The order of :meth:`distance_row` and :meth:`answered_columns`.  The
        list itself, not a copy: read it, never change it.
        """
        return self._task_ids

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
        self._task_column[task.task_id] = len(self._task_ids)
        self._task_ids.append(task.task_id)
        self._task_x = np.append(self._task_x, task.location.x)
        self._task_y = np.append(self._task_y, task.location.y)
        # A worker may have answered the task before it joined: recount.
        self._answered = {}
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

    def update_parameters(self, parameters: ArrayParameterStore) -> None:
        """Receive the latest inference parameters.

        The framework passes the inference model's estimate, the serving
        frontend each published snapshot's frozen store; entities the store
        lacks get the footnote-3 priors.  The framework's estimate may be
        the incremental updater's live store, which changes in place: it
        calls this again after every inference update, and an assigner reads
        the values it needs no earlier than the next request.  The default
        is a no-op; parameter-aware assigners (AccOpt, uncertainty-first)
        override it.
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

    # ----------------------------------------------------- per-worker arrays
    def distance_row(self, worker_id: str) -> np.ndarray:
        """Normalised distances from ``worker_id`` to every task, by column.

        A fresh row from the kept task coordinates
        (:func:`~repro.spatial.distance.normalised_distance_rows`); AccOpt's
        dense engine returns its cached row instead, so treat the result as
        read-only.
        """
        return self._distances_from(worker_id, 0)

    def _distances_from(self, worker_id: str, start: int) -> np.ndarray:
        """:meth:`distance_row` over the columns from ``start`` on."""
        if self._distance_model is None:
            raise ValueError(f"{type(self).__name__} has no distance_model")
        return normalised_distance_rows(
            [self._workers[worker_id].locations],
            self._task_x[start:],
            self._task_y[start:],
            self._distance_model,
        )[0]

    def answered_columns(self, worker_id: str, answers: AnswerSet) -> np.ndarray:
        """The columns of the tasks ``worker_id`` answered in ``answers``.

        Kept per worker and advanced by the worker's pairs that ``answers``
        gained since the last call
        (:meth:`~repro.data.models.AnswerSet.worker_tasks_since`), so a
        request costs O(new pairs); rebuilt for an answer set other than the
        one read last, and after :meth:`add_task`.  Each column appears once,
        in first-answer order; the result is a view, so read it, never
        change it.
        """
        if answers is not self._answered_log:
            self._answered_log, self._answered = answers, {}
        buffer, size, pairs = self._answered.get(worker_id, (_NO_COLUMNS, 0, 0))
        new_tasks = answers.worker_tasks_since(worker_id, pairs)
        if new_tasks:
            column_of = self._task_column.get
            found = [j for tid in new_tasks if (j := column_of(tid)) is not None]
            if size + len(found) > buffer.size:  # doubling: amortised O(new)
                grown = np.empty(2 * (size + len(found)), dtype=np.intp)
                grown[:size] = buffer[:size]
                buffer = grown
            buffer[size : size + len(found)] = found
            size += len(found)
            self._answered[worker_id] = (buffer, size, pairs + len(new_tasks))
        return buffer[:size]

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
