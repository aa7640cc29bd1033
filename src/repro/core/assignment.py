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
from repro.spatial.distance import DistanceModel, normalised_distance_row
from repro.spatial.geometry import points_to_arrays

#: The kept answered columns of a worker not read yet: ``(buffer, size, pairs)``.
_NO_COLUMNS = (np.empty(0, dtype=np.intp), 0, 0)


def _appended(
    kept: tuple[np.ndarray, int, int], columns: list[int], pairs: int
) -> tuple[np.ndarray, int, int]:
    """``kept`` with ``columns`` appended, now covering ``pairs`` pairs.

    The buffer doubles when full, so appends cost amortised O(new columns).
    """
    buffer, size, _ = kept
    if size + len(columns) > buffer.size:
        grown = np.empty(2 * (size + len(columns)), dtype=np.intp)
        grown[:size] = buffer[:size]
        buffer = grown
    buffer[size : size + len(columns)] = columns
    return buffer, size + len(columns), pairs


class TaskAssigner(ABC):
    """A strategy that assigns ``h`` tasks to each available worker.

    Implementations must never assign a task the worker has already answered
    (the platform refuses duplicate completions) and must not assign the same
    task twice to one worker within a single call.

    Every strategy keeps its tasks in one column order (:attr:`task_order`)
    with their coordinates as arrays, each requesting worker's declared
    locations as arrays, and the per-worker arrays a request reads over the
    columns: a worker's normalised distances to every task
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
        # Each worker's declared locations as coordinate arrays, from the
        # worker's first distance row on.
        self._locations: dict[str, tuple[np.ndarray, np.ndarray]] = {}
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
        self._extend_answered(task.task_id)
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

        A fresh row from the kept task coordinates and the worker's kept
        location arrays (:func:`~repro.spatial.distance.normalised_distance_row`:
        one metric pass over the worker's locations and the tasks, and the
        minimum over locations); AccOpt's dense engine returns its cached row
        instead, so treat the result as read-only.
        """
        return self._distances_from(worker_id, 0)

    def _distances_from(self, worker_id: str, start: int) -> np.ndarray:
        """:meth:`distance_row` over the columns from ``start`` on."""
        if self._distance_model is None:
            raise ValueError(f"{type(self).__name__} has no distance_model")
        locations = self._locations.get(worker_id)
        if locations is None:
            locations = points_to_arrays(self._workers[worker_id].locations)
            self._locations[worker_id] = locations
        return normalised_distance_row(
            *locations,
            self._task_x[start:],
            self._task_y[start:],
            self._distance_model,
        )

    def answered_columns(self, worker_id: str, answers: AnswerSet) -> np.ndarray:
        """The columns of the tasks ``worker_id`` answered in ``answers``.

        Kept per worker and advanced by the worker's pairs that ``answers``
        gained since the last call
        (:meth:`~repro.data.models.AnswerSet.worker_tasks_since`), so a
        request costs O(new pairs); rebuilt for an answer set other than the
        one read last.  :meth:`add_task` extends the kept columns of the
        workers who answered the new task before it was posted.  Each column
        appears once; the result is a view, so read it, never change it.
        """
        if answers is not self._answered_log:
            self._answered_log, self._answered = answers, {}
        kept = self._answered.get(worker_id, _NO_COLUMNS)
        buffer, size, pairs = kept
        new_tasks = answers.worker_tasks_since(worker_id, pairs)
        if new_tasks:
            found = list(map(self._task_column.get, new_tasks))
            if None in found:  # a task outside the universe
                found = [j for j in found if j is not None]
            kept = _appended(kept, found, pairs + len(new_tasks))
            buffer, size, _ = self._answered[worker_id] = kept
        return buffer[:size]

    def _extend_answered(self, task_id: str) -> None:
        """Give the new column of ``task_id`` to the kept columns of the
        workers whose counted pairs include it (answered before it was
        posted); a later pair maps to the column when it is read."""
        log = self._answered_log
        if log is None:
            return
        column = self._task_column[task_id]
        for worker_id in log.workers_of_task(task_id):
            kept = self._answered.get(worker_id)
            if kept is not None and task_id not in log.worker_tasks_since(
                worker_id, kept[2]
            ):
                self._answered[worker_id] = _appended(kept, [column], kept[2])

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
