"""Core data model: POIs, tasks, workers, answers and answer sets.

These classes mirror Section II of the paper:

* a **task** ``t = {O_t, L_t}`` couples a POI with a candidate label set where
  each label has an unknown binary truth value;
* a **worker** ``w`` declares one or more locations (home, office, interest
  zones) — distances are taken as the minimum over those locations;
* an **answer** ``R(w, t)`` is the worker's binary vector over the task's
  labels (ticked = 1, not ticked = 0);
* the **answer set** ``R`` is the growing log of all submitted answers; the
  inference models read it, and the task assigners consult it to know which
  workers already answered which tasks (``W(t)`` and ``T(w)`` in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.spatial.geometry import GeoPoint


@dataclass(frozen=True)
class POI:
    """A point of interest: a name, a location and a popularity proxy.

    ``review_count`` plays the role of the Dianping review count the paper uses
    to bucket POIs by influence in Figure 8; it is *not* visible to the
    inference algorithms, only to the analysis code and the answer simulator.
    """

    poi_id: str
    name: str
    location: GeoPoint
    category: str = "generic"
    review_count: int = 0

    def __post_init__(self) -> None:
        if not self.poi_id:
            raise ValueError("poi_id must be non-empty")
        if self.review_count < 0:
            raise ValueError(f"review_count must be non-negative, got {self.review_count}")


@dataclass(frozen=True)
class Task:
    """A POI labelling task: a POI plus its candidate labels and ground truth.

    ``truth`` is only consulted by the evaluation metrics and the answer
    simulator — the inference and assignment code never reads it.
    """

    task_id: str
    poi: POI
    labels: tuple[str, ...]
    truth: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if len(self.labels) == 0:
            raise ValueError("a task needs at least one candidate label")
        if len(self.labels) != len(self.truth):
            raise ValueError(
                f"labels and truth must align: {len(self.labels)} vs {len(self.truth)}"
            )
        if any(value not in (0, 1) for value in self.truth):
            raise ValueError(f"truth values must be 0/1, got {self.truth}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"candidate labels must be unique, got {self.labels}")

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def location(self) -> GeoPoint:
        return self.poi.location

    @property
    def correct_labels(self) -> tuple[str, ...]:
        """The candidate labels whose ground truth is 1."""
        return tuple(
            label for label, value in zip(self.labels, self.truth) if value == 1
        )


@dataclass(frozen=True)
class Worker:
    """A crowd worker with one or more declared locations."""

    worker_id: str
    locations: tuple[GeoPoint, ...]

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ValueError("worker_id must be non-empty")
        if len(self.locations) == 0:
            raise ValueError("a worker must declare at least one location")

    @property
    def primary_location(self) -> GeoPoint:
        return self.locations[0]


@dataclass(frozen=True)
class Answer:
    """One worker's answer vector for one task."""

    worker_id: str
    task_id: str
    responses: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.responses) == 0:
            raise ValueError("an answer must cover at least one label")
        if any(value not in (0, 1) for value in self.responses):
            raise ValueError(f"responses must be 0/1, got {self.responses}")

    @property
    def num_labels(self) -> int:
        return len(self.responses)

    def accuracy_against(self, truth: Sequence[int]) -> float:
        """Fraction of labels answered in agreement with ``truth``."""
        if len(truth) != len(self.responses):
            raise ValueError(
                f"truth length {len(truth)} does not match answer length "
                f"{len(self.responses)}"
            )
        matches = sum(1 for r, z in zip(self.responses, truth) if r == z)
        return matches / len(self.responses)


@dataclass(frozen=True)
class Assignment:
    """A record that ``task_id`` was assigned to ``worker_id`` (one HIT slot)."""

    worker_id: str
    task_id: str
    round_index: int = 0


class AnswerSet:
    """The growing log of answers ``R`` with the paper's index structures.

    Maintains ``W(t)`` (workers who answered task ``t``) and ``T(w)`` (tasks
    answered by worker ``w``) incrementally so both the EM inference and the
    assignment algorithms can consult them in O(1).

    (worker, task) pairs only ever append, in first-answer order: a
    re-answer replaces the pair's answer but adds no pair, and nothing is
    removed.  So ``len(answers)`` counts the pairs and
    :meth:`answer_count_of_worker` a worker's, and a reader that has seen
    the first ``n`` pairs catches up on the rest alone — the whole log's
    through :meth:`pair_tasks_since`, one worker's through
    :meth:`worker_tasks_since`.
    """

    def __init__(self, answers: Iterable[Answer] = ()) -> None:
        self._answers: dict[tuple[str, str], Answer] = {}
        self._workers_by_task: dict[str, set[str]] = {}
        # Each worker's tasks, and the task of each pair, in first-answer order.
        self._tasks_by_worker: dict[str, list[str]] = {}
        self._pair_tasks: list[str] = []
        for answer in answers:
            self.add(answer)

    def __len__(self) -> int:
        return len(self._answers)

    def __iter__(self) -> Iterator[Answer]:
        return iter(self._answers.values())

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._answers

    def add(self, answer: Answer) -> None:
        """Record ``answer``; re-answering the same (worker, task) pair replaces it."""
        key = (answer.worker_id, answer.task_id)
        if key not in self._answers:
            worker_id, task_id = key
            self._pair_tasks.append(task_id)
            self._workers_by_task.setdefault(task_id, set()).add(worker_id)
            self._tasks_by_worker.setdefault(worker_id, []).append(task_id)
        self._answers[key] = answer

    def get(self, worker_id: str, task_id: str) -> Optional[Answer]:
        return self._answers.get((worker_id, task_id))

    def workers_of_task(self, task_id: str) -> frozenset[str]:
        """``W(t)``: the workers who have answered ``task_id``."""
        return frozenset(self._workers_by_task.get(task_id, ()))

    def tasks_of_worker(self, worker_id: str) -> frozenset[str]:
        """``T(w)``: the tasks answered by ``worker_id``."""
        return frozenset(self._tasks_by_worker.get(worker_id, ()))

    def answers_of_task(self, task_id: str) -> list[Answer]:
        return [
            self._answers[(worker_id, task_id)]
            for worker_id in sorted(self._workers_by_task.get(task_id, ()))
        ]

    def answers_of_worker(self, worker_id: str) -> list[Answer]:
        return [
            self._answers[(worker_id, task_id)]
            for task_id in sorted(self._tasks_by_worker.get(worker_id, ()))
        ]

    def worker_ids(self) -> list[str]:
        return sorted(self._tasks_by_worker)

    def task_ids(self) -> list[str]:
        return sorted(self._workers_by_task)

    def answer_count_of_task(self, task_id: str) -> int:
        return len(self._workers_by_task.get(task_id, ()))

    def answer_count_of_worker(self, worker_id: str) -> int:
        """``|T(w)|``, without copying the worker's tasks."""
        return len(self._tasks_by_worker.get(worker_id, ()))

    def pair_tasks_since(self, position: int) -> list[str]:
        """The task of every (worker, task) pair after the first ``position``.

        In first-answer order, one entry per pair: adding 1 to ``|W(t)|``
        for each entry moves counts taken at ``len(answers) == position`` to
        the current log.
        """
        return self._pair_tasks[position:]

    def worker_tasks_since(self, worker_id: str, position: int) -> list[str]:
        """The tasks of ``worker_id``'s pairs after their first ``position``.

        In first-answer order, one entry per pair: a reader that has seen
        ``answer_count_of_worker(worker_id) == position`` catches up on the
        worker's new pairs alone, at their cost.
        """
        return self._tasks_by_worker.get(worker_id, [])[position:]

    def copy(self) -> "AnswerSet":
        return AnswerSet(self._answers.values())

    @property
    def total_label_answers(self) -> int:
        """Total number of individual label responses across all answers."""
        return sum(answer.num_labels for answer in self._answers.values())


@dataclass
class Dataset:
    """A named collection of tasks and a distance normaliser hint.

    ``max_distance`` stores the raw-coordinate diameter that should be used to
    normalise worker-to-POI distances so that every consumer of the dataset
    (simulator, inference, analysis) agrees on the normalisation.
    """

    name: str
    tasks: list[Task]
    metric: str = "euclidean"
    max_distance: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a dataset needs at least one task")
        task_ids = [task.task_id for task in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("task ids must be unique within a dataset")

    def __len__(self) -> int:
        return len(self.tasks)

    def task_by_id(self, task_id: str) -> Task:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise KeyError(task_id)

    @property
    def task_index(self) -> dict[str, Task]:
        return {task.task_id: task for task in self.tasks}

    @property
    def poi_locations(self) -> list[GeoPoint]:
        return [task.location for task in self.tasks]

    @property
    def total_labels(self) -> int:
        return sum(task.num_labels for task in self.tasks)

    @property
    def total_correct_labels(self) -> int:
        return sum(sum(task.truth) for task in self.tasks)

    @property
    def total_incorrect_labels(self) -> int:
        return self.total_labels - self.total_correct_labels
