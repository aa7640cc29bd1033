"""The id-keyed parameter form: dicts of per-entity dataclasses.

The production package holds every estimate as one row-aligned
:class:`~repro.core.params.ArrayParameterStore`.  The per-record oracles
(:mod:`oracles.em`, :mod:`oracles.incremental`, :mod:`oracles.accuracy`)
keep this form as their reference: one :class:`WorkerParameters` /
:class:`TaskParameters` per id in a :class:`ModelParameters`, with the
footnote-3 priors behind the accessors and the convergence measure of
Figure 10 written one entity at a time.  :func:`store_from_model` and
:func:`model_from_store` convert between the two forms, so a test can hold
the store against this specification id by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.distance_functions import DistanceFunctionSet, PAPER_FUNCTION_SET
from repro.core.params import ArrayParameterStore
from oracles.validation import check_probability, check_probability_vector


@dataclass
class WorkerParameters:
    """Estimated parameters of one worker: ``P(i_w = 1)`` and ``P(d_w)``."""

    p_qualified: float
    distance_weights: np.ndarray

    def __post_init__(self) -> None:
        self.p_qualified = check_probability(self.p_qualified, "p_qualified")
        self.distance_weights = check_probability_vector(
            self.distance_weights, "distance_weights"
        )

    def copy(self) -> "WorkerParameters":
        return WorkerParameters(self.p_qualified, self.distance_weights.copy())


@dataclass
class TaskParameters:
    """Estimated parameters of one task: ``P(z_{t,k} = 1)`` per label and ``P(d_t)``."""

    label_probs: np.ndarray
    influence_weights: np.ndarray

    def __post_init__(self) -> None:
        self.label_probs = np.asarray(self.label_probs, dtype=float)
        if self.label_probs.ndim != 1 or self.label_probs.size == 0:
            raise ValueError(
                f"label_probs must be a non-empty vector, got shape {self.label_probs.shape}"
            )
        if np.any(self.label_probs < -1e-9) or np.any(self.label_probs > 1.0 + 1e-9):
            raise ValueError("label_probs must lie in [0, 1]")
        self.label_probs = np.clip(self.label_probs, 0.0, 1.0)
        self.influence_weights = check_probability_vector(
            self.influence_weights, "influence_weights"
        )

    @property
    def num_labels(self) -> int:
        return int(self.label_probs.size)

    def inferred_labels(self, threshold: float = 0.5) -> np.ndarray:
        """Binary decision per label: correct iff ``P(z=1) >= threshold``."""
        return (self.label_probs >= threshold).astype(int)

    def copy(self) -> "TaskParameters":
        return TaskParameters(self.label_probs.copy(), self.influence_weights.copy())


def _trusted_worker_parameters(
    p_qualified: float, distance_weights: np.ndarray
) -> WorkerParameters:
    """Build :class:`WorkerParameters` without re-validating the inputs.

    Only for values that already satisfy the invariants by construction (the
    EM kernels clip probabilities and renormalise weight rows); skipping
    ``__post_init__`` keeps the array→dict conversion out of the profile when
    a fit materialises thousands of entities.
    """
    params = object.__new__(WorkerParameters)
    params.p_qualified = float(p_qualified)
    params.distance_weights = distance_weights
    return params


def _trusted_task_parameters(
    label_probs: np.ndarray, influence_weights: np.ndarray
) -> TaskParameters:
    """Build :class:`TaskParameters` without re-validating the inputs."""
    params = object.__new__(TaskParameters)
    params.label_probs = label_probs
    params.influence_weights = influence_weights
    return params


@dataclass
class ModelParameters:
    """All estimated parameters of the location-aware inference model."""

    function_set: DistanceFunctionSet = field(default_factory=lambda: PAPER_FUNCTION_SET)
    alpha: float = 0.5
    workers: dict[str, WorkerParameters] = field(default_factory=dict)
    tasks: dict[str, TaskParameters] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    # --------------------------------------------------------------- accessors
    def worker(self, worker_id: str) -> WorkerParameters:
        """Parameters of ``worker_id``; unseen workers get the footnote-3 prior.

        A brand-new worker is optimistically assumed to be fully qualified with
        all mass on the flattest distance function, so that the assigner
        prioritises them and their real quality is learned quickly.
        """
        params = self.workers.get(worker_id)
        if params is not None:
            return params
        return WorkerParameters(
            p_qualified=1.0,
            distance_weights=self.function_set.best_quality_weights(),
        )

    def task(self, task_id: str, num_labels: int | None = None) -> TaskParameters:
        """Parameters of ``task_id``; unseen tasks get uninformative labels and
        the footnote-3 best-influence prior."""
        params = self.tasks.get(task_id)
        if params is not None:
            return params
        if num_labels is None:
            raise KeyError(
                f"task {task_id!r} has no estimated parameters and num_labels was "
                "not provided to build a prior"
            )
        return TaskParameters(
            label_probs=np.full(num_labels, 0.5),
            influence_weights=self.function_set.best_quality_weights(),
        )

    def has_worker(self, worker_id: str) -> bool:
        return worker_id in self.workers

    def has_task(self, task_id: str) -> bool:
        return task_id in self.tasks

    # ------------------------------------------------------- derived quantities
    def worker_distance_quality(self, worker_id: str, distance: float) -> float:
        """Distance-aware quality ``DQ_w`` at ``distance`` (Definition 5)."""
        params = self.worker(worker_id)
        return self.function_set.weighted_quality(params.distance_weights, distance)

    def poi_influence_quality(self, task_id: str, distance: float) -> float:
        """POI-influence quality ``IQ_t`` at ``distance`` (Definition 6)."""
        params = self.task(task_id, num_labels=1)
        return self.function_set.weighted_quality(params.influence_weights, distance)

    def qualified_answer_accuracy(
        self, worker_id: str, task_id: str, distance: float
    ) -> float:
        """``P(r = z | i_w = 1)`` — Equation 8's linear combination."""
        return (
            self.alpha * self.worker_distance_quality(worker_id, distance)
            + (1.0 - self.alpha) * self.poi_influence_quality(task_id, distance)
        )

    def answer_accuracy(self, worker_id: str, task_id: str, distance: float) -> float:
        """``P(r_{w,t,k} = z_{t,k})`` — Equation 9.

        The probability that the worker's answer on any label of the task
        agrees with the (unknown) truth, marginalised over the worker being
        qualified or not.
        """
        p_qualified = self.worker(worker_id).p_qualified
        qualified = self.qualified_answer_accuracy(worker_id, task_id, distance)
        return p_qualified * qualified + (1.0 - p_qualified) * 0.5

    # ------------------------------------------------------------------- misc
    def copy(self) -> "ModelParameters":
        return ModelParameters(
            function_set=self.function_set,
            alpha=self.alpha,
            workers={wid: params.copy() for wid, params in self.workers.items()},
            tasks={tid: params.copy() for tid, params in self.tasks.items()},
        )

    def to_array_store(
        self,
        worker_ids: Sequence[str],
        task_ids: Sequence[str],
        num_labels: Sequence[int],
    ) -> "ArrayParameterStore":
        """Flatten into an :class:`ArrayParameterStore` over the given index maps.

        Entities missing from this estimate receive the same footnote-3 priors
        that :meth:`worker` and :meth:`task` fall back to, so the array view is
        exactly what the per-record EM engine would read through the accessors.
        """
        return store_from_model(self, worker_ids, task_ids, num_labels)

    def max_difference(self, other: "ModelParameters") -> float:
        """Maximum absolute parameter change between two estimates.

        This is the "maximum variance of parameters" convergence criterion the
        paper plots in Figure 10.  Workers or tasks present in only one of the
        two estimates contribute their full parameter magnitude.
        """
        worst = 0.0
        worker_ids = set(self.workers) | set(other.workers)
        for worker_id in worker_ids:
            a = self.worker(worker_id)
            b = other.worker(worker_id)
            worst = max(worst, abs(a.p_qualified - b.p_qualified))
            worst = max(worst, float(np.max(np.abs(a.distance_weights - b.distance_weights))))
        task_ids = set(self.tasks) | set(other.tasks)
        for task_id in task_ids:
            if task_id in self.tasks and task_id in other.tasks:
                a_t = self.tasks[task_id]
                b_t = other.tasks[task_id]
                if a_t.num_labels == b_t.num_labels:
                    worst = max(worst, float(np.max(np.abs(a_t.label_probs - b_t.label_probs))))
                else:
                    worst = 1.0
                worst = max(
                    worst,
                    float(np.max(np.abs(a_t.influence_weights - b_t.influence_weights))),
                )
            else:
                worst = 1.0
        return worst


def store_from_model(
    params: ModelParameters,
    worker_ids: Sequence[str],
    task_ids: Sequence[str],
    num_labels: Sequence[int],
) -> ArrayParameterStore:
    """Gather ``params`` into arrays over the given worker/task orderings.

    Uses the :meth:`ModelParameters.worker` / :meth:`ModelParameters.task`
    accessors, so entities absent from ``params`` (e.g. when warm-starting
    from a smaller corpus) are seeded with the same footnote-3 priors the
    per-record engine would see.
    """
    function_count = len(params.function_set)
    worker_count = len(worker_ids)
    task_count = len(task_ids)
    counts = np.asarray(num_labels, dtype=np.intp)
    if counts.shape != (task_count,):
        raise ValueError(
            f"num_labels must align with task_ids: {counts.shape} vs {task_count}"
        )
    label_offsets = np.concatenate(([0], np.cumsum(counts)))

    workers = [params.worker(worker_id) for worker_id in worker_ids]
    p_qualified = np.fromiter(
        (worker.p_qualified for worker in workers), dtype=float, count=worker_count
    )
    distance_weights = np.array(
        [worker.distance_weights for worker in workers], dtype=float
    ).reshape(worker_count, function_count)

    tasks = [
        params.task(task_id, num_labels=int(count))
        for task_id, count in zip(task_ids, counts)
    ]
    sizes = np.fromiter(
        (task.label_probs.size for task in tasks), dtype=np.intp, count=task_count
    )
    if np.any(sizes != counts):
        j = int(np.flatnonzero(sizes != counts)[0])
        raise ValueError(
            f"task {task_ids[j]!r} has {int(sizes[j])} estimated labels, "
            f"expected {int(counts[j])}"
        )
    influence_weights = np.array(
        [task.influence_weights for task in tasks], dtype=float
    ).reshape(task_count, function_count)
    label_probs = np.concatenate([np.empty(0)] + [t.label_probs for t in tasks])

    return ArrayParameterStore(
        function_set=params.function_set,
        alpha=params.alpha,
        worker_ids=tuple(worker_ids),
        task_ids=tuple(task_ids),
        label_offsets=label_offsets,
        p_qualified=p_qualified,
        distance_weights=distance_weights,
        influence_weights=influence_weights,
        label_probs=label_probs,
    )


def model_from_store(store: ArrayParameterStore) -> ModelParameters:
    """Expand a store into the dict-of-dataclasses :class:`ModelParameters`.

    The store's invariants (probabilities in [0, 1], weight rows summing to
    one) are maintained by the EM kernels, so the per-entity containers are
    built through the trusted constructors instead of re-validating
    thousands of small arrays.
    """
    workers = {
        worker_id: _trusted_worker_parameters(
            store.p_qualified[i], store.distance_weights[i].copy()
        )
        for i, worker_id in enumerate(store.worker_ids)
    }
    tasks = {
        task_id: _trusted_task_parameters(
            store.label_probs[store.task_label_slice(j)].copy(),
            store.influence_weights[j].copy(),
        )
        for j, task_id in enumerate(store.task_ids)
    }
    return ModelParameters(
        function_set=store.function_set,
        alpha=store.alpha,
        workers=workers,
        tasks=tasks,
    )
