"""Containers for the inference model's parameters.

The graphical model of Section III has four groups of parameters:

* ``P(z_{t,k} = 1)`` — per task ``t`` and label index ``k``, the probability the
  label is a correct label of the POI (:class:`TaskParameters.label_probs`);
* ``P(d_t)``        — per task, the multinomial weights over the
  distance-function set representing the POI's influence
  (:class:`TaskParameters.influence_weights`);
* ``P(i_w = 1)``    — per worker, the probability the worker is qualified
  (:class:`WorkerParameters.p_qualified`);
* ``P(d_w)``        — per worker, the multinomial weights representing the
  worker's distance sensitivity (:class:`WorkerParameters.distance_weights`).

:class:`ModelParameters` bundles them with the distance-function set and offers
the derived quantities every consumer needs: the distance-aware quality
(Definition 5), the POI influence quality (Definition 6) and the answer
accuracy ``P(r_{w,t,k} = z_{t,k})`` (Equation 9).

:class:`ArrayParameterStore` is the flat, array-backed twin used by the
vectorised EM engine (:mod:`repro.core.em_kernel`): the same four parameter
groups stored as contiguous NumPy arrays over integer worker/task indices, with
lossless conversion to and from :class:`ModelParameters` at the fit boundary so
every existing consumer keeps the dict-of-dataclasses API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.distance_functions import DistanceFunctionSet, PAPER_FUNCTION_SET
from repro.utils.validation import check_probability, check_probability_vector


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
        return ArrayParameterStore.from_model(self, worker_ids, task_ids, num_labels)

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


@dataclass(frozen=True)
class StoreDelta:
    """The dirty rows of an :class:`ArrayParameterStore` since a known base.

    A delta captures copies of only the worker/task rows (and the tasks' flat
    label slots) that changed between two versions of a store over the *same*
    entity universe — the serving layer's O(changed) publish currency:
    instead of copying the full store per snapshot, the incremental updater
    emits one delta per micro-batch and the snapshot layer applies it onto the
    previous version's immutable base (copy-on-write at row granularity).
    ``num_workers`` / ``num_tasks`` stamp the universe the delta belongs to so
    an application onto a mismatched base fails loudly.
    """

    worker_rows: np.ndarray
    p_qualified: np.ndarray
    distance_weights: np.ndarray
    task_rows: np.ndarray
    influence_weights: np.ndarray
    label_slots: np.ndarray
    label_probs: np.ndarray
    num_workers: int
    num_tasks: int

    @property
    def changed_rows(self) -> int:
        """Total dirty rows carried (worker rows + task rows)."""
        return int(self.worker_rows.size + self.task_rows.size)

    def apply(self, store: "ArrayParameterStore") -> "ArrayParameterStore":
        """Patch the dirty rows into ``store`` (unfrozen, same universe).

        Validates row/slot bounds and carried-array shapes against the base
        before touching it, so a delta recorded against a different store (a
        corrupted or mis-sequenced chain) fails loudly instead of scribbling
        over the wrong rows.
        """
        if store.num_workers != self.num_workers or store.num_tasks != self.num_tasks:
            raise ValueError(
                f"delta over {self.num_workers} workers / {self.num_tasks} tasks "
                f"cannot apply to a store with {store.num_workers} / {store.num_tasks}"
            )
        if self.worker_rows.size and (
            int(self.worker_rows.min()) < 0
            or int(self.worker_rows.max()) >= store.num_workers
        ):
            raise ValueError(
                f"delta worker rows {self.worker_rows.min()}..{self.worker_rows.max()} "
                f"fall outside the base store's {store.num_workers} worker rows"
            )
        if self.task_rows.size and (
            int(self.task_rows.min()) < 0
            or int(self.task_rows.max()) >= store.num_tasks
        ):
            raise ValueError(
                f"delta task rows {self.task_rows.min()}..{self.task_rows.max()} "
                f"fall outside the base store's {store.num_tasks} task rows"
            )
        if self.label_slots.size and (
            int(self.label_slots.min()) < 0
            or int(self.label_slots.max()) >= store.num_label_slots
        ):
            raise ValueError(
                f"delta label slots {self.label_slots.min()}..{self.label_slots.max()} "
                f"fall outside the base store's {store.num_label_slots} label slots"
            )
        if (
            self.p_qualified.shape != self.worker_rows.shape
            or self.distance_weights.shape[:1] != self.worker_rows.shape
            or self.influence_weights.shape[:1] != self.task_rows.shape
            or self.label_probs.shape != self.label_slots.shape
        ):
            raise ValueError(
                "delta value arrays do not align with their row/slot indexes "
                f"(workers {self.worker_rows.shape[0]}, "
                f"p_qualified {self.p_qualified.shape[0]}, "
                f"distance_weights {self.distance_weights.shape[0]}; "
                f"tasks {self.task_rows.shape[0]}, "
                f"influence_weights {self.influence_weights.shape[0]}; "
                f"label slots {self.label_slots.shape[0]}, "
                f"label_probs {self.label_probs.shape[0]})"
            )
        store.p_qualified[self.worker_rows] = self.p_qualified
        store.distance_weights[self.worker_rows] = self.distance_weights
        store.influence_weights[self.task_rows] = self.influence_weights
        store.label_probs[self.label_slots] = self.label_probs
        return store


def _grown_buffer(buffer: np.ndarray, needed: int) -> np.ndarray:
    """Return ``buffer`` or a capacity-doubled replacement holding ``needed`` rows.

    The logical prefix is copied over; trailing capacity is uninitialised.
    Doubling keeps a sequence of appends amortized O(1) per appended row.
    """
    capacity = buffer.shape[0]
    if needed <= capacity:
        return buffer
    new_capacity = max(needed, 2 * capacity, 8)
    grown = np.empty((new_capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    grown[:capacity] = buffer
    return grown


class ArrayParameterStore:
    """Flat array-backed storage of all model parameters.

    The vectorised EM engine works on integer indices instead of id strings:
    worker ``i`` of :attr:`worker_ids` owns row ``i`` of :attr:`p_qualified`
    and :attr:`distance_weights`, task ``j`` owns row ``j`` of
    :attr:`influence_weights` and the slice
    ``label_probs[label_offsets[j]:label_offsets[j + 1]]`` of the ragged label
    storage.  All arrays are dense ``float64`` so one EM iteration is a handful
    of fused NumPy kernels rather than a Python loop.

    The store is **open-world**: :meth:`add_worker` and :meth:`add_task` admit
    entities unseen at construction time in amortized O(1), backed by
    capacity-doubling buffers (the array attributes are views of the logical
    prefix, so every consumer keeps seeing exactly-sized arrays).  Unless
    explicit values are supplied, admitted entities receive the paper's
    footnote-3 trusted priors — the same fallback
    :meth:`ModelParameters.worker` / :meth:`ModelParameters.task` apply.
    """

    def __init__(
        self,
        function_set: DistanceFunctionSet,
        alpha: float,
        worker_ids: Sequence[str],
        task_ids: Sequence[str],
        label_offsets: np.ndarray,
        p_qualified: np.ndarray,
        distance_weights: np.ndarray,
        influence_weights: np.ndarray,
        label_probs: np.ndarray,
    ) -> None:
        self.function_set = function_set
        self.alpha = alpha
        self._worker_ids = list(worker_ids)
        self._task_ids = list(task_ids)
        self._label_offsets = np.asarray(label_offsets)
        self._p_qualified = np.asarray(p_qualified)
        self._distance_weights = np.asarray(distance_weights)
        self._influence_weights = np.asarray(influence_weights)
        self._label_probs = np.asarray(label_probs)
        self._num_label_slots = int(self._label_offsets[-1]) if self._label_offsets.size else 0
        # Lazy caches: id tuples and id -> index maps, rebuilt on demand.
        self._worker_ids_cache: tuple[str, ...] | None = None
        self._task_ids_cache: tuple[str, ...] | None = None
        self._worker_index: dict[str, int] | None = None
        self._task_index: dict[str, int] | None = None
        self._frozen = False

    def __repr__(self) -> str:
        return (
            f"ArrayParameterStore(workers={self.num_workers}, "
            f"tasks={self.num_tasks}, label_slots={self.num_label_slots})"
        )

    # ------------------------------------------------------------- properties
    @property
    def worker_ids(self) -> tuple[str, ...]:
        if self._worker_ids_cache is None:
            self._worker_ids_cache = tuple(self._worker_ids)
        return self._worker_ids_cache

    @property
    def task_ids(self) -> tuple[str, ...]:
        if self._task_ids_cache is None:
            self._task_ids_cache = tuple(self._task_ids)
        return self._task_ids_cache

    @property
    def label_offsets(self) -> np.ndarray:
        return self._label_offsets[: len(self._task_ids) + 1]

    @property
    def p_qualified(self) -> np.ndarray:
        return self._p_qualified[: len(self._worker_ids)]

    @property
    def distance_weights(self) -> np.ndarray:
        return self._distance_weights[: len(self._worker_ids)]

    @property
    def influence_weights(self) -> np.ndarray:
        return self._influence_weights[: len(self._task_ids)]

    @property
    def label_probs(self) -> np.ndarray:
        return self._label_probs[: self._num_label_slots]

    @property
    def num_workers(self) -> int:
        return len(self._worker_ids)

    @property
    def num_tasks(self) -> int:
        return len(self._task_ids)

    @property
    def num_label_slots(self) -> int:
        return self._num_label_slots

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ----------------------------------------------------------- id lookups
    def index_of_worker(self, worker_id: str) -> int:
        """Row of ``worker_id`` (``KeyError`` if the worker is unknown)."""
        if self._worker_index is None:
            self._worker_index = {w: i for i, w in enumerate(self._worker_ids)}
        return self._worker_index[worker_id]

    def index_of_task(self, task_id: str) -> int:
        """Row of ``task_id`` (``KeyError`` if the task is unknown)."""
        if self._task_index is None:
            self._task_index = {t: j for j, t in enumerate(self._task_ids)}
        return self._task_index[task_id]

    def has_worker(self, worker_id: str) -> bool:
        try:
            self.index_of_worker(worker_id)
        except KeyError:
            return False
        return True

    def has_task(self, task_id: str) -> bool:
        try:
            self.index_of_task(task_id)
        except KeyError:
            return False
        return True

    # ------------------------------------------------------- open-world growth
    def add_worker(
        self,
        worker_id: str,
        p_qualified: float = 1.0,
        distance_weights: np.ndarray | None = None,
    ) -> int:
        """Admit an unseen worker and return its new row (amortized O(1)).

        Defaults are the footnote-3 trusted prior: fully qualified with all
        mass on the flattest distance function, so a brand-new worker is
        prioritised by the assigner and its real quality learned quickly.
        """
        if self._frozen:
            raise ValueError("cannot add a worker to a frozen store")
        if self.has_worker(worker_id):
            raise ValueError(f"worker {worker_id!r} is already in the store")
        if distance_weights is None:
            distance_weights = self.function_set.best_quality_weights()
        row = len(self._worker_ids)
        self._p_qualified = _grown_buffer(self._p_qualified, row + 1)
        self._distance_weights = _grown_buffer(self._distance_weights, row + 1)
        self._p_qualified[row] = float(p_qualified)
        self._distance_weights[row] = distance_weights
        self._worker_ids.append(worker_id)
        self._worker_ids_cache = None
        if self._worker_index is not None:
            self._worker_index[worker_id] = row
        return row

    def add_task(
        self,
        task_id: str,
        num_labels: int,
        label_probs: np.ndarray | None = None,
        influence_weights: np.ndarray | None = None,
    ) -> int:
        """Admit an unseen task and return its new row (amortized O(1)).

        Defaults are the footnote-3 trusted prior: uninformative 0.5 label
        probabilities and all influence mass on the flattest function.
        """
        if self._frozen:
            raise ValueError("cannot add a task to a frozen store")
        if self.has_task(task_id):
            raise ValueError(f"task {task_id!r} is already in the store")
        if num_labels <= 0:
            raise ValueError(f"num_labels must be positive, got {num_labels}")
        if influence_weights is None:
            influence_weights = self.function_set.best_quality_weights()
        if label_probs is None:
            label_probs = np.full(num_labels, 0.5)
        elif len(label_probs) != num_labels:
            raise ValueError(
                f"label_probs has {len(label_probs)} entries, expected {num_labels}"
            )
        row = len(self._task_ids)
        slots = self._num_label_slots
        self._label_offsets = _grown_buffer(self._label_offsets, row + 2)
        self._influence_weights = _grown_buffer(self._influence_weights, row + 1)
        self._label_probs = _grown_buffer(self._label_probs, slots + num_labels)
        self._label_offsets[row + 1] = slots + num_labels
        self._influence_weights[row] = influence_weights
        self._label_probs[slots : slots + num_labels] = label_probs
        self._num_label_slots = slots + num_labels
        self._task_ids.append(task_id)
        self._task_ids_cache = None
        if self._task_index is not None:
            self._task_index[task_id] = row
        return row

    def task_label_slice(self, task_index: int) -> slice:
        """Slice of :attr:`label_probs` holding the labels of task ``task_index``."""
        return slice(
            int(self.label_offsets[task_index]), int(self.label_offsets[task_index + 1])
        )

    # ------------------------------------------------------------ conversions
    @classmethod
    def from_model(
        cls,
        params: ModelParameters,
        worker_ids: Sequence[str],
        task_ids: Sequence[str],
        num_labels: Sequence[int],
    ) -> "ArrayParameterStore":
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

        return cls(
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

    def to_model(self) -> ModelParameters:
        """Expand back into the dict-of-dataclasses :class:`ModelParameters` view.

        The store's invariants (probabilities in [0, 1], weight rows summing to
        one) are maintained by the EM kernels and the ``from_model`` gather, so
        the per-entity containers are built through the trusted constructors
        instead of re-validating thousands of small arrays.
        """
        workers = {
            worker_id: _trusted_worker_parameters(
                self.p_qualified[i], self.distance_weights[i].copy()
            )
            for i, worker_id in enumerate(self.worker_ids)
        }
        tasks = {
            task_id: _trusted_task_parameters(
                self.label_probs[self.task_label_slice(j)].copy(),
                self.influence_weights[j].copy(),
            )
            for j, task_id in enumerate(self.task_ids)
        }
        return ModelParameters(
            function_set=self.function_set,
            alpha=self.alpha,
            workers=workers,
            tasks=tasks,
        )

    # ------------------------------------------------------------------- misc
    def copy(self) -> "ArrayParameterStore":
        return ArrayParameterStore(
            function_set=self.function_set,
            alpha=self.alpha,
            worker_ids=self.worker_ids,
            task_ids=self.task_ids,
            label_offsets=self.label_offsets.copy(),
            p_qualified=self.p_qualified.copy(),
            distance_weights=self.distance_weights.copy(),
            influence_weights=self.influence_weights.copy(),
            label_probs=self.label_probs.copy(),
        )

    def freeze(self) -> "ArrayParameterStore":
        """Mark every parameter array read-only (in place) and return ``self``.

        Published snapshots are frozen so that no consumer can mutate a version
        other readers are concurrently working against; attempting to write
        raises ``ValueError`` at the NumPy level, and :meth:`add_worker` /
        :meth:`add_task` refuse to grow the store.  The flags are set on the
        backing buffers, so every view handed out afterwards is read-only too.
        """
        for array in (
            self._label_offsets,
            self._p_qualified,
            self._distance_weights,
            self._influence_weights,
            self._label_probs,
        ):
            array.setflags(write=False)
        self._frozen = True
        return self

    # ------------------------------------------------------------ persistence
    def to_npz_dict(self) -> dict[str, np.ndarray]:
        """Flatten the store into plain arrays suitable for ``np.savez``.

        Everything — including the function set's lambdas and the id tuples
        (as unicode arrays) — round-trips through :meth:`from_npz_dict`
        bit-exactly, without pickling.
        """
        return {
            "lambdas": np.asarray(self.function_set.lambdas, dtype=float),
            "alpha": np.asarray(self.alpha, dtype=float),
            "worker_ids": np.asarray(self.worker_ids, dtype=np.str_),
            "task_ids": np.asarray(self.task_ids, dtype=np.str_),
            "label_offsets": np.asarray(self.label_offsets, dtype=np.int64),
            "p_qualified": self.p_qualified,
            "distance_weights": self.distance_weights,
            "influence_weights": self.influence_weights,
            "label_probs": self.label_probs,
        }

    @classmethod
    def from_npz_dict(cls, data: Mapping[str, np.ndarray]) -> "ArrayParameterStore":
        """Rebuild a store from the arrays produced by :meth:`to_npz_dict`."""
        return cls(
            function_set=DistanceFunctionSet(tuple(np.asarray(data["lambdas"], dtype=float))),
            alpha=float(np.asarray(data["alpha"])),
            worker_ids=tuple(str(w) for w in np.asarray(data["worker_ids"])),
            task_ids=tuple(str(t) for t in np.asarray(data["task_ids"])),
            label_offsets=np.asarray(data["label_offsets"], dtype=np.intp),
            p_qualified=np.asarray(data["p_qualified"], dtype=float),
            distance_weights=np.asarray(data["distance_weights"], dtype=float),
            influence_weights=np.asarray(data["influence_weights"], dtype=float),
            label_probs=np.asarray(data["label_probs"], dtype=float),
        )

    def save_npz(self, path: str | Path) -> Path:
        """Persist the store to ``path`` as an uncompressed ``.npz`` archive."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(handle, **self.to_npz_dict())
        return path

    @classmethod
    def load_npz(cls, path: str | Path) -> "ArrayParameterStore":
        """Restore a store previously written with :meth:`save_npz`."""
        with np.load(Path(path), allow_pickle=False) as data:
            return cls.from_npz_dict(data)

    def validate(self) -> "ArrayParameterStore":
        """Structural integrity check; raises ``ValueError`` on any violation.

        Used when a store re-enters the process from disk (snapshot /
        checkpoint restore): verifies the ragged label layout is coherent
        (offsets start at 0, are non-decreasing, and the flat storage matches
        their total), row counts align across the worker- and task-side
        arrays, and every probability is finite and within [0, 1].  Returns
        ``self`` so it chains.
        """
        offsets = self.label_offsets
        if offsets.size != self.num_tasks + 1:
            raise ValueError(
                f"label_offsets has {offsets.size} entries for {self.num_tasks} tasks"
            )
        if offsets.size and int(offsets[0]) != 0:
            raise ValueError(f"label_offsets must start at 0, got {int(offsets[0])}")
        if offsets.size > 1 and bool(np.any(np.diff(offsets) <= 0)):
            raise ValueError("label_offsets must be strictly increasing")
        expected_slots = int(offsets[-1]) if offsets.size else 0
        if self.label_probs.size != expected_slots:
            raise ValueError(
                f"label_probs holds {self.label_probs.size} slots, "
                f"label_offsets expect {expected_slots}"
            )
        if self.p_qualified.shape != (self.num_workers,):
            raise ValueError(
                f"p_qualified shape {self.p_qualified.shape} does not match "
                f"{self.num_workers} workers"
            )
        if self.distance_weights.shape != (self.num_workers, len(self.function_set)):
            raise ValueError(
                f"distance_weights shape {self.distance_weights.shape} does not "
                f"match {self.num_workers} workers × {len(self.function_set)} functions"
            )
        if self.influence_weights.shape != (self.num_tasks, len(self.function_set)):
            raise ValueError(
                f"influence_weights shape {self.influence_weights.shape} does not "
                f"match {self.num_tasks} tasks × {len(self.function_set)} functions"
            )
        for name in ("p_qualified", "label_probs"):
            values = getattr(self, name)
            if values.size and (
                not np.all(np.isfinite(values))
                or float(values.min()) < 0.0
                or float(values.max()) > 1.0
            ):
                raise ValueError(f"{name} contains values outside [0, 1] or non-finite")
        for name in ("distance_weights", "influence_weights"):
            values = getattr(self, name)
            if values.size and not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite values")
        return self

    def max_difference(self, other: "ArrayParameterStore") -> float:
        """Maximum absolute parameter change versus ``other``.

        Array counterpart of :meth:`ModelParameters.max_difference` for two
        stores over the *same* worker/task orderings (the situation inside one
        EM run, where the entity sets never change between iterations).
        """
        if self.worker_ids != other.worker_ids or self.task_ids != other.task_ids:
            raise ValueError("stores must share worker/task orderings")
        worst = 0.0
        if self.p_qualified.size:
            worst = max(worst, float(np.abs(self.p_qualified - other.p_qualified).max()))
            worst = max(
                worst, float(np.abs(self.distance_weights - other.distance_weights).max())
            )
        if self.influence_weights.size:
            worst = max(
                worst,
                float(np.abs(self.influence_weights - other.influence_weights).max()),
            )
        if self.label_probs.size:
            worst = max(worst, float(np.abs(self.label_probs - other.label_probs).max()))
        return worst
