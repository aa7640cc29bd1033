"""The inference model's parameters, held as row-aligned arrays.

The graphical model of Section III has four groups of parameters:

* ``P(z_{t,k} = 1)`` — per task ``t`` and label index ``k``, the probability the
  label is a correct label of the POI (:attr:`ArrayParameterStore.label_probs`,
  one slice of label slots per task);
* ``P(d_t)``        — per task, the multinomial weights over the
  distance-function set representing the POI's influence
  (:attr:`ArrayParameterStore.influence_weights`, one row per task);
* ``P(i_w = 1)``    — per worker, the probability the worker is qualified
  (:attr:`ArrayParameterStore.p_qualified`);
* ``P(d_w)``        — per worker, the multinomial weights representing the
  worker's distance sensitivity (:attr:`ArrayParameterStore.distance_weights`).

:class:`ArrayParameterStore` is the one estimate type: the four groups as
contiguous NumPy arrays over integer worker/task rows, which the EM kernels
(:mod:`repro.core.em_kernel`) and the assignment kernels read and write
directly.  Everything else reads through its id accessors —
:meth:`~ArrayParameterStore.worker` and :meth:`~ArrayParameterStore.task`,
which give ids the store lacks the paper's footnote-3 priors — the scalar
answer accuracy of Equation 9, :meth:`~ArrayParameterStore.max_difference`
(the largest parameter change, Figure 10's convergence measure) and
:meth:`~ArrayParameterStore.regather` (the same estimate over another row
order).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.distance_functions import DistanceFunctionSet, PAPER_FUNCTION_SET


class WorkerView(NamedTuple):
    """One worker's parameters: ``P(i_w = 1)`` and a view of its ``P(d_w)`` row."""

    p_qualified: float
    distance_weights: np.ndarray


class TaskView(NamedTuple):
    """One task's parameters: views of its ``P(z_{t,k} = 1)`` and ``P(d_t)``."""

    label_probs: np.ndarray
    influence_weights: np.ndarray

    @property
    def num_labels(self) -> int:
        return int(self.label_probs.size)


class RowAlignment(NamedTuple):
    """Where one store's rows land in a target row order.

    Built by :meth:`ArrayParameterStore.alignment`; applied by
    :meth:`ArrayParameterStore.gathered`.  ``workers``/``tasks`` are the
    target positions of the entities the store holds and
    ``worker_rows``/``task_rows`` their rows in the store; ``slots`` and
    ``sources`` pair up their label slots in the two layouts.
    """

    worker_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    label_offsets: np.ndarray
    workers: np.ndarray
    worker_rows: np.ndarray
    tasks: np.ndarray
    task_rows: np.ndarray
    slots: np.ndarray
    sources: np.ndarray


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
    footnote-3 trusted priors — the same values :meth:`worker` and
    :meth:`task` report for ids the store lacks.

    A store is not copy-on-write: whoever holds one sees the changes its
    owner makes (the incremental updater sweeps its live store in place).
    A caller that keeps one version copies it (:meth:`copy`); published
    snapshots hand out :meth:`freeze`-d copies.
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

    @classmethod
    def empty(
        cls,
        function_set: DistanceFunctionSet = PAPER_FUNCTION_SET,
        alpha: float = 0.5,
    ) -> "ArrayParameterStore":
        """A store with no rows: every id reads its footnote-3 prior."""
        functions = len(function_set)
        return cls(
            function_set=function_set,
            alpha=alpha,
            worker_ids=(),
            task_ids=(),
            label_offsets=np.zeros(1, dtype=np.intp),
            p_qualified=np.zeros(0),
            distance_weights=np.zeros((0, functions)),
            influence_weights=np.zeros((0, functions)),
            label_probs=np.zeros(0),
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
    def _worker_rows(self) -> dict[str, int]:
        if self._worker_index is None:
            self._worker_index = {w: i for i, w in enumerate(self._worker_ids)}
        return self._worker_index

    def _task_rows(self) -> dict[str, int]:
        if self._task_index is None:
            self._task_index = {t: j for j, t in enumerate(self._task_ids)}
        return self._task_index

    def index_of_worker(self, worker_id: str) -> int:
        """Row of ``worker_id`` (``KeyError`` if the worker is unknown)."""
        return self._worker_rows()[worker_id]

    def index_of_task(self, task_id: str) -> int:
        """Row of ``task_id`` (``KeyError`` if the task is unknown)."""
        return self._task_rows()[task_id]

    def has_worker(self, worker_id: str) -> bool:
        return worker_id in self._worker_rows()

    def has_task(self, task_id: str) -> bool:
        return task_id in self._task_rows()

    # -------------------------------------------------------------- accessors
    def worker(self, worker_id: str) -> WorkerView:
        """Parameters of ``worker_id``; unseen workers get the footnote-3 prior.

        A brand-new worker is optimistically assumed to be fully qualified with
        all mass on the flattest distance function, so that the assigner
        prioritises them and their real quality is learned quickly.  The
        weights are a view of the store's row: read them, never change them.
        """
        row = self._worker_rows().get(worker_id)
        if row is None:
            return WorkerView(1.0, self.function_set.best_quality_weights())
        return WorkerView(float(self._p_qualified[row]), self._distance_weights[row])

    def task(self, task_id: str, num_labels: int | None = None) -> TaskView:
        """Parameters of ``task_id``; unseen tasks get uninformative labels and
        the footnote-3 best-influence prior.

        ``num_labels`` sizes the prior; an unseen task without it raises
        ``KeyError``.  The arrays are views of the store's rows: read them,
        never change them.
        """
        row = self._task_rows().get(task_id)
        if row is not None:
            start, stop = self._label_offsets[row], self._label_offsets[row + 1]
            return TaskView(self._label_probs[start:stop], self._influence_weights[row])
        if num_labels is None:
            raise KeyError(
                f"task {task_id!r} has no estimated parameters and num_labels was "
                "not provided to build a prior"
            )
        return TaskView(np.full(num_labels, 0.5), self.function_set.best_quality_weights())

    def answer_accuracy(self, worker_id: str, task_id: str, distance: float) -> float:
        """``P(r_{w,t,k} = z_{t,k})`` — Equation 9, for one pair.

        The probability that the worker's answer on any label of the task
        agrees with the (unknown) truth, marginalised over the worker being
        qualified or not; Equation 8's linear combination of the worker's
        distance-aware quality (Definition 5) and the POI's influence quality
        (Definition 6) is the qualified case.
        """
        worker = self.worker(worker_id)
        influence = self.task(task_id, num_labels=1).influence_weights
        quality = self.function_set.weighted_quality
        qualified = (
            self.alpha * quality(worker.distance_weights, distance)
            + (1.0 - self.alpha) * quality(influence, distance)
        )
        return worker.p_qualified * qualified + (1.0 - worker.p_qualified) * 0.5

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

    # ------------------------------------------------------------ row orders
    def alignment(
        self,
        worker_ids: Sequence[str],
        task_ids: Sequence[str],
        num_labels: Sequence[int],
    ) -> RowAlignment:
        """Where this store's rows land in the given worker/task orders.

        ``num_labels`` is the target label count of every task; a task this
        store holds with another count raises ``ValueError``.
        """
        counts = np.asarray(num_labels, dtype=np.intp)
        if counts.shape != (len(task_ids),):
            raise ValueError(
                f"num_labels must align with task_ids: {counts.shape} vs {len(task_ids)}"
            )
        label_offsets = np.concatenate(([0], np.cumsum(counts)))
        workers, worker_rows = _positions(self._worker_rows(), worker_ids)
        tasks, task_rows = _positions(self._task_rows(), task_ids)
        held = np.diff(self.label_offsets)[task_rows]
        mismatch = np.flatnonzero(held != counts[tasks])
        if mismatch.size:
            k = int(mismatch[0])
            j = int(tasks[k])
            raise ValueError(
                f"task {task_ids[j]!r} has {int(held[k])} estimated labels, "
                f"expected {int(counts[j])}"
            )
        # Each held task's run of label slots, in both layouts.
        starts = np.cumsum(held) - held
        within = np.arange(held.sum()) - np.repeat(starts, held)
        return RowAlignment(
            worker_ids=tuple(worker_ids),
            task_ids=tuple(task_ids),
            label_offsets=label_offsets,
            workers=workers,
            worker_rows=worker_rows,
            tasks=tasks,
            task_rows=task_rows,
            slots=np.repeat(label_offsets[tasks], held) + within,
            sources=np.repeat(self.label_offsets[task_rows], held) + within,
        )

    def gathered(self, alignment: RowAlignment) -> "ArrayParameterStore":
        """A new store over ``alignment``'s target orders.

        Rows this store holds are copied over; every other entity gets the
        footnote-3 priors :meth:`worker` and :meth:`task` report.
        """
        prior = self.function_set.best_quality_weights()
        num_workers = len(alignment.worker_ids)
        num_tasks = len(alignment.task_ids)
        p_qualified = np.ones(num_workers)
        p_qualified[alignment.workers] = self.p_qualified[alignment.worker_rows]
        distance_weights = np.empty((num_workers, prior.size))
        distance_weights[...] = prior
        distance_weights[alignment.workers] = self.distance_weights[alignment.worker_rows]
        influence_weights = np.empty((num_tasks, prior.size))
        influence_weights[...] = prior
        influence_weights[alignment.tasks] = self.influence_weights[alignment.task_rows]
        label_probs = np.full(int(alignment.label_offsets[-1]), 0.5)
        label_probs[alignment.slots] = self.label_probs[alignment.sources]
        return ArrayParameterStore(
            function_set=self.function_set,
            alpha=self.alpha,
            worker_ids=alignment.worker_ids,
            task_ids=alignment.task_ids,
            label_offsets=alignment.label_offsets.copy(),
            p_qualified=p_qualified,
            distance_weights=distance_weights,
            influence_weights=influence_weights,
            label_probs=label_probs,
        )

    def regather(
        self,
        worker_ids: Sequence[str],
        task_ids: Sequence[str],
        num_labels: Sequence[int],
    ) -> "ArrayParameterStore":
        """This estimate over the given worker/task orders, as a new store.

        Entities the store lacks (e.g. when warm-starting a larger corpus)
        get the footnote-3 priors; held tasks must keep their label counts.
        """
        return self.gathered(self.alignment(worker_ids, task_ids, num_labels))

    # ------------------------------------------------------------------- misc
    def concatenated(self, tail: "ArrayParameterStore") -> "ArrayParameterStore":
        """A new store holding this store's rows, then ``tail``'s.

        The two stores must hold disjoint ids.  Each array is one C-level
        concatenation, so appending a fixed tail costs O(rows) copying and no
        per-entity Python.
        """
        return ArrayParameterStore(
            function_set=self.function_set,
            alpha=self.alpha,
            worker_ids=self.worker_ids + tail.worker_ids,
            task_ids=self.task_ids + tail.task_ids,
            label_offsets=np.concatenate(
                (self.label_offsets, tail.label_offsets[1:] + self.num_label_slots)
            ),
            p_qualified=np.concatenate((self.p_qualified, tail.p_qualified)),
            distance_weights=np.concatenate(
                (self.distance_weights, tail.distance_weights)
            ),
            influence_weights=np.concatenate(
                (self.influence_weights, tail.influence_weights)
            ),
            label_probs=np.concatenate((self.label_probs, tail.label_probs)),
        )

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
        """Maximum absolute parameter change between two estimates.

        This is the "maximum variance of parameters" convergence criterion the
        paper plots in Figure 10.  Stores over the same rows (the EM loop)
        compare array against array.  Otherwise the comparison runs by id
        over the union: a worker on one side only is compared with its
        footnote-3 prior, and a task on one side only, or held with another
        label count, reads 1.0.
        """
        if not (
            self.worker_ids == other.worker_ids
            and self.task_ids == other.task_ids
            and np.array_equal(self.label_offsets, other.label_offsets)
        ):
            num_labels = np.diff(self.label_offsets)
            held = dict(zip(self.task_ids, num_labels.tolist()))
            if len(held) != other.num_tasks or any(
                held.get(task_id) != count
                for task_id, count in zip(
                    other.task_ids, np.diff(other.label_offsets).tolist()
                )
            ):
                return 1.0
            workers = tuple(dict.fromkeys(self.worker_ids + other.worker_ids))
            return self.regather(workers, self.task_ids, num_labels).max_difference(
                other.regather(workers, self.task_ids, num_labels)
            )
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


def _positions(
    rows: Mapping[str, int], order: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, rows)``: each id of ``order`` that ``rows`` maps, as its
    position in ``order`` and its mapped row."""
    found = np.fromiter((rows.get(i, -1) for i in order), dtype=np.intp, count=len(order))
    positions = np.flatnonzero(found >= 0)
    return positions, found[positions]
