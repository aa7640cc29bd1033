"""Vectorised EM kernel for the location-aware inference model.

This module is the one production EM engine behind
:mod:`repro.core.inference` and :mod:`repro.core.incremental`, the batched
twin of the per-record E/M specification in ``tests/oracles/em.py``.  The
whole answer log is flattened **once** per fit into an :class:`AnswerTensor`
— integer worker/task/label index arrays, a precomputed ``(N, |F|)`` matrix
of the distance-function set evaluated at every answer's distance, and a
flat 0/1 response vector.  The tensor is also the serving path's **live**
structure: it grows in place (:meth:`AnswerTensor.append_answers`,
capacity-doubling buffers, per-entity row indexes), so the incremental
updater's sweeps and a full re-fit
(:meth:`repro.core.inference.LocationAwareInference.fit_from_tensor`) both
run straight off it — the flatten happens once per *stream*, not once per
refresh.

Every EM step is the same three stages over a set of answer rows: the
E-step posteriors (:func:`_estep_posteriors`, array expressions mirroring
the per-record ``expectation``), their per-entity totals with the count
denominators (:func:`_totals`, optionally weighted per answer — the
sufficient statistics of Equation 14), and the closed-form M-step of the
chosen entities from those totals (:func:`_m_step`).  The callers differ
only in which rows they sum and which entities they re-estimate:
:func:`em_step` every row and entity; :func:`localized_sweeps` a
micro-batch's neighbourhood and the entities it touched;
:class:`SufficientStatCache` keeps the totals between batches and folds in
only the batch's rows (:func:`cached_sweeps`, Neal & Hinton's incremental
EM).  A full step, a localized step over every row and a fresh cache
therefore give bit-equal estimates.

For the label and quality sums, per-bin accumulation order under
``np.bincount`` equals the answer-log order the per-record loop uses; the
profile sums add each answer's responses first, so there the two engines
differ in summation order only.  They agree to floating-point noise (well
below the ``1e-9`` tolerance the equivalence tests enforce).  Cost per
iteration is ``O(B · (|L_t| + |F|))``, below the paper's
``O(B · |L_t| · |F|)``: a profile posterior is a per-answer ``|F|``-vector
scaled by per-response scalars, so the ``|L_t|`` scalars are summed before
the ``|F|``-wide product.

The E-step walks its label responses in **blocks** of whole answers, about
:data:`ESTEP_BLOCK_ROWS` label rows each (:func:`_answer_blocks`).  Its
per-response temporaries — some twenty arrays — are then block-sized and
stay in cache, and only the outputs the totals sum span every response:
a full step over 200k label responses peaks at about a third of the memory
of whole-length passes, and runs faster.  Blocking changes no value.  Every
per-response quantity is elementwise, and each per-answer sum reads label
rows that one block holds whole (an answer's label rows are contiguous),
adding them in the same order.  The per-entity totals and the
log-likelihood are then summed over the assembled full-length outputs in
unchanged row order.  Any block size therefore gives bit-equal estimates,
traces and tie-breaks.

Parameters live in an :class:`~repro.core.params.ArrayParameterStore`, the
package's one estimate type: a fit starts from a store and ends in one, and
the incremental sweeps write the live store in place.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.distance_functions import DistanceFunctionSet
from repro.core.params import ArrayParameterStore, _grown_buffer
from repro.data.models import Answer, AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel
from repro.utils.validation import PROBABILITY_FLOOR

#: Override for the per-answer distance source of :meth:`AnswerTensor.build` /
#: :meth:`AnswerTensor.append_answers`: maps the per-answer ``(worker_ids,
#: task_ids)`` sequences to the aligned normalised-distance vector.
PairDistanceFn = Callable[[Sequence[str], Sequence[str]], np.ndarray]


@dataclass(frozen=True)
class TensorAppendResult:
    """Outcome of one :meth:`AnswerTensor.append_answers` micro-batch."""

    rows: np.ndarray  # tensor row of every appended or replaced answer
    new_worker_ids: tuple[str, ...]  # workers first seen in this batch, admit order
    new_task_ids: tuple[str, ...]  # tasks first seen in this batch, admit order


@dataclass(frozen=True)
class AnswerColumns:
    """An answer log as the columns an :class:`AnswerTensor` is built from.

    ``worker_ids`` / ``task_ids`` are the id tables in registration order and
    ``num_labels`` each task's label count.  Row ``i`` is one answer: worker
    ``worker_ids[a_worker[i]]`` on task ``task_ids[a_task[i]]``, whose 0/1
    ticks sit contiguously in ``responses`` (rows in order, so an answer's
    first tick is the running sum of the label counts before it).
    """

    worker_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    num_labels: np.ndarray
    a_worker: np.ndarray
    a_task: np.ndarray
    responses: np.ndarray

    @property
    def num_answers(self) -> int:
        return int(self.a_worker.size)

    @classmethod
    def gather(
        cls,
        answers: AnswerSet,
        tasks: dict[str, Task],
        workers: dict[str, Worker],
    ) -> "AnswerColumns":
        """Index ``answers`` against the task/worker registries.

        Ids are registered in first-appearance order.  Unknown ids raise
        ``KeyError``, label-count mismatches raise ``ValueError``.
        """
        worker_index: dict[str, int] = {}
        task_index: dict[str, int] = {}
        task_num_labels: list[int] = []
        a_worker: list[int] = []
        a_task: list[int] = []
        responses: list[int] = []
        for answer in answers:
            task = tasks.get(answer.task_id)
            if task is None:
                raise KeyError(f"answer references unknown task {answer.task_id!r}")
            if answer.worker_id not in workers:
                raise KeyError(f"answer references unknown worker {answer.worker_id!r}")
            if answer.num_labels != task.num_labels:
                raise ValueError(
                    f"answer for task {task.task_id!r} has {answer.num_labels} labels, "
                    f"task has {task.num_labels}"
                )
            a_worker.append(worker_index.setdefault(answer.worker_id, len(worker_index)))
            tidx = task_index.setdefault(answer.task_id, len(task_index))
            if tidx == len(task_num_labels):
                task_num_labels.append(task.num_labels)
            a_task.append(tidx)
            responses.extend(answer.responses)
        return cls(
            worker_ids=tuple(worker_index),
            task_ids=tuple(task_index),
            num_labels=np.asarray(task_num_labels, dtype=np.intp),
            a_worker=np.asarray(a_worker, dtype=np.intp),
            a_task=np.asarray(a_task, dtype=np.intp),
            responses=np.asarray(responses, dtype=np.int8),
        )

    def validate(self) -> "AnswerColumns":
        """Structural integrity check; raises ``ValueError`` on any violation.

        Used when columns re-enter the process from disk: unique ids, one
        positive label count per task, in-range row indices, at most one row
        per ``(worker, task)`` pair, 0/1 ticks and exactly as many of them as
        the rows' tasks have labels.  Returns ``self`` so it chains.
        """
        num_workers, num_tasks = len(self.worker_ids), len(self.task_ids)
        if len(set(self.worker_ids)) != num_workers:
            raise ValueError("duplicate worker ids in the id table")
        if len(set(self.task_ids)) != num_tasks:
            raise ValueError("duplicate task ids in the id table")
        if self.num_labels.shape != (num_tasks,) or np.any(self.num_labels <= 0):
            raise ValueError(
                f"num_labels must hold one positive count per task ({num_tasks})"
            )
        if self.a_task.shape != self.a_worker.shape:
            raise ValueError(
                f"a_worker has shape {self.a_worker.shape}, a_task "
                f"{self.a_task.shape}"
            )
        for name, index, size in (
            ("a_worker", self.a_worker, num_workers),
            ("a_task", self.a_task, num_tasks),
        ):
            if index.size and (index.min() < 0 or index.max() >= size):
                raise ValueError(f"{name} indexes outside its {size}-entry id table")
        pairs = self.a_worker * num_tasks + self.a_task
        if np.unique(pairs).size != pairs.size:
            raise ValueError("two rows answer the same (worker, task) pair")
        if np.any((self.responses != 0) & (self.responses != 1)):
            raise ValueError("responses must be 0/1")
        expected = int(self.num_labels[self.a_task].sum())
        if self.responses.shape != (expected,):
            raise ValueError(
                f"responses has shape {self.responses.shape}, the rows' tasks "
                f"have {expected} labels"
            )
        return self

    def rows(self) -> Iterator[tuple[str, str, tuple[int, ...]]]:
        """The rows as ``(worker_id, task_id, responses)``, in order."""
        counts = self.num_labels[self.a_task]
        ends = np.cumsum(counts).tolist()
        ticks = self.responses.tolist()
        worker_ids, task_ids = self.worker_ids, self.task_ids
        for widx, tidx, end, count in zip(
            self.a_worker.tolist(), self.a_task.tolist(), ends, counts.tolist()
        ):
            yield worker_ids[widx], task_ids[tidx], tuple(ticks[end - count : end])

    def answers(self) -> Iterator[Answer]:
        """The rows as :class:`~repro.data.models.Answer` objects, in order."""
        for worker_id, task_id, responses in self.rows():
            yield Answer(worker_id=worker_id, task_id=task_id, responses=responses)


class AnswerTensor:
    """The answer log flattened into contiguous index/value arrays.

    Two granularities coexist:

    * **per answer** (``N`` rows): one row per ``(worker, task)`` answer vector
      — :attr:`a_worker`, :attr:`a_task`, :attr:`distances`, :attr:`f_values`;
    * **per label response** (``M = Σ |L_t|`` rows): one row per individual 0/1
      tick — :attr:`r_answer` points back at the owning answer row, and
      :attr:`r_label` addresses the flat ragged label storage shared with
      :class:`~repro.core.params.ArrayParameterStore`.

    The tensor is **incrementally maintainable**: all arrays live in
    capacity-doubling buffers (the attributes are views of the logical prefix)
    and :meth:`append_answers` appends new answer/label rows in amortized O(1)
    per row, registering unseen workers and tasks on first sight.  With
    :meth:`enable_row_tracking` the tensor also maintains per-entity index
    structures (answer rows per worker / per task, plus a ``(worker, task)``
    pair map used to update re-submitted answers in place), which is what lets
    the incremental updater run localized sweeps against the live tensor
    instead of rebuilding a neighbourhood tensor per micro-batch.
    """

    def __init__(
        self,
        worker_ids: Sequence[str],
        task_ids: Sequence[str],
        num_labels: np.ndarray,
        label_offsets: np.ndarray,
        a_worker: np.ndarray,
        a_task: np.ndarray,
        distances: np.ndarray,
        f_values: np.ndarray,
        r_answer: np.ndarray,
        r_worker: np.ndarray,
        r_task: np.ndarray,
        r_label: np.ndarray,
        responses: np.ndarray,
        task_of_label: np.ndarray,
    ) -> None:
        self._worker_ids = list(worker_ids)
        self._task_ids = list(task_ids)
        self._num_labels = np.asarray(num_labels)
        self._label_offsets = np.asarray(label_offsets)
        self._a_worker = np.asarray(a_worker)
        self._a_task = np.asarray(a_task)
        self._distances = np.asarray(distances)
        self._f_values = np.asarray(f_values)
        self._r_answer = np.asarray(r_answer)
        self._r_worker = np.asarray(r_worker)
        self._r_task = np.asarray(r_task)
        self._r_label = np.asarray(r_label)
        self._responses = np.asarray(responses)
        self._task_of_label = np.asarray(task_of_label)
        self._num_answers = int(self._a_worker.size)
        self._num_label_rows = int(self._responses.size)
        self._num_label_slots = (
            int(self._label_offsets[-1]) if self._label_offsets.size else 0
        )
        # First label row of each answer; label rows of one answer are
        # contiguous and in answer order by construction.
        counts = (
            self._num_labels[self._a_task]
            if self._num_answers
            else np.empty(0, dtype=np.intp)
        )
        self._a_label_start = np.cumsum(counts) - counts
        self._worker_ids_cache: tuple[str, ...] | None = None
        self._task_ids_cache: tuple[str, ...] | None = None
        # Row-tracking structures, built on demand by enable_row_tracking().
        self._worker_row: dict[str, int] | None = None
        self._task_row: dict[str, int] | None = None
        self._rows_of_worker: list[list[int]] | None = None
        self._rows_of_task: list[list[int]] | None = None
        self._pair_row: dict[tuple[int, int], int] | None = None

    def __repr__(self) -> str:
        return (
            f"AnswerTensor(answers={self.num_answers}, workers={self.num_workers}, "
            f"tasks={self.num_tasks}, label_responses={self.num_label_responses})"
        )

    # ----------------------------------------------------------- array views
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
    def num_labels(self) -> np.ndarray:
        return self._num_labels[: len(self._task_ids)]

    @property
    def label_offsets(self) -> np.ndarray:
        return self._label_offsets[: len(self._task_ids) + 1]

    @property
    def a_worker(self) -> np.ndarray:
        return self._a_worker[: self._num_answers]

    @property
    def a_task(self) -> np.ndarray:
        return self._a_task[: self._num_answers]

    @property
    def distances(self) -> np.ndarray:
        return self._distances[: self._num_answers]

    @property
    def f_values(self) -> np.ndarray:
        return self._f_values[: self._num_answers]

    @property
    def a_label_start(self) -> np.ndarray:
        return self._a_label_start[: self._num_answers]

    @property
    def r_answer(self) -> np.ndarray:
        return self._r_answer[: self._num_label_rows]

    @property
    def r_worker(self) -> np.ndarray:
        return self._r_worker[: self._num_label_rows]

    @property
    def r_task(self) -> np.ndarray:
        return self._r_task[: self._num_label_rows]

    @property
    def r_label(self) -> np.ndarray:
        return self._r_label[: self._num_label_rows]

    @property
    def responses(self) -> np.ndarray:
        return self._responses[: self._num_label_rows]

    @property
    def task_of_label(self) -> np.ndarray:
        return self._task_of_label[: self._num_label_slots]

    @property
    def num_answers(self) -> int:
        return self._num_answers

    @property
    def num_label_responses(self) -> int:
        return self._num_label_rows

    @property
    def num_workers(self) -> int:
        return len(self._worker_ids)

    @property
    def num_tasks(self) -> int:
        return len(self._task_ids)

    # --------------------------------------------------------- row tracking
    @property
    def tracks_rows(self) -> bool:
        return self._rows_of_worker is not None

    def enable_row_tracking(self) -> "AnswerTensor":
        """Build the per-entity index structures and keep them maintained.

        After this call, :attr:`rows_of_worker` / :attr:`rows_of_task` list
        every answer row of each entity (extended in place by every append),
        and re-submitted ``(worker, task)`` answers update their existing row
        instead of appending a duplicate.
        """
        if self._rows_of_worker is not None:
            return self
        self._worker_row = {w: i for i, w in enumerate(self._worker_ids)}
        self._task_row = {t: j for j, t in enumerate(self._task_ids)}
        rows_of_worker: list[list[int]] = [[] for _ in self._worker_ids]
        rows_of_task: list[list[int]] = [[] for _ in self._task_ids]
        pair_row: dict[tuple[int, int], int] = {}
        a_worker = self._a_worker
        a_task = self._a_task
        for row in range(self._num_answers):
            widx = int(a_worker[row])
            tidx = int(a_task[row])
            rows_of_worker[widx].append(row)
            rows_of_task[tidx].append(row)
            pair_row[(widx, tidx)] = row
        self._rows_of_worker = rows_of_worker
        self._rows_of_task = rows_of_task
        self._pair_row = pair_row
        return self

    def rows_of_worker(self, worker_index: int) -> list[int]:
        """Answer rows of worker ``worker_index`` (requires row tracking)."""
        if self._rows_of_worker is None:
            raise RuntimeError("enable_row_tracking() must be called first")
        return self._rows_of_worker[worker_index]

    def rows_of_task(self, task_index: int) -> list[int]:
        """Answer rows of task ``task_index`` (requires row tracking)."""
        if self._rows_of_task is None:
            raise RuntimeError("enable_row_tracking() must be called first")
        return self._rows_of_task[task_index]

    def worker_row(self, worker_id: str) -> int:
        """Worker index of ``worker_id`` (requires row tracking)."""
        if self._worker_row is None:
            raise RuntimeError("enable_row_tracking() must be called first")
        return self._worker_row[worker_id]

    def task_row(self, task_id: str) -> int:
        """Task index of ``task_id`` (requires row tracking)."""
        if self._task_row is None:
            raise RuntimeError("enable_row_tracking() must be called first")
        return self._task_row[task_id]

    def snapshot(self) -> "AnswerTensor":
        """A frozen copy of the logical prefix, safe to read off-thread.

        The live tensor's backing buffers are append-only *except* for two
        hazards a concurrent reader must not observe: re-submitted
        ``(worker, task)`` answers rewrite their ``_responses`` slice in
        place, and capacity growth reallocates whole buffers mid-append.
        The snapshot copies every logical-prefix array into a fresh tensor
        (no row tracking — a full fit never needs the per-entity indexes),
        which is what the background refresh worker fits against while the
        ingest thread keeps appending to the original.  Cost is a handful of
        C-level memcpys over the logical sizes.
        """
        return AnswerTensor(
            worker_ids=self.worker_ids,
            task_ids=self.task_ids,
            num_labels=self.num_labels.copy(),
            label_offsets=self.label_offsets.copy(),
            a_worker=self.a_worker.copy(),
            a_task=self.a_task.copy(),
            distances=self.distances.copy(),
            f_values=self.f_values.copy(),
            r_answer=self.r_answer.copy(),
            r_worker=self.r_worker.copy(),
            r_task=self.r_task.copy(),
            r_label=self.r_label.copy(),
            responses=self.responses.copy(),
            task_of_label=self.task_of_label.copy(),
        )

    def columns(self) -> "AnswerColumns":
        """The logical prefix as :class:`AnswerColumns`, the durable form.

        The index columns are views of the live buffers (valid until the
        next append); ``responses`` is an ``int8`` copy.
        :meth:`from_columns` over the result rebuilds this tensor array for
        array — the checkpoint path persists exactly these columns.
        """
        return AnswerColumns(
            worker_ids=self.worker_ids,
            task_ids=self.task_ids,
            num_labels=self.num_labels,
            a_worker=self.a_worker,
            a_task=self.a_task,
            responses=self.responses.astype(np.int8),
        )

    # ------------------------------------------------------- open-world growth
    def _register_worker(self, worker_id: str) -> int:
        index = len(self._worker_ids)
        self._worker_ids.append(worker_id)
        self._worker_ids_cache = None
        self._worker_row[worker_id] = index
        self._rows_of_worker.append([])
        return index

    def _register_task(self, task_id: str, num_labels: int) -> int:
        index = len(self._task_ids)
        slots = self._num_label_slots
        self._num_labels = _grown_buffer(self._num_labels, index + 1)
        self._label_offsets = _grown_buffer(self._label_offsets, index + 2)
        self._task_of_label = _grown_buffer(self._task_of_label, slots + num_labels)
        self._num_labels[index] = num_labels
        self._label_offsets[index + 1] = slots + num_labels
        self._task_of_label[slots : slots + num_labels] = index
        self._num_label_slots = slots + num_labels
        self._task_ids.append(task_id)
        self._task_ids_cache = None
        self._task_row[task_id] = index
        self._rows_of_task.append([])
        return index

    def append_answers(
        self,
        answers: Sequence[Answer],
        tasks: dict[str, Task],
        workers: dict[str, Worker],
        distance_model: DistanceModel,
        function_set: DistanceFunctionSet,
        pair_distance_fn: "PairDistanceFn | None" = None,
    ) -> TensorAppendResult:
        """Append a micro-batch of answers to the live tensor.

        Unseen workers/tasks are registered on first sight (in encounter
        order, so a store grown alongside the tensor stays row-aligned); an
        answer re-submitting a known ``(worker, task)`` pair overwrites its
        responses in place.  Validation mirrors :meth:`build`: unknown ids
        raise ``KeyError``, label-count mismatches raise ``ValueError``.
        Requires :meth:`enable_row_tracking`.  ``pair_distance_fn`` overrides
        the distance source exactly as in :meth:`build`.
        """
        if self._rows_of_worker is None:
            raise RuntimeError("enable_row_tracking() must be called first")
        rows = np.empty(len(answers), dtype=np.intp)
        new_workers: list[str] = []
        new_tasks: list[str] = []
        # (out_positions, widx, tidx, answer) — positions is a list so a pair
        # re-submitted *within* the batch collapses onto one row (last answer
        # wins, mirroring AnswerSet.add) instead of appending a duplicate.
        fresh: list[list] = []
        pending: dict[tuple[int, int], int] = {}  # batch-local pair -> fresh index
        worker_location_seq = []
        task_location_seq = []

        for position, answer in enumerate(answers):
            task = tasks.get(answer.task_id)
            if task is None:
                raise KeyError(f"answer references unknown task {answer.task_id!r}")
            worker = workers.get(answer.worker_id)
            if worker is None:
                raise KeyError(f"answer references unknown worker {answer.worker_id!r}")
            if answer.num_labels != task.num_labels:
                raise ValueError(
                    f"answer for task {task.task_id!r} has {answer.num_labels} labels, "
                    f"task has {task.num_labels}"
                )
            widx = self._worker_row.get(answer.worker_id)
            if widx is None:
                widx = self._register_worker(answer.worker_id)
                new_workers.append(answer.worker_id)
            tidx = self._task_row.get(answer.task_id)
            if tidx is None:
                tidx = self._register_task(answer.task_id, task.num_labels)
                new_tasks.append(answer.task_id)
            pair = (widx, tidx)
            existing = self._pair_row.get(pair)
            if existing is not None:
                start = int(self._a_label_start[existing])
                self._responses[start : start + answer.num_labels] = np.asarray(
                    answer.responses, dtype=float
                )
                rows[position] = existing
            elif pair in pending:
                entry = fresh[pending[pair]]
                entry[0].append(position)
                entry[3] = answer
            else:
                pending[pair] = len(fresh)
                fresh.append([[position], widx, tidx, answer])
                worker_location_seq.append(worker.locations)
                task_location_seq.append(task.location)

        if fresh:
            if pair_distance_fn is not None:
                distances = np.asarray(
                    pair_distance_fn(
                        [entry[3].worker_id for entry in fresh],
                        [entry[3].task_id for entry in fresh],
                    ),
                    dtype=float,
                )
            else:
                distances = distance_model.worker_task_distances(
                    worker_location_seq, task_location_seq
                )
            f_values = function_set.evaluate_many(distances)
            self._append_fresh_rows(fresh, distances, f_values, rows)
        return TensorAppendResult(
            rows=rows,
            new_worker_ids=tuple(new_workers),
            new_task_ids=tuple(new_tasks),
        )

    def _append_fresh_rows(
        self,
        fresh: list[list],
        distances: np.ndarray,
        f_values: np.ndarray,
        rows_out: np.ndarray,
    ) -> None:
        """Bulk-append genuinely new answer rows (and their label rows)."""
        n_new = len(fresh)
        base = self._num_answers
        aw = np.asarray([widx for _, widx, _, _ in fresh], dtype=np.intp)
        at = np.asarray([tidx for _, _, tidx, _ in fresh], dtype=np.intp)
        counts = self._num_labels[at]
        total = int(counts.sum())
        label_base = self._num_label_rows

        self._a_worker = _grown_buffer(self._a_worker, base + n_new)
        self._a_task = _grown_buffer(self._a_task, base + n_new)
        self._distances = _grown_buffer(self._distances, base + n_new)
        self._f_values = _grown_buffer(self._f_values, base + n_new)
        self._a_label_start = _grown_buffer(self._a_label_start, base + n_new)
        for name in ("_r_answer", "_r_worker", "_r_task", "_r_label", "_responses"):
            setattr(self, name, _grown_buffer(getattr(self, name), label_base + total))

        self._a_worker[base : base + n_new] = aw
        self._a_task[base : base + n_new] = at
        self._distances[base : base + n_new] = distances
        self._f_values[base : base + n_new] = f_values
        starts = label_base + np.cumsum(counts) - counts
        self._a_label_start[base : base + n_new] = starts

        r_answer = base + np.repeat(np.arange(n_new, dtype=np.intp), counts)
        within = np.arange(total, dtype=np.intp) - np.repeat(starts - label_base, counts)
        r_task = at[r_answer - base]
        self._r_answer[label_base : label_base + total] = r_answer
        self._r_worker[label_base : label_base + total] = aw[r_answer - base]
        self._r_task[label_base : label_base + total] = r_task
        self._r_label[label_base : label_base + total] = (
            self._label_offsets[r_task] + within
        )
        if total:
            self._responses[label_base : label_base + total] = np.concatenate(
                [np.asarray(answer.responses, dtype=float) for _, _, _, answer in fresh]
            )
        self._num_answers = base + n_new
        self._num_label_rows = label_base + total

        for offset, (positions, widx, tidx, _) in enumerate(fresh):
            row = base + offset
            for position in positions:
                rows_out[position] = row
            self._rows_of_worker[widx].append(row)
            self._rows_of_task[tidx].append(row)
            self._pair_row[(widx, tidx)] = row

    @classmethod
    def build(
        cls,
        answers: AnswerSet,
        tasks: dict[str, Task],
        workers: dict[str, Worker],
        distance_model: DistanceModel,
        function_set: DistanceFunctionSet,
        pair_distance_fn: "PairDistanceFn | None" = None,
    ) -> "AnswerTensor":
        """Index ``answers`` against the task/worker registries.

        :meth:`AnswerColumns.gather` (unknown ids raise ``KeyError``,
        label-count mismatches ``ValueError``) followed by
        :meth:`from_columns`.
        """
        return cls.from_columns(
            AnswerColumns.gather(answers, tasks, workers),
            tasks,
            workers,
            distance_model,
            function_set,
            pair_distance_fn=pair_distance_fn,
        )

    @classmethod
    def from_columns(
        cls,
        columns: AnswerColumns,
        tasks: dict[str, Task],
        workers: dict[str, Worker],
        distance_model: DistanceModel,
        function_set: DistanceFunctionSet,
        pair_distance_fn: "PairDistanceFn | None" = None,
    ) -> "AnswerTensor":
        """Build the tensor of ``columns`` over the task/worker registries.

        Every id must be registered (``KeyError`` otherwise) and each task's
        label count must match its registry entry (``ValueError``).
        Distances are computed with the batched
        :meth:`~repro.spatial.distance.DistanceModel.worker_task_distances`
        instead of N scalar cache lookups.  ``pair_distance_fn`` overrides
        that source: called with the per-answer worker-id and task-id
        sequences, it must return the aligned normalised-distance vector —
        the sparse EM engine routes this through a
        :class:`~repro.spatial.candidates.CandidateIndex` so observed pairs
        reuse the O(nnz) candidate structure (far pairs fall back to the
        maximal distance 1.0) and the fit never touches dense W×T geometry.
        """
        task_entries = [tasks[task_id] for task_id in columns.task_ids]
        worker_entries = [workers[worker_id] for worker_id in columns.worker_ids]
        num_labels = np.asarray(columns.num_labels, dtype=np.intp)
        for task, count in zip(task_entries, num_labels.tolist()):
            if task.num_labels != count:
                raise ValueError(
                    f"columns give task {task.task_id!r} {count} labels, "
                    f"task has {task.num_labels}"
                )
        a_worker = np.asarray(columns.a_worker, dtype=np.intp)
        a_task = np.asarray(columns.a_task, dtype=np.intp)
        rows_w = a_worker.tolist()
        rows_t = a_task.tolist()
        if pair_distance_fn is not None:
            worker_ids, task_ids = columns.worker_ids, columns.task_ids
            distances = np.asarray(
                pair_distance_fn(
                    [worker_ids[i] for i in rows_w], [task_ids[j] for j in rows_t]
                ),
                dtype=float,
            )
        else:
            worker_locations = [worker.locations for worker in worker_entries]
            task_locations = [task.location for task in task_entries]
            distances = distance_model.worker_task_distances(
                [worker_locations[i] for i in rows_w],
                [task_locations[j] for j in rows_t],
            )
        f_values = function_set.evaluate_many(distances)

        num_answers = a_worker.size
        label_offsets = np.concatenate(([0], np.cumsum(num_labels)))
        task_of_label = np.repeat(np.arange(num_labels.size, dtype=np.intp), num_labels)
        counts = num_labels[a_task] if num_answers else np.empty(0, dtype=np.intp)
        r_answer = np.repeat(np.arange(num_answers, dtype=np.intp), counts)
        starts = np.cumsum(counts) - counts  # first flat slot of each answer
        within = np.arange(r_answer.size, dtype=np.intp) - np.repeat(starts, counts)
        r_task = a_task[r_answer]
        r_label = label_offsets[r_task] + within

        return cls(
            worker_ids=columns.worker_ids,
            task_ids=columns.task_ids,
            num_labels=num_labels,
            label_offsets=label_offsets,
            a_worker=a_worker,
            a_task=a_task,
            distances=distances,
            f_values=f_values,
            r_answer=r_answer,
            r_worker=a_worker[r_answer],
            r_task=r_task,
            r_label=r_label,
            responses=np.asarray(columns.responses, dtype=float),
            task_of_label=task_of_label,
        )


def initial_store(
    tensor: AnswerTensor,
    function_set: DistanceFunctionSet,
    alpha: float,
    initial_p_qualified: float,
) -> ArrayParameterStore:
    """The cold-start estimate of a fit.

    Soft majority vote per label (clipped into [0.02, 0.98]) and uniform
    function weights with an optimistic qualification prior everywhere else.
    """
    uniform = function_set.uniform_weights()
    vote_sums = np.bincount(
        tensor.r_label, weights=tensor.responses, minlength=tensor.label_offsets[-1]
    )
    vote_counts = np.bincount(tensor.a_task, minlength=tensor.num_tasks)
    per_label_counts = vote_counts[tensor.task_of_label]
    label_probs = np.where(
        per_label_counts > 0,
        np.clip(vote_sums / np.maximum(1, per_label_counts), 0.02, 0.98),
        0.5,
    )
    return ArrayParameterStore(
        function_set=function_set,
        alpha=alpha,
        worker_ids=tensor.worker_ids,
        task_ids=tensor.task_ids,
        label_offsets=tensor.label_offsets,
        p_qualified=np.full(tensor.num_workers, initial_p_qualified, dtype=float),
        distance_weights=np.tile(uniform, (tensor.num_workers, 1)),
        influence_weights=np.tile(uniform, (tensor.num_tasks, 1)),
        label_probs=label_probs,
    )


def _clip_into(
    values: np.ndarray, low: float, high: float | None = None
) -> np.ndarray:
    """``np.clip(values, low, high, out=values)`` without ``np.clip``'s
    Python dispatch (several µs a call in NumPy 2.x, felt by a streaming
    sweep's small arrays); only a ``-0.0`` at a ``0.0`` floor reads ``0.0``."""
    np.maximum(values, low, out=values)
    if high is not None:
        np.minimum(values, high, out=values)
    return values


def _segment_sum_columns(
    values: np.ndarray, index: np.ndarray, size: int
) -> np.ndarray:
    """Sum the rows of ``values`` (M, F) into ``size`` bins given by ``index``."""
    out = np.empty((size, values.shape[1]), dtype=float)
    for column in range(values.shape[1]):
        out[:, column] = np.bincount(index, weights=values[:, column], minlength=size)
    return out


def _normalise_rows(
    sums: np.ndarray, denominators: np.ndarray, uniform: np.ndarray
) -> np.ndarray:
    """Divide row-wise then renormalise each row to a distribution.

    Rows whose mass vanishes fall back to the uniform distribution, matching
    the degenerate-case handling of the per-record M-step.
    """
    weights = sums / np.maximum(1, denominators)[:, None]
    totals = weights.sum(axis=1)
    degenerate = totals <= 0.0
    safe_totals = np.where(degenerate, 1.0, totals)
    weights = weights / safe_totals[:, None]
    if np.any(degenerate):
        weights[degenerate] = uniform
    return weights


#: Label rows per E-step block, about: a block ends on an answer boundary
#: (:func:`_answer_blocks`).  Each block's temporaries — some twenty
#: float64 arrays of this length — then stay cache-sized (128 KiB each)
#: instead of spanning every label response of a fit or a sweep.  On the
#: serving benchmark 8192 rows read like 16384, which makes half the calls
#: per step; 32768 held 2-3 MiB more peak memory.
ESTEP_BLOCK_ROWS = 16384


def _answer_blocks(expand: np.ndarray, n: int) -> list[tuple[int, int, int, int]]:
    """``(a0, a1, l0, l1)`` of the E-step's blocks over ``n`` answers.

    ``expand`` maps each label response to its owning answer; it must be
    non-decreasing, so each answer's label rows are contiguous.  Block ``k``
    holds answers ``a0:a1`` and exactly their label rows ``l0:l1``: it
    starts at the answer that owns label row ``k · ESTEP_BLOCK_ROWS``.
    """
    m = expand.size
    if m <= ESTEP_BLOCK_ROWS:
        return [(0, n, 0, m)]
    answer_cuts = np.unique(expand[ESTEP_BLOCK_ROWS::ESTEP_BLOCK_ROWS])
    label_cuts = np.searchsorted(expand, answer_cuts)
    inner = label_cuts > 0  # an answer longer than a block starts at row 0
    answers = [0, *answer_cuts[inner].tolist(), n]
    labels = [0, *label_cuts[inner].tolist(), m]
    return list(zip(answers[:-1], answers[1:], labels[:-1], labels[1:]))


def _estep_posteriors(
    alpha: float,
    p_qualified: np.ndarray,
    dw: np.ndarray,
    dt: np.ndarray,
    f_values: np.ndarray,
    expand: np.ndarray,
    label_probs: np.ndarray,
    r_label: np.ndarray,
    responses: np.ndarray,
    full_evidence: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Closed-form E-step marginals for a batch of answers.

    ``p_qualified`` (already clipped), ``dw``, ``dt`` and ``f_values`` are
    per-answer arrays (``n`` rows); ``expand`` maps each label response to its
    owning position in those arrays and must be non-decreasing (each
    answer's label rows contiguous); ``r_label`` (the label slot, read from
    ``label_probs`` and clipped) and ``responses`` (the observed 0/1 ticks,
    as floats) are per label response.  Returns
    ``(post_z1, post_i1, post_dw, post_dt, evidence)``: ``post_z1``,
    ``post_i1`` and ``evidence`` per label response (``M`` rows), while
    ``post_dw`` and ``post_dt`` come already summed over each answer's label
    responses (``(n, |F|)``) — the M-step only ever adds them up per worker or
    per task, so the per-response ``(M, |F|)`` blocks of the per-record E-step
    (kept in ``tests/oracles/em.py``) are never materialised.  Every E-step
    of this module runs through it, via :func:`_row_posteriors`.

    The per-answer terms are computed once over all ``n`` answers; the
    per-label-response work runs over the blocks of :func:`_answer_blocks`,
    so its temporaries are block-sized and only the outputs span ``M``.
    Every operation is elementwise, or a per-answer sum over label rows that
    a block holds whole and adds in row order, so any blocking gives
    bit-equal outputs.  Only the log-likelihood reads ``evidence``: with
    ``full_evidence=False`` each block writes it into one block-sized scratch
    array and ``None`` is returned in its place.
    """
    floor = PROBABILITY_FLOOR
    worker_quality = np.einsum("nf,nf->n", dw, f_values)  # DQ_w per answer
    poi_quality = np.einsum("nf,nf->n", dt, f_values)  # IQ_t per answer
    s_q = _clip_into(
        alpha * worker_quality + (1.0 - alpha) * poi_quality, floor, 1.0 - floor
    )

    n, m = dw.shape[0], expand.size
    post_z1, post_i1 = np.empty(m), np.empty(m)
    sums = np.empty((3, n))
    blocks = _answer_blocks(expand, n)
    # Full length, or the longest block's rows, reused by every block.
    longest = max(l1 - l0 for *_, l0, l1 in blocks)
    evidence = np.empty(m if full_evidence else longest)
    for a0, a1, l0, l1 in blocks:
        owner = expand[l0:l1]
        _label_block(
            p_qualified[owner],
            s_q[owner],
            _clip_into(label_probs[r_label[l0:l1]], 1e-9, 1.0 - 1e-9),
            responses[l0:l1],
            owner - a0,
            out=(
                post_z1[l0:l1],
                post_i1[l0:l1],
                evidence[l0:l1] if full_evidence else evidence[: l1 - l0],
                sums[:, a0:a1],
            ),
        )

    # ---- per-answer profile posteriors (n, |F|) -----------------------------
    # For response m of answer a,
    #   P(d_w = f | r_m) = dw[a,f] · (½(1 - pq_a) + pq_a · (P(z=r_m) · q_row[a,f]
    #                                 + P(z≠r_m) · (1 - q_row[a,f]))) / P(r_m),
    # so the answer's sum over its responses needs only the three per-answer
    # sums of per-response scalars (likewise d_t with q_col).  The three
    # terms stay separate because each is non-negative: folding them into
    # A + B · q_row cancels catastrophically when P(z=r) ≪ P(z≠r) and q → 1.
    # q_row/q_col are the per-function rows/columns of q(d_w, d_t)
    # marginalised over the other variable's current weights.
    terms = (
        (0.5 * (1.0 - p_qualified) * sums[0])[:, None],
        (p_qualified * sums[1])[:, None],
        (p_qualified * sums[2])[:, None],
    )
    q_row = alpha * f_values + (1.0 - alpha) * poi_quality[:, None]
    post_dw = _profile_sums(dw, q_row, *terms)
    q_col = alpha * worker_quality[:, None] + (1.0 - alpha) * f_values
    post_dt = _profile_sums(dt, q_col, *terms)
    return post_z1, post_i1, post_dw, post_dt, evidence if full_evidence else None


def _label_block(
    pq_m: np.ndarray,
    sq_m: np.ndarray,
    pz1: np.ndarray,
    responses: np.ndarray,
    local: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """The per-label-response E-step of one block of whole answers.

    Per label response of the block: the owning answer's ``p_qualified``
    and ``s_q``, the clipped ``P(z = 1)``, the observed tick and ``local``,
    the owning answer's position in the block.
    ``out`` holds the block's views of ``P(z = 1 | r)``, ``P(i = 1 | r)`` and
    ``P(r)``, and the ``(3, block answers)`` view that receives each
    answer's sums over its responses of ``1/P(r)``, ``P(z=r)/P(r)`` and
    ``P(z≠r)/P(r)``.
    """
    post_z1, post_i1, evidence, sums = out
    # |1 - r - x| is x where r = 1 and 1 - x where r = 0, exactly — a select
    # without np.where's per-element branch.
    one_minus_r = 1.0 - responses
    pz_equal_r = np.abs(one_minus_r - pz1)  # P(z = r)
    pz_not_r = 1.0 - pz_equal_r
    uh_m = 0.5 * (1.0 - pq_m)  # P(i = 0) · P(r | i = 0)

    # P(r | i = 1) and P(r), the normaliser of the joint posterior.
    qualified = pq_m * (pz_equal_r * sq_m + pz_not_r * (1.0 - sq_m))
    _clip_into(np.add(uh_m, qualified, out=evidence), 1e-12)
    inv_evidence = 1.0 / evidence

    # P(z = 1 | r): the z=1 branch uses s_q when r=1 and (1-s_q) when r=0.
    # Both marginals divide by P(r) so they stay bit-equal to the per-record
    # E-step: near p_qualified ≈ 1 a streamed fit amplifies last-bit changes
    # here to ~1e-9 in the label estimates.
    agree_factor = np.abs(one_minus_r - sq_m)
    np.divide(pz1 * (uh_m + pq_m * agree_factor), evidence, out=post_z1)
    np.divide(qualified, evidence, out=post_i1)
    size = sums.shape[1]
    sums[0] = np.bincount(local, weights=inv_evidence, minlength=size)
    sums[1] = np.bincount(local, weights=pz_equal_r * inv_evidence, minlength=size)
    sums[2] = np.bincount(local, weights=pz_not_r * inv_evidence, minlength=size)


def _profile_sums(
    weights: np.ndarray,
    q: np.ndarray,
    base: np.ndarray,
    agree: np.ndarray,
    disagree: np.ndarray,
) -> np.ndarray:
    """``weights · (base + agree · q + disagree · (1 - q))``, overwriting ``q``.

    The expression's own operations on the same operands (each product and
    sum commutes exactly), done in place so that only two ``(n, |F|)``
    arrays are live.
    """
    mix = agree * q
    mix += base
    np.subtract(1.0, q, out=q)
    q *= disagree
    mix += q
    mix *= weights
    return mix


class _Rows(NamedTuple):
    """A set of answer rows with their label rows, as the E- and M-steps read it.

    Per answer: ``a_worker``, ``a_task``, ``f_values``.  Per label response:
    ``expand`` (the owning answer's position in this set), ``r_label``,
    ``r_worker``, ``r_task`` and the observed ``responses``.
    """

    a_worker: np.ndarray
    a_task: np.ndarray
    f_values: np.ndarray
    expand: np.ndarray
    r_label: np.ndarray
    r_worker: np.ndarray
    r_task: np.ndarray
    responses: np.ndarray


def _all_rows(tensor: AnswerTensor) -> _Rows:
    """Every row of ``tensor``, as views of its own arrays."""
    return _Rows(
        a_worker=tensor.a_worker,
        a_task=tensor.a_task,
        f_values=tensor.f_values,
        expand=tensor.r_answer,
        r_label=tensor.r_label,
        r_worker=tensor.r_worker,
        r_task=tensor.r_task,
        responses=tensor.responses,
    )


def _gather_rows(
    tensor: AnswerTensor, answer_rows: np.ndarray
) -> tuple[_Rows, np.ndarray]:
    """The answers ``answer_rows`` with their label rows, in the given order.

    Also returns the tensor label row of every gathered label response (an
    answer's label rows are contiguous from its ``a_label_start``).
    """
    aw = tensor.a_worker[answer_rows]
    at = tensor.a_task[answer_rows]
    counts = tensor.num_labels[at]
    expand = np.repeat(np.arange(answer_rows.size, dtype=np.intp), counts)
    batch_starts = np.cumsum(counts) - counts
    label_rows = (
        np.arange(int(counts.sum()), dtype=np.intp)
        - np.repeat(batch_starts, counts)
        + np.repeat(tensor.a_label_start[answer_rows], counts)
    )
    rows = _Rows(
        a_worker=aw,
        a_task=at,
        f_values=tensor.f_values[answer_rows],
        expand=expand,
        r_label=tensor.r_label[label_rows],
        r_worker=aw[expand],
        r_task=at[expand],
        responses=tensor.responses[label_rows],
    )
    return rows, label_rows


def _row_posteriors(
    store: ArrayParameterStore, rows: _Rows, full_evidence: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """:func:`_estep_posteriors` of ``rows`` under the estimate in ``store``.

    The per-answer parameters are gathered once for every answer of
    ``rows``; each label response's ``P(z = 1)`` is gathered by the block
    that reads it.  ``rows`` keeps each answer's label rows contiguous and in
    answer order (:func:`_all_rows` by the tensor's construction,
    :func:`_gather_rows` by its own), which is what lets the E-step run in
    answer-aligned blocks with bit-equal results.
    """
    floor = PROBABILITY_FLOOR
    # Fancy indexing returns a fresh array, so it is clipped in place.
    p_qualified = store.p_qualified[rows.a_worker]
    return _estep_posteriors(
        alpha=store.alpha,
        p_qualified=_clip_into(p_qualified, floor, 1.0 - floor),
        dw=store.distance_weights[rows.a_worker],
        dt=store.influence_weights[rows.a_task],
        f_values=rows.f_values,
        expand=rows.expand,
        label_probs=store.label_probs,
        r_label=rows.r_label,
        responses=rows.responses,
        full_evidence=full_evidence,
    )


@dataclass
class _Totals:
    """Per-entity sufficient statistics of the closed-form M-step (Equation 14).

    The posterior sums — ``P(z = 1 | r)`` per label slot, ``P(i = 1 | r)``
    and the ``(W, |F|)`` d_w profile per worker, the ``(T, |F|)`` d_t
    profile per task — and the count denominators: label responses per
    worker and per task, answers per task.
    """

    slot_z: np.ndarray
    worker_i: np.ndarray
    worker_dw: np.ndarray
    task_dt: np.ndarray
    worker_labels: np.ndarray | None = None
    task_labels: np.ndarray | None = None
    task_answers: np.ndarray | None = None


class _Counts(NamedTuple):
    """The count denominators of :class:`_Totals` over one row set."""

    worker_labels: np.ndarray
    task_labels: np.ndarray
    task_answers: np.ndarray


def _counts(
    rows: _Rows,
    sizes: tuple[int, int, int],
    weights: np.ndarray | None = None,
) -> _Counts:
    """Label responses per worker and per task, answers per task, of ``rows``.

    ``sizes`` and ``weights`` as in :func:`_totals`; ``None`` weights leave
    the counts integer.
    """
    _, num_workers, num_tasks = sizes
    w_m = None if weights is None else weights[rows.expand]
    return _Counts(
        worker_labels=np.bincount(rows.r_worker, weights=w_m, minlength=num_workers),
        task_labels=np.bincount(rows.r_task, weights=w_m, minlength=num_tasks),
        task_answers=np.bincount(rows.a_task, weights=weights, minlength=num_tasks),
    )


def _totals(
    rows: _Rows,
    posteriors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    sizes: tuple[int, int, int],
    weights: np.ndarray | None = None,
    counts: _Counts | None = None,
) -> _Totals:
    """Sum a row set's posteriors per entity, beside its ``counts``.

    ``posteriors`` is ``(z1, i1, dw, dt)`` over ``rows`` as
    :func:`_estep_posteriors` returns them, ``sizes`` the ``(label slots,
    workers, tasks)`` the sums span.  ``weights`` (one per answer of
    ``rows``) scales each answer's contribution to every sum; ``None`` skips
    the multiply.  ``counts`` (:func:`_counts` of the same rows and weights)
    fills the count denominators; ``None`` leaves them unset.  Every sum
    runs in row order, so equal row sets give bit-equal totals whichever
    path asks.
    """
    num_slots, num_workers, num_tasks = sizes
    z1, i1, dw, dt = posteriors
    if weights is not None:
        w_m = weights[rows.expand]  # per label response
        z1, i1 = z1 * w_m, i1 * w_m
        dw, dt = dw * weights[:, None], dt * weights[:, None]
    totals = _Totals(
        slot_z=np.bincount(rows.r_label, weights=z1, minlength=num_slots),
        worker_i=np.bincount(rows.r_worker, weights=i1, minlength=num_workers),
        worker_dw=_segment_sum_columns(dw, rows.a_worker, num_workers),
        task_dt=_segment_sum_columns(dt, rows.a_task, num_tasks),
    )
    if counts is not None:
        totals.worker_labels, totals.task_labels, totals.task_answers = counts
    return totals


#: Floor of the label and qualification denominators.  An entity without
#: (weighted) rows divides its zero sums by it; on integer counts it equals
#: the per-record M-step's ``max(1, count)``, while the fractional counts of
#: decayed or down-weighted rows stay exact.
_DENOM_FLOOR = 1e-9


def _m_step(
    tensor: AnswerTensor,
    totals: _Totals,
    uniform: np.ndarray,
    workers: np.ndarray | slice,
    tasks: np.ndarray | slice,
    label_slots: np.ndarray | slice,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The closed-form M-step: the new estimate of the chosen rows from ``totals``.

    Returns ``(p_qualified, distance_weights, influence_weights,
    label_probs)`` of the chosen ``workers`` / ``tasks`` rows and flat
    ``label_slots`` (index arrays, or ``slice(None)`` for all).  An empty
    selection comes back as its empty totals, skipped outright: settled and
    deferred entities leave one often, and the array calls would cost their
    fixed overhead for nothing.
    """
    label_probs = totals.slot_z[label_slots]
    if label_probs.size:
        answers = totals.task_answers[tensor.task_of_label[label_slots]]
        label_probs = _clip_into(
            label_probs / np.maximum(_DENOM_FLOOR, answers), 0.0, 1.0
        )
    influence_weights = totals.task_dt[tasks]
    if influence_weights.size:
        influence_weights = _normalise_rows(
            influence_weights, totals.task_labels[tasks], uniform
        )
    p_qualified = totals.worker_i[workers]
    distance_weights = totals.worker_dw[workers]
    if p_qualified.size:
        worker_labels = totals.worker_labels[workers]
        p_qualified = _clip_into(
            p_qualified / np.maximum(_DENOM_FLOOR, worker_labels), 0.0, 1.0
        )
        distance_weights = _normalise_rows(distance_weights, worker_labels, uniform)
    return p_qualified, distance_weights, influence_weights, label_probs


def _m_step_into(
    tensor: AnswerTensor,
    store: ArrayParameterStore,
    totals: _Totals,
    workers: np.ndarray,
    tasks: np.ndarray,
    label_slots: np.ndarray,
) -> None:
    """:func:`_m_step` of the chosen rows, written into ``store`` in place."""
    uniform = store.function_set.uniform_weights()
    p_qualified, distance_weights, influence_weights, label_probs = _m_step(
        tensor, totals, uniform, workers, tasks, label_slots
    )
    store.p_qualified[workers] = p_qualified
    store.distance_weights[workers] = distance_weights
    store.influence_weights[tasks] = influence_weights
    store.label_probs[label_slots] = label_probs


def _answer_weights(
    tensor: AnswerTensor, answer_weights: np.ndarray | None
) -> np.ndarray | None:
    """``answer_weights`` as floats, checked to hold one per answer row."""
    if answer_weights is None:
        return None
    weights = np.asarray(answer_weights, dtype=float)
    if weights.shape != (tensor.num_answers,):
        raise ValueError(
            f"answer_weights must have shape ({tensor.num_answers},), got "
            f"{weights.shape}"
        )
    return weights


def count_denominators(
    tensor: AnswerTensor, answer_weights: np.ndarray | None = None
) -> _Counts:
    """The count denominators of :func:`em_step` over ``tensor``.

    Label responses per worker and per task, answers per task — weighted by
    ``answer_weights`` when given.  They depend only on the tensor and the
    weights, never on the estimate, so a fit counts them once and hands them
    to every step.
    """
    sizes = (int(tensor.label_offsets[-1]), tensor.num_workers, tensor.num_tasks)
    return _counts(_all_rows(tensor), sizes, _answer_weights(tensor, answer_weights))


def em_step(
    tensor: AnswerTensor,
    store: ArrayParameterStore,
    answer_weights: np.ndarray | None = None,
    counts: _Counts | None = None,
) -> tuple[ArrayParameterStore, float]:
    """One combined E+M step over the whole tensor (Equations 12 and 14).

    Returns the new parameter store and the total log-likelihood of the
    observed answers under the *input* parameters.  Mirrors the per-record
    E+M step (``tests/oracles/em.py``) up to summation order, with every
    per-record quantity promoted to an array over the N answers / M label
    responses.

    ``answer_weights`` (one non-negative weight per answer row) turns the
    M-step into a *weighted* maximisation: each answer contributes its weight
    to both the posterior sums and the count denominators.  This is how
    exponential decay (old answers fade) and trust-aware down-weighting
    (quarantined workers count less) enter the full refresh.  ``counts`` is
    :func:`count_denominators` of the same tensor and weights, which a fit
    computes once for all its steps; ``None`` counts them here.
    """
    weights = _answer_weights(tensor, answer_weights)
    rows = _all_rows(tensor)
    *posteriors, evidence = _row_posteriors(store, rows)
    log_evidence = np.log(evidence, out=evidence)
    if weights is not None:
        log_evidence *= weights[rows.expand]
    log_likelihood = float(np.sum(log_evidence))
    del evidence, log_evidence  # M-sized; the M-step below allocates its own
    sizes = (store.num_label_slots, store.num_workers, store.num_tasks)
    if counts is None:
        counts = _counts(rows, sizes, weights)
    totals = _totals(rows, posteriors, sizes, weights, counts)
    every = slice(None)
    p_qualified, distance_weights, influence_weights, label_probs = _m_step(
        tensor, totals, store.function_set.uniform_weights(), every, every, every
    )
    new_store = ArrayParameterStore(
        function_set=store.function_set,
        alpha=store.alpha,
        worker_ids=store.worker_ids,
        task_ids=store.task_ids,
        label_offsets=store.label_offsets,
        p_qualified=p_qualified,
        distance_weights=distance_weights,
        influence_weights=influence_weights,
        label_probs=label_probs,
    )
    return new_store, log_likelihood


def em_step_localized(
    tensor: AnswerTensor,
    store: ArrayParameterStore,
    answer_rows: np.ndarray,
    affected_workers: np.ndarray,
    affected_tasks: np.ndarray,
    label_slots: np.ndarray,
) -> None:
    """One localized E+M sweep against the **live** tensor and store, in place.

    ``answer_rows`` selects the relevant neighbourhood (every answer of every
    affected worker/task — so the totals of the affected entities equal the
    full step's), ``affected_workers`` / ``affected_tasks`` are the store
    rows to re-estimate and ``label_slots`` the flat label slots those tasks
    own.  Everything else keeps its current estimate.  Cost is
    ``O(R · (|L_t| + |F|))`` over the ``R`` selected rows plus O(global
    sizes) zero-filled segment sums — no tensor or store is rebuilt.
    """
    rows, _ = _gather_rows(tensor, answer_rows)
    posteriors = _row_posteriors(store, rows, full_evidence=False)[:4]
    sizes = (store.num_label_slots, store.num_workers, store.num_tasks)
    totals = _totals(rows, posteriors, sizes, counts=_counts(rows, sizes))
    _m_step_into(tensor, store, totals, affected_workers, affected_tasks, label_slots)


def gather_affected_rows(
    tensor: AnswerTensor,
    affected_workers: np.ndarray,
    affected_tasks: np.ndarray,
) -> np.ndarray:
    """Answer rows relevant to a localized sweep over the given entities.

    Every answer of every affected worker (to re-estimate that worker's
    quality) or affected task (labels and influence), gathered through the
    tensor's per-entity row indexes and deduplicated.  Requires row tracking.
    """
    return np.unique(
        np.fromiter(
            itertools.chain.from_iterable(
                [tensor.rows_of_worker(int(i)) for i in affected_workers]
                + [tensor.rows_of_task(int(j)) for j in affected_tasks]
            ),
            dtype=np.intp,
        )
    )


def label_slots_of_tasks(
    label_offsets: np.ndarray, task_rows: np.ndarray
) -> np.ndarray:
    """Flat label slots owned by ``task_rows``, concatenated in row order."""
    task_rows = np.asarray(task_rows, dtype=np.intp)
    starts = np.asarray(label_offsets[task_rows], dtype=np.intp)
    counts = np.asarray(label_offsets[task_rows + 1], dtype=np.intp) - starts
    ends = np.cumsum(counts)
    # Slot k of the output is its task's first slot plus k minus the number
    # of slots the tasks before it own.
    return np.arange(ends[-1] if ends.size else 0, dtype=np.intp) + np.repeat(
        starts - (ends - counts), counts
    )


@dataclass(frozen=True)
class SweepReport:
    """Work accounting of one :func:`localized_sweeps` or :func:`cached_sweeps`."""

    #: Localized E/M sweeps actually executed (≤ the requested iterations).
    sweeps_run: int = 0
    #: Affected workers dropped from later sweeps by the convergence exit.
    workers_settled: int = 0
    #: Affected tasks dropped from later sweeps by the convergence exit.
    tasks_settled: int = 0
    #: Store rows of the workers that settled.
    settled_worker_rows: np.ndarray | None = None
    #: Store rows of the tasks that settled.
    settled_task_rows: np.ndarray | None = None


def _moving(
    store: ArrayParameterStore,
    workers: np.ndarray,
    tasks: np.ndarray,
    label_slots: np.ndarray,
    before: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-entity settle test: masks of the entities still moving.

    A worker moves by the largest change of its qualification or distance
    weights since ``before``, a task by that of its influence weights or any
    of its label slots (``label_slots`` concatenates the tasks' slot ranges
    in ``tasks`` order).  An entity moving at most ``threshold`` settled.
    """
    prev_pq, prev_dw, prev_iw, prev_lp = before
    w_delta = np.maximum(
        np.abs(store.p_qualified[workers] - prev_pq),
        np.abs(store.distance_weights[workers] - prev_dw).max(axis=1),
    )
    moving_w = w_delta > threshold
    moving_t = np.zeros(0, dtype=bool)
    if tasks.size:  # reduceat needs at least one segment
        t_delta = np.abs(store.influence_weights[tasks] - prev_iw).max(axis=1)
        offsets = store.label_offsets
        counts = np.asarray(offsets[tasks + 1] - offsets[tasks], dtype=np.intp)
        starts = np.cumsum(counts) - counts
        # Per-task max over the task's label slots (each task owns >= 1).
        slot_delta = np.abs(store.label_probs[label_slots] - prev_lp)
        t_delta = np.maximum(t_delta, np.maximum.reduceat(slot_delta, starts))
        moving_t = t_delta > threshold
    return moving_w, moving_t


def _settling_sweeps(
    store: ArrayParameterStore,
    rows: np.ndarray,
    workers: np.ndarray,
    tasks: np.ndarray,
    label_slots: np.ndarray,
    iterations: int,
    threshold: float,
    sweep: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None],
    shrink: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> SweepReport:
    """Up to ``iterations`` calls of ``sweep(rows, workers, tasks, label_slots)``.

    With ``threshold > 0`` every sweep but the last is followed by the
    per-entity settle test: settled entities drop out of the remaining
    sweeps and ``shrink(rows, workers, tasks)`` narrows the row set to the
    entities still moving.  The loop stops once every entity has settled or
    no row is left.
    """
    offsets = store.label_offsets
    sweeps_run = 0
    settled_w: list[np.ndarray] = []
    settled_t: list[np.ndarray] = []
    for index in range(iterations):
        track = threshold > 0.0 and index + 1 < iterations
        if track:
            # Fancy indexing already returns fresh copies — safe snapshots.
            before = (
                store.p_qualified[workers],
                store.distance_weights[workers],
                store.influence_weights[tasks],
                store.label_probs[label_slots],
            )
        sweep(rows, workers, tasks, label_slots)
        sweeps_run += 1
        if not track:
            continue
        moving_w, moving_t = _moving(
            store, workers, tasks, label_slots, before, threshold
        )
        keep_w = workers[moving_w]
        keep_t = tasks[moving_t]
        if keep_w.size < workers.size:
            settled_w.append(workers[~moving_w])
        if keep_t.size < tasks.size:
            settled_t.append(tasks[~moving_t])
        if keep_w.size == 0 and keep_t.size == 0:
            break
        if keep_w.size == workers.size and keep_t.size == tasks.size:
            continue  # nothing settled; the rows and slots stay valid
        workers = keep_w
        tasks = keep_t
        label_slots = label_slots_of_tasks(offsets, tasks)
        rows = shrink(rows, workers, tasks)
        if rows.size == 0:
            break
    empty = np.empty(0, dtype=np.intp)
    settled_worker_rows = np.concatenate(settled_w) if settled_w else empty
    settled_task_rows = np.concatenate(settled_t) if settled_t else empty
    return SweepReport(
        sweeps_run=sweeps_run,
        workers_settled=int(settled_worker_rows.size),
        tasks_settled=int(settled_task_rows.size),
        settled_worker_rows=settled_worker_rows,
        settled_task_rows=settled_task_rows,
    )


def localized_sweeps(
    tensor: AnswerTensor,
    store: ArrayParameterStore,
    answer_rows: np.ndarray,
    affected_workers: np.ndarray,
    affected_tasks: np.ndarray,
    label_slots: np.ndarray,
    iterations: int,
    early_exit_threshold: float = 0.0,
) -> SweepReport:
    """Run up to ``iterations`` localized sweeps with per-entity early exit.

    Each sweep is one :func:`em_step_localized` over the affected entities'
    whole neighbourhood.  With ``early_exit_threshold > 0``, entities whose
    parameters all moved at most that much in a sweep are considered settled
    and dropped from the remaining sweeps (the neighbourhood is re-gathered
    around the rest); once every affected entity has settled the loop stops
    outright.  Settled neighbourhoods therefore stop burning iterations —
    late in a long stream most affected entities are already well-estimated
    and one sweep barely moves them.  ``early_exit_threshold == 0`` runs
    every sweep over the full affected sets, which is what the per-record
    oracle equivalence pins.  ``label_slots`` must be the concatenation of
    the affected tasks' slot ranges in ``affected_tasks`` order (as
    :func:`label_slots_of_tasks` builds them).
    """
    return _settling_sweeps(
        store,
        answer_rows,
        affected_workers,
        affected_tasks,
        label_slots,
        iterations,
        early_exit_threshold,
        sweep=functools.partial(em_step_localized, tensor, store),
        shrink=lambda _rows, workers, tasks: gather_affected_rows(
            tensor, workers, tasks
        ),
    )


class SufficientStatCache:
    """Incremental-EM sufficient statistics over a live tensor/store pair.

    The M-step is a function of per-entity totals however they were
    accumulated (Neal & Hinton, "A view of the EM algorithm that justifies
    incremental, sparse, and other variants").  :func:`em_step_localized`
    re-sums the totals of every affected entity from its whole history each
    sweep, which makes a micro-batch sweep O(entity-history) — the cost that
    grows with the stream.  This cache keeps the totals instead:

    * the posterior contributions as last computed: ``z1`` and ``i1`` per
      label row, and the ``dw``/``dt`` profile posteriors per answer row,
      already summed over its label rows (``(N, |F|)`` blocks);
    * the running totals those rows sum into, plus the count denominators
      (labels per worker/task, answers per task) — the same totals
      :func:`em_step` sums, so a fresh cache estimates exactly what the full
      step does.

    A batch sweep then *folds* only the batch's rows: it recomputes their
    posteriors under the current parameters, adds the difference against
    the cached values into the totals, and runs the shared closed-form
    M-step straight off the totals.  Rows outside the batch keep the
    contribution from whenever they were last computed — the incremental
    scheme, which converges to the same stationary points as full sweeps.
    Every full refresh replaces the store, invalidating the cache, so that
    drift never survives a refresh interval.

    The cache is bound to one ``(tensor, store)`` object pair; check
    :meth:`in_sync_with` before reuse and rebuild when either was replaced.

    **Exponential decay** (``decay`` < 1): the cache additionally tracks an
    integer *epoch*.  :meth:`decay_step` multiplies every total by ``decay``
    and advances the epoch — O(W+T+S), touching no rows.  Each answer row
    remembers the epoch it arrived at (its label rows arrive with it;
    pre-existing rows may be back-dated via ``row_ages``), so its live
    weight in the totals is ``decay^(epoch - arrival epoch)``: the totals
    are built with those weights, and a fold weights its differences by them
    — re-aging costs O(changed rows), and a row that is never re-folded
    fades at exactly the same rate as its count.  ``decay == 1.0`` takes no
    weights at all.
    """

    def __init__(
        self,
        tensor: AnswerTensor,
        store: ArrayParameterStore,
        decay: float = 1.0,
        row_ages: np.ndarray | None = None,
    ) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.tensor = tensor
        self.store = store
        self._decay = float(decay)
        self._epoch = 0
        self._answer_epoch = None
        weights = None
        if decay < 1.0:
            if row_ages is None:
                ages = np.zeros(tensor.num_answers, dtype=float)
            else:
                ages = np.asarray(row_ages, dtype=float)
                if ages.shape != (tensor.num_answers,):
                    raise ValueError(
                        f"row_ages must have shape ({tensor.num_answers},), got "
                        f"{ages.shape}"
                    )
            weights = self._decay**ages
            # An answer's arrival epoch relative to epoch 0 is minus its age,
            # so decay^(epoch - answer_epoch) reproduces its weight at any
            # epoch.
            self._answer_epoch = -ages
        rows = _all_rows(tensor)
        posteriors = _row_posteriors(store, rows, full_evidence=False)[:4]
        self._row_z1, self._row_i1, self._answer_dw, self._answer_dt = posteriors
        sizes = (store.num_label_slots, store.num_workers, store.num_tasks)
        # Decay steps and growth update the counts in place, as floats.
        counts = _Counts(
            *(total.astype(float) for total in _counts(rows, sizes, weights))
        )
        self._totals = _totals(rows, posteriors, sizes, weights, counts)
        self._num_slots, self._num_workers, self._num_tasks = sizes
        self._synced_answers = tensor.num_answers
        self._synced_label_rows = tensor.num_label_responses

    @property
    def decay(self) -> float:
        return self._decay

    @property
    def epoch(self) -> int:
        """Decay steps applied since the cache was built."""
        return self._epoch

    def decay_step(self) -> None:
        """Age every statistic by one step: totals and counts scale by decay.

        O(W + T + S) multiplications, no row access.  A no-op at decay=1.0 so
        callers can invoke it unconditionally.
        """
        if self._decay == 1.0:
            return
        for total in vars(self._totals).values():
            total *= self._decay
        self._epoch += 1

    def in_sync_with(self, tensor: AnswerTensor, store: ArrayParameterStore) -> bool:
        """Whether the cache still describes this exact tensor/store pair."""
        return self.tensor is tensor and self.store is store

    def sync_growth(self) -> None:
        """Absorb rows and entities appended to the tensor since the last fold.

        New answer and label rows start with a zero cached contribution
        (their first fold adds the full posterior) and arrive at the current
        epoch; new entities start with zero totals; the
        count denominators are advanced by the fresh answer rows.  Re-answers
        rewrite existing rows in place and are recomputed by the fold itself,
        so only genuinely new rows matter here.
        """
        tensor = self.tensor
        totals = self._totals
        num_rows = tensor.num_label_responses
        if num_rows > self._synced_label_rows:
            old = self._synced_label_rows
            self._row_z1 = _zero_grown(self._row_z1, old, num_rows)
            self._row_i1 = _zero_grown(self._row_i1, old, num_rows)
            self._synced_label_rows = num_rows
        num_workers = tensor.num_workers
        if num_workers > self._num_workers:
            old = self._num_workers
            totals.worker_i = _zero_grown(totals.worker_i, old, num_workers)
            totals.worker_dw = _zero_grown(totals.worker_dw, old, num_workers)
            totals.worker_labels = _zero_grown(totals.worker_labels, old, num_workers)
            self._num_workers = num_workers
        num_tasks = tensor.num_tasks
        if num_tasks > self._num_tasks:
            old = self._num_tasks
            totals.task_dt = _zero_grown(totals.task_dt, old, num_tasks)
            totals.task_labels = _zero_grown(totals.task_labels, old, num_tasks)
            totals.task_answers = _zero_grown(totals.task_answers, old, num_tasks)
            self._num_tasks = num_tasks
        num_slots = int(tensor.label_offsets[-1])
        if num_slots > self._num_slots:
            totals.slot_z = _zero_grown(totals.slot_z, self._num_slots, num_slots)
            self._num_slots = num_slots
        num_answers = tensor.num_answers
        if num_answers > self._synced_answers:
            old = self._synced_answers
            fresh = slice(old, num_answers)
            self._answer_dw = _zero_grown(self._answer_dw, old, num_answers)
            self._answer_dt = _zero_grown(self._answer_dt, old, num_answers)
            if self._answer_epoch is not None:
                self._answer_epoch = _grown_buffer(self._answer_epoch, num_answers)
                self._answer_epoch[fresh] = float(self._epoch)
            aw = tensor.a_worker[fresh]
            at = tensor.a_task[fresh]
            counts = tensor.num_labels[at].astype(float)
            totals.worker_labels[: self._num_workers] += np.bincount(
                aw, weights=counts, minlength=self._num_workers
            )
            totals.task_labels[: self._num_tasks] += np.bincount(
                at, weights=counts, minlength=self._num_tasks
            )
            totals.task_answers[: self._num_tasks] += np.bincount(
                at, minlength=self._num_tasks
            )
            self._synced_answers = num_answers

    def fold(self, answer_rows: np.ndarray) -> int:
        """Recompute the posteriors of ``answer_rows`` and fold the deltas in.

        ``answer_rows`` must not repeat a row.  Returns the number of label
        rows recomputed.  Cost is O(batch label rows + batch answers · |F|)
        plus O(W + T + S) for the zero-filled segment sums — independent of
        how much history the touched entities have.
        """
        rows, label_rows = _gather_rows(self.tensor, answer_rows)
        post_z1, post_i1, post_dw, post_dt, _ = _row_posteriors(
            self.store, rows, full_evidence=False
        )
        scale = None
        if self._answer_epoch is not None:
            # Re-aging O(changed rows): the row's live weight in the totals is
            # decay^(epoch - arrival epoch), applied to old and new posterior
            # alike so numerator and (globally decayed) denominator agree.
            scale = self._decay ** (self._epoch - self._answer_epoch[answer_rows])
        deltas = (
            post_z1 - self._row_z1[label_rows],
            post_i1 - self._row_i1[label_rows],
            post_dw - self._answer_dw[answer_rows],
            post_dt - self._answer_dt[answer_rows],
        )
        sizes = (self._num_slots, self._num_workers, self._num_tasks)
        delta = _totals(rows, deltas, sizes, weights=scale)
        totals = self._totals
        totals.slot_z[: self._num_slots] += delta.slot_z
        totals.worker_i[: self._num_workers] += delta.worker_i
        totals.worker_dw[: self._num_workers] += delta.worker_dw
        totals.task_dt[: self._num_tasks] += delta.task_dt
        self._row_z1[label_rows] = post_z1
        self._row_i1[label_rows] = post_i1
        self._answer_dw[answer_rows] = post_dw
        self._answer_dt[answer_rows] = post_dt
        return int(label_rows.size)

    def estimate(
        self,
        affected_workers: np.ndarray,
        affected_tasks: np.ndarray,
        label_slots: np.ndarray,
    ) -> None:
        """The closed-form M-step for the affected entities, off the totals."""
        _m_step_into(
            self.tensor,
            self.store,
            self._totals,
            affected_workers,
            affected_tasks,
            label_slots,
        )


def _zero_grown(buffer: np.ndarray, old: int, size: int) -> np.ndarray:
    """``buffer`` grown to ``size`` rows, with rows ``old:size`` zeroed."""
    grown = _grown_buffer(buffer, size)
    grown[old:size] = 0.0
    return grown


def cached_sweeps(
    cache: SufficientStatCache,
    batch_rows: np.ndarray,
    affected_workers: np.ndarray,
    affected_tasks: np.ndarray,
    label_slots: np.ndarray,
    iterations: int,
    early_exit_threshold: float,
) -> SweepReport:
    """Run up to ``iterations`` O(changed) sweeps off the sufficient stats.

    Each sweep folds only the batch's own rows into the cache's totals
    (:meth:`SufficientStatCache.fold`) and re-estimates the affected
    entities from them (:meth:`SufficientStatCache.estimate`), instead of
    re-summing whole entity histories as :func:`localized_sweeps` does.  The
    settle exit is the same per-entity test; settled entities shrink the
    fold set to the batch rows still touching an active entity, and the
    report's settled store rows let the caller defer them across future
    batches.
    """
    tensor = cache.tensor

    def sweep(rows, workers, tasks, slots):
        cache.fold(rows)
        cache.estimate(workers, tasks, slots)

    def shrink(rows, workers, tasks):
        touching = np.isin(tensor.a_worker[rows], workers) | np.isin(
            tensor.a_task[rows], tasks
        )
        return rows[touching]

    return _settling_sweeps(
        cache.store,
        batch_rows,
        affected_workers,
        affected_tasks,
        label_slots,
        iterations,
        early_exit_threshold,
        sweep=sweep,
        shrink=shrink,
    )


def warm_start_extra_delta(
    initial: ArrayParameterStore, tensor: AnswerTensor
) -> float:
    """First-iteration convergence-delta correction for warm starts.

    The largest parameter change of Figure 10 spans the *union* of the old
    and new entity sets
    (:meth:`~repro.core.params.ArrayParameterStore.max_difference`), while
    the EM loop only tracks entities present in the answer tensor.  When
    warm-starting from a store whose entity sets differ from the tensor's,
    the union picks up extra terms: a task present on one side only
    contributes 1.0, and a worker present only in ``initial`` is compared
    against the footnote-3 prior.  This returns the maximum of those extra
    terms so the loop can fold it into its first iteration's delta.
    """
    extra = 0.0 if set(initial.task_ids) == set(tensor.task_ids) else 1.0
    seen = set(tensor.worker_ids)
    outside = [row for row, w in enumerate(initial.worker_ids) if w not in seen]
    return max(extra, prior_distance(initial, outside))


def prior_distance(store: ArrayParameterStore, worker_rows: Sequence[int]) -> float:
    """Largest change between the given worker rows and the footnote-3 prior."""
    if not len(worker_rows):
        return 0.0
    rows = np.asarray(worker_rows, dtype=np.intp)
    prior = store.function_set.best_quality_weights()
    return max(
        float(np.abs(1.0 - store.p_qualified[rows]).max()),
        float(np.abs(prior - store.distance_weights[rows]).max()),
    )
