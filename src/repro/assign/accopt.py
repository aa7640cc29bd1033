"""The paper's greedy accuracy-optimal assigner (AccOpt, Algorithm 1).

Section IV formulates the optimal task assignment problem: given the set ``W``
of currently available workers and a per-worker HIT size ``h``, choose ``A(W)``
maximising the total expected accuracy improvement
``Σ_t Σ_k ΔAcc_{t,k}(Ŵ(t))``.  The exact problem is NP-hard (Lemma 3), so the
paper uses the greedy Algorithm 1: repeatedly pick the (worker, task) pair with
the largest marginal ΔAcc, update the affected task's hypothetical accuracy via
Lemma 2's recursion, and stop when every worker has ``h`` tasks.

:class:`AccOptAssigner` implements Algorithm 1 on the batched ΔAcc kernels of
:mod:`repro.core.accuracy_kernel`.  A request's inputs that change less often
than requests arrive are kept across requests, so a warm request's Python work
scales with the requesting workers (and the tasks they answered), with its
picks and with the answers that arrived since the last request, not with |T|:

* the estimate's arrays, aligned to the assigner's task and worker order, and
  the Equation 15 baseline of its label probabilities — built once per
  parameter version; a request reads its workers' rows of the aligned arrays
  straight into the kernels (no per-request store);
* ``|W(t)|`` per task — counted in full once per answer set, then advanced
  by the (worker, task) pairs the log gained since
  (:meth:`~repro.data.models.AnswerSet.pair_tasks_since`), and extended by
  each task posted after startup;
* per worker, the distance row and the answered-task columns
  (:meth:`~repro.core.assignment.TaskAssigner.answered_columns`, advanced by
  the worker's new pairs), so the eligibility mask is one index write.

Each request's greedy pass borrows the counts and the baseline in place and
logs what its picks overwrite; on exit the log is undone in reverse
(:func:`~repro.core.accuracy_kernel.greedy_state`), so entering and leaving
cost O(picks).  A pick re-scores only the workers that can still take its
task, and the last pick is not committed, since no later pick reads it: a
one-worker request — the serving frontend's pattern — commits ``h − 1``
picks and re-scores nothing.

The greedy loop runs in one of two layouts:

* ``engine="vectorized"`` (the default) scores every candidate pair: one
  ``(|W|, |T|)`` Equation 9 matrix over the aligned arrays and the workers'
  cached distance rows, one fused marginal-gain matrix, and a re-score of
  the chosen column's live rows after each greedy pick.
* ``engine="sparse"`` scores only the radius-bounded candidate pairs of a
  :class:`~repro.spatial.candidates.CandidateIndex` (CSR layout over a
  :class:`~repro.spatial.grid_index.GridIndex` bulk query), substituting the
  shared closed-form :func:`~repro.core.accuracy_kernel.far_field_accuracy`
  for every out-of-radius pair.  Because the far-field accuracy is one scalar,
  far marginal gains collapse to per-task values, so the greedy loop needs
  only O(nnz) candidate state plus an O(|T|) far-side heap instead of the
  dense ``(|W|, |T|)`` matrices — with ``candidate_radius=inf`` (every pair a
  candidate) it reproduces the vectorized engine's pick sequence exactly.

The scalar Algorithm 1 — Lemma 2's recursion one label at a time, driven
through a lazy max-heap — lives in ``tests/oracles/accopt.py``.  The dense
layout must reproduce its assignments exactly
(``tests/test_assign_accopt_equivalence.py``), and the sparse layout the
dense one's at a covering radius (``tests/test_sparse_kernels.py``).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import accuracy_kernel
from repro.core.assignment import TaskAssigner
from repro.core.params import ArrayParameterStore, RowAlignment
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.candidates import CandidateIndex
from repro.spatial.distance import DistanceModel

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

#: Engines accepted by :class:`AccOptAssigner`.
ACCOPT_ENGINES = ("vectorized", "sparse")


class AccOptAssigner(TaskAssigner):
    """The paper's greedy accuracy-optimal assigner (Algorithm 1).

    The assigner consumes the latest estimate (worker qualities, POI
    influences, label probabilities) via :meth:`update_parameters` — an
    :class:`~repro.core.params.ArrayParameterStore` such as a snapshot's
    frozen store — and greedily maximises the expected accuracy improvement
    of the batch.  The first request after an update re-gathers the
    estimate onto the assigner's task and worker order in NumPy (entities it
    lacks get the footnote-3 priors; the index maps of that
    :class:`~repro.core.params.RowAlignment` are kept while the estimate's
    ids stay put) and builds that version's one Equation 15 baseline; every
    request then reads its workers' rows of the aligned arrays and runs its
    greedy pass on the baseline.  ``|W(t)|`` is counted in full once per
    answer set, then advanced by the pairs the log gains between requests;
    each worker's answered-task columns follow the worker's own new pairs
    the same way.
    A task posted after startup (:meth:`add_task`) extends the counts, the
    label layout and the alignment instead of dropping them.

    The dense engine caches each worker's distance row (:meth:`distance_row`),
    computed from the worker's location arrays and the task coordinate arrays
    the assigner keeps and grows as tasks arrive; a row cached before the
    universe grew is extended from the arrays' tail.  The sparse engine
    caches no dense row: its :meth:`distance_row` is a fresh one from the
    same arrays.

    Complexity matches the paper — ``O(|W|·|T|·|L| + h·|W|²·|L|)`` per batch:
    the initial scoring of every (worker, task) pair dominates, and each greedy
    pick only re-scores the chosen task for the remaining workers.  The
    vectorized engine keeps that shape but turns the initial scoring into a
    handful of ``(|W|, |T|)`` NumPy kernels (with worker-to-task distance rows
    and the task-side parameter arrays cached across calls) and each re-score
    into one update of the column's live rows, so per-arrival latency stays
    flat as Figure 14 scales tasks and workers.
    """

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        distance_model: DistanceModel,
        parameters: ArrayParameterStore | None = None,
        engine: str = "vectorized",
        candidate_radius: float | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        super().__init__(tasks, workers, distance_model)
        if engine not in ACCOPT_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ACCOPT_ENGINES}"
            )
        if engine == "sparse" and candidate_radius is None:
            raise ValueError(
                "engine='sparse' needs a candidate_radius (raw coordinate "
                "units; use inf to keep every pair a candidate)"
            )
        self._engine = engine
        self._candidate_radius = candidate_radius
        self._metrics = metrics
        self._candidate_index: CandidateIndex | None = None
        # Ragged label layout over the task ordering, rebuilt lazily after the
        # universe grows.
        self._task_layout: tuple[np.ndarray, np.ndarray] | None = None
        # Worker-to-task distances are pure geometry — cached per worker for
        # the serving frontend's one-worker-per-request pattern (dense engine
        # only); rows are extended when tasks arrive after the row was cached.
        self._distance_rows: dict[str, np.ndarray] = {}
        # Worker rows of the aligned arrays: construction, then arrival order.
        self._worker_row = {wid: i for i, wid in enumerate(self._workers)}
        # Index maps from the estimate's rows to the assigner's, kept while
        # the estimate's id tuples (``_alignment_ids``) stay equal and no
        # worker joins.
        self._alignment: RowAlignment | None = None
        self._alignment_ids: tuple | None = None
        # |W(t)| over the task order, as of the first ``_counted_pairs``
        # pairs of ``_counted`` (held by reference, compared with ``is``).
        self._counts: np.ndarray | None = None
        self._counted: AnswerSet | None = None
        self._counted_pairs = 0
        self.update_parameters(parameters or ArrayParameterStore.empty())

    def _on_task_added(self, task: Task) -> None:
        """Extend the task-side structures for a task posted after startup.

        The label layout and ``|W(t)|`` grow by one column; the new count
        covers exactly the pairs counted so far, so the next catch-up adds
        the rest.  The alignment's index maps stay valid unless the estimate
        holds the new task; the aligned arrays are re-gathered from them.
        """
        task_id, size = task.task_id, task.num_labels
        if self._task_layout is not None:
            num_labels, label_offsets = self._task_layout
            self._task_layout = (
                np.append(num_labels, size),
                np.append(label_offsets, label_offsets[-1] + size),
            )
        if self._counts is not None:
            counted = self._counted
            count = counted.answer_count_of_task(task_id) - counted.pair_tasks_since(
                self._counted_pairs
            ).count(task_id)
            self._counts = np.append(self._counts, float(count))
        alignment = self._alignment
        if alignment is not None and not self._estimate.has_task(task_id):
            self._alignment = alignment._replace(
                task_ids=alignment.task_ids + (task_id,),
                label_offsets=np.append(
                    alignment.label_offsets, alignment.label_offsets[-1] + size
                ),
            )
        else:
            self._alignment = None
        self._aligned = None
        if self._candidate_index is not None:
            self._candidate_index.add_task(task)

    def _on_worker_added(self, worker: Worker) -> None:
        """Give a worker who joined after startup an aligned parameter row."""
        self._worker_row[worker.worker_id] = len(self._worker_row)
        self._alignment = self._aligned = None

    @property
    def parameters(self) -> ArrayParameterStore:
        """The estimate in force, as given."""
        return self._estimate

    @property
    def engine(self) -> str:
        return self._engine

    def update_parameters(self, parameters: ArrayParameterStore) -> None:
        self._estimate = parameters
        self._aligned: tuple | None = None

    def _ensure_task_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """``(num_labels, label_offsets)`` over the current task ordering."""
        if self._task_layout is None:
            num_labels = np.asarray(
                [self._tasks[tid].num_labels for tid in self._task_ids],
                dtype=np.intp,
            )
            label_offsets = np.concatenate(([0], np.cumsum(num_labels)))
            self._task_layout = (num_labels, label_offsets)
        return self._task_layout

    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        self._validate_request(available_workers, h)
        if not available_workers:
            return {}
        # Quarantined (excluded) workers get empty HITs and never participate
        # in the greedy scoring: spending budget on a distrusted worker wastes
        # answers the EM step would then have to down-weight anyway.
        workers = self._assignable_workers(available_workers)
        if not workers:
            return {w: [] for w in available_workers}
        # Sorted worker rows so that argmax's row-major tie-break (first row
        # wins) matches a heap's lexicographic (worker, task) ordering on
        # exactly tied gains, independent of the caller's order.
        worker_list = sorted(workers)
        baseline, aligned = self._aligned_parameters()
        engine = (
            self._assign_sparse if self._engine == "sparse" else self._assign_vectorized
        )
        counts = self._answer_counts(answers)
        with accuracy_kernel.greedy_state(baseline, counts) as state:
            assignment = engine(worker_list, h, answers, aligned, state)
        for worker_id in available_workers:
            assignment.setdefault(worker_id, [])
        return assignment

    # ------------------------------------------- parameter alignment, counts
    def _aligned_parameters(
        self,
    ) -> tuple[accuracy_kernel.BatchAccuracyState, ArrayParameterStore]:
        """``(baseline, aligned)``: the estimate over the assigner's orders.

        ``aligned`` holds task rows over the task order and worker rows over
        the worker order; ``baseline`` is the Equation 15 state of its label
        probabilities over the flat label slots (its ``p_z1``; ``m_t = 0``,
        each request supplies the counts).
        """
        if self._aligned is None:
            estimate = self._estimate
            ids = (estimate.task_ids, estimate.worker_ids)
            if self._alignment is None or self._alignment_ids != ids:
                num_labels, _ = self._ensure_task_layout()
                self._alignment = estimate.alignment(
                    tuple(self._worker_row), self._task_ids, num_labels
                )
                self._alignment_ids = ids
            aligned = estimate.gathered(self._alignment)
            baseline = accuracy_kernel.baseline_state(
                aligned.label_probs, aligned.label_offsets, np.zeros(aligned.num_tasks)
            )
            self._aligned = (baseline, aligned)
        return self._aligned

    def _answer_counts(self, answers: AnswerSet) -> np.ndarray:
        """``|W(t)|`` over the task order, as a float array.

        Counted in full for an answer set other than the one counted last, or
        after the universe grew; otherwise the counts advance by the pairs
        ``answers`` gained since (re-answers add none).  A request's greedy
        pass borrows this array as its ``m_t`` and restores it on exit.
        """
        if answers is not self._counted or self._counts is None:
            self._counts = np.array(
                [answers.answer_count_of_task(tid) for tid in self._task_ids],
                dtype=float,
            )
            self._counted = answers
        else:
            counts, columns = self._counts, self._task_column
            for task_id in answers.pair_tasks_since(self._counted_pairs):
                column = columns.get(task_id)
                if column is not None:
                    counts[column] += 1.0
        self._counted_pairs = len(answers)
        return self._counts

    # ------------------------------------------------------- vectorized engine
    def distance_row(self, worker_id: str) -> np.ndarray:
        """Normalised distances from one worker to every task, by column.

        The dense engine caches the row per worker; a row cached before the
        task universe grew is extended with just the new tasks' distances,
        so the accuracy kernel's distance matrix keeps pace with the store
        without recomputing known geometry.  The sparse engine keeps no
        dense rows and computes a fresh one.
        """
        if self._engine == "sparse":
            return super().distance_row(worker_id)
        row = self._distance_rows.get(worker_id)
        if row is None:
            row = self._distances_from(worker_id, 0)
        elif row.size < len(self._task_ids):
            row = np.concatenate([row, self._distances_from(worker_id, row.size)])
        else:
            return row
        self._distance_rows[worker_id] = row
        return row

    def _equation9_inputs(
        self, worker_list: Sequence[str], aligned: ArrayParameterStore
    ) -> tuple:
        """What the Equation 9 kernels read after the distances: the
        requesting workers' ``p_qualified`` and ``distance_weights`` rows,
        then ``influence_weights``, ``alpha`` and the lambdas."""
        rows = [self._worker_row[worker_id] for worker_id in worker_list]
        return (
            aligned.p_qualified[rows],
            aligned.distance_weights[rows],
            aligned.influence_weights,
            aligned.alpha,
            aligned.function_set.lambdas,
        )

    def _assign_vectorized(
        self,
        worker_list: Sequence[str],
        h: int,
        answers: AnswerSet,
        aligned: ArrayParameterStore,
        state: accuracy_kernel.BatchAccuracyState,
    ) -> dict[str, list[str]]:
        num_workers = len(worker_list)
        num_tasks = len(self._task_ids)

        distances = np.stack([self.distance_row(w) for w in worker_list])
        accuracies = accuracy_kernel.answer_accuracy_matrix(
            distances, *self._equation9_inputs(worker_list, aligned)
        )
        # Ineligible pairs — answered, picked, or of a worker at capacity —
        # hold -inf for good; every real gain is finite.
        scores = accuracy_kernel.marginal_gains(state, accuracies)
        total_to_assign = 0
        for i, worker_id in enumerate(worker_list):
            done = self.answered_columns(worker_id, answers)
            scores[i, done] = -np.inf
            total_to_assign += min(h, num_tasks - done.size)
        capacity = np.full(num_workers, h, dtype=np.intp)

        assignment: dict[str, list[str]] = {w: [] for w in worker_list}
        for pick in range(total_to_assign):
            flat = int(np.argmax(scores))
            i, j = divmod(flat, num_tasks)
            if not np.isfinite(scores[i, j]):
                break  # defensive: no eligible pair left
            assignment[worker_list[i]].append(self._task_ids[j])
            if pick == total_to_assign - 1:
                break  # no later pick reads the state; greedy_state undoes it
            scores[i, j] = -np.inf
            capacity[i] -= 1
            if capacity[i] == 0:
                scores[i, :] = -np.inf
            # Commit the pick and re-score the chosen task's column, for the
            # workers that can still take it (none in a one-worker request).
            accuracy_kernel.add_worker(state, j, float(accuracies[i, j]))
            live = np.flatnonzero(np.isfinite(scores[:, j]))
            if live.size:
                scores[live, j] = accuracy_kernel.marginal_gains_for_task(
                    state, j, accuracies[live, j]
                )
        return assignment

    # ----------------------------------------------------------- sparse engine
    def _ensure_candidate_index(self) -> CandidateIndex:
        """The lazily-built candidate structure; columns follow _task_ids."""
        if self._candidate_index is None:
            assert self._candidate_radius is not None
            self._candidate_index = CandidateIndex(
                [self._tasks[tid] for tid in self._task_ids],
                self._distance_model,
                self._candidate_radius,
                metrics=self._metrics,
            )
        return self._candidate_index

    def _assign_sparse(
        self,
        worker_list: Sequence[str],
        h: int,
        answers: AnswerSet,
        aligned: ArrayParameterStore,
        state: accuracy_kernel.BatchAccuracyState,
    ) -> dict[str, list[str]]:
        """Algorithm 1 over candidate pairs only (plus a far-field heap).

        Candidate pairs carry exact Equation 9 accuracies computed through
        the same kernels as the dense path; every out-of-radius pair shares
        the closed-form far-field accuracy, whose marginal gain is therefore
        a per-task scalar.  The greedy loop keeps (a) the best candidate per
        worker row (first-argmax over the row's CSR segment, replicating the
        dense row-major tie-break) and (b) a lazy max-heap over far-field
        task gains that is consulted only when it could beat the best
        candidate — exact ties go to the candidate.  A pick re-scores the
        live candidates of one CSR column (O(nnz in column)) and one far-gain
        slot (O(1)).
        """
        num_workers = len(worker_list)
        num_tasks = len(self._task_ids)

        candidate_index = self._ensure_candidate_index()
        indptr, indices, data = candidate_index.rows_for(
            [self._workers[w] for w in worker_list]
        )
        nnz = int(indptr[-1])
        equation9 = self._equation9_inputs(worker_list, aligned)
        accuracies = accuracy_kernel.answer_accuracy_csr(
            indptr, indices, data, *equation9
        )
        scores = accuracy_kernel.marginal_gains_csr(state, indices, accuracies)
        rows = np.repeat(np.arange(num_workers, dtype=np.intp), np.diff(indptr))

        # Eligibility: pairs already answered by the worker leave the score
        # space for good (-inf marks a dead slot; real gains are finite).
        answered_cols: list[np.ndarray] = []
        total_to_assign = 0
        for i, worker_id in enumerate(worker_list):
            done = np.sort(self.answered_columns(worker_id, answers))
            answered_cols.append(done)
            total_to_assign += min(h, num_tasks - done.size)
            lo, hi = indptr[i], indptr[i + 1]
            scores[lo:hi][np.isin(indices[lo:hi], done, assume_unique=True)] = -np.inf

        capacity = np.full(num_workers, h, dtype=np.intp)
        far_assigned: list[set[int]] = [set() for _ in range(num_workers)]

        # Best candidate per worker row: first-argmax within the ascending-
        # column segment, so (row argmax, within-row argmax) reproduces the
        # dense engine's row-major flat argmax on exact ties.
        row_best = np.full(num_workers, -np.inf)
        row_arg = np.zeros(num_workers, dtype=np.intp)

        def refresh_row(i: int) -> None:
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            segment = scores[lo:hi]
            if segment.size and capacity[i] > 0:
                k = int(np.argmax(segment))
                row_best[i] = segment[k]
                row_arg[i] = lo + k
            else:
                row_best[i] = -np.inf

        for i in range(num_workers):
            refresh_row(i)

        # Column view of the CSR structure for the per-pick re-score.
        order_by_col = np.argsort(indices, kind="stable")
        sorted_cols = indices[order_by_col]

        # Far side: per-task gains under the shared far-field accuracy, in a
        # lazy max-heap.  Entries are validated by value on pop; a task with
        # no far-eligible worker left is dropped for good (eligibility only
        # ever shrinks).  With full coverage no far pair exists at all.
        p_qualified, *_, lambdas = equation9
        far_accuracy = accuracy_kernel.far_field_accuracy(p_qualified, lambdas)
        far_gains = accuracy_kernel.far_field_gains(state, far_accuracy)
        full_coverage = nnz == num_workers * num_tasks
        far_heap: list[tuple[float, int]] = (
            []
            if full_coverage
            else [(-float(far_gains[j]), j) for j in range(num_tasks)]
        )
        heapq.heapify(far_heap)

        def far_worker_for(j: int) -> int | None:
            """Smallest-index worker that can still take task ``j`` as far."""
            for i in range(num_workers):
                if capacity[i] <= 0 or j in far_assigned[i]:
                    continue
                done = answered_cols[i]
                pos = np.searchsorted(done, j)
                if pos < done.size and done[pos] == j:
                    continue
                row_cols = indices[indptr[i] : indptr[i + 1]]
                pos = np.searchsorted(row_cols, j)
                if pos < row_cols.size and row_cols[pos] == j:
                    continue  # a candidate pair, scored on the sparse side
                return i
            return None

        def best_far_pick(candidate_gain: float) -> tuple[int, int] | None:
            while far_heap:
                neg_gain, j = far_heap[0]
                if -neg_gain <= candidate_gain:
                    return None  # ties go to the candidate side
                if -neg_gain != far_gains[j]:
                    heapq.heapreplace(far_heap, (-float(far_gains[j]), j))
                    continue
                far_i = far_worker_for(j)
                if far_i is None:
                    heapq.heappop(far_heap)
                    continue
                return far_i, j
            return None

        def rescore_column(j: int) -> np.ndarray:
            """Re-score the live candidates of column ``j`` and its far gain;
            returns the re-scored rows."""
            lo = int(np.searchsorted(sorted_cols, j, side="left"))
            hi = int(np.searchsorted(sorted_cols, j, side="right"))
            span = order_by_col[lo:hi]
            live = span[np.isfinite(scores[span])]
            if live.size:
                scores[live] = accuracy_kernel.marginal_gains_for_task(
                    state, j, accuracies[live]
                )
            far_gains[j] = accuracy_kernel.marginal_gains_for_task(
                state, j, far_accuracy
            )
            if not full_coverage:
                heapq.heappush(far_heap, (-float(far_gains[j]), j))
            return rows[live]

        assignment: dict[str, list[str]] = {w: [] for w in worker_list}
        for pick in range(total_to_assign):
            best_i = int(np.argmax(row_best))
            candidate_gain = float(row_best[best_i])
            far_pick = best_far_pick(candidate_gain)
            if far_pick is not None:
                i, j = far_pick
                pick_accuracy = far_accuracy
                far_assigned[i].add(j)
            elif np.isfinite(candidate_gain):
                i = best_i
                pick_pos = int(row_arg[i])
                j = int(indices[pick_pos])
                pick_accuracy = float(accuracies[pick_pos])
                scores[pick_pos] = -np.inf
            else:
                break  # defensive: no assignable pair left
            assignment[worker_list[i]].append(self._task_ids[j])
            if pick == total_to_assign - 1:
                break  # no later pick reads the state; greedy_state undoes it
            capacity[i] -= 1
            if capacity[i] == 0:
                scores[int(indptr[i]) : int(indptr[i + 1])] = -np.inf
            accuracy_kernel.add_worker(state, j, pick_accuracy)
            affected = rescore_column(j)
            refresh_row(i)
            for other in np.unique(affected).tolist():
                if other != i:
                    refresh_row(other)
        return assignment

