"""Vectorised ΔAcc scoring kernels for the AccOpt assigner.

Section IV-B's math — the Equation 15 accuracy pairs, Lemma 2's recursion and
the Equation 20 improvement — written over arrays: the one engine
:class:`~repro.assign.accopt.AccOptAssigner` runs on, and the assignment
counterpart of :mod:`repro.core.em_kernel`.  The one-label-at-a-time form it
is tested against (``LabelAccuracy``, ``AccuracyEstimator``) lives in
``tests/oracles/accuracy.py``.

* :func:`answer_accuracy_matrix` evaluates Equation 9 for **every** candidate
  (worker, task) pair in one batch, from the arrays it reads — the requesting
  workers' ``p_qualified`` and ``distance_weights`` rows, the tasks'
  ``influence_weights``, ``alpha`` and the function set's lambdas — against
  the workers' normalised distance rows
  (:func:`~repro.spatial.distance.normalised_distance_row`);
* :class:`BatchAccuracyState` stores the Equation 15 accuracy pairs of every
  label of every task as flat ragged arrays (the exact layout of
  ``ArrayParameterStore.label_probs``), mirroring one list of scalar
  accuracy pairs per task;
* :func:`marginal_gains` scores the marginal ΔAcc of every candidate pair in
  one ``(|W|, |T|)`` array operation, and :func:`add_worker` commits a greedy
  pick by re-scoring only the chosen task (Algorithm 1's incremental update);
* :func:`greedy_state` lends one greedy pass a baseline built once per
  parameter version, and undoes the pass's picks on exit in O(picks).

The closed form behind :func:`marginal_gains`: Lemma 2's recursion

``Acc' = (m·Acc + p_e)/(m+1)·p_e + (m·Acc + (1−p_e))/(m+1)·(1−p_e)``

collapses algebraically to ``Acc' = (m·Acc + s)/(m+1)`` with
``s = p_e² + (1−p_e)²``, identically for the ``z ≡ 1`` and ``z ≡ 0`` branches.
The Equation 20 marginal improvement of adding one worker therefore sums over
the task's labels to ``(|L_t|·s − E_t)/(m_t+1)``, where
``E_t = Σ_k [p_k·Acc¹_k + (1−p_k)·Acc⁰_k]`` is the task's current expected
accuracy mass — a quantity that only changes when the task itself receives a
new tentative worker.  That is what turns the initial scoring into one fused
``(|W|, |T|)`` kernel and each greedy re-score into an update of the chosen
task's column, for the workers that can still take it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np


def _qualified_accuracy(
    squared: np.ndarray,
    p_qualified: np.ndarray,
    distance_weights: np.ndarray,
    influence_weights: np.ndarray,
    alpha: float,
    lambdas: Sequence[float],
) -> np.ndarray:
    """Equation 9 over squared distances, with every operand pre-broadcast.

    |F| is tiny (three functions in the paper), so one fused pass per
    function beats materialising the ``(|F|, …)`` tensor; the dense and CSR
    kernels share this accumulation order, which keeps their values
    bit-identical.
    """
    distance_quality = np.zeros(squared.shape)
    influence_quality = np.zeros(squared.shape)
    for index, lam in enumerate(lambdas):
        quality = (1.0 + np.exp(-lam * squared)) / 2.0
        distance_quality += distance_weights[..., index] * quality
        influence_quality += influence_weights[..., index] * quality
    qualified = alpha * distance_quality + (1.0 - alpha) * influence_quality
    return p_qualified * qualified + (1.0 - p_qualified) * 0.5


def answer_accuracy_matrix(
    distances: np.ndarray,
    p_qualified: np.ndarray,
    distance_weights: np.ndarray,
    influence_weights: np.ndarray,
    alpha: float,
    lambdas: Sequence[float],
) -> np.ndarray:
    """Equation 9 — ``P(r_{w,t,k} = z_{t,k})`` — for every (worker, task) pair.

    ``distances`` is the ``(|W|, |T|)`` matrix of normalised worker-to-task
    distances; ``p_qualified`` ``(|W|,)`` and ``distance_weights``
    ``(|W|, |F|)`` are the workers' rows in the same order,
    ``influence_weights`` ``(|T|, |F|)`` the tasks' rows, and ``lambdas``
    the function set's.  Returns the same-shape matrix of estimated answer
    accuracies: the batched counterpart of
    :meth:`repro.core.params.ArrayParameterStore.answer_accuracy`.
    """
    distances = np.asarray(distances, dtype=float)
    expected_shape = (p_qualified.shape[0], influence_weights.shape[0])
    if distances.shape != expected_shape:
        raise ValueError(
            f"distances must have shape {expected_shape}, got {distances.shape}"
        )
    return _qualified_accuracy(
        distances * distances,
        p_qualified[:, None],
        distance_weights[:, None, :],
        influence_weights[None, :, :],
        alpha,
        lambdas,
    )


def answer_accuracy_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    p_qualified: np.ndarray,
    distance_weights: np.ndarray,
    influence_weights: np.ndarray,
    alpha: float,
    lambdas: Sequence[float],
) -> np.ndarray:
    """Equation 9 for the candidate pairs of a CSR structure only.

    Sparse twin of :func:`answer_accuracy_matrix`: ``indptr``/``indices``
    describe per worker row (in the order of ``p_qualified`` and
    ``distance_weights``) the candidate task columns, ``data`` their
    normalised distances, and the result is the ``(nnz,)`` vector of answer
    accuracies aligned with ``indices``.  The accumulation order over the
    function set matches the dense kernel exactly (one fused pass per
    function), so a candidate pair's accuracy is bit-identical to the dense
    matrix entry — which is what lets the sparse AccOpt engine reproduce the
    dense greedy pick sequence when the radius covers the whole universe.
    """
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    data = np.asarray(data, dtype=float)
    num_workers = p_qualified.shape[0]
    if indptr.size != num_workers + 1:
        raise ValueError(
            f"indptr must have {num_workers + 1} entries, got {indptr.size}"
        )
    if indices.size != data.size or indices.size != int(indptr[-1]):
        raise ValueError("indices and data must both hold indptr[-1] entries")
    rows = np.repeat(np.arange(num_workers, dtype=np.intp), np.diff(indptr))
    return _qualified_accuracy(
        data * data,
        p_qualified[rows],
        distance_weights[rows],
        influence_weights[indices],
        alpha,
        lambdas,
    )


def far_field_accuracy(
    p_qualified: np.ndarray, lambdas: Sequence[float], far_distance: float = 1.0
) -> float:
    """The shared closed-form Equation 9 accuracy of an out-of-radius pair.

    Beyond the candidate radius a worker is "maximally far" from the task
    (normalised distance clipped to ``far_distance = 1.0``), and the pair
    carries no fitted signal worth an O(W·T) slot, so the sparse engines
    score **every** far pair with one shared scalar: Equation 9 evaluated at
    the far distance with the uniform function weights (the EM
    initialisation, hence the natural zero-information prior for both the
    worker's distance weights and the task's influence weights) and the mean
    qualification probability of the requesting workers (``p_qualified``).
    Because the scalar is shared, far-field marginal gains collapse to
    per-task values independent of the worker, which is what keeps the
    sparse greedy loop's bookkeeping O(T) instead of O(W·T).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    quality = (1.0 + np.exp(-lambdas * far_distance * far_distance)) / 2.0
    mixed = float(np.full(lambdas.size, 1.0 / lambdas.size) @ quality)
    p_mean = float(p_qualified.mean()) if p_qualified.size else 0.0
    return p_mean * mixed + (1.0 - p_mean) * 0.5


def _segment_sums(values: np.ndarray, label_offsets: np.ndarray) -> np.ndarray:
    """Per-task sums of a flat per-label array (tasks always own ≥ 1 label)."""
    return np.add.reduceat(values, label_offsets[:-1])


@dataclass
class BatchAccuracyState:
    """Accuracy pairs of every label of every task, as flat ragged arrays.

    The array counterpart of one list of per-label accuracy pairs per task:
    slot ``s`` of the flat arrays is label ``s`` in the
    ``label_offsets`` ragged layout (task ``j`` owns
    ``[label_offsets[j], label_offsets[j+1])``), exactly as
    :attr:`~repro.core.params.ArrayParameterStore.label_probs` stores them.

    ``expected_sum[j]`` caches ``E_j = Σ_k [p_k·Acc¹_k + (1−p_k)·Acc⁰_k]`` so
    :func:`marginal_gains` never touches the per-label arrays; it is refreshed
    by :func:`add_worker` for the one task a greedy pick changes.  A state
    lent by :func:`greedy_state` carries an ``undo`` log, to which
    :func:`add_worker` appends each picked task's ``(j, m_j, E_j)`` before it
    writes them.
    """

    label_offsets: np.ndarray  # (|T| + 1,) intp — ragged bounds into the slots
    num_labels: np.ndarray  # (|T|,) float — |L_t| per task
    p_z1: np.ndarray  # (S,) — the fixed ΔAcc weights (Equation 20)
    acc_correct: np.ndarray  # (S,) — Acc if the label is truly correct
    acc_incorrect: np.ndarray  # (S,) — Acc if the label is truly incorrect
    effective_answers: np.ndarray  # (|T|,) float — m_t = |W(t)| + |Ŵ(t)|
    expected_sum: np.ndarray  # (|T|,) — E_t, maintained by add_worker
    undo: list[tuple[int, float, float]] | None = None  # greedy_state's log


def baseline_state(
    label_probs: np.ndarray,
    label_offsets: np.ndarray,
    answer_counts: Sequence[int] | np.ndarray,
) -> BatchAccuracyState:
    """Equation 15 baselines for every task at once.

    ``label_probs`` is the flat ragged ``P(z = 1)`` storage (the
    ``ArrayParameterStore`` layout), ``answer_counts`` the per-task ``|W(t)|``.
    Batched counterpart of the scalar estimator's per-task baselines.
    """
    p_z1 = np.array(label_probs, dtype=float)
    offsets = np.asarray(label_offsets, dtype=np.intp)
    counts = np.asarray(answer_counts, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0 or int(offsets[-1]) != p_z1.size:
        raise ValueError(
            f"label_offsets must be ragged bounds over {p_z1.size} label slots"
        )
    if counts.shape != (offsets.size - 1,):
        raise ValueError(
            f"answer_counts must align with tasks: {counts.shape} vs {offsets.size - 1}"
        )
    if np.any(counts < 0):
        raise ValueError("answer counts must be non-negative")
    acc_correct = p_z1.copy()
    acc_incorrect = 1.0 - p_z1
    expected = _segment_sums(
        p_z1 * acc_correct + (1.0 - p_z1) * acc_incorrect, offsets
    )
    return BatchAccuracyState(
        label_offsets=offsets,
        num_labels=np.diff(offsets).astype(float),
        p_z1=p_z1,
        acc_correct=acc_correct,
        acc_incorrect=acc_incorrect,
        effective_answers=counts,
        expected_sum=expected,
    )


@contextmanager
def greedy_state(
    baseline: BatchAccuracyState, answer_counts: np.ndarray
) -> Iterator[BatchAccuracyState]:
    """``baseline`` with ``answer_counts`` as ``m_t``, for one greedy pass.

    The Equation 15 baseline depends only on ``P(z = 1)``, so one serves
    every pass over a parameter version.  The pass borrows in place: the
    caller's ``answer_counts`` array itself becomes ``m_t``, and the
    baseline's ``E_t`` and per-slot accuracy pairs are the pass's.
    :func:`add_worker` logs each pick's task with its ``m_t`` and ``E_t``
    before it writes them; on exit, an exception included, the log is undone
    in reverse, so the counts and ``E_t`` get their old values back and the
    picked tasks' slots return to ``P(z = 1)`` and ``1 − P(z = 1)``, the
    values :func:`baseline_state` gave them.  Entering and leaving cost
    O(picks), not O(|T|).  One pass per baseline at a time.
    """
    counts = np.asarray(answer_counts, dtype=float)
    if counts.shape != baseline.expected_sum.shape:
        raise ValueError(
            f"answer_counts must align with tasks: {counts.shape} vs "
            f"{baseline.expected_sum.shape}"
        )
    undo: list[tuple[int, float, float]] = []
    state = replace(baseline, effective_answers=counts, undo=undo)
    try:
        yield state
    finally:
        offsets, p_z1 = state.label_offsets, state.p_z1
        for task_index, answers, expected in reversed(undo):
            counts[task_index] = answers
            state.expected_sum[task_index] = expected
            sl = slice(offsets[task_index], offsets[task_index + 1])
            state.acc_correct[sl] = p_z1[sl]
            state.acc_incorrect[sl] = 1.0 - p_z1[sl]


def _agreement_mass(answer_accuracy: np.ndarray | float) -> np.ndarray | float:
    """``s = p_e² + (1 − p_e)²`` — the only way ``p_e`` enters the recursion."""
    return answer_accuracy * answer_accuracy + (1.0 - answer_accuracy) * (
        1.0 - answer_accuracy
    )


def marginal_gains(
    state: BatchAccuracyState, answer_accuracies: np.ndarray
) -> np.ndarray:
    """Marginal ΔAcc of assigning each worker to each task, in one batch.

    ``answer_accuracies`` is the ``(|W|, |T|)`` Equation 9 matrix from
    :func:`answer_accuracy_matrix`.  Entry ``(i, j)`` equals the scalar path's
    ``gain − already`` for that pair (Algorithm 1 line 19): the summed
    Equation 20 improvement of the task's labels relative to the *current*
    tentative state ``Ŵ(t)``, using the ``(|L_t|·s − E_t)/(m_t+1)`` closed form
    derived in the module docstring.
    """
    s = _agreement_mass(np.asarray(answer_accuracies, dtype=float))
    return (state.num_labels[None, :] * s - state.expected_sum[None, :]) / (
        state.effective_answers[None, :] + 1.0
    )


def marginal_gains_csr(
    state: BatchAccuracyState,
    indices: np.ndarray,
    answer_accuracies: np.ndarray,
) -> np.ndarray:
    """Marginal ΔAcc for candidate pairs only — the sparse twin of
    :func:`marginal_gains`.

    ``indices`` are the task columns of the CSR candidate structure and
    ``answer_accuracies`` the aligned Equation 9 values from
    :func:`answer_accuracy_csr`; entry ``i`` equals the dense matrix entry
    ``(row_of(i), indices[i])`` bit-for-bit, since the
    ``(|L_t|·s − E_t)/(m_t+1)`` closed form involves only per-task state and
    the pair's own accuracy.
    """
    s = _agreement_mass(np.asarray(answer_accuracies, dtype=float))
    return (state.num_labels[indices] * s - state.expected_sum[indices]) / (
        state.effective_answers[indices] + 1.0
    )


def far_field_gains(
    state: BatchAccuracyState, far_accuracy: float
) -> np.ndarray:
    """Per-task marginal ΔAcc of adding one *far* worker to each task.

    With the shared :func:`far_field_accuracy` scalar, the Lemma 2 closed
    form no longer depends on which worker is added, so the far side of the
    sparse greedy loop needs only this ``(|T|,)`` vector — one entry
    recomputed after a pick (:func:`marginal_gains_for_task` at the shared
    scalar gives it bit-for-bit), with ``max()`` acting as the admissible upper
    bound that decides whether a far assignment can beat the best candidate.
    """
    s = _agreement_mass(float(far_accuracy))
    return (state.num_labels * s - state.expected_sum) / (
        state.effective_answers + 1.0
    )


def marginal_gains_for_task(
    state: BatchAccuracyState, task_index: int, answer_accuracies: np.ndarray
) -> np.ndarray:
    """Entries of one column of :func:`marginal_gains` — the greedy re-score.

    ``answer_accuracies`` holds the Equation 9 values of the workers to
    re-score (any subset of the column, or one shared scalar), and each entry
    is bit-identical to the matching :func:`marginal_gains` entry, so a pick
    re-scores only the workers that can still take the task.
    """
    s = _agreement_mass(np.asarray(answer_accuracies, dtype=float))
    return (
        state.num_labels[task_index] * s - state.expected_sum[task_index]
    ) / (state.effective_answers[task_index] + 1.0)


def add_worker(
    state: BatchAccuracyState, task_index: int, answer_accuracy: float
) -> None:
    """Commit one hypothetical worker onto ``task_index`` (Lemma 2, in place).

    Updates the task's accuracy pairs, its effective answer count and its
    cached ``E_t``; every other task's state is untouched, so the caller only
    needs to re-score this task's column.  Runs once per greedy pick, so the
    slots are updated in place: ``(m·Acc + s)/(m + 1)``, the same operations
    in the same order as the expression, on views of the slot arrays.  On a
    state lent by :func:`greedy_state`, the task's ``m_t`` and ``E_t`` go to
    the pass's undo log first, so the exit can restore everything written.
    """
    offsets = state.label_offsets
    sl = slice(offsets[task_index], offsets[task_index + 1])
    m = state.effective_answers[task_index]
    if state.undo is not None:
        state.undo.append((task_index, m, state.expected_sum[task_index]))
    s = _agreement_mass(float(answer_accuracy))
    state.effective_answers[task_index] = m + 1.0
    acc_correct, acc_incorrect = state.acc_correct[sl], state.acc_incorrect[sl]
    for acc in (acc_correct, acc_incorrect):
        acc *= m
        acc += s
        acc /= m + 1.0
    p = state.p_z1[sl]
    state.expected_sum[task_index] = (
        p * acc_correct + (1.0 - p) * acc_incorrect
    ).sum()

