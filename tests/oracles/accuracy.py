"""Scalar accuracy estimation for (hypothetical) task assignments.

Section IV-B of the paper derives how the inference accuracy of a label
``l_{t,k}`` changes when the task is assigned to additional workers:

* ``Acc_{t,k}`` (Equation 15) is ``P(z = 1)`` if the label is truly correct and
  ``P(z = 0)`` otherwise — since the truth is unknown, both branches are carried
  around as a pair;
* assigning the task to a single new worker ``w`` with estimated answer
  accuracy ``P(z = r_w)`` changes the pair according to Equation 18;
* Lemma 1 shows the result is independent of the order in which workers answer,
  and Lemma 2 turns the exponential enumeration over answer combinations into a
  linear-time recursion;
* the expected accuracy improvement ΔAcc (Equation 20) weights the two branches
  by the current ``P(z)``.

:class:`LabelAccuracy` is the per-label pair with its recursion;
:class:`AccuracyEstimator` wires it to the model parameters, the answer set and
the distance model so the reference assigner can ask "what do I gain by
assigning task ``t`` to worker ``w`` (given who else already has it this
round)?".  This one-label-at-a-time form is the specification the batched
kernels of :mod:`repro.core.accuracy_kernel` are tested against.
:func:`add_worker_expression` is the kernel's greedy commit written as
whole-slice expressions, the bit-level reference for its in-place form, and
:func:`equation9_arrays` unpacks a whole store into the arrays the Equation 9
kernels take.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from oracles.params import ModelParameters
from repro.core.accuracy_kernel import BatchAccuracyState, _agreement_mass
from repro.core.params import ArrayParameterStore
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel


@dataclass(frozen=True)
class LabelAccuracy:
    """The accuracy pair of one label under both truth hypotheses.

    Attributes
    ----------
    p_z1:
        The current inference ``P(z_{t,k} = 1)``; stays fixed while hypothetical
        workers are added (it is the weight used by ΔAcc, Equation 20).
    acc_if_correct:
        Expected accuracy if the label is truly correct (``z ≡ 1``).
    acc_if_incorrect:
        Expected accuracy if the label is truly incorrect (``z ≡ 0``).
    effective_answers:
        ``|W(t)| + |Ŵ(t)|`` — real answers plus hypothetical workers added so far.
    """

    p_z1: float
    acc_if_correct: float
    acc_if_incorrect: float
    effective_answers: int

    @classmethod
    def from_current_inference(cls, p_z1: float, answer_count: int) -> "LabelAccuracy":
        """The baseline pair before any hypothetical assignment (Equation 15)."""
        if not 0.0 <= p_z1 <= 1.0:
            raise ValueError(f"p_z1 must be in [0, 1], got {p_z1}")
        if answer_count < 0:
            raise ValueError(f"answer_count must be non-negative, got {answer_count}")
        return cls(
            p_z1=p_z1,
            acc_if_correct=p_z1,
            acc_if_incorrect=1.0 - p_z1,
            effective_answers=answer_count,
        )

    def add_worker(self, answer_accuracy: float) -> "LabelAccuracy":
        """Apply Lemma 2's recursion for one additional worker.

        ``answer_accuracy`` is the estimated ``P(z = r_w)`` of the new worker on
        this task (Equation 9).
        """
        if not 0.0 <= answer_accuracy <= 1.0:
            raise ValueError(
                f"answer_accuracy must be in [0, 1], got {answer_accuracy}"
            )
        m = self.effective_answers
        pe = answer_accuracy
        new_correct = (
            (m * self.acc_if_correct + pe) / (m + 1) * pe
            + (m * self.acc_if_correct + (1.0 - pe)) / (m + 1) * (1.0 - pe)
        )
        new_incorrect = (
            (m * self.acc_if_incorrect + pe) / (m + 1) * pe
            + (m * self.acc_if_incorrect + (1.0 - pe)) / (m + 1) * (1.0 - pe)
        )
        return LabelAccuracy(
            p_z1=self.p_z1,
            acc_if_correct=new_correct,
            acc_if_incorrect=new_incorrect,
            effective_answers=m + 1,
        )

    def add_workers(self, answer_accuracies: Sequence[float]) -> "LabelAccuracy":
        """Apply the recursion for several additional workers (order irrelevant)."""
        state = self
        for accuracy in answer_accuracies:
            state = state.add_worker(accuracy)
        return state

    def expected_improvement_over(self, baseline: "LabelAccuracy") -> float:
        """ΔAcc relative to ``baseline`` (Equation 20)."""
        return self.p_z1 * (self.acc_if_correct - baseline.acc_if_correct) + (
            1.0 - self.p_z1
        ) * (self.acc_if_incorrect - baseline.acc_if_incorrect)

    @property
    def expected_accuracy(self) -> float:
        """The truth-weighted expected accuracy ``P(z=1)·Acc₁ + P(z=0)·Acc₀``."""
        return self.p_z1 * self.acc_if_correct + (1.0 - self.p_z1) * self.acc_if_incorrect


def enumerate_expected_accuracy(
    p_z1: float, answer_count: int, answer_accuracies: Sequence[float]
) -> LabelAccuracy:
    """Exponential-time reference computation of ``Acc_{t,k}(Ŵ(t))``.

    Enumerates every combination of agree/disagree answers from the
    hypothetical workers, exactly as the definition preceding Lemma 2 requires.
    Only used by tests to validate that :meth:`LabelAccuracy.add_workers`
    (the linear-time recursion) matches the definition.
    """
    baseline = LabelAccuracy.from_current_inference(p_z1, answer_count)
    n = len(answer_accuracies)
    if n == 0:
        return baseline

    total_correct = 0.0
    total_incorrect = 0.0
    for agreement in product((True, False), repeat=n):
        probability = 1.0
        contribution = 0.0
        for agrees, pe in zip(agreement, answer_accuracies):
            probability *= pe if agrees else (1.0 - pe)
            contribution += pe if agrees else (1.0 - pe)
        posterior_correct = (
            answer_count * baseline.acc_if_correct + contribution
        ) / (answer_count + n)
        posterior_incorrect = (
            answer_count * baseline.acc_if_incorrect + contribution
        ) / (answer_count + n)
        total_correct += probability * posterior_correct
        total_incorrect += probability * posterior_incorrect

    return LabelAccuracy(
        p_z1=p_z1,
        acc_if_correct=total_correct,
        acc_if_incorrect=total_incorrect,
        effective_answers=answer_count + n,
    )


class AccuracyEstimator:
    """Estimates answer accuracies and assignment gains from the current model.

    Combines the estimated :class:`~oracles.params.ModelParameters`, the
    answer set (for ``|W(t)|``) and the distance model.  The paper's footnote 3
    is honoured through :class:`ModelParameters`: unseen workers and tasks get
    optimistic priors so they are explored early.
    """

    def __init__(
        self,
        tasks: dict[str, Task],
        workers: dict[str, Worker],
        distance_model: DistanceModel,
        parameters: ModelParameters,
        answers: AnswerSet,
    ) -> None:
        self._tasks = tasks
        self._workers = workers
        self._distance_model = distance_model
        self._parameters = parameters
        self._answers = answers

    @property
    def parameters(self) -> ModelParameters:
        return self._parameters

    def answer_accuracy(self, worker_id: str, task_id: str) -> float:
        """Estimated ``P(z = r)`` of ``worker_id`` on ``task_id`` (Equation 9)."""
        task = self._tasks[task_id]
        worker = self._workers[worker_id]
        distance = self._distance_model.worker_task_distance(
            worker.locations, task.location
        )
        return self._parameters.answer_accuracy(worker_id, task_id, distance)

    def current_label_accuracies(self, task_id: str) -> list[LabelAccuracy]:
        """Baseline accuracy pairs for every label of ``task_id``."""
        task = self._tasks[task_id]
        params = self._parameters.task(task_id, num_labels=task.num_labels)
        answer_count = self._answers.answer_count_of_task(task_id)
        return [
            LabelAccuracy.from_current_inference(float(p), answer_count)
            for p in params.label_probs
        ]

    def task_improvement(
        self,
        task_id: str,
        worker_id: str,
        current_states: Sequence[LabelAccuracy] | None = None,
        baselines: Sequence[LabelAccuracy] | None = None,
    ) -> tuple[float, list[LabelAccuracy]]:
        """Expected total ΔAcc of assigning ``task_id`` to ``worker_id``.

        ``current_states`` carries the accuracy pairs already reflecting other
        workers tentatively assigned to the task this round (the greedy
        algorithm's ``Ŵ(t)``); ``baselines`` are the pre-round pairs used as the
        reference point of the improvement.  Returns the summed improvement over
        the task's labels and the new per-label states.
        """
        if current_states is None:
            current_states = self.current_label_accuracies(task_id)
            if baselines is None:
                # Neither side supplied: the current state IS the baseline, so
                # share the pairs instead of recomputing them (LabelAccuracy is
                # frozen, making the aliasing safe).
                baselines = current_states
        elif baselines is None:
            baselines = self.current_label_accuracies(task_id)
        answer_accuracy = self.answer_accuracy(worker_id, task_id)
        new_states = [state.add_worker(answer_accuracy) for state in current_states]
        improvement = sum(
            new.expected_improvement_over(base)
            for new, base in zip(new_states, baselines)
        )
        return improvement, new_states


def add_worker_expression(
    state: BatchAccuracyState, task_index: int, answer_accuracy: float
) -> None:
    """:func:`repro.core.accuracy_kernel.add_worker` as whole-slice expressions.

    The commit as it read before the kernel updated the slots in place: the
    same Lemma 2 step, ``(m·Acc + s)/(m + 1)``, written out per slot array,
    and ``E_t`` re-summed through ``np.sum``.  The kernel must match it bit
    for bit.
    """
    sl = slice(state.label_offsets[task_index], state.label_offsets[task_index + 1])
    m = state.effective_answers[task_index]
    s = _agreement_mass(float(answer_accuracy))
    state.effective_answers[task_index] = m + 1.0
    state.acc_correct[sl] = (m * state.acc_correct[sl] + s) / (m + 1.0)
    state.acc_incorrect[sl] = (m * state.acc_incorrect[sl] + s) / (m + 1.0)
    p = state.p_z1[sl]
    state.expected_sum[task_index] = float(
        np.sum(p * state.acc_correct[sl] + (1.0 - p) * state.acc_incorrect[sl])
    )


def equation9_arrays(store: ArrayParameterStore) -> tuple:
    """Every worker's and task's Equation 9 inputs from ``store``, in the
    order :func:`repro.core.accuracy_kernel.answer_accuracy_matrix` takes
    them after the distances: ``p_qualified``, ``distance_weights``,
    ``influence_weights``, ``alpha`` and the function set's lambdas."""
    return (
        store.p_qualified,
        store.distance_weights,
        store.influence_weights,
        store.alpha,
        store.function_set.lambdas,
    )
