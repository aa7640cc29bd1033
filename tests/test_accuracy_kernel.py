"""Equivalence tests for repro.core.accuracy_kernel vs the scalar Section IV-B math.

The vectorized AccOpt engine is only trustworthy if its batched kernels
reproduce the scalar oracle of ``tests/oracles/accuracy.py`` exactly (within
float tolerance):

* Lemma 2's recursion and Equation 20's improvement as AccOpt's greedy pass
  runs them (:func:`~repro.core.accuracy_kernel.greedy_state`,
  :func:`~repro.core.accuracy_kernel.marginal_gains`,
  :func:`~repro.core.accuracy_kernel.add_worker`) against
  :meth:`~oracles.accuracy.LabelAccuracy.add_workers` and the exponential
  :func:`~oracles.accuracy.enumerate_expected_accuracy` definition;
* the batched Equation 9 matrix against
  :meth:`~oracles.accuracy.AccuracyEstimator.answer_accuracy`;
* the closed-form marginal-gain matrix against the scalar ``gain − already``
  computation the reference greedy loop performs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.params import model_from_store
from oracles.accuracy import (
    AccuracyEstimator,
    LabelAccuracy,
    add_worker_expression,
    enumerate_expected_accuracy,
    equation9_arrays,
)
from oracles.distance import normalised_distance_matrix
from repro.core import accuracy_kernel
from repro.core.inference import LocationAwareInference

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

TOLERANCE = 1e-9


@pytest.fixture()
def fitted(small_dataset, worker_pool, distance_model, collected_answers):
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    return model.parameters


def greedy_pass(p_z1, answer_count, accuracies):
    """Commit one hypothetical worker per accuracy onto one task holding every
    label of ``p_z1``, through the greedy pass AccOpt runs.

    Returns the committed accuracy pairs, the task's effective answer count,
    and the marginal gain :func:`~repro.core.accuracy_kernel.marginal_gains`
    scored before each commit.
    """
    p_z1 = np.asarray(p_z1, dtype=float)
    counts = np.asarray([float(answer_count)])
    baseline = accuracy_kernel.baseline_state(p_z1, np.asarray([0, p_z1.size]), counts)
    gains = []
    with accuracy_kernel.greedy_state(baseline, counts) as state:
        for accuracy in accuracies:
            gain = accuracy_kernel.marginal_gains(state, np.asarray([[accuracy]]))
            gains.append(float(gain[0, 0]))
            accuracy_kernel.add_worker(state, 0, accuracy)
        return (
            state.acc_correct.copy(),
            state.acc_incorrect.copy(),
            float(state.effective_answers[0]),
            gains,
        )


class TestLemma2Recursion:
    @given(
        p_z1=st.lists(probability, min_size=1, max_size=6),
        answer_count=st.integers(min_value=0, max_value=20),
        accuracies=st.lists(probability, min_size=0, max_size=8),
    )
    @settings(max_examples=80)
    def test_matches_scalar_add_workers(self, p_z1, answer_count, accuracies):
        acc_correct, acc_incorrect, answers, _ = greedy_pass(
            p_z1, answer_count, accuracies
        )
        assert answers == answer_count + len(accuracies)
        for k, p in enumerate(p_z1):
            scalar = LabelAccuracy.from_current_inference(p, answer_count).add_workers(
                accuracies
            )
            assert acc_correct[k] == pytest.approx(
                scalar.acc_if_correct, abs=TOLERANCE
            )
            assert acc_incorrect[k] == pytest.approx(
                scalar.acc_if_incorrect, abs=TOLERANCE
            )

    @given(
        p_z1=probability,
        answer_count=st.integers(min_value=0, max_value=10),
        accuracies=st.lists(probability, min_size=1, max_size=6),
    )
    @settings(max_examples=60)
    def test_matches_exponential_enumeration(self, p_z1, answer_count, accuracies):
        acc_correct, acc_incorrect, _, _ = greedy_pass(
            [p_z1], answer_count, accuracies
        )
        enumerated = enumerate_expected_accuracy(p_z1, answer_count, accuracies)
        assert acc_correct[0] == pytest.approx(
            enumerated.acc_if_correct, abs=TOLERANCE
        )
        assert acc_incorrect[0] == pytest.approx(
            enumerated.acc_if_incorrect, abs=TOLERANCE
        )

    @given(
        p_z1=st.lists(probability, min_size=1, max_size=5),
        answer_count=st.integers(min_value=0, max_value=12),
        accuracies=st.lists(probability, min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_expected_improvement_matches_equation_20(
        self, p_z1, answer_count, accuracies
    ):
        """Each pick's marginal gain is the task's Equation 20 improvement
        over the state before the pick, so the gains sum to the improvement
        over the baseline."""
        _, _, _, gains = greedy_pass(p_z1, answer_count, accuracies)
        bases = [LabelAccuracy.from_current_inference(p, answer_count) for p in p_z1]
        for i, accuracy in enumerate(accuracies):
            before = [base.add_workers(accuracies[:i]) for base in bases]
            scalar = sum(
                state.add_worker(accuracy).expected_improvement_over(state)
                for state in before
            )
            assert gains[i] == pytest.approx(scalar, abs=TOLERANCE)
        total = sum(
            base.add_workers(accuracies).expected_improvement_over(base)
            for base in bases
        )
        assert sum(gains) == pytest.approx(total, abs=TOLERANCE)

    def test_incremental_add_worker_matches_bulk(self):
        """One commit per worker, straight on a baseline state (no greedy
        scratch), equals the oracle adding the same workers in one go."""
        p_z1, accuracies = [0.2, 0.9, 0.5], [0.6, 0.8, 0.3]
        state = accuracy_kernel.baseline_state(p_z1, np.asarray([0, 3]), [2])
        for accuracy in accuracies:
            accuracy_kernel.add_worker(state, 0, accuracy)
        for k, p in enumerate(p_z1):
            bulk = LabelAccuracy.from_current_inference(p, 2).add_workers(accuracies)
            assert state.acc_correct[k] == pytest.approx(bulk.acc_if_correct, abs=TOLERANCE)
            assert state.acc_incorrect[k] == pytest.approx(
                bulk.acc_if_incorrect, abs=TOLERANCE
            )
        assert state.effective_answers[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_in_place_commit_is_bit_equal_to_the_expression_form(self, seed):
        """Random states — one-label tasks and m_t = 0 among them — take the
        same picks through both forms; every array stays bit-equal."""
        rng = np.random.default_rng(seed)
        num_tasks = 40
        num_labels = rng.integers(1, 11, size=num_tasks)
        num_labels[:5] = 1
        offsets = np.concatenate(([0], np.cumsum(num_labels)))
        p_z1 = rng.random(int(offsets[-1]))
        p_z1[:3] = (0.0, 1.0, 0.5)

        counts = rng.integers(0, 4, size=num_tasks).astype(float)
        counts[::3] = 0.0
        # baseline_state keeps the caller's array as m_t: one array each.
        kernel = accuracy_kernel.baseline_state(p_z1, offsets, counts)
        expression = accuracy_kernel.baseline_state(p_z1, offsets, counts.copy())
        assert kernel.effective_answers is not expression.effective_answers
        for _ in range(60):
            task_index = int(rng.integers(num_tasks))
            accuracy = float(rng.choice([rng.random(), 0.0, 0.5, 1.0]))
            accuracy_kernel.add_worker(kernel, task_index, accuracy)
            add_worker_expression(expression, task_index, accuracy)
        for name in ("acc_correct", "acc_incorrect", "effective_answers", "expected_sum"):
            got, want = getattr(kernel, name), getattr(expression, name)
            assert got.tobytes() == want.tobytes(), name

    def test_baseline_state_validation(self):
        with pytest.raises(ValueError):
            accuracy_kernel.baseline_state([0.5, 0.5], np.asarray([0, 3]), [1])
        with pytest.raises(ValueError):
            accuracy_kernel.baseline_state([0.5, 0.5], np.asarray([0, 2]), [1, 2])
        with pytest.raises(ValueError):
            accuracy_kernel.baseline_state([0.5, 0.5], np.asarray([0, 2]), [-1])


def random_layout(rng, num_tasks=30):
    """A ragged label layout with one-label tasks and P(z=1) of 0, 1 and ½."""
    num_labels = rng.integers(1, 7, size=num_tasks)
    num_labels[:4] = 1
    offsets = np.concatenate(([0], np.cumsum(num_labels)))
    p_z1 = rng.random(int(offsets[-1]))
    p_z1[:3] = (0.0, 1.0, 0.5)
    return p_z1, offsets


class TestGreedyStateUndo:
    """A pass borrows the baseline's arrays and the caller's counts in place;
    its exit puts back every value it wrote, bit for bit."""

    FIELDS = ("p_z1", "acc_correct", "acc_incorrect", "effective_answers", "expected_sum")

    @classmethod
    def snapshot(cls, baseline, counts):
        return [getattr(baseline, name).tobytes() for name in cls.FIELDS], counts.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_passes_of_one_to_h_picks(self, seed):
        rng = np.random.default_rng(seed)
        p_z1, offsets = random_layout(rng)
        num_tasks = offsets.size - 1
        baseline = accuracy_kernel.baseline_state(p_z1, offsets, np.zeros(num_tasks))
        counts = rng.integers(0, 5, size=num_tasks).astype(float)
        before = self.snapshot(baseline, counts)
        for picks in range(1, 7):
            tasks = rng.integers(num_tasks, size=picks).tolist()
            with accuracy_kernel.greedy_state(baseline, counts) as state:
                assert state.effective_answers is counts
                assert state.expected_sum is baseline.expected_sum
                for task_index in tasks:
                    accuracy_kernel.add_worker(state, task_index, float(rng.random()))
                assert len(state.undo) == picks
            assert self.snapshot(baseline, counts) == before

    def test_borrowed_pass_equals_a_fresh_state(self):
        rng = np.random.default_rng(11)
        p_z1, offsets = random_layout(rng)
        num_tasks = offsets.size - 1
        counts = rng.integers(0, 5, size=num_tasks).astype(float)
        baseline = accuracy_kernel.baseline_state(p_z1, offsets, np.zeros(num_tasks))
        picks = [(3, 0.9), (7, 0.2), (3, 0.6), (0, 1.0), (3, 0.0)]
        fresh = accuracy_kernel.baseline_state(p_z1, offsets, counts.copy())
        for task_index, accuracy in picks:
            accuracy_kernel.add_worker(fresh, task_index, accuracy)
        with accuracy_kernel.greedy_state(baseline, counts) as state:
            for task_index, accuracy in picks:
                accuracy_kernel.add_worker(state, task_index, accuracy)
            for name in self.FIELDS:
                assert getattr(state, name).tobytes() == getattr(fresh, name).tobytes()

    def test_repeated_picks_of_one_task(self):
        rng = np.random.default_rng(3)
        p_z1, offsets = random_layout(rng)
        num_tasks = offsets.size - 1
        baseline = accuracy_kernel.baseline_state(p_z1, offsets, np.zeros(num_tasks))
        counts = np.arange(num_tasks, dtype=float)
        before = self.snapshot(baseline, counts)
        with accuracy_kernel.greedy_state(baseline, counts) as state:
            for accuracy in (0.7, 0.7, 0.1, 1.0):
                accuracy_kernel.add_worker(state, 5, accuracy)
            assert counts[5] == 5.0 + 4
        assert self.snapshot(baseline, counts) == before

    def test_exception_mid_pass(self):
        rng = np.random.default_rng(4)
        p_z1, offsets = random_layout(rng)
        num_tasks = offsets.size - 1
        baseline = accuracy_kernel.baseline_state(p_z1, offsets, np.zeros(num_tasks))
        counts = rng.integers(0, 3, size=num_tasks).astype(float)
        before = self.snapshot(baseline, counts)
        with pytest.raises(RuntimeError):
            with accuracy_kernel.greedy_state(baseline, counts) as state:
                accuracy_kernel.add_worker(state, 2, 0.8)
                accuracy_kernel.add_worker(state, 9, 0.3)
                accuracy_kernel.add_worker(state, 2, 0.6)
                raise RuntimeError("mid-pass")
        assert self.snapshot(baseline, counts) == before
        # The baseline serves the next pass as if nothing happened.
        with accuracy_kernel.greedy_state(baseline, counts) as state:
            gains = accuracy_kernel.marginal_gains(state, np.full((1, num_tasks), 0.7))
        fresh = accuracy_kernel.baseline_state(p_z1, offsets, counts.copy())
        expected = accuracy_kernel.marginal_gains(fresh, np.full((1, num_tasks), 0.7))
        assert gains.tobytes() == expected.tobytes()

    def test_counts_must_align_with_tasks(self):
        baseline = accuracy_kernel.baseline_state([0.5, 0.2], np.asarray([0, 1, 2]), [0, 0])
        with pytest.raises(ValueError):
            with accuracy_kernel.greedy_state(baseline, np.zeros(3)):
                pass


class TestBatchedEstimator:
    def _matrices(self, small_dataset, worker_pool, distance_model, params, answers):
        task_ids = sorted(small_dataset.task_index)
        worker_ids = list(worker_pool.worker_ids)
        workers = {w.worker_id: w for w in worker_pool.workers}
        num_labels = [small_dataset.task_index[t].num_labels for t in task_ids]
        store = params.regather(worker_ids, task_ids, num_labels)
        distances = normalised_distance_matrix(
            [workers[w].locations for w in worker_ids],
            [small_dataset.task_index[t].location for t in task_ids],
            distance_model,
        )
        estimator = AccuracyEstimator(
            tasks=small_dataset.task_index,
            workers=workers,
            distance_model=distance_model,
            parameters=model_from_store(params),
            answers=answers,
        )
        return task_ids, worker_ids, store, distances, estimator

    def test_answer_accuracy_matrix_matches_equation_9(
        self, small_dataset, worker_pool, distance_model, fitted, collected_answers
    ):
        task_ids, worker_ids, store, distances, estimator = self._matrices(
            small_dataset, worker_pool, distance_model, fitted, collected_answers
        )
        matrix = accuracy_kernel.answer_accuracy_matrix(
            distances, *equation9_arrays(store)
        )
        for i, worker_id in enumerate(worker_ids):
            for j, task_id in enumerate(task_ids):
                assert matrix[i, j] == pytest.approx(
                    estimator.answer_accuracy(worker_id, task_id), abs=TOLERANCE
                )

    def test_answer_accuracy_matrix_shape_validation(
        self, small_dataset, worker_pool, distance_model, fitted, collected_answers
    ):
        _, _, store, distances, _ = self._matrices(
            small_dataset, worker_pool, distance_model, fitted, collected_answers
        )
        with pytest.raises(ValueError):
            accuracy_kernel.answer_accuracy_matrix(
                distances[:, :-1], *equation9_arrays(store)
            )

    def test_marginal_gains_match_scalar_task_improvement(
        self, small_dataset, worker_pool, distance_model, fitted, collected_answers
    ):
        task_ids, worker_ids, store, distances, estimator = self._matrices(
            small_dataset, worker_pool, distance_model, fitted, collected_answers
        )
        matrix = accuracy_kernel.answer_accuracy_matrix(
            distances, *equation9_arrays(store)
        )
        state = accuracy_kernel.baseline_state(
            store.label_probs,
            store.label_offsets,
            [collected_answers.answer_count_of_task(t) for t in task_ids],
        )
        gains = accuracy_kernel.marginal_gains(state, matrix)
        for i, worker_id in enumerate(worker_ids):
            for j, task_id in enumerate(task_ids):
                scalar, _ = estimator.task_improvement(task_id, worker_id)
                assert gains[i, j] == pytest.approx(scalar, abs=TOLERANCE)

    def test_column_rescore_matches_scalar_after_picks(
        self, small_dataset, worker_pool, distance_model, fitted, collected_answers
    ):
        """After committing picks, the column re-score still tracks the scalar
        ``gain − already`` computation of the reference greedy loop."""
        task_ids, worker_ids, store, distances, estimator = self._matrices(
            small_dataset, worker_pool, distance_model, fitted, collected_answers
        )
        matrix = accuracy_kernel.answer_accuracy_matrix(
            distances, *equation9_arrays(store)
        )
        state = accuracy_kernel.baseline_state(
            store.label_probs,
            store.label_offsets,
            [collected_answers.answer_count_of_task(t) for t in task_ids],
        )
        target = 3
        task_id = task_ids[target]
        baselines = estimator.current_label_accuracies(task_id)
        scalar_states = list(baselines)
        for i in (0, 2, 5):  # commit three tentative workers onto one task
            accuracy_kernel.add_worker(state, target, float(matrix[i, target]))
            pe = estimator.answer_accuracy(worker_ids[i], task_id)
            scalar_states = [s.add_worker(pe) for s in scalar_states]

        column = accuracy_kernel.marginal_gains_for_task(
            state, target, matrix[:, target]
        )
        already = sum(
            s.expected_improvement_over(b) for s, b in zip(scalar_states, baselines)
        )
        for i, worker_id in enumerate(worker_ids):
            pe = estimator.answer_accuracy(worker_id, task_id)
            new_states = [s.add_worker(pe) for s in scalar_states]
            gain = sum(
                n.expected_improvement_over(b) for n, b in zip(new_states, baselines)
            )
            assert column[i] == pytest.approx(gain - already, abs=TOLERANCE)
