"""Property-based tests (hypothesis) on the core invariants.

These target the mathematical guts of the paper:

* the bell-shaped distance functions stay inside [0.5, 1] and are monotone;
* probability-vector helpers always produce valid distributions;
* Lemma 1 (order independence) and Lemma 2 (recursion == enumeration) hold for
  arbitrary inputs;
* the accuracy metric stays in [0, 1] and equals 1 only for exact predictions;
* the per-record EM E-step marginals (``tests/oracles/em.py``) are always
  valid probabilities;
* the binning helpers never lose observations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.accuracy import LabelAccuracy, enumerate_expected_accuracy
from oracles.em import AnswerRecord, expectation
from repro.core.distance_functions import BellShapedFunction, DistanceFunctionSet
from repro.utils.binning import bin_edges, bin_index, histogram_percentages
from repro.utils.validation import normalise

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
distance = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
lam = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


class TestBellShapedFunctionProperties:
    @given(lam=lam, d=distance)
    def test_range(self, lam, d):
        value = BellShapedFunction(lam)(d)
        assert 0.5 <= value <= 1.0

    @given(lam=lam, d1=distance, d2=distance)
    def test_monotone_decreasing(self, lam, d1, d2):
        fn = BellShapedFunction(lam)
        lo, hi = min(d1, d2), max(d1, d2)
        assert fn(lo) >= fn(hi) - 1e-12

    @given(d=distance, lam1=lam, lam2=lam)
    def test_larger_lambda_never_higher(self, d, lam1, lam2):
        lo, hi = min(lam1, lam2), max(lam1, lam2)
        assert BellShapedFunction(hi)(d) <= BellShapedFunction(lo)(d) + 1e-12


class TestDistanceFunctionSetProperties:
    @given(
        weights=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
        d=distance,
    )
    def test_weighted_quality_bounded(self, weights, d):
        fset = DistanceFunctionSet((0.1, 10.0, 100.0))
        weights_arr = normalise(np.asarray(weights) + 1e-9)
        value = fset.weighted_quality(weights_arr, d)
        assert 0.5 - 1e-9 <= value <= 1.0 + 1e-9


class TestNormaliseProperties:
    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=16))
    def test_output_is_distribution(self, values):
        out = normalise(values)
        assert out.shape == (len(values),)
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(1.0)


class TestLemmaProperties:
    @given(
        p_z1=probability,
        answer_count=st.integers(min_value=0, max_value=20),
        accuracies=st.lists(probability, min_size=2, max_size=6),
    )
    @settings(max_examples=60)
    def test_lemma1_order_independence(self, p_z1, answer_count, accuracies):
        base = LabelAccuracy.from_current_inference(p_z1, answer_count)
        forward = base.add_workers(accuracies)
        backward = base.add_workers(list(reversed(accuracies)))
        assert forward.acc_if_correct == pytest.approx(backward.acc_if_correct)
        assert forward.acc_if_incorrect == pytest.approx(backward.acc_if_incorrect)

    @given(
        p_z1=probability,
        answer_count=st.integers(min_value=0, max_value=10),
        accuracies=st.lists(probability, min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_lemma2_recursion_matches_enumeration(self, p_z1, answer_count, accuracies):
        recursive = LabelAccuracy.from_current_inference(p_z1, answer_count).add_workers(
            accuracies
        )
        enumerated = enumerate_expected_accuracy(p_z1, answer_count, accuracies)
        assert recursive.acc_if_correct == pytest.approx(enumerated.acc_if_correct)
        assert recursive.acc_if_incorrect == pytest.approx(enumerated.acc_if_incorrect)

    @given(
        p_z1=probability,
        answer_count=st.integers(min_value=0, max_value=20),
        accuracy=probability,
    )
    def test_accuracy_pair_stays_in_unit_interval(self, p_z1, answer_count, accuracy):
        state = LabelAccuracy.from_current_inference(p_z1, answer_count).add_worker(accuracy)
        assert 0.0 - 1e-9 <= state.acc_if_correct <= 1.0 + 1e-9
        assert 0.0 - 1e-9 <= state.acc_if_incorrect <= 1.0 + 1e-9

    @given(
        p_z1=probability,
        answer_count=st.integers(min_value=0, max_value=20),
        accuracy_low=st.floats(min_value=0.5, max_value=1.0),
        accuracy_high=st.floats(min_value=0.5, max_value=1.0),
    )
    def test_expected_accuracy_monotone_in_worker_accuracy(
        self, p_z1, answer_count, accuracy_low, accuracy_high
    ):
        """For workers no worse than random (P(z=r) >= 0.5), Equation 18's
        expected accuracy is non-decreasing in the worker's answer accuracy —
        the reason the greedy assigner prefers higher-accuracy workers."""
        lo, hi = sorted((accuracy_low, accuracy_high))
        baseline = LabelAccuracy.from_current_inference(p_z1, answer_count)
        worse = baseline.add_worker(lo)
        better = baseline.add_worker(hi)
        assert better.acc_if_correct >= worse.acc_if_correct - 1e-9
        assert better.acc_if_incorrect >= worse.acc_if_incorrect - 1e-9


class TestAccuracyMetricProperties:
    @given(data=st.data())
    @settings(max_examples=40)
    def test_metric_bounds_and_perfect_score(self, data, small_dataset):
        from repro.framework.metrics import labelling_accuracy

        predictions = {}
        for task in small_dataset.tasks:
            bits = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=1),
                    min_size=task.num_labels,
                    max_size=task.num_labels,
                )
            )
            predictions[task.task_id] = bits
        accuracy = labelling_accuracy(predictions, small_dataset.tasks)
        assert 0.0 <= accuracy <= 1.0
        exact = {task.task_id: list(task.truth) for task in small_dataset.tasks}
        assert labelling_accuracy(exact, small_dataset.tasks) == pytest.approx(1.0)


class TestBinningProperties:
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
        num_bins=st.integers(min_value=1, max_value=10),
    )
    def test_histogram_conserves_mass(self, values, num_bins):
        edges = bin_edges(0.0, 1.0, num_bins)
        percentages = histogram_percentages(values, edges)
        assert percentages.sum() == pytest.approx(100.0)

    @given(
        value=st.floats(min_value=0.0, max_value=1.0),
        num_bins=st.integers(min_value=1, max_value=12),
    )
    def test_bin_index_in_range(self, value, num_bins):
        edges = bin_edges(0.0, 1.0, num_bins)
        idx = bin_index(value, edges)
        assert 0 <= idx < num_bins
        assert edges[idx] <= value <= edges[idx + 1]


class TestEMPosteriorProperties:
    @given(
        responses=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=6),
        p_qualified=st.floats(min_value=0.01, max_value=0.99),
        d=distance,
        priors=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=6),
    )
    @settings(max_examples=60)
    def test_expectation_marginals_are_valid(self, responses, p_qualified, d, priors):
        """The closed-form E-step marginals are probabilities / distributions."""
        import numpy as np

        from repro.core.distance_functions import PAPER_FUNCTION_SET
        from oracles.params import ModelParameters, TaskParameters, WorkerParameters

        n = min(len(responses), len(priors))
        responses = responses[:n]
        priors = priors[:n]

        params = ModelParameters(function_set=PAPER_FUNCTION_SET, alpha=0.5)
        params.workers["w"] = WorkerParameters(
            p_qualified, PAPER_FUNCTION_SET.uniform_weights()
        )
        params.tasks["t"] = TaskParameters(
            np.asarray(priors), PAPER_FUNCTION_SET.uniform_weights()
        )
        record = AnswerRecord(
            worker_id="w",
            task_id="t",
            responses=np.asarray(responses, dtype=int),
            distance=d,
            f_values=PAPER_FUNCTION_SET.evaluate(d),
        )

        post_z1, post_i1, post_dw, post_dt, log_likelihood = expectation(
            record, params
        )
        assert np.all(post_z1 >= -1e-9) and np.all(post_z1 <= 1.0 + 1e-9)
        assert np.all(post_i1 >= -1e-9) and np.all(post_i1 <= 1.0 + 1e-9)
        assert np.allclose(post_dw.sum(axis=1), 1.0, atol=1e-6)
        assert np.allclose(post_dt.sum(axis=1), 1.0, atol=1e-6)
        assert np.isfinite(log_likelihood)
