"""Tests for repro.baselines.dawid_skene."""

import numpy as np
import pytest

from oracles import ReferenceDawidSkene
from repro.baselines.dawid_skene import DawidSkeneConfig, DawidSkeneInference
from repro.data.models import Answer, AnswerSet


class TestConfig:
    def test_defaults_valid(self):
        config = DawidSkeneConfig()
        assert (config.max_iterations, config.convergence_threshold) == (100, 1e-4)
        assert config.smoothing == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            DawidSkeneConfig(max_iterations=0)
        with pytest.raises(ValueError):
            DawidSkeneConfig(convergence_threshold=-1)
        with pytest.raises(ValueError):
            DawidSkeneConfig(smoothing=-0.1)
        with pytest.raises(TypeError):
            DawidSkeneConfig(engine="vectorized")  # one engine, no selector


class TestEngineEquivalence:
    """The vectorized flat-index engine against the per-observation oracle."""

    def _fit_both(self, tasks, answers, **kwargs):
        vectorized = DawidSkeneInference(tasks, DawidSkeneConfig(**kwargs)).fit(answers)
        reference = ReferenceDawidSkene(tasks, DawidSkeneConfig(**kwargs)).fit(answers)
        return vectorized, reference

    def test_label_probabilities_match_oracle(self, small_dataset, collected_answers):
        vectorized, reference = self._fit_both(small_dataset.tasks, collected_answers)
        for task in small_dataset.tasks:
            assert np.abs(
                vectorized.label_probabilities(task.task_id)
                - reference.label_probabilities(task.task_id)
            ).max() <= 1e-9

    def test_confusion_matrices_match_oracle(self, small_dataset, collected_answers):
        vectorized, reference = self._fit_both(small_dataset.tasks, collected_answers)
        for worker_id in collected_answers.worker_ids():
            assert np.abs(
                vectorized.worker_confusion(worker_id)
                - reference.worker_confusion(worker_id)
            ).max() <= 1e-9

    def test_iteration_traces_match_oracle(self, small_dataset, collected_answers):
        vectorized, reference = self._fit_both(
            small_dataset.tasks, collected_answers, max_iterations=7,
            convergence_threshold=0.0,
        )
        assert vectorized.last_result.iterations == reference.last_result.iterations
        assert vectorized.last_result.converged == reference.last_result.converged
        assert vectorized.last_result.convergence_trace == pytest.approx(
            reference.last_result.convergence_trace, abs=1e-9
        )

    def test_empty_answer_set_matches_oracle(self, small_dataset):
        vectorized, reference = self._fit_both(small_dataset.tasks, AnswerSet())
        task_id = small_dataset.tasks[0].task_id
        assert np.allclose(vectorized.label_probabilities(task_id), 0.5)
        assert np.allclose(reference.label_probabilities(task_id), 0.5)
        assert vectorized.last_result.iterations == reference.last_result.iterations


class TestDawidSkene:
    def test_unfitted_query_raises(self, small_dataset):
        model = DawidSkeneInference(small_dataset.tasks)
        with pytest.raises(RuntimeError):
            model.label_probabilities(small_dataset.tasks[0].task_id)

    def test_fit_produces_valid_probabilities(self, small_dataset, collected_answers):
        model = DawidSkeneInference(small_dataset.tasks).fit(collected_answers)
        for task in small_dataset.tasks:
            probs = model.label_probabilities(task.task_id)
            assert probs.shape == (task.num_labels,)
            assert np.all(probs >= 0.0)
            assert np.all(probs <= 1.0)

    def test_reports_convergence_diagnostics(self, small_dataset, collected_answers):
        model = DawidSkeneInference(small_dataset.tasks).fit(collected_answers)
        assert model.last_result is not None
        assert model.last_result.iterations >= 1
        assert len(model.last_result.convergence_trace) == model.last_result.iterations

    def test_confident_majority_wins(self, small_dataset):
        """Three identical honest workers must dominate one contrarian."""
        task = small_dataset.tasks[0]
        n = task.num_labels
        honest = tuple(task.truth)
        contrarian = tuple(1 - v for v in task.truth)
        answers = AnswerSet()
        for task_obj in small_dataset.tasks:
            truth = tuple(task_obj.truth)
            flipped = tuple(1 - v for v in truth)
            for worker_id in ("w1", "w2", "w3"):
                answers.add(Answer(worker_id, task_obj.task_id, truth))
            answers.add(Answer("w4", task_obj.task_id, flipped))
        model = DawidSkeneInference(small_dataset.tasks).fit(answers)
        assert np.all(model.predict(task.task_id) == np.asarray(honest))
        assert not np.all(model.predict(task.task_id) == np.asarray(contrarian))

    def test_worker_quality_separates_honest_from_adversarial(self, small_dataset):
        answers = AnswerSet()
        for task in small_dataset.tasks:
            truth = tuple(task.truth)
            flipped = tuple(1 - v for v in truth)
            for worker_id in ("good1", "good2", "good3"):
                answers.add(Answer(worker_id, task.task_id, truth))
            answers.add(Answer("bad", task.task_id, flipped))
        model = DawidSkeneInference(small_dataset.tasks).fit(answers)
        assert model.worker_accuracy("good1") > model.worker_accuracy("bad")
        matrix = model.worker_confusion("good1")
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_unanswered_labels_default_to_half(self, small_dataset):
        task = small_dataset.tasks[0]
        answers = AnswerSet([Answer("w1", task.task_id, tuple(task.truth))])
        model = DawidSkeneInference(small_dataset.tasks).fit(answers)
        other = small_dataset.tasks[1]
        assert np.allclose(model.label_probabilities(other.task_id), 0.5)

    def test_unknown_task_in_answers_rejected(self, small_dataset):
        answers = AnswerSet([Answer("w1", "ghost", (1, 0, 1, 0))])
        with pytest.raises(KeyError):
            DawidSkeneInference(small_dataset.tasks).fit(answers)

    def test_wrong_label_count_rejected(self, small_dataset):
        task = small_dataset.tasks[0]
        answers = AnswerSet([Answer("w1", task.task_id, (1,))])
        with pytest.raises(ValueError):
            DawidSkeneInference(small_dataset.tasks).fit(answers)

    def test_accuracy_beats_chance_on_simulated_crowd(self, small_dataset, collected_answers):
        from repro.framework.metrics import labelling_accuracy

        model = DawidSkeneInference(small_dataset.tasks).fit(collected_answers)
        assert labelling_accuracy(model.predict_all(), small_dataset.tasks) > 0.55

    def test_iteration_cap_respected(self, small_dataset, collected_answers):
        config = DawidSkeneConfig(max_iterations=2, convergence_threshold=0.0)
        model = DawidSkeneInference(small_dataset.tasks, config=config).fit(collected_answers)
        assert model.last_result.iterations == 2
        assert not model.last_result.converged
