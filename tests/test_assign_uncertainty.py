"""Tests for repro.assign.uncertainty (the uncertainty-first extension)."""

import numpy as np
import pytest

from repro.assign.uncertainty import UncertaintyFirstAssigner, bernoulli_entropy
from repro.core.distance_functions import PAPER_FUNCTION_SET
from oracles.em import store_of
from oracles.params import ModelParameters, TaskParameters
from repro.data.models import Answer, AnswerSet


class TestBernoulliEntropy:
    def test_extremes_are_zero(self):
        assert bernoulli_entropy(0.0) == 0.0
        assert bernoulli_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert bernoulli_entropy(0.5) == pytest.approx(np.log(2))
        assert bernoulli_entropy(0.5) > bernoulli_entropy(0.3) > bernoulli_entropy(0.1)

    def test_symmetry(self):
        assert bernoulli_entropy(0.2) == pytest.approx(bernoulli_entropy(0.8))


def make_parameters(small_dataset, confident_ids, uncertain_ids):
    """Parameters where `confident_ids` tasks are (almost) decided and
    `uncertain_ids` tasks sit at 0.5."""
    params = ModelParameters(function_set=PAPER_FUNCTION_SET)
    uniform = PAPER_FUNCTION_SET.uniform_weights()
    for task in small_dataset.tasks:
        if task.task_id in confident_ids:
            probs = np.full(task.num_labels, 0.99)
        elif task.task_id in uncertain_ids:
            probs = np.full(task.num_labels, 0.5)
        else:
            probs = np.full(task.num_labels, 0.8)
        params.tasks[task.task_id] = TaskParameters(probs, uniform.copy())
    return store_of(params)


class TestUncertaintyFirstAssigner:
    def test_prefers_most_uncertain_tasks(self, small_dataset, worker_pool):
        uncertain = {small_dataset.tasks[3].task_id, small_dataset.tasks[7].task_id}
        confident = {t.task_id for t in small_dataset.tasks} - uncertain
        params = make_parameters(small_dataset, confident, uncertain)
        assigner = UncertaintyFirstAssigner(
            small_dataset.tasks, worker_pool.workers, params
        )
        worker_id = worker_pool.worker_ids[0]
        assignment = assigner.assign([worker_id], 2, AnswerSet())
        assert set(assignment[worker_id]) == uncertain

    def test_unseen_tasks_have_maximal_uncertainty(self, small_dataset, worker_pool):
        # No parameters at all: every task defaults to P(z)=0.5, i.e. maximal entropy.
        assigner = UncertaintyFirstAssigner(small_dataset.tasks, worker_pool.workers)
        task_id = small_dataset.tasks[0].task_id
        expected = small_dataset.tasks[0].num_labels * np.log(2)
        assert assigner.task_uncertainty(task_id) == pytest.approx(expected)

    def test_spreads_load_within_a_round(self, small_dataset, worker_pool):
        uncertain = {t.task_id for t in small_dataset.tasks[:4]}
        params = make_parameters(
            small_dataset, {t.task_id for t in small_dataset.tasks[4:]}, uncertain
        )
        assigner = UncertaintyFirstAssigner(
            small_dataset.tasks, worker_pool.workers, params
        )
        workers = worker_pool.worker_ids[:2]
        assignment = assigner.assign(workers, 2, AnswerSet())
        # Two workers, two tasks each, four equally-uncertain tasks: the round
        # spreads across all four instead of both workers taking the same two.
        chosen = [task for tasks in assignment.values() for task in tasks]
        assert len(set(chosen)) == 4

    def test_respects_answered_tasks(self, small_dataset, worker_pool):
        assigner = UncertaintyFirstAssigner(small_dataset.tasks, worker_pool.workers)
        worker_id = worker_pool.worker_ids[0]
        done = small_dataset.tasks[0]
        answers = AnswerSet(
            [Answer(worker_id, done.task_id, tuple([1] * done.num_labels))]
        )
        assignment = assigner.assign([worker_id], len(small_dataset), answers)
        assert done.task_id not in assignment[worker_id]

    def test_update_parameters(self, small_dataset, worker_pool):
        assigner = UncertaintyFirstAssigner(small_dataset.tasks, worker_pool.workers)
        uncertain = {small_dataset.tasks[0].task_id}
        params = make_parameters(
            small_dataset, {t.task_id for t in small_dataset.tasks[1:]}, uncertain
        )
        assigner.update_parameters(params)
        assert assigner.parameters is params
        worker_id = worker_pool.worker_ids[0]
        assignment = assigner.assign([worker_id], 1, AnswerSet())
        assert assignment[worker_id] == [small_dataset.tasks[0].task_id]

    def test_store_feed_ranks_like_model_feed(
        self, small_dataset, worker_pool, collected_answers, parameter_feed
    ):
        pairs = parameter_feed.fed_pairs(
            lambda: UncertaintyFirstAssigner(small_dataset.tasks, worker_pool.workers)
        )
        for by_store, by_model, workers in pairs:
            everything = len(by_store.tasks)
            assert by_store.assign(
                workers, everything, collected_answers
            ) == by_model.assign(workers, everything, collected_answers)

    def test_validation(self, small_dataset, worker_pool):
        assigner = UncertaintyFirstAssigner(small_dataset.tasks, worker_pool.workers)
        with pytest.raises(ValueError):
            assigner.assign(worker_pool.worker_ids[:1], 0, AnswerSet())
        with pytest.raises(KeyError):
            assigner.assign(["ghost"], 1, AnswerSet())

    def test_works_in_framework_loop(self, platform, small_dataset, worker_pool, distance_model):
        from repro.core.inference import InferenceConfig, LocationAwareInference
        from repro.framework.config import FrameworkConfig
        from repro.framework.framework import PoiLabellingFramework

        config = FrameworkConfig(
            budget=40,
            tasks_per_worker=2,
            workers_per_round=3,
            evaluation_checkpoints=(40,),
            inference=InferenceConfig(max_iterations=15),
        )
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model,
            config=config.inference,
        )
        assigner = UncertaintyFirstAssigner(small_dataset.tasks, worker_pool.workers)
        result = PoiLabellingFramework(platform, inference, assigner, config=config).run()
        assert result.assignments_spent == 40
        assert result.final_accuracy > 0.5
