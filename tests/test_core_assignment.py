"""Tests for the AccOpt assigner (Algorithm 1): both production layouts and
the scalar oracle of ``tests/oracles/accopt.py`` (the ``reference`` case)."""

import pytest

from oracles import ReferenceAccOptAssigner
from oracles.accuracy import AccuracyEstimator
from repro.assign.accopt import ACCOPT_ENGINES, AccOptAssigner
from repro.core.inference import LocationAwareInference
from repro.data.models import Answer, AnswerSet


@pytest.fixture()
def fitted_parameters(small_dataset, worker_pool, distance_model, collected_answers):
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    return model.parameters


@pytest.fixture(params=(*ACCOPT_ENGINES, "reference"))
def engine(request):
    return request.param


@pytest.fixture()
def assigner(small_dataset, worker_pool, distance_model, fitted_parameters, engine):
    if engine == "reference":
        assigner = ReferenceAccOptAssigner(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
    else:
        assigner = AccOptAssigner(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            engine=engine,
            # The sparse engine needs a candidate radius; a Beijing-extent
            # covering value keeps it exactly equivalent to the dense engine.
            candidate_radius=50.0 if engine == "sparse" else None,
        )
    assigner.update_parameters(fitted_parameters)
    return assigner


class TestValidation:
    def test_requires_tasks_and_workers(self, small_dataset, worker_pool, distance_model):
        with pytest.raises(ValueError):
            AccOptAssigner([], worker_pool.workers, distance_model)
        with pytest.raises(ValueError):
            AccOptAssigner(small_dataset.tasks, [], distance_model)

    def test_unknown_engine(self, small_dataset, worker_pool, distance_model):
        with pytest.raises(ValueError):
            AccOptAssigner(
                small_dataset.tasks, worker_pool.workers, distance_model, engine="gpu"
            )

    def test_invalid_h(self, assigner, worker_pool):
        with pytest.raises(ValueError):
            assigner.assign(worker_pool.worker_ids[:2], 0, AnswerSet())

    def test_unknown_worker(self, assigner):
        with pytest.raises(KeyError):
            assigner.assign(["ghost"], 1, AnswerSet())

    def test_duplicate_workers(self, assigner, worker_pool):
        worker_id = worker_pool.worker_ids[0]
        with pytest.raises(ValueError):
            assigner.assign([worker_id, worker_id], 1, AnswerSet())


class TestAssignment:
    def test_each_worker_gets_h_tasks(self, assigner, worker_pool, collected_answers):
        workers = worker_pool.worker_ids[:3]
        assignment = assigner.assign(workers, 2, collected_answers)
        assert set(assignment) == set(workers)
        for worker_id in workers:
            assert len(assignment[worker_id]) == 2
            assert len(set(assignment[worker_id])) == 2

    def test_never_assigns_answered_tasks(self, assigner, worker_pool, collected_answers):
        workers = worker_pool.worker_ids[:3]
        assignment = assigner.assign(workers, 2, collected_answers)
        for worker_id in workers:
            done = collected_answers.tasks_of_worker(worker_id)
            assert not set(assignment[worker_id]) & done

    def test_capacity_capped_by_unanswered_tasks(self, small_dataset, worker_pool, distance_model):
        # One worker has answered every task except one: only that one can be assigned.
        worker_id = worker_pool.worker_ids[0]
        answers = AnswerSet()
        for task in small_dataset.tasks[:-1]:
            answers.add(Answer(worker_id, task.task_id, tuple([1] * task.num_labels)))
        assigner = AccOptAssigner(small_dataset.tasks, worker_pool.workers, distance_model)
        assignment = assigner.assign([worker_id], 3, answers)
        assert assignment[worker_id] == [small_dataset.tasks[-1].task_id]

    def test_empty_worker_list(self, assigner, collected_answers):
        assert assigner.assign([], 2, collected_answers) == {}

    def test_prefers_high_quality_worker_for_contested_task(
        self, small_dataset, worker_pool, distance_model, fitted_parameters
    ):
        """The greedy pick must go to the (worker, task) pair with the largest
        expected accuracy improvement, which favours high-quality workers."""
        assigner = AccOptAssigner(
            small_dataset.tasks, worker_pool.workers, distance_model, fitted_parameters
        )
        workers = worker_pool.worker_ids
        assignment = assigner.assign(workers, 1, AnswerSet())
        # Every worker received exactly one task.
        assert all(len(tasks) == 1 for tasks in assignment.values())

    def test_fresh_workers_prioritised(self, small_dataset, worker_pool, distance_model, fitted_parameters):
        """Footnote 3: workers without estimated parameters are treated optimistically,
        so assigning to them is never blocked."""
        assigner = AccOptAssigner(
            small_dataset.tasks, worker_pool.workers, distance_model, fitted_parameters
        )
        # A worker absent from the fitted parameters still receives h tasks.
        unknown = [
            worker_id
            for worker_id in worker_pool.worker_ids
            if not fitted_parameters.has_worker(worker_id)
        ]
        target = unknown[0] if unknown else worker_pool.worker_ids[0]
        assignment = assigner.assign([target], 2, AnswerSet())
        assert len(assignment[target]) == 2

    def test_assignment_is_deterministic(self, assigner, worker_pool, collected_answers):
        workers = worker_pool.worker_ids[:4]
        first = assigner.assign(workers, 2, collected_answers)
        second = assigner.assign(workers, 2, collected_answers)
        assert first == second

    def test_update_parameters_changes_behaviour_possible(
        self, small_dataset, worker_pool, distance_model, fitted_parameters
    ):
        assigner = AccOptAssigner(small_dataset.tasks, worker_pool.workers, distance_model)
        default_params_assignment = assigner.assign(
            worker_pool.worker_ids[:2], 1, AnswerSet()
        )
        assigner.update_parameters(fitted_parameters)
        assert assigner.parameters is fitted_parameters
        fitted_assignment = assigner.assign(worker_pool.worker_ids[:2], 1, AnswerSet())
        # Both are valid assignments of one task per worker.
        for assignment in (default_params_assignment, fitted_assignment):
            assert all(len(tasks) == 1 for tasks in assignment.values())


class TestGreedyObjective:
    def test_greedy_beats_random_in_expected_improvement(
        self, small_dataset, worker_pool, distance_model, fitted_parameters, collected_answers
    ):
        """The greedy assignment's expected ΔAcc must be at least as large as a
        random assignment's, measured under the same estimator."""
        import numpy as np

        from repro.assign.random_assigner import RandomAssigner

        workers = worker_pool.worker_ids[:4]
        accopt = AccOptAssigner(
            small_dataset.tasks, worker_pool.workers, distance_model, fitted_parameters
        )
        random_assigner = RandomAssigner(
            small_dataset.tasks, worker_pool.workers, seed=3
        )
        greedy = accopt.assign(workers, 2, collected_answers)
        random_assignment = random_assigner.assign(workers, 2, collected_answers)

        estimator = AccuracyEstimator(
            tasks=small_dataset.task_index,
            workers={w.worker_id: w for w in worker_pool.workers},
            distance_model=distance_model,
            parameters=fitted_parameters,
            answers=collected_answers,
        )

        def total_improvement(assignment):
            per_task_workers: dict[str, list[str]] = {}
            for worker_id, task_ids in assignment.items():
                for task_id in task_ids:
                    per_task_workers.setdefault(task_id, []).append(worker_id)
            total = 0.0
            for task_id, assigned in per_task_workers.items():
                baselines = estimator.current_label_accuracies(task_id)
                states = list(baselines)
                for worker_id in assigned:
                    accuracy = estimator.answer_accuracy(worker_id, task_id)
                    states = [state.add_worker(accuracy) for state in states]
                total += sum(
                    s.expected_improvement_over(b) for s, b in zip(states, baselines)
                )
            return total

        assert total_improvement(greedy) >= total_improvement(random_assignment) - 1e-9
