"""Equivalence of the batched EM engine against the per-record oracle.

:class:`~repro.core.inference.LocationAwareInference` must reproduce the
per-record loop of ``tests/oracles/em.py`` to within floating-point noise —
the tolerance enforced here is 1e-9 on every parameter and on the (relative)
log-likelihood, across cold starts, warm starts and incremental updates, on
both multi-label and binary corpora.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ReferenceIncrementalUpdater, ReferenceInference
from repro.core.incremental import IncrementalUpdater
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.platform import CrowdPlatform
from repro.crowd.budget import Budget
from repro.crowd.arrival import UniformRandomArrival
from repro.crowd.worker_pool import WorkerPool, WorkerPoolSpec
from repro.data.generators import DatasetSpec, generate_dataset
from repro.data.models import AnswerSet
from repro.spatial.bbox import BEIJING_BBOX, BoundingBox
from repro.spatial.distance import DistanceModel

PARAM_TOL = 1e-9


def build_corpus(num_tasks=10, labels_per_task=4, num_workers=6, seed=77, answers_per_task=3):
    """A small deterministic campaign: dataset, workers, distances, answers."""
    spec = DatasetSpec(
        name=f"Equiv-{labels_per_task}",
        num_tasks=num_tasks,
        labels_per_task=labels_per_task,
        bbox=BEIJING_BBOX,
        metric="euclidean",
        num_clusters=3,
    )
    dataset = generate_dataset(spec, seed=seed)
    distance_model = DistanceModel(max_distance=dataset.max_distance, metric="euclidean")
    bounds = BoundingBox.from_points(dataset.poi_locations).expand(0.05)
    pool = WorkerPool.generate(
        bounds,
        spec=WorkerPoolSpec(num_workers=num_workers, locations_per_worker=(1, 2)),
        seed=seed + 1,
    )
    platform = CrowdPlatform(
        dataset=dataset,
        worker_pool=pool,
        budget=Budget(total=answers_per_task * num_tasks * 2),
        distance_model=distance_model,
        answer_simulator=AnswerSimulator(distance_model, noise=0.05),
        arrival_process=UniformRandomArrival(pool, batch_size=3, seed=seed + 2),
        seed=seed + 2,
    )
    answers = platform.collect_batch_answers(answers_per_task=answers_per_task, seed=seed + 3)
    return dataset, pool, distance_model, answers


def run_both(dataset, pool, distance_model, answers, initial=None, **config_kwargs):
    config = InferenceConfig(**config_kwargs)
    ref, vec = (
        cls(dataset.tasks, pool.workers, distance_model, config=config).run_em(
            answers, initial=initial
        )
        for cls in (ReferenceInference, LocationAwareInference)
    )
    return ref, vec


def assert_parameters_close(a, b, tol=PARAM_TOL):
    assert set(a.workers) == set(b.workers)
    assert set(a.tasks) == set(b.tasks)
    for worker_id, wa in a.workers.items():
        wb = b.workers[worker_id]
        assert abs(wa.p_qualified - wb.p_qualified) <= tol, worker_id
        assert np.abs(wa.distance_weights - wb.distance_weights).max() <= tol, worker_id
    for task_id, ta in a.tasks.items():
        tb = b.tasks[task_id]
        assert ta.num_labels == tb.num_labels, task_id
        assert np.abs(ta.label_probs - tb.label_probs).max() <= tol, task_id
        assert np.abs(ta.influence_weights - tb.influence_weights).max() <= tol, task_id


def assert_results_equivalent(ref, vec, tol=PARAM_TOL):
    assert ref.iterations == vec.iterations
    assert ref.converged == vec.converged
    for da, db in zip(ref.convergence_trace, vec.convergence_trace):
        assert abs(da - db) <= tol
    for la, lb in zip(ref.log_likelihood_trace, vec.log_likelihood_trace):
        assert abs(la - lb) <= tol * max(1.0, abs(la))
    assert_parameters_close(ref.parameters, vec.parameters, tol=tol)


class TestColdStartEquivalence:
    def test_multi_label_corpus(self):
        corpus = build_corpus(labels_per_task=4)
        ref, vec = run_both(*corpus)
        assert_results_equivalent(ref, vec)

    def test_binary_corpus(self):
        corpus = build_corpus(labels_per_task=1, seed=101)
        ref, vec = run_both(*corpus)
        assert_results_equivalent(ref, vec)

    def test_fixed_iteration_budget(self):
        corpus = build_corpus(seed=5)
        ref, vec = run_both(*corpus, max_iterations=7, convergence_threshold=0.0)
        assert ref.iterations == vec.iterations == 7
        assert_results_equivalent(ref, vec)

    def test_asymmetric_alpha(self):
        corpus = build_corpus(seed=31)
        ref, vec = run_both(*corpus, alpha=0.8)
        assert_results_equivalent(ref, vec)

    def test_empty_answer_log(self):
        dataset, pool, distance_model, _ = build_corpus(num_tasks=3, seed=3)
        ref, vec = run_both(dataset, pool, distance_model, AnswerSet())
        assert_results_equivalent(ref, vec)
        assert vec.converged and vec.iterations == 1
        assert not vec.parameters.workers and not vec.parameters.tasks


class TestWarmStartEquivalence:
    def test_warm_start_from_full_fit(self):
        dataset, pool, distance_model, answers = build_corpus(seed=13)
        cold_ref, cold_vec = run_both(dataset, pool, distance_model, answers)
        ref, vec = run_both(
            dataset, pool, distance_model, answers, initial=cold_ref.parameters
        )
        # Warm-starting from a converged estimate converges immediately in
        # both engines.
        assert_results_equivalent(ref, vec)

    def test_warm_start_with_missing_entities(self):
        """Initial parameters estimated on a subset lack some workers/tasks."""
        dataset, pool, distance_model, answers = build_corpus(seed=29)
        subset = AnswerSet(list(answers)[: len(answers) // 3])
        warm_ref, _ = run_both(dataset, pool, distance_model, subset)
        ref, vec = run_both(
            dataset, pool, distance_model, answers, initial=warm_ref.parameters
        )
        assert_results_equivalent(ref, vec)

    def test_warm_start_under_different_alpha(self):
        """A warm start fit under another alpha: only the first E-step sees it.

        The per-record M-step re-emits parameters under the *config's* alpha
        every iteration, so the batched engine must not keep the
        warm-start's alpha beyond iteration one — and the returned parameters
        must carry the config's alpha for Equation 9 consumers.
        """
        dataset, pool, distance_model, answers = build_corpus(seed=67)
        old_ref, _ = run_both(dataset, pool, distance_model, answers, alpha=0.5)
        assert old_ref.parameters.alpha == pytest.approx(0.5)
        ref, vec = run_both(
            dataset, pool, distance_model, answers,
            initial=old_ref.parameters, alpha=0.8,
        )
        assert ref.parameters.alpha == vec.parameters.alpha == pytest.approx(0.8)
        assert_results_equivalent(ref, vec)

    def test_warm_start_with_extra_entities(self):
        """Initial parameters carry workers/tasks absent from the answer log."""
        dataset, pool, distance_model, answers = build_corpus(seed=41)
        full_ref, _ = run_both(dataset, pool, distance_model, answers)
        subset = AnswerSet(list(answers)[: len(answers) // 2])
        ref, vec = run_both(
            dataset, pool, distance_model, subset, initial=full_ref.parameters
        )
        assert_results_equivalent(ref, vec)


class TestIncrementalEquivalence:
    def _fresh_answers(self, dataset, pool, distance_model, answers, count):
        simulator = AnswerSimulator(distance_model, noise=0.0)
        fresh = []
        for profile in pool:
            for task in dataset.tasks:
                if answers.get(profile.worker_id, task.task_id) is None:
                    fresh.append(simulator.sample_answer(profile, task, seed=1234))
                    break
            if len(fresh) >= count:
                break
        assert fresh, "corpus saturated; enlarge the dataset"
        return fresh

    def test_incremental_updates_match(self):
        dataset, pool, distance_model, answers = build_corpus(seed=59)
        new_answers = self._fresh_answers(dataset, pool, distance_model, answers, 4)
        grown = answers.copy()
        for answer in new_answers:
            grown.add(answer)

        # Seed both engines with the *identical* estimate so the test isolates
        # the incremental sweep itself.
        seed_model = ReferenceInference(dataset.tasks, pool.workers, distance_model)
        seed_params = seed_model.run_em(answers).parameters

        updated = {}
        for name, updater_cls in (
            ("reference", ReferenceIncrementalUpdater),
            ("vectorized", IncrementalUpdater),
        ):
            model = LocationAwareInference(dataset.tasks, pool.workers, distance_model)
            model._parameters = seed_params.copy()
            model._fitted = True
            updater = updater_cls(model, local_iterations=2)
            updated[name] = updater.apply(grown, new_answers)

        assert_parameters_close(updated["reference"], updated["vectorized"])


@pytest.mark.slow
class TestScalabilitySizedEquivalence:
    def test_larger_seeded_corpus(self):
        """A few hundred answers over many tasks, capped iterations."""
        corpus = build_corpus(
            num_tasks=60, labels_per_task=6, num_workers=25, seed=91, answers_per_task=4
        )
        ref, vec = run_both(*corpus, max_iterations=15)
        assert_results_equivalent(ref, vec)
