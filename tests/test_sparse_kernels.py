"""Sparse candidate-pruned kernels vs their dense oracles.

The CSR kernels (:func:`repro.core.accuracy_kernel.answer_accuracy_csr`,
:func:`~repro.core.accuracy_kernel.marginal_gains_csr`), the candidate
structure (:class:`repro.spatial.candidates.CandidateIndex`) and the
``engine="sparse"`` AccOpt/EM paths all promise *exact* agreement with the
dense engines whenever the candidate radius covers the universe — the far
field is a pure superset optimisation then.  These tests pin that promise
(bit-equality or ≤ 1e-9, well below any statistical tolerance), plus the
degenerate regimes the dense engines never see: tasks with zero candidate
workers, workers with zero candidate tasks, and the all-far radius where
every pair scores through the closed-form far-field gain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assign.accopt import AccOptAssigner
from repro.core import accuracy_kernel
from repro.core.inference import InferenceConfig, LocationAwareInference
from oracles.accuracy import equation9_arrays
from oracles.distance import normalised_distance_matrix
from oracles.params import model_from_store
from repro.core.params import ArrayParameterStore
from repro.data.models import POI, Answer, AnswerSet, Task, Worker
from repro.obs.metrics import MetricsRegistry
from repro.spatial.candidates import CandidateIndex
from repro.spatial.distance import DistanceModel, sparse_distance_csr
from repro.spatial.geometry import GeoPoint

#: A radius that covers the Beijing-extent test universe with a wide margin
#: (the conftest bbox spans a fraction of a degree) — finite on purpose, so
#: the covering-radius equivalence tests exercise the same code path a real
#: deployment would run, not the ``inf`` shortcut.
COVERING_RADIUS = 50.0


def full_coverage_csr(distances: np.ndarray):
    """Dense ``(W, T)`` distances as an every-pair CSR structure."""
    num_workers, num_tasks = distances.shape
    indptr = np.arange(num_workers + 1, dtype=np.intp) * num_tasks
    indices = np.tile(np.arange(num_tasks, dtype=np.intp), num_workers)
    return indptr, indices, distances.ravel().copy()


@pytest.fixture()
def fitted_model(small_dataset, worker_pool, distance_model, collected_answers):
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    return model


@pytest.fixture()
def fitted_store(small_dataset, worker_pool, fitted_model):
    task_ids = [task.task_id for task in small_dataset.tasks]
    num_labels = [task.num_labels for task in small_dataset.tasks]
    return fitted_model.parameters.regather(
        list(worker_pool.worker_ids), task_ids, num_labels
    )


@pytest.fixture()
def dense_distances(small_dataset, worker_pool, distance_model):
    return normalised_distance_matrix(
        [worker.locations for worker in worker_pool.workers],
        [task.location for task in small_dataset.tasks],
        distance_model,
    )


class TestSparseDistanceCsr:
    def test_full_coverage_matches_dense_bit_for_bit(
        self, small_dataset, worker_pool, distance_model, dense_distances
    ):
        indptr, indices, _ = full_coverage_csr(dense_distances)
        sparse = sparse_distance_csr(
            [worker.locations for worker in worker_pool.workers],
            [task.location for task in small_dataset.tasks],
            distance_model,
            indptr,
            indices,
        )
        assert np.array_equal(sparse, dense_distances.ravel())

    def test_arbitrary_subset_matches_dense_gather(
        self, small_dataset, worker_pool, distance_model, dense_distances
    ):
        rng = np.random.default_rng(7)
        num_workers, num_tasks = dense_distances.shape
        rows = []
        for _ in range(num_workers):
            k = int(rng.integers(0, num_tasks + 1))
            rows.append(np.sort(rng.choice(num_tasks, size=k, replace=False)))
        indptr = np.concatenate(
            ([0], np.cumsum([row.size for row in rows]))
        ).astype(np.intp)
        indices = np.concatenate(rows).astype(np.intp) if rows else np.empty(0)
        sparse = sparse_distance_csr(
            [worker.locations for worker in worker_pool.workers],
            [task.location for task in small_dataset.tasks],
            distance_model,
            indptr,
            indices,
        )
        expected = dense_distances[
            np.repeat(np.arange(num_workers), np.diff(indptr)), indices
        ]
        assert np.array_equal(sparse, expected)


class TestKernelTwins:
    def test_answer_accuracy_csr_matches_dense(
        self, fitted_store, dense_distances
    ):
        dense = accuracy_kernel.answer_accuracy_matrix(
            dense_distances, *equation9_arrays(fitted_store)
        )
        indptr, indices, data = full_coverage_csr(dense_distances)
        sparse = accuracy_kernel.answer_accuracy_csr(
            indptr, indices, data, *equation9_arrays(fitted_store)
        )
        assert np.array_equal(sparse, dense.ravel())

    def test_marginal_gains_csr_matches_dense(
        self, small_dataset, fitted_store, dense_distances, collected_answers
    ):
        dense_acc = accuracy_kernel.answer_accuracy_matrix(
            dense_distances, *equation9_arrays(fitted_store)
        )
        state = accuracy_kernel.baseline_state(
            fitted_store.label_probs,
            fitted_store.label_offsets,
            [
                collected_answers.answer_count_of_task(task.task_id)
                for task in small_dataset.tasks
            ],
        )
        dense_gains = accuracy_kernel.marginal_gains(state, dense_acc)
        indptr, indices, _ = full_coverage_csr(dense_distances)
        sparse_gains = accuracy_kernel.marginal_gains_csr(
            state, indices, dense_acc.ravel()
        )
        assert np.array_equal(sparse_gains, dense_gains.ravel())

    def test_far_field_gains_match_csr_at_far_accuracy(
        self, small_dataset, fitted_store, collected_answers
    ):
        """The per-task far vector is the CSR gain evaluated at the shared
        far-field accuracy — the identity the sparse greedy loop relies on."""
        far = accuracy_kernel.far_field_accuracy(
            fitted_store.p_qualified, fitted_store.function_set.lambdas
        )
        state = accuracy_kernel.baseline_state(
            fitted_store.label_probs,
            fitted_store.label_offsets,
            [
                collected_answers.answer_count_of_task(task.task_id)
                for task in small_dataset.tasks
            ],
        )
        far_gains = accuracy_kernel.far_field_gains(state, far)
        columns = np.arange(fitted_store.num_tasks, dtype=np.intp)
        via_csr = accuracy_kernel.marginal_gains_csr(
            state, columns, np.full(fitted_store.num_tasks, far)
        )
        assert np.array_equal(far_gains, via_csr)

    def test_far_field_accuracy_is_a_probability(self, fitted_store):
        far = accuracy_kernel.far_field_accuracy(
            fitted_store.p_qualified, fitted_store.function_set.lambdas
        )
        assert 0.0 <= far <= 1.0


def build_sparse_dense_pair(tasks, workers, distance_model, parameters, radius):
    sparse = AccOptAssigner(
        tasks,
        workers,
        distance_model,
        parameters,
        engine="sparse",
        candidate_radius=radius,
    )
    dense = AccOptAssigner(
        tasks, workers, distance_model, parameters, engine="vectorized"
    )
    return sparse, dense


class TestSparseAccOptEquivalence:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("radius", [COVERING_RADIUS, float("inf")])
    def test_identical_on_fitted_parameters(
        self,
        small_dataset,
        worker_pool,
        distance_model,
        fitted_model,
        collected_answers,
        h,
        radius,
    ):
        sparse, dense = build_sparse_dense_pair(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            fitted_model.parameters,
            radius,
        )
        workers = worker_pool.worker_ids
        assert sparse.assign(workers, h, collected_answers) == dense.assign(
            workers, h, collected_answers
        )

    def test_identical_on_default_priors_and_empty_log(
        self, small_dataset, worker_pool, distance_model
    ):
        sparse, dense = build_sparse_dense_pair(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            ArrayParameterStore.empty(),
            COVERING_RADIUS,
        )
        workers = worker_pool.worker_ids
        assert sparse.assign(workers, 2, AnswerSet()) == dense.assign(
            workers, 2, AnswerSet()
        )

    def test_identical_across_growing_log(
        self,
        small_dataset,
        worker_pool,
        distance_model,
        fitted_model,
        collected_answers,
    ):
        """Repeated batches over a growing answer log stay in lockstep."""
        sparse, dense = build_sparse_dense_pair(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            fitted_model.parameters,
            COVERING_RADIUS,
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids[:4]
        for _ in range(3):
            assignment_s = sparse.assign(workers, 2, answers)
            assignment_d = dense.assign(workers, 2, answers)
            assert assignment_s == assignment_d
            for worker_id, task_ids in assignment_s.items():
                for task_id in task_ids:
                    task = small_dataset.task_by_id(task_id)
                    answers.add(
                        Answer(
                            worker_id=worker_id,
                            task_id=task_id,
                            responses=tuple(task.truth),
                        )
                    )

    def test_identical_after_open_world_task_added(
        self, small_dataset, worker_pool, distance_model, fitted_model
    ):
        sparse, dense = build_sparse_dense_pair(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            fitted_model.parameters,
            COVERING_RADIUS,
        )
        workers = worker_pool.worker_ids
        # Build the candidate structure, then grow the universe under it.
        assert sparse.assign(workers[:2], 1, AnswerSet()) == dense.assign(
            workers[:2], 1, AnswerSet()
        )
        template = small_dataset.tasks[0]
        newcomer = Task(
            task_id="late-task",
            poi=POI(
                poi_id="late-poi",
                name="late",
                location=template.location,
            ),
            labels=("a", "b"),
            truth=(1, 0),
        )
        assert sparse.add_task(newcomer)
        assert dense.add_task(newcomer)
        assert sparse.assign(workers, 2, AnswerSet()) == dense.assign(
            workers, 2, AnswerSet()
        )

    def test_store_feed_assigns_like_model_feed(
        self, small_dataset, worker_pool, distance_model, collected_answers,
        parameter_feed,
    ):
        pairs = parameter_feed.fed_pairs(
            lambda: AccOptAssigner(
                small_dataset.tasks,
                worker_pool.workers,
                distance_model,
                engine="sparse",
                candidate_radius=COVERING_RADIUS,
            )
        )
        for by_store, by_model, workers in pairs:
            # The aligned arrays AccOpt scores from equal the oracle's
            # accessor-built flatten of the estimate, footnote-3 priors
            # included, and a request reads its workers' rows of them.
            baseline, aligned = by_store._aligned_parameters()
            assert aligned.task_ids == tuple(by_store.task_order)
            expected = model_from_store(by_model.parameters).to_array_store(
                aligned.worker_ids, aligned.task_ids, np.diff(aligned.label_offsets)
            )
            for name in ("p_qualified", "distance_weights", "influence_weights", "label_probs"):
                np.testing.assert_array_equal(
                    getattr(aligned, name), getattr(expected, name)
                )
            np.testing.assert_array_equal(baseline.p_z1, expected.label_probs)
            requested = sorted(workers)
            p_qualified, distance_weights, *task_side = by_store._equation9_inputs(
                requested, aligned
            )
            np.testing.assert_array_equal(task_side[0], expected.influence_weights)
            rows = [expected.index_of_worker(w) for w in requested]
            np.testing.assert_array_equal(p_qualified, expected.p_qualified[rows])
            np.testing.assert_array_equal(
                distance_weights, expected.distance_weights[rows]
            )
            for h in (1, 2, 3):
                assert by_store.assign(
                    workers, h, collected_answers
                ) == by_model.assign(workers, h, collected_answers)


class TestSparseAccOptDegenerate:
    def test_all_far_workers_still_fill_capacity(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        """A radius so small every pair is pruned: assignment falls back to
        the far-field gains and every worker still receives min(h, open)."""
        assigner = AccOptAssigner(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            ArrayParameterStore.empty(),
            engine="sparse",
            candidate_radius=1e-12,
        )
        workers = worker_pool.worker_ids
        h = 2
        assignment = assigner.assign(workers, h, collected_answers)
        for worker_id in workers:
            answered = collected_answers.tasks_of_worker(worker_id)
            expected = min(h, len(small_dataset.tasks) - len(answered))
            task_ids = assignment[worker_id]
            assert len(task_ids) == expected
            assert len(set(task_ids)) == len(task_ids)
            assert not set(task_ids) & answered

    def test_zero_candidate_task_reachable_via_far_field(self, distance_model):
        """A task no worker has in radius can still be assigned (far field)."""
        poi = lambda i, x, y: POI(  # noqa: E731 - local shorthand
            poi_id=f"p{i}", name=f"p{i}", location=GeoPoint(x, y)
        )
        tasks = [
            Task(task_id="near", poi=poi(0, 0.0, 0.0), labels=("a",), truth=(1,)),
            Task(
                task_id="far-away",
                poi=poi(1, 9.0, 9.0),
                labels=("a",),
                truth=(1,),
            ),
        ]
        workers = [Worker("w1", (GeoPoint(0.1, 0.0),))]
        assigner = AccOptAssigner(
            tasks,
            workers,
            DistanceModel(max_distance=20.0),
            ArrayParameterStore.empty(),
            engine="sparse",
            candidate_radius=1.0,
        )
        assignment = assigner.assign(["w1"], 2, AnswerSet())
        assert sorted(assignment["w1"]) == ["far-away", "near"]

    def test_sparse_engine_requires_radius(
        self, small_dataset, worker_pool, distance_model
    ):
        with pytest.raises(ValueError, match="candidate_radius"):
            AccOptAssigner(
                small_dataset.tasks,
                worker_pool.workers,
                distance_model,
                engine="sparse",
            )


class TestSparseEmEquivalence:
    @pytest.mark.parametrize("radius", [COVERING_RADIUS, float("inf")])
    def test_covering_radius_matches_vectorized(
        self, small_dataset, worker_pool, distance_model, collected_answers, radius
    ):
        dense = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        ).fit(collected_answers)
        sparse = LocationAwareInference(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            config=InferenceConfig(engine="sparse", candidate_radius=radius),
        ).fit(collected_answers)

        assert (
            sparse.last_result.log_likelihood_trace
            == dense.last_result.log_likelihood_trace
        )
        for task in small_dataset.tasks:
            np.testing.assert_allclose(
                sparse.label_probabilities(task.task_id),
                dense.label_probabilities(task.task_id),
                rtol=0.0,
                atol=1e-9,
            )
            sparse_task = sparse.parameters.task(
                task.task_id, num_labels=task.num_labels
            )
            dense_task = dense.parameters.task(
                task.task_id, num_labels=task.num_labels
            )
            np.testing.assert_allclose(
                sparse_task.influence_weights,
                dense_task.influence_weights,
                rtol=0.0,
                atol=1e-9,
            )
        for worker in worker_pool.workers:
            sparse_worker = sparse.parameters.worker(worker.worker_id)
            dense_worker = dense.parameters.worker(worker.worker_id)
            assert (
                abs(sparse_worker.p_qualified - dense_worker.p_qualified) <= 1e-9
            )
            np.testing.assert_allclose(
                np.asarray(sparse_worker.distance_weights),
                np.asarray(dense_worker.distance_weights),
                rtol=0.0,
                atol=1e-9,
            )

    def test_tiny_radius_fit_runs_and_predicts(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        """All observed pairs far: the fit degrades gracefully (distance 1.0
        everywhere) but still converges to a usable estimate."""
        model = LocationAwareInference(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            config=InferenceConfig(
                engine="sparse", candidate_radius=1e-12, max_iterations=20
            ),
        ).fit(collected_answers)
        predictions = model.predict_all()
        assert set(predictions) == {t.task_id for t in small_dataset.tasks}

    def test_sparse_engine_requires_radius(self):
        with pytest.raises(ValueError, match="candidate_radius"):
            InferenceConfig(engine="sparse")
        with pytest.raises(ValueError, match="candidate_radius"):
            InferenceConfig(engine="sparse", candidate_radius=-1.0)


class TestCandidateIndex:
    @pytest.fixture()
    def universe(self):
        rng = np.random.default_rng(31)
        tasks = [
            Task(
                task_id=f"t{j}",
                poi=POI(
                    poi_id=f"p{j}",
                    name=f"p{j}",
                    location=GeoPoint(float(rng.random()), float(rng.random())),
                ),
                labels=("a", "b"),
                truth=(1, 0),
            )
            for j in range(25)
        ]
        workers = [
            Worker(
                f"w{i}",
                tuple(
                    GeoPoint(float(rng.random()), float(rng.random()))
                    for _ in range(int(rng.integers(1, 3)))
                ),
            )
            for i in range(10)
        ]
        model = DistanceModel(max_distance=float(np.sqrt(2.0)))
        return tasks, workers, model

    def test_rows_match_bruteforce_pruning(self, universe):
        tasks, workers, model = universe
        radius = 0.3
        index = CandidateIndex(tasks, model, radius)
        indptr, indices, data = index.rows_for(workers)
        dense = normalised_distance_matrix(
            [w.locations for w in workers],
            [t.location for t in tasks],
            model,
        )
        for i, worker in enumerate(workers):
            raw_min = np.array(
                [
                    min(
                        float(np.hypot(loc.x - t.location.x, loc.y - t.location.y))
                        for loc in worker.locations
                    )
                    for t in tasks
                ]
            )
            expected_cols = np.flatnonzero(raw_min <= radius)
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            assert np.array_equal(indices[lo:hi], expected_cols)
            assert np.array_equal(data[lo:hi], dense[i, expected_cols])

    def test_metrics_account_for_every_pair(self, universe):
        tasks, workers, model = universe
        registry = MetricsRegistry()
        index = CandidateIndex(tasks, model, 0.3, metrics=registry)
        index.rows_for(workers)
        total = len(workers) * len(tasks)
        assert index.pairs_kept_total + index.pairs_pruned_total == total
        kept = registry.counter("candidate_pairs_kept_total").value
        pruned = registry.counter("candidate_pairs_pruned_total").value
        assert kept + pruned == total
        assert registry.histogram("candidate_row_nnz").count == len(workers)

    def test_open_world_task_refreshes_cached_rows(self, universe):
        tasks, workers, model = universe
        index = CandidateIndex(tasks, model, 0.3)
        before_indptr, before_indices, _ = index.rows_for(workers)
        # Drop a new task exactly on the first worker's first location — it
        # must appear in that worker's refreshed row as the last column.
        spot = workers[0].locations[0]
        newcomer = Task(
            task_id="late",
            poi=POI(poi_id="late", name="late", location=spot),
            labels=("a",),
            truth=(1,),
        )
        index.add_task(newcomer)
        assert index.column_of("late") == len(tasks)
        after_indptr, after_indices, after_data = index.rows_for(workers)
        lo, hi = int(after_indptr[0]), int(after_indptr[1])
        row_cols = after_indices[lo:hi]
        assert row_cols[-1] == len(tasks)
        assert after_data[lo:hi][-1] == 0.0
        # Fresh index over the grown universe agrees with the refreshed rows.
        fresh = CandidateIndex(tasks + [newcomer], model, 0.3)
        fresh_indptr, fresh_indices, fresh_data = fresh.rows_for(workers)
        assert np.array_equal(after_indptr, fresh_indptr)
        assert np.array_equal(after_indices, fresh_indices)
        assert np.array_equal(after_data, fresh_data)

    def test_pair_distances_candidate_vs_far(self, universe):
        tasks, workers, model = universe
        radius = 0.3
        index = CandidateIndex(tasks, model, radius)
        workers_by_id = {w.worker_id: w for w in workers}
        dense = normalised_distance_matrix(
            [w.locations for w in workers],
            [t.location for t in tasks],
            model,
        )
        worker_ids = [w.worker_id for i, w in enumerate(workers) for _ in tasks]
        task_ids = [t.task_id for _ in workers for t in tasks]
        out = index.pair_distances(worker_ids, task_ids, workers_by_id)
        k = 0
        for i, worker in enumerate(workers):
            for j, task in enumerate(tasks):
                raw = min(
                    float(np.hypot(loc.x - task.location.x, loc.y - task.location.y))
                    for loc in worker.locations
                )
                expected = dense[i, j] if raw <= radius else 1.0
                assert out[k] == expected
                k += 1

    def test_rejects_non_positive_radius(self, universe):
        tasks, _, model = universe
        for radius in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                CandidateIndex(tasks, model, radius)


class TestServingConfigValidation:
    def test_sparse_engine_requires_radius(self):
        from repro.serving.service import ServingConfig

        with pytest.raises(ValueError, match="candidate_radius"):
            ServingConfig(assigner_engine="sparse")
        with pytest.raises(ValueError, match="positive"):
            ServingConfig(candidate_radius=-2.0)
        ServingConfig(assigner_engine="sparse", candidate_radius=0.5)
