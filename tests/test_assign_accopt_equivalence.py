"""Batched vs scalar AccOpt: the two must assign identically.

:class:`~repro.assign.accopt.AccOptAssigner` replaces the scalar per-pair
scoring of the oracle (``tests/oracles/accopt.py``) with the batched kernels
of :mod:`repro.core.accuracy_kernel`; both implement the exact greedy
Algorithm 1, so on the same inputs they must produce the *same assignments*,
not merely similar ones.  These tests pin that, from single batches up to a
full seeded campaign where every round's assignment feeds the next round's
inference.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ReferenceAccOptAssigner, normalised_distance_matrix
from oracles.params import model_from_store
from repro.assign.accopt import AccOptAssigner
from repro.core import accuracy_kernel
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.core.params import ArrayParameterStore
from repro.data.models import POI, Answer, AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel
from repro.spatial.geometry import GeoPoint
from repro.framework.config import FrameworkConfig
from repro.framework.framework import PoiLabellingFramework


@pytest.fixture()
def fitted_parameters(small_dataset, worker_pool, distance_model, collected_answers):
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    return model.parameters


def build_pair(small_dataset, worker_pool, distance_model, parameters=None):
    vectorized, reference = (
        cls(small_dataset.tasks, worker_pool.workers, distance_model, parameters)
        for cls in (AccOptAssigner, ReferenceAccOptAssigner)
    )
    return vectorized, reference


class TestBatchEquivalence:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_identical_on_fitted_parameters(
        self,
        small_dataset,
        worker_pool,
        distance_model,
        fitted_parameters,
        collected_answers,
        h,
    ):
        vectorized, reference = build_pair(
            small_dataset, worker_pool, distance_model, fitted_parameters
        )
        workers = worker_pool.worker_ids
        assert vectorized.assign(workers, h, collected_answers) == reference.assign(
            workers, h, collected_answers
        )

    def test_identical_on_default_priors_and_empty_log(
        self, small_dataset, worker_pool, distance_model
    ):
        vectorized, reference = build_pair(
            small_dataset, worker_pool, distance_model, ArrayParameterStore.empty()
        )
        workers = worker_pool.worker_ids
        assert vectorized.assign(workers, 2, AnswerSet()) == reference.assign(
            workers, 2, AnswerSet()
        )

    def test_identical_on_tied_gains_and_unsorted_workers(self, small_dataset):
        """Exactly tied gains (co-located workers on cold-start priors) must
        break identically in both engines regardless of the caller's
        available_workers order."""
        from repro.data.models import Worker
        from repro.spatial.distance import DistanceModel

        location = small_dataset.tasks[0].location
        workers = [
            Worker("w2", (location,)),
            Worker("w1", (location,)),
        ]
        tasks = small_dataset.tasks[:3]
        distance_model = DistanceModel(max_distance=small_dataset.max_distance)
        vectorized = AccOptAssigner(tasks, workers, distance_model, ArrayParameterStore.empty())
        reference = ReferenceAccOptAssigner(
            tasks, workers, distance_model, ArrayParameterStore.empty()
        )
        for order in (["w2", "w1"], ["w1", "w2"]):
            assert vectorized.assign(order, 2, AnswerSet()) == reference.assign(
                order, 2, AnswerSet()
            )

    def test_identical_across_tentative_rounds(
        self,
        small_dataset,
        worker_pool,
        distance_model,
        fitted_parameters,
        collected_answers,
    ):
        """Repeated batches over a growing answer log stay in lockstep."""
        vectorized, reference = build_pair(
            small_dataset, worker_pool, distance_model, fitted_parameters
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids[:4]
        for _ in range(3):
            assignment_v = vectorized.assign(workers, 2, answers)
            assignment_r = reference.assign(workers, 2, answers)
            assert assignment_v == assignment_r
            # Mark the assigned pairs as answered so the next round differs.
            from repro.data.models import Answer

            for worker_id, task_ids in assignment_v.items():
                for task_id in task_ids:
                    labels = small_dataset.task_index[task_id].num_labels
                    answers.add(Answer(worker_id, task_id, tuple([1] * labels)))


class TestStoreFeed:
    def test_store_feed_assigns_like_model_feed(
        self, small_dataset, worker_pool, distance_model, collected_answers,
        parameter_feed,
    ):
        """A snapshot's frozen store and the oracle's id-keyed copy of it are
        one estimate: AccOpt fed either one scores from identical arrays and
        assigns identically."""
        pairs = parameter_feed.fed_pairs(
            lambda: AccOptAssigner(
                small_dataset.tasks, worker_pool.workers, distance_model
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


class TestCampaignEquivalence:
    def test_seeded_campaign_is_identical_end_to_end(
        self, small_dataset, worker_pool, distance_model
    ):
        """A full seeded campaign (assignment → simulated answers → inference →
        assignment ...) produces the identical answer log and accuracy under
        both engines."""
        from repro.crowd.answer_model import AnswerSimulator
        from repro.crowd.arrival import UniformRandomArrival
        from repro.crowd.budget import Budget
        from repro.crowd.platform import CrowdPlatform

        def run(assigner_cls):
            platform = CrowdPlatform(
                dataset=small_dataset,
                worker_pool=worker_pool,
                budget=Budget(total=60),
                distance_model=distance_model,
                answer_simulator=AnswerSimulator(distance_model, noise=0.05),
                arrival_process=UniformRandomArrival(worker_pool, batch_size=3, seed=7),
                seed=7,
            )
            config = FrameworkConfig(
                budget=60,
                tasks_per_worker=2,
                workers_per_round=3,
                evaluation_checkpoints=(20, 40, 60),
                full_refresh_interval=30,
                inference=InferenceConfig(max_iterations=25),
            )
            inference = LocationAwareInference(
                small_dataset.tasks,
                worker_pool.workers,
                distance_model,
                config=config.inference,
            )
            assigner = assigner_cls(
                small_dataset.tasks, worker_pool.workers, distance_model
            )
            framework = PoiLabellingFramework(
                platform, inference, assigner, config=config
            )
            result = framework.run()
            log = sorted(
                (a.worker_id, a.task_id, a.responses) for a in platform.answers
            )
            return result, log

        result_v, log_v = run(AccOptAssigner)
        result_r, log_r = run(ReferenceAccOptAssigner)
        assert log_v == log_r
        assert result_v.assignments_spent == result_r.assignments_spent
        assert result_v.final_accuracy == pytest.approx(result_r.final_accuracy)


#: Assigner options per engine; the sparse engine at a radius that covers the
#: test universe, as in ``tests/test_sparse_kernels.py``.
ENGINE_OPTIONS = {
    "vectorized": {},
    "sparse": {"engine": "sparse", "candidate_radius": 50.0},
}


@pytest.fixture(params=sorted(ENGINE_OPTIONS))
def engine_options(request):
    return ENGINE_OPTIONS[request.param]


class TestStateAcrossRequests:
    """One assigner serves many requests: its ``|W(t)|`` counts advance from
    the log's new pairs and its Equation 15 baseline is built once per
    parameter version, yet every request assigns as the scalar oracle does
    from scratch."""

    @staticmethod
    def build(tasks, worker_pool, distance_model, parameters, engine_options):
        return (
            AccOptAssigner(
                tasks, worker_pool.workers, distance_model, parameters, **engine_options
            ),
            ReferenceAccOptAssigner(
                tasks, worker_pool.workers, distance_model, parameters
            ),
        )

    @staticmethod
    def check(assigner, reference, workers, answers):
        for h in (1, 2):
            assert assigner.assign(workers, h, answers) == reference.assign(
                workers, h, answers
            )
        counts = assigner._answer_counts(answers)
        expected = [answers.answer_count_of_task(t) for t in assigner._task_ids]
        np.testing.assert_array_equal(counts, expected)

    @staticmethod
    def answer_assignment(answers, assignment, tasks_by_id, value=1):
        for worker_id, task_ids in assignment.items():
            for task_id in task_ids:
                labels = tasks_by_id[task_id].num_labels
                answers.add(Answer(worker_id, task_id, tuple([value] * labels)))

    def test_alternating_answer_sets(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = self.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        first = collected_answers.copy()
        second = AnswerSet(list(collected_answers)[::2])
        workers = worker_pool.worker_ids
        for answers in (first, second, first, second, first):
            self.check(assigner, reference, workers, answers)
            # Both logs grow while the other one is being served.
            assignment = assigner.assign(workers[:2], 1, answers)
            self.answer_assignment(answers, assignment, small_dataset.task_index)

    def test_answers_and_re_answers_between_requests(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = self.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids
        self.check(assigner, reference, workers, answers)
        for round_index in range(4):
            assignment = assigner.assign(workers[round_index : round_index + 3], 2, answers)
            self.answer_assignment(answers, assignment, small_dataset.task_index)
            # A re-answer replaces the pair's answer and leaves |W(t)| alone.
            earlier = list(answers)[round_index]
            pairs = len(answers)
            answers.add(
                Answer(
                    earlier.worker_id,
                    earlier.task_id,
                    tuple(1 - r for r in earlier.responses),
                )
            )
            assert len(answers) == pairs
            self.check(assigner, reference, workers, answers)

    def test_task_added_after_counting_with_answers_in_the_log(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        *early, late = small_dataset.tasks
        assigner, reference = self.build(
            early, worker_pool, distance_model, fitted_parameters, engine_options
        )
        answers = collected_answers.copy()
        assert answers.answer_count_of_task(late.task_id) > 0
        workers = worker_pool.worker_ids
        self.check(assigner, reference, workers, answers)
        assert assigner.add_task(late) and reference.add_task(late)
        newcomer = next(
            w for w in workers if w not in answers.workers_of_task(late.task_id)
        )
        answers.add(Answer(newcomer, late.task_id, tuple(late.truth)))
        self.check(assigner, reference, workers, answers)

    def test_parameter_updates_between_requests(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = self.build(
            small_dataset.tasks, worker_pool, distance_model, ArrayParameterStore.empty(),
            engine_options,
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids
        self.check(assigner, reference, workers, answers)
        for parameters in (fitted_parameters, ArrayParameterStore.empty(), fitted_parameters):
            assigner.update_parameters(parameters)
            reference.update_parameters(parameters)
            self.check(assigner, reference, workers, answers)
            assignment = assigner.assign(workers[:3], 2, answers)
            self.answer_assignment(answers, assignment, small_dataset.task_index, 0)
            self.check(assigner, reference, workers, answers)

    def test_growing_log_is_counted_once(
        self, monkeypatch, small_dataset, worker_pool, distance_model,
        fitted_parameters, collected_answers, engine_options,
    ):
        """After the first request on a log, later requests on the same
        growing log read only its new pairs, never ``answer_count_of_task``."""
        assigner = AccOptAssigner(
            small_dataset.tasks, worker_pool.workers, distance_model,
            fitted_parameters, **engine_options,
        )
        answers = collected_answers.copy()
        calls = []
        count_of_task = AnswerSet.answer_count_of_task

        def counted(self, task_id):
            calls.append(task_id)
            return count_of_task(self, task_id)

        monkeypatch.setattr(AnswerSet, "answer_count_of_task", counted)
        workers = worker_pool.worker_ids
        self.answer_assignment(
            answers, assigner.assign(workers[:3], 2, answers), small_dataset.task_index
        )
        assert len(calls) == len(small_dataset.tasks)
        calls.clear()
        for round_index in range(4):
            assignment = assigner.assign(workers[round_index:], 2, answers)
            self.answer_assignment(answers, assignment, small_dataset.task_index)
        assert calls == []


class TestGreedyPassLeavesNoTrace:
    """A request's greedy pass borrows the assigner's ``|W(t)|`` counts and
    the version's Equation 15 baseline; afterwards both are bit-equal to
    what they were, an exception in mid-pass included."""

    FIELDS = ("p_z1", "acc_correct", "acc_incorrect", "expected_sum")

    @classmethod
    def snapshot(cls, assigner, answers):
        counts = assigner._answer_counts(answers)
        baseline, _ = assigner._aligned_parameters()
        return counts.tobytes(), [getattr(baseline, f).tobytes() for f in cls.FIELDS]

    def test_requests_of_every_shape(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = TestStateAcrossRequests.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        workers = worker_pool.worker_ids
        before = self.snapshot(assigner, collected_answers)
        for available in (workers[:1], workers[:3], workers):
            for h in (1, 2, 3, len(small_dataset.tasks)):
                assert assigner.assign(available, h, collected_answers) == (
                    reference.assign(available, h, collected_answers)
                )
                assert self.snapshot(assigner, collected_answers) == before

    def test_exception_in_mid_pass(
        self, monkeypatch, small_dataset, worker_pool, distance_model,
        fitted_parameters, collected_answers, engine_options,
    ):
        assigner, reference = TestStateAcrossRequests.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        workers = worker_pool.worker_ids
        before = self.snapshot(assigner, collected_answers)
        commit = accuracy_kernel.add_worker
        commits = []

        def failing(state, task_index, accuracy):
            commit(state, task_index, accuracy)
            commits.append(task_index)
            if len(commits) == 3:
                raise RuntimeError("mid-pass")

        monkeypatch.setattr(accuracy_kernel, "add_worker", failing)
        with pytest.raises(RuntimeError):
            assigner.assign(workers, 2, collected_answers)
        monkeypatch.setattr(accuracy_kernel, "add_worker", commit)
        assert self.snapshot(assigner, collected_answers) == before
        assert assigner.assign(workers, 2, collected_answers) == reference.assign(
            workers, 2, collected_answers
        )


class TestPerWorkerArrays:
    """Each worker's answered-task columns advance from the worker's new pairs
    and its distance row is cached (dense) or recomputed (sparse) from the
    kept task coordinates; one-worker requests — the serving frontend's
    pattern — still assign as the scalar oracle does from scratch."""

    @staticmethod
    def serve(assigner, reference, answers, worker_ids, h=2):
        """One request per worker: the same HIT from both sides, and columns
        that name exactly the tasks the oracle rules out."""
        for worker_id in worker_ids:
            got = assigner.assign([worker_id], h, answers)
            assert got == reference.assign([worker_id], h, answers)
            columns = assigner.answered_columns(worker_id, answers)
            names = [assigner.task_order[j] for j in columns.tolist()]
            assert len(set(names)) == len(names)
            assert set(names) == set(reference.task_order) - set(
                reference._candidate_tasks(worker_id, answers)
            )
            row = assigner.distance_row(worker_id)
            assert row.shape == (len(assigner.task_order),)
            yield worker_id, got[worker_id]

    @staticmethod
    def answer(answers, worker_id, task_ids, tasks_by_id, value=1):
        for task_id in task_ids:
            labels = tasks_by_id[task_id].num_labels
            answers.add(Answer(worker_id, task_id, tuple([value] * labels)))

    def test_growing_log_with_re_answers_between_requests(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = TestStateAcrossRequests.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        answers = collected_answers.copy()
        tasks_by_id = small_dataset.task_index
        workers = worker_pool.worker_ids
        for round_index in range(4):
            order = workers[round_index:] + workers[:round_index]
            for worker_id, hit in self.serve(assigner, reference, answers, order):
                self.answer(answers, worker_id, hit, tasks_by_id, round_index % 2)
                # Re-answers add no pair: the next request reads none of them.
                earlier = answers.worker_tasks_since(worker_id, 0)[0]
                self.answer(answers, worker_id, [earlier], tasks_by_id, 0)

    def test_second_answer_set_object(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = TestStateAcrossRequests.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        first = collected_answers.copy()
        workers = worker_pool.worker_ids
        list(self.serve(assigner, reference, first, workers))
        # Equal pairs in a new object, then fewer: each is read afresh.
        for second in (first.copy(), AnswerSet(list(first)[1::3]), first):
            list(self.serve(assigner, reference, second, workers))

    def test_task_added_after_row_and_columns_are_cached(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        """A worker who answered a task before it joined the assigner never
        gets it: the join recounts the worker's columns."""
        *early, late = small_dataset.tasks
        assigner, reference = TestStateAcrossRequests.build(
            early, worker_pool, distance_model, fitted_parameters, engine_options
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids
        veteran = next(iter(answers.workers_of_task(late.task_id)))
        list(self.serve(assigner, reference, answers, workers))
        assert late.task_id not in assigner.task_order
        assert assigner.add_task(late) and reference.add_task(late)
        # h covers the universe: a late column left unmasked would be assigned.
        h = len(assigner.task_order)
        for worker_id, hit in self.serve(assigner, reference, answers, workers, h):
            if worker_id == veteran:
                assert late.task_id not in hit
        assert assigner.distance_row(veteran).size == len(small_dataset.tasks)

    def test_two_location_workers(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        from repro.data.models import Worker
        from repro.spatial.geometry import GeoPoint

        far = small_dataset.tasks[-1].location
        workers = [
            Worker(w.worker_id, (w.locations[0], GeoPoint(far.x + 0.01, far.y)))
            for w in worker_pool.workers
        ]
        assigner = AccOptAssigner(
            small_dataset.tasks, workers, distance_model, fitted_parameters,
            **engine_options,
        )
        reference = ReferenceAccOptAssigner(
            small_dataset.tasks, workers, distance_model, fitted_parameters
        )
        answers = collected_answers.copy()
        for worker_id, hit in self.serve(
            assigner, reference, answers, [w.worker_id for w in workers]
        ):
            self.answer(answers, worker_id, hit, small_dataset.task_index)
        for worker in workers:
            expected = [
                distance_model.worker_task_distance(worker.locations, task.location)
                for task in (assigner.tasks[t] for t in assigner.task_order)
            ]
            np.testing.assert_allclose(
                assigner.distance_row(worker.worker_id), expected, rtol=1e-12
            )

    @pytest.mark.parametrize("metric", ["euclidean", "haversine"])
    def test_first_rows_match_the_oracle_matrix_bit_for_bit(
        self, small_dataset, fitted_parameters, engine_options, metric
    ):
        """Workers of 1, 2 and 3 locations: the row a first request reads,
        and the row after tasks arrive (extended from the tail when cached),
        equal the oracle matrix's row over the assigner's task order."""
        rng = np.random.default_rng(17)
        tasks = small_dataset.tasks
        xs = [t.location.x for t in tasks]
        ys = [t.location.y for t in tasks]
        model = DistanceModel.from_pois([t.location for t in tasks], metric=metric)
        workers = [
            Worker(
                f"w{i}",
                tuple(
                    GeoPoint(
                        float(rng.uniform(min(xs), max(xs))),
                        float(rng.uniform(min(ys), max(ys))),
                    )
                    for _ in range(1 + i % 3)
                ),
            )
            for i in range(9)
        ]
        *early, late = tasks
        assigner = AccOptAssigner(
            early, workers, model, fitted_parameters, **engine_options
        )

        def check():
            locations = [assigner.tasks[t].location for t in assigner.task_order]
            for worker in workers:
                want = normalised_distance_matrix([worker.locations], locations, model)[0]
                assert assigner.distance_row(worker.worker_id).tobytes() == want.tobytes()

        answers = AnswerSet()
        for worker in workers:
            assigner.assign([worker.worker_id], 2, answers)
        check()
        for task in (late, TestTaskArrivalKeepsState.late_task(tasks[3], 1)):
            assert assigner.add_task(task)
            check()

    def test_worker_with_no_answers(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        from repro.data.models import Worker

        newcomer = Worker("newcomer", worker_pool.workers[0].locations)
        assigner, reference = TestStateAcrossRequests.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        assert assigner.add_worker(newcomer) and reference.add_worker(newcomer)
        answers = collected_answers.copy()
        assert answers.answer_count_of_worker("newcomer") == 0
        (_, hit), = self.serve(assigner, reference, answers, ["newcomer"])
        assert assigner.answered_columns("newcomer", answers).size == 0
        self.answer(answers, "newcomer", hit, small_dataset.task_index)
        list(self.serve(assigner, reference, answers, ["newcomer"]))
        assert assigner.answered_columns("newcomer", answers).size == len(hit)


class TestTaskArrivalKeepsState:
    """A task posted after startup extends ``|W(t)|``, the label layout and
    the estimate's alignment instead of dropping them; request/arrival
    sequences still assign as the scalar oracle does from scratch."""

    build = staticmethod(TestStateAcrossRequests.build)
    check = staticmethod(TestStateAcrossRequests.check)
    answer_assignment = staticmethod(TestStateAcrossRequests.answer_assignment)

    @staticmethod
    def late_task(template, k):
        return Task(
            task_id=f"posted-{k}",
            poi=POI(poi_id=f"posted-poi-{k}", name="posted", location=template.location),
            labels=("a", "b", "c")[: 1 + k % 3],
            truth=(1, 0, 1)[: 1 + k % 3],
        )

    def test_arrivals_between_requests(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = self.build(
            small_dataset.tasks, worker_pool, distance_model, fitted_parameters,
            engine_options,
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids
        self.check(assigner, reference, workers, answers)
        tasks_by_id = dict(small_dataset.task_index)
        for k in range(4):
            task = self.late_task(small_dataset.tasks[k], k)
            tasks_by_id[task.task_id] = task
            # Answered before it joined: some pairs before the last count...
            if k % 2:
                answers.add(Answer(workers[k], task.task_id, tuple(task.truth)))
                self.check(assigner, reference, workers, answers)
            # ...and some after it, not yet counted.
            answers.add(Answer(workers[k + 1], task.task_id, tuple(task.truth)))
            assert assigner.add_task(task) and reference.add_task(task)
            # The estimate lacks the task: every task-side structure is kept.
            assert assigner._counts is not None
            assert assigner._task_layout is not None
            assert assigner._alignment is not None
            self.check(assigner, reference, workers, answers)
            assignment = assigner.assign(workers[k : k + 3], 2, answers)
            self.answer_assignment(answers, assignment, tasks_by_id)
            self.check(assigner, reference, workers, answers)

    def test_arrival_the_estimate_already_holds(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        *early, late = small_dataset.tasks
        assert fitted_parameters.has_task(late.task_id)
        assigner, reference = self.build(
            early, worker_pool, distance_model, fitted_parameters, engine_options
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids
        self.check(assigner, reference, workers, answers)
        assert assigner.add_task(late) and reference.add_task(late)
        # The alignment must now map the estimate's row of the new task.
        assert assigner._alignment is None
        assert assigner._counts is not None
        self.check(assigner, reference, workers, answers)
        _, aligned = assigner._aligned_parameters()
        column = assigner.task_order.index(late.task_id)
        assert aligned.index_of_task(late.task_id) == column
        expected = fitted_parameters.task(late.task_id).influence_weights
        np.testing.assert_array_equal(aligned.influence_weights[column], expected)

    def test_arrivals_across_parameter_versions(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        assigner, reference = self.build(
            small_dataset.tasks, worker_pool, distance_model,
            ArrayParameterStore.empty(), engine_options,
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids
        tasks_by_id = dict(small_dataset.task_index)
        for k, parameters in enumerate((fitted_parameters, fitted_parameters.copy())):
            self.check(assigner, reference, workers, answers)
            task = self.late_task(small_dataset.tasks[k], k)
            tasks_by_id[task.task_id] = task
            assert assigner.add_task(task) and reference.add_task(task)
            assigner.update_parameters(parameters)
            reference.update_parameters(parameters)
            self.check(assigner, reference, workers, answers)
            assignment = assigner.assign(workers[:3], 1, answers)
            self.answer_assignment(answers, assignment, tasks_by_id)
            self.check(assigner, reference, workers, answers)

    def test_arrivals_keep_the_answered_columns(
        self, small_dataset, worker_pool, distance_model, fitted_parameters,
        collected_answers, engine_options,
    ):
        """A task posted after the columns were read extends only the kept
        columns of the workers who answered it before; every column set
        equals a fresh assigner's over the grown universe."""
        *early, late_a, late_b = small_dataset.tasks
        assigner = AccOptAssigner(
            early, worker_pool.workers, distance_model, fitted_parameters,
            **engine_options,
        )
        answers = collected_answers.copy()
        workers = worker_pool.worker_ids
        for worker_id in workers:
            assigner.answered_columns(worker_id, answers)
        # late_b gains a pair after the columns were read, before it is posted.
        newcomer = next(
            w for w in workers if w not in answers.workers_of_task(late_b.task_id)
        )
        answers.add(Answer(newcomer, late_b.task_id, tuple(late_b.truth)))
        for task in (late_a, late_b):
            answered = answers.workers_of_task(task.task_id)
            assert answered
            kept = dict(assigner._answered)
            assert assigner.add_task(task)
            assert set(assigner._answered) == set(kept)
            for worker_id in set(kept) - answered:
                assert assigner._answered[worker_id] is kept[worker_id]
        # ...and one after both are posted.
        later = next(w for w in workers if w not in answers.workers_of_task(late_a.task_id))
        answers.add(Answer(later, late_a.task_id, tuple(late_a.truth)))
        fresh = AccOptAssigner(
            small_dataset.tasks, worker_pool.workers, distance_model,
            fitted_parameters, **engine_options,
        )
        for worker_id in workers:
            got, want = (
                [side.task_order[j] for j in side.answered_columns(worker_id, answers)]
                for side in (assigner, fresh)
            )
            assert len(set(got)) == len(got)
            assert set(got) == set(want) == set(answers.tasks_of_worker(worker_id))
