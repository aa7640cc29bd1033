"""Open-world substrate tests: growable stores, incremental tensor, arrival.

Covers the PR-4 invariants:

* ``ArrayParameterStore`` growth — append then ``freeze``/``copy``/``.npz``
  round-trips equal a from-scratch build over the grown universe;
* the incrementally maintained ``AnswerTensor`` — a prefix build plus batched
  appends matches a full rebuild, re-answers update rows in place, and the
  live updater tensor stays equal to a rebuild after many micro-batches;
* the incremental updater with mid-stream worker/task arrival matches the
  per-record oracle (``tests/oracles/``) to <= 1e-9;
* open-world serving: first-sight registration through event payloads, the
  holdback serve-sim acceptance (>= 20% open-world answers with the final
  snapshot matching an offline fit on the full universe to <= 1e-6);
* multiprocessing sweeps: ``jobs > 1`` reproduces the serial results.
"""

import numpy as np
import pytest

from oracles import (
    ReferenceAccOptAssigner,
    ReferenceIncrementalUpdater,
    ReferenceInference,
)
from repro.assign.accopt import AccOptAssigner
from repro.core.em_kernel import AnswerTensor
from repro.core.incremental import IncrementalUpdater
from repro.core.inference import LocationAwareInference
from oracles.params import ModelParameters, model_from_store
from repro.core.params import ArrayParameterStore
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.arrival import UniformRandomArrival
from repro.crowd.budget import Budget
from repro.crowd.platform import CrowdPlatform
from repro.data.models import POI, Answer, AnswerSet, Task, Worker
from repro.serving import (
    AnswerEvent,
    AnswerIngestor,
    IngestConfig,
    OnlineServingService,
    ServingConfig,
    SnapshotStore,
)
from repro.spatial.geometry import GeoPoint


def make_params():
    params = ModelParameters()
    params.workers["w1"] = params.worker("w1")  # footnote-3 prior
    params.tasks["t1"] = params.task("t1", num_labels=2)
    params.tasks["t2"] = params.task("t2", num_labels=3)
    return params


def assert_stores_equal(a: ArrayParameterStore, b: ArrayParameterStore):
    assert a.worker_ids == b.worker_ids
    assert a.task_ids == b.task_ids
    np.testing.assert_array_equal(a.label_offsets, b.label_offsets)
    np.testing.assert_array_equal(a.p_qualified, b.p_qualified)
    np.testing.assert_array_equal(a.distance_weights, b.distance_weights)
    np.testing.assert_array_equal(a.influence_weights, b.influence_weights)
    np.testing.assert_array_equal(a.label_probs, b.label_probs)


class TestGrowableStore:
    def test_append_matches_from_scratch_build(self):
        params = make_params()
        grown = params.to_array_store(["w1"], ["t1", "t2"], [2, 3])
        grown.add_worker("w2")
        grown.add_task("t3", 4)
        scratch = params.to_array_store(
            ["w1", "w2"], ["t1", "t2", "t3"], [2, 3, 4]
        )
        assert_stores_equal(grown, scratch)

    def test_npz_round_trip_after_appends(self, tmp_path):
        params = make_params()
        grown = params.to_array_store(["w1"], ["t1"], [2])
        for index in range(10):  # force several capacity doublings
            grown.add_worker(f"new-w{index}", p_qualified=0.5 + 0.01 * index)
            grown.add_task(f"new-t{index}", 1 + index % 3)
        path = grown.save_npz(tmp_path / "grown.npz")
        restored = ArrayParameterStore.load_npz(path)
        assert_stores_equal(grown, restored)

    def test_copy_after_appends_is_compact_and_independent(self):
        grown = make_params().to_array_store(["w1"], ["t1"], [2])
        grown.add_worker("w2", p_qualified=0.25)
        clone = grown.copy()
        assert_stores_equal(grown, clone)
        clone.p_qualified[1] = 0.75
        assert grown.p_qualified[1] == pytest.approx(0.25)

    def test_freeze_blocks_writes_and_growth(self):
        store = make_params().to_array_store(["w1"], ["t1"], [2])
        store.freeze()
        with pytest.raises((ValueError, RuntimeError)):
            store.p_qualified[0] = 0.0
        with pytest.raises(ValueError):
            store.add_worker("w2")
        with pytest.raises(ValueError):
            store.add_task("t9", 2)
        # A copy thaws: the fresh buffers are writable and growable again.
        clone = store.copy()
        clone.add_worker("w2")
        assert clone.has_worker("w2")

    def test_duplicate_ids_rejected(self):
        store = make_params().to_array_store(["w1"], ["t1"], [2])
        with pytest.raises(ValueError):
            store.add_worker("w1")
        with pytest.raises(ValueError):
            store.add_task("t1", 2)

    def test_index_lookups_cover_appended_entities(self):
        store = make_params().to_array_store(["w1"], ["t1"], [2])
        assert store.add_worker("w2") == 1
        assert store.add_task("t2", 3) == 1
        assert store.index_of_worker("w2") == 1
        assert store.index_of_task("t2") == 1
        assert store.has_worker("w2") and store.has_task("t2")
        np.testing.assert_array_equal(store.label_offsets, [0, 2, 5])


def assert_tensors_equal(a: AnswerTensor, b: AnswerTensor, atol=1e-12):
    assert a.worker_ids == b.worker_ids
    assert a.task_ids == b.task_ids
    np.testing.assert_array_equal(a.num_labels, b.num_labels)
    np.testing.assert_array_equal(a.label_offsets, b.label_offsets)
    np.testing.assert_array_equal(a.a_worker, b.a_worker)
    np.testing.assert_array_equal(a.a_task, b.a_task)
    np.testing.assert_allclose(a.distances, b.distances, rtol=0, atol=atol)
    np.testing.assert_allclose(a.f_values, b.f_values, rtol=0, atol=atol)
    np.testing.assert_array_equal(a.r_answer, b.r_answer)
    np.testing.assert_array_equal(a.r_worker, b.r_worker)
    np.testing.assert_array_equal(a.r_task, b.r_task)
    np.testing.assert_array_equal(a.r_label, b.r_label)
    np.testing.assert_array_equal(a.responses, b.responses)
    np.testing.assert_array_equal(a.task_of_label, b.task_of_label)
    np.testing.assert_array_equal(a.a_label_start, b.a_label_start)


class TestIncrementalTensor:
    def _build(self, inference, answers):
        return AnswerTensor.build(
            answers,
            inference._tasks,
            inference._workers,
            inference.distance_model,
            inference.config.function_set,
        )

    def test_appends_match_full_rebuild(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        all_answers = list(collected_answers)
        prefix, rest = all_answers[:10], all_answers[10:]
        live = self._build(inference, AnswerSet(prefix))
        live.enable_row_tracking()
        for start in range(0, len(rest), 7):  # uneven micro-batches
            live.append_answers(
                rest[start : start + 7],
                inference._tasks,
                inference._workers,
                distance_model,
                inference.config.function_set,
            )
        rebuilt = self._build(inference, AnswerSet(all_answers))
        assert_tensors_equal(live, rebuilt)

    def test_row_tracking_extends_in_place(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        all_answers = list(collected_answers)
        live = self._build(inference, AnswerSet(all_answers[:5]))
        live.enable_row_tracking()
        result = live.append_answers(
            all_answers[5:9],
            inference._tasks,
            inference._workers,
            distance_model,
            inference.config.function_set,
        )
        np.testing.assert_array_equal(result.rows, [5, 6, 7, 8])
        for row in result.rows:
            widx = int(live.a_worker[row])
            tidx = int(live.a_task[row])
            assert int(row) in live.rows_of_worker(widx)
            assert int(row) in live.rows_of_task(tidx)

    def test_reanswer_updates_row_in_place(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        all_answers = list(collected_answers)
        live = self._build(inference, AnswerSet(all_answers))
        live.enable_row_tracking()
        original = all_answers[0]
        flipped = Answer(
            worker_id=original.worker_id,
            task_id=original.task_id,
            responses=tuple(1 - r for r in original.responses),
        )
        before_rows = live.num_answers
        result = live.append_answers(
            [flipped],
            inference._tasks,
            inference._workers,
            distance_model,
            inference.config.function_set,
        )
        assert live.num_answers == before_rows  # replaced, not appended
        row = int(result.rows[0])
        start = int(live.a_label_start[row])
        np.testing.assert_array_equal(
            live.responses[start : start + flipped.num_labels],
            np.asarray(flipped.responses, dtype=float),
        )

    def test_same_batch_resubmission_collapses_onto_one_row(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        all_answers = list(collected_answers)
        live = self._build(inference, AnswerSet(all_answers[:5]))
        live.enable_row_tracking()
        fresh = all_answers[5]
        resubmitted = Answer(
            worker_id=fresh.worker_id,
            task_id=fresh.task_id,
            responses=tuple(1 - r for r in fresh.responses),
        )
        result = live.append_answers(
            [fresh, resubmitted],  # same new pair twice within one batch
            inference._tasks,
            inference._workers,
            distance_model,
            inference.config.function_set,
        )
        assert live.num_answers == 6  # one row, not two
        assert result.rows[0] == result.rows[1] == 5
        # Last answer wins, mirroring AnswerSet.add.
        answers = AnswerSet(all_answers[:5])
        answers.add(resubmitted)
        rebuilt = self._build(inference, answers)
        assert_tensors_equal(live, rebuilt)

    def test_unseen_entities_register_on_first_sight(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        new_worker = Worker("late-worker", (GeoPoint(39.95, 116.35),))
        inference.add_worker(new_worker)
        live = self._build(inference, collected_answers)
        live.enable_row_tracking()
        task = small_dataset.tasks[0]
        answer = Answer("late-worker", task.task_id, tuple([1] * task.num_labels))
        result = live.append_answers(
            [answer],
            inference._tasks,
            inference._workers,
            distance_model,
            inference.config.function_set,
        )
        assert result.new_worker_ids == ("late-worker",)
        assert live.worker_ids[-1] == "late-worker"
        assert live.rows_of_worker(live.worker_row("late-worker")) == [
            live.num_answers - 1
        ]


def assert_parameters_close(a: ArrayParameterStore, b: ArrayParameterStore, atol=1e-9):
    a, b = model_from_store(a), model_from_store(b)
    assert set(a.workers) == set(b.workers)
    assert set(a.tasks) == set(b.tasks)
    for worker_id, worker in a.workers.items():
        other = b.workers[worker_id]
        np.testing.assert_allclose(worker.p_qualified, other.p_qualified, atol=atol)
        np.testing.assert_allclose(
            worker.distance_weights, other.distance_weights, atol=atol
        )
    for task_id, task in a.tasks.items():
        other = b.tasks[task_id]
        np.testing.assert_allclose(task.label_probs, other.label_probs, atol=atol)
        np.testing.assert_allclose(
            task.influence_weights, other.influence_weights, atol=atol
        )


class TestOpenWorldUpdater:
    def _new_entities(self, small_dataset):
        new_worker = Worker("joined-w", (GeoPoint(39.93, 116.41),))
        base = small_dataset.tasks[0]
        new_task = Task(
            task_id="joined-t",
            poi=POI(
                poi_id="joined-poi",
                name="Joined POI",
                location=GeoPoint(39.97, 116.38),
            ),
            labels=("a", "b", "c"),
            truth=(1, 0, 1),
        )
        assert base.task_id != new_task.task_id
        return new_worker, new_task

    def test_engines_agree_with_midstream_arrival(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        new_worker, new_task = self._new_entities(small_dataset)
        known_worker = worker_pool.worker_ids[0]
        known_task = small_dataset.tasks[1]
        new_answers = [
            Answer("joined-w", known_task.task_id, (1,) * known_task.num_labels),
            Answer(known_worker, "joined-t", (1, 0, 1)),
            Answer("joined-w", "joined-t", (1, 1, 0)),
        ]

        seed_model = ReferenceInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        seed_params = seed_model.run_em(collected_answers).store

        updated = {}
        for engine, updater_cls in (
            ("reference", ReferenceIncrementalUpdater),
            ("vectorized", IncrementalUpdater),
        ):
            model = LocationAwareInference(
                small_dataset.tasks, worker_pool.workers, distance_model
            )
            model.add_worker(new_worker)
            model.add_task(new_task)
            model._parameters = seed_params.copy()
            model._fitted = True
            updater = updater_cls(model, local_iterations=2)
            grown = collected_answers.copy()
            for answer in new_answers:
                grown.add(answer)
            updated[engine] = updater.apply(grown, new_answers)

        assert updated["vectorized"].has_worker("joined-w")
        assert updated["vectorized"].has_task("joined-t")
        assert_parameters_close(updated["reference"], updated["vectorized"])

    def test_live_tensor_tracks_many_micro_batches(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        updater = IncrementalUpdater(model, full_refresh_interval=1000)
        simulator = AnswerSimulator(distance_model, noise=0.0)
        answers = collected_answers.copy()
        batch = []
        for profile in worker_pool:
            for task in small_dataset.tasks:
                if answers.get(profile.worker_id, task.task_id) is None:
                    batch.append(simulator.sample_answer(profile, task, seed=5))
                    break
        for start in range(0, len(batch), 2):
            chunk = batch[start : start + 2]
            for answer in chunk:
                answers.add(answer)
            updater.apply(answers, chunk)
        rebuilt = AnswerTensor.build(
            answers,
            model._tasks,
            model._workers,
            distance_model,
            model.config.function_set,
        )
        assert_tensors_equal(updater.live_tensor, rebuilt)
        # The live store covers exactly the tensor universe, row-aligned.
        assert updater.live_store.worker_ids == updater.live_tensor.worker_ids
        assert updater.live_store.task_ids == updater.live_tensor.task_ids


class TestOpenWorldIngest:
    def _ingestor(self, small_dataset, worker_pool, distance_model):
        startup_tasks = small_dataset.tasks[:8]
        startup_workers = worker_pool.workers[:5]
        inference = LocationAwareInference(
            startup_tasks, startup_workers, distance_model
        )
        snapshots = SnapshotStore(max_snapshots=32)
        config = IngestConfig(
            max_batch_answers=4, max_batch_delay=100.0, full_refresh_interval=1000
        )
        return AnswerIngestor(inference, snapshots, config=config), snapshots

    def test_first_sight_registration_grows_snapshots(
        self, small_dataset, worker_pool, distance_model
    ):
        ingest, snapshots = self._ingestor(small_dataset, worker_pool, distance_model)
        simulator = AnswerSimulator(distance_model, noise=0.0)
        held_workers = worker_pool.workers[5:]
        held_tasks = small_dataset.tasks[8:]
        events = []
        index = 0
        # Every worker answers a rotating slice of three tasks so the stream
        # touches the whole universe, held-back entities included.
        for offset, profile in enumerate(worker_pool):
            for step in range(3):
                task = small_dataset.tasks[(offset * 3 + step) % len(small_dataset.tasks)]
                events.append(
                    AnswerEvent(
                        simulator.sample_answer(profile, task, seed=100 + index),
                        time=0.1 * index,
                        worker=(
                            profile.worker
                            if profile.worker in held_workers
                            else None
                        ),
                        task=task if task in held_tasks else None,
                    )
                )
                index += 1
        universe_sizes = []
        for event in events:
            snapshot = ingest.submit(event)
            if snapshot is not None:
                universe_sizes.append(
                    (snapshot.store.num_workers, snapshot.store.num_tasks)
                )
        ingest.flush()
        assert ingest.stats.workers_registered > 0 or ingest.stats.tasks_registered > 0
        # The published entity universe only ever grows between versions.
        for earlier, later in zip(universe_sizes, universe_sizes[1:]):
            assert later[0] >= earlier[0]
            assert later[1] >= earlier[1]
        latest = snapshots.latest()
        assert latest.store.num_workers == 5 + ingest.stats.workers_registered
        assert latest.store.num_tasks == 8 + ingest.stats.tasks_registered

    def test_unknown_entity_without_payload_is_rejected(
        self, small_dataset, worker_pool, distance_model
    ):
        ingest, _ = self._ingestor(small_dataset, worker_pool, distance_model)
        stranger = Answer(
            "stranger", small_dataset.tasks[0].task_id,
            (1,) * small_dataset.tasks[0].num_labels,
        )
        ingest.submit(AnswerEvent(stranger, time=0.0))
        with pytest.raises(KeyError, match="stranger"):
            ingest.flush()


class TestOpenWorldService:
    def _platform(self, small_dataset, worker_pool, distance_model, budget=80):
        return CrowdPlatform(
            dataset=small_dataset,
            worker_pool=worker_pool,
            budget=Budget(total=budget),
            distance_model=distance_model,
            answer_simulator=AnswerSimulator(distance_model, noise=0.05),
            arrival_process=UniformRandomArrival(worker_pool, batch_size=3, seed=7),
            seed=7,
        )

    def test_holdback_stream_meets_open_world_acceptance(
        self, small_dataset, worker_pool, distance_model
    ):
        platform = self._platform(small_dataset, worker_pool, distance_model)
        config = ServingConfig(
            tasks_per_worker=2,
            ingest=IngestConfig(
                max_batch_answers=8, max_batch_delay=4.0, full_refresh_interval=40
            ),
            holdback_worker_fraction=0.4,
            holdback_task_fraction=0.25,
            tasks_released_per_round=2,
            final_refresh_warm_start=False,
            seed=13,
        )
        service = OnlineServingService(platform, config=config)
        report = service.run()

        assert report.workers_joined > 0
        assert report.tasks_joined > 0
        assert report.open_world_fraction >= 0.2
        assert report.answers_ingested == len(platform.answers)

        # The final snapshot (cold final refresh) matches an offline fit on
        # the full universe: open-world serving converges to the same
        # estimates the closed-world batch pipeline would produce.
        offline = LocationAwareInference(
            platform.dataset.tasks,
            platform.workers,
            platform.distance_model,
            config=config.inference,
        )
        offline.fit(platform.answers)
        snapshot_view = service.snapshots.latest().as_model()
        assert_parameters_close(
            offline.parameters, snapshot_view, atol=1e-6
        )

    def test_closed_world_default_is_unchanged(
        self, small_dataset, worker_pool, distance_model
    ):
        platform = self._platform(small_dataset, worker_pool, distance_model, budget=40)
        service = OnlineServingService(
            platform,
            config=ServingConfig(
                tasks_per_worker=2,
                ingest=IngestConfig(
                    max_batch_answers=8, max_batch_delay=4.0, full_refresh_interval=40
                ),
                seed=13,
            ),
        )
        report = service.run()
        assert report.workers_joined == 0
        assert report.tasks_joined == 0
        assert report.open_world_answers == 0


class TestDynamicAssigners:
    def test_accopt_engines_agree_after_growth(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        startup_tasks = small_dataset.tasks[:8]
        startup_workers = worker_pool.workers[:5]
        late_tasks = small_dataset.tasks[8:]
        late_workers = worker_pool.workers[5:]

        assignments = {}
        for engine, assigner_cls in (
            ("vectorized", AccOptAssigner),
            ("reference", ReferenceAccOptAssigner),
        ):
            assigner = assigner_cls(
                list(startup_tasks), list(startup_workers), distance_model
            )
            assigner.update_parameters(model.parameters)
            # Warm the distance cache on the startup universe, then grow.
            assigner.assign([startup_workers[0].worker_id], 1, collected_answers)
            for task in late_tasks:
                assert assigner.add_task(task)
            for worker in late_workers:
                assert assigner.add_worker(worker)
            available = [w.worker_id for w in worker_pool.workers[3:]]
            assignments[engine] = assigner.assign(available, 2, AnswerSet())
        assert assignments["vectorized"] == assignments["reference"]

    def test_new_tasks_are_assignable(
        self, small_dataset, worker_pool, distance_model
    ):
        startup_tasks = small_dataset.tasks[:2]
        assigner = AccOptAssigner(
            list(startup_tasks), worker_pool.workers, distance_model
        )
        worker_id = worker_pool.worker_ids[0]
        answers = AnswerSet()
        # Saturate the startup tasks for this worker, then grow the universe.
        for task in startup_tasks:
            answers.add(Answer(worker_id, task.task_id, (1,) * task.num_labels))
        late = small_dataset.tasks[2]
        assigner.add_task(late)
        assignment = assigner.assign([worker_id], 1, answers)
        assert assignment[worker_id] == [late.task_id]


class TestParallelSweeps:
    def test_inference_sweep_matches_serial(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        from repro.framework.experiment import (
            compare_inference_models,
            default_inference_factories,
        )

        factories = default_inference_factories(
            small_dataset, worker_pool, distance_model
        )
        budgets = [12, 18, 24]
        serial = compare_inference_models(
            small_dataset, collected_answers, budgets, factories, seed=3, jobs=1
        )
        parallel = compare_inference_models(
            small_dataset, collected_answers, budgets, factories, seed=3, jobs=2
        )
        assert serial.budgets == parallel.budgets
        for name in factories:
            assert serial.accuracy[name] == pytest.approx(parallel.accuracy[name])

    def test_assigner_sweep_matches_serial(self, small_dataset, worker_pool):
        from repro.framework.config import FrameworkConfig
        from repro.framework.experiment import compare_assigners

        config = FrameworkConfig(
            budget=24,
            tasks_per_worker=2,
            workers_per_round=3,
            evaluation_checkpoints=(12, 24),
        )
        serial = compare_assigners(
            small_dataset, config, worker_pool=worker_pool, seed=11, jobs=1
        )
        parallel = compare_assigners(
            small_dataset, config, worker_pool=worker_pool, seed=11, jobs=2
        )
        assert set(serial.accuracy) == set(parallel.accuracy)
        for name, series in serial.accuracy.items():
            assert series == pytest.approx(parallel.accuracy[name])
