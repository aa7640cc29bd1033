"""Log-free serving hot-path tests (PR 5).

Pins the O(changed) update-path invariants:

* **refresh equivalence** — a full refresh run straight off the incremental
  updater's live tensor (:meth:`IncrementalUpdater.full_refresh` →
  ``fit_from_tensor``) matches the classic ``AnswerSet``-reflattening
  :meth:`LocationAwareInference.fit` to <= 1e-9, warm and cold, including
  streams with mid-stream open-world arrivals;
* **zero flattens** — a micro-batched stream with periodic full refreshes
  through a log-free :class:`AnswerIngestor` performs no ``AnswerSet`` →
  tensor flatten at all (``stats.log_flattens == 0``) and keeps no answer
  log;
* **publishes** — published versions stay immutable under later publishes,
  and a restored snapshot's carried rows ride along on every publish, built
  once per change of the carried set;
* **per-entity early exit** — threshold 0 keeps the updater's sweeps
  bit-identical to the plain default, and in
  :func:`~repro.core.em_kernel.localized_sweeps` a saturating threshold
  degenerates to a single sweep;
* **bounded latency reservoir** — exact percentiles below the cap, bounded
  memory above it.
"""

import numpy as np
import pytest

from oracles.params import model_from_store
from repro.core import em_kernel
from repro.core.em_kernel import AnswerTensor
from repro.core.incremental import IncrementalUpdater
from repro.core.inference import LocationAwareInference
from repro.core.params import ArrayParameterStore
from repro.crowd.answer_model import AnswerSimulator
from repro.data.models import POI, Answer, AnswerSet, Task, Worker
from repro.serving.frontend import LatencyReservoir
from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig
from repro.serving.snapshots import SnapshotStore, load_snapshot
from repro.spatial.geometry import GeoPoint


def assert_parameters_close(a, b, atol=1e-9):
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


def assert_stores_equal(a: ArrayParameterStore, b: ArrayParameterStore):
    assert a.worker_ids == b.worker_ids
    assert a.task_ids == b.task_ids
    np.testing.assert_array_equal(a.label_offsets, b.label_offsets)
    np.testing.assert_array_equal(a.p_qualified, b.p_qualified)
    np.testing.assert_array_equal(a.distance_weights, b.distance_weights)
    np.testing.assert_array_equal(a.influence_weights, b.influence_weights)
    np.testing.assert_array_equal(a.label_probs, b.label_probs)


def stream_batches(small_dataset, worker_pool, distance_model, existing, count=12):
    """Fresh (worker, task) answers not present in ``existing``, in a list."""
    simulator = AnswerSimulator(distance_model, noise=0.0)
    batch = []
    index = 0
    for profile in worker_pool:
        for task in small_dataset.tasks:
            if existing.get(profile.worker_id, task.task_id) is None:
                batch.append(simulator.sample_answer(profile, task, seed=500 + index))
                index += 1
                if len(batch) >= count:
                    return batch
    return batch


def late_entities():
    worker = Worker("late-w", (GeoPoint(39.94, 116.39),))
    task = Task(
        task_id="late-t",
        poi=POI(poi_id="late-poi", name="Late POI", location=GeoPoint(39.96, 116.37)),
        labels=("a", "b", "c"),
        truth=(1, 0, 1),
    )
    return worker, task


class TestRefreshEquivalence:
    """Live-tensor full refresh == log-reflattening fit, <= 1e-9."""

    def _drive(self, model, collected_answers, batches):
        """Fit, stream ``batches`` through an updater, return (updater, log)."""
        model.fit(collected_answers)
        updater = IncrementalUpdater(model, full_refresh_interval=10_000)
        log = collected_answers.copy()
        for start in range(0, len(batches), 3):
            chunk = batches[start : start + 3]
            for answer in chunk:
                log.add(answer)
            updater.apply(log, chunk)
        return updater, log

    @pytest.mark.parametrize("warm", [True, False])
    def test_matches_log_reflatten_fit(
        self, small_dataset, worker_pool, distance_model, collected_answers, warm
    ):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        batches = stream_batches(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        updater, log = self._drive(model, collected_answers, batches)
        pre_refresh = model.parameters

        offline = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        offline.fit(log, initial=pre_refresh if warm else None)

        flattens_before_refresh = updater.tensor_rebuilds
        refreshed = updater.full_refresh([], warm=warm)
        assert_parameters_close(refreshed, offline.parameters)
        # The refresh itself never flattens (the one recorded flatten is the
        # updater joining the pre-existing corpus on its first apply).
        assert updater.tensor_rebuilds == flattens_before_refresh == 1
        # The adopted live store mirrors the refreshed estimate, row-aligned.
        assert updater.live_store.worker_ids == updater.live_tensor.worker_ids
        assert model.last_result.store is updater.live_store

    @pytest.mark.parametrize("warm", [True, False])
    def test_matches_with_midstream_arrivals(
        self, small_dataset, worker_pool, distance_model, collected_answers, warm
    ):
        new_worker, new_task = late_entities()
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        model.add_worker(new_worker)
        model.add_task(new_task)
        updater = IncrementalUpdater(model, full_refresh_interval=10_000)
        log = collected_answers.copy()
        known = small_dataset.tasks[0]
        arrivals = [
            Answer("late-w", known.task_id, (1,) * known.num_labels),
            Answer(worker_pool.worker_ids[0], "late-t", (1, 0, 1)),
            Answer("late-w", "late-t", (0, 1, 1)),
        ]
        for answer in arrivals:
            log.add(answer)
        updater.apply(log, arrivals)
        pre_refresh = model.parameters

        offline = LocationAwareInference(
            small_dataset.tasks + [new_task],
            worker_pool.workers + [new_worker],
            distance_model,
        )
        offline.fit(log, initial=pre_refresh if warm else None)

        refreshed = updater.full_refresh([], warm=warm)
        assert refreshed.has_worker("late-w") and refreshed.has_task("late-t")
        assert_parameters_close(refreshed, offline.parameters)

    def test_refresh_consumes_the_triggering_batch(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        """The batch handed to full_refresh lands in the tensor and the fit."""
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        updater = IncrementalUpdater(model)
        batch = stream_batches(
            small_dataset, worker_pool, distance_model, collected_answers, count=4
        )
        log = collected_answers.copy()
        for answer in batch:
            log.add(answer)
        pre_refresh = model.parameters

        offline = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        offline.fit(log, initial=pre_refresh)

        refreshed = updater.full_refresh(batch, answers=log, warm=True)
        assert updater.live_tensor.num_answers == len(log)
        assert_parameters_close(refreshed, offline.parameters)
        assert updater.answers_since_full_refresh == 0

    def test_refresh_without_log_or_stream_history_is_rejected(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        """A fitted model + no live tensor + no log would silently drop history."""
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        updater = IncrementalUpdater(model)
        batch = stream_batches(
            small_dataset, worker_pool, distance_model, collected_answers, count=2
        )
        with pytest.raises(RuntimeError, match="answer log"):
            updater.full_refresh(batch)
        # Priming (the snapshot-restore path) makes the log-less start legal.
        updater.prime_carryover(model.parameters)
        refreshed = updater.full_refresh(batch)
        assert set(refreshed.worker_ids) <= set(model.parameters.worker_ids)


class TestRestoredCarryover:
    """A restore whose snapshot holds entities the stream has not answered:
    every publish appends them after the live rows, workers then tasks, each
    sorted by id, with the snapshot's values bit for bit, until the stream
    answers them.  The carried rows are built once per change of the carried
    set, not once per publish."""

    def _restored(self, small_dataset, worker_pool, distance_model, collected_answers):
        new_worker, new_task = late_entities()
        fitted = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        fitted.fit(collected_answers)
        store = fitted.parameters
        snapshot = store.regather(
            list(store.worker_ids) + ["late-w"],
            list(store.task_ids) + ["late-t"],
            list(np.diff(store.label_offsets)) + [3],
        )
        snapshot.p_qualified[-1] = 0.4
        snapshot.label_probs[-3:] = [0.9, 0.1, 0.7]
        model = LocationAwareInference(
            small_dataset.tasks + [new_task],
            worker_pool.workers + [new_worker],
            distance_model,
        )
        model.warm_start(snapshot.freeze())
        updater = IncrementalUpdater(model, full_refresh_interval=10_000)
        updater.prime_carryover(model.parameters)
        return model, updater, snapshot

    def assert_publish_row_for_row(self, published, live, snapshot, carried):
        workers = sorted(w for w in carried if snapshot.has_worker(w) and not live.has_worker(w))
        tasks = sorted(t for t in carried if snapshot.has_task(t) and not live.has_task(t))
        assert published.worker_ids == live.worker_ids + tuple(workers)
        assert published.task_ids == live.task_ids + tuple(tasks)
        expected = snapshot.regather(
            workers, tasks, [snapshot.task(t).num_labels for t in tasks]
        )
        n_w, n_t, n_s = live.num_workers, live.num_tasks, live.num_label_slots
        np.testing.assert_array_equal(published.p_qualified[:n_w], live.p_qualified)
        np.testing.assert_array_equal(published.label_probs[:n_s], live.label_probs)
        np.testing.assert_array_equal(published.p_qualified[n_w:], expected.p_qualified)
        np.testing.assert_array_equal(
            published.distance_weights[n_w:], expected.distance_weights
        )
        np.testing.assert_array_equal(
            published.influence_weights[n_t:], expected.influence_weights
        )
        np.testing.assert_array_equal(published.label_probs[n_s:], expected.label_probs)

    def test_carried_rows_ride_along_until_answered(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model, updater, snapshot = self._restored(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        batches = stream_batches(
            small_dataset, worker_pool, distance_model, collected_answers, count=9
        )
        stream = AnswerSet()
        carried = set(snapshot.worker_ids) | set(snapshot.task_ids)
        for batch in (batches[:3], batches[3:6]):
            for answer in batch:
                stream.add(answer)
            updater.apply(None, batch)
            published = updater.publish_store()
            self.assert_publish_row_for_row(
                published, updater.live_store, snapshot, carried
            )
            assert published.has_worker("late-w") and published.has_task("late-t")
        updater.full_refresh(batches[6:])
        published = updater.publish_store()
        self.assert_publish_row_for_row(published, updater.live_store, snapshot, carried)
        # The stream answers the carried entities: they start from their
        # carried values and leave the carried rows.
        arrival = [Answer("late-w", "late-t", (1, 0, 1))]
        updater.apply(None, arrival)
        live = updater.live_store
        assert live.has_worker("late-w") and live.has_task("late-t")
        published = updater.publish_store()
        self.assert_publish_row_for_row(published, live, snapshot, carried)
        assert published.worker_ids.count("late-w") == 1

    def test_carried_rows_are_rebuilt_only_when_the_carried_set_changes(
        self, small_dataset, worker_pool, distance_model, collected_answers, monkeypatch
    ):
        model, updater, snapshot = self._restored(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        builds = []
        build = updater._build_carried_tail

        def counted_build():
            builds.append(len(updater._carried_workers) + len(updater._carried_tasks))
            return build()

        monkeypatch.setattr(updater, "_build_carried_tail", counted_build)
        carried = set(snapshot.worker_ids) | set(snapshot.task_ids)
        first = stream_batches(
            small_dataset, worker_pool, distance_model, collected_answers, count=12
        )
        # The stream starts empty, so the first batch admits carried entities.
        updater.apply(None, first)
        self.assert_publish_row_for_row(
            updater.publish_store(), updater.live_store, snapshot, carried
        )
        assert len(builds) == 1
        # Fresh pairs among the entities already admitted: no admission, so
        # every publish (and a full refresh) reuses the carried rows.
        seen = {(answer.worker_id, answer.task_id) for answer in first}
        again = [
            Answer(worker_id, task_id, small_dataset.task_index[task_id].truth)
            for worker_id in sorted({answer.worker_id for answer in first})
            for task_id in sorted({answer.task_id for answer in first})
            if (worker_id, task_id) not in seen
        ]
        assert again
        num_answers = updater.live_tensor.num_answers
        updater.apply(None, again)
        assert updater.live_tensor.num_answers == num_answers + len(again)
        for _ in range(2):
            self.assert_publish_row_for_row(
                updater.publish_store(), updater.live_store, snapshot, carried
            )
        updater.full_refresh([])
        self.assert_publish_row_for_row(
            updater.publish_store(), updater.live_store, snapshot, carried
        )
        assert len(builds) == 1
        # Admitting a carried worker, then a carried task, rebuilds the rows
        # each time, without the admitted entity.
        task_id = first[0].task_id
        truth = small_dataset.task_index[task_id].truth
        worker_answer = Answer("late-w", task_id, truth)
        task_answer = Answer(first[0].worker_id, "late-t", (1, 0, 1))
        for answer in (worker_answer, task_answer):
            updater.apply(None, [answer])
            published = updater.publish_store()
            self.assert_publish_row_for_row(
                published, updater.live_store, snapshot, carried
            )
        assert builds == [builds[0], builds[0] - 1, builds[0] - 2]
        assert published.worker_ids.count("late-w") == 1
        assert published.task_ids.count("late-t") == 1

    def test_publish_with_carried_rows_saves_and_loads_bit_exactly(
        self, small_dataset, worker_pool, distance_model, collected_answers, tmp_path
    ):
        model, updater, snapshot = self._restored(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        carried = set(snapshot.worker_ids) | set(snapshot.task_ids)
        updater.apply(
            None,
            stream_batches(
                small_dataset, worker_pool, distance_model, collected_answers, count=6
            ),
        )
        snapshots = SnapshotStore()
        published = snapshots.publish(updater.publish_store(), copy=False)
        assert published.store.has_worker("late-w") and published.store.has_task("late-t")
        restored = load_snapshot(published.save(tmp_path / "carried.npz"))
        assert restored.version == published.version
        assert restored.store.frozen
        assert_stores_equal(restored.store, published.store)
        self.assert_publish_row_for_row(
            restored.store, updater.live_store, snapshot, carried
        )

    def test_carried_rows_follow_a_new_estimate_and_a_cold_refit(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model, updater, snapshot = self._restored(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        carried = set(snapshot.worker_ids) | set(snapshot.task_ids)
        first = stream_batches(
            small_dataset, worker_pool, distance_model, collected_answers, count=12
        )
        updater.apply(None, first)
        updater.publish_store()
        # An estimate installed from outside becomes the carried rows' source.
        moved = snapshot.copy()
        moved.p_qualified[moved.index_of_worker("late-w")] = 0.7
        model.warm_start(moved.freeze())
        updater.apply(None, first[:1])
        published = updater.publish_store()
        self.assert_publish_row_for_row(published, updater.live_store, moved, carried)
        assert published.p_qualified[published.index_of_worker("late-w")] == 0.7
        # A cold re-fit admits its batch's carried worker without a live
        # store; the worker leaves the carried rows all the same.
        newcomer = min(
            w for w in snapshot.worker_ids if not updater.live_store.has_worker(w)
        )
        task_id = first[0].task_id
        updater.full_refresh(
            [Answer(newcomer, task_id, small_dataset.task_index[task_id].truth)],
            warm=False,
        )
        published = updater.publish_store()
        assert published.worker_ids.count(newcomer) == 1
        self.assert_publish_row_for_row(published, updater.live_store, moved, carried)


class TestLogFreeIngest:
    def _stream(self, small_dataset, worker_pool, distance_model, count=60):
        simulator = AnswerSimulator(distance_model, noise=0.0)
        events = []
        index = 0
        for profile in worker_pool:
            for task in small_dataset.tasks:
                if index >= count:
                    return events
                events.append(
                    AnswerEvent(
                        simulator.sample_answer(profile, task, seed=900 + index),
                        time=0.1 * index,
                    )
                )
                index += 1
        return events

    def test_zero_log_flattens_across_periodic_refreshes(
        self, small_dataset, worker_pool, distance_model
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        snapshots = SnapshotStore(max_snapshots=64)
        ingest = AnswerIngestor(
            inference,
            snapshots,
            config=IngestConfig(
                max_batch_answers=6, max_batch_delay=100.0, full_refresh_interval=20
            ),
        )
        for event in self._stream(small_dataset, worker_pool, distance_model):
            ingest.submit(event)
        ingest.flush(full=True)
        assert ingest.stats.full_refreshes >= 3
        assert ingest.stats.incremental_updates >= 1
        assert ingest.stats.log_flattens == 0
        assert len(ingest.answers) == 0  # log-free: nothing retained
        assert ingest._updater.live_tensor.num_answers == ingest.stats.answers

    def test_cold_final_flush_matches_offline_fit(
        self, small_dataset, worker_pool, distance_model
    ):
        """warm=False shutdown refresh == offline fit, without any log."""
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        ingest = AnswerIngestor(
            inference,
            SnapshotStore(),
            config=IngestConfig(
                max_batch_answers=8, max_batch_delay=100.0, full_refresh_interval=30
            ),
        )
        events = self._stream(small_dataset, worker_pool, distance_model)
        for event in events:
            ingest.submit(event)
        ingest.flush(full=True, warm=False)
        assert ingest.stats.log_flattens == 0

        offline = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        offline.fit(AnswerSet(event.answer for event in events))
        assert_parameters_close(inference.parameters, offline.parameters)

    def test_every_publish_hands_over_a_private_copy(
        self, small_dataset, worker_pool, distance_model
    ):
        """Publishes take the updater's store without copying it again, so
        the store must be one nobody else holds: the live store stays
        writable and shares no memory with any published version."""
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        snapshots = SnapshotStore(max_snapshots=64)
        ingest = AnswerIngestor(
            inference,
            snapshots,
            config=IngestConfig(
                max_batch_answers=5, max_batch_delay=100.0, full_refresh_interval=20
            ),
        )
        published = []
        for event in self._stream(small_dataset, worker_pool, distance_model):
            snapshot = ingest.submit(event)
            if snapshot is not None:
                published.append(snapshot)
                live = ingest._updater.live_store
                assert snapshot.store is not live and not live.frozen
                assert_stores_equal(snapshot.store, live)
        assert len(published) >= 10
        assert [s.version for s in published] == list(range(len(published)))
        live = ingest._updater.live_store
        for snapshot in published:
            assert snapshot.store.frozen
            for name in ("p_qualified", "distance_weights", "label_probs"):
                assert not np.shares_memory(
                    getattr(snapshot.store, name), getattr(live, name)
                )

    def test_published_versions_stay_immutable_under_later_publishes(
        self, small_dataset, worker_pool, distance_model
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        snapshots = SnapshotStore(max_snapshots=64)
        ingest = AnswerIngestor(
            inference,
            snapshots,
            config=IngestConfig(
                max_batch_answers=5, max_batch_delay=100.0, full_refresh_interval=1000
            ),
        )
        events = self._stream(small_dataset, worker_pool, distance_model)
        pinned = None
        pinned_copy = None
        for index, event in enumerate(events):
            snapshot = ingest.submit(event)
            if snapshot is not None and pinned is None and snapshot.version >= 2:
                pinned = snapshot
                pinned_copy = snapshot.store.copy()
        ingest.flush(full=True)
        # Later publishes (including a full refresh) never mutate version v.
        assert pinned is not None
        assert_stores_equal(pinned.store, pinned_copy)
        with pytest.raises((ValueError, RuntimeError)):
            pinned.store.p_qualified[0] = 0.0


class TestEarlyExit:
    def _setup(self, small_dataset, worker_pool, distance_model, collected_answers):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        batch = stream_batches(
            small_dataset, worker_pool, distance_model, collected_answers, count=5
        )
        log = collected_answers.copy()
        for answer in batch:
            log.add(answer)
        return model, log, batch

    def test_zero_threshold_is_exact(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        results = {}
        for threshold in (0.0, None):  # None = plain updater default
            model, log, batch = self._setup(
                small_dataset, worker_pool, distance_model, collected_answers
            )
            kwargs = {} if threshold is None else {"early_exit_threshold": threshold}
            updater = IncrementalUpdater(model, local_iterations=3, **kwargs)
            results[threshold] = updater.apply(log, batch)
        assert_parameters_close(results[0.0], results[None], atol=0.0)

    def _localized_sweeps(
        self,
        small_dataset,
        worker_pool,
        distance_model,
        collected_answers,
        iterations,
        threshold,
    ):
        """The batch's localized sweeps, run on a store of the fitted model."""
        model, log, batch = self._setup(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        tensor = AnswerTensor.build(
            log, model._tasks, model._workers, distance_model, model.config.function_set
        )
        tensor.enable_row_tracking()
        store = model.parameters.regather(
            tensor.worker_ids, tensor.task_ids, tensor.num_labels
        )
        rows_w = np.asarray(
            sorted({tensor.worker_row(a.worker_id) for a in batch}), dtype=np.intp
        )
        rows_t = np.asarray(
            sorted({tensor.task_row(a.task_id) for a in batch}), dtype=np.intp
        )
        em_kernel.localized_sweeps(
            tensor,
            store,
            em_kernel.gather_affected_rows(tensor, rows_w, rows_t),
            rows_w,
            rows_t,
            em_kernel.label_slots_of_tasks(store.label_offsets, rows_t),
            iterations=iterations,
            early_exit_threshold=threshold,
        )
        return store

    def test_saturating_threshold_degenerates_to_one_sweep(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        fixtures = (small_dataset, worker_pool, distance_model, collected_answers)
        eager = self._localized_sweeps(*fixtures, iterations=3, threshold=1.0)
        single = self._localized_sweeps(*fixtures, iterations=1, threshold=0.0)
        assert_stores_equal(eager, single)

    def test_drift_stays_within_threshold_scale(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        threshold = 0.005
        fixtures = (small_dataset, worker_pool, distance_model, collected_answers)
        exact = self._localized_sweeps(*fixtures, iterations=2, threshold=0.0)
        approx = self._localized_sweeps(*fixtures, iterations=2, threshold=threshold)
        # A settled entity skipped its last sweep, which by definition would
        # have moved it at most `threshold`; everything else is exact.
        assert exact.max_difference(approx) <= threshold

    def test_invalid_threshold_rejected(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        with pytest.raises(ValueError):
            IncrementalUpdater(model, early_exit_threshold=-0.1)


class TestLatencyReservoir:
    def test_exact_percentiles_below_cap(self):
        reservoir = LatencyReservoir(capacity=64)
        values = [float(v) for v in range(50)]
        for value in values:
            reservoir.add(value)
        assert len(reservoir) == 50
        assert reservoir.count == 50
        assert not reservoir.saturated
        assert reservoir.percentile(50.0) == pytest.approx(np.percentile(values, 50.0))
        assert reservoir.percentile(95.0) == pytest.approx(np.percentile(values, 95.0))

    def test_bounded_beyond_cap_and_representative(self):
        reservoir = LatencyReservoir(capacity=128, seed=7)
        for value in range(10_000):
            reservoir.add(float(value))
        assert len(reservoir) == 128
        assert reservoir.count == 10_000
        assert reservoir.saturated
        # A uniform sample of 0..9999: the median estimate lands mid-range.
        assert 2_000 <= reservoir.percentile(50.0) <= 8_000

    def test_frontend_stats_compatibility_view(self):
        from repro.serving.frontend import FrontendStats

        stats = FrontendStats()
        for value in (1.0, 2.0, 3.0, 4.0):
            stats.latencies.add(value)
        assert stats.latencies.samples == [1.0, 2.0, 3.0, 4.0]
        assert stats.p50_latency_ms == pytest.approx(2.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)


class TestFitFromTensor:
    def test_matches_fit_on_the_same_answers(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        tensor = AnswerTensor.build(
            collected_answers,
            model._tasks,
            model._workers,
            distance_model,
            model.config.function_set,
        )
        model.fit_from_tensor(tensor)
        from_tensor = model.parameters
        assert model.last_result.store is not None

        offline = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        offline.fit(collected_answers)
        assert_parameters_close(from_tensor, offline.parameters, atol=0.0)
