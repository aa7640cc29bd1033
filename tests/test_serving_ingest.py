"""Tests for repro.serving.ingest (micro-batching, refresh policy, stats)."""

import pytest

from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.data.models import AnswerSet
from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig
from repro.serving.snapshots import SnapshotStore


def make_events(small_dataset, worker_pool, distance_model, count, start_time=0.0, gap=0.1):
    """Deterministic stream of distinct (worker, task) answer events."""
    simulator = AnswerSimulator(distance_model, noise=0.0)
    events = []
    index = 0
    for profile in worker_pool:
        for task in small_dataset.tasks:
            if index >= count:
                return events
            events.append(
                AnswerEvent(
                    simulator.sample_answer(profile, task, seed=1000 + index),
                    time=start_time + gap * index,
                )
            )
            index += 1
    return events


@pytest.fixture()
def ingestor(small_dataset, worker_pool, distance_model):
    inference = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    snapshots = SnapshotStore()
    config = IngestConfig(
        max_batch_answers=4, max_batch_delay=10.0, full_refresh_interval=100
    )
    return AnswerIngestor(inference, snapshots, config=config), snapshots


class TestConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(max_batch_answers=0)
        with pytest.raises(ValueError):
            IngestConfig(max_batch_delay=0.0)
        with pytest.raises(ValueError):
            IngestConfig(full_refresh_interval=0)
        with pytest.raises(ValueError):
            IngestConfig(local_iterations=0)


class TestMicroBatching:
    def test_count_trigger_flushes_batch(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        ingest, snapshots = ingestor
        events = make_events(small_dataset, worker_pool, distance_model, 4)
        assert ingest.submit(events[0]) is None
        assert ingest.submit(events[1]) is None
        assert ingest.submit(events[2]) is None
        assert ingest.pending == 3
        snapshot = ingest.submit(events[3])
        assert snapshot is not None
        assert snapshot.version == 0
        assert ingest.pending == 0
        assert ingest.stats.answers == 4
        assert ingest.stats.batches == 1

    def test_time_window_trigger_flushes_batch(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        ingest, _ = ingestor
        events = make_events(small_dataset, worker_pool, distance_model, 2, gap=15.0)
        assert ingest.submit(events[0]) is None
        # Second event arrives past the 10s window measured from the first.
        assert ingest.submit(events[1]) is not None
        assert ingest.stats.batches == 1

    def test_tick_closes_an_aged_batch(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        ingest, _ = ingestor
        events = make_events(small_dataset, worker_pool, distance_model, 1)
        ingest.submit(events[0])
        assert ingest.tick(now=5.0) is None  # window not elapsed yet
        snapshot = ingest.tick(now=11.0)
        assert snapshot is not None
        assert ingest.pending == 0

    def test_flush_on_empty_buffer_is_noop(self, ingestor):
        ingest, snapshots = ingestor
        assert ingest.flush() is None
        assert len(snapshots) == 0

    def test_log_free_by_default(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        """The ingestor-owned log stays empty: updates run off the live tensor."""
        ingest, _ = ingestor
        events = make_events(small_dataset, worker_pool, distance_model, 8)
        for event in events:
            ingest.submit(event)
        assert not ingest.retains_answer_log
        assert len(ingest.answers) == 0
        assert ingest.stats.answers == 8
        assert ingest._updater.live_tensor.num_answers == 8

    def test_answers_accumulate_in_log_when_retained(
        self, small_dataset, worker_pool, distance_model
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        config = IngestConfig(
            max_batch_answers=4,
            max_batch_delay=10.0,
            full_refresh_interval=100,
            retain_answer_log=True,
        )
        ingest = AnswerIngestor(inference, SnapshotStore(), config=config)
        events = make_events(small_dataset, worker_pool, distance_model, 8)
        for event in events:
            ingest.submit(event)
        assert ingest.retains_answer_log
        assert len(ingest.answers) == 8

    def test_shared_log_implies_retention(
        self, small_dataset, worker_pool, distance_model
    ):
        """A caller-provided AnswerSet keeps receiving every submitted answer."""
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        shared = AnswerSet()
        config = IngestConfig(
            max_batch_answers=4, max_batch_delay=10.0, full_refresh_interval=100
        )
        ingest = AnswerIngestor(
            inference, SnapshotStore(), config=config, answers=shared
        )
        for event in make_events(small_dataset, worker_pool, distance_model, 8):
            ingest.submit(event)
        assert ingest.retains_answer_log
        assert len(shared) == 8


class TestRefreshPolicy:
    def test_first_flush_is_a_full_refresh(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        ingest, snapshots = ingestor
        for event in make_events(small_dataset, worker_pool, distance_model, 4):
            ingest.submit(event)
        assert ingest.stats.full_refreshes == 1
        assert ingest.stats.incremental_updates == 0
        assert snapshots.latest().source == "full_refresh"

    def test_batches_between_refreshes_are_incremental(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        ingest, snapshots = ingestor
        for event in make_events(small_dataset, worker_pool, distance_model, 12):
            ingest.submit(event)
        assert ingest.stats.full_refreshes == 1
        assert ingest.stats.incremental_updates == 2
        assert snapshots.latest().source == "incremental"

    def test_interval_forces_periodic_full_refresh(
        self, small_dataset, worker_pool, distance_model
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        snapshots = SnapshotStore(max_snapshots=32)
        config = IngestConfig(
            max_batch_answers=4,
            max_batch_delay=100.0,
            full_refresh_interval=8,
            pipeline=False,  # serial loop: the refresh runs inline
        )
        ingest = AnswerIngestor(inference, snapshots, config=config)
        for event in make_events(small_dataset, worker_pool, distance_model, 16):
            ingest.submit(event)
        # Batch 1 cold-starts with a full fit; batches 2-3 are incremental
        # (counter 4, 8); batch 4 sees the 8-answer interval elapsed.
        assert ingest.stats.full_refreshes == 2
        assert ingest.stats.incremental_updates == 2

    def test_interval_refresh_is_overlapped_when_pipelined(
        self, small_dataset, worker_pool, distance_model
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        snapshots = SnapshotStore(max_snapshots=32)
        config = IngestConfig(
            max_batch_answers=4,
            max_batch_delay=100.0,
            full_refresh_interval=8,
            pipeline_lag_answers=4,
        )
        ingest = AnswerIngestor(inference, snapshots, config=config)
        for event in make_events(small_dataset, worker_pool, distance_model, 16):
            ingest.submit(event)
        # Batch 1 cold-starts serially; batch 4 trips the interval, is applied
        # incrementally, and launches a background fit (counted as a full
        # refresh at launch) that batch 5 would integrate.
        assert ingest.stats.full_refreshes == 2
        assert ingest.stats.refreshes_overlapped == 1
        assert ingest.stats.incremental_updates == 3
        ingest.close()

    def test_forced_full_flush_refits_without_new_answers(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        ingest, snapshots = ingestor
        for event in make_events(small_dataset, worker_pool, distance_model, 4):
            ingest.submit(event)
        published = len(snapshots)
        snapshot = ingest.flush(now=99.0, full=True)
        assert snapshot is not None
        assert snapshot.source == "full_refresh"
        assert len(snapshots) == published + 1
        assert ingest.stats.answers == 4  # no phantom answers counted

    def test_every_flush_publishes_one_snapshot(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        ingest, snapshots = ingestor
        for event in make_events(small_dataset, worker_pool, distance_model, 12):
            ingest.submit(event)
        assert ingest.stats.snapshots_published == 3
        assert snapshots.versions == [0, 1, 2]

    def test_predictions_follow_snapshots(
        self, ingestor, small_dataset, worker_pool, distance_model
    ):
        """The published snapshot agrees with the live model's estimate."""
        ingest, snapshots = ingestor
        for event in make_events(small_dataset, worker_pool, distance_model, 4):
            ingest.submit(event)
        snapshot = snapshots.latest()
        model_view = snapshot.as_model()
        inference_params = ingest._inference.parameters
        for task_id in snapshot.store.task_ids:
            assert model_view.task(task_id).label_probs == pytest.approx(
                inference_params.task(task_id).label_probs
            )


class TestStatDecay:
    def _run(self, small_dataset, worker_pool, distance_model, stat_decay):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        ingestor = AnswerIngestor(
            inference,
            SnapshotStore(),
            config=IngestConfig(
                max_batch_answers=8,
                max_batch_delay=10.0,
                full_refresh_interval=30,
                stat_decay=stat_decay,
            ),
        )
        for event in make_events(small_dataset, worker_pool, distance_model, 72):
            ingestor.submit(event)
        ingestor.flush()
        return ingestor._updater.live_store

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(stat_decay=0.0)
        with pytest.raises(ValueError):
            IngestConfig(stat_decay=1.5)

    def test_near_one_decay_matches_exact_path(
        self, small_dataset, worker_pool, distance_model
    ):
        # ``stat_decay < 1`` routes every update through the aging machinery
        # (per-row arrival epochs, decay**age evidence weights).  With the
        # decay infinitesimally below 1 those weights are all ~1, so the
        # decayed path must reproduce the exact historical path to <= 1e-9 —
        # the acceptance bound on the decay subsystem itself.
        exact = self._run(small_dataset, worker_pool, distance_model, 1.0)
        decayed = self._run(
            small_dataset, worker_pool, distance_model, 1.0 - 1e-12
        )
        assert exact.max_difference(decayed) <= 1e-9

    def test_aggressive_decay_actually_forgets(
        self, small_dataset, worker_pool, distance_model
    ):
        exact = self._run(small_dataset, worker_pool, distance_model, 1.0)
        decayed = self._run(small_dataset, worker_pool, distance_model, 0.5)
        assert exact.max_difference(decayed) > 1e-6
