"""Tests for the pipelined serving loop (repro.serving.pipeline + wiring).

Covers, in order:

- serial-vs-pipelined equivalence: the same event stream through both loop
  modes ends in bit-equal parameter stores after the closing cold full
  refresh, with the pipelined run having genuinely overlapped fits;
- the deterministic launch/integrate schedule (pure function of applied
  answer counts) and its book-keeping counters;
- :class:`~repro.serving.pipeline.RefreshWorker` unit behaviour, including
  exception capture on the worker thread;
- :class:`~repro.serving.pipeline.PendingRefresh` reconcile accounting;
- thread-safety of :class:`~repro.serving.snapshots.SnapshotStore` under
  concurrent readers and a writer publishing full snapshots;
- isolation of :meth:`IncrementalUpdater.capture_refresh_state` copies from
  subsequent live mutations.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.serving.faults import SimulatedCrash
from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig
from repro.serving.pipeline import PendingRefresh, RefreshOutcome, RefreshWorker
from repro.serving.snapshots import SnapshotStore


def make_events(small_dataset, worker_pool, distance_model, count, gap=0.1):
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
                    time=gap * index,
                )
            )
            index += 1
    return events


def run_stream(small_dataset, worker_pool, distance_model, events, *, pipeline):
    """Feed ``events`` through one ingest loop and close with a cold full fit."""
    inference = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    snapshots = SnapshotStore(max_snapshots=64)
    config = IngestConfig(
        max_batch_answers=6,
        max_batch_delay=1000.0,
        full_refresh_interval=24,
        pipeline=pipeline,
        pipeline_lag_answers=6,
    )
    ingest = AnswerIngestor(inference, snapshots, config=config)
    for event in events:
        ingest.submit(event)
    # Cold closing fit: both modes end on a full E/M pass over the (bit-equal)
    # live tensors, so any divergence in the stores below is a pipelining bug.
    ingest.flush(full=True, warm=False)
    ingest.close()
    return ingest, snapshots


class TestPipelinedEquivalence:
    def test_pipelined_stream_matches_serial_oracle(
        self, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 72)
        serial, _ = run_stream(
            small_dataset, worker_pool, distance_model, events, pipeline=False
        )
        piped, _ = run_stream(
            small_dataset, worker_pool, distance_model, events, pipeline=True
        )
        serial_store = serial._updater.live_store
        piped_store = piped._updater.live_store
        assert serial_store.max_difference(piped_store) <= 1e-9
        np.testing.assert_array_equal(
            serial_store.p_qualified, piped_store.p_qualified
        )
        np.testing.assert_array_equal(
            serial_store.label_probs, piped_store.label_probs
        )
        # The pipelined run did real overlapped work along the way.
        assert piped.stats.refreshes_overlapped == 2
        assert serial.stats.refreshes_overlapped == 0

    def test_launch_and_integrate_points_are_count_based(
        self, small_dataset, worker_pool, distance_model
    ):
        """Interval 24 + lag 6 over 72 answers: launches at 36 and 66,
        integrations at 42 and 72 — independent of fit wall time."""
        events = make_events(small_dataset, worker_pool, distance_model, 72)
        ingest, snapshots = run_stream(
            small_dataset, worker_pool, distance_model, events, pipeline=True
        )
        stats = ingest.stats
        assert stats.answers == 72
        assert stats.refreshes_overlapped == 2
        # Each refresh integrated after exactly one lag's worth of answers.
        assert stats.answers_reconciled == 12
        # Cold start at 6, two overlapped launches, plus the closing flush.
        assert stats.full_refreshes == 4
        assert stats.refresh_failures == 0
        assert stats.max_flush_stall_ms > 0.0
        assert snapshots.latest().source == "full_refresh"

    def test_serial_mode_never_touches_the_worker(
        self, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 72)
        ingest, _ = run_stream(
            small_dataset, worker_pool, distance_model, events, pipeline=False
        )
        assert ingest._refresh_worker.launches == 0
        assert ingest.stats.answers_reconciled == 0
        assert ingest.stats.refresh_wait_seconds == 0.0


class TestRefreshWorker:
    def test_launch_wait_roundtrip(self):
        worker = RefreshWorker()
        assert not worker.in_flight
        worker.launch(lambda: "fitted")
        assert worker.in_flight
        outcome = worker.wait()
        assert isinstance(outcome, RefreshOutcome)
        assert outcome.result == "fitted"
        assert outcome.error is None
        assert outcome.fit_seconds >= 0.0
        assert not worker.in_flight
        assert worker.launches == 1

    def test_sequential_launches_allowed(self):
        worker = RefreshWorker()
        for value in range(3):
            worker.launch(lambda value=value: value)
            assert worker.wait().result == value
        assert worker.launches == 3

    def test_launch_while_in_flight_raises(self):
        release = threading.Event()
        worker = RefreshWorker()
        worker.launch(release.wait)
        try:
            with pytest.raises(RuntimeError):
                worker.launch(lambda: None)
        finally:
            release.set()
            worker.wait()

    def test_wait_without_launch_raises(self):
        with pytest.raises(RuntimeError):
            RefreshWorker().wait()

    def test_ordinary_exception_is_captured_not_raised(self):
        worker = RefreshWorker()

        def explode():
            raise ValueError("fit diverged")

        worker.launch(explode)
        outcome = worker.wait()
        assert outcome.result is None
        assert isinstance(outcome.error, ValueError)

    def test_simulated_crash_is_captured_for_relay(self):
        """BaseException subclasses must not die silently on the thread —
        they are carried back for the ingest loop to re-raise."""
        worker = RefreshWorker()

        def crash():
            raise SimulatedCrash("refresh.background")

        worker.launch(crash)
        outcome = worker.wait()
        assert isinstance(outcome.error, SimulatedCrash)

    def test_close_is_noop_when_idle_and_drains_when_not(self):
        worker = RefreshWorker()
        assert worker.close() is None
        worker.launch(lambda: 41)
        drained = worker.close()
        assert drained is not None
        assert drained.result == 41
        assert not worker.in_flight


class TestPendingRefresh:
    def test_note_batch_accumulates_counts_and_entities(self):
        pending = PendingRefresh(watermark_answers=30, warm=True)
        batch1 = [
            SimpleNamespace(worker_id="w1", task_id="t1"),
            SimpleNamespace(worker_id="w2", task_id="t1"),
        ]
        batch2 = [SimpleNamespace(worker_id="w1", task_id="t2")]
        pending.note_batch(batch1)
        pending.note_batch(batch2)
        assert pending.answers_since_launch == 3
        assert pending.reconcile_workers == {"w1", "w2"}
        assert pending.reconcile_tasks == {"t1", "t2"}


@pytest.fixture()
def fitted_store(small_dataset, worker_pool, distance_model, collected_answers):
    """An ArrayParameterStore flattened from a real fit over the test corpus."""
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    worker_ids = collected_answers.worker_ids()
    task_ids = collected_answers.task_ids()
    registry = small_dataset.task_index
    num_labels = [registry[task_id].num_labels for task_id in task_ids]
    return model.parameters.regather(worker_ids, task_ids, num_labels)


class TestSnapshotStoreConcurrency:
    """A writer publishing full snapshots (copied and handed over) while
    readers read the latest store: every read is a frozen, finite, correctly
    shaped store, and the versions a reader sees never decrease."""

    def test_concurrent_publish_and_read(self, fitted_store):
        snapshots = SnapshotStore(max_snapshots=8)
        snapshots.publish(fitted_store, source="full_refresh")
        errors: list[BaseException] = []
        done = threading.Event()
        live = fitted_store.copy()

        def writer():
            try:
                for i in range(300):
                    live.p_qualified[0] = 0.05 + (i % 18) * 0.05
                    if i % 2:
                        snapshots.publish(live, source="incremental")
                    else:
                        snapshots.publish(
                            live.copy(), source="incremental", copy=False
                        )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                last = -1
                while not done.is_set():
                    snapshot = snapshots.latest()
                    store = snapshot.store
                    assert snapshot.version >= last
                    last = snapshot.version
                    assert store.frozen
                    assert not store.p_qualified.flags.writeable
                    assert store.worker_ids == fitted_store.worker_ids
                    assert store.task_ids == fitted_store.task_ids
                    for name in ("distance_weights", "influence_weights"):
                        shape = getattr(fitted_store, name).shape
                        assert getattr(store, name).shape == shape
                    assert store.label_probs.shape == fitted_store.label_probs.shape
                    assert 0.0 < store.p_qualified[0] <= 1.0
                    assert np.all(np.isfinite(store.label_probs))
                    assert np.all(np.isfinite(store.influence_weights))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Every publish kept the value the writer had set when it published,
        # and the writer's own store stayed writable throughout.
        assert snapshots.versions == list(range(293, 301))
        for version in snapshots.versions:
            expected = 0.05 + ((version - 1) % 18) * 0.05
            published = snapshots.get(version).store
            assert float(published.p_qualified[0]) == pytest.approx(expected)
        live.p_qualified[0] = 0.5


class TestCaptureIsolation:
    def test_captured_state_is_frozen_against_live_mutation(
        self, small_dataset, worker_pool, distance_model
    ):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        ingest = AnswerIngestor(
            inference,
            SnapshotStore(),
            config=IngestConfig(
                max_batch_answers=4,
                max_batch_delay=1000.0,
                full_refresh_interval=100,
            ),
        )
        events = make_events(small_dataset, worker_pool, distance_model, 16)
        for event in events[:8]:
            ingest.submit(event)
        tensor, initial, weights, first_delta_floor = (
            ingest._updater.capture_refresh_state(warm=True)
        )
        assert weights is None
        assert tensor.num_answers == 8
        assert initial is not None
        assert initial is not ingest._updater.live_store
        assert first_delta_floor == 0.0
        frozen = np.asarray(initial.p_qualified).copy()
        # Keep streaming: the live tensor and store move on...
        for event in events[8:]:
            ingest.submit(event)
        assert ingest._updater.live_tensor.num_answers == 16
        # ...while the captured copies stay put.
        assert tensor.num_answers == 8
        np.testing.assert_array_equal(initial.p_qualified, frozen)
        ingest.close()
